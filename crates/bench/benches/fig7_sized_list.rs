//! Figure 7: verification of the sized list `addNew` method, which needs the combination
//! of the syntactic prover, the SMT/FOL provers and the BAPA decision procedure.
//!
//! Measured both with per-sequent routing (the production default: the cardinality
//! sequent goes straight to BAPA) and without (the fixed §5.2 global order, where MONA
//! burns ~100 ms failing on that sequent first) — the before/after pair
//! `fig7_sized_list_addNew` / `fig7_sized_list_addNew_noroute` is recorded in
//! `BENCH_results.json` for regression tracking.
use criterion::{criterion_group, criterion_main, Criterion};
use jahob::{suite, DispatcherConfig, Verifier};
use std::time::Duration;

/// Options with fixed dispatcher knobs (immune to env overrides so the recorded
/// numbers always measure what their bench id claims).
fn options(route: bool) -> DispatcherConfig {
    DispatcherConfig::builder().route(route).build()
}

fn fig7(c: &mut Criterion) {
    let program = suite::sized_list();
    c.bench_function("fig7_sized_list_addNew", |b| {
        b.iter(|| Verifier::with_config(options(true)).verify(&program))
    });
    c.bench_function("fig7_sized_list_addNew_noroute", |b| {
        b.iter(|| Verifier::with_config(options(false)).verify(&program))
    });
    // Print the Figure 7-style report once so the bench output can be compared with the
    // paper's console transcript, and record the proved/total counts.
    let results = Verifier::with_config(options(true))
        .verify(&program)
        .methods;
    let mut proved = 0usize;
    let mut total = 0usize;
    for r in results {
        proved += r.report.proved_sequents;
        total += r.report.total_sequents;
        println!("{}", r.render());
    }
    criterion::record_metric("fig7_proved", proved as f64);
    criterion::record_metric("fig7_total", total as f64);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(3));
    targets = fig7
}
criterion_main!(benches);
