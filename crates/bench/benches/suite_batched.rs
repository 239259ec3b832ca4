//! The `suite_batched` ablation: per-method dispatch (one `prove_all` per method, the
//! pre-batching seed behaviour) versus whole-program batched dispatch (one `prove_all`
//! for the entire §7 suite, what `Verifier::verify_suite` does) under
//! threads ∈ {1, 2, 4, 8}.
//!
//! The point of program-wide batching is to hand the work-stealing queue the whole
//! obligation pool at once: per-method dispatch gives each `prove_all` call only a
//! handful of obligations — too few for the queue to balance the ~100 ms outliers —
//! and pays one thread spawn/join per method instead of one per suite. On a
//! single-core box both paths measure overhead only (see EXPERIMENTS.md); the batched
//! path's load-balancing win needs multiple cores to appear in wall time.
use criterion::{criterion_group, criterion_main, Criterion};
use jahob::{suite, verify_task_with, DispatcherConfig, Verifier};
use jahob_provers::{Dispatcher, LemmaLibrary};
use std::time::Duration;

/// Options with fixed dispatcher knobs (immune to env overrides so the bench ids mean
/// what they claim). The cache stays on: it is the production default, and both paths
/// fill a fresh cache per iteration, so the comparison is fair.
fn options(threads: usize) -> DispatcherConfig {
    DispatcherConfig::builder().threads(threads).build()
}

/// The per-method seed path: one shared dispatcher (and cache), one `prove_all` call
/// per method of every structure of the suite.
fn run_suite_per_method(options: DispatcherConfig) {
    let dispatcher = Dispatcher::with_config(options);
    let lemmas = LemmaLibrary::new();
    for entry in suite::full_suite() {
        for task in jahob_frontend::program_tasks(&entry.program) {
            verify_task_with(&dispatcher, &task, &lemmas);
        }
    }
}

fn suite_batched(c: &mut Criterion) {
    for threads in [1usize, 2, 4, 8] {
        c.bench_function(format!("suite_batched/per_method_{threads}threads"), |b| {
            b.iter(|| run_suite_per_method(options(threads)))
        });
        c.bench_function(
            format!("suite_batched/whole_program_{threads}threads"),
            |b| b.iter(|| Verifier::with_config(options(threads)).verify_suite()),
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = suite_batched
}
criterion_main!(benches);
