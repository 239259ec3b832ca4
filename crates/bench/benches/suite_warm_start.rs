//! Cold vs warm suite verification through the persistent proof store.
//!
//! `suite_warm_start/cold` runs the whole §7 suite with a persistent cache pointed at
//! a directory that never receives a store: every iteration pays the full prover
//! cascade. `suite_warm_start/warm` points the same configuration at a directory
//! seeded by one flushed cold run: every iteration constructs a fresh dispatcher,
//! warm-loads the store and answers the suite from disk. The pair is the PR's
//! headline gauge in `BENCH_results.json`; the recorded `suite_warm_disk_hits` /
//! `suite_warm_total` metrics pin how much of the suite the store actually covered.
use criterion::{criterion_group, criterion_main, Criterion};
use jahob::{CacheMode, DispatcherConfig, Verifier};
use std::path::Path;
use std::time::Duration;

/// Options with fixed dispatcher knobs (immune to env overrides so the bench ids mean
/// what they claim): sequential, routed, persistent cache on `dir`, no implicit flush
/// (measurement iterations must stay read-only).
fn options(dir: &Path) -> DispatcherConfig {
    DispatcherConfig::builder()
        .cache(CacheMode::Persistent {
            dir: dir.to_path_buf(),
            flush: false,
        })
        .build()
}

fn suite_warm_start(c: &mut Criterion) {
    let base = std::env::temp_dir().join(format!("jahob-warm-bench-{}", std::process::id()));
    let cold_dir = base.join("cold");
    let warm_dir = base.join("warm");
    let _ = std::fs::remove_dir_all(&base);

    // Cold: the store directory stays empty (flush is off), so every iteration is a
    // full cold-start proof of the suite.
    c.bench_function("suite_warm_start/cold", |b| {
        b.iter(|| Verifier::with_config(options(&cold_dir)).verify_suite())
    });

    // Seed the warm directory with one flushed cold run.
    let seeder = Verifier::with_config(options(&warm_dir));
    seeder.verify_suite();
    let entries = seeder.flush().expect("seeding flush");
    criterion::record_metric("suite_warm_store_entries", entries as f64);

    // Warm: every iteration warm-loads the seeded store and replays the suite.
    c.bench_function("suite_warm_start/warm", |b| {
        b.iter(|| Verifier::with_config(options(&warm_dir)).verify_suite())
    });

    // Record how much of the suite the warm path actually answered from disk.
    let rows = Verifier::with_config(options(&warm_dir)).verify_suite();
    let total: usize = rows.iter().map(|r| r.total_sequents).sum();
    let disk: usize = rows.iter().map(|r| r.cache_disk_hits).sum();
    criterion::record_metric("suite_warm_total", total as f64);
    criterion::record_metric("suite_warm_disk_hits", disk as f64);
    assert!(
        disk * 10 >= total * 9,
        "warm suite must answer >=90% of {total} obligations from disk, got {disk}"
    );

    let _ = std::fs::remove_dir_all(&base);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(3));
    targets = suite_warm_start
}
criterion_main!(benches);
