//! Runs the whole data structure suite of §7 and prints the Figure 15-style table
//! (sequents proved per prover, per data structure, with verification times and the
//! result-cache hit rate).
//!
//! Run with `cargo run --release --example verify_suite`.
//!
//! The dispatcher knobs are read from the environment (see `DispatcherConfig::default`):
//! `JAHOB_THREADS=4 JAHOB_CACHE=on` runs the work-stealing parallel path with the
//! canonical-form result cache, `JAHOB_CACHE=off` measures the uncached baseline,
//! `JAHOB_ROUTE=off` runs the fixed global prover order, and `JAHOB_CACHE_DIR=dir`
//! warm-starts from (and flushes back to) the persistent proof store — run the example
//! twice with the same directory to see the second run answer the suite from disk.

use jahob_repro::prelude::*;

fn main() {
    let verifier = Verifier::new();
    println!(
        "dispatcher: threads={} cache={} route={}",
        verifier.config().threads,
        verifier.config().cache,
        verifier.config().route
    );
    let rows = verifier.verify_suite();
    println!("{}", render_figure15(&rows));
    let total: usize = rows.iter().map(|r| r.total_sequents).sum();
    let proved: usize = rows.iter().map(|r| r.proved_sequents).sum();
    println!("Across the suite: {proved} of {total} sequents proved automatically.");
    if verifier.config().cache.persistent_dir().is_some() {
        let disk: usize = rows.iter().map(|r| r.cache_disk_hits).sum();
        println!("Persistent store: {disk} of {total} obligations answered from disk.");
        match verifier.flush() {
            Ok(entries) => println!("Persistent store flushed ({entries} verdict entries)."),
            Err(e) => eprintln!("warning: failed to flush the proof store: {e}"),
        }
    }
}
