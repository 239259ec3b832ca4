//! # jahob
//!
//! The top-level driver of the Jahob reproduction (*Full Functional Verification of
//! Linked Data Structures*, Zee–Kuncak–Rinard, PLDI 2008): it ties together the frontend
//! (`jahob-frontend`), the verification-condition generator (`jahob-vcgen`) and the
//! integrated reasoning system (`jahob-provers`), and ships the verified data structure
//! suite of §7 ([`suite`]).
//!
//! # Example
//!
//! ```
//! use jahob::Verifier;
//!
//! // Verify the sized list of Figure 6 (the Figure 7 scenario).
//! let program = jahob::suite::sized_list();
//! let report = Verifier::new().verify(&program);
//! let add = report.method("List.addNew").expect("addNew verified");
//! assert!(add.report.proved_sequents > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod prelude;
pub mod suite;
pub mod verifier;

use batch::{assemble_program_batch, fold_method_results};
use jahob_frontend::{MethodTask, Program};
use jahob_provers::{Dispatcher, LemmaLibrary, ProverId, VerificationReport};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

pub use jahob_provers::{
    store_path, BatchEntry, BatchReport, CacheMode, CacheStats, DispatcherConfig,
    DispatcherConfigBuilder, ObligationBatch, ObligationTag, ProverStats, SequentCache,
    TaggedReport, STORE_VERSION,
};
pub use verifier::{ProgramReport, Verifier};

/// Options for a verification run: a dispatcher configuration plus the lemma library
/// that §6.6 lemmas and `by lemma` hints resolve against ([`Verifier::from_options`]).
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Dispatcher configuration (prover order, threads, caching, routing).
    pub dispatcher: DispatcherConfig,
    /// Interactively proven lemmas to load (§6.6).
    pub lemmas: LemmaLibrary,
}

/// The verification result of one method.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// `Class.method`.
    pub method: String,
    /// The per-prover report.
    pub report: VerificationReport,
}

impl MethodResult {
    /// `true` if every sequent of the method was proved.
    pub fn verified(&self) -> bool {
        self.report.succeeded()
    }

    /// Renders the method result in the style of Figure 7.
    pub fn render(&self) -> String {
        self.report.render(&self.method)
    }
}

/// Verifies one method task with an existing dispatcher: a single-method batch through
/// the same assemble → prove → fold pipeline as [`verify_program_with`] — this is the
/// per-method dispatch path the batched differential test compares against. Because
/// cloned dispatchers share their result cache, calling this with the same dispatcher
/// for every method of a program lets obligations proved once (class invariants
/// re-established on every path) be answered from the cache for all later methods.
pub fn verify_task_with(
    dispatcher: &Dispatcher,
    task: &MethodTask,
    lemmas: &LemmaLibrary,
) -> MethodResult {
    let method = task.qualified_name();
    let obligations = task.obligations();
    let plan = (method.clone(), obligations.len());
    let mut batch = ObligationBatch::new();
    batch.push_method(
        "",
        &method,
        Arc::new(task.prover_context(lemmas)),
        obligations,
    );
    let report = dispatcher.prove_all(&batch);
    fold_method_results(&report, "", std::slice::from_ref(&plan))
        .pop()
        .expect("one method in, one result out")
}

/// Verifies every method of a program with an existing dispatcher (sharing its cache):
/// assembles **one** program-wide tagged batch, proves it with a single
/// [`Dispatcher::prove_all`] call — so the work-stealing queue sees the whole
/// obligation pool at once — and folds the tagged per-obligation reports back into
/// per-method results.
pub fn verify_program_with(
    dispatcher: &Dispatcher,
    program: &Program,
    lemmas: &LemmaLibrary,
) -> Vec<MethodResult> {
    let (batch, methods) = assemble_program_batch("", program, lemmas);
    let report = dispatcher.prove_all(&batch);
    fold_method_results(&report, "", &methods)
}

/// One row of the Figure 15 table: per-prover sequent counts and times for a whole data
/// structure (all verified methods aggregated).
#[derive(Debug, Clone)]
pub struct SuiteRow {
    /// The data structure name.
    pub name: String,
    /// Aggregated per-prover statistics.
    pub per_prover: BTreeMap<ProverId, ProverStats>,
    /// Total number of sequents.
    pub total_sequents: usize,
    /// Number of proved sequents.
    pub proved_sequents: usize,
    /// Sequents answered from the result cache.
    pub cache_hits: usize,
    /// Of `cache_hits`, sequents answered by entries warm-loaded from the persistent
    /// proof store (0 unless the cache mode is [`CacheMode::Persistent`]).
    pub cache_disk_hits: usize,
    /// Sequents that fell through the cache to the provers (0 when caching is off).
    pub cache_misses: usize,
    /// Sequents retried in the dispatcher's unbudgeted rescue pass after a budgeted
    /// cascade failed with fuel aborts (0 with budgets off).
    pub rescue_retries: usize,
    /// Total verification time.
    pub total_time: Duration,
}

impl SuiteRow {
    /// Aggregates the per-method reports of one data structure into a row, through
    /// the same [`VerificationReport::merge`] fold every other aggregate uses.
    fn from_results(name: &str, results: &[MethodResult]) -> SuiteRow {
        let mut total = VerificationReport::default();
        for r in results {
            total.merge(&r.report);
        }
        SuiteRow {
            name: name.to_string(),
            per_prover: total.per_prover,
            total_sequents: total.total_sequents,
            proved_sequents: total.proved_sequents,
            cache_hits: total.cache_hits,
            cache_disk_hits: total.cache_disk_hits,
            cache_misses: total.cache_misses,
            rescue_retries: total.rescue_retries,
            total_time: total.total_time,
        }
    }
}

/// Runs the whole suite of §7 through an existing dispatcher and returns one row per
/// data structure (Figure 15). The entire suite is assembled into **one** tagged
/// batch and proved with a single [`Dispatcher::prove_all`] call, so the
/// work-stealing queue balances the full, skewed obligation pool of all structures at
/// once while the tags keep per-structure (and per-method) attribution intact. The
/// shared result cache answers invariant obligations recurring across structures and
/// methods after their first proof. [`Verifier::verify_suite`] is the facade over it.
pub fn run_suite_with(dispatcher: &Dispatcher, lemmas: &LemmaLibrary) -> Vec<SuiteRow> {
    let entries = suite::full_suite();
    let mut batch = ObligationBatch::new();
    let mut structures: Vec<(&str, Vec<batch::MethodPlan>)> = Vec::new();
    for entry in &entries {
        let (program_batch, methods) = assemble_program_batch(entry.name, &entry.program, lemmas);
        batch.append(program_batch);
        structures.push((entry.name, methods));
    }
    let report = dispatcher.prove_all(&batch);
    structures
        .iter()
        .map(|(name, methods)| {
            let results = fold_method_results(&report, name, methods);
            SuiteRow::from_results(name, &results)
        })
        .collect()
}

/// Total prover attempts the failure memo skipped across `rows`, all provers summed —
/// the number behind the Figure 15 footer, the `suite_failure_skips` bench metric and
/// the differential harness's memo assertions.
pub fn suite_failure_skips(rows: &[SuiteRow]) -> usize {
    suite_prover_totals(rows).skipped
}

/// Total prover attempts aborted on a fuel budget across `rows`, all provers summed —
/// the number behind the Figure 15 footer, the `suite_budget_aborts` bench metric and
/// the `routing-efficiency` CI gauge (a healthy budgeted suite run aborts *some*
/// hopeless attempts; zero means the budgets are not engaging).
pub fn suite_budget_aborts(rows: &[SuiteRow]) -> usize {
    suite_prover_totals(rows).budget_aborts
}

/// Total sequents retried in the unbudgeted rescue pass across `rows` — the
/// completeness side of the fuel budgets: every sequent whose budgeted cascades
/// aborted an attempt and still failed gets exactly one unbudgeted retry.
pub fn suite_rescue_retries(rows: &[SuiteRow]) -> usize {
    rows.iter().map(|r| r.rescue_retries).sum()
}

/// Total prover panics contained at the attempt boundary across `rows`, all provers
/// summed — the number behind the Figure 15 footer and the `suite_crashes` bench
/// gauge. Zero on every healthy run; nonzero only when a prover genuinely panicked
/// or `JAHOB_FAULTS` injected one.
pub fn suite_crashes(rows: &[SuiteRow]) -> usize {
    suite_prover_totals(rows).crashes
}

/// Total prover attempts stopped at the configured wall-clock deadline across
/// `rows` — the `suite_deadline_aborts` bench gauge. Zero unless
/// `JAHOB_DEADLINE_MS` (or [`jahob_provers::DispatcherConfig::deadline_ms`]) is set.
pub fn suite_deadline_aborts(rows: &[SuiteRow]) -> usize {
    suite_prover_totals(rows).deadline_aborts
}

/// Every per-prover counter of `rows`, summed over all provers and structures.
fn suite_prover_totals(rows: &[SuiteRow]) -> ProverStats {
    let mut total = ProverStats::default();
    for stats in rows.iter().flat_map(|r| r.per_prover.values()) {
        total += *stats;
    }
    total
}

/// Renders suite rows as a Figure 15-style table. Each prover cell shows
/// `proved/attempted` (with the prover's total time), so the cost of failed cascade
/// attempts — what per-sequent routing and the failure memo exist to remove — is
/// visible in the suite table, not just in benches.
pub fn render_figure15(rows: &[SuiteRow]) -> String {
    let provers = [
        ProverId::Syntactic,
        ProverId::Mona,
        ProverId::Smt,
        ProverId::Fol,
        ProverId::Bapa,
        ProverId::Interactive,
    ];
    let mut out = String::new();
    out.push_str(&format!("{:<24}", "Data Structure"));
    for p in provers {
        out.push_str(&format!("{:>16}", p.display_name()));
    }
    out.push_str(&format!(
        "{:>10}{:>10}{:>12}{:>10}\n",
        "Proved", "Total", "Time", "Hit rate"
    ));
    let subtitle = format!("{:>16}", "(proved/att)").repeat(provers.len());
    out.push_str(&format!("{:<24}{subtitle}\n", ""));
    for row in rows {
        out.push_str(&format!("{:<24}", row.name));
        for p in provers {
            match row.per_prover.get(&p) {
                Some(s) if s.proved > 0 || s.attempted > 0 => {
                    let cell = format!(
                        "{}/{} ({:.1}s)",
                        s.proved,
                        s.attempted,
                        s.time.as_secs_f64()
                    );
                    out.push_str(&format!("{cell:>16}"));
                }
                _ => out.push_str(&format!("{:>16}", "")),
            }
        }
        let lookups = row.cache_hits + row.cache_misses;
        let hit_rate = if lookups > 0 {
            format!("{:.1}%", 100.0 * row.cache_hits as f64 / lookups as f64)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{:>10}{:>10}{:>11.1}s{:>10}\n",
            row.proved_sequents,
            row.total_sequents,
            row.total_time.as_secs_f64(),
            hit_rate
        ));
    }
    let hits: usize = rows.iter().map(|r| r.cache_hits).sum();
    let disk_hits: usize = rows.iter().map(|r| r.cache_disk_hits).sum();
    let misses: usize = rows.iter().map(|r| r.cache_misses).sum();
    if hits + misses > 0 {
        let from_disk = if disk_hits > 0 {
            format!(" ({disk_hits} from disk)")
        } else {
            String::new()
        };
        out.push_str(&format!(
            "Result cache: {} hits{}, {} misses ({:.1}% hit rate) across the suite.\n",
            hits,
            from_disk,
            misses,
            100.0 * hits as f64 / (hits + misses) as f64
        ));
    }
    let skipped = suite_failure_skips(rows);
    if skipped > 0 {
        out.push_str(&format!(
            "Failure memo: {skipped} dead prover attempts skipped across the suite.\n"
        ));
    }
    let aborts = suite_budget_aborts(rows);
    let rescues = suite_rescue_retries(rows);
    if aborts > 0 || rescues > 0 {
        out.push_str(&format!(
            "Fuel budgets: {aborts} attempts aborted, {rescues} sequents rescued unbudgeted across the suite.\n"
        ));
    }
    let crashes = suite_crashes(rows);
    let deadline_aborts = suite_deadline_aborts(rows);
    if crashes > 0 || deadline_aborts > 0 {
        out.push_str(&format!(
            "Fault containment: {crashes} prover crashes contained, {deadline_aborts} attempts \
             deadline-stopped across the suite.\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_list_add_combines_multiple_provers() {
        // The Figure 7 scenario: verifying List.addNew requires the syntactic prover plus
        // specialised reasoners (cardinality via BAPA, ground reasoning via SMT).
        let program = suite::sized_list();
        let results = Verifier::new().verify(&program).methods;
        let add = results
            .iter()
            .find(|r| r.method == "List.addNew")
            .expect("addNew task exists");
        assert!(add.report.total_sequents >= 5);
        // Several sequents are discharged automatically by different reasoners; the
        // exact proved/total ratio depends on the resource budgets of the provers and is
        // recorded in EXPERIMENTS.md.
        assert!(add.report.proved_sequents >= 2);
        let used: Vec<ProverId> = add
            .report
            .per_prover
            .iter()
            .filter(|(_, s)| s.proved > 0)
            .map(|(id, _)| *id)
            .collect();
        assert!(used.len() >= 2, "expected multiple provers, got {used:?}");
        let text = add.render();
        assert!(text.contains("sequents"));
    }

    #[test]
    fn singly_linked_list_is_mostly_automated() {
        // The paper discharges the residue of hard sequents interactively (§6.6); this
        // reproduction ships no proof scripts, so the assertion is that the integrated
        // reasoner automates the bulk of the obligations. EXPERIMENTS.md records the
        // exact proved/total ratios.
        let program = suite::singly_linked_list();
        let results = Verifier::new().verify(&program).methods;
        let total: usize = results.iter().map(|r| r.report.total_sequents).sum();
        let proved: usize = results.iter().map(|r| r.report.proved_sequents).sum();
        assert!(total >= 4);
        assert!(
            proved * 3 >= total * 2,
            "automation below 2/3: {proved}/{total}\n{}",
            results
                .iter()
                .map(|r| r.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn verify_program_dispatches_exactly_one_batch() {
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let program = suite::sized_list();
        let results = verify_program_with(&dispatcher, &program, &LemmaLibrary::new());
        assert_eq!(
            dispatcher.batches_dispatched(),
            1,
            "verifying a program must issue exactly one prove_all call"
        );
        assert!(results.iter().any(|r| r.method == "List.addNew"));
    }

    #[test]
    fn run_suite_dispatches_exactly_one_batch() {
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let rows = run_suite_with(&dispatcher, &LemmaLibrary::new());
        assert_eq!(
            dispatcher.batches_dispatched(),
            1,
            "a suite run must issue exactly one prove_all call"
        );
        assert_eq!(rows.len(), suite::full_suite().len());
        // Per-structure cache hit rates appear as a table column when caching is on.
        let table = render_figure15(&rows);
        assert!(table.contains("Hit rate"));
        assert!(table.contains('%'));
    }

    #[test]
    fn figure15_table_renders_all_rows() {
        // Use a subset-friendly rendering test on two structures to keep the unit test
        // fast; the full table is produced by the bench harness and examples.
        let verifier = Verifier::new();
        let rows: Vec<SuiteRow> = suite::full_suite()
            .iter()
            .take(2)
            .map(|entry| {
                SuiteRow::from_results(entry.name, &verifier.verify(&entry.program).methods)
            })
            .collect();
        let table = render_figure15(&rows);
        assert!(table.contains("Association List"));
        assert!(table.contains("Data Structure"));
    }

    #[test]
    fn suite_row_counters_equal_the_merged_method_reports() {
        // The row is the merge of its methods' reports, field for field: each
        // per-prover counter summed over the methods, and every report-level counter
        // likewise. Cache on, so the hit and skip columns carry nonzero values.
        let verifier = Verifier::with_config(DispatcherConfig::builder().build());
        let results = verifier.verify(&suite::sized_list()).methods;
        assert!(results.len() > 1, "the row must aggregate several methods");
        let row = SuiteRow::from_results("Sized List", &results);
        let mut merged = VerificationReport::default();
        for r in &results {
            merged.merge(&r.report);
        }
        assert_eq!(row.per_prover, merged.per_prover);
        for (id, stats) in &row.per_prover {
            let sum = |field: fn(&ProverStats) -> usize| -> usize {
                results
                    .iter()
                    .filter_map(|r| r.report.per_prover.get(id))
                    .map(field)
                    .sum()
            };
            assert_eq!(stats.proved, sum(|s| s.proved), "{id}");
            assert_eq!(stats.attempted, sum(|s| s.attempted), "{id}");
            assert_eq!(stats.cache_hits, sum(|s| s.cache_hits), "{id}");
            assert_eq!(stats.skipped, sum(|s| s.skipped), "{id}");
            assert_eq!(stats.budget_aborts, sum(|s| s.budget_aborts), "{id}");
            assert_eq!(stats.crashes, sum(|s| s.crashes), "{id}");
            assert_eq!(stats.deadline_aborts, sum(|s| s.deadline_aborts), "{id}");
            let time: Duration = results
                .iter()
                .filter_map(|r| r.report.per_prover.get(id))
                .map(|s| s.time)
                .sum();
            assert_eq!(stats.time, time, "{id}");
        }
        assert_eq!(row.total_sequents, merged.total_sequents);
        assert_eq!(row.proved_sequents, merged.proved_sequents);
        assert_eq!(row.cache_hits, merged.cache_hits);
        assert_eq!(row.cache_disk_hits, merged.cache_disk_hits);
        assert_eq!(row.cache_misses, merged.cache_misses);
        assert_eq!(row.rescue_retries, merged.rescue_retries);
        assert_eq!(row.total_time, merged.total_time);
        assert!(row.cache_hits > 0, "{row:?}");
    }
}
