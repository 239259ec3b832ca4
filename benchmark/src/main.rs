//! Time-to-verdict benchmark of the Jahob pipeline on the §7 suite.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload suite_cold|suite_warm|suite_incremental --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload as a closed loop: a pass starts when the previous
//! one has returned its verdicts. Every pass is checked against `expected.txt`. The
//! last line of standard output is one JSON object with the verdict gate
//! (`correct`, `attempted`, `failed`) and the metrics: end-to-end ones with
//! `--trace 0`, per-layer ones with `--trace 1`. The line before it records the
//! host, the toolchain and the seeded selection. `benchmark/README.md` says why
//! each workload exists and which layer each metric belongs to.
//!
//! Configurations come only from `DispatcherConfig::builder()`, which reads no
//! `JAHOB_*` variable, and every store lives in a temporary directory under
//! `.bench_tmp/` that is removed at exit.

use jahob::batch::{fold_method_results, MethodPlan};
use jahob::suite::full_suite;
use jahob::{CacheMode, DispatcherConfig, MethodResult, ObligationBatch, SuiteRow, Verifier};
use jahob_bapa::BapaOptions;
use jahob_frontend::program_tasks;
use jahob_logic::norm::inline_definitions;
use jahob_logic::SequentFeatures;
use jahob_provers::inst::apply_inst_hints;
use jahob_provers::{
    cost_model_path, router, BatchReport, Dispatcher, LemmaLibrary, ProverId, SequentKey,
};
use jahob_verdict_bench::{
    layer_self_times, median, parse_expected, percentile, quartiles, select_one_per_pair, Expected,
    Tracer,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const EXPECTED: &str = include_str!("../expected.txt");

/// Set-up is repeated this many times per run and reported as the median.
const SETUPS: usize = 5;

/// Largest share of a traced pass's wall time that its layer spans may leave
/// uncovered.
const SELF_TIME_TOLERANCE: f64 = 0.05;

/// `suite_incremental` pre-verifies the two fixed structures and one of each pair,
/// five of the eleven. With a calibrated cost profile, what a structure costs to
/// re-prove depends on which provers its obligations need, so pair members need
/// the same provers and have about as many obligations; every seed then leaves
/// about the same work. The Binary Search Tree, the Hash Table and the Sized List
/// (their obligations need BAPA, and the first two hold the suite's slowest,
/// instantiation-hinted ones) are never pre-verified: every pass proves them, so
/// the slowest obligation bounds every pass.
const INCREMENTAL_FIXED: [&str; 2] = ["Priority Queue", "Array List"];
const INCREMENTAL_PAIRS: [(&str, &str); 3] = [
    ("Singly-Linked List", "Circular List"),
    ("Space Subdivision Tree", "Spanning Tree"),
    ("Association List", "Cursor List"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Cold,
    Warm,
    Incremental,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "suite_cold" => Ok(Workload::Cold),
            "suite_warm" => Ok(Workload::Warm),
            "suite_incremental" => Ok(Workload::Incremental),
            _ => Err(format!(
                "unknown workload {name:?} (suite_cold, suite_warm, suite_incremental)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "suite_cold",
            Workload::Warm => "suite_warm",
            Workload::Incremental => "suite_incremental",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A private scratch directory under `.bench_tmp/` in the working directory,
/// removed (with `.bench_tmp/` itself, once empty) when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> std::io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(".bench_tmp").join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Every file of a store directory, so a pass can start from the same state.
type Snapshot = Vec<(PathBuf, Vec<u8>)>;

fn snapshot(dir: &Path) -> std::io::Result<Snapshot> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        files.push((
            PathBuf::from(path.file_name().expect("a file")),
            std::fs::read(&path)?,
        ));
    }
    files.sort();
    Ok(files)
}

fn restore(dir: &Path, files: &Snapshot) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes)?;
    }
    Ok(())
}

/// What one workload runs its passes against, prepared by set-up.
struct Prepared {
    threads: usize,
    /// The persistent store directory, for the workloads that use one.
    store: Option<PathBuf>,
    /// Store contents to restore before every pass (`suite_incremental`).
    restore: Option<Snapshot>,
    /// Disk hits every pass must see, as the warm-up pass measured them.
    disk_hits: Option<usize>,
}

/// The only configurations the benchmark uses: the builder baseline with a thread
/// count, optionally on a persistent store that is flushed explicitly.
fn config(threads: usize, store: Option<&Path>) -> DispatcherConfig {
    let builder = DispatcherConfig::builder().threads(threads);
    match store {
        Some(dir) => builder
            .cache(CacheMode::Persistent {
                dir: dir.to_path_buf(),
                flush: false,
            })
            .build(),
        None => builder.build(),
    }
}

impl Prepared {
    fn config(&self) -> DispatcherConfig {
        config(self.threads, self.store.as_deref())
    }

    fn before_pass(&self) -> Result<(), String> {
        match (&self.store, &self.restore) {
            (Some(dir), Some(files)) => {
                restore(dir, files).map_err(|e| format!("restoring the store: {e}"))
            }
            _ => Ok(()),
        }
    }
}

/// The verdict gate's running totals.
#[derive(Default)]
struct Gate {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Gate {
    fn note(&mut self, problem: String) {
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Checks one untraced pass, structure by structure.
    fn check_rows(&mut self, expected: &Expected, rows: &[SuiteRow]) {
        for (name, want) in expected {
            let Some(row) = rows.iter().find(|r| &r.name == name) else {
                self.attempted += want.sequents;
                self.failed += want.sequents;
                self.note(format!("{name}: missing from the suite"));
                continue;
            };
            self.attempted += row.total_sequents;
            let wrong = row.total_sequents.abs_diff(want.sequents)
                + row.proved_sequents.abs_diff(want.proved());
            if wrong > 0 {
                self.failed += wrong;
                self.note(format!(
                    "{name}: {}/{} proved, expected {}/{}",
                    row.proved_sequents,
                    row.total_sequents,
                    want.proved(),
                    want.sequents
                ));
            }
        }
        for row in rows.iter().filter(|r| !expected.contains_key(&r.name)) {
            self.attempted += row.total_sequents;
            self.failed += row.total_sequents;
            self.note(format!("{}: not in the expected answers", row.name));
        }
    }

    /// Checks one traced pass, method by method.
    fn check_methods(&mut self, expected: &Expected, results: &[(&str, Vec<MethodResult>)]) {
        for (name, want) in expected {
            let got = results
                .iter()
                .find(|(s, _)| s == name)
                .map_or(&[][..], |(_, m)| &m[..]);
            for (i, method) in want.methods.iter().enumerate() {
                match got.get(i).filter(|r| r.method == method.name) {
                    Some(r) => {
                        self.attempted += r.report.total_sequents;
                        let wrong = r.report.total_sequents.abs_diff(method.sequents)
                            + r.report.proved_sequents.abs_diff(method.proved);
                        if wrong > 0 {
                            self.failed += wrong;
                            self.note(format!(
                                "{name} {}: {}/{} proved, expected {}/{}",
                                method.name,
                                r.report.proved_sequents,
                                r.report.total_sequents,
                                method.proved,
                                method.sequents
                            ));
                        }
                    }
                    None => {
                        self.attempted += method.sequents;
                        self.failed += method.sequents;
                        self.note(format!("{name} {}: missing", method.name));
                    }
                }
            }
            for extra in got.iter().skip(want.methods.len()) {
                self.attempted += extra.report.total_sequents;
                self.failed += extra.report.total_sequents;
                self.note(format!(
                    "{name} {}: not in the expected answers",
                    extra.method
                ));
            }
        }
    }

    fn check_disk_hits(&mut self, want: usize, got: usize, total: usize) {
        if got != want {
            self.failed += want.abs_diff(got);
            self.note(format!(
                "{got} of {total} verdicts came from disk, set-up recorded {want}"
            ));
        }
    }
}

/// Runs one untraced pass through the `Verifier` facade; returns its wall time and
/// rows. Restoring the store happens before the clock starts; dropping the
/// verifier after it stops.
fn untraced_pass(prepared: &Prepared) -> Result<(Duration, Vec<SuiteRow>), String> {
    prepared.before_pass()?;
    let start = Instant::now();
    let verifier = Verifier::with_config(prepared.config());
    let rows = verifier.verify_suite();
    if prepared.store.is_some() {
        verifier
            .flush()
            .map_err(|e| format!("flushing the store: {e}"))?;
    }
    let elapsed = start.elapsed();
    drop(verifier);
    Ok((elapsed, rows))
}

fn disk_hits(rows: &[SuiteRow]) -> usize {
    rows.iter().map(|r| r.cache_disk_hits).sum()
}

fn obligations(rows: &[SuiteRow]) -> usize {
    rows.iter().map(|r| r.total_sequents).sum()
}

/// Gates one untraced pass, including the workload's disk-hit assertion.
fn gate_pass(gate: &mut Gate, expected: &Expected, prepared: &Prepared, rows: &[SuiteRow]) {
    gate.check_rows(expected, rows);
    if let Some(want) = prepared.disk_hits {
        gate.check_disk_hits(want, disk_hits(rows), obligations(rows));
    }
}

/// Builds the workload's state in `dir` and runs the warm-up pass.
fn set_up(
    workload: Workload,
    selection: &[&str],
    dir: &Path,
    nproc: usize,
    expected: &Expected,
    gate: &mut Gate,
) -> Result<Prepared, String> {
    let persistent = |dir: &Path, threads: usize| Verifier::with_config(config(threads, Some(dir)));
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let mut prepared = match workload {
        Workload::Cold => Prepared {
            threads: 1,
            store: None,
            restore: None,
            disk_hits: None,
        },
        Workload::Warm => {
            let store = dir.join("store");
            let seeding = persistent(&store, 1);
            gate.check_rows(expected, &seeding.verify_suite());
            seeding.flush().map_err(|e| io("seeding the store", e))?;
            Prepared {
                threads: 1,
                store: Some(store),
                restore: None,
                disk_hits: Some(expected.values().map(|s| s.sequents).sum()),
            }
        }
        Workload::Incremental => {
            // The cost profile comes from a whole-suite run, as it would after
            // earlier full verifications; the store keeps only the verdicts of the
            // structures not being re-verified, as after editing the others. The
            // profile is copied in last, so it does not depend on the selection.
            let profile_dir = dir.join("profile");
            let profiling = persistent(&profile_dir, nproc);
            gate.check_rows(expected, &profiling.verify_suite());
            profiling
                .flush()
                .map_err(|e| io("profiling the suite", e))?;
            drop(profiling);
            let seed_dir = dir.join("seed");
            let seeding = persistent(&seed_dir, nproc);
            for entry in full_suite().iter().filter(|e| selection.contains(&e.name)) {
                let report = seeding.verify(&entry.program);
                gate.attempted += report.total_sequents();
                if !report.verified() {
                    gate.failed += report.total_sequents() - report.proved_sequents();
                    gate.note(format!("set-up: {} did not verify", entry.name));
                }
            }
            seeding.flush().map_err(|e| io("seeding the store", e))?;
            drop(seeding);
            std::fs::copy(cost_model_path(&profile_dir), cost_model_path(&seed_dir))
                .map_err(|e| io("copying the cost profile", e))?;
            Prepared {
                threads: nproc,
                store: Some(dir.join("store")),
                restore: Some(snapshot(&seed_dir).map_err(|e| io("reading the seed store", e))?),
                // Recorded by the warm-up pass below.
                disk_hits: None,
            }
        }
    };
    let (_, rows) = untraced_pass(&prepared)?;
    gate_pass(gate, expected, &prepared, &rows);
    if workload == Workload::Incremental {
        prepared.disk_hits = Some(disk_hits(&rows));
    }
    Ok(prepared)
}

/// Per-pass values of the traced run, keyed by metric name.
type Samples = BTreeMap<String, Vec<f64>>;

fn push(samples: &mut Samples, name: &str, value: f64) {
    samples.entry(name.to_string()).or_default().push(value);
}

fn prover_key(id: ProverId) -> &'static str {
    match id {
        ProverId::Syntactic => "syntactic",
        ProverId::Smt => "smt",
        ProverId::Fol => "fol",
        ProverId::Mona => "mona",
        ProverId::Bapa => "bapa",
        ProverId::Interactive => "interactive",
    }
}

/// One traced pass: the same work as `Verifier::verify_suite` (plus the flush),
/// made from its public parts so each layer gets a span.
fn traced_pass(
    tracer: &mut Tracer,
    prepared: &Prepared,
    expected: &Expected,
    gate: &mut Gate,
    samples: &mut Samples,
) -> Result<(), String> {
    prepared.before_pass()?;
    let pass = tracer.open("pass");
    let dispatcher = tracer.span("store.load", || Dispatcher::with_config(prepared.config()));
    let entries = tracer.span("frontend.parse", full_suite);
    let lemmas = LemmaLibrary::new();
    let mut batch = ObligationBatch::new();
    let mut plans: Vec<(&str, Vec<MethodPlan>)> = Vec::new();
    for entry in &entries {
        let tasks = tracer.span("frontend.translate", || program_tasks(&entry.program));
        let mut methods = Vec::new();
        for task in &tasks {
            let obligations = tracer.span("vcgen.obligations", || task.obligations());
            tracer.span("batch.assemble", || {
                let method = task.qualified_name();
                let context = Arc::new(task.prover_context(&lemmas));
                methods.push((method.clone(), obligations.len()));
                batch.push_method(entry.name, &method, context, obligations);
            });
        }
        plans.push((entry.name, methods));
    }
    let report = tracer.span("dispatch.prove_all", || dispatcher.prove_all(&batch));
    let results: Vec<(&str, Vec<MethodResult>)> = tracer.span("batch.fold", || {
        plans
            .iter()
            .map(|(name, methods)| (*name, fold_method_results(&report, name, methods)))
            .collect()
    });
    let flushed = match prepared.store {
        Some(_) => tracer
            .span("store.flush", || dispatcher.flush_store())
            .map_err(|e| format!("flushing the store: {e}"))?,
        None => 0,
    };
    tracer.close(pass);

    gate.check_methods(expected, &results);
    let total = report.per_obligation.len();
    let disk = report
        .per_obligation
        .iter()
        .map(|t| t.report.cache_disk_hits)
        .sum();
    if let Some(want) = prepared.disk_hits {
        gate.check_disk_hits(want, disk, total);
    }
    push(samples, "store.entries", flushed as f64);
    push(samples, "store.retries", dispatcher.store_retries() as f64);
    push(
        samples,
        "costmodel.cells",
        dispatcher.cost_model().len() as f64,
    );
    push(samples, "vcgen.obligations", total as f64);
    let nodes: usize = batch
        .entries()
        .iter()
        .map(|e| e.obligation.sequent.size())
        .sum();
    push(samples, "vcgen.sequent_nodes", nodes as f64);
    dispatch_metrics(&report, prepared.threads, samples);
    replay(tracer, &batch, &dispatcher, samples);
    Ok(())
}

/// Counters of the dispatcher layer and of each prover. Obligations answered from
/// the cache replay their original attempt counts with zero time, so they are left
/// out: these count the work the provers did in this pass.
fn dispatch_metrics(report: &BatchReport, threads: usize, samples: &mut Samples) {
    let total = report.per_obligation.len().max(1) as f64;
    let mut counters: BTreeMap<&str, f64> = BTreeMap::new();
    let mut add = |name: &'static str, value: f64| *counters.entry(name).or_default() += value;
    let mut prover_ns = 0u128;
    let mut slowest = Duration::ZERO;
    let mut per_prover: BTreeMap<ProverId, (usize, usize, Duration)> = ProverId::default_order()
        .into_iter()
        .map(|id| (id, (0, 0, Duration::ZERO)))
        .collect();
    for tagged in &report.per_obligation {
        let r = &tagged.report;
        slowest = slowest.max(r.total_time);
        add("cache.hits", r.cache_hits as f64);
        add("cache.disk_hits", r.cache_disk_hits as f64);
        prover_ns += r
            .per_prover
            .values()
            .map(|s| s.time.as_nanos())
            .sum::<u128>();
        if r.cache_hits > 0 {
            continue;
        }
        add("dispatch.proofs", r.proved_sequents as f64);
        add("dispatch.rescue_retries", r.rescue_retries as f64);
        for (id, s) in &r.per_prover {
            add("dispatch.attempts", s.attempted as f64);
            add("dispatch.budget_aborts", s.budget_aborts as f64);
            add("dispatch.failure_skips", s.skipped as f64);
            add("dispatch.crashes", s.crashes as f64);
            add("dispatch.deadline_aborts", s.deadline_aborts as f64);
            let cell = per_prover.entry(*id).or_insert((0, 0, Duration::ZERO));
            cell.0 += s.attempted;
            cell.1 += s.proved;
            cell.2 += s.time;
        }
    }
    for name in [
        "dispatch.attempts",
        "dispatch.rescue_retries",
        "dispatch.budget_aborts",
        "dispatch.failure_skips",
        "dispatch.crashes",
        "dispatch.deadline_aborts",
    ] {
        push(samples, name, counters.get(name).copied().unwrap_or(0.0));
    }
    let attempts = counters.get("dispatch.attempts").copied().unwrap_or(0.0);
    let proofs = counters.get("dispatch.proofs").copied().unwrap_or(0.0);
    push(
        samples,
        "dispatch.attempts_per_proof",
        if proofs > 0.0 { attempts / proofs } else { 0.0 },
    );
    let hits = counters.get("cache.hits").copied().unwrap_or(0.0);
    let disk = counters.get("cache.disk_hits").copied().unwrap_or(0.0);
    push(samples, "cache.hit_share", hits / total);
    push(samples, "cache.disk_hit_share", disk / total);
    let wall_ms = report.total_time.as_secs_f64() * 1e3;
    let prover_ms = prover_ns as f64 / 1e6;
    push(
        samples,
        "dispatch.overhead_ms",
        wall_ms - prover_ms / threads as f64,
    );
    push(
        samples,
        "dispatch.max_obligation_ms",
        slowest.as_secs_f64() * 1e3,
    );
    for (id, (attempted, proved, time)) in per_prover {
        let p = prover_key(id);
        push(samples, &format!("{p}.attempts"), attempted as f64);
        push(samples, &format!("{p}.proved"), proved as f64);
        push(samples, &format!("{p}.time_ms"), time.as_secs_f64() * 1e3);
    }
}

/// Re-runs, outside the pass, the per-obligation layers `prove_all` runs inside it
/// (instantiation, inlining, keying, features, routing) and BAPA on the card
/// sequents, each call in its own span. `SequentKey::of` re-inlines its argument,
/// so `cache.key` includes one inlining of an already inlined sequent.
fn replay(
    tracer: &mut Tracer,
    batch: &ObligationBatch,
    dispatcher: &Dispatcher,
    samples: &mut Samples,
) {
    let root = tracer.open("replay");
    let mut inlined_nodes = 0usize;
    let mut set_variables_max = 0usize;
    for entry in batch.entries() {
        let ob = &entry.obligation;
        let instantiated = (!ob.hints.is_empty()).then(|| {
            tracer.span("inst.apply", || {
                let selected = ob.hinted_sequent_with_lemmas(entry.context.lemmas.named_lemmas());
                (
                    apply_inst_hints(&selected, &ob.hints),
                    apply_inst_hints(&ob.sequent, &ob.hints),
                )
            })
        });
        let (hinted_src, full_src) = match &instantiated {
            Some((hinted, full)) => (Some(hinted), full),
            None => (None, &ob.sequent),
        };
        let hinted = hinted_src.map(|h| tracer.span("norm.inline", || inline_definitions(h)));
        let full = tracer.span("norm.inline", || inline_definitions(full_src));
        inlined_nodes += full.size() + hinted.as_ref().map_or(0, |h| h.size());
        tracer.span("cache.key", || {
            black_box(SequentKey::of(&full));
            if let Some(h) = &hinted {
                black_box(SequentKey::of(h));
            }
        });
        let attempt = hinted.as_ref().unwrap_or(&full);
        let features = tracer.span("router.features", || SequentFeatures::of(attempt));
        tracer.span("router.route", || {
            black_box(router::route_with_model(
                &features,
                &dispatcher.config.order,
                dispatcher.cost_model(),
            ))
        });
        if features.card_atoms > 0 {
            let result = tracer.span("bapa.replay", || {
                jahob_bapa::prove_sequent(attempt, &BapaOptions::default())
            });
            set_variables_max = set_variables_max.max(result.set_variables);
        }
    }
    tracer.close(root);
    push(samples, "norm.inlined_nodes", inlined_nodes as f64);
    push(samples, "bapa.set_variables_max", set_variables_max as f64);
}

/// The process's peak resident set, in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Writes the traced run's spans, one JSON object a line, under `.bench_out/`.
fn write_spans(tracer: &Tracer, workload: Workload, seed: u64) -> std::io::Result<PathBuf> {
    use std::io::Write;
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (i, s) in tracer.spans().iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"pass\":{}}}",
            json_str(s.name),
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.pass
        )?;
    }
    out.flush()?;
    Ok(path)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_share") {
        "share"
    } else {
        "count"
    }
}

/// Layer spans of a pass and of a replay, and the metric each becomes.
const PASS_LAYERS: [&str; 8] = [
    "store.load",
    "frontend.parse",
    "frontend.translate",
    "vcgen.obligations",
    "batch.assemble",
    "dispatch.prove_all",
    "batch.fold",
    "store.flush",
];
const REPLAY_LAYERS: [&str; 5] = [
    "inst.apply",
    "norm.inline",
    "cache.key",
    "router.features",
    "router.route",
];

fn run(args: &Args) -> Result<(), String> {
    let expected = parse_expected(EXPECTED).map_err(|e| format!("expected.txt: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let selection = match args.workload {
        Workload::Incremental => {
            let mut selection = INCREMENTAL_FIXED.to_vec();
            selection.extend(select_one_per_pair(args.seed, &INCREMENTAL_PAIRS));
            selection
        }
        _ => Vec::new(),
    };
    let run_dir = RunDir::create().map_err(|e| format!("creating .bench_tmp: {e}"))?;
    let mut gate = Gate::default();

    let mut setup_secs = Vec::new();
    let mut prepared = None;
    for i in 0..SETUPS {
        let dir = run_dir.0.join(format!("setup-{i}"));
        let start = Instant::now();
        let p = set_up(args.workload, &selection, &dir, nproc, &expected, &mut gate)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        if let (Some(a), Some(b)) = (
            prepared.as_ref().and_then(|p: &Prepared| p.disk_hits),
            p.disk_hits,
        ) {
            if a != b {
                gate.note(format!("set-ups disagree on disk hits: {a} vs {b}"));
                gate.failed += a.abs_diff(b);
            }
        }
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let budget = Duration::from_secs_f64(args.seconds);

    // Untraced passes: the whole run, or its first half when tracing (the traced
    // half is compared with it to report the tracing overhead).
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let mut pass_ms = Vec::new();
    let mut decided = 0usize;
    let start = Instant::now();
    while pass_ms.is_empty() || start.elapsed() < untraced_budget {
        let (elapsed, rows) = untraced_pass(&prepared)?;
        pass_ms.push(elapsed.as_secs_f64() * 1e3);
        decided += obligations(&rows);
        gate_pass(&mut gate, &expected, &prepared, &rows);
    }
    let measured_s = pass_ms.iter().sum::<f64>() / 1e3;
    let p50 = median(&pass_ms).expect("at least one pass");

    let mut metrics = Vec::new();
    let mut tracer = Tracer::default();
    let mut traced_passes = 0;
    if args.trace {
        let mut samples = Samples::new();
        let start = Instant::now();
        while traced_passes == 0 || start.elapsed() < budget - untraced_budget {
            tracer.set_pass(traced_passes);
            traced_pass(&mut tracer, &prepared, &expected, &mut gate, &mut samples)?;
            traced_passes += 1;
        }
        let spans = tracer.spans();
        let passes = layer_self_times(spans, "pass");
        let replays = layer_self_times(spans, "replay");
        let mut gap_max: f64 = 0.0;
        let mut traced_ms = Vec::new();
        for (wall, layers) in &passes {
            traced_ms.push(*wall);
            gap_max = gap_max.max((wall - layers.values().sum::<f64>()) / wall);
        }
        for (layers, names) in [(&passes, &PASS_LAYERS[..]), (&replays, &REPLAY_LAYERS[..])] {
            for name in names {
                for (_, by_name) in layers.iter() {
                    push(
                        &mut samples,
                        &format!("{name}_ms"),
                        by_name.get(name).copied().unwrap_or(0.0),
                    );
                }
            }
        }
        if gap_max > SELF_TIME_TOLERANCE {
            gate.note(format!(
                "layer spans leave {:.1}% of a traced pass uncovered (tolerance {:.0}%)",
                gap_max * 100.0,
                SELF_TIME_TOLERANCE * 100.0
            ));
        }
        let traced_p50 = median(&traced_ms).expect("at least one traced pass");
        push(&mut samples, "trace.pass_p50_ms", traced_p50);
        push(&mut samples, "trace.overhead_ms", traced_p50 - p50);
        push(&mut samples, "trace.self_time_gap_share", gap_max);
        push(&mut samples, "pass.samples", traced_passes as f64);
        for (name, values) in &samples {
            let value = median(values).expect("samples are pushed per pass");
            metrics.push(metric(name, value, unit_of(name)));
        }
    } else {
        metrics.push(metric("pass_ms_p50", p50, "ms"));
        metrics.push(metric(
            "obligations_per_s",
            decided as f64 / measured_s,
            "1/s",
        ));
        metrics.push(metric(
            "setup_s",
            median(&setup_secs).expect("a set-up"),
            "s",
        ));
        metrics.push(metric("peak_rss_mb", peak_rss_mb()?, "MiB"));
    }
    let fail_share = gate.failed as f64 / gate.attempted.max(1) as f64;
    if args.trace {
        metrics.push(metric("verdict_fail_share", fail_share, "share"));
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
    }

    let spans_file = if args.trace {
        Some(
            write_spans(&tracer, args.workload, args.seed)
                .map_err(|e| format!("writing spans: {e}"))?,
        )
    } else {
        None
    };
    let [q1, _, q3] = quartiles(&pass_ms).unwrap_or([p50; 3]);
    let commit = if Path::new(".git").exists() {
        command_line("git", &["--git-dir", ".git", "rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let selection_json: Vec<String> = selection.iter().map(|s| json_str(s)).collect();
    let problems_json: Vec<String> = gate.problems.iter().map(|s| json_str(s)).collect();
    println!(
        "{{\"run\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"selection\":[{}],\"threads\":{},\
         \"nproc\":{nproc},\"host\":{},\"rustc\":{},\"commit\":{},\"passes\":{},\
         \"traced_passes\":{traced_passes},\"pass_ms_q1\":{},\"pass_ms_q3\":{},\"pass_ms_p90\":{},\"pass_ms\":[{}],\
         \"setups_s\":[{}],\"disk_hits_per_pass\":{},\"verdict_fail_share\":{},\
         \"spans_file\":{},\"problems\":[{}]}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.trace,
        selection_json.join(","),
        prepared.threads,
        json_str(&host),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&commit),
        pass_ms.len(),
        json_num(q1),
        json_num(q3),
        json_num(percentile(&pass_ms, 90.0).expect("a pass")),
        pass_ms
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(","),
        setup_secs
            .iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(","),
        prepared
            .disk_hits
            .map_or("null".to_string(), |d| d.to_string()),
        json_num(fail_share),
        spans_file.map_or("null".to_string(), |p| json_str(&p.display().to_string())),
        problems_json.join(",")
    );
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        gate.failed == 0 && gate.problems.is_empty(),
        gate.attempted.max(1),
        gate.failed,
        metrics_json.join(",")
    );
    drop(run_dir);
    Ok(())
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    if let Err(e) = outcome {
        eprintln!("benchmark error: {e}");
        std::process::exit(2);
    }
}
