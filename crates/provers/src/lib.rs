//! # jahob-provers
//!
//! Integrated reasoning (§5–§6 of *Full Functional Verification of Linked Data
//! Structures*, PLDI 2008): the prover dispatcher that takes the proof obligations
//! produced by `jahob-vcgen` and discharges each with the cheapest applicable reasoner.
//!
//! The provers, in the architecture of Figure 1:
//!
//! * the **syntactic prover** (§6.1) — trivial validity checks applied first to every
//!   sequent;
//! * **MONA** (§6.4) — the WS1S decision procedure of `jahob-mona`;
//! * the **SMT prover** (§6.3, the CVC3/Z3 role) — ground EUF + LIA with quantifier
//!   instantiation from `jahob-smt`;
//! * the **first-order prover** (§6.2, the SPASS/E role) — the resolution prover of
//!   `jahob-folp`;
//! * **BAPA** (§6.5) — sets with cardinalities from `jahob-bapa`;
//! * the **interactive prover** (§6.6) — a library of named, interactively established
//!   lemmas; obligations registered there are treated as proved, mirroring Jahob's
//!   handling of Isabelle/Coq proof scripts.
//!
//! The dispatcher tries the provers in a configurable order (§5.2), optionally spreading
//! independent obligations over worker threads, and records per-prover sequent counts and
//! times — the data reported in Figures 7 and 15 of the paper.
//!
//! Three scaling mechanisms sit in front of the provers:
//!
//! * **work-stealing dispatch** — with [`DispatcherConfig::threads`] > 1, workers pull
//!   individual obligations from one shared atomic queue, so skewed obligation costs
//!   no longer leave threads idle the way a contiguous-chunk split does;
//! * **result caching** — with [`DispatcherConfig::cache`] enabled, every obligation is
//!   keyed by the canonical form of its definition-inlined sequent ([`SequentKey`]) and
//!   looked up in a sharded in-memory cache before any prover runs ([`cache`]); the
//!   cache's negative side additionally memoizes failed `(prover, sequent)` attempts,
//!   so no prover is ever re-run on a canonicalized sequent it already declined;
//! * **per-sequent routing** — with [`DispatcherConfig::route`] enabled, each
//!   obligation's cascade order is chosen from the sequent's syntactic features
//!   ([`jahob_logic::SequentFeatures`] → [`router`]): provers whose fragment the
//!   sequent matches run first, hopeless ones are demoted to a fallback tail (never
//!   dropped), so e.g. MONA stops burning ~100 ms failing on cardinality sequents
//!   BAPA discharges in microseconds.
//!
//! In front of all three, the structured `by` hints of an obligation
//! ([`jahob_vcgen::Hint`]) are resolved per sequent: label hints select assumptions,
//! lemma hints inject library formulas, and `inst` hints specialise universally
//! quantified assumptions at a supplied witness ([`inst`]) — the hinted,
//! instantiated sequent is what routing, the cache keys and the provers all see.
//! The architecture overview in `docs/ARCHITECTURE.md` shows where this crate sits
//! in the pipeline; `docs/SPEC_LANGUAGE.md` documents the hint syntax.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod config;
pub mod costmodel;
pub mod faults;
pub mod inst;
mod persist;
mod report;
pub mod router;
pub mod store;

pub use cache::{CacheStats, SequentCache, SequentKey};
pub use config::{CacheMode, DispatcherConfig, DispatcherConfigBuilder};
pub use costmodel::{cost_model_path, CostModel, CostStat, COST_MODEL_VERSION};
pub use faults::FaultSpec;
pub use report::{BatchReport, ProverStats, TaggedReport, VerificationReport};
pub use store::{store_path, STORE_VERSION};

use cache::{CacheKey, CachedOutcome, FailureKey, KeyMemo};
use faults::FaultPlane;
use inst::apply_inst_hints;
use jahob_logic::norm::{canonicalize, inline_definitions};
use jahob_logic::simplify::{simplify, strip_comments_deep};
use jahob_logic::{Form, SequentFeatures};
use jahob_vcgen::ProofObligation;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The provers of the integrated reasoning system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProverId {
    /// The built-in syntactic prover (§6.1).
    Syntactic,
    /// The WS1S/automata decision procedure (MONA's role, §6.4).
    Mona,
    /// The SMT-style ground prover (CVC3/Z3's role, §6.3).
    Smt,
    /// The first-order resolution prover (SPASS/E's role, §6.2).
    Fol,
    /// The BAPA decision procedure (§6.5).
    Bapa,
    /// The interactive lemma library (Isabelle/Coq's role, §6.6).
    Interactive,
}

impl ProverId {
    /// All provers in the default attempt order (cheap and specialised first).
    pub fn default_order() -> Vec<ProverId> {
        vec![
            ProverId::Syntactic,
            ProverId::Smt,
            ProverId::Mona,
            ProverId::Bapa,
            ProverId::Fol,
            ProverId::Interactive,
        ]
    }

    /// The display name used in verification reports.
    pub fn display_name(&self) -> &'static str {
        match self {
            ProverId::Syntactic => "Syntactic",
            ProverId::Mona => "MONA",
            ProverId::Smt => "SMT (Z3/CVC3)",
            ProverId::Fol => "FOL (SPASS/E)",
            ProverId::Bapa => "BAPA",
            ProverId::Interactive => "Interactive",
        }
    }
}

impl fmt::Display for ProverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_name())
    }
}

/// A library of interactively proven lemmas (§6.6), in two forms:
///
/// * **registered obligations** — whole obligations (identified by label path and goal
///   text) established by an external proof script; the dispatcher treats them as
///   proved and attributes them to the interactive prover;
/// * **named lemmas** — formulas under a name that `by lemma Name` hints can reference;
///   the dispatcher injects the named formula as an extra assumption of the hinted
///   sequent (the first step beyond label-only hints, §3.5).
#[derive(Debug, Clone, Default)]
pub struct LemmaLibrary {
    entries: BTreeSet<String>,
    named: BTreeMap<String, Form>,
}

impl LemmaLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        LemmaLibrary::default()
    }

    /// Registers a named lemma formula that `by lemma Name` hints can inject. The
    /// formula is trusted (it stands for an interactively established fact), exactly
    /// like registered obligations.
    pub fn register_lemma(&mut self, name: impl Into<String>, formula: Form) {
        self.named.insert(name.into(), formula);
    }

    /// The named lemma formulas, for resolving lemma hints
    /// (see [`ProofObligation::hinted_sequent_with_lemmas`]).
    pub fn named_lemmas(&self) -> &BTreeMap<String, Form> {
        &self.named
    }

    /// Looks up a named lemma.
    pub fn lemma(&self, name: &str) -> Option<&Form> {
        self.named.get(name)
    }

    /// The canonical key of an obligation: its label path and printed goal.
    pub fn key_of(obligation: &ProofObligation) -> String {
        format!(
            "{}|{}",
            obligation.sequent.labels.join("."),
            strip_comments_deep(&obligation.sequent.goal)
        )
    }

    /// Registers an obligation key as interactively proven.
    pub fn register(&mut self, key: impl Into<String>) {
        self.entries.insert(key.into());
    }

    /// Returns `true` if the obligation has a registered proof.
    pub fn contains(&self, obligation: &ProofObligation) -> bool {
        self.entries.contains(&Self::key_of(obligation))
    }

    /// Number of registered obligation proofs plus named lemmas.
    pub fn len(&self) -> usize {
        self.entries.len() + self.named.len()
    }

    /// Returns `true` if the library holds neither obligation proofs nor named lemmas.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.named.is_empty()
    }
}

/// Per-method context shared by the prover interfaces: which variables denote sets and
/// fields (used by the approximation steps), plus the lemma library.
#[derive(Debug, Clone, Default)]
pub struct ProverContext {
    /// Set-typed global variables.
    pub set_vars: BTreeSet<String>,
    /// Function-typed (field-like) global variables.
    pub fun_vars: BTreeSet<String>,
    /// Interactively proven lemmas.
    pub lemmas: LemmaLibrary,
}

/// Provenance of one obligation within a program-wide batch: which data structure and
/// method it came from, and its index in that method's obligation order. Dispatch
/// treats the whole batch as one pool (§3.5, §6); the tag is what folds the per-
/// obligation results back into per-method reports.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObligationTag {
    /// The data structure (suite entry) the obligation belongs to; empty outside suite
    /// runs.
    pub structure: String,
    /// `Class.method`.
    pub method: String,
    /// The index of the obligation within its method (the VC split order).
    pub index: usize,
}

/// One entry of an [`ObligationBatch`]: the obligation, its provenance, and the proving
/// context of the method it came from. Contexts are shared per method behind an `Arc`,
/// so batching a whole program costs one context per method, not per obligation.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// The proof obligation.
    pub obligation: ProofObligation,
    /// Where the obligation came from.
    pub tag: ObligationTag,
    /// The per-method proving context (set/function variable classification, lemmas).
    pub context: Arc<ProverContext>,
}

/// A batch of proof obligations, each carrying provenance and its own proving context —
/// the unit [`Dispatcher::prove_all`] dispatches. Assembling one batch per program (or
/// per suite) hands the work-stealing queue the whole obligation pool at once while the
/// tags keep per-method attribution intact.
#[derive(Debug, Clone, Default)]
pub struct ObligationBatch {
    entries: Vec<BatchEntry>,
}

impl ObligationBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        ObligationBatch::default()
    }

    /// Appends one method's obligations, tagging each with `(structure, method, index)`
    /// and sharing `context` across them.
    pub fn push_method(
        &mut self,
        structure: &str,
        method: &str,
        context: Arc<ProverContext>,
        obligations: Vec<ProofObligation>,
    ) {
        for (index, obligation) in obligations.into_iter().enumerate() {
            self.entries.push(BatchEntry {
                obligation,
                tag: ObligationTag {
                    structure: structure.to_string(),
                    method: method.to_string(),
                    index,
                },
                context: Arc::clone(&context),
            });
        }
    }

    /// A batch in which every obligation shares one context and carries only its index
    /// as provenance — the shape unit tests and microbenches feed the dispatcher.
    pub fn uniform(obligations: &[ProofObligation], context: &ProverContext) -> Self {
        let mut batch = ObligationBatch::new();
        batch.push_method("", "", Arc::new(context.clone()), obligations.to_vec());
        batch
    }

    /// Appends all entries of `other`, preserving their tags.
    pub fn append(&mut self, mut other: ObligationBatch) {
        self.entries.append(&mut other.entries);
    }

    /// The entries, in batch order.
    pub fn entries(&self) -> &[BatchEntry] {
        &self.entries
    }

    /// Number of obligations in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the batch holds no obligations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The persistent-store attachment of a dispatcher tree: where to merge-write the
/// proof store and the cost-model profile, and whether dropping the last sharer
/// should do it implicitly.
#[derive(Debug)]
struct StoreHandle {
    path: PathBuf,
    model_path: PathBuf,
    flush_on_drop: bool,
}

/// The state a dispatcher shares with all its clones, behind one `Arc`. Dropping the
/// last clone drops this exactly once, which is where the implicit store flush
/// happens — so two clones dropped at the same moment can never both skip it.
#[derive(Debug)]
struct Shared {
    cache: SequentCache,
    /// Measured attempt costs. Observations are buffered during a batch and committed
    /// only between batches, so every routed order within one `prove_all` is computed
    /// against a frozen model.
    model: CostModel,
    /// The armed fault plane (one deterministic operation count per dispatcher tree).
    /// Empty config → no-op plane.
    faults: FaultPlane,
    batches: AtomicUsize,
    /// Store/cost-model write attempts that had to be retried after a transient I/O
    /// failure (see [`Dispatcher::store_retries`]).
    store_retries: AtomicUsize,
    store: Option<StoreHandle>,
}

/// The integrated-reasoning dispatcher.
///
/// Cloning a dispatcher shares its result cache (the cache sits behind an `Arc`), so
/// one cache can serve every method of a program — or a whole suite — while each clone
/// keeps its own configuration. Under [`CacheMode::Persistent`] the cache is
/// warm-started from the on-disk proof store at construction and merge-written back
/// when the last sharing dispatcher is dropped (or on [`Dispatcher::flush_store`]).
#[derive(Debug, Clone)]
pub struct Dispatcher {
    /// Configuration (prover order, threads, caching, routing, budgets).
    pub config: DispatcherConfig,
    shared: Arc<Shared>,
}

impl Default for Dispatcher {
    fn default() -> Self {
        Dispatcher::with_config(DispatcherConfig::default())
    }
}

impl Dispatcher {
    /// Creates a dispatcher with the default prover order and a fresh cache.
    pub fn new() -> Self {
        Dispatcher::default()
    }

    /// Creates a dispatcher with the given configuration and a fresh cache. Under
    /// [`CacheMode::Persistent`] the proof store is loaded here (missing file =
    /// silent cold start; corrupt or version-mismatched file = warned cold start).
    /// A store directory that cannot be created or written warns once and degrades
    /// the cache to [`CacheMode::Memory`] — an unwritable cache dir must never turn
    /// into a panic at drop time or a silent loss of the in-memory cache.
    pub fn with_config(mut config: DispatcherConfig) -> Self {
        let faults = FaultPlane::new(&config.faults);
        if let CacheMode::Persistent { dir, .. } = &config.cache {
            if let Err(e) = probe_store_dir(dir) {
                eprintln!(
                    "warning: proof-store directory {} is not writable ({e}); \
                     degrading to the in-memory cache",
                    dir.display()
                );
                config.cache = CacheMode::Memory;
            }
        }
        let cache = SequentCache::new();
        let model = CostModel::new();
        let store = if let CacheMode::Persistent { dir, flush } = &config.cache {
            let path = store_path(dir);
            cache.absorb(persist::load_or_warn(&path, &faults));
            let model_path = cost_model_path(dir);
            model.absorb(persist::load_or_warn(&model_path, &faults));
            Some(StoreHandle {
                path,
                model_path,
                flush_on_drop: *flush,
            })
        } else {
            None
        };
        Dispatcher {
            config,
            shared: Arc::new(Shared {
                cache,
                model,
                faults,
                batches: AtomicUsize::new(0),
                store_retries: AtomicUsize::new(0),
                store,
            }),
        }
    }

    /// Merge-writes the cache's current contents into the persistent proof store and
    /// returns the number of verdict entries the store now holds. A dispatcher
    /// without a [`CacheMode::Persistent`] cache flushes nothing and returns
    /// `Ok(0)`. Concurrent flushers never torn-write (each writes a private tmp file
    /// and atomically renames it over the store) and never lose each other's
    /// entries (each re-reads the store and overlays its own snapshot before
    /// writing).
    /// The cost-model profile is merge-written after the store, in the same call.
    /// Transient I/O failures (including injected ones) are retried with a short
    /// backoff before the error is surfaced; [`Dispatcher::store_retries`] counts
    /// the retries. A file that still fails makes the call return the first error,
    /// the store's before the profile's, but both files are always attempted.
    pub fn flush_store(&self) -> std::io::Result<usize> {
        self.shared
            .flush()
            .map_err(|mut failures| failures.swap_remove(0).error)
    }

    /// Number of store/cost-model write attempts that failed transiently and were
    /// retried (shared across clones). Zero unless the filesystem — or an injected
    /// `store:`/`costmodel:` fault — made a flush fail and a retry rescued it.
    pub fn store_retries(&self) -> usize {
        self.shared.store_retries.load(Ordering::Relaxed)
    }

    /// The warning lines the implicit last-drop flush would print, without the
    /// `Drop` wrapper.
    #[cfg(test)]
    fn drop_flush_warnings(&self) -> Vec<String> {
        let failures = self.shared.flush().err().unwrap_or_default();
        failures.iter().map(ToString::to_string).collect()
    }
}

/// A persistent file a flush could not write, even after its retries. Displays as
/// the one-line warning of a failed implicit flush.
#[derive(Debug)]
struct FlushFailure {
    /// What the file is and where, e.g. `proof store <path>`.
    file: String,
    error: std::io::Error,
}

impl fmt::Display for FlushFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "warning: failed to flush {}: {}", self.file, self.error)
    }
}

impl Shared {
    /// The one flush path, behind both [`Dispatcher::flush_store`] and `Drop`:
    /// merge-writes the proof store, then commits pending cost observations and
    /// merge-writes the profile (an empty model writes nothing), each under
    /// [`Shared::with_retry`]. Both files are always attempted, so a failed
    /// (advisory) profile write never costs the verdicts. Returns the store's
    /// verdict-entry count (`0` without a persistent store), or every file that
    /// still failed, the store first.
    fn flush(&self) -> Result<usize, Vec<FlushFailure>> {
        let Some(handle) = &self.store else {
            return Ok(0);
        };
        let mut failures = Vec::new();
        let written = self
            .with_retry(|| persist::merge_write(&handle.path, self.cache.export(), &self.faults))
            .unwrap_or_else(|error| {
                failures.push(FlushFailure {
                    file: format!("proof store {}", handle.path.display()),
                    error,
                });
                0
            });
        self.model.commit();
        if !self.model.is_empty() {
            if let Err(error) = self.with_retry(|| {
                persist::merge_write(&handle.model_path, self.model.export(), &self.faults)
            }) {
                failures.push(FlushFailure {
                    file: format!("cost model {}", handle.model_path.display()),
                    error,
                });
            }
        }
        if failures.is_empty() {
            Ok(written)
        } else {
            Err(failures)
        }
    }

    /// Runs a store write up to three times, sleeping briefly between attempts.
    /// Merge-writes are idempotent (each re-reads the file and overlays the same
    /// snapshot), so retrying a failed attempt is always safe.
    fn with_retry<T>(&self, mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
        const BACKOFF_MS: [u64; 2] = [1, 5];
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(_) if attempt < BACKOFF_MS.len() => {
                    std::thread::sleep(Duration::from_millis(BACKOFF_MS[attempt]));
                    self.store_retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Checks that `dir` exists (creating it if needed) and is writable, by creating and
/// removing a uniquely named probe file. Called once per dispatcher construction so
/// an unusable [`CacheMode::Persistent`] directory degrades up front instead of
/// failing at the final flush.
fn probe_store_dir(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let probe = dir.join(format!(".jahob-probe.{}", std::process::id()));
    std::fs::write(&probe, b"probe")?;
    std::fs::remove_file(&probe)
}

impl Drop for Shared {
    /// Flushes the persistent store when the last dispatcher sharing it is dropped
    /// and the mode asked for it (`flush: true`). A failed implicit flush only warns
    /// — dropping must not panic, even if the flush path itself panics; call
    /// [`Dispatcher::flush_store`] explicitly to observe the error.
    fn drop(&mut self) {
        if let Some(handle) = &self.store {
            if handle.flush_on_drop {
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.flush()));
                match outcome {
                    Ok(Ok(_)) => {}
                    Ok(Err(failures)) => {
                        for failure in failures {
                            eprintln!("{failure}");
                        }
                    }
                    Err(_) => eprintln!(
                        "warning: implicit flush of proof store {} panicked; store left as-is",
                        handle.path.display()
                    ),
                }
            }
        }
    }
}

impl Dispatcher {
    /// The result cache shared by this dispatcher and all its clones.
    pub fn cache(&self) -> &SequentCache {
        &self.shared.cache
    }

    /// The measured cost model shared by this dispatcher and all its clones. Empty
    /// until a budgeted batch completes (or, under [`CacheMode::Persistent`], until
    /// a profile is warm-loaded from `cost-model.jahob` at construction).
    pub fn cost_model(&self) -> &CostModel {
        &self.shared.model
    }

    /// Number of `prove_all` calls this dispatcher (and its clones) has dispatched.
    /// The program-wide batching contract — one batch per program verified
    /// through `Verifier::verify`, one per suite — is asserted against this.
    pub fn batches_dispatched(&self) -> usize {
        self.shared.batches.load(Ordering::Relaxed)
    }

    /// Proves one tagged batch, returning a per-obligation report stream in batch
    /// order. Each obligation is proved under **its own** [`ProverContext`] (carried by
    /// its [`BatchEntry`]), which is what lets one batch span every method of a program
    /// — the main reason the previous fixed-context signature could not batch across
    /// methods.
    ///
    /// With `threads > 1`, workers claim entries one at a time from one shared atomic
    /// queue instead of being pre-assigned contiguous chunks: a single expensive obligation then occupies one
    /// worker while the others drain the rest of the queue. Per-obligation results are
    /// written into per-index slots and emitted in batch order, so the folded reports —
    /// including every method's `unproved` list — are identical for every thread count.
    pub fn prove_all(&self, batch: &ObligationBatch) -> BatchReport {
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let entries = batch.entries();
        let threads = self.config.threads.max(1).min(entries.len().max(1));
        // Each worker keys its obligations through its own batch-scoped memo
        // (`KeyMemo`), dropped when the batch returns.
        let reports: Vec<VerificationReport> = if threads <= 1 {
            let mut memo = KeyMemo::new();
            entries
                .iter()
                .map(|e| self.prove_entry(e, &mut memo))
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<OnceLock<VerificationReport>> =
                (0..entries.len()).map(|_| OnceLock::new()).collect();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let next = &next;
                    let slots = &slots;
                    scope.spawn(move || {
                        let mut memo = KeyMemo::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(entry) = entries.get(i) else {
                                break;
                            };
                            slots[i]
                                .set(self.prove_entry(entry, &mut memo))
                                .expect("obligation indices are claimed exactly once");
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("every claimed obligation stores a result")
                })
                .collect()
        };
        // The batch boundary is the only place observations become visible: routed
        // orders within the batch were all computed against the model as of its
        // start, so per-obligation results are independent of dispatch order.
        self.shared.model.commit();
        BatchReport {
            per_obligation: entries
                .iter()
                .zip(reports)
                .map(|(entry, report)| TaggedReport {
                    tag: entry.tag.clone(),
                    report,
                })
                .collect(),
            total_time: start.elapsed(),
        }
    }

    /// Proves one batch entry, stamping the report with the obligation's wall time (so
    /// per-method folds sum to a meaningful method time even inside a program-wide
    /// batch).
    fn prove_entry(&self, entry: &BatchEntry, memo: &mut KeyMemo) -> VerificationReport {
        let start = Instant::now();
        let mut report = self.prove_one_inner(&entry.obligation, &entry.context, memo);
        report.total_time = start.elapsed();
        report
    }

    /// Attempts one obligation, consulting the result cache first when enabled.
    /// A direct call is a batch of one: its timing observations are committed to the
    /// cost model on return (batched callers commit once per `prove_all` instead).
    pub fn prove_one(
        &self,
        obligation: &ProofObligation,
        context: &ProverContext,
    ) -> VerificationReport {
        let report = self.prove_one_inner(obligation, context, &mut KeyMemo::new());
        self.shared.model.commit();
        report
    }

    fn prove_one_inner(
        &self,
        obligation: &ProofObligation,
        context: &ProverContext,
        key_memo: &mut KeyMemo,
    ) -> VerificationReport {
        // §5.3: before any prover runs, substitute the definitions of the intermediate
        // variables introduced by the VC generator (assignment temporaries, pre-state
        // snapshots, splitter renamings). Every prover then works on the collapsed
        // sequent. The hinted variant — label-selected assumptions, any library lemmas
        // the hints name, and the instances produced by `inst` hints ([`inst`]) — is
        // what the provers try first; instantiation runs before inlining and keying,
        // so routing, `SequentKey` and the failure memo all see the instantiated
        // sequent (entries never alias across witnesses).
        let has_hints = !obligation.hints.is_empty();
        let hinted = has_hints.then(|| {
            let selected = obligation.hinted_sequent_with_lemmas(context.lemmas.named_lemmas());
            inline_definitions(&apply_inst_hints(&selected, &obligation.hints))
        });
        // The full-sequent fallback keeps the instantiations too: label hints are
        // advice the retry may discard, but an `inst` witness is information the
        // provers cannot rediscover — dropping it on retry would lose proofs whenever
        // a label hint misselected the assumptions.
        let full = if has_hints {
            inline_definitions(&apply_inst_hints(&obligation.sequent, &obligation.hints))
        } else {
            inline_definitions(&obligation.sequent)
        };
        if !self.config.cache.is_enabled() {
            return self.prove_one_uncached(obligation, context, hinted.as_ref(), &full, None);
        }
        // The canonical sequent keys and variable classifications are computed once
        // and shared between the verdict cache key and the failure memo of the
        // cascade below.
        let full_key = SequentKey::of_inlined(&full, key_memo);
        let hinted_key = hinted.as_ref().map(|h| SequentKey::of_inlined(h, key_memo));
        let full_classes = var_classes(context, &full);
        let hinted_classes = hinted.as_ref().map(|h| var_classes(context, h));
        let key = CacheKey {
            sequent: full_key.clone(),
            hinted: hinted_key.clone(),
            var_classes: match hinted_classes.as_deref() {
                Some(h) => format!("{full_classes}|{h}"),
                None => full_classes.clone(),
            },
            lemma_registered: context.lemmas.contains(obligation),
            config_fingerprint: self.config.fingerprint(),
        };
        if let Some(outcome) = self.shared.cache.lookup(&key) {
            return self.report_from_cache(obligation, outcome);
        }
        let memo = FailureMemo {
            cache: &self.shared.cache,
            full: FailureKey {
                sequent: full_key,
                var_classes: full_classes,
            },
            hinted: match (hinted_key, hinted_classes) {
                (Some(sequent), Some(var_classes)) => Some(FailureKey {
                    sequent,
                    var_classes,
                }),
                _ => None,
            },
        };
        let mut report =
            self.prove_one_uncached(obligation, context, hinted.as_ref(), &full, Some(&memo));
        report.cache_misses = 1;
        // A cascade that contained a crash or a deadline stop has attempts with
        // *unknown* verdicts: caching its outcome would freeze a fault-perturbed
        // verdict into the store and replay it on healthy runs. Leave it uncached —
        // the next run (without the fault) recomputes it cleanly.
        if report.crashes() > 0 || report.deadline_aborts() > 0 {
            return report;
        }
        let prover = report
            .per_prover
            .iter()
            .find(|(_, s)| s.proved > 0)
            .map(|(id, _)| *id);
        let attempted = report
            .per_prover
            .iter()
            .map(|(id, s)| (*id, s.attempted))
            .collect();
        let skipped = report
            .per_prover
            .iter()
            .filter(|(_, s)| s.skipped > 0)
            .map(|(id, s)| (*id, s.skipped))
            .collect();
        let budget_aborts = report
            .per_prover
            .iter()
            .filter(|(_, s)| s.budget_aborts > 0)
            .map(|(id, s)| (*id, s.budget_aborts))
            .collect();
        self.shared.cache.insert(
            key,
            CachedOutcome {
                proved: report.proved_sequents == 1,
                prover,
                attempted,
                skipped,
                budget_aborts,
                rescued: report.rescue_retries > 0,
                from_disk: false,
            },
        );
        report
    }

    /// Materialises a per-obligation report from a cached verdict: the attempted and
    /// skipped counts of the original run are replayed (with zero time) and the
    /// original prover is credited, so Figure 7/15 attributions agree with an uncached
    /// run.
    fn report_from_cache(
        &self,
        obligation: &ProofObligation,
        outcome: CachedOutcome,
    ) -> VerificationReport {
        let mut report = VerificationReport {
            total_sequents: 1,
            cache_hits: 1,
            cache_disk_hits: outcome.from_disk as usize,
            ..VerificationReport::default()
        };
        for (prover, attempted) in &outcome.attempted {
            report.per_prover.entry(*prover).or_default().attempted += attempted;
        }
        for (prover, skipped) in &outcome.skipped {
            report.per_prover.entry(*prover).or_default().skipped += skipped;
        }
        for (prover, aborts) in &outcome.budget_aborts {
            report.per_prover.entry(*prover).or_default().budget_aborts += aborts;
        }
        report.rescue_retries = outcome.rescued as usize;
        if outcome.proved {
            report.proved_sequents = 1;
            if let Some(prover) = outcome.prover {
                let stats = report.per_prover.entry(prover).or_default();
                stats.proved += 1;
                stats.cache_hits += 1;
            }
        } else {
            report.unproved.push(obligation.sequent.describe());
        }
        report
    }

    /// The prover order for one attempted sequent: with routing *and* budgets on,
    /// the measured-cost permutation of the global order (identical to the static
    /// route until the model calibrates); with routing alone, the hand-tuned static
    /// route; otherwise the global order itself.
    fn attempt_order(&self, features: &SequentFeatures) -> Vec<ProverId> {
        if self.config.route && self.config.budgets {
            router::route_with_model(features, &self.config.order, &self.shared.model)
        } else if self.config.route {
            router::route(features, &self.config.order)
        } else {
            self.config.order.clone()
        }
    }

    /// Attempts one obligation with each prover in (routed) order; the first success
    /// wins. `hinted` is the inlined hint-filtered sequent (tried first when present)
    /// and `full` the inlined full sequent. `memo` carries the failure-memo handles
    /// when the cache is enabled: attempts the negative cache already knows dead are
    /// skipped (counted per prover in [`ProverStats::skipped`]), and fresh failures
    /// are recorded.
    fn prove_one_uncached(
        &self,
        obligation: &ProofObligation,
        context: &ProverContext,
        hinted: Option<&jahob_logic::Sequent>,
        full: &jahob_logic::Sequent,
        memo: Option<&FailureMemo<'_>>,
    ) -> VerificationReport {
        let mut report = VerificationReport {
            total_sequents: 1,
            ..VerificationReport::default()
        };
        let sequent = hinted.unwrap_or(full);
        // Each phase's attempt site key was built once in `prove_one`; every prover of
        // the phase borrows the same key (the failure map stores per-prover bits).
        let phase_memo = memo.map(|m| (m.cache, m.hinted.as_ref().unwrap_or(&m.full)));
        // With budgets on, MONA and FOL run with feature-dependent fuel; every
        // aborted (prover, phase) pair is remembered so the rescue pass below can
        // retry exactly those attempts without fuel.
        let budgeted = self.config.budgets;
        let mut aborted_hinted: Vec<ProverId> = Vec::new();
        if self.cascade(
            &mut report,
            sequent,
            obligation,
            context,
            phase_memo,
            false,
            budgeted,
            &mut aborted_hinted,
            None,
        ) {
            return report;
        }
        // When hints narrowed the sequent and nothing succeeded, retry the provers with
        // the full assumption set — still instantiated — because the hints are advice,
        // not a restriction. With instantiation-only hints the two sequents coincide
        // and the retry would re-run an identical cascade, so it is skipped.
        let retry = hinted.filter(|h| *h != full);
        let mut aborted_full: Vec<ProverId> = Vec::new();
        if retry.is_some() {
            let retry_memo = memo.map(|m| (m.cache, &m.full));
            if self.cascade(
                &mut report,
                full,
                obligation,
                context,
                retry_memo,
                true,
                budgeted,
                &mut aborted_full,
                None,
            ) {
                return report;
            }
        }
        // Rescue pass: a budgeted cascade that failed with aborts proved nothing —
        // but the aborted attempts have *unknown* verdicts, so completeness demands
        // re-running exactly them without fuel. Completed budgeted attempts are not
        // retried: their verdicts are already identical to unbudgeted runs.
        if budgeted && (!aborted_hinted.is_empty() || !aborted_full.is_empty()) {
            report.rescue_retries = 1;
            if !aborted_hinted.is_empty()
                && self.cascade(
                    &mut report,
                    sequent,
                    obligation,
                    context,
                    phase_memo,
                    false,
                    false,
                    &mut Vec::new(),
                    Some(&aborted_hinted),
                )
            {
                return report;
            }
            if !aborted_full.is_empty() {
                let retry_memo = memo.map(|m| (m.cache, &m.full));
                if self.cascade(
                    &mut report,
                    full,
                    obligation,
                    context,
                    retry_memo,
                    true,
                    false,
                    &mut Vec::new(),
                    Some(&aborted_full),
                ) {
                    return report;
                }
            }
        }
        // An unproved obligation whose cascade contained crashes or deadline stops is
        // attributed: the reader of the report can tell "no prover could prove this"
        // apart from "the provers that might have proved this were stopped". Faults
        // off and no deadline → the suffix never appears and the line is byte-for-byte
        // what it always was.
        let mut description = obligation.sequent.describe();
        let (crashes, deadlines) = (report.crashes(), report.deadline_aborts());
        if crashes > 0 || deadlines > 0 {
            description.push_str(&format!(
                " [contained: {crashes} crashed, {deadlines} deadline-stopped]"
            ));
        }
        report.unproved.push(description);
        report
    }

    /// Runs one prover cascade over `sequent`, accumulating per-prover stats into
    /// `report`; returns `true` on the first success. With `memo` present (the shared
    /// cache and this phase's attempt-site key), attempts known to fail are skipped
    /// and fresh failures recorded (the interactive prover is exempt: its verdict
    /// depends on the obligation's label path and the lemma library, not on the
    /// sequent alone).
    ///
    /// With `budgeted` set, MONA and FOL run under the feature-dependent fuel of
    /// [`fuel_for`]; an attempt that exhausts its fuel is *aborted* — counted in
    /// [`ProverStats::budget_aborts`], pushed onto `aborted`, and crucially **not**
    /// recorded in the failure memo, because its verdict is unknown. Attempts that
    /// complete within budget fail exactly as they would unbudgeted and are memoized
    /// as usual. `only` restricts the cascade to the listed provers — the rescue
    /// pass uses it to retry precisely the aborted attempts without fuel.
    #[allow(clippy::too_many_arguments)]
    fn cascade(
        &self,
        report: &mut VerificationReport,
        sequent: &jahob_logic::Sequent,
        obligation: &ProofObligation,
        context: &ProverContext,
        memo: Option<(&SequentCache, &FailureKey)>,
        skip_syntactic: bool,
        budgeted: bool,
        aborted: &mut Vec<ProverId>,
        only: Option<&[ProverId]>,
    ) -> bool {
        // One lock + hash fetches the phase's whole failure mask; each prover then
        // tests its own bit locally.
        let failed_mask = memo.map_or(0, |(cache, site)| cache.failed_mask(site));
        let features = SequentFeatures::of(sequent);
        let bucket = features.bucket();
        let fuel = budgeted.then(|| fuel_for(&features));
        for prover in self.attempt_order(&features) {
            if skip_syntactic && matches!(prover, ProverId::Syntactic) {
                continue;
            }
            if only.is_some_and(|list| !list.contains(&prover)) {
                continue;
            }
            let memoized = match memo {
                Some((cache, site)) if prover != ProverId::Interactive => Some((cache, site)),
                _ => None,
            };
            if let Some((cache, _)) = memoized {
                if cache::mask_contains(failed_mask, prover) {
                    cache.note_failure_hit();
                    report.per_prover.entry(prover).or_default().skipped += 1;
                    continue;
                }
            }
            let start = Instant::now();
            let deadline = self
                .config
                .deadline_ms
                .map(|ms| start + Duration::from_millis(ms));
            let outcome = contained_attempt(
                &self.shared.faults,
                prover,
                sequent,
                obligation,
                context,
                fuel.as_ref(),
                deadline,
            );
            let elapsed = start.elapsed();
            if self.config.budgets {
                self.shared.model.observe(
                    prover,
                    bucket,
                    elapsed.as_nanos() as u64,
                    outcome == AttemptOutcome::Proved,
                );
            }
            let stats = report.per_prover.entry(prover).or_default();
            stats.attempted += 1;
            stats.time += elapsed;
            match outcome {
                AttemptOutcome::Proved => {
                    stats.proved += 1;
                    report.proved_sequents = 1;
                    return true;
                }
                AttemptOutcome::BudgetAborted => {
                    // Unknown verdict: no failure memo, but remember the attempt so
                    // the rescue pass can rerun it without fuel.
                    stats.budget_aborts += 1;
                    aborted.push(prover);
                }
                AttemptOutcome::Crashed => {
                    // Unknown verdict, like a budget abort — but not rescued (a
                    // rerun would crash again) and never memoized. The cascade just
                    // moves on to the next prover.
                    stats.crashes += 1;
                }
                AttemptOutcome::DeadlineExceeded => {
                    // The attempt hit the configured wall-clock deadline; its
                    // verdict is unknown, so it is neither memoized nor rescued
                    // (rescue exists for fuel aborts, whose reruns are bounded —
                    // rerunning a deadline stop would just burn the deadline again).
                    stats.deadline_aborts += 1;
                }
                AttemptOutcome::Failed => {
                    if let Some((cache, site)) = memoized {
                        cache.record_failure(site, prover);
                    }
                }
            }
        }
        false
    }
}

/// The failure-memo handles of one obligation's cascade: the shared cache plus the
/// attempt-site keys of the two sequents the cascade can attempt (the hinted variant,
/// then the full sequent on retry), each built once per obligation.
struct FailureMemo<'a> {
    cache: &'a SequentCache,
    full: FailureKey,
    hinted: Option<FailureKey>,
}

/// The set/function classification of the free variables of `sequent` under `context`
/// — part of every cache key, because the classification steers the SMT/FOL
/// translations.
fn var_classes(context: &ProverContext, sequent: &jahob_logic::Sequent) -> String {
    let mut classes = String::new();
    for v in &sequent.free_vars() {
        if context.set_vars.contains(v) {
            classes.push_str("S:");
            classes.push_str(v);
            classes.push(';');
        }
        if context.fun_vars.contains(v) {
            classes.push_str("F:");
            classes.push_str(v);
            classes.push(';');
        }
    }
    classes
}

/// The verdict of one prover attempt. `Failed` is a completed negative run
/// — identical to what an unbudgeted run would conclude, so it may be memoized.
/// `BudgetAborted` means the attempt ran out of fuel with the verdict still unknown;
/// it must be neither memoized nor treated as a failure. The two containment
/// outcomes are likewise unknown-verdict stops: `Crashed` is a prover panic caught
/// at the attempt boundary, `DeadlineExceeded` a cooperative wall-clock stop
/// ([`DispatcherConfig::deadline_ms`]). Neither is memoized, neither is rescued —
/// a crash would just crash again, and a deadline exists precisely to bound the
/// attempt's wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptOutcome {
    Proved,
    Failed,
    BudgetAborted,
    Crashed,
    DeadlineExceeded,
}

/// Cooperative fuel for one budgeted cascade: deterministic work units, not wall
/// time, so abort decisions are reproducible across runs and machines.
#[derive(Debug, Clone, Copy)]
struct FuelBudget {
    /// MONA automaton-construction work ([`jahob_mona::MonaOptions::max_work`]).
    mona_work: u64,
    /// MONA per-automaton state cap ([`jahob_mona::MonaOptions::max_states`]).
    mona_states: usize,
    /// FOL given-clause iterations ([`jahob_folp::ResolutionLimits::max_iterations`]).
    fol_iterations: usize,
    /// SMT ground-search steps ([`jahob_smt::GroundLimits::max_steps`] — DPLL
    /// decisions + conflicts). The ground search is deterministic, so a budgeted run
    /// that completes (`Sat`/`Unsat`) is bit-identical to the unbudgeted verdict; only
    /// a truncated search (`Unknown`) becomes a budget abort.
    smt_steps: usize,
}

/// The feature-dependent fuel policy. Reachability sequents legitimately build large
/// automata and quantified sequents legitimately saturate longer, so those buckets
/// keep generous budgets; everything else gets fuel sized so that the provers'
/// *successful* runs fit comfortably while hopeless runs abort at a small fraction
/// of their unbudgeted cost. Aborts are always rescued unbudgeted, so these
/// constants trade only time, never verdicts.
///
/// The SMT step budget is the big saver on the §7 suite: every winning ground search
/// there closes after unit propagation alone (a single DPLL step), while the searches
/// that end in a countermodel (a genuine SMT failure some later prover then
/// discharges) burn hundreds of decision steps at tens of milliseconds per attempt.
fn fuel_for(features: &SequentFeatures) -> FuelBudget {
    let (mona_work, mona_states) = if features.reachability_atoms > 0 {
        (2_000_000, 768)
    } else {
        (150_000, 256)
    };
    let fol_iterations = if features.quantifiers > 0 { 120 } else { 60 };
    FuelBudget {
        mona_work,
        mona_states,
        fol_iterations,
        smt_steps: 32,
    }
}

/// Runs a single prover on a sequent. With `fuel` present, MONA and FOL run under
/// its limits and report [`AttemptOutcome::BudgetAborted`] when they hit them;
/// without it they run with their standing (effectively unlimited) budgets, and a
/// resource stop is reported as a plain failure exactly as before.
///
/// With `deadline` present, the long-running provers (MONA, SMT, FOL) additionally
/// check the wall clock at their existing fuel sites and stop with
/// [`AttemptOutcome::DeadlineExceeded`] once it passes. The deadline check is
/// independent of `fuel`: it fires with budgets off too. The syntactic, BAPA and
/// interactive provers have no long-running loops and are exempt.
fn attempt(
    prover: ProverId,
    sequent: &jahob_logic::Sequent,
    obligation: &ProofObligation,
    context: &ProverContext,
    fuel: Option<&FuelBudget>,
    deadline: Option<Instant>,
) -> AttemptOutcome {
    let verdict = |proved: bool| {
        if proved {
            AttemptOutcome::Proved
        } else {
            AttemptOutcome::Failed
        }
    };
    match prover {
        ProverId::Syntactic => verdict(syntactic_prover(sequent)),
        ProverId::Mona => {
            let mut opts = jahob_mona::MonaOptions::default();
            if let Some(fuel) = fuel {
                opts.max_work = fuel.mona_work;
                opts.max_states = fuel.mona_states;
            }
            opts.deadline = deadline;
            let result = jahob_mona::prove_sequent(sequent, &opts);
            if result.proved {
                AttemptOutcome::Proved
            } else if result.deadline_exceeded {
                AttemptOutcome::DeadlineExceeded
            } else if fuel.is_some() && result.budget_exhausted {
                AttemptOutcome::BudgetAborted
            } else {
                AttemptOutcome::Failed
            }
        }
        ProverId::Smt => {
            let mut opts = jahob_smt::SmtOptions {
                set_vars: context.set_vars.clone(),
                fun_vars: context.fun_vars.clone(),
                ..jahob_smt::SmtOptions::default()
            };
            if let Some(fuel) = fuel {
                opts.ground_limits.max_steps = fuel.smt_steps.min(opts.ground_limits.max_steps);
            }
            opts.ground_limits.deadline = deadline;
            let result = jahob_smt::prove_sequent(sequent, &opts);
            if result.proved {
                AttemptOutcome::Proved
            } else if result.outcome == jahob_smt::GroundOutcome::Deadline {
                AttemptOutcome::DeadlineExceeded
            } else if fuel.is_some() && result.outcome == jahob_smt::GroundOutcome::Unknown {
                // `Unknown` is a truncated search (step budget or clause cap), not a
                // countermodel; the deterministic DPLL search means any *completed*
                // budgeted verdict equals the unbudgeted one.
                AttemptOutcome::BudgetAborted
            } else {
                AttemptOutcome::Failed
            }
        }
        ProverId::Fol => {
            let mut opts = jahob_folp::FolOptions::default();
            opts.translate.set_vars = context.set_vars.clone();
            opts.translate.fun_vars = context.fun_vars.clone();
            // Keep the resolution budget modest: the FOL prover is a fallback behind the
            // SMT prover in the default order.
            opts.limits.max_iterations = fuel.map_or(300, |f| f.fol_iterations.min(300));
            opts.limits.deadline = deadline;
            let result = jahob_folp::prove_sequent(sequent, &opts);
            if result.proved {
                AttemptOutcome::Proved
            } else if result.deadline_exceeded() {
                AttemptOutcome::DeadlineExceeded
            } else if fuel.is_some() && result.resource_limited() {
                AttemptOutcome::BudgetAborted
            } else {
                AttemptOutcome::Failed
            }
        }
        ProverId::Bapa => {
            verdict(jahob_bapa::prove_sequent(sequent, &jahob_bapa::BapaOptions::default()).proved)
        }
        ProverId::Interactive => verdict(context.lemmas.contains(obligation)),
    }
}

/// Runs one prover attempt inside the fault-containment boundary: any injected fault
/// for `prover` fires first (so delays count against the attempt's own deadline),
/// and the whole attempt runs under [`std::panic::catch_unwind`]. A panicking prover
/// — injected or genuine — becomes [`AttemptOutcome::Crashed`] instead of unwinding
/// through the dispatcher (and, under threaded dispatch, aborting the process).
/// Injected panics are silenced by the quiet panic hook; genuine prover panics still
/// print their message before being contained.
fn contained_attempt(
    faults: &FaultPlane,
    prover: ProverId,
    sequent: &jahob_logic::Sequent,
    obligation: &ProofObligation,
    context: &ProverContext,
    fuel: Option<&FuelBudget>,
    deadline: Option<Instant>,
) -> AttemptOutcome {
    faults::install_quiet_panic_hook();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        faults.prover_attempt(prover);
        attempt(prover, sequent, obligation, context, fuel, deadline)
    }));
    faults::clear_injected_panic_marker();
    match outcome {
        Ok(verdict) => verdict,
        Err(_) => AttemptOutcome::Crashed,
    }
}

/// The syntactic prover (§6.1): trivial validity checks that discharge a large share of
/// the sequents (null-check obligations repeated along paths, invariants re-established
/// verbatim, and so on).
///
/// The checks are applied twice: once on the lightly simplified sequent, and once after
/// inlining the definitional equalities of generated variables and canonicalising
/// commutative operators — the "simple syntactic transformations that preserve validity"
/// the paper alludes to. Both passes are sound: they only rewrite the sequent into
/// equivalent form and then look for the goal among the assumptions.
pub fn syntactic_prover(sequent: &jahob_logic::Sequent) -> bool {
    if syntactic_check(sequent, false) {
        return true;
    }
    let inlined = inline_definitions(sequent);
    syntactic_check(&inlined, true)
}

/// One pass of the syntactic validity checks. When `canonical` is set, formulas are
/// compared modulo commutativity/associativity of `&`, `|`, `Un`, `Int`, `+`, `=` and
/// membership expansion; otherwise only simplification and comment stripping are applied.
fn syntactic_check(sequent: &jahob_logic::Sequent, canonical: bool) -> bool {
    let norm = |f: &Form| -> Form {
        if canonical {
            canonicalize(f)
        } else {
            simplify(&strip_comments_deep(f))
        }
    };
    let goal = norm(&sequent.goal);
    if goal.is_true() {
        return true;
    }
    // Reflexive equality.
    if let Some((l, r)) = goal.as_eq() {
        if l == r {
            return true;
        }
    }
    let assumptions: Vec<Form> = sequent.assumptions.iter().map(norm).collect();
    // A false assumption proves anything.
    if assumptions.iter().any(Form::is_false) {
        return true;
    }
    // The goal (or each of its conjuncts) appears among the assumptions, possibly as a
    // conjunct of an assumption, possibly as a symmetric equality.
    let mut available: BTreeSet<Form> = BTreeSet::new();
    for a in &assumptions {
        for c in a.conjuncts() {
            available.insert(c.clone());
            if let Some((l, r)) = c.as_eq() {
                available.insert(Form::eq(r.clone(), l.clone()));
            }
        }
    }
    goal.conjuncts().iter().all(|c| {
        available.contains(*c) || c.as_eq().map(|(l, r)| l == r).unwrap_or(false) || c.is_true()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use config::{
        parse_count_knob, parse_dir_knob, parse_faults_knob, parse_millis_knob, parse_switch_knob,
    };
    use jahob_logic::{parse_form, Sequent};
    use jahob_vcgen::Hint;

    fn ob(assumptions: &[&str], goal: &str) -> ProofObligation {
        ProofObligation {
            sequent: Sequent::new(
                assumptions
                    .iter()
                    .map(|a| parse_form(a).expect("parse"))
                    .collect(),
                parse_form(goal).expect("parse"),
            ),
            hints: Vec::new(),
        }
    }

    #[test]
    fn syntactic_prover_discharges_trivial_sequents() {
        assert!(syntactic_prover(&ob(&["x ~= null"], "x ~= null").sequent));
        assert!(syntactic_prover(&ob(&["p & q"], "q").sequent));
        assert!(syntactic_prover(&ob(&["a = b"], "b = a").sequent));
        assert!(syntactic_prover(&ob(&["False"], "anything = 1").sequent));
        assert!(syntactic_prover(&ob(&[], "x = x").sequent));
        assert!(!syntactic_prover(&ob(&["p | q"], "p").sequent));
    }

    #[test]
    fn dispatcher_routes_to_the_right_prover() {
        let dispatcher = Dispatcher::new();
        let context = ProverContext::default();
        // Syntactic.
        let r = dispatcher.prove_one(&ob(&["p"], "p"), &context);
        assert_eq!(r.per_prover[&ProverId::Syntactic].proved, 1);
        // Arithmetic goes to the SMT prover.
        let r = dispatcher.prove_one(&ob(&["x = y + 1", "0 <= y"], "1 <= x"), &context);
        assert!(r.succeeded());
        assert_eq!(r.per_prover[&ProverId::Smt].proved, 1);
        // Cardinality goes to BAPA.
        let r = dispatcher.prove_one(
            &ob(
                &[
                    "size = card content",
                    "x ~: content",
                    "content1 = content Un {x}",
                ],
                "size + 1 = card content1",
            ),
            &context,
        );
        assert!(r.succeeded());
        assert_eq!(r.per_prover[&ProverId::Bapa].proved, 1);
    }

    #[test]
    fn unproved_obligations_are_reported() {
        let dispatcher = Dispatcher::new();
        let context = ProverContext::default();
        let r = dispatcher.prove_one(&ob(&["p"], "q"), &context);
        assert!(!r.succeeded());
        assert_eq!(r.unproved.len(), 1);
    }

    #[test]
    fn interactive_lemmas_are_honoured() {
        let dispatcher = Dispatcher::new();
        let mut context = ProverContext::default();
        let hard = ob(&["complicated : thing"], "deep_theorem = True");
        context.lemmas.register(LemmaLibrary::key_of(&hard));
        let r = dispatcher.prove_one(&hard, &context);
        assert!(r.succeeded());
        assert_eq!(r.per_prover[&ProverId::Interactive].proved, 1);
    }

    #[test]
    fn hints_filter_assumptions_but_do_not_lose_proofs() {
        let dispatcher = Dispatcher::new();
        let context = ProverContext::default();
        let mut o = ob(
            &["comment ''key'' (a = b)", "comment ''noise'' (c : d)"],
            "b = a",
        );
        o.hints = vec![Hint::label("key")];
        assert!(dispatcher.prove_one(&o, &context).succeeded());
        // A hint pointing at the wrong assumption still succeeds via the full-sequent
        // retry.
        o.hints = vec![Hint::label("noise")];
        assert!(dispatcher.prove_one(&o, &context).succeeded());
    }

    #[test]
    fn batch_and_parallel_runs_agree() {
        let obs = vec![
            ob(&["p"], "p"),
            ob(&["x = y", "y = z"], "x = z"),
            ob(&["0 <= n"], "0 <= n + 1"),
            ob(&["p"], "q"),
        ];
        let context = ProverContext::default();
        let batch = ObligationBatch::uniform(&obs, &context);
        let sequential = Dispatcher::new().prove_all(&batch).aggregate();
        let mut parallel = Dispatcher::new();
        parallel.config.threads = 3;
        let par = parallel.prove_all(&batch).aggregate();
        assert_eq!(sequential.proved_sequents, 3);
        assert_eq!(par.proved_sequents, 3);
        assert_eq!(sequential.total_sequents, par.total_sequents);
    }

    #[test]
    fn report_renders_figure7_style_output() {
        let obs = vec![ob(&["p"], "p"), ob(&["x = y"], "y = x")];
        let context = ProverContext::default();
        let report = Dispatcher::new()
            .prove_all(&ObligationBatch::uniform(&obs, &context))
            .aggregate();
        let text = report.render("List.add");
        assert!(text.contains("Built-in checker proved"));
        assert!(text.contains("A total of 2 sequents out of 2 proved."));
        assert!(text.contains("Verification SUCCEEDED"));
    }

    #[test]
    fn tagged_batch_preserves_per_method_attribution_and_contexts() {
        // Two "methods" with different contexts in one batch: the cardinality method
        // classifies `content` as a set (required for BAPA/SMT translation options to
        // line up with a per-method run), the propositional one proves syntactically.
        let mut card_context = ProverContext::default();
        card_context.set_vars.insert("content".into());
        let mut batch = ObligationBatch::new();
        batch.push_method(
            "S",
            "List.add",
            Arc::new(card_context),
            vec![ob(
                &["size = card content", "x ~: content"],
                "size + 1 = card (content Un {x})",
            )],
        );
        batch.push_method(
            "S",
            "List.isEmpty",
            Arc::new(ProverContext::default()),
            vec![ob(&["p"], "p"), ob(&["p"], "q")],
        );
        let dispatcher = Dispatcher::new();
        let report = dispatcher.prove_all(&batch);
        assert_eq!(dispatcher.batches_dispatched(), 1);
        assert_eq!(report.per_obligation.len(), 3);
        let tags: Vec<(&str, usize)> = report
            .per_obligation
            .iter()
            .map(|t| (t.tag.method.as_str(), t.tag.index))
            .collect();
        assert_eq!(
            tags,
            vec![("List.add", 0), ("List.isEmpty", 0), ("List.isEmpty", 1)]
        );
        assert!(report.per_obligation[0].report.succeeded());
        assert!(report.per_obligation[1].report.succeeded());
        assert!(!report.per_obligation[2].report.succeeded());
        let aggregate = report.aggregate();
        assert_eq!(aggregate.total_sequents, 3);
        assert_eq!(aggregate.proved_sequents, 2);
        assert_eq!(aggregate.unproved.len(), 1);
    }

    #[test]
    fn cache_keys_on_the_per_obligation_context() {
        // The same sequent under two contexts that classify its free variables
        // differently must not share a cache entry: the classification steers the
        // SMT/FOL translations, so a cross-context hit could be unsound.
        let o = ob(&["s = t"], "card s = card t");
        let mut set_context = ProverContext::default();
        set_context.set_vars.insert("s".into());
        set_context.set_vars.insert("t".into());
        let mut batch = ObligationBatch::new();
        batch.push_method("", "a", Arc::new(set_context), vec![o.clone()]);
        batch.push_method("", "b", Arc::new(ProverContext::default()), vec![o]);
        // Pinned config: under `Dispatcher::new()` the JAHOB_* env overrides apply, and
        // with threads > 1 two workers can race the same cold key (both miss), making
        // the exact hit/miss counts below indeterminate.
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        dispatcher.prove_all(&batch);
        let stats = dispatcher.cache().stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 2),
            "distinct contexts must produce distinct cache keys"
        );
        // The same context twice, on the other hand, hits.
        let o = ob(&["s = t"], "card s = card t");
        let mut batch = ObligationBatch::new();
        batch.push_method("", "a", Arc::new(ProverContext::default()), vec![o.clone()]);
        batch.push_method("", "b", Arc::new(ProverContext::default()), vec![o]);
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let report = dispatcher.prove_all(&batch);
        assert_eq!(report.aggregate().cache_hits, 1);
    }

    #[test]
    fn router_miss_falls_back_to_the_global_cascade() {
        // Pure arithmetic scores both MONA and BAPA hopeless (no membership atoms, no
        // set algebra), so with `order = [Mona, Bapa]` the routed primary cascade is
        // empty and both provers run in the fallback tail — where BAPA, handed a
        // sequent it can actually decide (pure Presburger), still proves it. A router
        // that *dropped* hopeless provers instead of demoting them would report this
        // sequent unproved.
        let mut config = DispatcherConfig::builder().cache(CacheMode::Off).build();
        config.order = vec![ProverId::Mona, ProverId::Bapa];
        config.route = true;
        let dispatcher = Dispatcher::with_config(config);
        let o = ob(&["0 <= x"], "0 <= x + 1");
        let report = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(
            report.succeeded(),
            "fallback cascade must still run on a router miss: {report:?}"
        );
        assert_eq!(report.per_prover[&ProverId::Bapa].proved, 1);
        // And the routed run proves exactly what the unrouted one does.
        let mut unrouted = DispatcherConfig::builder().cache(CacheMode::Off).build();
        unrouted.order = vec![ProverId::Mona, ProverId::Bapa];
        unrouted.route = false;
        let baseline = Dispatcher::with_config(unrouted).prove_one(&o, &ProverContext::default());
        assert_eq!(report.proved_sequents, baseline.proved_sequents);
    }

    #[test]
    fn routing_reorders_but_never_changes_verdicts() {
        let obs = vec![
            ob(&["p"], "p"),
            ob(&["x = y + 1", "0 <= y"], "1 <= x"),
            ob(
                &[
                    "size = card content",
                    "x ~: content",
                    "content1 = content Un {x}",
                ],
                "size + 1 = card content1",
            ),
            ob(&["p"], "q"),
        ];
        let context = ProverContext::default();
        let mut routed_config = DispatcherConfig::builder().cache(CacheMode::Off).build();
        routed_config.route = true;
        let mut unrouted_config = routed_config.clone();
        unrouted_config.route = false;
        let batch = ObligationBatch::uniform(&obs, &context);
        let routed = Dispatcher::with_config(routed_config)
            .prove_all(&batch)
            .aggregate();
        let unrouted = Dispatcher::with_config(unrouted_config)
            .prove_all(&batch)
            .aggregate();
        assert_eq!(routed.proved_sequents, unrouted.proved_sequents);
        assert_eq!(routed.unproved, unrouted.unproved);
        // Routing spares MONA the cardinality sequent it cannot decide: fewer MONA
        // attempts than the fixed global order pays.
        let mona_attempts = |r: &VerificationReport| {
            r.per_prover
                .get(&ProverId::Mona)
                .map(|s| s.attempted)
                .unwrap_or(0)
        };
        assert!(
            mona_attempts(&routed) < mona_attempts(&unrouted),
            "routed: {routed:?}\nunrouted: {unrouted:?}"
        );
    }

    #[test]
    fn failure_memo_skips_repeated_dead_attempts() {
        // Two obligations share the same (unprovable) full sequent but carry different
        // hints, so their verdict cache keys differ and the second misses the positive
        // cache — yet its full-sequent retry skips every prover the first obligation
        // already saw fail on that canonical sequent.
        let mut first = ob(&["comment ''a'' (p = q)", "comment ''b'' (q = s)"], "r = t");
        first.hints = vec![Hint::label("a")];
        let mut second = first.clone();
        second.hints = vec![Hint::label("b")];
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let context = ProverContext::default();
        let r1 = dispatcher.prove_one(&first, &context);
        assert!(!r1.succeeded());
        assert_eq!(r1.failure_skips(), 0, "first cascade has nothing to skip");
        let r2 = dispatcher.prove_one(&second, &context);
        assert!(!r2.succeeded());
        assert!(
            r2.failure_skips() >= 3,
            "the full-sequent retry must skip the memoized failures: {r2:?}"
        );
        assert!(dispatcher.cache().stats().failure_hits >= 3);
        // Skipped attempts are not counted as attempted.
        for (id, stats) in &r2.per_prover {
            assert!(
                stats.skipped == 0 || stats.attempted < r1.per_prover[id].attempted,
                "{id}: skipped attempts must reduce the attempted count"
            );
        }
    }

    #[test]
    fn jahob_threads_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(parse_count_knob("JAHOB_THREADS", "4"), Ok(4));
        assert_eq!(parse_count_knob("JAHOB_THREADS", "0"), Ok(1), "clamped");
        let warning = parse_count_knob("JAHOB_THREADS", "many").unwrap_err();
        assert!(warning.contains("JAHOB_THREADS"), "{warning}");
        assert!(warning.contains("\"many\""), "{warning}");
        assert!(warning.starts_with("warning:"), "{warning}");
    }

    #[test]
    fn jahob_cache_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(parse_switch_knob("JAHOB_CACHE", "on"), Ok(true));
        assert_eq!(parse_switch_knob("JAHOB_CACHE", "NO"), Ok(false));
        let warning = parse_switch_knob("JAHOB_CACHE", "ture").unwrap_err();
        assert!(warning.contains("JAHOB_CACHE"), "{warning}");
        assert!(warning.contains("\"ture\""), "{warning}");
        assert!(warning.starts_with("warning:"), "{warning}");
    }

    #[test]
    fn jahob_route_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(parse_switch_knob("JAHOB_ROUTE", "0"), Ok(false));
        let warning = parse_switch_knob("JAHOB_ROUTE", "enabled").unwrap_err();
        assert!(warning.contains("JAHOB_ROUTE"), "{warning}");
        assert!(warning.contains("\"enabled\""), "{warning}");
    }

    #[test]
    fn jahob_budgets_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(parse_switch_knob("JAHOB_BUDGETS", "off"), Ok(false));
        assert_eq!(parse_switch_knob("JAHOB_BUDGETS", "1"), Ok(true));
        let warning = parse_switch_knob("JAHOB_BUDGETS", "fast").unwrap_err();
        assert!(warning.contains("JAHOB_BUDGETS"), "{warning}");
        assert!(warning.contains("\"fast\""), "{warning}");
    }

    #[test]
    fn budgets_are_part_of_the_cache_fingerprint() {
        // Budgets change attempt counts and attribution (never verdicts), and cached
        // outcomes replay those counts — so a budgets-on entry must not answer a
        // budgets-off lookup.
        let on = DispatcherConfig::builder().build();
        let off = DispatcherConfig::builder().budgets(false).build();
        assert!(on.budgets && !off.budgets);
        assert_ne!(on.fingerprint(), off.fingerprint());
        assert!(
            on.fingerprint().contains("budgets=true"),
            "{}",
            on.fingerprint()
        );
    }

    /// An unprovable sequent whose set/quantifier structure blows MONA's non-reach
    /// fuel (and FOL's quantified iteration fuel) while still completing unbudgeted.
    fn fuel_hungry_unprovable() -> ProofObligation {
        ob(
            &[
                "ALL x. x : a --> x : b",
                "ALL x. x : b --> x : c",
                "ALL x. x : c --> x : d",
                "ALL x. x : d --> x : e",
                "ALL x. x : e --> x : f",
            ],
            "ALL x. x : a --> x : g",
        )
    }

    /// A valid sequent only MONA can prove (the second-order existential is native
    /// WS1S but approximated away by the FOL/SMT translations) whose automaton
    /// exceeds the non-reach fuel — so with budgets on, *only* the unbudgeted
    /// rescue pass can discharge it.
    fn rescue_only_provable() -> ProofObligation {
        ob(
            &[
                "ALL x. x : a --> x : b | x : c",
                "ALL x. x : b --> x : d",
                "ALL x. x : c --> x : d",
                "ALL x. x : d --> x : e",
                "ALL x. x : e --> x : f",
            ],
            "EX s. ALL x. (x : a --> x : s) & (x : s --> x : f)",
        )
    }

    #[test]
    fn fuel_budgets_abort_hopeless_attempts_without_changing_the_verdict() {
        let o = fuel_hungry_unprovable();
        let context = ProverContext::default();
        let on = Dispatcher::with_config(DispatcherConfig::builder().cache(CacheMode::Off).build())
            .prove_one(&o, &context);
        let off = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .budgets(false)
                .build(),
        )
        .prove_one(&o, &context);
        assert!(!on.succeeded() && !off.succeeded(), "verdicts must agree");
        assert!(on.budget_aborts() > 0, "the budgets must engage: {on:?}");
        assert_eq!(on.rescue_retries, 1, "aborts + failure = one rescue retry");
        assert_eq!(off.budget_aborts(), 0, "budgets off never aborts");
        assert_eq!(off.rescue_retries, 0, "budgets off never rescues");
        // The budgeted run pays strictly less prover time on the aborted attempts
        // only when they abort early; what it must never do is attempt fewer
        // *distinct* provers than the unbudgeted run in total (rescue included).
        assert_eq!(on.per_prover.len(), off.per_prover.len());
    }

    #[test]
    fn rescue_pass_recovers_proofs_the_budgets_interrupted() {
        let o = rescue_only_provable();
        let context = ProverContext::default();
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let report = dispatcher.prove_one(&o, &context);
        assert!(
            report.succeeded(),
            "the rescue pass must recover the MONA proof: {report:?}"
        );
        assert_eq!(report.per_prover[&ProverId::Mona].proved, 1);
        assert!(report.budget_aborts() > 0, "{report:?}");
        assert_eq!(report.rescue_retries, 1);
        // The rescue pass retried MONA even though its budgeted attempt was aborted
        // moments earlier — proof that aborts are not memoized as failures (a
        // poisoned memo would skip MONA in the rescue cascade and lose the proof).
        // The cached outcome replays the abort counts and the rescued bit too.
        let replay = dispatcher.prove_one(&o, &context);
        assert_eq!(replay.cache_hits, 1, "{replay:?}");
        assert_eq!(replay.budget_aborts(), report.budget_aborts());
        assert_eq!(replay.rescue_retries, 1);
        assert_eq!(replay.per_prover[&ProverId::Mona].proved, 1);
    }

    #[test]
    fn budgets_off_restores_the_pre_cost_model_dispatcher_exactly() {
        // With budgets off the dispatcher must neither collect observations nor
        // consult the model: the cost model stays empty across a whole run.
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .budgets(false)
                .build(),
        );
        let context = ProverContext::default();
        let r = dispatcher.prove_one(&ob(&["x = y + 1", "0 <= y"], "1 <= x"), &context);
        assert!(r.succeeded());
        assert!(dispatcher.cost_model().is_empty(), "no observations");
    }

    #[test]
    fn budgeted_runs_calibrate_the_cost_model_between_batches() {
        let dispatcher =
            Dispatcher::with_config(DispatcherConfig::builder().cache(CacheMode::Off).build());
        let context = ProverContext::default();
        let obs = vec![ob(&["x = y + 1", "0 <= y"], "1 <= x"), ob(&["p"], "q")];
        let before = dispatcher.cost_model().len();
        assert_eq!(before, 0, "cold model");
        dispatcher.prove_all(&ObligationBatch::uniform(&obs, &context));
        assert!(
            !dispatcher.cost_model().is_empty(),
            "the batch boundary must commit the observations"
        );
    }

    #[test]
    fn persistent_mode_round_trips_the_cost_model_profile() {
        let dir = std::env::temp_dir().join(format!(
            "jahob-provers-persist-{}-cost-model",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let persistent = || {
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .build()
        };
        let o = ob(&["x = y + 1", "0 <= y"], "1 <= x");
        let cold = Dispatcher::with_config(persistent());
        assert!(cold.prove_one(&o, &ProverContext::default()).succeeded());
        cold.flush_store().expect("flush");
        assert!(
            costmodel::cost_model_path(&dir).exists(),
            "the profile must be written next to the proof store"
        );
        let warm = Dispatcher::with_config(persistent());
        assert!(
            !warm.cost_model().is_empty(),
            "a fresh dispatcher warm-loads the profile"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inst_hints_discharge_sequents_no_prover_can_instantiate() {
        // The universal relates `card` of arbitrary slices of `content` to `used`:
        // BAPA cannot see through the quantifier, FOL/SMT cannot bridge the `card`
        // arithmetic, and the needed witness `m - excluded` is a compound term the
        // SMT candidate pool never contains. Only the inst hint makes the sequent
        // provable.
        let mut o = ob(
            &["comment ''capBound'' (ALL s. card (content Int s) <= used)"],
            "card (content Int (m - excluded)) <= used + 1",
        );
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let context = ProverContext::default();
        let without = dispatcher.prove_one(&o, &context);
        assert!(!without.succeeded(), "unhinted sequent must be unprovable");
        o.hints = vec![Hint::inst("s", parse_form("m - excluded").expect("parse"))];
        let with = dispatcher.prove_one(&o, &context);
        assert!(
            with.succeeded(),
            "inst hint should ground the universal: {with:?}"
        );
    }

    #[test]
    fn inst_hints_survive_the_full_sequent_retry() {
        // A misselecting label hint narrows the hinted sequent to an assumption that
        // cannot carry the proof, so the hinted cascade fails; the full-sequent retry
        // must keep the instantiation (the witness is information no prover can
        // rediscover), or combining a wrong label with a right witness would lose a
        // proof the witness alone delivers.
        let mut o = ob(
            &[
                "comment ''noise'' (c : d)",
                "comment ''capBound'' (ALL s. card (content Int s) <= used)",
            ],
            "card (content Int (m - excluded)) <= used + 1",
        );
        o.hints = vec![
            Hint::label("noise"),
            Hint::inst("s", parse_form("m - excluded").expect("parse")),
        ];
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let report = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(
            report.succeeded(),
            "the retry must re-apply the inst hint: {report:?}"
        );
    }

    #[test]
    fn joint_witnesses_ground_a_multi_variable_binder() {
        // Both variables of one universal binder get witnesses; only their joint,
        // fully ground instance is provable (partial instances stay quantified and
        // BAPA drops them).
        let mut o = ob(
            &["comment ''cap'' (ALL s t. card (content Int (s Un t)) <= used)"],
            "card (content Int (a Un b)) <= used + 1",
        );
        o.hints = vec![
            Hint::inst("s", parse_form("a").expect("parse")),
            Hint::inst("t", parse_form("b").expect("parse")),
        ];
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let report = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(report.succeeded(), "joint instantiation: {report:?}");
    }

    #[test]
    fn inst_hints_key_the_cache_per_witness() {
        // Two obligations identical up to the witness: the hinted sequent differs, so
        // they must not alias to one cache entry (a hit would replay the wrong
        // verdict). Same obligation + same witness, on the other hand, hits.
        let base = ob(
            &["comment ''capBound'' (ALL s. card (content Int s) <= used)"],
            "card (content Int (m - excluded)) <= used + 1",
        );
        let mut good = base.clone();
        good.hints = vec![Hint::inst("s", parse_form("m - excluded").expect("parse"))];
        let mut bad = base.clone();
        bad.hints = vec![Hint::inst("s", parse_form("excluded").expect("parse"))];
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let context = ProverContext::default();
        assert!(dispatcher.prove_one(&good, &context).succeeded());
        let miss = dispatcher.prove_one(&bad, &context);
        assert_eq!(miss.cache_hits, 0, "different witnesses must not alias");
        assert!(
            !miss.succeeded(),
            "the useless witness leaves the goal unprovable"
        );
        let hit = dispatcher.prove_one(&good, &context);
        assert_eq!(hit.cache_hits, 1, "same witness re-hits its own entry");
        assert!(hit.succeeded());
    }

    #[test]
    fn inst_hints_specialise_injected_lemmas_too() {
        // The lemma is itself universally quantified; `by lemma` injects it and
        // `by inst` specialises the injected assumption in the same hint list.
        let mut o = ob(
            &["comment ''noise'' (c : d)"],
            "card (content Int (m - excluded)) <= used + 1",
        );
        o.hints = vec![
            Hint::lemma("capBound"),
            Hint::inst("s", parse_form("m - excluded").expect("parse")),
        ];
        let mut context = ProverContext::default();
        context.lemmas.register_lemma(
            "capBound",
            parse_form("ALL s. card (content Int s) <= used").expect("parse"),
        );
        let dispatcher = Dispatcher::new();
        let report = dispatcher.prove_one(&o, &context);
        assert!(
            report.succeeded(),
            "inst must apply to lemma-injected assumptions: {report:?}"
        );
        // Without the inst hint the injected lemma alone is not enough.
        o.hints = vec![Hint::lemma("capBound")];
        assert!(!dispatcher.prove_one(&o, &context).succeeded());
    }

    #[test]
    fn lemma_hints_let_the_library_discharge_sequents() {
        // The goal follows syntactically from the lemma, but from nothing in the
        // sequent itself: only the injected lemma assumption can discharge it.
        let mut o = ob(&["comment ''noise'' (c : d)"], "null ~: alloc");
        o.hints = vec![Hint::lemma("nullFresh")];
        let dispatcher = Dispatcher::new();
        let without = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(
            !without.succeeded(),
            "unhinted sequent must not be provable"
        );
        let mut context = ProverContext::default();
        context
            .lemmas
            .register_lemma("nullFresh", parse_form("null ~: alloc").expect("parse"));
        let with = dispatcher.prove_one(&o, &context);
        assert!(
            with.succeeded(),
            "lemma hint should inject the library fact"
        );
        // A plain (unprefixed) hint resolves against the library too.
        o.hints = vec![Hint::label("nullFresh")];
        assert!(dispatcher.prove_one(&o, &context).succeeded());
    }

    #[test]
    fn builder_clamps_counts_and_keeps_explicit_knobs() {
        let config = DispatcherConfig::builder()
            .threads(0)
            .route(false)
            .order(vec![ProverId::Smt])
            .build();
        assert_eq!(config.threads, 1, "clamped");
        assert!(!config.route);
        assert_eq!(config.order, vec![ProverId::Smt]);
        assert_eq!(config.cache, CacheMode::Memory, "default mode");
    }

    #[test]
    fn jahob_cache_dir_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(
            parse_dir_knob("JAHOB_CACHE_DIR", " /tmp/store "),
            Ok(PathBuf::from("/tmp/store"))
        );
        let warning = parse_dir_knob("JAHOB_CACHE_DIR", "  ").unwrap_err();
        assert!(warning.contains("JAHOB_CACHE_DIR"), "{warning}");
        assert!(warning.starts_with("warning:"), "{warning}");
    }

    #[test]
    fn cache_mode_displays_its_shape() {
        assert_eq!(CacheMode::Off.to_string(), "off");
        assert_eq!(CacheMode::Memory.to_string(), "memory");
        let persistent = CacheMode::Persistent {
            dir: PathBuf::from("/tmp/s"),
            flush: true,
        };
        assert_eq!(persistent.to_string(), "persistent(/tmp/s)");
        assert_eq!(
            persistent.persistent_dir(),
            Some(std::path::Path::new("/tmp/s"))
        );
        let no_flush = CacheMode::Persistent {
            dir: PathBuf::from("/tmp/s"),
            flush: false,
        };
        assert_eq!(no_flush.to_string(), "persistent(/tmp/s, no flush on drop)");
        assert!(no_flush.is_enabled() && !CacheMode::Off.is_enabled());
    }

    #[test]
    fn persistent_store_warm_starts_a_second_dispatcher() {
        let dir = std::env::temp_dir().join(format!(
            "jahob-provers-persist-{}-warm-start",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let persistent = |flush: bool| {
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush,
                })
                .build()
        };
        let o = ob(&["x = y"], "y = x");
        // First process stand-in: prove, then flush explicitly (flush:false keeps the
        // drop silent so the test controls exactly when the store is written).
        let cold = Dispatcher::with_config(persistent(false));
        let first = cold.prove_one(&o, &ProverContext::default());
        assert!(first.succeeded());
        assert_eq!(first.cache_disk_hits, 0, "cold run proves, not replays");
        let written = cold.flush_store().expect("flush");
        assert!(written >= 1, "the verdict must reach the store");
        // Second process stand-in: a fresh dispatcher warm-loads the verdict.
        let warm = Dispatcher::with_config(persistent(false));
        let replay = warm.prove_one(&o, &ProverContext::default());
        assert!(replay.succeeded());
        assert_eq!(replay.cache_hits, 1, "must be answered from the cache");
        assert_eq!(
            replay.cache_disk_hits, 1,
            "and attributed to the disk store"
        );
        assert_eq!(warm.cache().stats().disk_hits, 1);
        // A non-persistent dispatcher flushes nothing and reports so.
        let memory = Dispatcher::with_config(DispatcherConfig::builder().build());
        assert_eq!(memory.flush_store().expect("no-op flush"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_the_last_persistent_dispatcher_flushes_the_store() {
        let dir = std::env::temp_dir().join(format!(
            "jahob-provers-persist-{}-drop-flush",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let o = ob(&["x = y"], "y = x");
        {
            let dispatcher = Dispatcher::with_config(
                DispatcherConfig::builder()
                    .cache(CacheMode::Persistent {
                        dir: dir.clone(),
                        flush: true,
                    })
                    .build(),
            );
            // A clone shares the cache; dropping it must NOT flush yet.
            let clone = dispatcher.clone();
            assert!(clone.prove_one(&o, &ProverContext::default()).succeeded());
            drop(clone);
            assert!(
                !store_path(&dir).exists(),
                "a surviving sharer must keep the store unwritten"
            );
        }
        assert!(
            store_path(&dir).exists(),
            "dropping the last sharer must write the store"
        );
        let warm = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .build(),
        );
        let replay = warm.prove_one(&o, &ProverContext::default());
        assert_eq!(
            replay.cache_disk_hits, 1,
            "the drop-flushed verdict replays"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrently_dropped_clones_flush_the_store_exactly_once() {
        // Two clones released by one barrier drop at the same moment on two threads.
        // Whichever drop comes last must flush: a per-clone "am I the last sharer?"
        // check can see the other clone from both threads and skip it twice.
        let dir = std::env::temp_dir().join(format!(
            "jahob-provers-persist-{}-drop-race",
            std::process::id()
        ));
        let persistent = |flush: bool| {
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush,
                })
                .build()
        };
        let o = ob(&["x = y"], "y = x");
        let context = ProverContext::default();
        for round in 0..1000 {
            let _ = std::fs::remove_dir_all(&dir);
            let dispatcher = Dispatcher::with_config(persistent(true));
            assert!(dispatcher.prove_one(&o, &context).succeeded());
            let clone = dispatcher.clone();
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for sharer in [dispatcher, clone] {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        drop(sharer);
                    });
                }
            });
            assert!(
                store_path(&dir).exists(),
                "round {round}: dropping both sharers must write the store"
            );
            let replay = Dispatcher::with_config(persistent(false)).prove_one(&o, &context);
            assert_eq!(
                replay.cache_disk_hits, 1,
                "round {round}: the store must hold the proved entry"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_fingerprint_matches_the_committed_seed_store() {
        // Every cache key carries this string, and the committed seed store was
        // written under it. A config change that alters it silently cold-starts
        // every existing store, so it is pinned here verbatim.
        const SEED: &str = "order=Syntactic,SMT (Z3/CVC3),MONA,BAPA,FOL (SPASS/E),\
                            Interactive|hints=true|route=true|budgets=true";
        assert_eq!(DispatcherConfig::builder().build().fingerprint(), SEED);
        let fixture = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/proof-store.jahob"
        ))
        .expect("read the committed seed store");
        let verdicts: Vec<&str> = fixture
            .lines()
            .filter_map(|line| line.strip_prefix("V\t"))
            .collect();
        assert!(!verdicts.is_empty(), "the seed store holds verdicts");
        for record in verdicts {
            assert_eq!(record.split('\t').next(), Some(SEED), "{record}");
        }
    }

    #[test]
    fn jahob_deadline_ms_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(parse_millis_knob("JAHOB_DEADLINE_MS", "250"), Ok(250));
        assert_eq!(parse_millis_knob("JAHOB_DEADLINE_MS", "0"), Ok(0));
        let warning = parse_millis_knob("JAHOB_DEADLINE_MS", "fast").unwrap_err();
        assert!(warning.contains("JAHOB_DEADLINE_MS"), "{warning}");
        assert!(warning.contains("\"fast\""), "{warning}");
        assert!(warning.starts_with("warning:"), "{warning}");
    }

    #[test]
    fn jahob_faults_invalid_value_warns_and_keeps_the_default() {
        let spec = parse_faults_knob("JAHOB_FAULTS", "smt:panic@3;store:io@2").expect("valid spec");
        assert_eq!(spec.to_string(), "smt:panic@3;store:io@2");
        let warning = parse_faults_knob("JAHOB_FAULTS", "smt:reboot").unwrap_err();
        assert!(warning.contains("JAHOB_FAULTS"), "{warning}");
        assert!(warning.contains("\"smt:reboot\""), "{warning}");
        assert!(warning.starts_with("warning:"), "{warning}");
    }

    #[test]
    fn deadline_is_part_of_the_cache_fingerprint_only_when_set() {
        // Deadline stops perturb attempt counts and verdict attribution, so deadline
        // runs must not share cache entries with unconstrained runs — but the common
        // no-deadline case must keep the exact pre-deadline fingerprint so existing
        // proof stores stay warm.
        let plain = DispatcherConfig::builder().build();
        let bounded = DispatcherConfig::builder().deadline_ms(250).build();
        assert!(
            !plain.fingerprint().contains("deadline"),
            "{}",
            plain.fingerprint()
        );
        assert!(
            bounded.fingerprint().contains("|deadline=250"),
            "{}",
            bounded.fingerprint()
        );
        assert_ne!(plain.fingerprint(), bounded.fingerprint());
    }

    #[test]
    fn injected_prover_panics_are_contained_and_attributed() {
        // Crash every prover on every attempt: the cascade must walk its whole
        // order, contain each panic, and degrade to an attributed Unproved — the
        // process-survival half of the tentpole in miniature.
        let spec = FaultSpec::parse(
            "syntactic:panic@1;smt:panic@1;mona:panic@1;bapa:panic@1;fol:panic@1;\
             interactive:panic@1",
        )
        .expect("valid spec");
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .faults(spec)
                .build(),
        );
        let o = ob(&["x = y"], "y = x");
        let report = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(!report.succeeded(), "every prover crashed");
        assert_eq!(report.crashes(), ProverId::default_order().len());
        assert_eq!(report.proved_sequents, 0);
        assert!(
            report.unproved[0].contains("[contained: 6 crashed, 0 deadline-stopped]"),
            "{:?}",
            report.unproved
        );
        let rendered = report.render("t");
        assert!(
            rendered.contains("Fault containment: 6 prover crashes contained"),
            "{rendered}"
        );
    }

    #[test]
    fn faults_against_losing_provers_leave_verdicts_unchanged() {
        // Crashing a prover that would not have won must not change the verdict:
        // the syntactic prover still proves the sequent after SMT's crash is
        // contained... but SMT comes later in the default order, so crash the
        // syntactic prover itself and let SMT pick the sequent up.
        let spec = FaultSpec::parse("syntactic:panic@1").expect("valid spec");
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .faults(spec)
                .build(),
        );
        let o = ob(&["x = y + 1", "0 <= y"], "1 <= x");
        let report = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(report.succeeded(), "{report:?}");
        assert_eq!(report.crashes(), 1);
        assert!(
            !report.render("t").contains("unproved"),
            "the verdict must not change"
        );
    }

    #[test]
    fn contained_cascades_are_never_cached() {
        // A fault-perturbed outcome must not be frozen into the cache: the second
        // prove_one must be a fresh miss, not a replay of the crashed run.
        let spec = FaultSpec::parse("interactive:panic@1").expect("valid spec");
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().faults(spec).build());
        let o = ob(&["p"], "q");
        let context = ProverContext::default();
        let first = dispatcher.prove_one(&o, &context);
        assert!(!first.succeeded() && first.crashes() > 0, "{first:?}");
        assert_eq!(first.cache_misses, 1);
        let second = dispatcher.prove_one(&o, &context);
        assert_eq!(second.cache_hits, 0, "contained cascade must not be cached");
        assert_eq!(second.cache_misses, 1);
    }

    #[test]
    fn zero_deadline_stops_fuel_hooked_provers_but_not_cheap_ones() {
        // deadline_ms = 0 is the degenerate always-expired deadline: every
        // cooperative check fires immediately, so MONA/SMT/FOL attempts become
        // deadline stops — while the syntactic prover (no long loops, exempt)
        // still proves its sequents, keeping trivial verification alive.
        let config = || {
            DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .deadline_ms(0)
                .build()
        };
        let dispatcher = Dispatcher::with_config(config());
        let context = ProverContext::default();
        let trivial = dispatcher.prove_one(&ob(&["x = y"], "y = x"), &context);
        assert!(trivial.succeeded(), "syntactic proofs are deadline-exempt");
        let hard = dispatcher.prove_one(&fuel_hungry_unprovable(), &context);
        assert!(!hard.succeeded());
        assert!(
            hard.deadline_aborts() > 0,
            "the fuel-hooked provers must stop at the deadline: {hard:?}"
        );
        assert!(
            hard.unproved[0].contains("deadline-stopped]"),
            "{:?}",
            hard.unproved
        );
    }

    #[test]
    fn transient_store_faults_are_retried_and_counted() {
        let dir =
            std::env::temp_dir().join(format!("jahob-provers-faults-{}-retry", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Every third store I/O operation fails. The construction-time warm load is
        // op 1; flush #1 is then (read 2, write 3) — the write fails and the bounded
        // retry re-runs the idempotent merge-write (ops 4, 5) to completion; flush
        // #2 opens with a failing read (op 6) and is rescued the same way (7, 8).
        let spec = FaultSpec::parse("store:io@3").expect("valid spec");
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .faults(spec)
                .build(),
        );
        let o = ob(&["x = y"], "y = x");
        assert!(dispatcher
            .prove_one(&o, &ProverContext::default())
            .succeeded());
        assert!(
            dispatcher
                .flush_store()
                .expect("first flush survives the fault")
                >= 1
        );
        assert_eq!(dispatcher.store_retries(), 1, "one rescue retry");
        assert!(
            dispatcher
                .flush_store()
                .expect("second flush survives the fault")
                >= 1
        );
        assert_eq!(dispatcher.store_retries(), 2, "one more rescue retry");
        let warm = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .build(),
        );
        let replay = warm.prove_one(&o, &ProverContext::default());
        assert_eq!(replay.cache_disk_hits, 1, "the retried flush reached disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_drop_flush_warns_once_per_file_and_never_panics() {
        // Every I/O operation on the faulted file fails, so all three retry attempts
        // of its merge-write fail; the other file is unfaulted and flushes.
        type PathOf = fn(&std::path::Path) -> PathBuf;
        let cases: [(&str, &str, PathOf, PathOf); 2] = [
            (
                "store:io@1",
                "proof store",
                store_path,
                costmodel::cost_model_path,
            ),
            (
                "costmodel:io@1",
                "cost model",
                costmodel::cost_model_path,
                store_path,
            ),
        ];
        for (spec, failed, failed_path, written_path) in cases {
            let dir = std::env::temp_dir().join(format!(
                "jahob-provers-faults-{}-drop-warn-{}",
                std::process::id(),
                spec.replace([':', '@'], "-")
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let dispatcher = Dispatcher::with_config(
                DispatcherConfig::builder()
                    .cache(CacheMode::Persistent {
                        dir: dir.clone(),
                        flush: true,
                    })
                    .faults(FaultSpec::parse(spec).expect("valid spec"))
                    .build(),
            );
            assert!(dispatcher
                .prove_one(&ob(&["x = y"], "y = x"), &ProverContext::default())
                .succeeded());
            let warnings = dispatcher.drop_flush_warnings();
            assert_eq!(warnings.len(), 1, "{warnings:?}");
            assert!(
                warnings[0].starts_with(&format!("warning: failed to flush {failed}")),
                "{warnings:?}"
            );
            assert!(
                warnings[0].contains(&failed_path(&dir).display().to_string()),
                "the warning must name the path: {warnings:?}"
            );
            assert!(
                written_path(&dir).exists(),
                "{spec}: the unfaulted file is written"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn failed_cost_model_flush_still_writes_the_proof_store() {
        let dir = std::env::temp_dir().join(format!(
            "jahob-provers-faults-{}-model-fails",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let persistent = |faults: &str| {
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .faults(FaultSpec::parse(faults).expect("valid spec"))
                .build()
        };
        let o = ob(&["x = y"], "y = x");
        let dispatcher = Dispatcher::with_config(persistent("costmodel:io@1"));
        assert!(dispatcher
            .prove_one(&o, &ProverContext::default())
            .succeeded());
        let err = dispatcher
            .flush_store()
            .expect_err("the cost-model write fails on every retry");
        assert!(err.to_string().contains("costmodel:io@1"), "{err}");
        assert!(
            store_path(&dir).exists(),
            "the proof store is still written"
        );
        let warm = Dispatcher::with_config(persistent(""));
        let replay = warm.prove_one(&o, &ProverContext::default());
        assert_eq!(replay.cache_disk_hits, 1, "the verdict reached disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_cache_dir_degrades_to_memory_mode() {
        // A store dir nested under a regular file can never be created, for root
        // and non-root alike (read-only permission bits are ignored under root, so
        // this is the portable way to make `create_dir_all` fail).
        let blocker = std::env::temp_dir().join(format!(
            "jahob-provers-faults-{}-blocker",
            std::process::id()
        ));
        std::fs::write(&blocker, b"not a directory").expect("create blocker file");
        let dir = blocker.join("store");
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: true,
                })
                .build(),
        );
        assert_eq!(
            dispatcher.config.cache,
            CacheMode::Memory,
            "unusable persistent dir must degrade to the in-memory cache"
        );
        let o = ob(&["x = y"], "y = x");
        let report = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(report.succeeded());
        assert_eq!(dispatcher.flush_store().expect("no-op flush"), 0);
        drop(dispatcher); // must not warn or panic: there is no store handle
        let _ = std::fs::remove_file(&blocker);
    }
}
