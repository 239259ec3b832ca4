//! Dispatcher configuration: the [`CacheMode`], the [`DispatcherConfig`] knobs, their
//! typed builder, and the `JAHOB_*` environment overrides applied by
//! [`DispatcherConfig::default`].

#[cfg(doc)]
use crate::{faults, router, store, store_path, CostModel, Dispatcher, ProverStats};
use crate::{FaultSpec, ProverId};
use std::fmt;
use std::path::PathBuf;

/// How the dispatcher caches prover verdicts. Subsumes the old `cache: bool` knob:
/// `Off`/`Memory` are the former `false`/`true`, and `Persistent` extends `Memory`
/// with the on-disk proof store ([`store`]) so verdicts survive the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMode {
    /// No caching: every obligation runs the full prover cascade.
    Off,
    /// The in-memory sharded cache (the former `cache: true`), dying with the process.
    Memory,
    /// The in-memory cache, warm-started from — and merge-written back to — the
    /// versioned proof store in `dir` ([`store_path`]). A missing store is a silent
    /// cold start; a corrupt or version-mismatched one is a warned cold start.
    Persistent {
        /// Directory holding the store file (created on first flush).
        dir: PathBuf,
        /// Merge-write the store when the last dispatcher sharing the cache is
        /// dropped. With `false`, only explicit [`Dispatcher::flush_store`] calls
        /// write (what benches use to keep measurement iterations read-only).
        flush: bool,
    },
}

impl CacheMode {
    /// `true` unless caching is [`CacheMode::Off`] (the old `cache: bool` view).
    pub fn is_enabled(&self) -> bool {
        !matches!(self, CacheMode::Off)
    }

    /// The persistent store directory, when the mode is [`CacheMode::Persistent`].
    pub fn persistent_dir(&self) -> Option<&std::path::Path> {
        match self {
            CacheMode::Persistent { dir, .. } => Some(dir),
            _ => None,
        }
    }
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheMode::Off => write!(f, "off"),
            CacheMode::Memory => write!(f, "memory"),
            CacheMode::Persistent { dir, flush } => write!(
                f,
                "persistent({}{})",
                dir.display(),
                if *flush { "" } else { ", no flush on drop" }
            ),
        }
    }
}

/// Configuration of the dispatcher. Build one with [`DispatcherConfig::builder`]
/// (explicit, typed knobs; no environment) or take [`DispatcherConfig::default`]
/// (baseline plus `JAHOB_*` environment overrides).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatcherConfig {
    /// The provers to try, in order (§5.2: "the user lists the provers starting from the
    /// ones that are most likely to succeed or fail quickly").
    pub order: Vec<ProverId>,
    /// Spread independent obligations over this many worker threads (1 = sequential).
    /// Workers pull obligations from one shared queue, so an expensive obligation never
    /// strands the rest of a pre-assigned chunk behind it.
    pub threads: usize,
    /// Whether (and how durably) to cache verdicts: consult the canonical-form-keyed
    /// result cache before running provers, optionally backed by the persistent
    /// on-disk proof store ([`CacheMode::Persistent`]).
    pub cache: CacheMode,
    /// Choose each obligation's prover order from its sequent's syntactic features
    /// ([`router::route`]) instead of always using the global `order`. Routing is a
    /// permutation of `order` — demoted provers still run as a fallback — so it changes
    /// attempt counts and attribution, never which sequents are proved.
    pub route: bool,
    /// Measured-cost routing plus fuel-budgeted attempts. With `true` (the baseline),
    /// the dispatcher times every attempt into its [`CostModel`] (committed between
    /// batches; routed orders are frozen within one), routes by expected
    /// cost-to-discharge ([`router::route_with_model`] — identical to the static
    /// order until cells calibrate), and gives the expensive provers (MONA, FOL)
    /// feature-dependent fuel so hopeless attempts abort early. Any obligation left
    /// unproved after a cascade with aborts is retried in an **unbudgeted rescue
    /// pass**, so budgets can change attempt counts and times, never verdicts — the
    /// budgets differential test pins this. `false` restores the pre-cost-model
    /// behaviour exactly (static routing, unlimited attempts, no timing collection).
    pub budgets: bool,
    /// Wall-clock deadline per prover attempt, in milliseconds (`JAHOB_DEADLINE_MS`).
    /// Checked cooperatively at the provers' existing fuel hooks (MONA's work
    /// charges, FOL's given-clause loop, SMT's DPLL steps), so an attempt that
    /// passes its deadline stops within one hook interval and is counted as a
    /// [`ProverStats::deadline_aborts`] — an *unknown* verdict that is never
    /// failure-memoized and never cached. The syntactic, BAPA and interactive
    /// provers have no long-running loops and are exempt. `None` (the default)
    /// disables the check; unlike fuel budgets, a deadline deliberately trades
    /// completeness for a predictable time bound (deadline-stopped attempts are
    /// *not* rescued).
    pub deadline_ms: Option<u64>,
    /// Deterministic fault injection ([`FaultSpec`], `JAHOB_FAULTS`) for the
    /// torture harness: panics/delays into prover attempts, I/O errors and torn
    /// writes into the proof-store and cost-model persistence. The default (empty)
    /// spec injects nothing and is pinned byte-identical to a dispatcher without a
    /// fault plane. Faults are not part of the cache fingerprint because a cascade
    /// that observed a crash or deadline stop is never cached at all.
    pub faults: FaultSpec,
}

impl Default for DispatcherConfig {
    /// The baseline configuration (sequential, in-memory cache, routing on), with the
    /// `JAHOB_*` environment overrides applied on top so a whole test or bench run can
    /// be switched to the parallel, uncached, unrouted or persistent-store path from
    /// the environment.
    fn default() -> Self {
        DispatcherConfig::builder().build().with_env_overrides()
    }
}

/// Builder for [`DispatcherConfig`]: typed, named knobs instead of the old
/// bool-and-positional surface. Starts from the pinned baseline (sequential,
/// [`CacheMode::Memory`], routing on) and applies **no** environment overrides, so
/// configurations built here mean exactly what the call site says — benches and
/// differential tests depend on that. [`DispatcherConfig::default`] is the
/// environment-sensitive configuration.
///
/// ```
/// use jahob_provers::{CacheMode, DispatcherConfig};
///
/// let config = DispatcherConfig::builder()
///     .threads(4)
///     .cache(CacheMode::Persistent { dir: "/tmp/jahob-store".into(), flush: true })
///     .build();
/// assert_eq!(config.threads, 4);
/// ```
#[derive(Debug, Clone)]
pub struct DispatcherConfigBuilder {
    config: DispatcherConfig,
}

impl DispatcherConfigBuilder {
    /// Sets the global prover order (§5.2).
    pub fn order(mut self, order: Vec<ProverId>) -> Self {
        self.config.order = order;
        self
    }

    /// Sets the worker thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Sets the cache mode ([`CacheMode::Off`] / [`CacheMode::Memory`] /
    /// [`CacheMode::Persistent`]).
    pub fn cache(mut self, mode: CacheMode) -> Self {
        self.config.cache = mode;
        self
    }

    /// Enables or disables feature-directed per-sequent routing.
    pub fn route(mut self, route: bool) -> Self {
        self.config.route = route;
        self
    }

    /// Enables or disables the measured cost model and fuel-budgeted attempts (with
    /// the completeness-preserving rescue pass). See [`DispatcherConfig::budgets`].
    pub fn budgets(mut self, budgets: bool) -> Self {
        self.config.budgets = budgets;
        self
    }

    /// Sets the per-attempt wall-clock deadline in milliseconds (see
    /// [`DispatcherConfig::deadline_ms`]). The builder default is no deadline.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.config.deadline_ms = Some(ms);
        self
    }

    /// Arms a deterministic fault-injection spec (see [`DispatcherConfig::faults`]
    /// and [`faults`]). The builder default injects nothing.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.config.faults = spec;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> DispatcherConfig {
        self.config
    }
}

impl DispatcherConfig {
    /// Starts a [`DispatcherConfigBuilder`] at the pinned baseline (sequential,
    /// in-memory cache, routing on; no environment overrides).
    pub fn builder() -> DispatcherConfigBuilder {
        DispatcherConfigBuilder {
            config: DispatcherConfig {
                order: ProverId::default_order(),
                threads: 1,
                cache: CacheMode::Memory,
                route: true,
                budgets: true,
                deadline_ms: None,
                faults: FaultSpec::default(),
            },
        }
    }

    /// Applies the `JAHOB_THREADS`, `JAHOB_CACHE`, `JAHOB_CACHE_DIR`, `JAHOB_ROUTE`,
    /// `JAHOB_BUDGETS`, `JAHOB_DEADLINE_MS` and `JAHOB_FAULTS` environment variables
    /// on top of `self` and returns the result. Unset variables leave the
    /// corresponding field untouched; a set-but-invalid value also leaves the field
    /// untouched but prints a one-line warning to stderr naming the variable and the
    /// rejected value (a silently ignored typo like `JAHOB_CACHE=ture` used to make
    /// a whole ablation run measure the wrong thing). `JAHOB_CACHE`, `JAHOB_ROUTE`
    /// and `JAHOB_BUDGETS` accept `1`/`on`/`true`/`yes` and `0`/`off`/`false`/`no`
    /// (case-insensitive).
    ///
    /// `JAHOB_CACHE_DIR=<dir>` upgrades the cache to
    /// [`CacheMode::Persistent`]` { dir, flush: true }` — the on-disk proof store
    /// loaded at dispatcher construction and merge-written on drop. An explicit
    /// `JAHOB_CACHE=off` still wins (it is the established ablation switch), while
    /// `JAHOB_CACHE=on` keeps a configured persistent mode persistent.
    ///
    /// This is what lets CI exercise the work-stealing, cached, unrouted and
    /// warm-start paths on every push: the test job re-runs the whole suite under
    /// `JAHOB_THREADS=4 JAHOB_CACHE=on`, once under `JAHOB_ROUTE=off` (guarding the
    /// global fallback cascade), and the warm-start job twice against one
    /// `JAHOB_CACHE_DIR`.
    fn with_env_overrides(mut self) -> Self {
        if let Some(n) = env_knob("JAHOB_THREADS", parse_count_knob) {
            self.threads = n;
        }
        if let Some(dir) = env_knob("JAHOB_CACHE_DIR", parse_dir_knob) {
            self.cache = CacheMode::Persistent { dir, flush: true };
        }
        if let Some(cache) = env_knob("JAHOB_CACHE", parse_switch_knob) {
            self.cache = match (cache, self.cache) {
                (false, _) => CacheMode::Off,
                (true, CacheMode::Off) => CacheMode::Memory,
                (true, mode) => mode,
            };
        }
        if let Some(route) = env_knob("JAHOB_ROUTE", parse_switch_knob) {
            self.route = route;
        }
        if let Some(budgets) = env_knob("JAHOB_BUDGETS", parse_switch_knob) {
            self.budgets = budgets;
        }
        if let Some(ms) = env_knob("JAHOB_DEADLINE_MS", parse_millis_knob) {
            self.deadline_ms = Some(ms);
        }
        if let Some(spec) = env_knob("JAHOB_FAULTS", parse_faults_knob) {
            self.faults = spec;
        }
        self
    }

    /// A short stable description of the fields that can change a prover verdict or
    /// the recorded attempt accounting (order, routing, budgets), mixed into every
    /// cache key so entries written under one configuration are never served to
    /// another.
    pub(crate) fn fingerprint(&self) -> String {
        let order: Vec<&str> = self.order.iter().map(|p| p.display_name()).collect();
        // Hints are always applied; the `hints=true` field stays as a literal so
        // existing proof stores, the committed seed store included, stay warm.
        let mut fingerprint = format!(
            "order={}|hints=true|route={}|budgets={}",
            order.join(","),
            self.route,
            self.budgets
        );
        // Only appended when a deadline is armed, so stores written before the
        // deadline knob existed keep warm-starting deadline-free runs unchanged.
        // (A deadline can suppress proofs, so deadline verdicts must never be
        // served to deadline-free configurations, and vice versa.)
        if let Some(ms) = self.deadline_ms {
            fingerprint.push_str(&format!("|deadline={ms}"));
        }
        fingerprint
    }
}

/// Reads one `JAHOB_*` knob from the environment through `parse`: `None` when unset,
/// the parsed value when valid, and `None` **plus a stderr warning** when set to a
/// value the parser rejects (the warning text is produced by the parser so unit tests
/// can pin it without touching the process environment).
fn env_knob<T>(name: &str, parse: fn(&str, &str) -> Result<T, String>) -> Option<T> {
    match std::env::var(name) {
        Ok(value) => match parse(name, &value) {
            Ok(parsed) => Some(parsed),
            Err(warning) => {
                eprintln!("{warning}");
                None
            }
        },
        Err(_) => None,
    }
}

/// Parses a positive-count knob (`JAHOB_THREADS`). Counts are
/// clamped to at least 1; a non-numeric value is rejected with a warning naming the
/// variable and the value.
pub(crate) fn parse_count_knob(name: &str, value: &str) -> Result<usize, String> {
    value
        .trim()
        .parse::<usize>()
        .map(|n| n.max(1))
        .map_err(|_| {
            format!(
                "warning: ignoring {name}={value:?}: expected a non-negative integer; \
             keeping the default"
            )
        })
}

/// Parses an on/off switch knob (`JAHOB_CACHE`, `JAHOB_ROUTE`): `1`/`on`/`true`/`yes`
/// and `0`/`off`/`false`/`no`, case-insensitive. Anything else is rejected with a
/// warning naming the variable and the value.
pub(crate) fn parse_switch_knob(name: &str, value: &str) -> Result<bool, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "on" | "true" | "yes" => Ok(true),
        "0" | "off" | "false" | "no" => Ok(false),
        _ => Err(format!(
            "warning: ignoring {name}={value:?}: expected on|off|true|false|yes|no|1|0; \
             keeping the default"
        )),
    }
}

/// Parses a milliseconds knob (`JAHOB_DEADLINE_MS`): any non-negative integer.
/// `0` is accepted as the degenerate always-expired deadline (every fuel-hooked
/// attempt stops at its first cooperative check — useful for torture tests).
pub(crate) fn parse_millis_knob(name: &str, value: &str) -> Result<u64, String> {
    value.trim().parse::<u64>().map_err(|_| {
        format!(
            "warning: ignoring {name}={value:?}: expected a number of milliseconds; \
             keeping the default"
        )
    })
}

/// Parses the fault-injection knob (`JAHOB_FAULTS`) through [`FaultSpec::parse`],
/// wrapping its entry-level diagnostics into the standard knob warning. An empty
/// value parses as the empty (no-fault) spec.
pub(crate) fn parse_faults_knob(name: &str, value: &str) -> Result<FaultSpec, String> {
    FaultSpec::parse(value)
        .map_err(|e| format!("warning: ignoring {name}={value:?}: {e}; keeping the default"))
}

/// Parses a directory-path knob (`JAHOB_CACHE_DIR`): any non-empty value (after
/// trimming) is accepted as a path; an empty value is rejected with a warning naming
/// the variable (an empty dir would silently resolve to the current directory).
pub(crate) fn parse_dir_knob(name: &str, value: &str) -> Result<PathBuf, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        Err(format!(
            "warning: ignoring {name}={value:?}: expected a directory path; \
             keeping the default"
        ))
    } else {
        Ok(PathBuf::from(trimmed))
    }
}
