//! The one-call verification facade: parse → batch → prove → report.
//!
//! [`Verifier`] wraps the whole driver pipeline — frontend parsing, program-wide
//! obligation batching, the integrated-reasoning dispatcher with its (optionally
//! persistent) result cache, and per-method report folding — behind a handful of
//! methods, so an embedding (an example, a CI harness, a service endpoint) does not
//! have to wire the crates together by hand:
//!
//! ```
//! use jahob::prelude::*;
//!
//! let source = r#"
//!     class Counter {
//!         private static int count;
//!         /*: invariant countNonNeg: "0 <= count"; */
//!         public static void bump()
//!         /*: modifies count ensures "count = old count + 1" */
//!         {
//!             count = count + 1;
//!         }
//!     }
//! "#;
//! let verifier = Verifier::new();
//! let report = verifier.verify_source(source).expect("parses");
//! assert!(report.verified(), "{}", report.render());
//! ```
//!
//! The facade holds one [`Dispatcher`] for its whole lifetime, so every program and
//! suite it verifies shares one result cache — and, under
//! [`CacheMode::Persistent`](jahob_provers::CacheMode::Persistent), one on-disk proof
//! store flushed when the verifier is dropped (or on [`Verifier::flush`]).

use crate::{run_suite_with, verify_program_with, MethodResult, SuiteRow, VerifyOptions};
use jahob_frontend::{parse_program, Program, SourceError};
use jahob_provers::{CacheStats, Dispatcher, DispatcherConfig, LemmaLibrary};

/// The result of verifying one program through the [`Verifier`] facade: every
/// method's [`MethodResult`], plus whole-program convenience views.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Per-method results, in program order.
    pub methods: Vec<MethodResult>,
}

impl ProgramReport {
    /// `true` if every sequent of every method was proved.
    pub fn verified(&self) -> bool {
        self.methods.iter().all(|m| m.verified())
    }

    /// The result of one method, by its `Class.method` qualified name.
    pub fn method(&self, qualified_name: &str) -> Option<&MethodResult> {
        self.methods.iter().find(|m| m.method == qualified_name)
    }

    /// Total sequents across all methods.
    pub fn total_sequents(&self) -> usize {
        self.methods.iter().map(|m| m.report.total_sequents).sum()
    }

    /// Proved sequents across all methods.
    pub fn proved_sequents(&self) -> usize {
        self.methods.iter().map(|m| m.report.proved_sequents).sum()
    }

    /// Of the sequents answered from the result cache, how many came from entries
    /// warm-loaded off the persistent proof store.
    pub fn cache_disk_hits(&self) -> usize {
        self.methods.iter().map(|m| m.report.cache_disk_hits).sum()
    }

    /// Renders every method's Figure 7-style report, concatenated in program order.
    pub fn render(&self) -> String {
        self.methods
            .iter()
            .map(|m| m.render())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The parse → batch → prove → report facade. See the [module docs](self) for an
/// end-to-end example.
///
/// Construction is where the cache mode takes effect: a
/// [`CacheMode::Persistent`](jahob_provers::CacheMode::Persistent) configuration
/// warm-starts the dispatcher from the on-disk proof store here, and the store is
/// merge-written back when the verifier is dropped (`flush: true`) or when
/// [`Verifier::flush`] is called.
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    dispatcher: Dispatcher,
    lemmas: LemmaLibrary,
}

impl Verifier {
    /// A verifier with the default configuration ([`DispatcherConfig::default`],
    /// which honours the `JAHOB_*` environment knobs) and an empty lemma library.
    pub fn new() -> Self {
        Verifier::default()
    }

    /// A verifier with an explicit dispatcher configuration (build one with
    /// [`DispatcherConfig::builder`]) and an empty lemma library.
    pub fn with_config(config: DispatcherConfig) -> Self {
        Verifier {
            dispatcher: Dispatcher::with_config(config),
            lemmas: LemmaLibrary::new(),
        }
    }

    /// A verifier from full [`VerifyOptions`] (configuration plus lemma library): the
    /// route for interactively proven lemmas (§6.6) and the `by lemma` hints that
    /// resolve against them.
    pub fn from_options(options: &VerifyOptions) -> Self {
        Verifier {
            dispatcher: Dispatcher::with_config(options.dispatcher.clone()),
            lemmas: options.lemmas.clone(),
        }
    }

    /// The dispatcher configuration this verifier runs under.
    pub fn config(&self) -> &DispatcherConfig {
        &self.dispatcher.config
    }

    /// Parses `source` and verifies every method of the resulting program: one
    /// program-wide batch, one `prove_all` call, per-method attribution preserved.
    pub fn verify_source(&self, source: &str) -> Result<ProgramReport, SourceError> {
        Ok(self.verify(&parse_program(source)?))
    }

    /// Verifies every method of an already-parsed program (sharing this verifier's
    /// cache with every earlier call).
    pub fn verify(&self, program: &Program) -> ProgramReport {
        ProgramReport {
            methods: verify_program_with(&self.dispatcher, program, &self.lemmas),
        }
    }

    /// Runs the whole §7 suite through this verifier's dispatcher (one batch), one
    /// Figure 15 row per structure.
    pub fn verify_suite(&self) -> Vec<SuiteRow> {
        run_suite_with(&self.dispatcher, &self.lemmas)
    }

    /// Cumulative cache statistics (memory hits, disk hits, misses, failure-memo
    /// hits) across everything this verifier has proved.
    pub fn cache_stats(&self) -> CacheStats {
        self.dispatcher.cache().stats()
    }

    /// Merge-writes the persistent proof store now (no-op `Ok(0)` without
    /// [`CacheMode::Persistent`](jahob_provers::CacheMode::Persistent)), returning
    /// the store's verdict-entry count.
    pub fn flush(&self) -> std::io::Result<usize> {
        self.dispatcher.flush_store()
    }

    /// Number of `(prover, feature-bucket)` cells the measured cost model currently
    /// holds — 0 until a budgeted batch commits its observations or a persistent
    /// `cost-model.jahob` profile warm-loads at construction.
    pub fn cost_model_cells(&self) -> usize {
        self.dispatcher.cost_model().len()
    }

    /// Store/cost-model flushes that failed transiently and were rescued by the
    /// dispatcher's bounded retry (see `Dispatcher::store_retries`).
    pub fn store_retries(&self) -> usize {
        self.dispatcher.store_retries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_provers::CacheMode;

    const COUNTER: &str = r#"
        class Counter {
            private static int count;
            /*: invariant countNonNeg: "0 <= count"; */
            public static void bump()
            /*: modifies count ensures "count = old count + 1" */
            {
                count = count + 1;
            }
        }
    "#;

    #[test]
    fn facade_verifies_source_end_to_end() {
        let verifier = Verifier::with_config(DispatcherConfig::builder().build());
        let report = verifier.verify_source(COUNTER).expect("parses");
        assert!(report.verified(), "{}", report.render());
        assert!(report.method("Counter.bump").is_some());
        assert_eq!(report.proved_sequents(), report.total_sequents());
        assert!(verifier.cache_stats().misses > 0, "the cache was consulted");
        assert_eq!(verifier.flush().expect("no-op"), 0, "no persistent store");
    }

    #[test]
    fn facade_rejects_bad_source_instead_of_panicking() {
        let verifier = Verifier::new();
        assert!(verifier.verify_source("class {{{{").is_err());
    }

    #[test]
    fn facade_shares_one_persistent_store_across_instances() {
        let dir =
            std::env::temp_dir().join(format!("jahob-verifier-facade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .build()
        };
        let cold = Verifier::with_config(config());
        assert!(cold.verify_source(COUNTER).expect("parses").verified());
        assert!(cold.flush().expect("flush") >= 1);
        let warm = Verifier::with_config(config());
        let report = warm.verify_source(COUNTER).expect("parses");
        assert!(report.verified());
        assert!(
            report.cache_disk_hits() > 0,
            "warm facade must replay from the store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
