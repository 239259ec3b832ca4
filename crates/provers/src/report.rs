//! Verification reports: per-prover statistics, the per-run [`VerificationReport`],
//! and the per-obligation [`TaggedReport`] / [`BatchReport`] stream of a batch.

#[cfg(doc)]
use crate::{CacheMode, Dispatcher, DispatcherConfig, ObligationBatch};
use crate::{ObligationTag, ProverId};
use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::time::Duration;

/// Statistics for one prover within a verification run (one row cell of Figure 15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProverStats {
    /// Number of sequents this prover proved (including cache hits credited to it).
    pub proved: usize,
    /// Number of sequents it attempted (including failures and cache hits).
    pub attempted: usize,
    /// Of `proved`, how many were answered from the result cache rather than by
    /// actually re-running this prover.
    pub cache_hits: usize,
    /// Attempts the cascade *avoided* because the cache's negative side already knew
    /// this prover fails on the canonicalized sequent. Not counted in `attempted` —
    /// the prover never ran.
    pub skipped: usize,
    /// Of `attempted`, how many ran out of fuel ([`DispatcherConfig::budgets`]) and
    /// were aborted rather than allowed to fail. Aborted attempts never enter the
    /// failure memo — the verdict is unknown, not negative.
    pub budget_aborts: usize,
    /// Of `attempted`, how many panicked and were contained by the cascade's
    /// `catch_unwind` — the prover misbehaved, the dispatch survived. Crashed
    /// attempts are never failure-memoized (the verdict is unknown, not negative)
    /// and a cascade containing one is never cached.
    pub crashes: usize,
    /// Of `attempted`, how many were stopped at the wall-clock deadline
    /// ([`DispatcherConfig::deadline_ms`]) — also unknown verdicts, never memoized,
    /// never cached, and (unlike fuel aborts) deliberately not rescued.
    pub deadline_aborts: usize,
    /// Total time spent in this prover.
    pub time: Duration,
}

impl AddAssign for ProverStats {
    /// Adds every counter and the time of `other` — the one per-prover fold behind
    /// [`VerificationReport::merge`] and every aggregate built on it.
    fn add_assign(&mut self, other: ProverStats) {
        self.proved += other.proved;
        self.attempted += other.attempted;
        self.cache_hits += other.cache_hits;
        self.skipped += other.skipped;
        self.budget_aborts += other.budget_aborts;
        self.crashes += other.crashes;
        self.deadline_aborts += other.deadline_aborts;
        self.time += other.time;
    }
}

/// The outcome of running the dispatcher on a set of obligations.
#[derive(Debug, Clone, Default)]
pub struct VerificationReport {
    /// Per-prover statistics.
    pub per_prover: BTreeMap<ProverId, ProverStats>,
    /// Total number of sequents (obligations).
    pub total_sequents: usize,
    /// Number of sequents proved by some prover.
    pub proved_sequents: usize,
    /// Descriptions of the obligations no prover could discharge, in obligation order
    /// (the order is deterministic even under parallel dispatch: per-obligation results
    /// are merged by obligation index, not by thread completion order).
    pub unproved: Vec<String>,
    /// Obligations answered from the result cache during this run.
    pub cache_hits: usize,
    /// Of `cache_hits`, how many were answered by entries warm-loaded from the
    /// persistent proof store rather than proved earlier in this process. Always 0
    /// unless the cache mode is [`CacheMode::Persistent`].
    pub cache_disk_hits: usize,
    /// Obligations that fell through the cache to the provers during this run. Both
    /// counters stay 0 when caching is disabled.
    pub cache_misses: usize,
    /// Sequents whose budgeted cascades all failed with at least one fuel abort and
    /// that were therefore retried in the unbudgeted rescue pass (one per sequent,
    /// whatever the rescue verdict). Always 0 with budgets off.
    pub rescue_retries: usize,
    /// Total wall-clock time of the run.
    pub total_time: Duration,
}

impl VerificationReport {
    /// `true` if every sequent was proved.
    pub fn succeeded(&self) -> bool {
        self.proved_sequents == self.total_sequents
    }

    /// Total prover attempts avoided by the failure memo across all provers.
    pub fn failure_skips(&self) -> usize {
        self.per_prover.values().map(|s| s.skipped).sum()
    }

    /// Total prover attempts aborted on a fuel budget across all provers.
    pub fn budget_aborts(&self) -> usize {
        self.per_prover.values().map(|s| s.budget_aborts).sum()
    }

    /// Total prover panics contained by the cascade across all provers.
    pub fn crashes(&self) -> usize {
        self.per_prover.values().map(|s| s.crashes).sum()
    }

    /// Total prover attempts stopped at the wall-clock deadline across all provers.
    pub fn deadline_aborts(&self) -> usize {
        self.per_prover.values().map(|s| s.deadline_aborts).sum()
    }

    /// Renders the report in the style of Figure 7 of the paper. When the result cache
    /// was consulted (`cache_hits + cache_misses > 0`), a
    /// `Result cache: H hits, M misses (R% hit rate).` line follows the sequent totals.
    pub fn render(&self, task_name: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("$ jahob {task_name}\n"));
        out.push_str("========================================================\n");
        for (id, stats) in &self.per_prover {
            if stats.proved == 0 && stats.attempted == 0 {
                continue;
            }
            if *id == ProverId::Syntactic {
                out.push_str(&format!(
                    "Built-in checker proved {} sequents during splitting.\n",
                    stats.proved
                ));
            } else {
                out.push_str(&format!(
                    "{} proved {} out of {} sequents. Total time : {:.1} s\n",
                    id.display_name(),
                    stats.proved,
                    stats.attempted,
                    stats.time.as_secs_f64()
                ));
            }
        }
        out.push_str("========================================================\n");
        out.push_str(&format!(
            "A total of {} sequents out of {} proved.\n",
            self.proved_sequents, self.total_sequents
        ));
        if self.cache_hits + self.cache_misses > 0 {
            let from_disk = if self.cache_disk_hits > 0 {
                format!(" ({} from disk)", self.cache_disk_hits)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "Result cache: {} hits{}, {} misses ({:.1}% hit rate).\n",
                self.cache_hits,
                from_disk,
                self.cache_misses,
                100.0 * self.cache_hits as f64 / (self.cache_hits + self.cache_misses) as f64
            ));
        }
        if self.failure_skips() > 0 {
            out.push_str(&format!(
                "Failure memo: {} dead prover attempts skipped.\n",
                self.failure_skips()
            ));
        }
        if self.budget_aborts() > 0 || self.rescue_retries > 0 {
            out.push_str(&format!(
                "Fuel budgets: {} attempts aborted, {} sequents rescued unbudgeted.\n",
                self.budget_aborts(),
                self.rescue_retries
            ));
        }
        if self.crashes() > 0 || self.deadline_aborts() > 0 {
            out.push_str(&format!(
                "Fault containment: {} prover crashes contained, {} attempts stopped at \
                 the deadline.\n",
                self.crashes(),
                self.deadline_aborts()
            ));
        }
        if self.succeeded() {
            out.push_str(&format!("[{task_name}]\n0=== Verification SUCCEEDED.\n"));
        } else {
            out.push_str(&format!("[{task_name}]\n0=== Verification FAILED.\n"));
            for d in &self.unproved {
                out.push_str(&format!("  unproved: {d}\n"));
            }
        }
        out
    }

    /// Merges another report into this one (used when aggregating methods or threads).
    /// Merging is order-dependent only in `unproved`; the dispatcher always merges
    /// per-obligation reports in obligation order so the result is deterministic.
    pub fn merge(&mut self, other: &VerificationReport) {
        for (id, s) in &other.per_prover {
            *self.per_prover.entry(*id).or_default() += *s;
        }
        self.total_sequents += other.total_sequents;
        self.proved_sequents += other.proved_sequents;
        self.unproved.extend(other.unproved.iter().cloned());
        self.cache_hits += other.cache_hits;
        self.cache_disk_hits += other.cache_disk_hits;
        self.cache_misses += other.cache_misses;
        self.rescue_retries += other.rescue_retries;
        self.total_time += other.total_time;
    }
}

/// The report of one obligation of a batch, paired with its provenance tag.
#[derive(Debug, Clone)]
pub struct TaggedReport {
    /// Where the obligation came from.
    pub tag: ObligationTag,
    /// The single-obligation report (`total_sequents == 1`); its `total_time` is the
    /// wall-clock time this obligation spent in [`Dispatcher::prove_one`].
    pub report: VerificationReport,
}

/// The outcome of proving one [`ObligationBatch`]: per-obligation reports in batch
/// order (so folding them per method reproduces the per-method `unproved` ordering
/// exactly), plus the wall-clock time of the whole batch.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// One tagged report per obligation, in batch order.
    pub per_obligation: Vec<TaggedReport>,
    /// Wall-clock time of the whole `prove_all` call.
    pub total_time: Duration,
}

impl BatchReport {
    /// Merges every per-obligation report into one aggregate. The aggregate's
    /// `total_time` is the batch wall clock, not the sum of per-obligation times (the
    /// two differ under parallel dispatch).
    pub fn aggregate(&self) -> VerificationReport {
        let mut report = VerificationReport::default();
        for tagged in &self.per_obligation {
            report.merge(&tagged.report);
        }
        report.total_time = self.total_time;
        report
    }
}
