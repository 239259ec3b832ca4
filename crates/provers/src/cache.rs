//! Canonical-form-keyed prover result cache.
//!
//! Identical sequents recur across the methods of one data structure: every path
//! re-establishes the class invariants, and the splitter re-emits the same background
//! assumptions per goal. The dispatcher therefore keys each obligation by a canonical
//! form of its (definition-inlined) sequent and consults a sharded in-memory cache
//! before any prover runs.
//!
//! The canonical form is computed with the same machinery the syntactic prover (§6.1)
//! trusts: [`inline_definitions`] collapses generated-variable equations,
//! [`canonicalize`] strips comments and AC-sorts commutative operators, and
//! [`alpha_normalize`] renames bound variables to position-canonical names. On top of
//! that, assumptions are deduplicated and sorted, so permuted or duplicated assumption
//! lists key identically. Every transformation preserves logical equivalence, so a
//! cache hit on a proved entry is sound: the hit sequent is equivalent to one a prover
//! actually discharged.
//!
//! Canonicalising a formula is the expensive part of a key (printing, sorting and
//! hashing the results is about 1 ms of the 35–47 ms the §7 suite's keys cost), and
//! the obligations of one batch share most of their assumptions — class invariants,
//! background axioms: the suite's keys cover 1,611 formula instances but only 187
//! distinct formulas. The dispatcher therefore keys through a batch-scoped memo
//! (`KeyMemo`) from an inlined formula to its printed canonical form, owned by one
//! `prove_all` worker and dropped with the batch, so each distinct formula is
//! canonicalised once per batch and no table outlives it. [`SequentKey::of`] uses no
//! memo; both paths produce byte-identical keys.
//!
//! The cache also has a **negative side**: a set of memoized failed attempts keyed by
//! `(prover, canonical sequent, variable classification)` (`FailureKey`). The
//! dispatcher consults it inside the uncached prover cascade, so a prover is never
//! re-run on a canonicalized sequent it already declined — neither on the full-sequent
//! retry after a failed hinted attempt, nor across obligations and retried suite runs
//! sharing the cache. The provers are deterministic functions of the canonicalized
//! sequent (plus the classification the key carries), so a memoized failure skip never
//! changes which sequents end up proved — the differential harness pins this across
//! the whole configuration matrix.

use jahob_logic::norm::{alpha_normalize, canonicalize, inline_definitions};
use jahob_logic::{Form, Sequent};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::ProverId;

/// Number of independently locked shards. Sixteen keeps lock contention negligible for
/// the thread counts the dispatcher runs (the work queue hands out one obligation at a
/// time, so at most `threads` lookups are in flight).
const SHARDS: usize = 16;

/// The canonical key of a sequent: a printed form that is invariant under
/// definition inlining, comment stripping, AC permutation of commutative operators,
/// alpha-renaming of bound variables, and duplication or permutation of assumptions.
///
/// Key equality is exact string equality of the canonical form, so structurally
/// distinct sequents can never collide (a 64-bit hash is precomputed only to pick a
/// shard and speed up `HashMap` probing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequentKey {
    repr: String,
    hash: u64,
}

impl Hash for SequentKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One round of the canonical-form iteration: canonicalise, then rename binders.
///
/// A single pass is not confluent for AC-permuted binders — `sort_commutative` orders
/// sibling subtrees by their *current* bound-variable names, and the alpha pass then
/// numbers binders in the resulting traversal order — so the composition is iterated to
/// a fixpoint (bounded; real specification formulas converge in at most two rounds).
fn key_form(form: &Form) -> Form {
    let mut current = canonicalize(&alpha_normalize(form));
    for _ in 0..4 {
        let next = canonicalize(&alpha_normalize(&current));
        if next == current {
            break;
        }
        current = next;
    }
    current
}

/// A batch-scoped memo from an inlined formula to its printed canonical form (`None`
/// when the formula canonicalises to `True`); see the module docs. It must not outlive
/// its batch: a longer-lived table would grow without bound in a long-running process.
pub(crate) type KeyMemo = HashMap<Form, Option<String>>;

/// The printed [`key_form`] of `form`, or `None` when it canonicalises to `True`.
fn printed_key_form(form: &Form) -> Option<String> {
    let canonical = key_form(form);
    (!canonical.is_true()).then(|| canonical.to_string())
}

impl SequentKey {
    /// Computes the canonical key of `sequent`.
    pub fn of(sequent: &Sequent) -> SequentKey {
        SequentKey::assemble(&inline_definitions(sequent), printed_key_form)
    }

    /// Computes the canonical key of a sequent whose generated-variable definitions
    /// have already been inlined (the dispatcher inlines once and reuses the result
    /// for both proving and keying). Canonical forms are looked up in, and added to,
    /// the batch's `memo`; the key is the one [`SequentKey::of`] computes.
    pub(crate) fn of_inlined(inlined: &Sequent, memo: &mut KeyMemo) -> SequentKey {
        SequentKey::assemble(inlined, |form| {
            if let Some(printed) = memo.get(form) {
                return printed.clone();
            }
            let printed = printed_key_form(form);
            memo.insert(form.clone(), printed.clone());
            printed
        })
    }

    /// Builds the key of an inlined sequent from `print`, which returns the printed
    /// canonical form of one formula (`None` for `True`).
    fn assemble(inlined: &Sequent, mut print: impl FnMut(&Form) -> Option<String>) -> SequentKey {
        let goal = print(&inlined.goal).unwrap_or_else(|| Form::tt().to_string());
        // Sorting + deduplicating makes the key invariant under assumption order and
        // repetition; assumptions that canonicalise to `True` carry no information.
        let mut assumptions: Vec<String> = inlined.assumptions.iter().filter_map(print).collect();
        assumptions.sort();
        assumptions.dedup();
        SequentKey::from_repr(format!("{} |- {}", assumptions.join(" ;; "), goal))
    }

    /// The canonical printed form backing the key (stable within a process run; useful
    /// for debugging cache behaviour).
    pub fn repr(&self) -> &str {
        &self.repr
    }

    /// Rebuilds a key from a canonical printed form read back from the on-disk store.
    ///
    /// `DefaultHasher::new()` is keyed deterministically, so the shard/probe hash of a
    /// reloaded key is identical to the one computed when the entry was first written —
    /// which is what makes the printed form alone a complete content address.
    pub(crate) fn from_repr(repr: String) -> SequentKey {
        let mut hasher = DefaultHasher::new();
        repr.hash(&mut hasher);
        SequentKey {
            hash: hasher.finish(),
            repr,
        }
    }
}

/// The full lookup key of one obligation: the canonical sequent plus everything else
/// that can change the dispatcher's verdict — the hint-filtered variant actually
/// attempted first, whether the interactive library has a proof registered, the
/// set/function classification of the sequent's free variables (it steers the SMT and
/// FOL translations), and a fingerprint of the dispatcher configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub sequent: SequentKey,
    /// Canonical key of the hint-filtered sequent, when hints are applied.
    pub hinted: Option<SequentKey>,
    /// Free variables the prover context classifies as sets, then as functions.
    pub var_classes: String,
    /// Whether the interactive lemma library has this obligation registered.
    pub lemma_registered: bool,
    /// Prover order and hint usage of the dispatcher that stored the entry.
    pub config_fingerprint: String,
}

/// The cached verdict for one obligation key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CachedOutcome {
    /// Whether some prover discharged the sequent.
    pub proved: bool,
    /// The prover credited with the proof (`None` when unproved).
    pub prover: Option<ProverId>,
    /// The per-prover attempted counts the original (uncached) run recorded. Replayed
    /// on every hit so the Figure 15 "attempted" columns agree between cached and
    /// uncached runs (only the times differ — hits cost no prover time).
    pub attempted: Vec<(ProverId, usize)>,
    /// The per-prover counts of attempts the original run *skipped* because the
    /// failure memo already knew them dead. Replayed alongside `attempted` so cached
    /// and uncached accounting stay field-for-field identical.
    pub skipped: Vec<(ProverId, usize)>,
    /// The per-prover counts of attempts the original run aborted on fuel exhaustion
    /// (budgeted cascade only). Replayed like `attempted`/`skipped` so cached and
    /// uncached accounting agree.
    pub budget_aborts: Vec<(ProverId, usize)>,
    /// Whether the original run needed the unbudgeted rescue pass for this
    /// obligation. Replayed into `VerificationReport::rescue_retries`.
    pub rescued: bool,
    /// Whether the entry was loaded from the persistent on-disk store rather than
    /// computed by this process. Not serialized — set by [`SequentCache::absorb`] so
    /// hits on warm-started entries can be attributed separately
    /// ([`CacheStats::disk_hits`], `VerificationReport::cache_disk_hits`).
    pub from_disk: bool,
}

/// The key of one memoized **failed** attempt site: the canonical form of the exact
/// sequent a prover ran on, and the set/function classification of that sequent's
/// free variables (the classification steers the SMT/FOL translations, so a prover
/// can fail a sequent under one classification and prove it under another). Which
/// provers failed at the site is stored as a bitmask *value* in the failure map, so
/// one cascade builds this key once per phase instead of once per prover.
///
/// A failure bit is only ever set after the prover actually ran and declined a
/// sequent with this canonical key. Serving the bit to a *different* presentation of
/// the same canonical sequent assumes provers behave identically on
/// canonically-equal inputs — the same assumption the verdict cache has always made
/// when replaying an `unproved` outcome (a cache hit on a failed verdict skips every
/// prover, not just one). The assumption is not literally airtight for the
/// resolution prover, whose fixed iteration budget makes it presentation-sensitive
/// in principle; the differential harness pins, per configuration matrix, that
/// verdicts are unaffected in practice. The interactive prover is never memoized
/// here: its verdict depends on the lemma library and the obligation's label path,
/// not on the sequent alone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct FailureKey {
    /// Canonical key of the sequent the provers were attempted on.
    pub sequent: SequentKey,
    /// Set/function classification of the sequent's free variables.
    pub var_classes: String,
}

/// Tests `prover`'s bit within a failure mask fetched by
/// [`SequentCache::failed_mask`].
pub(crate) fn mask_contains(mask: u8, prover: ProverId) -> bool {
    mask & prover_bit(prover) != 0
}

/// The bit of `prover` within a failure-map bitmask value.
fn prover_bit(prover: ProverId) -> u8 {
    1 << match prover {
        ProverId::Syntactic => 0,
        ProverId::Mona => 1,
        ProverId::Smt => 2,
        ProverId::Fol => 3,
        ProverId::Bapa => 4,
        ProverId::Interactive => 5,
    }
}

/// Lifetime hit/miss counters of a cache (across every `prove_all` run that shared it).
///
/// Under parallel dispatch the split between hits and misses is not exactly
/// reproducible: two workers can race to the same cold key and both record a miss
/// (both then prove the sequent and store the same verdict). Verdicts — which sequents
/// are proved — are deterministic; only the hit/miss accounting wobbles by the number
/// of such collisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the provers.
    pub misses: u64,
    /// Individual prover attempts skipped because the negative side of the cache
    /// already recorded the `(prover, sequent)` pair as a failure.
    pub failure_hits: u64,
    /// Of `hits`, how many were answered by an entry loaded from the persistent
    /// on-disk store (a warm start) rather than computed earlier in this process.
    pub disk_hits: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, mutex-protected map from canonical obligation keys to prover verdicts.
///
/// The cache is shared by cloning the owning [`crate::Dispatcher`] (the dispatcher
/// holds it behind an `Arc`), so one cache can serve every method of a program — or a
/// whole suite run — across worker threads.
#[derive(Debug, Default)]
pub struct SequentCache {
    shards: [Mutex<HashMap<CacheKey, CachedOutcome>>; SHARDS],
    /// The negative side: memoized failed attempts as a per-prover bitmask keyed by
    /// `(sequent, classes)`, sharded like the verdict map. Entries are only consulted
    /// on the uncached prover cascade, so no prover is ever re-run on a canonicalized
    /// sequent it already declined — within one cascade (the full-sequent retry after
    /// a failed hinted attempt) and across obligations and retried runs that share
    /// the cache.
    failures: [Mutex<HashMap<FailureKey, u8>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    failure_hits: AtomicU64,
    disk_hits: AtomicU64,
}

impl SequentCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SequentCache::default()
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, CachedOutcome>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() % SHARDS as u64) as usize]
    }

    fn failure_shard(&self, key: &FailureKey) -> &Mutex<HashMap<FailureKey, u8>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.failures[(hasher.finish() % SHARDS as u64) as usize]
    }

    /// The bitmask of provers memoized as failing the attempt site `key` (0 when the
    /// site is unknown). Fetched **once per cascade phase** — one lock, one hash —
    /// and then tested per prover with [`mask_contains`]; each skip the caller takes
    /// must be reported through [`SequentCache::note_failure_hit`].
    pub(crate) fn failed_mask(&self, key: &FailureKey) -> u8 {
        self.failure_shard(key)
            .lock()
            .expect("failure shard poisoned")
            .get(key)
            .copied()
            .unwrap_or(0)
    }

    /// Counts one prover attempt skipped thanks to the failure memo.
    pub(crate) fn note_failure_hit(&self) {
        self.failure_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failed prover attempt. The key is cloned only when the attempt
    /// site is new; further provers failing the same site just set their bit.
    pub(crate) fn record_failure(&self, key: &FailureKey, prover: ProverId) {
        let mut shard = self
            .failure_shard(key)
            .lock()
            .expect("failure shard poisoned");
        match shard.get_mut(key) {
            Some(mask) => *mask |= prover_bit(prover),
            None => {
                shard.insert(key.clone(), prover_bit(prover));
            }
        }
    }

    /// Number of memoized failed `(prover, sequent)` attempts.
    pub fn failure_len(&self) -> usize {
        self.failures
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("failure shard poisoned")
                    .values()
                    .map(|mask| mask.count_ones() as usize)
                    .collect::<Vec<_>>()
            })
            .sum()
    }

    /// Looks up a key, recording a hit or miss in the lifetime counters.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<CachedOutcome> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
            .cloned();
        match &found {
            Some(outcome) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if outcome.from_disk {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    /// Stores the verdict for a key.
    pub(crate) fn insert(&self, key: CacheKey, outcome: CachedOutcome) {
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, outcome);
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Returns `true` if no verdict has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss counters (including negative-side failure hits).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            failure_hits: self.failure_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
        }
    }

    /// Snapshots every verdict and memoized failure for the persistent store. The
    /// snapshot includes entries that were themselves loaded from disk, so a
    /// merge-write never drops what an earlier process contributed.
    pub(crate) fn export(&self) -> crate::store::StoreData {
        let verdicts = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let failures = self
            .failures
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("failure shard poisoned")
                    .iter()
                    .map(|(k, v)| (k.clone(), *v))
                    .collect::<Vec<_>>()
            })
            .collect();
        crate::store::StoreData { verdicts, failures }
    }

    /// Loads a store snapshot into the cache, marking every verdict as disk-loaded
    /// (so hits on it count as [`CacheStats::disk_hits`]) and OR-ing failure masks
    /// into any already present. Entries this process already computed are never
    /// overwritten — fresh results are at least as up to date as the store's.
    pub(crate) fn absorb(&self, data: crate::store::StoreData) {
        for (key, mut outcome) in data.verdicts {
            outcome.from_disk = true;
            self.shard(&key)
                .lock()
                .expect("cache shard poisoned")
                .entry(key)
                .or_insert(outcome);
        }
        for (key, mask) in data.failures {
            let mut shard = self
                .failure_shard(&key)
                .lock()
                .expect("failure shard poisoned");
            match shard.get_mut(&key) {
                Some(existing) => *existing |= mask,
                None => {
                    shard.insert(key, mask);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::parse_form;

    fn seq(assumptions: &[&str], goal: &str) -> Sequent {
        Sequent::new(
            assumptions
                .iter()
                .map(|a| parse_form(a).expect("parse"))
                .collect(),
            parse_form(goal).expect("parse"),
        )
    }

    #[test]
    fn keys_are_invariant_under_ac_permutation_and_duplication() {
        let a = SequentKey::of(&seq(&["p & q", "x : s"], "{x} Un content = content Un {x}"));
        let b = SequentKey::of(&seq(
            &["x : s", "q & p", "x : s"],
            "content Un {x} = {x} Un content",
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn keys_are_invariant_under_alpha_renaming_and_inlining() {
        let a = SequentKey::of(&seq(&["asg$1 = {x} Un content"], "EX v. v : asg$1"));
        let b = SequentKey::of(&seq(&[], "EX w. w : content Un {x}"));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_sequents_have_distinct_keys() {
        let a = SequentKey::of(&seq(&["p"], "q"));
        let b = SequentKey::of(&seq(&["p"], "r"));
        assert_ne!(a, b);
        let c = SequentKey::of(&seq(&["p", "q"], "r"));
        assert_ne!(b, c);
    }

    #[test]
    fn cache_round_trips_and_counts() {
        let cache = SequentCache::new();
        let key = CacheKey {
            sequent: SequentKey::of(&seq(&["p"], "p")),
            hinted: None,
            var_classes: String::new(),
            lemma_registered: false,
            config_fingerprint: "test".into(),
        };
        assert_eq!(cache.lookup(&key), None);
        let outcome = CachedOutcome {
            proved: true,
            prover: Some(ProverId::Syntactic),
            attempted: vec![(ProverId::Syntactic, 1)],
            skipped: Vec::new(),
            budget_aborts: Vec::new(),
            rescued: false,
            from_disk: false,
        };
        cache.insert(key.clone(), outcome.clone());
        assert_eq!(cache.lookup(&key), Some(outcome));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failure_memo_round_trips_and_counts() {
        let cache = SequentCache::new();
        let key = FailureKey {
            sequent: SequentKey::of(&seq(&["size = card content"], "size = card content")),
            var_classes: "S:content;".into(),
        };
        assert!(!mask_contains(cache.failed_mask(&key), ProverId::Mona));
        cache.record_failure(&key, ProverId::Mona);
        assert!(mask_contains(cache.failed_mask(&key), ProverId::Mona));
        assert_eq!(cache.failure_len(), 1);
        // A different prover on the same attempt site is a distinct failure bit.
        assert!(!mask_contains(cache.failed_mask(&key), ProverId::Smt));
        cache.record_failure(&key, ProverId::Smt);
        let mask = cache.failed_mask(&key);
        assert!(mask_contains(mask, ProverId::Smt) && mask_contains(mask, ProverId::Mona));
        assert_eq!(cache.failure_len(), 2);
        // A different classification is a distinct attempt site.
        let other = FailureKey {
            var_classes: String::new(),
            ..key.clone()
        };
        assert_eq!(cache.failed_mask(&other), 0);
        // Failure hits are counted separately from verdict hits/misses, and only when
        // the dispatcher reports an actually skipped attempt.
        cache.note_failure_hit();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!(stats.failure_hits, 1);
    }
}
