//! The measured cost model behind budget-aware routing: per `(prover, feature
//! bucket)` attempt statistics, an expected-cost estimator, and a persisted profile.
//!
//! The hand-tuned [`router`](crate::router) scores encode *predictions* about which
//! prover discharges which fragment cheaply; the dispatcher meanwhile *observes* the
//! truth on every attempt (who won, how long a failure burned). This module closes
//! that loop. Each timed attempt is recorded under the sequent's coarse
//! [`FeatureBucket`] as `{attempts, wins, ema_cost_ns}`; once a `(prover, bucket)`
//! cell has enough observations ([`MIN_OBSERVATIONS`]) its **expected cost to
//! discharge** — the EMA attempt cost divided by a Laplace-smoothed win rate —
//! replaces the seeded score-derived cost in the routing order.
//!
//! **Batch-frozen updates.** Observations are buffered in sharded pending queues and
//! folded into the committed table only when a batch completes
//! ([`CostModel::commit`], called at the end of every `prove_all`). Within one batch
//! the routed order is therefore frozen: a single-batch suite run routes every
//! sequent with the same (cold-seeded or warm-loaded) model, which keeps the
//! differential harness deterministic while long-lived dispatchers still adapt
//! between batches.
//!
//! **Persistence.** Under `CacheMode::Persistent` the model serialises as
//! `cost-model.jahob` next to the proof store, through the same record-file layer
//! (`persist`): versioned header, counted trailer, strict all-or-nothing parse,
//! warned cold start on corruption, and atomic-rename merge writes. This module
//! holds only the `C` record codec and the merge rule (live cells win — they
//! subsume what was loaded).

use crate::faults::IoTarget;
use crate::persist::{parse_prover, prover_tag, RecordFile, Records};
use crate::ProverId;
use jahob_logic::features::FeatureBucket;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The cost-model file format version. Independent of the proof-store version: the
/// model is advisory (it can only permute the cascade), so its format can evolve
/// separately.
pub const COST_MODEL_VERSION: u32 = 1;

/// Magic prefix of the header line.
const MAGIC: &str = "jahob-cost-model";

/// Smoothing factor of the exponential moving average over attempt costs: small
/// enough to damp scheduling noise, large enough that a handful of observations
/// move a cold seed to the measured regime.
pub const EMA_ALPHA: f64 = 0.25;

/// A `(prover, bucket)` cell only overrides the seeded score-derived cost once it
/// has this many observations — below that, one noisy timing could reorder the
/// cascade on the strength of a single sample.
pub const MIN_OBSERVATIONS: u64 = 3;

/// Number of pending-queue shards. Observation is the per-attempt hot path under
/// parallel dispatch; sharding by key keeps workers off each other's locks.
const SHARDS: usize = 8;

/// The cost-model file inside a `CacheMode::Persistent` directory, next to the
/// proof store.
pub fn cost_model_path(dir: &Path) -> PathBuf {
    dir.join("cost-model.jahob")
}

/// Measured statistics of one `(prover, feature-bucket)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostStat {
    /// Attempts observed (wins, losses and fuel aborts alike).
    pub attempts: u64,
    /// Attempts that discharged the sequent.
    pub wins: u64,
    /// Exponential moving average of the attempt cost in nanoseconds.
    pub ema_cost_ns: f64,
}

impl CostStat {
    /// Folds one observed attempt into the cell.
    pub fn observe(&mut self, cost_ns: u64, won: bool) {
        self.attempts += 1;
        if won {
            self.wins += 1;
        }
        self.ema_cost_ns = ema_update(self.ema_cost_ns, cost_ns as f64, self.attempts);
    }

    /// Expected cost to *discharge* a sequent of this bucket with this prover: the
    /// EMA attempt cost divided by the Laplace-smoothed win rate
    /// `(wins + 0.5) / (attempts + 1)`. A prover that keeps losing in a bucket sees
    /// its expected cost grow with the evidence against it, sinking it down the
    /// cascade without ever removing it.
    pub fn expected_cost_ns(&self) -> f64 {
        let p_win = (self.wins as f64 + 0.5) / (self.attempts as f64 + 1.0);
        self.ema_cost_ns / p_win
    }

    /// Whether the cell has enough observations to override the seeded cost.
    pub fn calibrated(&self) -> bool {
        self.attempts >= MIN_OBSERVATIONS
    }
}

/// One EMA step: the first observation initialises the average, later ones blend in
/// with weight [`EMA_ALPHA`]. Exposed for the unit tests that pin the update math.
pub fn ema_update(prev_ns: f64, cost_ns: f64, attempts: u64) -> f64 {
    if attempts <= 1 {
        cost_ns
    } else {
        prev_ns + EMA_ALPHA * (cost_ns - prev_ns)
    }
}

type Key = (ProverId, FeatureBucket);

/// The dispatcher's measured cost model: a committed table the router reads, and
/// sharded pending buffers the cascade writes timed observations into. See the
/// module docs for the batch-frozen update discipline.
#[derive(Debug, Default)]
pub struct CostModel {
    committed: [Mutex<HashMap<Key, CostStat>>; SHARDS],
    pending: [Mutex<Vec<(Key, u64, bool)>>; SHARDS],
}

fn shard_of(key: &Key) -> usize {
    (key.0 as usize * 31 + key.1.bits() as usize) % SHARDS
}

impl CostModel {
    /// An empty (cold) model: every routing decision falls back to the seeded
    /// score-derived costs.
    pub fn new() -> CostModel {
        CostModel::default()
    }

    /// Buffers one timed attempt outcome. Cheap and contention-sharded: called on
    /// the cascade hot path for every prover attempt.
    pub fn observe(&self, prover: ProverId, bucket: FeatureBucket, cost_ns: u64, won: bool) {
        let key = (prover, bucket);
        self.pending[shard_of(&key)]
            .lock()
            .expect("cost-model shard poisoned")
            .push((key, cost_ns, won));
    }

    /// Folds every pending observation into the committed table. Called once per
    /// completed batch — never mid-batch, so the routed order is frozen while a
    /// batch is in flight.
    pub fn commit(&self) {
        for shard in 0..SHARDS {
            let drained: Vec<(Key, u64, bool)> = std::mem::take(
                &mut *self.pending[shard]
                    .lock()
                    .expect("cost-model shard poisoned"),
            );
            if drained.is_empty() {
                continue;
            }
            let mut committed = self.committed[shard]
                .lock()
                .expect("cost-model shard poisoned");
            for (key, cost_ns, won) in drained {
                committed.entry(key).or_default().observe(cost_ns, won);
            }
        }
    }

    /// The committed cell for `(prover, bucket)`, if any observation ever reached it.
    pub fn lookup(&self, prover: ProverId, bucket: FeatureBucket) -> Option<CostStat> {
        let key = (prover, bucket);
        self.committed[shard_of(&key)]
            .lock()
            .expect("cost-model shard poisoned")
            .get(&key)
            .copied()
    }

    /// The committed cell, only when calibrated ([`MIN_OBSERVATIONS`] reached) — the
    /// router's question.
    pub fn calibrated(&self, prover: ProverId, bucket: FeatureBucket) -> Option<CostStat> {
        self.lookup(prover, bucket).filter(CostStat::calibrated)
    }

    /// Number of committed cells.
    pub fn len(&self) -> usize {
        self.committed
            .iter()
            .map(|s| s.lock().expect("cost-model shard poisoned").len())
            .sum()
    }

    /// `true` when no observation has been committed (pending buffers don't count:
    /// they are invisible to routing until [`CostModel::commit`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the committed table, sorted for deterministic serialization.
    pub fn export(&self) -> Vec<(ProverId, FeatureBucket, CostStat)> {
        let mut cells: Vec<(ProverId, FeatureBucket, CostStat)> = Vec::new();
        for shard in &self.committed {
            for (&(prover, bucket), &stat) in
                shard.lock().expect("cost-model shard poisoned").iter()
            {
                cells.push((prover, bucket, stat));
            }
        }
        cells.sort_by_key(|(prover, bucket, _)| (*prover as u8, *bucket));
        cells
    }

    /// Installs loaded cells into the committed table (used at construction, before
    /// any in-process observation exists — in-process cells win on collision).
    pub fn absorb(&self, cells: Vec<(ProverId, FeatureBucket, CostStat)>) {
        for (prover, bucket, stat) in cells {
            let key = (prover, bucket);
            self.committed[shard_of(&key)]
                .lock()
                .expect("cost-model shard poisoned")
                .entry(key)
                .or_insert(stat);
        }
    }
}

impl Records for Vec<(ProverId, FeatureBucket, CostStat)> {
    const FILE: RecordFile = RecordFile {
        magic: MAGIC,
        version: COST_MODEL_VERSION,
        noun: "cost model",
        tags: &["C"],
        target: IoTarget::CostModel,
    };

    fn decode(&mut self, fields: &[&str]) -> Result<(), &'static str> {
        if fields.len() != 6 {
            return Err("cost record needs 6 fields");
        }
        let prover = parse_prover(fields[1]).ok_or("prover tag")?;
        let bucket = FeatureBucket::from_tag(fields[2]).ok_or("bucket tag")?;
        let attempts = fields[3].parse::<u64>().map_err(|_| "attempts")?;
        let wins = fields[4].parse::<u64>().map_err(|_| "wins")?;
        let ema_cost_ns = fields[5].parse::<f64>().map_err(|_| "ema cost")?;
        if wins > attempts || !ema_cost_ns.is_finite() || ema_cost_ns < 0.0 {
            return Err("implausible cost record");
        }
        self.push((
            prover,
            bucket,
            CostStat {
                attempts,
                wins,
                ema_cost_ns,
            },
        ));
        Ok(())
    }

    /// Live cells win on collision: they absorbed the disk state at load.
    fn merge(existing: Self, live: Self) -> Self {
        let cells: HashMap<Key, CostStat> = existing
            .into_iter()
            .chain(live)
            .map(|(prover, bucket, stat)| ((prover, bucket), stat))
            .collect();
        let mut cells: Vec<_> = cells
            .into_iter()
            .map(|((prover, bucket), stat)| (prover, bucket, stat))
            .collect();
        cells.sort_by_key(|(prover, bucket, _)| (*prover as u8, *bucket));
        cells
    }

    fn encode(&self, out: &mut String) -> Vec<usize> {
        for (prover, bucket, stat) in self {
            out.push_str(&format!(
                "C\t{}\t{}\t{}\t{}\t{}\n",
                prover_tag(*prover),
                bucket.tag(),
                stat.attempts,
                stat.wins,
                stat.ema_cost_ns,
            ));
        }
        vec![self.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlane;
    use crate::persist::{self, LoadError};

    type Cells = Vec<(ProverId, FeatureBucket, CostStat)>;

    fn load(path: &Path) -> Result<Cells, LoadError> {
        persist::load(path, FaultPlane::disabled())
    }

    fn load_or_warn(path: &Path) -> Cells {
        persist::load_or_warn(path, FaultPlane::disabled())
    }

    fn merge_write(path: &Path, live: Cells) -> std::io::Result<usize> {
        persist::merge_write(path, live, FaultPlane::disabled())
    }

    fn bucket(bits: u8) -> FeatureBucket {
        FeatureBucket::from_bits(bits)
    }

    fn temp_model(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "jahob-costmodel-unit-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        cost_model_path(&dir)
    }

    #[test]
    fn ema_math_is_pinned() {
        // First observation initialises; later ones blend with alpha = 0.25.
        assert_eq!(ema_update(0.0, 1000.0, 1), 1000.0);
        assert_eq!(ema_update(1000.0, 2000.0, 2), 1250.0);
        assert_eq!(ema_update(1250.0, 250.0, 3), 1000.0);
        let mut stat = CostStat::default();
        stat.observe(1000, true);
        stat.observe(2000, false);
        assert_eq!(stat.attempts, 2);
        assert_eq!(stat.wins, 1);
        assert_eq!(stat.ema_cost_ns, 1250.0);
    }

    #[test]
    fn expected_cost_penalises_chronic_losers() {
        let winner = CostStat {
            attempts: 10,
            wins: 10,
            ema_cost_ns: 100_000.0,
        };
        let loser = CostStat {
            attempts: 10,
            wins: 0,
            ema_cost_ns: 100_000.0,
        };
        assert!(winner.expected_cost_ns() < loser.expected_cost_ns());
        // Laplace smoothing keeps the loser finite: it is demoted, never pruned.
        assert!(loser.expected_cost_ns().is_finite());
    }

    #[test]
    fn observations_are_invisible_until_commit() {
        let model = CostModel::new();
        model.observe(ProverId::Mona, bucket(FeatureBucket::REACH), 5_000, true);
        assert_eq!(
            model.lookup(ProverId::Mona, bucket(FeatureBucket::REACH)),
            None
        );
        assert!(model.is_empty());
        model.commit();
        let stat = model
            .lookup(ProverId::Mona, bucket(FeatureBucket::REACH))
            .expect("committed");
        assert_eq!((stat.attempts, stat.wins), (1, 1));
        // Not yet calibrated: one sample never overrides the seeded order.
        assert!(model
            .calibrated(ProverId::Mona, bucket(FeatureBucket::REACH))
            .is_none());
        for _ in 0..2 {
            model.observe(ProverId::Mona, bucket(FeatureBucket::REACH), 5_000, true);
        }
        model.commit();
        assert!(model
            .calibrated(ProverId::Mona, bucket(FeatureBucket::REACH))
            .is_some());
    }

    #[test]
    fn serialisation_round_trips() {
        let path = temp_model("roundtrip");
        // In export order: MONA precedes SMT in the `ProverId` declaration.
        let cells = vec![
            (
                ProverId::Mona,
                bucket(FeatureBucket::REACH | FeatureBucket::SETS),
                CostStat {
                    attempts: 3,
                    wins: 0,
                    ema_cost_ns: 98_001_554.5,
                },
            ),
            (
                ProverId::Smt,
                bucket(FeatureBucket::ARITH),
                CostStat {
                    attempts: 7,
                    wins: 5,
                    ema_cost_ns: 19_934.25,
                },
            ),
        ];
        merge_write(&path, cells.clone()).expect("write");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded, cells, "cells survive byte-exactly, f64 included");
    }

    #[test]
    fn merge_write_unions_and_live_cells_win() {
        let path = temp_model("merge");
        let cell = |attempts: u64| {
            (
                ProverId::Fol,
                bucket(FeatureBucket::QUANT),
                CostStat {
                    attempts,
                    wins: 1,
                    ema_cost_ns: 300_000.0,
                },
            )
        };
        let other = (
            ProverId::Bapa,
            bucket(FeatureBucket::CARD),
            CostStat {
                attempts: 4,
                wins: 4,
                ema_cost_ns: 40_000.0,
            },
        );
        merge_write(&path, vec![cell(5), other]).expect("first write");
        merge_write(&path, vec![cell(9)]).expect("second write");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded.len(), 2, "union keeps the untouched cell");
        let fol = loaded
            .iter()
            .find(|(p, _, _)| *p == ProverId::Fol)
            .expect("fol cell");
        assert_eq!(fol.2.attempts, 9, "live cell wins the collision");
    }

    #[test]
    fn missing_file_loads_empty_and_silent() {
        assert!(load_or_warn(&temp_model("missing")).is_empty());
    }

    #[test]
    fn corrupt_truncated_and_future_files_cold_start() {
        let path = temp_model("corrupt");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        for text in [
            "garbage\n",
            &format!("{MAGIC} v999\nC\tx\n"),
            &format!("{MAGIC} v{COST_MODEL_VERSION}\nC\tsmt\tarith\t3\t1\t10.0\n"), // no trailer
            &format!("{MAGIC} v{COST_MODEL_VERSION}\nC\tsmt\tarith\t3\t1\t10.0\n## end\t5\n"),
            &format!(
                "{MAGIC} v{COST_MODEL_VERSION}\nC\tsmt\tbogus-bucket\t3\t1\t10.0\n## end\t1\n"
            ),
            &format!("{MAGIC} v{COST_MODEL_VERSION}\nC\tsmt\tarith\t3\t9\t10.0\n## end\t1\n"), // wins > attempts
            &format!(
                "{MAGIC} v{COST_MODEL_VERSION}\nC\tsmt\tarith\t3\t1\t10.0\n## end\t1\nC\tsmt\tarith\t3\t1\t10.0\n"
            ), // content after the trailer
            &format!("{MAGIC} v{COST_MODEL_VERSION}\nX\tsmt\n## end\t0\n"), // unknown record tag
        ] {
            std::fs::write(&path, text).unwrap();
            assert!(load(&path).is_err(), "{text:?} must not parse");
            assert!(load_or_warn(&path).is_empty(), "lenient load is empty");
        }
        // And a flush over the corrupt file recovers it.
        merge_write(
            &path,
            vec![(
                ProverId::Smt,
                bucket(FeatureBucket::ARITH),
                CostStat {
                    attempts: 3,
                    wins: 1,
                    ema_cost_ns: 10.0,
                },
            )],
        )
        .expect("flush over corrupt file");
        assert_eq!(load(&path).expect("recovered").len(), 1);
    }

    #[test]
    fn absorb_prefers_in_process_cells() {
        let model = CostModel::new();
        for _ in 0..3 {
            model.observe(ProverId::Smt, bucket(FeatureBucket::ARITH), 1_000, true);
        }
        model.commit();
        model.absorb(vec![(
            ProverId::Smt,
            bucket(FeatureBucket::ARITH),
            CostStat {
                attempts: 99,
                wins: 0,
                ema_cost_ns: 5.0,
            },
        )]);
        let stat = model
            .lookup(ProverId::Smt, bucket(FeatureBucket::ARITH))
            .unwrap();
        assert_eq!(stat.attempts, 3, "absorb never clobbers live cells");
    }
}
