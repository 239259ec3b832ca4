//! The persistent, content-addressed proof store: warm starts across processes,
//! runs, and machines.
//!
//! The in-memory [`SequentCache`](crate::SequentCache) dies with the process, so a
//! suite re-run re-proves every sequent from a cold start. This module serializes the
//! cache — the `SequentKey → CachedOutcome` verdict map *and* the negative
//! failure-memo masks — to one versioned file inside a user-chosen directory
//! ([`store_path`]), loaded at [`Dispatcher`](crate::Dispatcher) construction and
//! merge-written on flush (or drop, per
//! [`CacheMode::Persistent`](crate::CacheMode::Persistent)).
//!
//! **Content addressing.** Every verdict record carries the cache's full key: the
//! alpha-normalized canonical sequent (its
//! printed form *is* the content address — `SequentKey` hashes are recomputed
//! deterministically on load), the hinted-variant key, the variable classification,
//! the lemma-registration bit, **and the dispatcher's `config_fingerprint`** (prover
//! order, routing, budgets, and the deadline when one is set). A store written under
//! one configuration is therefore
//! never *replayed* under another: entries with a foreign fingerprint are loaded but
//! can never be looked up, and a later merge-write carries them along untouched, so
//! one store file can serve many configurations side by side.
//!
//! **Format.** The framing — the `jahob-proof-store v<N>` header ([`STORE_VERSION`]),
//! the counted `## end` trailer, the all-or-nothing load with its warned cold start,
//! and the atomic-rename merge-write — is the record-file layer shared with the cost
//! model (`persist`). This module holds the `V` (verdict) and `F` (failure-mask)
//! record codec and the merge rule: live verdicts win on key collision (they are at
//! least as fresh) and failure masks are OR-ed. Two processes flushing simultaneously
//! may each miss the other's *newest* entries (last rename wins), but since each
//! merge starts from the current file, nothing already on disk is ever lost, and a
//! later flush from either process re-contributes the remainder.

use crate::cache::{CacheKey, CachedOutcome, FailureKey, SequentKey};
use crate::faults::IoTarget;
use crate::persist::{escape, parse_prover, prover_tag, unescape, RecordFile, Records};
use crate::ProverId;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The store format version this build reads and writes. Bumped whenever the record
/// layout, the canonical-form definition, or the fingerprint contents change
/// incompatibly; files with any other version load as empty (with a warning).
/// v2 added the per-prover budget-abort counts and the rescued bit to verdict
/// records (the fuel-budget PR).
pub const STORE_VERSION: u32 = 2;

/// Magic prefix of the header line, shared by every format version.
const MAGIC: &str = "jahob-proof-store";

/// The store file inside a [`CacheMode::Persistent`](crate::CacheMode::Persistent)
/// directory. One fixed name per directory: the version lives in the file header (and
/// a mismatched version cold-starts), so upgrades never leave stale files behind.
pub fn store_path(dir: &Path) -> PathBuf {
    dir.join("proof-store.jahob")
}

/// An in-flight snapshot of the cache's persistent contents: the verdict map entries
/// and the failure-memo masks, as flat lists.
#[derive(Debug, Default)]
pub(crate) struct StoreData {
    pub(crate) verdicts: Vec<(CacheKey, CachedOutcome)>,
    pub(crate) failures: Vec<(FailureKey, u8)>,
}

impl Records for StoreData {
    const FILE: RecordFile = RecordFile {
        magic: MAGIC,
        version: STORE_VERSION,
        noun: "proof store",
        tags: &["V", "F"],
        target: IoTarget::Store,
    };

    fn decode(&mut self, fields: &[&str]) -> Result<(), &'static str> {
        if fields[0] == "V" {
            // A verdict record; the only other tag is `F`, a failure-memo mask.
            if fields.len() != 12 {
                return Err("verdict record needs 12 fields");
            }
            let key = CacheKey {
                config_fingerprint: unescape(fields[1]).ok_or("fingerprint")?,
                sequent: SequentKey::from_repr(unescape(fields[2]).ok_or("sequent")?),
                hinted: match fields[3] {
                    "-" => None,
                    tagged => Some(SequentKey::from_repr(
                        tagged
                            .strip_prefix('=')
                            .and_then(unescape)
                            .ok_or("hinted sequent")?,
                    )),
                },
                var_classes: unescape(fields[4]).ok_or("var classes")?,
                lemma_registered: parse_bool(fields[5]).ok_or("lemma bit")?,
            };
            let outcome = CachedOutcome {
                proved: parse_bool(fields[6]).ok_or("proved bit")?,
                prover: match fields[7] {
                    "-" => None,
                    tag => Some(parse_prover(tag).ok_or("prover tag")?),
                },
                attempted: parse_counts(fields[8]).ok_or("attempted counts")?,
                skipped: parse_counts(fields[9]).ok_or("skipped counts")?,
                budget_aborts: parse_counts(fields[10]).ok_or("budget-abort counts")?,
                rescued: parse_bool(fields[11]).ok_or("rescued bit")?,
                from_disk: false, // stamped by `SequentCache::absorb`
            };
            self.verdicts.push((key, outcome));
        } else {
            if fields.len() != 4 {
                return Err("failure record needs 4 fields");
            }
            let key = FailureKey {
                sequent: SequentKey::from_repr(unescape(fields[1]).ok_or("sequent")?),
                var_classes: unescape(fields[2]).ok_or("var classes")?,
            };
            let mask = fields[3].parse::<u8>().map_err(|_| "failure mask")?;
            self.failures.push((key, mask));
        }
        Ok(())
    }

    /// Live verdicts win on key collision (they are at least as fresh); failure
    /// masks OR together.
    fn merge(existing: StoreData, live: StoreData) -> StoreData {
        let verdicts: HashMap<CacheKey, CachedOutcome> =
            existing.verdicts.into_iter().chain(live.verdicts).collect();
        let mut failures: HashMap<FailureKey, u8> = HashMap::new();
        for (key, mask) in existing.failures.into_iter().chain(live.failures) {
            *failures.entry(key).or_insert(0) |= mask;
        }
        let mut verdicts: Vec<_> = verdicts.into_iter().collect();
        verdicts.sort_by(|(a, _), (b, _)| {
            (a.sequent.repr(), &a.config_fingerprint, &a.var_classes).cmp(&(
                b.sequent.repr(),
                &b.config_fingerprint,
                &b.var_classes,
            ))
        });
        let mut failures: Vec<_> = failures.into_iter().collect();
        failures.sort_by(|(a, _), (b, _)| {
            (a.sequent.repr(), &a.var_classes).cmp(&(b.sequent.repr(), &b.var_classes))
        });
        StoreData { verdicts, failures }
    }

    fn encode(&self, out: &mut String) -> Vec<usize> {
        for (key, outcome) in &self.verdicts {
            out.push_str(&format!(
                "V\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                escape(&key.config_fingerprint),
                escape(key.sequent.repr()),
                match &key.hinted {
                    None => "-".to_string(),
                    Some(h) => format!("={}", escape(h.repr())),
                },
                escape(&key.var_classes),
                key.lemma_registered as u8,
                outcome.proved as u8,
                outcome.prover.map_or("-", prover_tag),
                render_counts(&outcome.attempted),
                render_counts(&outcome.skipped),
                render_counts(&outcome.budget_aborts),
                outcome.rescued as u8,
            ));
        }
        for (key, mask) in &self.failures {
            out.push_str(&format!(
                "F\t{}\t{}\t{mask}\n",
                escape(key.sequent.repr()),
                escape(&key.var_classes),
            ));
        }
        vec![self.verdicts.len(), self.failures.len()]
    }
}

fn render_counts(counts: &[(ProverId, usize)]) -> String {
    counts
        .iter()
        .map(|(prover, n)| format!("{}:{n}", prover_tag(*prover)))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_counts(field: &str) -> Option<Vec<(ProverId, usize)>> {
    if field.is_empty() {
        return Some(Vec::new());
    }
    field
        .split(',')
        .map(|part| {
            let (tag, n) = part.split_once(':')?;
            Some((parse_prover(tag)?, n.parse().ok()?))
        })
        .collect()
}

fn parse_bool(field: &str) -> Option<bool> {
    match field {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlane;
    use crate::persist::{self, LoadError};

    fn load(path: &Path) -> Result<StoreData, LoadError> {
        persist::load(path, FaultPlane::disabled())
    }

    fn load_or_warn(path: &Path) -> StoreData {
        persist::load_or_warn(path, FaultPlane::disabled())
    }

    fn merge_write(path: &Path, live: StoreData) -> std::io::Result<usize> {
        persist::merge_write(path, live, FaultPlane::disabled())
    }

    fn sample() -> StoreData {
        let key = |fp: &str, sequent: &str| CacheKey {
            sequent: SequentKey::from_repr(sequent.to_string()),
            hinted: Some(SequentKey::from_repr("p |- q".to_string())),
            var_classes: "S:content;".to_string(),
            lemma_registered: false,
            config_fingerprint: fp.to_string(),
        };
        StoreData {
            verdicts: vec![
                (
                    key("order=A|hints=true|route=true", "a |- b"),
                    CachedOutcome {
                        proved: true,
                        prover: Some(ProverId::Bapa),
                        attempted: vec![(ProverId::Syntactic, 1), (ProverId::Bapa, 1)],
                        skipped: vec![(ProverId::Mona, 1)],
                        budget_aborts: vec![(ProverId::Fol, 1)],
                        rescued: false,
                        from_disk: false,
                    },
                ),
                (
                    key("order=A|hints=true|route=false", "odd\\chars\there |- g"),
                    CachedOutcome {
                        proved: false,
                        prover: None,
                        attempted: Vec::new(),
                        skipped: Vec::new(),
                        budget_aborts: Vec::new(),
                        rescued: true,
                        from_disk: false,
                    },
                ),
            ],
            failures: vec![(
                FailureKey {
                    sequent: SequentKey::from_repr("a |- b".to_string()),
                    var_classes: String::new(),
                },
                0b101,
            )],
        }
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("jahob-store-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store_path(&dir)
    }

    #[test]
    fn round_trips_through_the_file_format() {
        let path = temp_store("roundtrip");
        merge_write(&path, sample()).expect("write");
        let loaded = load(&path).expect("load");
        let original = sample();
        assert_eq!(loaded.verdicts.len(), original.verdicts.len());
        assert_eq!(loaded.failures.len(), original.failures.len());
        for (key, outcome) in &original.verdicts {
            let (_, reloaded) = loaded
                .verdicts
                .iter()
                .find(|(k, _)| k == key)
                .expect("key survives byte-exactly, escapes included");
            assert_eq!(reloaded, outcome);
        }
        assert_eq!(loaded.failures[0].1, 0b101);
    }

    #[test]
    fn merge_write_unions_and_live_entries_win() {
        let path = temp_store("merge");
        merge_write(&path, sample()).expect("first write");
        // A second snapshot: one colliding verdict flipped, one new failure bit.
        let mut second = StoreData::default();
        let collide = sample().verdicts.remove(0);
        second.verdicts.push((
            collide.0.clone(),
            CachedOutcome {
                prover: Some(ProverId::Smt),
                ..collide.1
            },
        ));
        second.failures.push((
            FailureKey {
                sequent: SequentKey::from_repr("a |- b".to_string()),
                var_classes: String::new(),
            },
            0b010,
        ));
        merge_write(&path, second).expect("merge write");
        let merged = load(&path).expect("load");
        assert_eq!(
            merged.verdicts.len(),
            2,
            "union keeps the other fingerprint"
        );
        let (_, winner) = merged
            .verdicts
            .iter()
            .find(|(k, _)| k == &collide.0)
            .expect("collided key present");
        assert_eq!(winner.prover, Some(ProverId::Smt), "live entry wins");
        assert_eq!(merged.failures[0].1, 0b111, "failure masks OR together");
    }

    #[test]
    fn deterministic_serialization() {
        let a = temp_store("det-a");
        let b = temp_store("det-b");
        merge_write(&a, sample()).expect("write a");
        merge_write(&b, sample()).expect("write b");
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap(),
            "identical contents serialize identically"
        );
    }

    #[test]
    fn missing_file_loads_empty_and_silent() {
        let path = temp_store("missing");
        let data = load_or_warn(&path);
        assert!(data.verdicts.is_empty() && data.failures.is_empty());
    }

    #[test]
    fn truncated_file_is_rejected_naming_the_reason() {
        let path = temp_store("truncated");
        merge_write(&path, sample()).expect("write");
        let full = std::fs::read_to_string(&path).unwrap();
        // Cut mid-way: drop the trailer and half a record.
        let cut = &full[..full.len() - full.lines().last().unwrap().len() - 10];
        std::fs::write(&path, cut).unwrap();
        let err = load(&path).expect_err("truncated store must not parse");
        let text = err.to_string();
        assert!(
            text.contains("truncated") || text.contains("corrupt"),
            "{text}"
        );
        assert!(
            load_or_warn(&path).verdicts.is_empty(),
            "lenient load is empty"
        );
    }

    #[test]
    fn garbage_file_is_rejected() {
        let path = temp_store("garbage");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).unwrap();
        }
        let valid = format!("{MAGIC} v{STORE_VERSION}\nF\ta |- b\t\t5\n## end\t0\t1\n");
        std::fs::write(&path, &valid).unwrap();
        assert_eq!(load(&path).expect("the base case parses").failures.len(), 1);
        for (text, reason) in [
            ("not a store\nat all\n".to_string(), "not a proof store"),
            (
                format!("{valid}F\ta |- b\t\t5\n"),
                "content after the end trailer",
            ),
            (
                format!("{MAGIC} v{STORE_VERSION}\nX\tmystery\n## end\t0\t0\n"),
                "unknown record type",
            ),
        ] {
            std::fs::write(&path, &text).unwrap();
            let err = load(&path).expect_err("garbage must not parse");
            assert!(err.to_string().contains(reason), "{err}");
            let lenient = load_or_warn(&path);
            assert!(
                lenient.verdicts.is_empty() && lenient.failures.is_empty(),
                "lenient load is empty: {text:?}"
            );
        }
    }

    #[test]
    fn future_version_is_rejected_naming_both_versions() {
        let path = temp_store("future");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).unwrap();
        }
        std::fs::write(&path, format!("{MAGIC} v999\nV\twhatever\n")).unwrap();
        let err = load(&path).expect_err("future version must not parse");
        let text = err.to_string();
        assert!(text.contains("v999"), "{text}");
        assert!(text.contains(&format!("v{STORE_VERSION}")), "{text}");
        // And a corrupt-on-write store is overwritten, not merged with.
        merge_write(&path, sample()).expect("flush over a future-version file");
        assert_eq!(load(&path).expect("recovered").verdicts.len(), 2);
    }

    #[test]
    fn trailer_count_mismatch_is_rejected() {
        let path = temp_store("trailer");
        merge_write(&path, sample()).expect("write");
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Drop one record line but keep the trailer: counts now disagree.
        let victim = text
            .lines()
            .find(|l| l.starts_with('F'))
            .unwrap()
            .to_string();
        text = text.replace(&format!("{victim}\n"), "");
        std::fs::write(&path, text).unwrap();
        let err = load(&path).expect_err("count mismatch must not parse");
        assert!(err.to_string().contains("trailer"), "{err}");
    }

    #[test]
    fn escape_round_trips_control_characters() {
        for s in ["", "plain", "a\tb", "a\nb\r\\c", "\\t", "trailing\\"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s), "{s:?}");
        }
        assert_eq!(unescape("dangling\\"), None);
        assert_eq!(unescape("bad\\q"), None);
    }
}
