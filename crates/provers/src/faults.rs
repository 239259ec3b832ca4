//! Deterministic fault injection for the dispatcher's torture harness.
//!
//! The fault plane lets tests (and the CI `fault-torture` job) inject failures into
//! well-defined points of the proving and persistence paths without touching any
//! production logic: prover attempts can be made to panic or stall, and the proof
//! store / cost model I/O can be made to fail or to "crash" between writing its
//! private tmp file and the atomic rename. The dispatcher's containment layer
//! (`catch_unwind`, deadlines, bounded store retries) is then exercised against
//! every one of those failures while the differential harness pins that a run with
//! faults disabled is byte-identical to one without a fault plane at all.
//!
//! Faults are configured by a parsed spec ([`FaultSpec`], usually from the
//! `JAHOB_FAULTS` environment knob):
//!
//! ```text
//! smt:panic@3;mona:delay=50ms;store:io@2;store:torn@5
//! ```
//!
//! Each `;`-separated entry is `site:action`.
//!
//! * **Sites** are the six provers (`syntactic`, `smt`, `mona`, `fol`, `bapa`,
//!   `interactive` — the tags of the on-disk store format) plus `store` (the proof
//!   store) and `costmodel` (the cost-model profile).
//! * **Prover actions**: `panic@N` panics on every Nth attempt of that prover;
//!   `delay=Xms` sleeps X milliseconds before every attempt (`delay=Xms@N` before
//!   every Nth).
//! * **I/O actions** (`store`/`costmodel` only): `io@N` fails every Nth read/write
//!   operation with an injected I/O error; `torn@N` kills every Nth merge-write at
//!   the point *between* the tmp-file write and the atomic rename — the tmp file is
//!   left behind and the store is never renamed over, exactly as if the process had
//!   died there.
//!
//! Every entry keeps its own operation counter, so injection is a deterministic
//! function of the number of operations that reached its site — no randomness, no
//! clocks. Under parallel dispatch the *set* of fired operation indices is still
//! exact; which obligation draws a fired index depends on scheduling, which is
//! precisely the nondeterminism the torture tests want to explore while assertions
//! stay on scheduling-independent facts (the process survived, verdicts of
//! unaffected provers, counters being nonzero).
//!
//! An empty spec arms nothing and the plane is a no-op (a handful of branches on an
//! empty list); the faults-off differential matrix pins that.

use crate::ProverId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Where a fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultSite {
    /// One prover's attempts in the cascade.
    Prover(ProverId),
    /// Proof-store I/O (`store.rs` load/flush).
    Store,
    /// Cost-model I/O (`costmodel.rs` load/flush).
    CostModel,
}

impl FaultSite {
    fn parse(tag: &str) -> Option<FaultSite> {
        Some(match tag {
            "syntactic" => FaultSite::Prover(ProverId::Syntactic),
            "mona" => FaultSite::Prover(ProverId::Mona),
            "smt" => FaultSite::Prover(ProverId::Smt),
            "fol" => FaultSite::Prover(ProverId::Fol),
            "bapa" => FaultSite::Prover(ProverId::Bapa),
            "interactive" => FaultSite::Prover(ProverId::Interactive),
            "store" => FaultSite::Store,
            "costmodel" => FaultSite::CostModel,
            _ => return None,
        })
    }

    fn tag(&self) -> &'static str {
        match self {
            FaultSite::Prover(ProverId::Syntactic) => "syntactic",
            FaultSite::Prover(ProverId::Mona) => "mona",
            FaultSite::Prover(ProverId::Smt) => "smt",
            FaultSite::Prover(ProverId::Fol) => "fol",
            FaultSite::Prover(ProverId::Bapa) => "bapa",
            FaultSite::Prover(ProverId::Interactive) => "interactive",
            FaultSite::Store => "store",
            FaultSite::CostModel => "costmodel",
        }
    }
}

/// What a fault does when its kill point fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultAction {
    /// Panic inside the prover attempt (contained by the cascade's `catch_unwind`).
    Panic,
    /// Sleep this long before the prover attempt (exercises the deadline path).
    Delay(Duration),
    /// Fail the read/write operation with an injected `std::io::Error`.
    Io,
    /// Kill the merge-write between tmp-file write and atomic rename: the tmp file
    /// stays on disk, the store file is not replaced, and an error is returned —
    /// the observable state of a process that died at that instant.
    Torn,
}

/// One parsed `site:action` entry of a fault spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultEntry {
    site: FaultSite,
    action: FaultAction,
    /// Fire on every operation whose 1-based per-entry index is a multiple of this.
    nth: u64,
}

impl fmt::Display for FaultEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let site = self.site.tag();
        match self.action {
            FaultAction::Panic => write!(f, "{site}:panic@{}", self.nth),
            FaultAction::Delay(d) => {
                write!(f, "{site}:delay={}ms", d.as_millis())?;
                if self.nth != 1 {
                    write!(f, "@{}", self.nth)?;
                }
                Ok(())
            }
            FaultAction::Io => write!(f, "{site}:io@{}", self.nth),
            FaultAction::Torn => write!(f, "{site}:torn@{}", self.nth),
        }
    }
}

/// A parsed fault-injection spec: zero or more deterministic kill points. The empty
/// spec (the default) injects nothing.
///
/// Parsed from strings like `smt:panic@3;mona:delay=50ms;store:io@2` — see the
/// [module docs](self) for the grammar. Carried by
/// [`DispatcherConfig::faults`](crate::DispatcherConfig::faults) and armed once per
/// dispatcher (clones share the armed plane, so operation counting spans a whole
/// dispatch tree deterministically).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSpec {
    entries: Vec<FaultEntry>,
}

impl FaultSpec {
    /// Parses a fault spec. The empty (or all-whitespace) string is the empty spec.
    /// On error, returns a human-readable description of the offending entry.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut entries = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            entries.push(parse_entry(part)?);
        }
        Ok(FaultSpec { entries })
    }

    /// `true` when the spec injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultSpec::parse(s)
    }
}

fn parse_entry(part: &str) -> Result<FaultEntry, String> {
    let (site_tag, action_text) = part
        .split_once(':')
        .ok_or_else(|| format!("fault entry {part:?} is missing the `site:action` colon"))?;
    let site = FaultSite::parse(site_tag.trim()).ok_or_else(|| {
        format!(
            "unknown fault site {:?} (expected a prover tag, `store` or `costmodel`)",
            site_tag.trim()
        )
    })?;
    let action_text = action_text.trim();
    let (action, nth) = if let Some(rest) = action_text.strip_prefix("panic@") {
        (FaultAction::Panic, parse_nth(part, rest)?)
    } else if let Some(rest) = action_text.strip_prefix("delay=") {
        let (ms_text, nth) = match rest.split_once('@') {
            Some((ms, n)) => (ms, parse_nth(part, n)?),
            None => (rest, 1),
        };
        let ms_text = ms_text
            .strip_suffix("ms")
            .ok_or_else(|| format!("fault entry {part:?}: delays are written `delay=<N>ms`"))?;
        let ms: u64 = ms_text
            .trim()
            .parse()
            .map_err(|_| format!("fault entry {part:?}: bad delay {ms_text:?}"))?;
        (FaultAction::Delay(Duration::from_millis(ms)), nth)
    } else if let Some(rest) = action_text.strip_prefix("io@") {
        (FaultAction::Io, parse_nth(part, rest)?)
    } else if let Some(rest) = action_text.strip_prefix("torn@") {
        (FaultAction::Torn, parse_nth(part, rest)?)
    } else {
        return Err(format!(
            "fault entry {part:?}: unknown action {action_text:?} \
             (expected panic@N, delay=Nms[@N], io@N or torn@N)"
        ));
    };
    let io_action = matches!(action, FaultAction::Io | FaultAction::Torn);
    let io_site = matches!(site, FaultSite::Store | FaultSite::CostModel);
    if io_action != io_site {
        return Err(format!(
            "fault entry {part:?}: io/torn apply to store/costmodel sites and \
             panic/delay to prover sites"
        ));
    }
    Ok(FaultEntry { site, action, nth })
}

fn parse_nth(part: &str, text: &str) -> Result<u64, String> {
    match text.trim().parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "fault entry {part:?}: expected a positive operation count after `@`"
        )),
    }
}

/// Which persistence file an I/O operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IoTarget {
    /// The proof store (`proof-store.jahob`).
    Store,
    /// The cost-model profile (`cost-model.jahob`).
    CostModel,
}

/// The class of I/O operation reaching a kill point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IoOp {
    /// Reading the file (load, or the re-read inside a merge-write).
    Read,
    /// Creating/writing/syncing the private tmp file.
    Write,
    /// The atomic rename of the tmp file over the store — the `torn` kill point
    /// sits immediately before it.
    Rename,
}

/// One armed fault entry: the parsed entry plus its private operation counter.
#[derive(Debug)]
struct ArmedFault {
    entry: FaultEntry,
    count: AtomicU64,
}

impl ArmedFault {
    /// Counts one operation at this entry's site and reports whether it fires.
    fn fires(&self) -> bool {
        let n = self.count.fetch_add(1, Ordering::Relaxed) + 1;
        n.is_multiple_of(self.entry.nth)
    }
}

/// The armed fault plane of one dispatcher (shared by its clones). With an empty
/// spec every hook is a no-op.
#[derive(Debug, Default)]
pub(crate) struct FaultPlane {
    arms: Vec<ArmedFault>,
}

#[cfg(test)]
static DISABLED: FaultPlane = FaultPlane { arms: Vec::new() };

impl FaultPlane {
    /// Arms a spec: every entry gets a fresh operation counter.
    pub(crate) fn new(spec: &FaultSpec) -> FaultPlane {
        FaultPlane {
            arms: spec
                .entries
                .iter()
                .map(|entry| ArmedFault {
                    entry: *entry,
                    count: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// The shared no-fault plane (test convenience for the record-file tests that
    /// load and merge-write without injected faults).
    #[cfg(test)]
    pub(crate) fn disabled() -> &'static FaultPlane {
        &DISABLED
    }

    /// Prover-attempt hook, called inside the cascade's containment wrapper: armed
    /// delays sleep here, armed panics panic here (and are caught by the caller's
    /// `catch_unwind`, surfacing as `AttemptOutcome::Crashed`).
    pub(crate) fn prover_attempt(&self, prover: ProverId) {
        for arm in &self.arms {
            if arm.entry.site != FaultSite::Prover(prover) {
                continue;
            }
            match arm.entry.action {
                FaultAction::Delay(d) => {
                    if arm.fires() {
                        std::thread::sleep(d);
                    }
                }
                FaultAction::Panic => {
                    if arm.fires() {
                        quiet_injected_panic(&format!("injected fault: {}", arm.entry));
                    }
                }
                FaultAction::Io | FaultAction::Torn => {}
            }
        }
    }

    /// Store/cost-model I/O hook. Returns the injected error when an armed `io`
    /// fault fires on a read/write, or an armed `torn` fault fires on the
    /// pre-rename kill point; `Ok(())` lets the real operation proceed.
    pub(crate) fn io_op(&self, target: IoTarget, op: IoOp) -> std::io::Result<()> {
        for arm in &self.arms {
            let site_matches = match target {
                IoTarget::Store => arm.entry.site == FaultSite::Store,
                IoTarget::CostModel => arm.entry.site == FaultSite::CostModel,
            };
            if !site_matches {
                continue;
            }
            let applicable = match arm.entry.action {
                FaultAction::Io => matches!(op, IoOp::Read | IoOp::Write),
                FaultAction::Torn => matches!(op, IoOp::Rename),
                FaultAction::Panic | FaultAction::Delay(_) => false,
            };
            if applicable && arm.fires() {
                return Err(std::io::Error::other(format!(
                    "injected fault: {}",
                    arm.entry
                )));
            }
        }
        Ok(())
    }
}

thread_local! {
    /// Set just before an injected panic unwinds, cleared by the containment
    /// wrapper after the catch: the panic hook below suppresses the default
    /// "thread panicked" noise for exactly these panics, so a torture run's stderr
    /// stays readable while *genuine* prover panics (also contained) still print.
    static INJECTED_PANIC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once per process) a panic-hook wrapper that stays silent for injected
/// panics and delegates to the previous hook for everything else.
pub(crate) fn install_quiet_panic_hook() {
    static INSTALLED: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !INJECTED_PANIC.with(|flag| flag.get()) {
                previous(info);
            }
        }));
    });
}

/// Clears the injected-panic marker; the containment wrapper calls this after
/// every `catch_unwind` so the flag can never leak past one contained attempt.
pub(crate) fn clear_injected_panic_marker() {
    INJECTED_PANIC.with(|flag| flag.set(false));
}

/// Panics with the injected-fault message, marked so the quiet hook swallows the
/// default stderr report.
fn quiet_injected_panic(message: &str) -> ! {
    INJECTED_PANIC.with(|flag| flag.set(true));
    panic!("{}", message);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> FaultSpec {
        FaultSpec::parse(s).expect("spec parses")
    }

    #[test]
    fn empty_and_whitespace_specs_are_empty() {
        assert!(spec("").is_empty());
        assert!(spec("  ;;  ; ").is_empty());
        assert!(FaultSpec::default().is_empty());
    }

    #[test]
    fn the_issue_example_parses_and_round_trips() {
        let s = spec("smt:panic@3;mona:delay=50ms;store:io@2");
        assert!(!s.is_empty());
        assert_eq!(s.to_string(), "smt:panic@3;mona:delay=50ms;store:io@2");
        assert_eq!(spec(&s.to_string()), s);
    }

    #[test]
    fn delay_with_explicit_nth_round_trips() {
        let s = spec("fol:delay=7ms@4;store:torn@2;costmodel:io@3");
        assert_eq!(s.to_string(), "fol:delay=7ms@4;store:torn@2;costmodel:io@3");
    }

    #[test]
    fn bad_specs_are_rejected_with_the_offending_entry() {
        for (text, needle) in [
            ("smt", "missing the `site:action` colon"),
            ("z3:panic@1", "unknown fault site"),
            ("smt:explode@1", "unknown action"),
            ("smt:panic@0", "positive operation count"),
            ("smt:panic@x", "positive operation count"),
            ("mona:delay=5s", "delay=<N>ms"),
            ("mona:delay=xms", "bad delay"),
            ("smt:io@2", "io/torn apply to store/costmodel"),
            ("store:panic@2", "io/torn apply to store/costmodel"),
        ] {
            let err = FaultSpec::parse(text).expect_err(text);
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn nth_counters_fire_on_exact_multiples() {
        let plane = FaultPlane::new(&spec("store:io@3"));
        let fired: Vec<bool> = (0..9)
            .map(|_| plane.io_op(IoTarget::Store, IoOp::Write).is_err())
            .collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        // Reads share the io counter; renames (the torn kill point) do not trip io.
        assert!(plane.io_op(IoTarget::Store, IoOp::Rename).is_ok());
        assert!(plane.io_op(IoTarget::CostModel, IoOp::Write).is_ok());
    }

    #[test]
    fn torn_faults_only_hit_the_rename_kill_point() {
        let plane = FaultPlane::new(&spec("costmodel:torn@2"));
        assert!(plane.io_op(IoTarget::CostModel, IoOp::Write).is_ok());
        assert!(plane.io_op(IoTarget::CostModel, IoOp::Read).is_ok());
        assert!(plane.io_op(IoTarget::CostModel, IoOp::Rename).is_ok());
        let err = plane
            .io_op(IoTarget::CostModel, IoOp::Rename)
            .expect_err("second rename fires");
        assert!(err.to_string().contains("costmodel:torn@2"));
    }

    #[test]
    fn injected_prover_panics_are_catchable_and_attributed() {
        install_quiet_panic_hook();
        let plane = FaultPlane::new(&spec("bapa:panic@2"));
        plane.prover_attempt(ProverId::Bapa);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plane.prover_attempt(ProverId::Bapa)
        }));
        clear_injected_panic_marker();
        let payload = caught.expect_err("second attempt panics");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("injected fault: bapa:panic@2"),
            "{message}"
        );
        // Other provers are untouched.
        plane.prover_attempt(ProverId::Smt);
        plane.prover_attempt(ProverId::Smt);
    }

    #[test]
    fn the_disabled_plane_is_a_no_op() {
        let plane = FaultPlane::disabled();
        for _ in 0..4 {
            assert!(plane.io_op(IoTarget::Store, IoOp::Write).is_ok());
            assert!(plane.io_op(IoTarget::Store, IoOp::Rename).is_ok());
            plane.prover_attempt(ProverId::Mona);
        }
    }
}
