//! Parts of the time-to-verdict benchmark that do not touch the pipeline: order
//! statistics, the seeded selection of pre-verified structures, the expected-answer
//! file and the in-memory span recorder. `main.rs` drives the pipeline with them.

use std::collections::BTreeMap;
use std::time::Instant;

/// Percentile `p` (0–100) of `values` by linear interpolation between closest ranks
/// (the "R-7" rule numpy uses by default). `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let h = last as f64 * (p / 100.0).clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method), which is how
/// run-to-run spread is judged. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// SplitMix64: a small, well-mixed generator, so a seed fully determines a selection
/// on every platform.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Picks one member of every pair, the choice of each drawn from `seed`. Pairs hold
/// structures of similar proving cost, so every selection pre-verifies about the same
/// share of the suite's work and runs differ by which structures hit on disk, not by
/// how much work is left.
pub fn select_one_per_pair<'a>(seed: u64, pairs: &[(&'a str, &'a str)]) -> Vec<&'a str> {
    let mut rng = SplitMix64(seed);
    pairs
        .iter()
        .map(|&(a, b)| if rng.next_u64() >> 63 == 0 { a } else { b })
        .collect()
}

/// One method of the expected-answer file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedMethod {
    /// `Class.method`.
    pub name: String,
    /// How many of its obligations are expected to be proved.
    pub proved: usize,
    /// How many obligations (sequents) it contributes.
    pub sequents: usize,
}

impl ExpectedMethod {
    /// `true` when every obligation of the method is expected to be proved.
    pub fn verified(&self) -> bool {
        self.proved == self.sequents
    }
}

/// One structure of the expected-answer file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedStructure {
    /// Its methods, in file order.
    pub methods: Vec<ExpectedMethod>,
    /// Its sequent total (checked against the sum over its methods).
    pub sequents: usize,
}

impl ExpectedStructure {
    /// Obligations of the structure expected to be proved.
    pub fn proved(&self) -> usize {
        self.methods.iter().map(|m| m.proved).sum()
    }
}

/// The expected answers, keyed by structure name.
pub type Expected = BTreeMap<String, ExpectedStructure>;

/// Parses the expected-answer file. Blank lines and `#` comments are skipped; every
/// other line starts with `[Structure Name]` and is either `sequents=N` (the
/// structure's total) or `Class.method P/N proved|unproved` (P of the method's N
/// obligations proved; the verdict word must agree: `proved` exactly when P = N).
/// Every structure needs a total equal to the sum over its methods.
pub fn parse_expected(text: &str) -> Result<Expected, String> {
    let mut expected = Expected::new();
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    for (number, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |msg: &str| format!("line {}: {msg}: {raw:?}", number + 1);
        let rest = line
            .strip_prefix('[')
            .ok_or_else(|| at("expected `[Structure]`"))?;
        let (structure, body) = rest.split_once(']').ok_or_else(|| at("unclosed `[`"))?;
        let structure = structure.trim().to_string();
        let count = |s: &str| s.parse::<usize>().map_err(|_| at("bad count"));
        let entry = expected
            .entry(structure.clone())
            .or_insert(ExpectedStructure {
                methods: Vec::new(),
                sequents: 0,
            });
        match body.split_whitespace().collect::<Vec<_>>().as_slice() {
            [total] if total.starts_with("sequents=") => {
                let n = count(&total["sequents=".len()..])?;
                if totals.insert(structure, n).is_some() {
                    return Err(at("second total for this structure"));
                }
            }
            [name, counts, verdict] => {
                let (proved, sequents) =
                    counts.split_once('/').ok_or_else(|| at("expected `P/N`"))?;
                let method = ExpectedMethod {
                    name: name.to_string(),
                    proved: count(proved)?,
                    sequents: count(sequents)?,
                };
                let consistent = match *verdict {
                    "proved" => method.verified(),
                    "unproved" => method.proved < method.sequents,
                    _ => return Err(at("verdict must be `proved` or `unproved`")),
                };
                if !consistent {
                    return Err(at("verdict disagrees with `P/N`"));
                }
                entry.methods.push(method);
            }
            _ => return Err(at("expected `sequents=N` or `Class.method P/N verdict`")),
        }
    }
    for (name, structure) in expected.iter_mut() {
        let total = *totals
            .get(name)
            .ok_or_else(|| format!("structure {name:?} has no `sequents=` total"))?;
        let sum: usize = structure.methods.iter().map(|m| m.sequents).sum();
        if sum != total {
            return Err(format!(
                "structure {name:?}: methods add up to {sum} sequents, total says {total}"
            ));
        }
        structure.sequents = total;
    }
    if expected.is_empty() {
        return Err("no structures listed".to_string());
    }
    Ok(expected)
}

/// One recorded span: a named interval on the benchmark's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `dispatch.prove_all`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass this span belongs to.
    pub pass: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans in memory on one thread. Spans are written out only when
/// the benchmark ends, so recording costs two clock reads and a push.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }
}

impl Tracer {
    /// Sets the pass identifier stamped on spans opened from now on.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = self.open(name);
        let out = f();
        self.close(index);
        out
    }

    /// Opens a span nested under the innermost open span; [`Tracer::close`] ends it.
    /// For regions whose body opens spans of its own, such as a whole pass.
    pub fn open(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `index` returned by [`Tracer::open`].
    pub fn close(&mut self, index: usize) {
        assert_eq!(self.open.pop(), Some(index), "spans close in LIFO order");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part its direct children cover.
/// Children of one span never overlap, because spans are recorded on one thread.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// For each span named `root`, the per-name sums of self time (ms) over its
/// descendants, together with the root's own duration (ms).
pub fn layer_self_times(spans: &[Span], root: &str) -> Vec<(f64, BTreeMap<&'static str, f64>)> {
    let selfs = self_times_ns(spans);
    let mut out: Vec<(f64, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut root_slot: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.name == root {
            root_slot.insert(i, out.len());
            out.push((span.duration_ns() as f64 / 1e6, BTreeMap::new()));
            continue;
        }
        let mut ancestor = span.parent;
        while let Some(a) = ancestor {
            if let Some(&slot) = root_slot.get(&a) {
                *out[slot].1.entry(span.name).or_default() += selfs[i] as f64 / 1e6;
                break;
            }
            ancestor = spans[a].parent;
        }
    }
    out
}
