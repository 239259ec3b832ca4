//! The record-file layer shared by both persistent files: the proof store
//! ([`store`](crate::store)) and the cost-model profile
//! ([`costmodel`](crate::costmodel)).
//!
//! **Framing.** A record file is line-based text:
//! - a `<magic> v<N>` header line;
//! - one tab-separated record per line, led by its record tag, string fields
//!   escaped with [`escape`];
//! - an `## end` trailer carrying one record count per tag, in the file's declared
//!   tag order, so truncation is detected even at a line boundary;
//! - nothing after the trailer.
//!
//! **Loading.** The strict load ([`load`]) is all-or-nothing: any malformed line
//! rejects the whole file, so a half-written record set is never replayed as if it
//! were complete. The lenient load ([`load_or_warn`]) is the cold-start-never-crash
//! contract of dispatcher construction: a missing file is a silent cold start, and
//! anything the strict load rejects (unreadable, corrupt, truncated, future
//! version) is one stderr warning naming the path and the reason, then a cold start.
//!
//! **Merge-writing.** [`merge_write`] re-reads the file, forms the union with the
//! live records under the file's merge rule, writes it to a uniquely named temp
//! file in the same directory, fsyncs, atomically renames it over the file, and
//! (on Unix) fsyncs the directory so the rename itself survives a crash. Readers
//! see the old file or the new one, whole, never a torn one.
//!
//! What differs between the two files is only their [`Records`] codec: how one
//! record line decodes, how on-disk and live records merge, and how records encode.

use crate::faults::{FaultPlane, IoOp, IoTarget};
use crate::ProverId;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The fixed framing parameters of one record file.
pub(crate) struct RecordFile {
    /// Magic prefix of the header line, shared by every format version.
    pub(crate) magic: &'static str,
    /// The format version this build reads and writes.
    pub(crate) version: u32,
    /// What the file is called in warnings and errors.
    pub(crate) noun: &'static str,
    /// The record tags, in the order of the trailer's counts.
    pub(crate) tags: &'static [&'static str],
    /// The fault-plane target of the file's I/O operations.
    pub(crate) target: IoTarget,
}

/// The record codec of one record file.
pub(crate) trait Records: Default {
    /// The file's framing parameters.
    const FILE: RecordFile;

    /// Decodes one record line, split at tabs, into `self`. `fields[0]` is one of
    /// the file's tags; the error is the reason the record is malformed.
    fn decode(&mut self, fields: &[&str]) -> Result<(), &'static str>;

    /// The union of the `existing` on-disk records and the `live` ones under the
    /// file's merge rule, in serialization order. Identical contents must always
    /// come out in the identical order, so files can be diffed and committed.
    fn merge(existing: Self, live: Self) -> Self;

    /// Appends one line per record to `out` and returns how many records of each
    /// tag it wrote, in the file's tag order.
    fn encode(&self, out: &mut String) -> Vec<usize>;
}

/// Why a record file could not be loaded. Rendered into the one-line cold-start
/// warning; never propagated as a failure.
#[derive(Debug)]
pub(crate) enum LoadError {
    /// The file could not be read at all (permissions, I/O).
    Io(std::io::Error),
    /// The header names a format version this build does not know (a future build
    /// wrote it, or the file is from an incompatible lineage).
    Version { found: String, reads: u32 },
    /// The file is not of the expected kind, or a record is malformed or truncated.
    Format { line: usize, reason: String },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "unreadable: {e}"),
            LoadError::Version { found, reads } => write!(
                f,
                "version mismatch: file has {found:?}, this build reads v{reads}"
            ),
            LoadError::Format { line, reason } => write!(f, "corrupt at line {line}: {reason}"),
        }
    }
}

/// Strictly loads the record file at `path`. The fault plane's read kill point
/// sits before the read.
pub(crate) fn load<R: Records>(path: &Path, faults: &FaultPlane) -> Result<R, LoadError> {
    faults
        .io_op(R::FILE.target, IoOp::Read)
        .map_err(LoadError::Io)?;
    let text = std::fs::read_to_string(path).map_err(LoadError::Io)?;
    parse(&text)
}

/// Loads the record file at `path` leniently: missing → empty (silent); anything
/// the strict load rejects → empty plus a single stderr warning naming the path and
/// the reason. Injected read errors surface like any other unreadable file.
pub(crate) fn load_or_warn<R: Records>(path: &Path, faults: &FaultPlane) -> R {
    load_or_cold(path, faults).unwrap_or_else(|e| {
        warn_cold::<R>(path, &LoadError::Io(e));
        R::default()
    })
}

/// The re-read rule of a merge-write: a missing file is empty, a corrupt one is
/// warned and treated as empty (it contributed nothing to loads either), but a file
/// that exists and cannot be read is an error — overwriting it on a transient I/O
/// error would discard every record it still holds.
fn load_or_cold<R: Records>(path: &Path, faults: &FaultPlane) -> std::io::Result<R> {
    match load(path, faults) {
        Ok(records) => Ok(records),
        Err(LoadError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(R::default()),
        Err(LoadError::Io(e)) => Err(e),
        Err(e) => {
            warn_cold::<R>(path, &e);
            Ok(R::default())
        }
    }
}

fn warn_cold<R: Records>(path: &Path, e: &LoadError) {
    eprintln!(
        "warning: ignoring {} {} ({e}); starting cold",
        R::FILE.noun,
        path.display()
    );
}

fn parse<R: Records>(text: &str) -> Result<R, LoadError> {
    let file = &R::FILE;
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(LoadError::Format {
        line: 1,
        reason: "empty file".into(),
    })?;
    match header.strip_prefix(file.magic).map(str::trim) {
        Some(version) if version == format!("v{}", file.version) => {}
        Some(version) => {
            return Err(LoadError::Version {
                found: version.to_string(),
                reads: file.version,
            })
        }
        None => {
            return Err(LoadError::Format {
                line: 1,
                reason: format!(
                    "not a {} (header {:?})",
                    file.noun,
                    header.chars().take(40).collect::<String>()
                ),
            })
        }
    }
    let mut records = R::default();
    let mut counts = vec![0usize; file.tags.len()];
    let mut trailer = false;
    for (index, line) in lines {
        let err = |reason: &str| LoadError::Format {
            line: index + 1,
            reason: reason.to_string(),
        };
        if trailer {
            return Err(err("content after the end trailer"));
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields[0] == "## end" {
            let n = counts.len();
            if fields.len() != n + 1 {
                let plural = if n == 1 { "" } else { "s" };
                return Err(err(&format!("end trailer needs {n} count{plural}")));
            }
            let claimed = fields[1..]
                .iter()
                .map(|f| f.parse::<usize>().map_err(|_| err("count")))
                .collect::<Result<Vec<_>, _>>()?;
            if claimed != counts {
                return Err(err(if n == 1 {
                    "record count disagrees with the trailer (truncated?)"
                } else {
                    "record counts disagree with the trailer (truncated?)"
                }));
            }
            trailer = true;
        } else if let Some(tag) = file.tags.iter().position(|t| *t == fields[0]) {
            records.decode(&fields).map_err(err)?;
            counts[tag] += 1;
        } else {
            return Err(err("unknown record type"));
        }
    }
    if !trailer {
        return Err(LoadError::Format {
            line: text.lines().count(),
            reason: "missing end trailer (truncated?)".into(),
        });
    }
    Ok(records)
}

/// Merge-writes `live` into the record file at `path` (see the module docs) and
/// returns how many records of the file's first tag it now holds.
///
/// The fault plane's kill points, in order: the re-read of the existing file
/// (`io`), the tmp-file creation (`io`), and the instant between tmp-file write and
/// atomic rename (`torn` — the tmp file is left behind and the previous file stays
/// in place, exactly the state a crash there would leave).
pub(crate) fn merge_write<R: Records>(
    path: &Path,
    live: R,
    faults: &FaultPlane,
) -> std::io::Result<usize> {
    let file = &R::FILE;
    let merged = R::merge(load_or_cold(path, faults)?, live);
    let mut out = format!("{} v{}\n", file.magic, file.version);
    let counts = merged.encode(&mut out);
    out.push_str("## end");
    for n in &counts {
        out.push_str(&format!("\t{n}"));
    }
    out.push('\n');

    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    // Unique temp name per process *and* per write, so two flushing processes never
    // scribble into each other's temp file; the rename is the only visible step.
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    faults.io_op(file.target, IoOp::Write)?;
    let mut tmp_file = std::fs::File::create(&tmp)?;
    tmp_file.write_all(out.as_bytes())?;
    tmp_file.sync_all()?;
    drop(tmp_file);
    // The `torn` kill point: the injected form returns the error *without* cleaning
    // up, so the torture harness observes exactly the state of a crash here.
    faults.io_op(file.target, IoOp::Rename)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    sync_parent_dir(path)?;
    Ok(counts[0])
}

/// Makes a completed rename into `path` durable: until its directory entry reaches
/// the disk, a crash can bring back the previous file (or none). Unix only: elsewhere
/// a directory cannot be opened as a file to sync it.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    if cfg!(unix) {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// The stable serialization tag of a prover (display names are presentation, not
/// format).
pub(crate) fn prover_tag(prover: ProverId) -> &'static str {
    match prover {
        ProverId::Syntactic => "syntactic",
        ProverId::Mona => "mona",
        ProverId::Smt => "smt",
        ProverId::Fol => "fol",
        ProverId::Bapa => "bapa",
        ProverId::Interactive => "interactive",
    }
}

/// Inverse of [`prover_tag`].
pub(crate) fn parse_prover(tag: &str) -> Option<ProverId> {
    Some(match tag {
        "syntactic" => ProverId::Syntactic,
        "mona" => ProverId::Mona,
        "smt" => ProverId::Smt,
        "fol" => ProverId::Fol,
        "bapa" => ProverId::Bapa,
        "interactive" => ProverId::Interactive,
        _ => return None,
    })
}

/// Escapes a string field: backslash escapes for the record separator (tab), line
/// separators and backslash itself, so canonical sequent texts survive the
/// line-oriented format byte-exactly.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a dangling or unknown escape (corrupt record).
pub(crate) fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::CostStat;
    use crate::store::StoreData;
    use jahob_logic::features::FeatureBucket;
    use std::path::PathBuf;

    /// Strict-loads a committed fixture, merge-writes it into an empty directory and
    /// returns both byte strings.
    fn rewrite_fixture<R: Records>(name: &str) -> (Vec<u8>, Vec<u8>) {
        let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .join(name);
        let records: R = load(&fixture, FaultPlane::disabled()).expect("fixture parses strictly");
        let dir = std::env::temp_dir().join(format!(
            "jahob-persist-unit-{}-fixture-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join(name);
        merge_write(&path, records, FaultPlane::disabled()).expect("write");
        let bytes = (
            std::fs::read(&fixture).unwrap(),
            std::fs::read(&path).unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    #[test]
    fn committed_fixtures_rewrite_byte_identically() {
        let (fixture, written) = rewrite_fixture::<StoreData>("proof-store.jahob");
        assert!(fixture == written, "proof-store.jahob changed on rewrite");
        let (fixture, written) =
            rewrite_fixture::<Vec<(ProverId, FeatureBucket, CostStat)>>("cost-model.jahob");
        assert!(fixture == written, "cost-model.jahob changed on rewrite");
    }
}
