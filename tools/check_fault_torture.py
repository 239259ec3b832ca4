#!/usr/bin/env python3
"""Assert a fault-injected suite run survived and never corrupted the store.

Usage: check_fault_torture.py RUN_LOG [STORE_DIR]

RUN_LOG is the stdout of `cargo run --example verify_suite` executed with a
`JAHOB_FAULTS` storm (and usually `JAHOB_CACHE_DIR`). The checks:

  * The log reaches its final "Across the suite: X of Y sequents proved
    automatically." line with Y > 0 — the process ran the whole suite to
    completion instead of dying on an injected panic or I/O error.
  * X <= Y, and the suite accounted for every sequent it claimed.
  * If STORE_DIR is given, `STORE_DIR/proof-store.jahob` and
    `STORE_DIR/cost-model.jahob` (each when it exists — a flush storm may
    legitimately have failed every write) are structurally intact: correct
    magic header, exactly one `## end` trailer whose record counts match the
    records actually present (`V`/`F` for the store, `C` for the cost model),
    no content after the trailer, and no partially written (unknown-tag)
    record lines. Torn `.tmp.*` debris next to the files is reported but
    allowed — an injected kill between tmp-write and rename leaves it there by
    design.

Exits non-zero with a diagnostic naming the violated invariant otherwise.
"""

import os
import re
import sys

SUITE_LINE = re.compile(r"Across the suite: (\d+) of (\d+) sequents proved automatically\.")


def check_log(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    m = SUITE_LINE.search(text)
    if not m:
        sys.exit(
            f"{path}: no 'Across the suite: X of Y' line — the faulted run did "
            "not survive to the suite summary"
        )
    proved, total = int(m.group(1)), int(m.group(2))
    if total == 0:
        sys.exit(f"{path}: suite reported 0 sequents")
    if proved > total:
        sys.exit(f"{path}: proved {proved} of {total} sequents (impossible)")
    print(f"faulted run OK: survived the suite, {proved}/{total} sequents proved")


def check_record_file(path: str, magic: str, tags: list) -> None:
    """Check one record file: `magic` header, records tagged only with `tags`,
    and one `## end` trailer carrying a count per tag (in `tags` order) that
    matches the records present, with nothing after it."""
    if not os.path.exists(path):
        print(f"note: {path} does not exist (every faulted flush failed); nothing to parse")
        return
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if not lines or not lines[0].startswith(magic + " v"):
        sys.exit(f"{path}: bad magic header {lines[0][:40]!r}")
    counts = [0] * len(tags)
    trailer = None
    for lineno, line in enumerate(lines[1:], start=2):
        if trailer is not None:
            if line:
                sys.exit(f"{path}:{lineno}: content after the end trailer (torn write?)")
            continue
        tag, tab, _ = line.partition("\t")
        if line.startswith("## end\t"):
            fields = line.split("\t")
            if len(fields) != len(tags) + 1:
                sys.exit(f"{path}:{lineno}: malformed trailer {line!r}")
            trailer = [int(n) for n in fields[1:]]
        elif tab and tag in tags:
            counts[tags.index(tag)] += 1
        elif line:
            sys.exit(f"{path}:{lineno}: unrecognised record {line[:40]!r} (torn write?)")
    if trailer is None:
        sys.exit(f"{path}: missing end trailer (truncated write)")
    summary = ", ".join(f"{n} {tag}" for tag, n in zip(tags, counts))
    if trailer != counts:
        claimed = ", ".join(f"{n} {tag}" for tag, n in zip(tags, trailer))
        sys.exit(f"{path}: trailer claims {claimed} records, file holds {summary}")
    print(f"{os.path.basename(path)} OK: {summary} records, trailer consistent")


def check_store(store_dir: str) -> None:
    debris = [n for n in sorted(os.listdir(store_dir)) if ".tmp." in n]
    if debris:
        print(f"note: {len(debris)} torn tmp file(s) left by kill points (allowed): {debris}")
    check_record_file(os.path.join(store_dir, "proof-store.jahob"), "jahob-proof-store", ["V", "F"])
    check_record_file(os.path.join(store_dir, "cost-model.jahob"), "jahob-cost-model", ["C"])


def main() -> None:
    if len(sys.argv) not in (2, 3):
        sys.exit(f"usage: {sys.argv[0]} RUN_LOG [STORE_DIR]")
    check_log(sys.argv[1])
    if len(sys.argv) == 3:
        check_store(sys.argv[2])


if __name__ == "__main__":
    main()
