#!/usr/bin/env python3
"""Assert a short benchmark run reached correct verdicts on every pass.

Usage: check_bench_verdict.py RUN_LOG...

Each RUN_LOG is the stdout of one benchmark run
(`cargo run --release --manifest-path benchmark/Cargo.toml -- --workload W ...`),
whose last line is one JSON object
`{"correct", "attempted", "failed", "metrics": {...}}`. The run passes when
`correct` is true, `failed` is 0 and at least one pass was attempted; a key or
verdict regression (a pass that misses the disk hits it must see, or proves a
different set of obligations) fails here instead of in a later benchmark
comparison. Exits non-zero, naming the offending log, otherwise.
"""

import json
import sys


def check(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        sys.exit(f"{path}: empty benchmark log")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: last line is not JSON ({e})")
    correct = result.get("correct")
    failed = result.get("failed")
    attempted = result.get("attempted")
    if correct is not True or failed != 0 or not attempted:
        sys.exit(
            f"{path}: correct={correct} failed={failed} attempted={attempted}"
            f" (expected correct=true, failed=0, attempted>0)"
        )
    print(f"ok: {path}: {attempted} attempted, all correct")


def main() -> None:
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for path in sys.argv[1:]:
        check(path)


if __name__ == "__main__":
    main()
