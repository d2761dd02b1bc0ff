#!/usr/bin/env python3
"""Compare a bench_smoke report against its recorded baseline.

Usage:
    smoke_diff.py <baseline.json> <current.json>

bench_smoke runs the full pipeline (k-member baseline, coloring,
suppression) on one pinned input at several pool widths. Every run of
the current report must match the baseline's first run exactly on:

* output_fnv1a, the hash of the published relation's bytes;
* every deterministic counter. The pool.* counters describe how loops
  were scheduled and vary with width and timing, so they are skipped.
  Zero-valued counters are skipped on both sides: a counter delta lists
  a zero cell only when something earlier in the process registered it.

The report's own cross-width flag and the deadline and tracing legs'
output_identical flags must be true as well.

Exit code 0 = match, 1 = drift, 2 = usage/format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"smoke_diff: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict) or not data.get("runs"):
        print(f"smoke_diff: {path}: no runs", file=sys.stderr)
        sys.exit(2)
    return data


def deterministic(counters: dict) -> dict:
    """Counters that are a pure function of the input and options."""
    return {name: value for name, value in counters.items()
            if not name.startswith("pool.") and value != 0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    args = parser.parse_args()

    pinned = load(args.baseline)["runs"][0]
    current = load(args.current)
    want_hash = pinned["output_fnv1a"]
    want = deterministic(pinned["counters"])

    failures = []
    for run in current["runs"]:
        width = run.get("threads")
        if run["output_fnv1a"] != want_hash:
            failures.append(f"threads={width}: output_fnv1a "
                            f"{run['output_fnv1a']} != {want_hash}")
        got = deterministic(run["counters"])
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                failures.append(f"threads={width}: {name} "
                                f"{got.get(name)} != {want.get(name)}")
    if not current.get("deterministic_across_threads"):
        failures.append("deterministic_across_threads is false")
    for leg in ("deadline_overhead", "tracing_overhead"):
        if leg in current and not current[leg].get("output_identical"):
            failures.append(f"{leg}: output_identical is false")

    for failure in failures:
        print(f"smoke_diff: FAIL {failure}")
    widths = ",".join(str(run.get("threads")) for run in current["runs"])
    if failures:
        return 1
    print(f"smoke_diff: OK output_fnv1a={want_hash} and {len(want)} "
          f"counters match at threads {widths}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
