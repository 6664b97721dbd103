"""Regenerate expected/counts.json and the expected/<cfg>.jsonl goldens.

Usage: python3 perfbench/make_expected.py

Runs each workload config (and the smoke config) once at the default seed
and records its per-identity instance counts and its --report records with
``seconds`` dropped.  Run it only when a change is meant to alter what the
verifier checks (its bounds or its instances), and review the diff: the
benchmark's output check compares every run against these files.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run as bench


def main() -> int:
    (bench.OUT / "work").mkdir(parents=True, exist_ok=True)
    counts = {}
    for name in (*bench.WORKLOADS, bench.SMOKE):
        bounds = bench.config_bounds(name, bench.DEFAULT_SEED)
        child = bench.run_verify(bounds, name, perf_counter() + 600)
        if child.code != 0:
            print(f"{name}: exit code {child.code}\n{child.stdout}{child.stderr}",
                  file=sys.stderr)
            return 1
        records = bench.normalized_records(child.report)
        counts[name] = {identity: sum(1 for r in records[identity] if "summary" not in r)
                        for identity in bounds}
        lines = [json.dumps(r, sort_keys=True) for identity in bounds
                 for r in records[identity]]
        (bench.HERE / "expected" / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
        print(f"{name}: {sum(counts[name].values())} instances")
    (bench.HERE / "expected" / "counts.json").write_text(
        json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
