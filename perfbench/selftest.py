"""Self-test of the benchmark at tiny bounds (a few seconds).

Usage: python3 perfbench/selftest.py

1. A timed and a traced run of the smoke config (every identity at tiny
   bounds) pass their output check and emit exactly the end-to-end and
   per-layer metric names of BENCHMARK.json.  Both run with
   RAMAPOLY_MAX_LABELS=3 in the environment, which would fail the smoke
   config if it reached the children.
2. The output check rejects a wrong instance count, a changed report record,
   a missing PASS line and a non-zero exit code.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import run as bench


def main() -> int:
    failures: list[str] = []
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    (bench.OUT / "work").mkdir(parents=True, exist_ok=True)
    os.environ["RAMAPOLY_MAX_LABELS"] = "3"
    deadline = perf_counter() + bench.RUN_BUDGET_S

    timed = bench.timed_run(bench.SMOKE, bench.DEFAULT_SEED, 0, deadline)
    traced = bench.traced_run(bench.SMOKE, bench.DEFAULT_SEED, deadline)
    for label, outcome, key in (("timed", timed, "end_to_end"),
                                ("traced", traced, "per_layer")):
        problems = [p for r in outcome.runs for p in r.problems]
        if problems or outcome.failed or not outcome.attempted:
            failures.append(f"{label} smoke run failed its check: {problems[:3]}")
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: unit for name, (_, unit) in outcome.metrics.items()}
        if got != wanted:
            failures.append(f"{label} metrics differ from BENCHMARK.json {key}: "
                            f"extra {sorted(set(got) - set(wanted))}, missing "
                            f"{sorted(set(wanted) - set(got))}, units "
                            f"{sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])}")

    good = timed.runs[-1]
    bounds = bench.config_bounds(bench.SMOKE, bench.DEFAULT_SEED)
    counts, golden = bench.load_expected(bench.SMOKE)
    wrong_counts = dict(counts, **{"thm-2-3": counts["thm-2-3"] + 1})
    wrong_golden = copy.deepcopy(golden)
    wrong_golden["eq-factor"][0]["status"] = "fail"
    missing_line = "\n".join(line for line in good.stdout.splitlines()
                             if not line.startswith("PASS  cor-plane "))
    cases = {
        "correct output": (good.stdout, 0, counts, golden, False),
        "wrong instance count": (good.stdout, 0, wrong_counts, golden, True),
        "changed report record": (good.stdout, 0, counts, wrong_golden, True),
        "missing PASS line": (missing_line, 0, counts, golden, True),
        "exit code 1": (good.stdout, 1, counts, golden, True),
    }
    for case, (stdout, code, case_counts, case_golden, should_fail) in cases.items():
        probe = bench.ChildRun(args=good.args, code=code, wall_s=1.0, cpu_s=1.0,
                               peak_rss_mb=1.0, stdout=stdout, stderr="")
        bench.check_verify(probe, good.report, bounds, bench.DEFAULT_SEED, case_counts, case_golden)
        if bool(probe.problems) != should_fail:
            failures.append(f"output check on {case}: problems {probe.problems}")

    bare = bench.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(bench.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {'ok' if not failures else f'{len(failures)} failures'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
