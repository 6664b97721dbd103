"""Benchmark of ``ramapoly verify``: one workload, timed or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload census|structure|symbolic
                             [--seed N] [--seconds S] [--trace 0|1]

The benchmark drives the real CLI as a child process, one run after another
with ``--jobs 1`` (a closed loop with one client).  Each workload is a set of
registry identities with its bounds in ``perfbench/workloads/<name>.cfg``;
that file is the only source of bounds (``RAMAPOLY_*`` variables are removed
from the child's environment), and ``--seed`` becomes ``lemma-4-2.seed``.

The benchmark and its children run pinned to one CPU.  After one warm-up
``verify --list`` (which also byte-compiles the package), ``--trace 0`` times
``verify --list`` several times (set-up), then repeats the workload as often
as fits in ``--seconds`` (at least MIN_SAMPLES times) and reports the medians
of wall clock, child CPU time and child peak RSS.  Times are scaled to a
reference host speed measured while each child runs (see ``SpeedProbe``).
``--trace 1`` runs the workload under ``perfbench/tracer.py`` between two
untraced runs, plus the rest of the registry at the smoke bounds under the
tracer, and reports per-layer self times and counts.

Every child's output is checked: exit code 0, a PASS summary line per
identity, instance counts equal to ``expected/counts.json``, and the
``--report`` records (``seconds`` dropped) equal to ``expected/<cfg>.jsonl``
(records of an identity that takes a seed only at the default seed).  A child
that fails the check counts all its instances as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with a provenance
header goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("census", "structure", "symbolic")
SMOKE = "smoke"
DEFAULT_SEED = 20260811      # the registry's lemma-4-2.seed
SETUP_REPEATS = 7            # measured `verify --list` runs, after one warm-up
MIN_SAMPLES = 3              # workload runs per timed run, even past --seconds
RUN_BUDGET_S = 170           # every child is killed past this point of the run
ENTRY = "import sys; from ramapoly.cli import main; sys.exit(main())"
PROBE_EVERY_S = 0.2          # host-speed probe period while a child runs
PROBE_REF_S = 0.003          # CPU time of one probe at the reference host speed
# The probe's operands: two bivariate polynomials, exponent tuple -> coefficient.
PROBE_A = {(i, j): i + j for i in range(12) for j in range(12)}
PROBE_B = {(i, j): i * j + 1 for i in range(8) for j in range(8)}

SUMMARY_LINE = re.compile(
    r"^(\S+)\s+(\S+)\s+(\d+) pass\s+(\d+) fail\s+(\d+) skipped\s+[0-9.]+s$")
PARAM_TOKEN = re.compile(r"^([A-Za-z_]\w*)=-?\d+$")

# Per-layer metrics: self time of a span, number of calls of a span, counters.
SELF_TIME_SPANS = (
    "treecore.trees", "treecore.weight_census", "treecore.generating_poly",
    "treecore.increasing", "treecore.leaf_profile",
    "halfmobile.theta", "halfmobile.hm_stats", "halfmobile.enumerate_hm",
    "polyring.mul", "polyring.substitute",
    "qpolys.q_n", "qpolys.q_nk", "qpolys.verify_identity",
    "forests.fixed_root_forests", "forests.plane_forests",
    "bijections.ij_class", "bijections.i_class", "bijections.contract",
)
CALL_COUNTS = {
    "halfmobile.theta_calls": "halfmobile.theta",
    "polyring.mul_calls": "polyring.mul",
    "polyring.substitute_calls": "polyring.substitute",
    "qpolys.q_nk_calls": "qpolys.q_nk",
}
COUNTERS = ("treecore.trees_streamed", "treecore.nodes_built",
            "polyring.poly_built", "forests.forests_streamed")


# -- workload configuration ------------------------------------------------------


Bounds = dict[str, dict[str, int]]


def read_cfg(path: Path) -> Bounds:
    """identity.param=value lines, in file order; '#' starts a comment."""
    bounds: Bounds = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        identity, _, param = key.strip().rpartition(".")
        bounds.setdefault(identity, {})[param] = int(value)
    return bounds


def write_cfg(bounds: Bounds, path: Path) -> None:
    path.write_text("".join(f"{identity}.{param}={value}\n"
                            for identity, params in bounds.items()
                            for param, value in params.items()))


def config_bounds(name: str, seed: int) -> Bounds:
    """The bounds of a workload config with every ``seed`` set to --seed."""
    bounds = read_cfg(HERE / "workloads" / f"{name}.cfg")
    for params in bounds.values():
        if "seed" in params:
            params["seed"] = seed
    return bounds


def load_expected(name: str) -> tuple[dict[str, int], dict[str, list]]:
    counts = json.loads((HERE / "expected" / "counts.json").read_text())[name]
    golden: dict[str, list] = {}
    for line in (HERE / "expected" / f"{name}.jsonl").read_text().splitlines():
        record = json.loads(line)
        golden.setdefault(record["identity"], []).append(record)
    return counts, golden


# -- host-speed probe ------------------------------------------------------------


def probe_once() -> float:
    """CPU seconds, on this thread, of the product PROBE_A * PROBE_B."""
    start = thread_time()
    product: dict[tuple[int, int], int] = {}
    for (i, j), x in PROBE_A.items():
        for (k, l), y in PROBE_B.items():
            key = (i + k, j + l)
            product[key] = product.get(key, 0) + x * y
    return thread_time() - start


class SpeedProbe:
    """Measures how fast the host runs Python while one child runs.

    The vCPUs of a shared host slow down by up to 2x over seconds to minutes
    as other tenants load it, and a child's wall and CPU time slow with them.
    The probe runs ``probe_once`` before the child, every PROBE_EVERY_S on a
    thread of this process while it runs (on the same CPU, as both are
    pinned; about 1 % of it), and after it.  It is timed in thread CPU time,
    so the time it waits for the child does not count.  Its work is of the
    child's kind (dict lookups on tuple keys, small-int arithmetic), and on
    all three workloads the log of a child's time rose with slope 1.0 +- 0.05
    against the log of the probe's.  ``slowdown`` is the probe's mean time
    over PROBE_REF_S: a child's time divided by it is the time it would take
    at the reference speed.  The probe is the benchmark's own code, so a
    change to the program does not move it.
    """

    def __init__(self) -> None:
        self.samples = [probe_once()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self.samples.append(probe_once())

    def finish(self) -> float:
        self._stop.set()
        self._thread.join()
        self.samples.append(probe_once())
        return statistics.fmean(self.samples) / PROBE_REF_S


# -- child processes -------------------------------------------------------------


@dataclass
class ChildRun:
    args: list[str]
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    report: Path | None = None
    problems: list[str] = field(default_factory=list)
    slowdown: float = 1.0        # host slowdown while it ran (SpeedProbe)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RAMAPOLY_")}
    env["PYTHONPATH"] = str(SRC)
    # Byte-compile once (the warm-up run) and import from the cache, as an
    # installed package does, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], tag: str, deadline: float,
              trace_path: Path | None = None) -> ChildRun:
    """Run the CLI (or the tracer around it) to completion; rusage from wait4,
    host speed from a SpeedProbe around and during the run."""
    if trace_path is None:
        argv = [sys.executable, "-c", ENTRY, *args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *args]
    out_path, err_path = OUT / "work" / f"{tag}.out", OUT / "work" / f"{tag}.err"
    speed = SpeedProbe()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
            slowdown = speed.finish()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(args=args, code=proc.returncode, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024.0,
                    stdout=out_path.read_text(), stderr=err_path.read_text(),
                    slowdown=slowdown)


def check_listing(run: ChildRun, bounds: Bounds) -> None:
    """`verify --list` must list each identity with exactly the params we set."""
    if run.code != 0:
        run.problems.append(f"exit code {run.code}")
        return
    listed: dict[str, set[str]] = {}
    for line in run.stdout.splitlines():
        if not line.strip():
            continue
        name, *tokens = line.split()
        params = set()
        for token in tokens:
            match = PARAM_TOKEN.match(token)
            if not match:
                break
            params.add(match[1])
        listed[name] = params
    for identity, params in bounds.items():
        if listed.get(identity) != set(params):
            run.problems.append(f"{identity} has params "
                                f"{sorted(listed.get(identity, ()))}, config sets "
                                f"{sorted(params)}")


def normalized_records(path: Path) -> dict[str, list]:
    records: dict[str, list] = {}
    if not path.exists():
        return records
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("seconds", None)
        records.setdefault(record.get("identity"), []).append(record)
    return records


def check_verify(run: ChildRun, report: Path, bounds: Bounds, seed: int,
                 counts: dict[str, int], golden: dict[str, list]) -> None:
    problems = run.problems
    if run.code != 0:
        problems.append(f"exit code {run.code}")
    summaries = {}
    for line in run.stdout.splitlines():
        match = SUMMARY_LINE.match(line)
        if match:
            summaries[match[2]] = match
    if set(summaries) != set(bounds):
        problems.append(f"summary lines for {sorted(summaries)}, expected {sorted(bounds)}")
    lines = run.stdout.splitlines()
    if not lines or lines[-1] != f"overall: pass ({len(bounds)} identities)":
        problems.append("no 'overall: pass' line")
    records = normalized_records(report)
    for identity, params in bounds.items():
        match = summaries.get(identity)
        expected = counts[identity]
        if match is None or match[1] != "PASS":
            problems.append(f"{identity}: no PASS summary line")
        elif (int(match[3]), int(match[4]), int(match[5])) != (expected, 0, 0):
            problems.append(f"{identity}: {match[3]} pass {match[4]} fail {match[5]} "
                            f"skipped, expected {expected} pass")
        got = records.get(identity, [])
        instances = sum(1 for r in got if "summary" not in r)
        if instances != expected:
            problems.append(f"{identity}: {instances} report records, expected {expected}")
        elif ("seed" not in params or seed == DEFAULT_SEED) and got != golden[identity]:
            problems.append(f"{identity}: report records differ from the golden")


def run_verify(bounds: Bounds, tag: str, deadline: float,
               trace_path: Path | None = None) -> ChildRun:
    """`verify` on exactly these identities, with these bounds as its config."""
    cfg = OUT / "work" / f"{tag}.cfg"
    report = OUT / "work" / f"{tag}.jsonl"
    write_cfg(bounds, cfg)
    report.unlink(missing_ok=True)      # --report appends
    run = run_child(["verify", "--identity", ",".join(bounds), "--config", str(cfg),
                     "--jobs", "1", "--report", str(report)], tag, deadline, trace_path)
    run.report = report
    return run


def verify_child(bounds: Bounds, seed: int, tag: str, deadline: float,
                 expected: tuple[dict[str, int], dict[str, list]],
                 trace_path: Path | None = None) -> ChildRun:
    run = run_verify(bounds, tag, deadline, trace_path)
    check_verify(run, run.report, bounds, seed, *expected)
    return run


# -- timed and traced runs -------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    runs: list[ChildRun]
    samples: dict[str, int]
    attempted: int = 0
    failed: int = 0


def expected_instances(expected: tuple[dict[str, int], dict[str, list]],
                       bounds: Bounds) -> int:
    return sum(expected[0][identity] for identity in bounds)


def tally(outcome: Outcome, run: ChildRun, instances: int) -> None:
    outcome.runs.append(run)
    outcome.attempted += instances
    if run.problems:
        outcome.failed += instances


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> Outcome:
    bounds = config_bounds(workload, seed)
    expected = load_expected(workload)
    instances = expected_instances(expected, bounds)
    listings = []
    for i in range(SETUP_REPEATS):
        listing = run_child(["verify", "--list"], f"list-{i}", deadline)
        check_listing(listing, bounds)
        listings.append(listing)
    samples: list[ChildRun] = []
    start = perf_counter()
    while True:
        samples.append(verify_child(bounds, seed, f"{workload}-{len(samples)}",
                                    deadline, expected))
        now = perf_counter()
        next_end = now + (now - start) / len(samples)   # if one more sample ran
        if next_end > deadline or (len(samples) >= MIN_SAMPLES and next_end - start > seconds):
            break
    outcome = Outcome(
        metrics={
            "wall_s": (statistics.median(r.wall_s / r.slowdown for r in samples), "s"),
            "cpu_s": (statistics.median(r.cpu_s / r.slowdown for r in samples), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in samples), "MB"),
            "setup_s": (statistics.median(r.wall_s / r.slowdown for r in listings), "s"),
        },
        runs=list(listings),
        samples={"wall_s": len(samples), "cpu_s": len(samples),
                 "peak_rss_mb": len(samples), "setup_s": len(listings)})
    for run in samples:
        tally(outcome, run, instances)
    if any(r.problems for r in listings):
        outcome.failed = outcome.attempted
    return outcome


def layer_metrics(traces: list[dict], traced: ChildRun, untraced_s: float,
                  identities: list[str]) -> dict[str, tuple[float, str]]:
    totals: dict[str, list] = {}
    counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
    identity_s: dict[str, float] = dict.fromkeys(identities, 0.0)
    for trace in traces:
        for names in trace["totals"].values():
            for name, total in names.items():
                acc = totals.setdefault(name, [0, 0.0])
                acc[0] += total["count"]
                acc[1] += total["self_s"]
        for name in COUNTERS:
            counters[name] += trace["counters"].get(name, 0)
        for span in trace["spans"]:
            if span["name"] == "harness.run_identity":
                identity_s[span["identity"]] += span["end"] - span["start"]
    metrics: dict[str, tuple[float, str]] = {}
    for identity in identities:
        metrics[f"harness.identity_s.{identity}"] = (identity_s[identity], "s")
    for name in SELF_TIME_SPANS:
        metrics[f"{name}_s"] = (totals.get(name, [0, 0.0])[1], "s")
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = (totals.get(name, [0, 0.0])[0], "count")
    for name in COUNTERS:
        metrics[name] = (counters[name], "count")
    trees_s = metrics["treecore.trees_s"][0]
    metrics["treecore.trees_per_s"] = (
        counters["treecore.trees_streamed"] / trees_s if trees_s else 0.0, "1/s")
    suite = [s for s in traces[0]["spans"] if s["name"] == "harness.run_suite"]
    suite_s = sum(s["end"] - s["start"] for s in suite)
    metrics["cli.overhead_s"] = (traced.wall_s - suite_s, "s")
    metrics["tracing_overhead_s"] = (traced.wall_s - untraced_s, "s")
    return metrics


def traced_run(workload: str, seed: int, deadline: float) -> Outcome:
    """The workload untraced, traced, untraced again (the two bracket the
    traced run against drift), then the rest of the registry traced at the
    smoke bounds (so no layer or identity reads a constant 0)."""
    bounds, expected = config_bounds(workload, seed), load_expected(workload)
    smoke = config_bounds(SMOKE, seed)
    rest = {identity: params for identity, params in smoke.items() if identity not in bounds}
    outcome = Outcome(metrics={}, runs=[], samples={"untraced": 2, "traced": 1 + bool(rest)})

    def untraced(tag: str) -> float:
        run = verify_child(bounds, seed, tag, deadline, expected)
        tally(outcome, run, expected_instances(expected, bounds))
        return run.wall_s

    def traced(tag: str, part: Bounds, part_expected) -> tuple[ChildRun, dict]:
        path = OUT / "work" / f"{tag}-trace.json"
        path.unlink(missing_ok=True)
        run = verify_child(part, seed, f"{tag}-traced", deadline, part_expected, path)
        tally(outcome, run, expected_instances(part_expected, part))
        if not path.exists():
            raise RuntimeError(f"the tracer wrote no {path.name}: {run.stderr[-500:]}")
        return run, json.loads(path.read_text())

    before = untraced(f"{workload}-untraced")
    run, trace = traced(workload, bounds, expected)
    after = untraced(f"{workload}-untraced-after")
    traces = [trace]
    if rest:
        traces.append(traced(f"{workload}-rest", rest, load_expected(SMOKE))[1])
    outcome.metrics = layer_metrics(traces, run, statistics.median((before, after)),
                                    list(smoke))
    return outcome


# -- provenance and output -------------------------------------------------------


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=30,
                               check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(dirty)


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ramapoly").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, samples: dict[str, int]) -> dict:
    sha, dirty = git_state()
    return {
        "git_sha": sha, "git_dirty": dirty, "source_sha256": source_digest(),
        "python": sys.version.split()[0], "implementation": platform.python_implementation(),
        "platform": platform.platform(), "cpu_count": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": 1, "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "probe": {"every_s": PROBE_EVERY_S, "ref_s": PROBE_REF_S},
        "bounds": config_bounds(args.workload, args.seed),
        "smoke_bounds": config_bounds(SMOKE, args.seed) if args.trace else None,
        "samples": samples,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ramapoly" / "cli.py").is_file():
        print(f"error: no ramapoly sources under {SRC}", file=sys.stderr)
        return 2
    # A plain exit on SIGTERM, so that run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = perf_counter() + RUN_BUDGET_S
    # One CPU for the benchmark and its children (which inherit it), so that
    # the speed probe measures the CPU the child runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    run_child(["verify", "--list"], "list-warmup", deadline)
    if args.trace:
        outcome = traced_run(args.workload, args.seed, deadline)
    else:
        outcome = timed_run(args.workload, args.seed, args.seconds, deadline)
    problems = [f"{' '.join(r.args[:2])}: {p}" for r in outcome.runs for p in r.problems]
    correct = not problems and outcome.failed == 0
    results = {
        "provenance": provenance(args, outcome.samples),
        "correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
        "fail_ratio": outcome.failed / max(outcome.attempted, 1),
        "problems": problems,
        "runs": [{"args": r.args, "code": r.code, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                  "peak_rss_mb": r.peak_rss_mb, "slowdown": r.slowdown}
                 for r in outcome.runs],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"{args.workload}: {outcome.samples} samples, fail_ratio "
          f"{results['fail_ratio']}, results in .bench_out/results/{name}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": results["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
