"""Run the Tier-1 suite and compare its failing tests with the ledger.

Usage: python3 tests/check_expected_failures.py

Exits 0 when the tests that fail (or error) are exactly those listed in
tests/expected_failures.txt, and 1 otherwise, naming each unexpected failure
and each listed test that no longer fails.  After that verdict it prints
pytest's list of the ten slowest test phases (``--durations=10``), which
does not affect the exit code.  Uses only the stdlib.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "expected_failures.txt"


def read_ledger(path: Path) -> set[str]:
    lines = (line.split("#", 1)[0].strip() for line in path.read_text().splitlines())
    return {line for line in lines if line}


def failing_tests(summary: str) -> set[str]:
    """Node ids from the FAILED/ERROR lines of pytest's short summary (-rfE);
    a module that fails to import is an ERROR line naming its path alone."""
    failing = set()
    for line in summary.splitlines():
        kind, _, rest = line.partition(" ")
        node = rest.split(" - ", 1)[0]
        if kind in ("FAILED", "ERROR") and ("::" in node or node.endswith(".py")):
            failing.add(node)
    return failing


def durations_section(output: str) -> list[str]:
    """The lines of pytest's "slowest N durations" section, header included."""
    lines = output.splitlines()
    for start, line in enumerate(lines):
        if line.startswith("=") and "slowest" in line and "durations" in line:
            end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("=")),
                       len(lines))
            return lines[start:end]
    return []


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--durations=10", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout[-4000:])
        sys.stderr.write(proc.stderr[-4000:])
        print(f"pytest did not complete (exit {proc.returncode})")
        return 1
    expected = read_ledger(LEDGER)
    failing = failing_tests(proc.stdout)
    for node in sorted(failing - expected):
        print(f"unexpected failure: {node}")
    for node in sorted(expected - failing):
        print(f"listed but not failing: {node}")
    if failing == expected:
        print(f"ok: {len(failing)} failing tests, as listed in {LEDGER.relative_to(ROOT)}")
    print("\n".join(durations_section(proc.stdout)))
    return 0 if failing == expected else 1


if __name__ == "__main__":
    sys.exit(main())
