"""Compare two ``verify --report`` files with each record's timing dropped.

Usage: python3 tests/same_records.py REPORT_A REPORT_B

Exits 0 when the two files hold the same records in the same order once the
``seconds`` field is removed from each, and 1 otherwise, naming the first
record that differs.  A serial run, which re-reads the enumerations that
identities share, a ``--jobs 2`` run, whose workers each keep their own, and
one run of each identity alone, which shares nothing, must agree.  Uses only
the stdlib.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def records(path: Path) -> list[dict]:
    out = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("seconds", None)
        out.append(record)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: same_records.py REPORT_A REPORT_B", file=sys.stderr)
        return 2
    a, b = (records(Path(p)) for p in argv)
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            print(f"record {i + 1} differs:\n  {json.dumps(x, sort_keys=True)}\n"
                  f"  {json.dumps(y, sort_keys=True)}")
            return 1
    if len(a) != len(b):
        print(f"{argv[0]} has {len(a)} records, {argv[1]} has {len(b)}")
        return 1
    print(f"same records: {len(a)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
