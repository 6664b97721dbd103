"""The permutation stream, the reference that ``treecore.gdes_census`` is checked against.

Usage: PYTHONPATH=src python3 tests/stream_perms.py N [N ...]

``gdes`` counts the general descents of one word, and ``stream_gdes``
counts every permutation of [n] by ``gdes``.  The script exits 0 when, for
each N given and every n from 0 to N, ``gdes_census(n)`` equals the stream
census as an ordered list of items (ascending gdes), and 1 otherwise,
naming the first n that differs.  At N = 9 the stream counts 362,880
permutations of [9].  Uses only the stdlib and ramapoly.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import permutations
from math import inf
from typing import Sequence

from ramapoly.treecore import gdes_census


def gdes(word: Sequence[int]) -> int:
    """Number of positions with a smaller entry somewhere to the right, in
    one right-to-left pass with a running minimum."""
    if len(set(word)) != len(word):
        raise ValueError("entries must be distinct")
    count, low = 0, inf
    for entry in reversed(word):
        if entry > low:
            count += 1
        else:
            low = entry
    return count


def stream_gdes(n: int) -> Counter:
    """The permutations of [n] counted by ``gdes``, keys in stream order."""
    return Counter(map(gdes, permutations(range(1, n + 1))))


def main(argv: list[str]) -> int:
    if not argv or not all(arg.isdecimal() for arg in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for top in map(int, argv):
        for n in range(top + 1):
            want = sorted(stream_gdes(n).items())
            if list(gdes_census(n).items()) != want:
                print(f"gdes_census({n}) differs from the stream census")
                return 1
        print(f"gdes_census(n) for n <= {top}: as the stream")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
