"""The forest streams, the references that ``forests.degree_census`` and
``forests.forest_generating_poly`` are checked against.

Usage: PYTHONPATH=src python3 tests/stream_forests.py N [N ...]

``stream_degree_census`` counts every plane forest on [n] that
``forests.plane_forests`` streams by ``ordered_degree_sequence``, and
``stream_generating_poly`` sums t^eld per improper count over every forest
that ``forests.fixed_root_forests`` streams.  The script exits 0 when, for
each N given, ``degree_census(N)`` equals the stream census and
``forest_generating_poly(N, r)`` equals the stream sum for every r from 1 to
min(3, N - 1), the r that ``thm-5-1`` checks by default, and 1 otherwise,
naming the first that differs.  At N = 7 the degree census streams 2,162,160
forests.  Uses only the stdlib and ramapoly.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import repeat
from typing import Sequence

from ramapoly.forests import (T_VARS, degree_census, fixed_root_forests,
                              forest_generating_poly, plane_forests)
from ramapoly.polyring import Poly
from ramapoly.treecore import PlaneTree


def ordered_degree_sequence(forest: Sequence[PlaneTree], n: int) -> tuple[int, ...]:
    """The number of children of each label 1..n of a forest on [n]."""
    degs = [0] * n
    stack = list(forest)
    while stack:
        v = stack.pop()
        degs[v.label - 1] = len(v.children)
        stack.extend(v.children)
    return tuple(degs)


def stream_degree_census(n: int) -> Counter:
    """The streamed plane forests on [n] counted by ordered degree sequence."""
    return Counter(map(ordered_degree_sequence, plane_forests(range(1, n + 1)), repeat(n)))


def stream_generating_poly(n: int, r: int) -> dict[int, Poly]:
    """For each improper count k: the sum of t^eld over the streamed F^r_{n,k}."""
    census: dict[int, dict[tuple[int], int]] = {}
    for forest in fixed_root_forests(n, r):
        imp = eld = 0
        for c in forest:
            imp += c.imp_sub
            eld += c.eld_sub
        cells = census.setdefault(imp, {})
        cells[eld,] = cells.get((eld,), 0) + 1
    return {k: Poly(T_VARS, cells) for k, cells in sorted(census.items())}


def main(argv: list[str]) -> int:
    if not argv or not all(arg.isdecimal() for arg in argv):
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    for n in map(int, argv):
        want = stream_degree_census(n)
        if degree_census(n) != want:
            print(f"degree_census({n}) differs from the stream census")
            return 1
        print(f"degree_census({n}): {len(want)} sequences, {sum(want.values())} forests,"
              " as the stream")
        for r in range(1, min(3, n - 1) + 1):
            if forest_generating_poly(n, r) != stream_generating_poly(n, r):
                print(f"forest_generating_poly({n}, {r}) differs from the stream sum")
                return 1
            print(f"forest_generating_poly({n}, {r}): as the stream")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
