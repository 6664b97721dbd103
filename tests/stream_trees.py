"""The plane-tree streams, the references that ``treecore.rooted_generating_poly``,
``harness._leaf_statistics`` and ``treecore.count_increasing_trees`` are checked against.

Usage: PYTHONPATH=src python3 tests/stream_trees.py N [N ...]

``treecore.generating_poly(n, n)`` sums t^eld * prod_i x_i^young(i) over the
streamed trees on [n] rooted at n, ``treecore.leaf_profile(n)`` counts the
trees on [n] by leaf count over the streamed forests on [n - 1], and
``stream_leaf_sets(n)`` counts by k the trees on [n] whose leaf set is exactly
{1, ..., k}, over the same forests.  The script exits 0 when, for each N
given, ``rooted_generating_poly(N)`` equals ``generating_poly(N, N)`` and
``harness._leaf_statistics(N)``, which reads the degree census of the forests
on [N - 1] (``forests.degree_census(N - 1)``), equals the streamed profile and
leaf sets, and ``count_increasing_trees(N, plane)`` equals the number of trees
that ``increasing_plane_trees(N)`` (plane) and ``increasing_rooted_trees(N)``
stream, and 1 otherwise, naming the first that differs.  At N = 8 each of the first three streams reads the 2,162,160 forests
on [7], and the increasing streams yield 135,135 and 5,040 trees.  Uses only
the stdlib and ramapoly.
"""

from __future__ import annotations

import sys
from collections import Counter

from ramapoly.harness import _leaf_statistics
from ramapoly.treecore import (PlaneTree, TreeEnumerator, count_increasing_trees,
                               generating_poly, increasing_plane_trees,
                               increasing_rooted_trees, leaf_profile, rooted_generating_poly)


def _leaves_within(forest: tuple[PlaneTree, ...], k: int) -> bool:
    """Whether no leaf of the forest's trees has a label above k."""
    stack = list(forest)
    while stack:
        v = stack.pop()
        if v.children:
            stack.extend(v.children)
        elif v.label > k:
            return False
    return True


def stream_leaf_sets(m: int, enumerator: TreeEnumerator | None = None) -> Counter[int]:
    """By k, the trees on [m] whose leaf set is exactly {1, ..., k}.

    Such a tree has k distinct leaves, none above k, and its root above k.
    Relabeled in order, its forest is a forest on [m - 1] with that same leaf
    set, and exactly the m - k roots above k carry it.  The empty forest under
    the one vertex of [1] counts at k = 0."""
    enum = enumerator or TreeEnumerator()
    enum.check_bound(range(1, m + 1))
    exact: Counter[int] = Counter()
    for forest in enum.forests(frozenset(range(1, m))):
        leaves = sum([c.leaf_count for c in forest])
        if _leaves_within(forest, leaves):
            exact[leaves] += m - leaves
    return exact


def main(argv: list[str]) -> int:
    if not argv or not all(arg.isdecimal() and int(arg) >= 1 for arg in argv):
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    for n in map(int, argv):
        want = generating_poly(n, n)
        if rooted_generating_poly(n) != want:
            print(f"rooted_generating_poly({n}) differs from the stream sum")
            return 1
        print(f"rooted_generating_poly({n}): {len(want.terms)} terms, as the stream")
        profile, exact = _leaf_statistics(n)
        if profile != leaf_profile(n):
            print(f"the leaf profile of _leaf_statistics({n}) differs from leaf_profile({n})")
            return 1
        if exact != stream_leaf_sets(n):
            print(f"the exact leaf sets of _leaf_statistics({n}) differ from the stream")
            return 1
        print(f"_leaf_statistics({n}): {len(profile)} leaf counts, {len(exact)} exact leaf sets,"
              " as the streams")
        for plane, stream in ((True, increasing_plane_trees), (False, increasing_rooted_trees)):
            count = count_increasing_trees(n, plane)
            if count != sum(1 for _ in stream(n)):
                print(f"count_increasing_trees({n}, plane={plane}) differs from the stream")
                return 1
            print(f"count_increasing_trees({n}, plane={plane}): {count} trees, as the stream")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
