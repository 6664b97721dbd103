"""Forests: fixed-root plane forests, planted-forest counting formulas, and
plane forests by degree sequence or type.

A *plane forest* on a label set is an ordered sequence of plane trees whose
label sets partition it (components linearly ordered).  The fixed-root
family F^r_n holds forests of exactly r plane trees on [n] whose component
roots are 1..r (components indexed by root, order immaterial).  Statistics
sum over components.

Counting formulas:

* planted forests on [n] with ordered degree sequence d (sum d_i = n - k):
  C(n-1, k-1) * (n-k)! / prod(d_i!)
* planted forests of type r = (r_0, ..., r_m): C(n-1, k-1) *
  (n-k)!/prod(i!^r_i) * n!/prod(r_i!)
* unlabeled plane forests of type r: (k/n) * n!/prod(r_i!)

The two censuses build no forest.  ``forest_generating_poly`` reads F^r_n
off the root-1 weight censuses of its component sizes (each component is
rooted at its smallest label), and ``degree_census`` reads the plane
forests on [n] by ordered degree sequence off ``treecore.young_census``, a
DP over label subsets.  The streams they are checked against stay:
``fixed_root_forests`` yields each forest as the tuple of its components,
picking one tree per component recursively (a component too large for the
enumerator's memo is streamed anew per choice of the components before
it), and ``plane_forests`` yields the enumerator's ordered forests.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import comb, factorial
from typing import Callable, Iterator, Mapping, Sequence

from .polyring import Poly, poly_prod
from .treecore import (PlaneTree, TreeEnumerator, check_label_count, weight_census,
                       young_census)

T_VARS = ("t",)
_IMP_T_VARS = ("u", "t")  # u marks an improper edge


def fixed_root_forests(n: int, r: int) -> Iterator[tuple[PlaneTree, ...]]:
    """Every forest of r plane trees on [n] with roots exactly 1..r, once, as
    its tuple of components (component i is rooted at i+1).

    Free labels r+1..n are assigned to components in all ways; within a
    component the plane trees on its label set are enumerated with the
    fixed root.  Per assignment the forests are the Cartesian product of
    the components' trees, component 1 outermost (see :func:`_choices`).
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    enum = TreeEnumerator()
    free = list(range(r + 1, n + 1))
    enum.check_bound(range(1, n + 1))
    for assignment in product(range(r), repeat=len(free)):
        bins = [(frozenset([b + 1, *(lab for lab, slot in zip(free, assignment) if slot == b)]),
                 b + 1) for b in range(r)]
        yield from _choices(enum, bins)


def _choices(enum: TreeEnumerator,
             bins: Sequence[tuple[frozenset[int], int]]) -> Iterator[tuple[PlaneTree, ...]]:
    """One tree per (label set, root) bin, every way, the first bin outermost;
    a bin is asked for anew per choice of the bins before it, so a bin that
    ``trees_rooted`` streams (over MEMO_LIMIT labels) is never held whole."""
    (labels, root), rest = bins[0], bins[1:]
    if not rest:
        return zip(enum.trees_rooted(labels, root))
    return ((tree,) + tail for tree in enum.trees_rooted(labels, root)
            for tail in _choices(enum, rest))


def forest_generating_poly(n: int, r: int,
                           census: Callable[[int], Mapping] | None = None) -> dict[int, Poly]:
    """For each improper count k: the sum of t^eld over F^r_{n,k}.

    No forest is built.  Every free label is above r, so each component is
    rooted at its smallest label: relabeled in order it is a tree on [size]
    rooted at 1, with the same improper and elder counts.  So each assignment
    of the free labels, looped as ``fixed_root_forests`` loops them, adds the
    product of its components' root-1 censuses by (imp, eld), which
    ``census(size)`` gives ({imp: {(young(1), eld): count}}, default
    ``treecore.weight_census(size, 1)``).  The label cap is checked on [n] first.
    """
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}, n={n}")
    check_label_count(n)
    read = census or (lambda size: weight_census(size, 1))
    by_size = {}
    for size in range(1, n - r + 2):
        terms: dict[tuple[int, int], int] = {}
        for imp, cells in read(size).items():
            for (_, eld), count in cells.items():
                terms[imp, eld] = terms.get((imp, eld), 0) + count
        by_size[size] = Poly(_IMP_T_VARS, terms)
    # an assignment's product depends only on its component sizes
    shapes = Counter(tuple(1 + assignment.count(b) for b in range(r))
                     for assignment in product(range(r), repeat=n - r))
    total = Poly.zero(_IMP_T_VARS)
    for shape, ways in shapes.items():
        total = total + poly_prod([by_size[size] for size in shape], _IMP_T_VARS) * ways
    cells: dict[int, dict[tuple[int], int]] = {}
    for (imp, eld), count in total.terms.items():
        cells.setdefault(imp, {})[eld,] = count
    return {k: Poly(T_VARS, cells[k]) for k in sorted(cells)}


def plane_forests(labels: Sequence[int]) -> Iterator[tuple[PlaneTree, ...]]:
    """Ordered forests of plane trees partitioning the label set."""
    enum = TreeEnumerator()
    yield from enum.forests(enum.check_bound(labels))


def degree_census(n: int) -> Counter[tuple[int, ...]]:
    """The plane forests on [n] counted by ordered degree sequence (entry i
    the number of children of label i + 1), the first n fields of
    ``treecore.young_census(n, elder=False)``, which builds no forest and
    counts every child and every component as young.  The label cap is
    checked on [n] first.
    """
    check_label_count(n)
    return Counter({key[:n]: count for key, count in young_census(n, elder=False).items()})


# -- counting formulas --------------------------------------------------------


def multinomial(n: int, parts: Sequence[int]) -> int:
    if any(p < 0 for p in parts) or sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    result = factorial(n)
    for p in parts:
        result //= factorial(p)
    return result


def planted_count(degrees: Sequence[int]) -> int:
    """Planted forests on [n] with ordered degree sequence d; the component
    count k = n - sum(d) must be positive."""
    n = len(degrees)
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be nonnegative")
    k = n - sum(degrees)
    if k <= 0:
        raise ValueError(f"degree sum {sum(degrees)} leaves no components (k={k})")
    return comb(n - 1, k - 1) * multinomial(n - k, degrees)


def type_components(type_vector: Sequence[int]) -> int:
    """The component count k = sum (1 - i) r_i forced by a type vector."""
    return sum((1 - i) * r for i, r in enumerate(type_vector))


def type_count(type_vector: Sequence[int], flavor: str) -> int:
    """Forest counts by type; flavor "planted" or "plane-unlabeled"."""
    if any(r < 0 for r in type_vector):
        raise ValueError("type entries must be nonnegative")
    n = sum(type_vector)
    k = type_components(type_vector)
    if n < 1 or k <= 0:
        raise ValueError(f"infeasible type {tuple(type_vector)} (n={n}, k={k})")
    if flavor == "planted":
        orderings = factorial(n - k)
        for i, r in enumerate(type_vector):
            orderings //= factorial(i) ** r
        return comb(n - 1, k - 1) * orderings * multinomial(n, type_vector)
    if flavor == "plane-unlabeled":
        total = k * multinomial(n, type_vector)
        if total % n:
            raise ValueError(f"type {tuple(type_vector)} count is not integral")
        return total // n
    raise ValueError(f"unknown flavor {flavor!r}")


def degree_type(degrees: Sequence[int]) -> tuple[int, ...]:
    """The type vector of a (nonnegative) degree sequence: entry i counts
    the vertices of degree i, up to the largest degree."""
    counts = [0] * (max(degrees, default=0) + 1)
    for d in degrees:
        counts[d] += 1
    return tuple(counts)
