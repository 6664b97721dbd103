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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, factorial
from typing import Iterator, Sequence

from .polyring import Poly
from .treecore import PlaneTree, TreeEnumerator

T_VARS = ("t",)


@dataclass(frozen=True)
class RootedPlaneForest:
    """Components indexed by root label (component i is rooted at i+1)."""

    components: tuple[PlaneTree, ...]

    @property
    def eld(self) -> int:
        return sum(c.eld_sub for c in self.components)

    @property
    def improper(self) -> int:
        return sum(c.imp_sub for c in self.components)

    def to_obj(self) -> dict:
        return {"components": [c.to_obj() for c in self.components]}


def fixed_root_forests(n: int, r: int,
                       enumerator: TreeEnumerator | None = None) -> Iterator[RootedPlaneForest]:
    """Every forest of r plane trees on [n] with roots exactly 1..r, once.

    Free labels r+1..n are assigned to components in all ways; within a
    component the plane trees on its label set are enumerated with the
    fixed root.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    enum = enumerator or TreeEnumerator()
    free = list(range(r + 1, n + 1))
    enum.check_bound(range(1, n + 1))

    def components(bins: Sequence[frozenset[int]], idx: int,
                   acc: tuple[PlaneTree, ...]) -> Iterator[RootedPlaneForest]:
        if idx == r:
            yield RootedPlaneForest(acc)
            return
        for tree in enum.trees_rooted(bins[idx] | {idx + 1}, idx + 1):
            yield from components(bins, idx + 1, acc + (tree,))

    for assignment in product(range(r), repeat=len(free)):
        bins = [frozenset(lab for lab, slot in zip(free, assignment) if slot == b)
                for b in range(r)]
        yield from components(bins, 0, ())


def forest_generating_poly(n: int, r: int,
                           enumerator: TreeEnumerator | None = None) -> dict[int, Poly]:
    """For each improper count k: the sum of t^eld over F^r_{n,k}."""
    if r >= n:
        raise ValueError("forest generating polynomial needs r < n")
    census: dict[int, dict[tuple[int], int]] = {}
    for forest in fixed_root_forests(n, r, enumerator):
        cells = census.setdefault(forest.improper, {})
        key = (forest.eld,)
        cells[key] = cells.get(key, 0) + 1
    return {k: Poly(T_VARS, cells) for k, cells in sorted(census.items())}


def plane_forests(labels: Sequence[int],
                  enumerator: TreeEnumerator | None = None) -> Iterator[tuple[PlaneTree, ...]]:
    """Ordered forests of plane trees partitioning the label set."""
    enum = enumerator or TreeEnumerator()
    yield from enum.forests(enum.check_bound(labels))


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
    """The type vector of a degree sequence: entry i counts the vertices of
    degree i, up to the largest degree."""
    top = max(degrees, default=0)
    return tuple(sum(1 for d in degrees if d == i) for i in range(top + 1))


def ordered_degree_sequence(forest: Sequence[PlaneTree], n: int) -> tuple[int, ...]:
    degs = [0] * n
    stack = list(forest)  # a plain stack loop: cor-planted reads every forest
    while stack:
        v = stack.pop()
        degs[v.label - 1] = len(v.children)
        stack.extend(v.children)
    return tuple(degs)


def forest_type(forest: Sequence[PlaneTree], n: int) -> tuple[int, ...]:
    return degree_type(ordered_degree_sequence(forest, n))
