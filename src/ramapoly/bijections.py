"""Constructive maps on permutations and plane trees.

* ``psi`` / ``psi_inv``: the fundamental transformation — factor into cycles,
  order cycles by increasing minima, write each cycle with its minimum last,
  erase parentheses.  Cycle count becomes right-to-left minimum count.
* ``phi``: at every vertex, permute the child subtrees so the root labels
  read in the same relative order the subtree betas did; turns the beta-based
  elder/young statistics into their label-based really-variants.
* ``contract(T, i, j)``: edge contraction splicing j's children into j's
  slot among i's children.
* ``equivalent``: i-equivalence (reorder i's children) and (i,j)-equivalence
  (contractions are i-equivalent).
* ``root_swap``: the bijection between trees rooted at 1 and at 2 that
  exchanges the child blocks after the branch containing the other label.
"""

from __future__ import annotations

from itertools import permutations as iter_permutations
from typing import Iterable, Iterator, Sequence

from .treecore import PlaneTree, right_to_left_minima


def _is_word_over_n(word: Sequence) -> bool:
    """True when word lists 1..len(word) in some order (bools are not integers)."""
    return (all(type(a) is int for a in word)
            and sorted(word) == list(range(1, len(word) + 1)))


class Permutation:
    """A permutation of [n] in one-line notation (word[i] = image of i+1)."""

    __slots__ = ("word",)

    def __init__(self, word: Sequence[int]):
        word = tuple(word)
        if not _is_word_over_n(word):
            raise ValueError(f"{word} is not a permutation of [n]")
        self.word = word

    def __len__(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"Permutation({list(self.word)})"

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each rotated to start right after its minimum,
        ordered by increasing minima."""
        seen = set()
        out = []
        for start in range(1, len(self.word) + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            # rotate so the minimum sits last
            pos = cycle.index(min(cycle))
            cycle = cycle[pos + 1:] + cycle[:pos + 1]
            out.append(tuple(cycle))
        out.sort(key=lambda c: c[-1])
        return out

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], n: int) -> "Permutation":
        image = {i: i for i in range(1, n + 1)}
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                image[a] = b
            if cycle:
                image[cycle[-1]] = cycle[0]
        return cls([image[i] for i in range(1, n + 1)])


def psi(perm: Permutation) -> tuple[int, ...]:
    word: list[int] = []
    for cycle in perm.cycles():
        word.extend(cycle)
    return tuple(word)


def psi_inv(word: Sequence[int]) -> Permutation:
    if not _is_word_over_n(word):
        raise ValueError(f"{tuple(word)} is not a word over [n]")
    cycles = []
    prev = -1
    for pos in right_to_left_minima(word):
        cycles.append(tuple(word[prev + 1:pos + 1]))
        prev = pos
    return Permutation.from_cycles(cycles, len(word))


# -- phi: beta order -> label order -------------------------------------------


def phi(tree: PlaneTree) -> PlaneTree:
    """Reorder subtrees at every vertex so labels sit in the old beta pattern."""
    children = [phi(c) for c in tree.children]
    if len(children) > 1:
        by_label = sorted(children, key=lambda c: c.label)
        beta_rank = {b: r for r, b in enumerate(sorted(c.beta for c in tree.children))}
        children = [by_label[beta_rank[c.beta]] for c in tree.children]
    return PlaneTree(tree.label, children)


def phi_inv(tree: PlaneTree) -> PlaneTree:
    """Inverse of phi: put subtrees back so betas sit in the label pattern."""
    if len(tree.children) > 1:
        by_beta = sorted(tree.children, key=lambda c: c.beta)
        label_rank = {lab: r for r, lab in enumerate(sorted(c.label for c in tree.children))}
        children = [by_beta[label_rank[c.label]] for c in tree.children]
    else:
        children = list(tree.children)
    return PlaneTree(tree.label, [phi_inv(c) for c in children])


# -- contraction and equivalences ----------------------------------------------


def contract(tree: PlaneTree, i: int, j: int) -> PlaneTree:
    """(i, j)-contraction: remove child j of i, splicing j's children into
    its slot with all orders preserved."""

    found = False

    def rebuild(v: PlaneTree) -> PlaneTree:
        nonlocal found
        if v.label == i:
            new_children: list[PlaneTree] = []
            for c in v.children:
                if c.label == j:
                    found = True
                    new_children.extend(c.children)
                else:
                    new_children.append(rebuild(c))
            return PlaneTree(i, new_children)
        return PlaneTree(v.label, [rebuild(c) for c in v.children])

    result = rebuild(tree)
    if not found:
        raise ValueError(f"tree has no edge ({i}, {j})")
    return result


def has_edge(tree: PlaneTree, i: int, j: int) -> bool:
    return (i, j) in set(tree.edges())


def _forget_order_at(tree: PlaneTree, i: int) -> PlaneTree:
    if tree.label == i:
        children = sorted(tree.children, key=lambda c: c.label)
    else:
        children = tree.children
    return PlaneTree(tree.label, [_forget_order_at(c, i) for c in children])


def equivalent(t1: PlaneTree, t2: PlaneTree, mode: int | tuple[int, int]) -> bool:
    """i-equivalence for integer mode, (i,j)-equivalence for a pair."""
    if isinstance(mode, tuple):
        i, j = mode
        if not (has_edge(t1, i, j) and has_edge(t2, i, j)):
            return False
        return equivalent(contract(t1, i, j), contract(t2, i, j), i)
    return _forget_order_at(t1, mode) == _forget_order_at(t2, mode)


def i_class(tree: PlaneTree, i: int) -> list[PlaneTree]:
    """All trees obtained by reordering the children of vertex i."""

    target = tree.find(i)
    if target is None:
        raise ValueError(f"no vertex {i}")

    def rebuild(v: PlaneTree, new_target: PlaneTree) -> PlaneTree:
        if v.label == i:
            return new_target
        return PlaneTree(v.label, [rebuild(c, new_target) for c in v.children])

    out = []
    for order in iter_permutations(target.children):
        out.append(rebuild(tree, PlaneTree(i, order)))
    return out


def ij_class(tree: PlaneTree, i: int, j: int) -> list[PlaneTree]:
    """The full (i, j)-equivalence class of a tree containing the edge (i, j).

    Members are the contraction preimages of the i-equivalence class of the
    contracted tree: pick a consecutive run of i's children to hand to j and
    put j in that slot.
    """
    contracted = contract(tree, i, j)

    def expansions(base: PlaneTree) -> Iterator[PlaneTree]:
        spot = base.find(i)
        assert spot is not None
        m = len(spot.children)

        def rebuild(v: PlaneTree, replacement: PlaneTree) -> PlaneTree:
            if v.label == i:
                return replacement
            return PlaneTree(v.label, [rebuild(c, replacement) for c in v.children])

        for lo in range(m + 1):
            for hi in range(lo, m + 1):
                j_node = PlaneTree(j, spot.children[lo:hi])
                new_i = PlaneTree(i, spot.children[:lo] + (j_node,) + spot.children[hi:])
                yield rebuild(base, new_i)

    seen = set()
    out = []
    for base in i_class(contracted, i):
        for candidate in expansions(base):
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


# -- root swap -------------------------------------------------------------------


def _swap_labels(tree: PlaneTree, a: int, b: int) -> PlaneTree:
    label = {a: b, b: a}.get(tree.label, tree.label)
    return PlaneTree(label, [_swap_labels(c, a, b) for c in tree.children])


def root_swap(tree: PlaneTree, old_root: int = 1, new_root: int = 2) -> PlaneTree:
    """Bijection from trees rooted at old_root to trees rooted at new_root.

    With children a_1..a_m of the root and new_root inside the subtree of
    a_t: the blocks a_{t+1}..a_m and new_root's children trade places, then
    the two labels are exchanged.
    """
    if tree.label != old_root:
        raise ValueError(f"tree is rooted at {tree.label}, expected {old_root}")
    other = tree.find(new_root)
    if other is None:
        raise ValueError(f"no vertex {new_root}")
    if tree.label == new_root:
        raise ValueError("roots must differ")

    pivot = next(idx for idx, c in enumerate(tree.children)
                 if c.find(new_root) is not None)
    moved = tree.children[pivot + 1:]

    def rebuild(v: PlaneTree) -> PlaneTree:
        if v.label == new_root:
            return PlaneTree(new_root, moved)
        return PlaneTree(v.label, [rebuild(c) for c in v.children])

    kept = [rebuild(c) for c in tree.children[:pivot + 1]]
    swapped = PlaneTree(old_root, kept + list(other.children))
    return _swap_labels(swapped, old_root, new_root)
