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
from typing import Iterable, Sequence

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
# Each map below edits one vertex: ``_path`` finds it without recursion and
# ``_graft`` rebuilds only its ancestors, sharing every other subtree.


def _path(tree: PlaneTree, label: int) -> list[tuple[PlaneTree, int | None]] | None:
    """The vertices from the root down to the one labelled ``label``, each with
    the index of the child the path takes next (None at the last), or None when
    no vertex carries ``label``."""
    up: dict[int, tuple[PlaneTree, int]] = {}
    stack = [tree]
    while stack:
        v = stack.pop()
        if v.label == label:
            path = [(v, None)]
            while v.label in up:
                v, idx = up[v.label]
                path.append((v, idx))
            path.reverse()
            return path
        for idx, c in enumerate(v.children):
            up[c.label] = (v, idx)
        stack.extend(v.children)
    return None


def _graft(path: list[tuple[PlaneTree, int | None]], new: PlaneTree) -> PlaneTree:
    """The tree at the head of ``path`` with the path's last vertex replaced by
    ``new``; only the vertices on the path are rebuilt."""
    for v, idx in reversed(path[:-1]):
        new = PlaneTree(v.label, v.children[:idx] + (new,) + v.children[idx + 1:])
    return new


def contract(tree: PlaneTree, i: int, j: int) -> PlaneTree:
    """(i, j)-contraction: remove child j of i, splicing j's children into
    its slot with all orders preserved."""
    path = _path(tree, j)
    if path is None or len(path) < 2 or path[-2][0].label != i:
        raise ValueError(f"tree has no edge ({i}, {j})")
    (parent, idx), (child, _) = path[-2:]
    spliced = parent.children[:idx] + child.children + parent.children[idx + 1:]
    return _graft(path[:-1], PlaneTree(i, spliced))


def has_edge(tree: PlaneTree, i: int, j: int) -> bool:
    path = _path(tree, j)
    return path is not None and len(path) > 1 and path[-2][0].label == i


def _forget_order_at(tree: PlaneTree, i: int) -> PlaneTree:
    path = _path(tree, i)
    if path is None:
        return tree
    target = path[-1][0]
    return _graft(path, PlaneTree(i, sorted(target.children, key=lambda c: c.label)))


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
    path = _path(tree, i)
    if path is None:
        raise ValueError(f"no vertex {i}")
    return [_graft(path, PlaneTree(i, order))
            for order in iter_permutations(path[-1][0].children)]


def ij_class(tree: PlaneTree, i: int, j: int) -> list[PlaneTree]:
    """The full (i, j)-equivalence class of a tree containing the edge (i, j).

    Members are the contraction preimages of the i-equivalence class of the
    contracted tree: for each order of i's children, pick a consecutive run
    of them to hand to j and put j in that slot.  The order and the run can
    be read back from a member, so no member is produced twice.
    """
    contracted = contract(tree, i, j)
    path = _path(contracted, i)
    out = []
    for order in iter_permutations(path[-1][0].children):
        m = len(order)
        for lo in range(m + 1):
            for hi in range(lo, m + 1):
                new_i = PlaneTree(i, order[:lo] + (PlaneTree(j, order[lo:hi]),) + order[hi:])
                out.append(_graft(path, new_i))
    return out


# -- root swap -------------------------------------------------------------------


def root_swap(tree: PlaneTree, old_root: int = 1, new_root: int = 2) -> PlaneTree:
    """Bijection from trees rooted at old_root to trees rooted at new_root.

    With children a_1..a_m of the root and new_root inside the subtree of
    a_t: the blocks a_{t+1}..a_m and new_root's children trade places, and
    the two labels are exchanged, so the vertex that held new_root takes
    old_root with the blocks, and the root takes new_root.
    """
    if tree.label != old_root:
        raise ValueError(f"tree is rooted at {tree.label}, expected {old_root}")
    path = _path(tree, new_root)
    if path is None:
        raise ValueError(f"no vertex {new_root}")
    if tree.label == new_root:
        raise ValueError("roots must differ")

    pivot = path[0][1]
    inner = PlaneTree(old_root, tree.children[pivot + 1:])
    kept = tree.children[:pivot] + (_graft(path[1:], inner),)
    return PlaneTree(new_root, kept + path[-1][0].children)
