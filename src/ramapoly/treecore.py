"""Labeled plane trees: data model, exhaustive enumeration, and statistics.

A plane tree is a rooted tree on distinct positive integer labels in which
the children of every vertex are linearly ordered.  The statistics:

* beta(v): the smallest label among v's descendants (v included);
* a child is *elder* if some brother to its right has a smaller beta,
  *younger* otherwise; eld(T) counts elder vertices;
* the edge (i, j) is *improper* when j is neither an elder child of i nor
  satisfies i < beta(j);
* the *really*-variants replace the child's beta by its label in the elder
  comparison (the improper test keeps beta);
* young(v) = deg(v) - eld(v), and likewise for the really-variant.

``PlaneTree`` nodes are immutable.  A node computes at construction the
subtree aggregates the census stream reads (beta, size, leaf count, young,
eld, improper count, young(1)); its hash and really-statistics are computed
on first read and cached.  Enumeration thus shares subtrees freely and reads
per-tree statistics in O(1).  ``TreeEnumerator`` produces every plane tree /
ordered forest on a label set exactly once (first component's vertex subset
in binary order, roots ascending) and memoizes small sub-forests.

Two censuses read that stream: ``weight_census`` buckets (young(1), eld) by
improper count (``census_poly`` turns a bucket into a polynomial in {x, t}),
and ``generating_poly`` sums t^eld * prod_i x_i^young(i) (``multivar_exponents``).
The really-census and ``count_trees`` read a root label and its forest, not a root node.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain, product, repeat, starmap
from math import comb
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .polyring import Poly
from .qpolys import QK_VARS, BoundExceeded

MEMO_LIMIT = 5             # label-set size up to which forest/tree lists are cached
DEFAULT_MAX_LABELS = 8     # enumeration hard cap; |P_8| = 17,297,280
ENV_MAX_LABELS = "RAMAPOLY_MAX_LABELS"


class PlaneTree:
    """Immutable plane tree node with cached subtree statistics.

    eld_sub / imp_sub count elder vertices / improper edges inside the
    subtree (the subtree root itself has no brothers here, so it is not
    counted); young_at_1 is young(vertex 1) if label 1 occurs in the
    subtree, else None.  r*-fields are the really-variants.

    beta, size, leaf_count, young_self, eld_sub, imp_sub and young_at_1 are
    set at construction, which enumeration pays for every tree.  The hash
    and the r*-fields, which few trees of a stream are asked for, are
    computed on first read and cached in a slot.
    """

    __slots__ = ("label", "children", "beta", "size", "leaf_count",
                 "young_self", "eld_sub", "imp_sub", "young_at_1",
                 "_really_fields", "_hash")

    def __init__(self, label: int, children: Sequence["PlaneTree"] = ()):
        children = tuple(children)
        self.label = label
        self.children = children
        size = 1
        leaves = eld_sub = imp_sub = young = 0
        y1 = min_right = None
        # right-to-left minima of the child beta word, fused with the
        # aggregates, as this is the enumeration hot path; betas of disjoint
        # subtrees are distinct, and the tests cross-check this against
        # right_to_left_minima
        for c in reversed(children):
            size += c.size
            leaves += c.leaf_count
            eld_sub += c.eld_sub
            imp_sub += c.imp_sub
            if c.young_at_1 is not None:
                y1 = c.young_at_1
            if min_right is not None and min_right < c.beta:
                eld_sub += 1
            else:
                young += 1
                if label > c.beta:
                    imp_sub += 1
                min_right = c.beta
        self.beta = label if min_right is None or label < min_right else min_right
        self.size = size
        self.leaf_count = leaves if children else 1
        self.young_self = young
        self.eld_sub = eld_sub
        self.imp_sub = imp_sub
        self.young_at_1 = young if label == 1 else y1

    def _really(self) -> tuple[int, int, int, int | None]:
        """(ryoung_self, reld_sub, rimp_sub, ryoung_at_1), computed on first call."""
        try:
            return self._really_fields
        except AttributeError:
            self._really_fields = _really_fold(self.label, self.children)
            return self._really_fields

    ryoung_self = property(lambda self: self._really()[0])
    reld_sub = property(lambda self: self._really()[1])
    rimp_sub = property(lambda self: self._really()[2])
    ryoung_at_1 = property(lambda self: self._really()[3])

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.label, self.children))
            return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PlaneTree):
            return NotImplemented
        return (self.label == other.label and hash(self) == hash(other)
                and self.children == other.children)

    def __repr__(self) -> str:
        if not self.children:
            return f"node({self.label})"
        inner = ", ".join(repr(c) for c in self.children)
        return f"node({self.label}, {inner})"

    # -- traversal helpers ---------------------------------------------------

    def walk(self) -> Iterator["PlaneTree"]:
        """Pre-order traversal of the subtree."""
        stack = [self]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(reversed(v.children))

    def labels(self) -> frozenset[int]:
        # a plain stack loop: theta checks this on every tree it maps
        out = []
        stack = [self]
        while stack:
            v = stack.pop()
            out.append(v.label)
            stack.extend(v.children)
        return frozenset(out)

    def edges(self) -> list[tuple[int, int]]:
        return [(v.label, c.label) for v in self.walk() for c in v.children]

    def find(self, label: int) -> "PlaneTree | None":
        for v in self.walk():
            if v.label == label:
                return v
        return None

    def to_obj(self) -> dict:
        return {"label": self.label,
                "children": [c.to_obj() for c in self.children]}


def _really_fold(label: int, children: Sequence[PlaneTree]) -> tuple[int, int, int, int | None]:
    """(ryoung_self, reld_sub, rimp_sub, ryoung_at_1) of the tree label over
    children, from the children's cached fields; that tree's node need not exist."""
    reld_sub = rimp_sub = young = 0
    ry1 = min_right = None
    for c in reversed(children):
        _, c_reld, c_rimp, c_ry1 = c._really()
        reld_sub += c_reld
        rimp_sub += c_rimp
        if c_ry1 is not None:
            ry1 = c_ry1
        if min_right is not None and min_right < c.label:
            reld_sub += 1
        else:
            young += 1
            if label > c.beta:
                rimp_sub += 1
            min_right = c.label
    return young, reld_sub, rimp_sub, young if label == 1 else ry1


def node(label: int, *children: PlaneTree) -> PlaneTree:
    """Terse constructor: node(1, node(2), node(3, node(4)))."""
    return PlaneTree(label, children)


def tree_from_obj(obj: Mapping) -> PlaneTree:
    """Build a PlaneTree from the JSON form {"label": int, "children": [...]}."""
    if not isinstance(obj, Mapping) or "label" not in obj:
        raise ValueError("tree object must be a mapping with a 'label' key")
    label = obj["label"]
    if not isinstance(label, int) or isinstance(label, bool) or label < 1:
        raise ValueError(f"labels must be positive integers, got {label!r}")
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise ValueError(f"'children' must be a list, got {type(children).__name__}")
    tree = PlaneTree(label, [tree_from_obj(c) for c in children])
    seen = [v.label for v in tree.walk()]
    if len(seen) != len(set(seen)):
        raise ValueError("labels are not pairwise distinct")
    return tree


# -- statistics ---------------------------------------------------------------


def right_to_left_minima(word: Sequence[int]) -> list[int]:
    """Positions (0-based, ascending) of the entries smaller than every
    entry to their right."""
    positions = []
    suffix_min = None
    for idx in range(len(word) - 1, -1, -1):
        if suffix_min is None or word[idx] < suffix_min:
            positions.append(idx)
            suffix_min = word[idx]
    positions.reverse()
    return positions


def gdes(word: Sequence[int]) -> int:
    """Number of positions with a smaller entry somewhere to the right."""
    if len(set(word)) != len(word):
        raise ValueError("entries must be distinct")
    return len(word) - len(right_to_left_minima(word))


@dataclass(frozen=True)
class TreeStats:
    beta: dict[int, int]
    deg: dict[int, int]
    eld_per_vertex: dict[int, int]
    young_per_vertex: dict[int, int]
    reld_per_vertex: dict[int, int]
    ryoung_per_vertex: dict[int, int]
    elder_vertices: frozenset[int]
    really_elder_vertices: frozenset[int]
    improper_edges: frozenset[tuple[int, int]]
    really_improper_edges: frozenset[tuple[int, int]]
    eld_total: int
    reld_total: int
    leaves: frozenset[int]
    increasing: bool


def stats(tree: PlaneTree) -> TreeStats:
    """Full statistics bundle for one tree (fixture/CLI path, not the hot loop)."""
    beta = {}
    deg = {}
    eld = {}
    young = {}
    reld = {}
    ryoung = {}
    elders = set()
    relders = set()
    improper = set()
    rimproper = set()
    leaves = set()
    increasing = True
    for v in tree.walk():
        beta[v.label] = v.beta
        deg[v.label] = len(v.children)
        eld[v.label] = len(v.children) - v.young_self
        young[v.label] = v.young_self
        reld[v.label] = len(v.children) - v.ryoung_self
        ryoung[v.label] = v.ryoung_self
        if not v.children:
            leaves.add(v.label)
        # a child is younger exactly when its beta (label, for the really
        # variant) is a right-to-left minimum of the children's word
        younger = set(right_to_left_minima([c.beta for c in v.children]))
        ryounger = set(right_to_left_minima([c.label for c in v.children]))
        for idx, c in enumerate(v.children):
            if c.label < v.label:
                increasing = False
            if idx not in younger:
                elders.add(c.label)
            elif v.label > c.beta:
                improper.add((v.label, c.label))
            if idx not in ryounger:
                relders.add(c.label)
            elif v.label > c.beta:
                rimproper.add((v.label, c.label))
    return TreeStats(beta=beta, deg=deg, eld_per_vertex=eld, young_per_vertex=young,
                     reld_per_vertex=reld, ryoung_per_vertex=ryoung,
                     elder_vertices=frozenset(elders),
                     really_elder_vertices=frozenset(relders),
                     improper_edges=frozenset(improper),
                     really_improper_edges=frozenset(rimproper),
                     eld_total=len(elders), reld_total=len(relders),
                     leaves=frozenset(leaves), increasing=increasing)


# -- enumeration ---------------------------------------------------------------


def label_cap(max_labels: int | None = None, name: str = "max_labels") -> int:
    """max_labels if given, else $RAMAPOLY_MAX_LABELS, else DEFAULT_MAX_LABELS;
    anything but a positive integer is a ValueError naming its source."""
    if max_labels is None and ENV_MAX_LABELS in os.environ:
        name, raw = ENV_MAX_LABELS, os.environ[ENV_MAX_LABELS]
        max_labels = int(raw) if raw.strip().isdecimal() else raw
    cap = DEFAULT_MAX_LABELS if max_labels is None else max_labels
    if type(cap) is not int or cap < 1:
        raise ValueError(f"{name} must be a positive integer, got {cap!r}")
    return cap


class TreeEnumerator:
    """Streams every plane tree / ordered forest on a label set exactly once.

    A tree on S rooted at r is r over an ordered forest on S - {r}; an
    ordered forest is the first component's tree followed by a forest on the
    remaining labels.  Subset choices run in binary order over the sorted
    labels, roots ascend, so streams are deterministic.  Forest and tree
    tuples for label sets of size <= MEMO_LIMIT are cached, which shares
    subtree objects (and their precomputed statistics) across the stream.
    A stream chains one C iterator per (first label set, root); a forest is one tuple concatenation.
    """

    def __init__(self, max_labels: int | None = None):
        self.max_labels = label_cap(max_labels)
        self._forest_memo: dict[frozenset[int], tuple] = {frozenset(): ((),)}
        self._tree_memo: dict[tuple[frozenset[int], int], tuple] = {}

    def check_bound(self, labels: Iterable[int]) -> frozenset[int]:
        labels = frozenset(labels)
        if len(labels) > self.max_labels:
            raise BoundExceeded(
                f"label set of size {len(labels)} exceeds cap {self.max_labels} "
                f"(override via {ENV_MAX_LABELS} or max_labels)")
        return labels

    # ordered forests ---------------------------------------------------------

    def forests(self, labels: frozenset[int]) -> Iterable[tuple[PlaneTree, ...]]:
        """The memo tuple for a small label set, else a fresh stream; a plain
        call, not a generator, so no frame sits between stream and reader."""
        if len(labels) > MEMO_LIMIT:
            return self._forest_stream(labels)
        cached = self._forest_memo.get(labels)
        if cached is None:
            cached = self._forest_memo[labels] = tuple(self._forest_stream(labels))
        return cached

    def _forest_stream(self, labels: frozenset[int]) -> Iterator[tuple[PlaneTree, ...]]:
        return chain.from_iterable(self._forest_pieces(labels))

    def _forest_pieces(self, labels: frozenset[int]) -> Iterator[Iterator[tuple[PlaneTree, ...]]]:
        """One C iterator per (first component's label set, root): the first
        trees, each followed by each forest on the rest if there is one."""
        elems = sorted(labels)
        for mask in range(1, 1 << len(elems)):
            first_set = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
            rest = labels - first_set
            for root in sorted(first_set):
                firsts = zip(self.trees_rooted(first_set, root))
                if not rest:
                    yield firsts
                elif max(len(first_set), len(rest)) <= MEMO_LIMIT:
                    yield starmap(add, product(firsts, self.forests(rest)))
                else:  # product holds its inputs whole, so a stream is read per first tree
                    yield from (map(add, repeat(first), self.forests(rest)) for first in firsts)

    # trees --------------------------------------------------------------------

    def trees_rooted(self, labels: frozenset[int], root: int) -> Iterable[PlaneTree]:
        """The memo tuple for a small label set, else a fresh stream."""
        if len(labels) > MEMO_LIMIT:
            return map(PlaneTree, repeat(root), self.forests(labels - {root}))
        cached = self._tree_memo.get((labels, root))
        if cached is None:
            cached = tuple(map(PlaneTree, repeat(root), self.forests(labels - {root})))
            self._tree_memo[labels, root] = cached
        return cached

    def _checked(self, labels: Iterable[int], root: int | None) -> tuple[frozenset[int], list[int]]:
        """The label set and its trees' roots; it must be non-empty, hold root, fit the cap."""
        labels = frozenset(labels)
        if not labels:
            raise ValueError("empty label set")
        if root is not None and root not in labels:
            raise ValueError(f"root {root} not in label set")
        self.check_bound(labels)
        return labels, sorted(labels) if root is None else [root]

    def trees(self, labels: Iterable[int], root: int | None = None) -> Iterator[PlaneTree]:
        labels, roots = self._checked(labels, root)
        return chain.from_iterable(map(self.trees_rooted, repeat(labels), roots))

    def count_trees(self, labels: Iterable[int], root: int | None = None) -> int:
        """How many trees ``trees(labels, root)`` streams, without building their roots."""
        labels, roots = self._checked(labels, root)
        return sum(sum(1 for _ in self.forests(labels - {r})) for r in roots)


# -- generating polynomials -----------------------------------------------------


def weight_census(labels: Iterable[int], root: int | None = None, *,
                  really: bool = False,
                  enumerator: TreeEnumerator | None = None) -> dict[int, dict[tuple[int, int], int]]:
    """One enumeration pass, bucketed by improper count.

    Returns {k: {(young(1), eld): multiplicity}} over all trees on the label
    set (optionally root-constrained); the really-variant buckets by really
    improper count and uses (ryoung(1), reld).
    """
    enum = enumerator or TreeEnumerator()
    labels = frozenset(labels)
    if 1 not in labels:
        raise ValueError("weight census needs vertex 1 in the label set")
    census: dict[int, dict[tuple[int, int], int]] = {}
    if really:
        # each tree's really-fields folded from its root label and forest, no root node
        labels, roots = enum._checked(labels, root)
        folds = chain.from_iterable(map(_really_fold, repeat(r), enum.forests(labels - {r}))
                                    for r in roots)
        for _, reld, k, young1 in folds:
            cells = census.setdefault(k, {})
            key = (young1, reld)
            cells[key] = cells.get(key, 0) + 1
    else:
        for tree in enum.trees(labels, root):
            cells = census.setdefault(tree.imp_sub, {})
            key = (tree.young_at_1, tree.eld_sub)
            cells[key] = cells.get(key, 0) + 1
    return census


def census_poly(cells: Mapping[tuple[int, int], int], mode: str) -> Poly:
    """Collapse census cells to a polynomial in {x, t}; mode "o" uses x^(young-1)."""
    terms: dict[tuple[int, int], int] = {}
    for (young1, eld), count in cells.items():
        expo = young1 - 1 if mode == "o" else young1
        if expo < 0:
            raise ValueError("mode 'o' needs young(1) >= 1 on every tree")
        key = (expo, eld)
        terms[key] = terms.get(key, 0) + count
    return Poly(QK_VARS, terms)


def multivar_universe(labels: Iterable[int]) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in sorted(labels)) + ("t",)


def multivar_exponents(tree: PlaneTree, position: Mapping[int, int]) -> tuple[int, ...]:
    """Exponent tuple of t^eld * prod_i x_i^young(i) in the multivariate
    universe whose variable for label i sits at position[i]."""
    exps = [0] * (len(position) + 1)
    stack = [tree]  # a plain stack loop: generating_poly reads every tree
    while stack:
        v = stack.pop()
        exps[position[v.label]] = v.young_self
        stack.extend(v.children)
    exps[-1] = tree.eld_sub
    return tuple(exps)


def generating_poly(labels: Iterable[int], root: int | None = None,
                    enumerator: TreeEnumerator | None = None) -> Poly:
    """Sum of t^eld * prod_i x_i^young(i) over the plane trees on the label
    set (optionally root-constrained), in multivar_universe(labels)."""
    enum = enumerator or TreeEnumerator()
    labels = sorted(labels)
    position = {lab: idx for idx, lab in enumerate(labels)}
    terms = Counter(multivar_exponents(tree, position) for tree in enum.trees(labels, root))
    return Poly(multivar_universe(labels), terms)


def leaf_set_count(n: int, k: int) -> int:
    """Number of plane trees on [n+1] whose leaf set is exactly {1, ..., k},
    by inclusion-exclusion over the vertices k+1..n+1 allowed to be leaves."""
    total = 0
    for i in range(n - k + 2):
        prod = 1
        for s in range(n):
            prod *= n + 1 - k - i + s
        total += (-1) ** i * comb(n - k + 1, i) * prod
    return total


def leaf_profile(n: int, enumerator: TreeEnumerator | None = None) -> dict[int, int]:
    """Map leaf count -> number of labeled plane trees on [n] with that many leaves."""
    enum = enumerator or TreeEnumerator()
    profile: dict[int, int] = {}
    for tree in enum.trees(range(1, n + 1)):
        profile[tree.leaf_count] = profile.get(tree.leaf_count, 0) + 1
    return dict(sorted(profile.items()))


# -- increasing trees (no improper edges) ----------------------------------------


def _grow_increasing(n: int, plane: bool) -> Iterator[PlaneTree]:
    """Insert k = 2..n under every vertex, at every child position if plane
    (else last).  One node per vertex is kept; an insertion rebuilds only
    the path from the new leaf to the root."""
    if n < 1:
        return
    node_of = {1: PlaneTree(1)}
    parent = {1: None}

    def rec(k: int) -> Iterator[PlaneTree]:
        if k > n:
            yield node_of[1]
            return
        leaf = node_of[k] = PlaneTree(k)
        for v in range(1, k):
            parent[k] = v
            row = node_of[v].children
            for pos in range(len(row) + 1) if plane else (len(row),):
                saved = []
                u, new = v, PlaneTree(v, row[:pos] + (leaf,) + row[pos:])
                while u is not None:
                    saved.append((u, node_of[u]))
                    old, node_of[u] = node_of[u], new
                    u = parent[u]
                    if u is not None:
                        kids = node_of[u].children
                        i = kids.index(old)
                        new = PlaneTree(u, kids[:i] + (new,) + kids[i + 1:])
                yield from rec(k + 1)
                for u, old in saved:
                    node_of[u] = old
        del node_of[k], parent[k]

    yield from rec(2)


def increasing_plane_trees(n: int) -> Iterator[PlaneTree]:
    """All increasing plane trees on [n] (exactly the trees with no improper edge)."""
    return _grow_increasing(n, plane=True)


def increasing_rooted_trees(n: int) -> Iterator[PlaneTree]:
    """Increasing unordered trees on [n], one canonical plane form each
    (children ascending, i.e. the eld = 0 representatives)."""
    return _grow_increasing(n, plane=False)
