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

The censuses read the trees on [n] = {1, ..., n} and take n.  Statistics
compare labels only, so the forest under any root is a forest on [n - 1]
relabeled in order, and two DPs over label subsets count those forests
without building one:
* ``forest_folds`` counts them by their fold, and ``weight_census`` expands
  the fold per root into (young(1), eld) by improper count (``census_poly``
  turns a bucket into a polynomial in {x, t}); a serial
  ``harness.run_suite`` keeps a fold per (m, variant), so the root-1 and the
  free census fold the forests once between them;
* ``young_census`` counts them by their young children per label, young top
  components and elder vertices, or with ``elder=False`` by degree
  sequence: ``rooted_generating_poly`` reads from it the sum of
  t^eld * prod_i x_i^young(i) over the trees rooted at n, and
  ``forests.degree_census`` the plane forests by degree sequence, off
  which ``harness`` reads the leaf statistics.
``generating_poly`` (``multivar_exponents`` per tree) and ``leaf_profile``
stream the trees instead.  No identity calls them: they are the references
the rooted sums and the leaf statistics are checked against.
``count_trees`` multiplies the roots by ``forest_count``, the forests on
[n - 1], and ``unrank`` builds the tree at any position of the stream from
those counts, without streaming.
The increasing-tree generators read the same memoizing stream, narrowed by a
private subclass to the forests whose every subtree is rooted at its smallest
label, and ``count_increasing_trees`` counts the forests under vertex 1 by a
recurrence on that subclass's decomposition.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, product, repeat, starmap
from math import comb, inf
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .polyring import Poly
from .qpolys import QK_VARS, BoundExceeded

MEMO_LIMIT = 5             # label-set size up to which forest/tree lists are cached
DEFAULT_MAX_LABELS = 8     # enumeration hard cap; |P_8| = 17,297,280
UNRANK_MAX_LABELS = 64     # unranking builds one tree, so the cap does not bound it
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
        """hash((label, children)), cached; the uncached nodes below are
        hashed first, deepest last on the stack, so no call recurses."""
        try:
            return self._hash
        except AttributeError:
            pending = []
            stack = [self]
            while stack:
                v = stack.pop()
                pending.append(v)
                stack.extend(c for c in v.children if not hasattr(c, "_hash"))
            for v in reversed(pending):
                v._hash = hash((v.label, v.children))
            return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PlaneTree):
            return NotImplemented
        # node pairs on an explicit stack, so deep trees do not recurse
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a.label != b.label or hash(a) != hash(b)
                    or len(a.children) != len(b.children)):
                return False
            stack.extend(zip(a.children, b.children))
        return True

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


@dataclass(frozen=True)
class TreeStats:
    beta: dict[int, int]
    deg: dict[int, int]
    eld_per_vertex: dict[int, int]
    young_per_vertex: dict[int, int]
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
    ryoung = {}
    elders = set()
    relders = set()
    improper = set()
    rimproper = set()
    leaves = set()
    increasing = True
    for v in tree.walk():
        # a child is younger exactly when its beta (label, for the really
        # variant) is a right-to-left minimum of the children's word
        younger = set(right_to_left_minima([c.beta for c in v.children]))
        ryounger = set(right_to_left_minima([c.label for c in v.children]))
        beta[v.label] = v.beta
        deg[v.label] = len(v.children)
        eld[v.label] = len(v.children) - len(younger)
        young[v.label] = len(younger)
        ryoung[v.label] = len(ryounger)
        if not v.children:
            leaves.add(v.label)
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
                     ryoung_per_vertex=ryoung,
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


def check_label_count(size: int, max_labels: int | None = None) -> None:
    """BoundExceeded when a label set of size labels is past ``label_cap(max_labels)``."""
    cap = label_cap(max_labels)
    if size > cap:
        raise BoundExceeded(f"label set of size {size} exceeds cap {cap} "
                            f"(override via {ENV_MAX_LABELS} or max_labels)")


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

    # every first label set roots a piece at each label; _IncreasingTrees narrows both
    _mask_step = 1
    _roots_per_set: int | None = None

    def __init__(self, max_labels: int | None = None):
        self.max_labels = label_cap(max_labels)
        self._forest_memo: dict[frozenset[int], tuple] = {frozenset(): ((),)}
        self._tree_memo: dict[tuple[frozenset[int], int], tuple] = {}

    def check_bound(self, labels: Iterable[int]) -> frozenset[int]:
        labels = frozenset(labels)
        check_label_count(len(labels), self.max_labels)
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
        for mask in range(1, 1 << len(elems), self._mask_step):
            first_set = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
            rest = labels - first_set
            for root in sorted(first_set)[:self._roots_per_set]:
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

    def trees(self, labels: Iterable[int], root: int | None = None) -> Iterator[PlaneTree]:
        labels, roots = _checked(labels, root)
        self.check_bound(labels)
        return chain.from_iterable(map(self.trees_rooted, repeat(labels), roots))


def _checked(labels: Iterable[int], root: int | None) -> tuple[frozenset[int], list[int]]:
    """The label set and its trees' roots; it must be non-empty and hold root."""
    labels = frozenset(labels)
    if not labels:
        raise ValueError("empty label set")
    if root is not None and root not in labels:
        raise ValueError(f"root {root} not in label set")
    return labels, sorted(labels) if root is None else [root]


def count_trees(labels: Iterable[int], root: int | None = None,
                max_labels: int | None = None) -> int:
    """How many trees ``TreeEnumerator(max_labels).trees(labels, root)``
    streams, after its checks: roots times the forests on the other labels."""
    labels, roots = _checked(labels, root)
    check_label_count(len(labels), max_labels)
    return len(roots) * forest_count(len(labels) - 1)


@cache
def forest_count(m: int) -> int:
    """F(m), the ordered forests on m labels: F(0) = 1 and
    F(m) = sum over k of C(m, k) * k * F(k - 1) * F(m - k), the first
    component's label set, root, tree and the forest on the rest."""
    return sum(comb(m, k) * k * forest_count(k - 1) * forest_count(m - k)
               for k in range(1, m + 1)) if m else 1


def unrank(labels: Iterable[int], rank: int, root: int | None = None) -> PlaneTree:
    """The tree at position ``rank`` of ``TreeEnumerator().trees(labels, root)``
    (the recursive method of Nijenhuis and Wilf); UNRANK_MAX_LABELS, not the
    label cap, bounds the label set."""
    labels, roots = _checked(labels, root)
    if len(labels) > UNRANK_MAX_LABELS:
        raise BoundExceeded(f"label set of size {len(labels)} exceeds the unranking "
                            f"bound {UNRANK_MAX_LABELS}")
    per_root = forest_count(len(labels) - 1)
    if type(rank) is not int or not 0 <= rank < len(roots) * per_root:
        raise ValueError(f"rank {rank!r} outside 0..{len(roots) * per_root - 1}")
    index, rank = divmod(rank, per_root)
    return PlaneTree(roots[index], _unrank_forest(sorted(labels - {roots[index]}), rank))


def _unrank_forest(elems: list[int], rank: int) -> tuple[PlaneTree, ...]:
    """The forest at position ``rank`` of ``TreeEnumerator.forests`` on the
    sorted labels ``elems``, one component per turn of the loop.

    The first component's mask ascends, bit i standing for elems[i], and a
    mask of k bits holds w_k = k * F(k - 1) * F(m - k) forests.  With the bits
    above i decided and c of them set, the masks with bit i clear come first
    and hold sum over j of C(i, j) * w_(c + j).  Within the mask the root is
    the outer loop, then the first tree, then the forest on the rest."""
    trees = []
    while elems:
        m = len(elems)
        weight = [0] + [k * forest_count(k - 1) * forest_count(m - k) for k in range(1, m + 1)]
        mask = c = 0
        for i in reversed(range(m)):
            clear = sum(comb(i, j) * weight[c + j] for j in range(i + 1))
            if rank >= clear:
                rank -= clear
                mask |= 1 << i
                c += 1
        first = [e for i, e in enumerate(elems) if mask >> i & 1]
        index, rank = divmod(rank, forest_count(c - 1) * forest_count(m - c))
        first_rank, rank = divmod(rank, forest_count(m - c))
        root = first.pop(index)
        trees.append(PlaneTree(root, _unrank_forest(first, first_rank)))
        elems = [e for i, e in enumerate(elems) if not mask >> i & 1]
    return tuple(trees)


# -- generating polynomials -----------------------------------------------------


def forest_folds(m: int, *, really: bool = False, max_labels: int | None = None) -> Counter:
    """The ordered forests on [m] counted by their fold {(imp, young(1), eld,
    mask): count}: improper edges, young(1) and elder vertices, elder top
    components included, and bit beta(c) of mask set for each young top
    component c (the really-variant reads the really-statistics, and the top
    root labels in place of beta in the elder test).  The trees on [m + 1]
    under any root are these forests relabeled, so every census of them
    expands this one ``Counter``; [m] is checked against
    ``label_cap(max_labels)`` first.

    No forest is built.  A forest on S is a tree T on a subset A rooted at r,
    followed by a forest F on S - A: T's fields expand the fold under r as
    ``weight_census`` expands a root, and T is elder when F's smallest top key
    (beta, or the root label) is below T's.  So a DP over label bitmasks keeps
    per subset its trees by root and the fold with that key as a fifth field.
    A and r ascend as in ``TreeEnumerator``'s stream, T's keys outermost, so
    keys come in the order the stream first meets them."""
    check_label_count(m, max_labels)
    folds = {0: {(0, None, 0, 0, None): 1}}  # bit l of a subset is label l
    trees: dict[int, list[tuple[int, Iterable]]] = {}
    for labels in range(2, 2 << m, 2):
        low = labels & -labels
        trees[labels] = []  # per root r ascending: T's top key and its keys
        for r in range(low.bit_length() - 1, labels.bit_length()):
            if labels >> r & 1:
                # the fold under r expanded as weight_census expands a root
                below = (1 << r) - 1
                tree = Counter()
                for (imp, y1, eld, mask, _), count in folds[labels ^ 1 << r].items():
                    tree[imp + (mask & below).bit_count(),
                         mask.bit_count() if r == 1 else y1, eld] += count
                trees[labels].append((r if really else low.bit_length() - 1, tree.items()))
        fold: dict[tuple, int] = {}
        first = 0
        while first := (first - labels) & labels:  # the subsets A in ascending order
            rest = folds[labels ^ first].items()
            low = first & -first
            for key, tree in trees[first]:
                for (t_imp, t_y1, t_eld), count in tree:
                    for (imp, y1, eld, mask, top), rest_count in rest:
                        if t_y1 is not None:  # 1 is in A
                            y1 = t_y1
                        if top is not None and top < key:  # T is elder
                            k = (t_imp + imp, y1, t_eld + eld + 1, mask, top)
                        else:
                            k = (t_imp + imp, y1, t_eld + eld, mask | low, key)
                        fold[k] = fold.get(k, 0) + count * rest_count
        folds[labels] = fold
    out = Counter()
    for (imp, y1, eld, mask, _), count in folds[(2 << m) - 2].items():
        out[imp, y1, eld, mask] += count
    return out


def weight_census(n: int, root: int | None = None, *,
                  really: bool = False,
                  max_labels: int | None = None,
                  folds: Counter | None = None) -> dict[int, dict[tuple[int, int], int]]:
    """The fold of the forests on [n - 1] expanded per root, bucketed by improper count.

    Returns {k: {(young(1), eld): multiplicity}} over all trees on [n]
    (optionally root-constrained); the really-variant buckets by really
    improper count and uses (ryoung(1), reld).  Statistics compare labels
    only, so each root expands the counts of the forests on [n - 1],
    ``forest_folds(n - 1, really=really)``, which this computes unless the
    caller passes them as ``folds``; no tree is built.  Keys keep the order
    in which the stream of trees first meets them.  [n] must be non-empty,
    hold root and fit ``label_cap(max_labels)``.
    """
    _, roots = _checked(range(1, n + 1), root)
    check_label_count(n, max_labels)
    counts = forest_folds(n - 1, really=really, max_labels=max_labels) if folds is None else folds
    census: dict[int, dict[tuple[int, int], int]] = {}
    for r in roots:
        # root r is improper to the young top components of beta below r
        below = (1 << r) - 1
        for (imp, young1, eld, mask), count in counts.items():
            cells = census.setdefault(imp + (mask & below).bit_count(), {})
            key = (mask.bit_count() if r == 1 else young1, eld)
            cells[key] = cells.get(key, 0) + count
    return census


def census_poly(cells: Mapping[tuple[int, int], int], mode: str) -> Poly:
    """Collapse census cells to a polynomial in {x, t}; mode "o" uses x^(young-1)."""
    if mode not in ("o", "p"):
        raise ValueError(f"unknown census mode {mode!r}")
    terms: dict[tuple[int, int], int] = {}
    for (young1, eld), count in cells.items():
        expo = young1 - 1 if mode == "o" else young1
        if expo < 0:
            raise ValueError("mode 'o' needs young(1) >= 1 on every tree")
        key = (expo, eld)
        terms[key] = terms.get(key, 0) + count
    return Poly(QK_VARS, terms)


def multivar_universe(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1)) + ("t",)


def multivar_exponents(tree: PlaneTree, n: int) -> tuple[int, ...]:
    """Exponent tuple of t^eld * prod_i x_i^young(i) in multivar_universe(n)."""
    exps = [0] * (n + 1)
    stack = [tree]  # a plain stack loop: generating_poly reads every tree
    while stack:
        v = stack.pop()
        exps[v.label - 1] = v.young_self
        stack.extend(v.children)
    exps[-1] = tree.eld_sub
    return tuple(exps)


def generating_poly(n: int, root: int | None = None) -> Poly:
    """Sum of t^eld * prod_i x_i^young(i) over the plane trees on [n]
    (optionally root-constrained), in multivar_universe(n), from the stream
    of those trees: the reference ``rooted_generating_poly`` is checked
    against, which no identity calls."""
    trees = TreeEnumerator().trees(range(1, n + 1), root)
    terms = Counter(multivar_exponents(tree, n) for tree in trees)
    return Poly(multivar_universe(n), terms)


def young_census(m: int, *, elder: bool) -> dict[tuple[int, ...], int]:
    """The ordered forests on [m] counted by {(y_1, ..., y_m, top, eld): count},
    y_l the young children of label l, top the young top components and eld
    the elder vertices; with elder false every child and every component is
    young, so y is the degree sequence, top the component count and eld 0.
    The caller checks the label cap.

    No forest is built.  A forest on S is a tree T on a subset A rooted at r
    followed by a forest F on S - A, and T is young when F is empty or
    min A < min(S - A), that is when A holds S's smallest label.  So a DP
    over label bitmasks keeps per subset its trees and its forests counted by
    one packed key, a field of m's bit length per entry: T's keys are the
    forests on A - {r} with the top count moved to r's field, and a join adds
    T's key, F's key and 1 to the top count (young T) or to eld (elder T)."""
    width = m.bit_length()  # no entry exceeds m
    field = (1 << width) - 1
    top = width * m
    young_one = 1 << top
    elder_one = 1 << top + width if elder else young_one
    forests: dict[int, dict[int, int]] = {0: {0: 1}}  # bit i is label i + 1
    trees: dict[int, dict[int, int]] = {}
    for labels in range(1, 1 << m):
        tree: dict[int, int] = {}
        for r in range(labels.bit_length()):
            if labels >> r & 1:
                for key, count in forests[labels ^ 1 << r].items():
                    key = key & ~(field << top) | (key >> top & field) << width * r
                    tree[key] = tree.get(key, 0) + count
        trees[labels] = tree
        forest: dict[int, int] = {}
        low = labels & -labels
        first = 0
        while first := (first - labels) & labels:  # the nonempty subsets A
            rest = forests[labels ^ first].items()
            step = young_one if first & low else elder_one
            for tree_key, count in trees[first].items():
                tree_key += step
                for key, rest_count in rest:
                    key += tree_key
                    forest[key] = forest.get(key, 0) + count * rest_count
        forests[labels] = forest
    return {tuple(key >> width * i & field for i in range(m + 2)): count
            for key, count in forests[(1 << m) - 1].items()}


def rooted_generating_poly(n: int) -> Poly:
    """``generating_poly(n, n)``, the sum of t^eld * prod_i x_i^young(i) over
    the plane trees on [n] rooted at n; [n] is checked against the label cap
    first.  The trees rooted at n are n over the forests on [n - 1], whose
    keys in ``young_census(n - 1, elder=True)`` are those trees' exponents:
    the young top count is young(n).  No tree is built."""
    check_label_count(n)
    _checked(range(1, n + 1), n)
    return Poly(multivar_universe(n), young_census(n - 1, elder=True))


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


def leaf_profile(n: int) -> dict[int, int]:
    """Map leaf count -> number of labeled plane trees on [n] with that many leaves.

    A leaf count never reads the root, so the profile is n times that of the
    forests on [n - 1], each forest's leaf count being its components' summed,
    or 1 for the single vertex (an empty forest); no root node is built.  The
    forests are streamed: this is the reference the leaf profile of
    ``harness._leaf_statistics`` is checked against, which no identity calls."""
    enum = TreeEnumerator()
    enum.check_bound(_checked(range(1, n + 1), None)[0])
    profile: dict[int, int] = {}
    for forest in enum.forests(frozenset(range(1, n))):
        leaves = 0
        for c in forest:
            leaves += c.leaf_count
        leaves = leaves or 1
        profile[leaves] = profile.get(leaves, 0) + n
    return dict(sorted(profile.items()))


# -- increasing trees (no improper edges) ----------------------------------------


class _IncreasingTrees(TreeEnumerator):
    """Every subtree rooted at its smallest label: a first label set roots at
    its minimum only and, for rooted trees (children ascending), must hold the
    smallest label left, bit 0 of the mask."""

    _roots_per_set = 1

    def __init__(self, plane: bool):
        super().__init__()
        self._mask_step = 1 if plane else 2


def _increasing_trees(n: int, plane: bool) -> Iterator[PlaneTree]:
    """The increasing trees on [n] (none if n = 0), checked against the cap on the call."""
    enum = _IncreasingTrees(plane)
    labels = enum.check_bound(range(1, n + 1))
    return iter(enum.trees_rooted(labels, 1) if labels else ())


def increasing_plane_trees(n: int) -> Iterator[PlaneTree]:
    """All increasing plane trees on [n] (exactly the trees with no improper edge)."""
    return _increasing_trees(n, plane=True)


def increasing_rooted_trees(n: int) -> Iterator[PlaneTree]:
    """Increasing unordered trees on [n], one canonical plane form each
    (children ascending, i.e. the eld = 0 representatives)."""
    return _increasing_trees(n, plane=False)


def count_increasing_trees(n: int, plane: bool) -> int:
    """How many trees ``increasing_plane_trees(n)`` (plane) or
    ``increasing_rooted_trees(n)`` yields, after their cap check: the forests
    under vertex 1, split as ``_IncreasingTrees`` splits them."""
    check_label_count(n)
    forests = [1]  # by size m: k first labels, holding the smallest unless plane, then the rest
    for m in range(1, n):
        forests.append(sum((comb(m, k) if plane else comb(m - 1, k - 1))
                           * forests[k - 1] * forests[m - k] for k in range(1, m + 1)))
    return forests[-1] if n > 0 else 0
