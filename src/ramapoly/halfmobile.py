"""Half-mobile trees and forests, their statistics, and the theta bijection.

A half-mobile tree mixes *white* vertices (labeled; children unordered) and
*black* vertices (unlabeled; at least two children, all white, carrying a
cyclic order).  Canonical storage makes structural equality plain recursion:

* a white vertex's children are listed by ascending beta (beta of a node is
  the smallest white label in its subtree);
* a black vertex's cyclic order is stored as the unique linearization whose
  last child has the smallest beta;
* a forest is the plain tuple of its components, ascending by beta.

``theta`` maps plane trees rooted at 1 on [n+1] to forests on [n]: at every
vertex the children are cut into blocks ending at the right-to-left minima
of the child beta word, each block of length > 1 becomes a black vertex
carrying the block cyclically, then the root is deleted and labels shift
down by one.  It transports young(1) -> tree count, eld -> black degree
excess, and improper edge count -> improper edge count.

An :class:`HmNode` counts its subtree's improper edges and black-degree
excess when it is built, so ``hm_stats`` sums a forest's components into an
:class:`HmStats` named tuple, the cheapest record to build once per forest.

``enumerate_hm`` shares theta's work across one enumeration.  The
:class:`TreeEnumerator` reuses one object for every subtree of at most
``MEMO_LIMIT`` labels, so ``theta`` gets one dict that maps the id of each
such subtree to its image, its label bitmask and the subtree itself, which
keeps the id from being reused.  A shared subtree is converted, counted and
checked once, and the forests it yields share its image; larger subtrees
are converted fresh.  ``theta`` checks its label set by OR-ing the masks.

``enumerate_hm`` proves theta injective on its stream with a left inverse,
not with a set of every forest: an image entering the memo must expand, as
``theta_inv`` expands it, back to its subtree, and each forest's expansion
must be the images of the tree's children, matched by identity.

``hm_generating_poly`` is the one half-mobile census, x^(tree-1) y^imp t^bdeg
summed over the forests on [n]; ``thm-3-4`` reads it once per n, its per-k rows
too.  It is a DP over the definitions above, decomposing at the block that
holds the smallest label, so it builds no forest, reads no theta image and
checks Theorem 3.4 apart from theta; the sum over ``enumerate_hm``'s stream,
which converts every root-1 plane tree on [n+1], is the reference it is
tested against.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Iterator, Mapping, NamedTuple, Sequence

from .polyring import Poly
from .treecore import MEMO_LIMIT, PlaneTree, TreeEnumerator

HM_VARS = ("x", "y", "t")


class HmNode:
    """One half-mobile vertex; label None means black.  Children are stored
    as given: use :func:`white` / :func:`black` for canonical building and
    :func:`validate` to check an arbitrary instance.

    imp_sub and bdeg_sub count the improper edges and the black-degree
    excess inside the subtree, folded from the children at construction.
    The edge from a white vertex u to a white child c is improper when
    u > beta(c), and to a black child b when u > beta of b's last child; a
    black vertex adds deg - 1 to the excess, and as a component root it has
    no labeled father, so no improper edge.  A malformed node (a black vertex
    with no children, or under a black vertex) still builds.
    """

    __slots__ = ("label", "children", "beta", "imp_sub", "bdeg_sub")

    def __init__(self, label: int | None, children: Sequence["HmNode"] = ()):
        children = tuple(children)
        self.label = label
        self.children = children
        beta = label
        imp = bdeg = 0
        for c in children:
            imp += c.imp_sub
            bdeg += c.bdeg_sub
            c_beta = c.beta
            if c_beta is not None and (beta is None or c_beta < beta):
                beta = c_beta
            if label is not None:
                if c.label is None:  # the edge to a black child ends at its last child
                    c_beta = c.children[-1].beta if c.children else None
                if c_beta is not None and label > c_beta:
                    imp += 1
        self.beta = beta
        self.imp_sub = imp
        self.bdeg_sub = bdeg if label is not None else bdeg + len(children) - 1

    @property
    def is_white(self) -> bool:
        return self.label is not None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, HmNode):
            return NotImplemented
        return self.label == other.label and self.children == other.children

    def __hash__(self) -> int:
        return hash((self.label, self.children))

    def __repr__(self) -> str:
        head = f"white({self.label}" if self.is_white else "black("
        inner = ", ".join(repr(c) for c in self.children)
        if self.is_white and inner:
            return f"{head}, {inner})"
        return f"{head}{inner})"

    def white_labels(self) -> list[int]:
        out = [] if self.label is None else [self.label]
        for c in self.children:
            out.extend(c.white_labels())
        return out

    def to_obj(self) -> dict:
        if self.is_white:
            return {"kind": "white", "label": self.label,
                    "children": [c.to_obj() for c in self.children]}
        return {"kind": "black", "children": [c.to_obj() for c in self.children]}


def white(label: int, *children: HmNode) -> HmNode:
    """Canonical white vertex: children sorted by ascending beta."""
    return HmNode(label, tuple(sorted(children, key=lambda c: c.beta)))


def black(*children: HmNode) -> HmNode:
    """Canonical black vertex: the given cyclic order rotated so the child
    of smallest beta comes last."""
    if children:
        pos = min(range(len(children)), key=lambda idx: children[idx].beta)
        children = children[pos + 1:] + children[:pos + 1]
    return HmNode(None, children)


HmForest = tuple[HmNode, ...]   # a half-mobile forest: its components, ascending by beta


class HmStats(NamedTuple):
    imp: int
    tree: int
    bdeg: int


# -- validation ----------------------------------------------------------------


def validate(forest: HmForest) -> str | None:
    """None when every structural invariant holds, else the first violation
    with the path to the offending node."""

    def describe(node: HmNode) -> str:
        return f"white {node.label}" if node.is_white else "black"

    def check(node: HmNode, path: str) -> str | None:
        here = f"{path}/{describe(node)}"
        if node.is_white:
            betas = [c.beta for c in node.children]
            if betas != sorted(betas):
                return f"{here}: white children not sorted by beta"
        else:
            if len(node.children) < 2:
                return f"{here}: black vertex with fewer than two children"
            if not all(c.is_white for c in node.children):
                return f"{here}: black vertex with an unlabeled child"
            last = node.children[-1]
            if any(c.beta < last.beta for c in node.children):
                return f"{here}: last child of black vertex lacks minimal beta"
        for c in node.children:
            problem = check(c, here)
            if problem:
                return problem
        return None

    labels = [label for comp in forest for label in comp.white_labels()]
    if len(labels) != len(set(labels)):
        return "forest: duplicate white labels"
    betas = [c.beta for c in forest]
    if betas != sorted(betas):
        return "forest: components not sorted by beta"
    for idx, comp in enumerate(forest):
        problem = check(comp, f"component {idx}")
        if problem:
            return problem
    return None


def hm_stats(forest: HmForest) -> HmStats:
    """(imp, tree, bdeg) of the forest: its components' cached counts summed."""
    imp = bdeg = 0
    for comp in forest:
        imp += comp.imp_sub
        bdeg += comp.bdeg_sub
    return HmStats(imp=imp, tree=len(forest), bdeg=bdeg)


# -- theta ------------------------------------------------------------------------


_LABEL_SET_ERROR = "theta needs the label set {1, ..., n+1}"
# enumerate_hm's memo: id of each shared subtree -> its image, its label
# bitmask and the subtree itself, which the entry keeps alive, so no id is
# reused while the memo lives
_Memo = dict[int, tuple[HmNode, int, PlaneTree]]


def _to_hm(v: PlaneTree, memo: _Memo | None, top: int) -> tuple[HmNode, int, PlaneTree]:
    """v's image with its label shifted down by one, the bitmask of v's
    labels, and v.  With a memo, a node of at most MEMO_LIMIT labels (the
    subtrees the enumerator shares) is converted and checked once and then
    reused; larger nodes are converted fresh."""
    shared = memo is not None and v.size <= MEMO_LIMIT
    if shared:
        hit = memo.get(id(v))
        if hit is not None:
            return hit
    # a label is range-checked before it is shifted into a mask, so no mask
    # has a bit above the size of the tree it was first built for
    label = v.label
    if not 0 < label <= top:
        raise ValueError(_LABEL_SET_ERROR)
    blocks, mask = _hm_blocks(v, memo, top)
    entry = HmNode(label - 1, blocks), mask | 1 << label, v
    if shared:
        _enter(memo, entry)
    return entry


def _hm_blocks(v: PlaneTree, memo: _Memo | None, top: int) -> tuple[tuple[HmNode, ...], int]:
    """v's children cut into blocks that end at the right-to-left minima of
    the child beta word (a block of one child stays white, a longer one
    becomes a black vertex), and the OR of the children's label masks."""
    # read right to left: a child with a beta below every beta to its right
    # ends a block, so it closes the block gathered since the previous one
    blocks = []
    block: list[HmNode] = []
    mask = 0
    min_right = None
    for c in reversed(v.children):
        image, c_mask, _ = _to_hm(c, memo, top)
        mask |= c_mask
        if min_right is None or c.beta < min_right:
            if block:
                blocks.append(block[0] if len(block) == 1 else HmNode(None, block[::-1]))
            block = [image]
            min_right = c.beta
        else:
            block.append(image)
    if block:
        blocks.append(block[0] if len(block) == 1 else HmNode(None, block[::-1]))
    blocks.reverse()
    return tuple(blocks), mask


def theta(tree: PlaneTree, *, _memo: _Memo | None = None) -> HmForest:
    """Plane tree rooted at 1 on [n+1] -> half-mobile forest on [n].

    The n + 1 labels are exactly {1, ..., n+1} when each lies in that range
    and their bitmask is full; both are checked during the conversion.

    ``_memo`` is private to :func:`enumerate_hm`: a dict shared across one
    enumeration that maps each small subtree, by id, to its checked image
    and label mask."""
    if tree.label != 1:
        raise ValueError(f"theta needs root 1, got root {tree.label}")
    size = tree.size
    blocks, mask = _hm_blocks(tree, _memo, size)
    if mask | 2 != (1 << size + 1) - 2:
        raise ValueError(_LABEL_SET_ERROR)
    return blocks


def _expand(images: Sequence[HmNode]) -> list[HmNode]:
    """theta_inv's expansion of one level: a white node is itself, a black
    node is its children in stored order."""
    out: list[HmNode] = []
    for w in images:
        if w.label is None:
            out.extend(w.children)
        else:
            out.append(w)
    return out


def theta_inv(forest: HmForest) -> PlaneTree:
    """Inverse of theta; the forest must validate."""
    problem = validate(forest)
    if problem:
        raise ValueError(problem)
    labels = [label for comp in forest for label in comp.white_labels()]
    if set(labels) != set(range(1, len(labels) + 1)):
        raise ValueError("theta_inv needs white labels {1, ..., n}")

    def to_plane(w: HmNode) -> PlaneTree:
        return PlaneTree(w.label + 1, map(to_plane, _expand(w.children)))

    return PlaneTree(1, map(to_plane, _expand(forest)))


# -- enumeration -------------------------------------------------------------------


def _rebuilds(images: Sequence[HmNode], children: tuple[PlaneTree, ...], memo: _Memo) -> bool:
    """True when theta_inv's expansion of images gives back children.  A
    child in the memo must be matched by its entry's checked image itself;
    any other is expanded recursively."""
    expanded = _expand(images)
    if len(expanded) != len(children):
        return False
    for w, c in zip(expanded, children):
        entry = memo.get(id(c))
        if entry is None:
            if w.label is None or w.label + 1 != c.label \
                    or not _rebuilds(w.children, c.children, memo):
                return False
        elif entry[0] is not w:
            return False
    return True


def _enter(memo: _Memo, entry: tuple[HmNode, int, PlaneTree]) -> None:
    """Enter (image, mask, v) in the memo once the image expands back to v;
    v's children entered the memo before it, so only their images are
    compared."""
    image, _, v = entry
    if not _rebuilds((image,), (v,), memo):
        raise RuntimeError(f"theta collision on {image!r}, the image of subtree "
                           f"{v!r}: theta_inv does not give the subtree back")
    memo[id(v)] = entry


def enumerate_hm(n: int) -> Iterator[HmForest]:
    """All half-mobile forests on [n], produced as theta images of the
    root-1 plane trees on [n+1].

    theta is proved injective on the stream by a left inverse: each forest
    must expand back, as theta_inv expands it, to the tree it came from, and
    a forest that does not raises.  The check holds no forest: a subtree's
    image is checked once, when it enters theta's memo, and a forest's
    components are then matched by identity with the entries of the tree's
    children; only images of larger subtrees are expanded recursively."""
    memo: _Memo = {}
    for tree in TreeEnumerator().trees(range(1, n + 2), root=1):
        forest = theta(tree, _memo=memo)
        if not _rebuilds(forest, tree.children, memo):
            raise RuntimeError(f"theta collision on {forest!r}, the image of "
                               f"{tree!r}: theta_inv does not give the tree back")
        yield forest


def enumerate_hm_direct(n: int) -> Iterator[HmForest]:
    """Independent recursive generator of all half-mobile forests on [n],
    used to check theta's surjectivity against :func:`enumerate_hm`."""

    def set_partitions(labels: frozenset[int]) -> Iterator[list[frozenset[int]]]:
        if not labels:
            yield []
            return
        first_min = min(labels)
        rest = sorted(labels - {first_min})
        for mask in range(1 << len(rest)):
            head = frozenset([first_min] + [e for i, e in enumerate(rest) if mask >> i & 1])
            for tail in set_partitions(labels - head):
                yield [head] + tail

    def compositions(labels: frozenset[int]) -> Iterator[list[frozenset[int]]]:
        if not labels:
            yield []
            return
        elems = sorted(labels)
        for mask in range(1, 1 << len(elems)):
            head = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
            for tail in compositions(labels - head):
                yield [head] + tail

    def white_trees(labels: frozenset[int]) -> Iterator[HmNode]:
        for root in sorted(labels):
            for part in set_partitions(labels - {root}):
                for kids in product(*map(hm_trees, part)):
                    yield HmNode(root, kids)   # blocks ascend by min == beta

    def hm_trees(labels: frozenset[int]) -> Iterator[HmNode]:
        yield from white_trees(labels)
        # black root: >= 2 children, each a white-rooted tree; the cyclic
        # order is stored rotated so the smallest beta sits last, so the
        # last block holds min(labels) and the rest is any ordered sequence.
        low = min(labels)
        others = sorted(labels - {low})
        for mask in range(1 << len(others)):
            last_block = frozenset([low] + [e for i, e in enumerate(others) if mask >> i & 1])
            remainder = labels - last_block
            if not remainder:
                continue
            for blocks in compositions(remainder):
                for kids in product(*map(white_trees, blocks + [last_block])):
                    yield HmNode(None, kids)

    for part in set_partitions(frozenset(range(1, n + 1))):
        yield from product(*map(hm_trees, part))


def hm_generating_poly(n: int) -> Poly:
    """Sum of x^(tree-1) y^imp t^bdeg over all half-mobile forests on [n],
    by a DP over the definitions: no forest is built and no theta image read.

    Every statistic compares labels only, so each family below counts the
    structures on any m labels by their relative order (Chen & Guo,
    "Bijections behind the Ramanujan polynomials", Adv. Appl. Math. 27, 2001):

    * Kids(m, j): the children of a white parent p on m labels, j of them
      below p, as a set of blocks (white trees and black vertices).  The block
      holding the smallest label mu has its edge to p improper iff j >= 1; the
      other s - 1 labels of that block and the m - s of the rest are drawn from
      the small labels (below p, mu aside) and the large ones;
    * White(s) = sum over the root's rank r of Kids(s - 1, r);
    * Black(s): the child holding the smallest label is stored last, the others
      are an ordered sequence Seq of at least one white tree, each with t;
    * the forest: the component holding the smallest label, then the rest,
      with x per component after the first.
    """
    if n < 1:
        raise ValueError(f"hm_generating_poly needs n >= 1, got {n}")
    zero, one = Poly.zero(HM_VARS), Poly.const(HM_VARS, 1)
    x, y, t = (Poly.var(HM_VARS, v) for v in HM_VARS)
    # by size: kids[m][j], whites[s], blocks[s] (white or black) and seqs[a]
    kids, whites, blocks, seqs = [[one]], [zero], [zero], [one]

    def kid_sets(m: int, j: int) -> Poly:
        small, large = (j - 1, m - j) if j else (0, m - 1)
        total = sum((blocks[s] * sum((kids[m - s][jr] * (comb(small, jr) * comb(large, m - s - jr))
                                      for jr in range(m - s + 1)), zero)
                     for s in range(1, m + 1)), zero)
        return y * total if j else total

    for s in range(1, n + 1):
        whites.append(sum(kids[s - 1], zero))
        blocks.append(whites[s] + sum((whites[s1] * seqs[s - s1] * comb(s - 1, s1 - 1)
                                       for s1 in range(1, s)), zero))
        seqs.append(t * sum((whites[k] * seqs[s - k] * comb(s, k) for k in range(1, s + 1)), zero))
        if s < n:
            kids.append([kid_sets(s, j) for j in range(s + 1)])
    forests = [one]         # forests[m]: x^(tree-1) summed over the forests on m labels
    for m in range(1, n + 1):
        forests.append(sum((blocks[s] * (x * forests[m - s] if s < m else one) * comb(m - 1, s - 1)
                            for s in range(1, m + 1)), zero))
    return forests[n]


# -- JSON ---------------------------------------------------------------------------


def node_from_obj(obj: Mapping) -> HmNode:
    if not isinstance(obj, Mapping):
        raise ValueError(f"half-mobile node must be a mapping, got {type(obj).__name__}")
    kind = obj.get("kind")
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise ValueError(f"'children' must be a list, got {type(children).__name__}")
    children = tuple(node_from_obj(c) for c in children)
    if kind == "white":
        label = obj.get("label")
        if not isinstance(label, int) or isinstance(label, bool) or label < 1:
            raise ValueError(f"white node needs a positive integer label, got {label!r}")
        return HmNode(label, children)
    if kind == "black":
        return HmNode(None, children)
    raise ValueError(f"unknown node kind {kind!r}")


def forest_to_obj(forest: HmForest) -> dict:
    return {"components": [c.to_obj() for c in forest]}


def forest_from_obj(obj: Mapping) -> HmForest:
    if not isinstance(obj, Mapping) or not isinstance(obj.get("components"), list):
        raise ValueError("forest object needs a 'components' list")
    return tuple(node_from_obj(c) for c in obj["components"])
