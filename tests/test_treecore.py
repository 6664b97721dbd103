import hashlib
import json
import random
from collections import Counter
from functools import partial
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies
from stream_fold import _forest_fold, stream_folds
from stream_perms import gdes, stream_gdes

from ramapoly import cli, fixtures, harness
from ramapoly import forests as fo
from ramapoly import treecore as tc
from ramapoly.polyring import Poly, parse
from ramapoly.treecore import BoundExceeded, TreeEnumerator, node, stats, tree_from_obj


def labels(n):
    return frozenset(range(1, n + 1))


def test_gdes_examples():
    assert gdes([3, 6, 1, 4, 5, 8, 7]) == 3
    assert gdes([1, 2, 3]) == 0
    assert gdes([3, 2, 1]) == 2
    assert gdes([]) == 0
    with pytest.raises(ValueError):
        gdes([2, 2])


@given(strategies.lists(strategies.integers(-40, 40), unique=True, max_size=12))
@settings(max_examples=300, deadline=None)
def test_gdes_is_its_definition(word):
    above_a_smaller = sum(any(later < entry for later in word[i + 1:])
                          for i, entry in enumerate(word))
    assert gdes(word) == above_a_smaller
    assert gdes(tuple(word)) == len(word) - len(tc.right_to_left_minima(word))


def test_gdes_census_is_the_stream():
    for n in range(8):
        census = tc.gdes_census(n)
        assert list(census.items()) == sorted(stream_gdes(n).items()), n
        assert sum(census.values()) == factorial(n), n
        assert census[0] == 1, n   # only the increasing word has no general descent


def test_single_vertex():
    t = node(3)
    assert t.eld_sub == 0 and t.imp_sub == 0
    st = stats(t)
    assert st.increasing and st.leaves == {3}


def test_enumerate_counts(enum):
    assert sum(1 for _ in enum.trees([3])) == 1
    assert sum(1 for _ in enum.trees(labels(4), root=1)) == 30
    assert sum(1 for t in enum.trees(labels(4), root=1) if t.imp_sub == 1) == 12
    for n in range(1, 6):
        count = sum(1 for _ in enum.trees(labels(n)))
        assert count == factorial(2 * n - 2) // factorial(n - 1)


def test_enumeration_is_deterministic(enum):
    first = [t for t in enum.trees(labels(3))]
    second = [t for t in enum.trees(labels(3))]
    assert first == second
    assert first[0] == node(1, node(2), node(3))


def test_each_tree_once(enum):
    seen = set()
    for t in enum.trees(labels(5)):
        assert t not in seen
        seen.add(t)
    assert len(seen) == factorial(8) // factorial(4)


def test_reference_tree_statistics():
    t = tree_from_obj(fixtures.load("tree14.json"))
    st = stats(t)
    assert st.elder_vertices == {3, 8, 9, 11, 12, 13}
    assert st.improper_edges == {(3, 14), (4, 1), (6, 5), (10, 4), (14, 2), (14, 7)}
    assert st.beta[14] == 2 and st.beta[4] == 1 and st.beta[8] == 8
    assert st.eld_total == 6 and not st.increasing
    assert t.eld_sub == 6 and t.imp_sub == 6


def test_stats_invariants(enum):
    for t in enum.trees(labels(5)):
        st = stats(t)
        n = t.size
        assert sum(st.deg.values()) == n - 1
        assert st.eld_total <= n - 2
        for v in st.beta:
            assert st.beta[v] <= v
            assert st.young_per_vertex[v] + st.eld_per_vertex[v] == st.deg[v]
        # the node's own fields against the bundle's right-to-left minima
        for v in t.walk():
            assert v.young_self == st.young_per_vertex[v.label]
            assert v.ryoung_self == st.ryoung_per_vertex[v.label]
        assert (st.increasing) == (t.imp_sub == 0)
        assert st.eld_total == t.eld_sub
        assert st.reld_total == t.reld_sub
        assert len(st.improper_edges) == t.imp_sub
        assert len(st.really_improper_edges) == t.rimp_sub


def test_eld_equals_gdes_of_beta_word(enum):
    for t in enum.trees(labels(5)):
        for v in t.walk():
            word = [c.beta for c in v.children]
            st = stats(t)
            assert st.eld_per_vertex[v.label] == gdes(word)
            break  # one vertex per tree keeps this fast; the root is enough


def test_generating_poly_examples():
    o41 = tc.census_poly(tc.weight_census(4, root=1)[1], "o")
    assert o41 == parse("3x+4+5t", tc.QK_VARS)
    p31 = tc.census_poly(tc.weight_census(3)[1], "p")
    assert p31 == parse("3x+1+2t", tc.QK_VARS)
    with pytest.raises(ValueError):
        tc.census_poly({(1, 0): 1}, "q")
    uni = tc.multivar_universe(3)
    p3 = tc.generating_poly(3)
    assert p3 == parse("(x1+x2+x3)(x1+x2+x3+t)", uni)


def test_census_matches_generating_poly(enum):
    for n, root in ((4, 1), (4, None), (5, 2)):
        census = tc.weight_census(n, root=root)
        trees = list(enum.trees(labels(n), root))
        # each improper-count bucket equals a recount of the filtered trees
        assert set(census) <= set(range(n))
        for k in range(n):
            recount = {}
            for t in trees:
                if t.imp_sub == k:
                    key = (t.young_at_1, t.eld_sub)
                    recount[key] = recount.get(key, 0) + 1
            assert census.get(k, {}) == recount, (n, root, k)
        # pooled over k, the census is the multivariate sum at x1 = x and
        # every other x_i = 1
        pooled = sum((tc.census_poly(cells, "p") for cells in census.values()),
                     Poly.zero(tc.QK_VARS))
        uni = tc.multivar_universe(n) + ("x",)
        image = {f"x{i}": 1 for i in range(2, n + 1)} | {"x1": Poly.var(uni, "x")}
        specialized = tc.generating_poly(n, root).extend(uni).substitute(image)
        assert specialized == pooled.extend(uni), (n, root)


def test_leaf_profile():
    assert tc.leaf_profile(2) == {1: 2}
    profile = tc.leaf_profile(4)
    assert {k: v // factorial(4) for k, v in profile.items()} == {1: 1, 2: 3, 3: 1}
    total5 = sum(tc.leaf_profile(5).values())
    assert total5 // factorial(5) == 14  # all shapes on 5 vertices


def test_leaf_set_count_against_enumeration(enum):
    # each tree's leaf set is counted once and read for every k; the leaf
    # DP's exact leaf sets are checked against the forest stream to m = 7
    for m in (3, 4, 5, 6):
        n = m - 1
        leaf_sets = Counter(frozenset(v.label for v in t.walk() if not v.children)
                            for t in enum.trees(labels(m)))
        for k in range(1, n + 1):
            assert leaf_sets[labels(k)] == tc.leaf_set_count(n, k), (m, k)


def test_increasing_generators():
    from ramapoly.qpolys import odd_double_factorial
    for n in range(1, 7):
        plane = list(tc.increasing_plane_trees(n))
        assert len(plane) == odd_double_factorial(2 * n - 3)
        assert all(t.imp_sub == 0 for t in plane)
        assert len(set(plane)) == len(plane)
        rooted = list(tc.increasing_rooted_trees(n))
        assert len(rooted) == factorial(n - 1)
        assert all(t.eld_sub == 0 and t.imp_sub == 0 for t in rooted)


def test_increasing_generators_read_the_cap(monkeypatch):
    # checked on the call, before any tree is built
    cap = tc.label_cap()
    for generator in (tc.increasing_plane_trees, tc.increasing_rooted_trees):
        with pytest.raises(BoundExceeded):
            generator(cap + 1)
    monkeypatch.setenv(tc.ENV_MAX_LABELS, "3")
    with pytest.raises(BoundExceeded):
        tc.increasing_plane_trees(4)
    assert sum(1 for _ in tc.increasing_plane_trees(3)) == 3


def test_increasing_counts_match_the_generators(monkeypatch):
    for n in range(8):
        assert tc.count_increasing_trees(n, plane=True) == sum(
            1 for _ in tc.increasing_plane_trees(n))
        assert tc.count_increasing_trees(n, plane=False) == sum(
            1 for _ in tc.increasing_rooted_trees(n))
    for plane in (True, False):
        with pytest.raises(BoundExceeded):
            tc.count_increasing_trees(tc.label_cap() + 1, plane)
    monkeypatch.setenv(tc.ENV_MAX_LABELS, "3")
    for plane in (True, False):
        with pytest.raises(BoundExceeded):
            tc.count_increasing_trees(4, plane)
    assert tc.count_increasing_trees(3, plane=True) == 3


def test_bound_cap(monkeypatch):
    small = TreeEnumerator(max_labels=4)
    with pytest.raises(BoundExceeded):
        list(small.trees(labels(5)))
    monkeypatch.setenv(tc.ENV_MAX_LABELS, "3")
    env_bound = TreeEnumerator()
    with pytest.raises(BoundExceeded):
        list(env_bound.trees(labels(4)))
    assert sum(1 for _ in env_bound.trees(labels(3))) == 12


def test_json_round_trip():
    t = node(2, node(5, node(1)), node(3))
    assert tree_from_obj(t.to_obj()) == t
    with pytest.raises(ValueError):
        tree_from_obj({"label": 1, "children": [{"label": 1, "children": []}]})
    with pytest.raises(ValueError):
        tree_from_obj({"children": []})
    with pytest.raises(ValueError):
        tree_from_obj({"label": 0, "children": []})


def test_really_statistics_on_reference_tree():
    t = tree_from_obj(fixtures.load("tree14_label_ordered.json"))
    st = stats(t)
    assert st.really_elder_vertices == {4, 8, 13, 14, 11, 12}
    assert st.reld_total == 6
    assert len(st.really_improper_edges) == 5  # one fewer than the preimage


# -- lazy fields -------------------------------------------------------------------


def rebuild(t):
    """A fresh copy of t: no node shared with t, nothing lazy filled in."""
    return tc.PlaneTree(t.label, [rebuild(c) for c in t.children])


def really_reference(t):
    """(ryoung_self, reld_sub, rimp_sub, ryoung_at_1) of t from the
    right-to-left minima of each vertex's child label word."""
    ryoung = {}
    reld = rimp = 0
    for v in t.walk():
        younger = tc.right_to_left_minima([c.label for c in v.children])
        ryoung[v.label] = len(younger)
        reld += len(v.children) - len(younger)
        rimp += sum(1 for i in younger if v.label > min(v.children[i].labels()))
    return ryoung[t.label], reld, rimp, ryoung.get(1)


def really_fields(t):
    return t.ryoung_self, t.reld_sub, t.rimp_sub, t.ryoung_at_1


def test_really_fields_match_reference_whatever_is_read_first(enum):
    trees = list(enum.trees(labels(5))) + list(enum.trees(labels(6), root=1))
    assert len(trees) == 1680 + 5040
    for t in trees:
        expected = {v.label: really_reference(v) for v in t.walk()}
        root_first = rebuild(t)
        subtrees_first = rebuild(t)
        for v in root_first.walk():
            assert really_fields(v) == expected[v.label], (t, v.label)
        for v in list(subtrees_first.walk())[::-1]:
            assert really_fields(v) == expected[v.label], (t, v.label)
        assert really_fields(t) == expected[t.label]


def test_lazy_hash_and_equality(enum):
    for t in enum.trees(labels(4)):
        assert hash(t) == hash((t.label, t.children))
        twin = rebuild(t)
        assert twin is not t and twin == t and hash(twin) == hash(t)
        assert len({t, twin}) == 1
    t = node(3, node(1, node(4)), node(2))
    table = {t: "tree"}
    probe = rebuild(t)
    assert table[probe] == "tree"
    really_fields(t)
    really_fields(probe)
    assert table[t] == table[rebuild(t)] == "tree" and hash(t) == hash(probe)
    assert node(1, node(2), node(3)) != node(1, node(3), node(2))


# -- enumeration guards --------------------------------------------------------------


def reference_grow_increasing(n, plane):
    """Increasing trees by full rebuild: each tree on [k-1] takes k under
    every vertex, at every child position if plane (else last), and every
    yielded tree is built anew from the children lists."""
    children = {1: []}

    def build(v):
        return tc.PlaneTree(v, [build(c) for c in children[v]])

    def rec(k):
        if k > n:
            yield build(1)
            return
        for v in list(children):
            row = children[v]
            for pos in range(len(row) + 1) if plane else (len(row),):
                row.insert(pos, k)
                children[k] = []
                yield from rec(k + 1)
                del children[k]
                row.pop(pos)

    if n >= 1:
        yield from rec(2)


def test_increasing_trees_match_full_rebuild():
    # the same trees as the insertion order gives, each once, in another order
    for n in range(0, 8):
        for plane, generator in ((True, tc.increasing_plane_trees),
                                 (False, tc.increasing_rooted_trees)):
            trees = list(generator(n))
            assert len(set(trees)) == len(trees)
            assert Counter(trees) == Counter(reference_grow_increasing(n, plane))


def test_increasing_trees_meet_the_definition():
    # read from the children tuples, not from the cached imp_sub: every child
    # is above its parent, and a rooted tree's children ascend
    for n in range(1, 8):
        for plane, generator in ((True, tc.increasing_plane_trees),
                                 (False, tc.increasing_rooted_trees)):
            for tree in generator(n):
                assert tree.label == 1 and tree.size == n
                for v in tree.walk():
                    row = [c.label for c in v.children]
                    assert all(v.label < c for c in row)
                    assert plane or row == sorted(row)


@pytest.mark.parametrize("generator,digest", [
    (tc.increasing_plane_trees, "d3b21e0b84c29677933ed8f6ba69f755db2ace690a21d9c413344e4b95c028cf"),
    (tc.increasing_rooted_trees, "788e663c210d6fc09f9598d66e4c5e6baf4f8c337694501e4bdb868be05b2faa"),
], ids=["plane", "rooted"])
def test_increasing_order_is_pinned(generator, digest):
    text = "\n".join(map(repr, generator(6)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.fixture
def constructions(monkeypatch):
    """Counts PlaneTree constructions while the test runs."""
    count = [0]
    init = tc.PlaneTree.__init__

    def counting(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(tc.PlaneTree, "__init__", counting)
    return count


def test_increasing_trees_rebuild_only_the_path(constructions):
    assert sum(1 for _ in tc.increasing_plane_trees(7)) == 10395
    # the subtrees on at most MEMO_LIMIT labels are shared; a path rebuild
    # per inserted vertex made 22,488 and a full rebuild per tree 72,765
    assert constructions[0] <= 12276


def test_stream_shares_memo_subtrees(constructions):
    enum = TreeEnumerator()
    assert sum(1 for _ in enum.trees(labels(7))) == 665280
    assert constructions[0] == 916909
    # every forest on at most MEMO_LIMIT labels, the 5-label rests included,
    # is read from the memo, not streamed again
    assert len(enum._forest_memo) == sum(comb(7, i) for i in range(tc.MEMO_LIMIT + 1))


# -- the forest stream and the root-free readers ---------------------------------------


def reference_forest_stream(enum, labels):
    """The ordered forests on labels by a recursive generator, one resume
    per forest (the order and sharing the library must keep)."""
    if not labels:
        yield ()
        return
    elems = sorted(labels)
    for mask in range(1, 1 << len(elems)):
        first_set = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
        rest = labels - first_set
        for root in sorted(first_set):
            for first in enum.trees_rooted(first_set, root):
                for tail in enum.forests(rest):
                    yield (first,) + tail


def test_forest_stream_matches_reference():
    enum = TreeEnumerator()
    for size in range(7):
        for subset in combinations(range(1, 7), size):
            subset = frozenset(subset)
            got = list(enum.forests(subset))
            want = list(reference_forest_stream(enum, subset))
            assert len(got) == len(want), subset
            for forest, ref in zip(got, want):
                assert forest == ref, subset
                # components on at most MEMO_LIMIT labels come from the memo;
                # a larger one is a fresh root over memo subtrees
                for a, b in zip(forest, ref):
                    if a.size <= tc.MEMO_LIMIT:
                        assert a is b, (subset, ref)
                    assert all(x is y for x, y in zip(a.children, b.children)), (subset, ref)
    assert len(got) == 95040  # the forests on [6]


def test_forest_stream_with_streamed_rests(monkeypatch):
    # with a small memo, the rest after a first component is a stream too
    monkeypatch.setattr(tc, "MEMO_LIMIT", 2)
    enum = TreeEnumerator()
    for n in range(7):
        assert list(enum.forests(labels(n))) == list(reference_forest_stream(enum, labels(n)))
    assert tc.count_trees(labels(6)) == factorial(10) // factorial(5)


def per_tree_census(enum, n, root, really):
    """weight_census as a loop over the streamed root nodes, bucket by bucket."""
    recount = {}
    for t in enum.trees(labels(n), root):
        if really:
            k, key = t.rimp_sub, (t.ryoung_at_1, t.reld_sub)
        else:
            k, key = t.imp_sub, (t.young_at_1, t.eld_sub)
        cells = recount.setdefault(k, {})
        cells[key] = cells.get(key, 0) + 1
    return recount


def ordered(census):
    return [(k, list(cells.items())) for k, cells in census.items()]


def assert_census_matches_per_tree_loop(enum, really):
    # the free trees on [n], the root-1 trees on [n+1] and the trees on [n]
    # under each single root; keys in the same order
    for n in range(1, 7):
        cases = [(n, None), (n + 1, 1)]
        cases += [(n, root) for root in range(1, n + 1)]
        for size, root in cases:
            got = tc.weight_census(size, root, really=really)
            assert ordered(got) == ordered(per_tree_census(enum, size, root, really)), (n, root)


def test_really_census_matches_per_tree_recount(enum):
    assert_census_matches_per_tree_loop(enum, really=True)


def test_plain_census_matches_per_tree_recount(enum):
    assert_census_matches_per_tree_loop(enum, really=False)


def relabeled(tree, shift_from):
    """The tree with every label >= shift_from raised by one."""
    label = tree.label + (tree.label >= shift_from)
    return tc.PlaneTree(label, [relabeled(c, shift_from) for c in tree.children])


@pytest.mark.parametrize("really", [False, True], ids=["plain", "really"])
@pytest.mark.parametrize("memo_limit", [tc.MEMO_LIMIT, 2])
def test_forest_fold_matches_plane_tree(monkeypatch, memo_limit, really):
    # each forest on [n - 1] under a root of every rank i: the labels above i
    # move up by one and the root takes label i + 1
    monkeypatch.setattr(tc, "MEMO_LIMIT", memo_limit)
    enum = TreeEnumerator()
    for n in range(1, 7):
        for forest in enum.forests(labels(n - 1)):
            imp, young1, eld, mask = _forest_fold(forest, really)
            for i in range(n):
                t = tc.PlaneTree(i + 1, [relabeled(c, i + 1) for c in forest])
                want = ((t.rimp_sub, t.ryoung_at_1, t.reld_sub) if really
                        else (t.imp_sub, t.young_at_1, t.eld_sub))
                got = (imp + (mask & (2 << i) - 1).bit_count(),
                       mask.bit_count() if i == 0 else young1, eld)
                assert got == want, (t, really)


@pytest.mark.parametrize("really", [False, True], ids=["plain", "really"])
def test_forest_folds_match_the_stream_fold(enum, really):
    # the subset DP meets each key where the stream first does, so the items
    # agree in order, not only as counts
    for m in range(7):
        assert (list(tc.forest_folds(m, really=really).items())
                == list(stream_folds(m, really, enum).items())), m


def test_forest_folds_build_no_forest_and_check_the_cap_first(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a tree or forest was built")
    monkeypatch.setattr(TreeEnumerator, "forests", refuse)
    monkeypatch.setattr(tc.PlaneTree, "__init__", refuse)
    for really in (False, True):
        assert sum(tc.forest_folds(6, really=really).values()) == tc.forest_count(6)
        assert (sum(tc.forest_folds(4, really=really, max_labels=4).values())
                == tc.forest_count(4))
        with pytest.raises(BoundExceeded):
            tc.forest_folds(5, really=really, max_labels=4)


def test_rooted_generating_poly_is_the_root_n_stream():
    for n in range(1, 8):
        assert tc.rooted_generating_poly(n) == tc.generating_poly(n, n), n


def test_tree_dps_build_no_tree_and_check_the_cap_first(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a tree or forest was built")
    monkeypatch.setattr(TreeEnumerator, "forests", refuse)
    monkeypatch.setattr(tc.PlaneTree, "__init__", refuse)
    def trees(poly):
        return poly.evaluate(dict.fromkeys(poly.universe, 1))
    # the packed DP's readers: the rooted sums, the degree census and the
    # leaf statistics, which count each forest on [m - 1] once per root
    assert trees(tc.rooted_generating_poly(7)) == tc.forest_count(6)
    assert sum(fo.degree_census(6).values()) == tc.forest_count(6)
    assert sum(harness._leaf_statistics(7)[0].values()) == 7 * tc.forest_count(6)
    monkeypatch.setenv("RAMAPOLY_MAX_LABELS", "4")
    assert trees(tc.rooted_generating_poly(4)) == tc.forest_count(3)
    assert sum(fo.degree_census(4).values()) == tc.forest_count(4)
    assert sum(harness._leaf_statistics(4)[0].values()) == 4 * tc.forest_count(3)
    # the packed DP's work starts with a range loop, so with range refused
    # too a BoundExceeded shows that [5] was refused before any work
    monkeypatch.setattr(tc, "range", refuse, raising=False)
    for read in (lambda: tc.rooted_generating_poly(5), lambda: fo.degree_census(5),
                 lambda: harness._leaf_statistics(5)):
        with pytest.raises(BoundExceeded, match="^label set of size 5 exceeds cap 4 "):
            read()


def test_census_dps_check_their_input_and_cap(enum):
    for read in (lambda: tc.weight_census(3, max_labels=0),
                 lambda: tc.forest_folds(2, max_labels=0)):
        with pytest.raises(ValueError, match="max_labels"):
            read()
    # weight_census names its input as the stream of trees does
    for read in (lambda: tc.weight_census(0), lambda: tc.weight_census(0, 1),
                 lambda: harness._leaf_statistics(0), lambda: tc.rooted_generating_poly(0),
                 lambda: enum.trees(labels(0))):
        with pytest.raises(ValueError, match="^empty label set$"):
            read()
    for root in (4, 0):
        for read in (lambda: tc.weight_census(3, root), lambda: enum.trees(labels(3), root)):
            with pytest.raises(ValueError, match=f"^root {root} not in label set$"):
                read()
    # [0] holds one forest, the empty one, which the packed DP and the
    # degree census count
    assert fo.degree_census(0) == Counter({(): 1})
    for elder in (False, True):
        assert tc.young_census(0, elder=elder) == {(0, 0): 1}


def test_count_trees_matches_stream(enum):
    for m in range(1, 7):
        assert tc.count_trees(labels(m)) == len(list(enum.trees(labels(m))))
        for root in (1, m):
            assert (tc.count_trees(labels(m), root)
                    == len(list(enum.trees(labels(m), root))))


def test_unrank_matches_stream(enum):
    for n in range(1, 7):
        for root in (None, 1):
            stream = list(enum.trees(labels(n), root))
            assert len(stream) == (n if root is None else 1) * tc.forest_count(n - 1)
            assert [tc.unrank(labels(n), rank, root) for rank in range(len(stream))] == stream
    # 1,000 seeded ranks on [7], read off one pass that holds no tree list
    rng = random.Random(20260811)
    ranks = {rng.randrange(7 * tc.forest_count(6)) for _ in range(1000)}
    seen = 0
    for rank, tree in enumerate(enum.trees(labels(7))):
        if rank in ranks:
            assert tc.unrank(labels(7), rank) == tree
            seen += 1
    assert seen == len(ranks) and rank + 1 == 665280


def test_unrank_bounds(monkeypatch):
    # the unranking bound, not the label cap, limits the label set
    monkeypatch.setenv(tc.ENV_MAX_LABELS, "2")
    big = range(1, tc.UNRANK_MAX_LABELS + 1)
    last = tc.UNRANK_MAX_LABELS * tc.forest_count(tc.UNRANK_MAX_LABELS - 1) - 1
    assert tc.unrank(big, last).size == tc.UNRANK_MAX_LABELS
    with pytest.raises(BoundExceeded):
        tc.unrank(range(1, tc.UNRANK_MAX_LABELS + 2), 0)
    for bad, rank, root in ((labels(3), 12, None), (labels(3), -1, None), (labels(3), 4, 1),
                            (labels(3), True, None), ((), 0, None), (labels(3), 0, 4)):
        with pytest.raises(ValueError):
            tc.unrank(bad, rank, root)


def test_stream_readers_check_input_on_call():
    small = TreeEnumerator(max_labels=4)
    readers = (small.trees, partial(tc.count_trees, max_labels=4),
               lambda lab, root=None: tc.weight_census(len(lab), root, really=True,
                                                       max_labels=4))
    for read in readers:
        with pytest.raises(ValueError):
            read([])
        with pytest.raises(ValueError):
            read(labels(3), 5)
        with pytest.raises(BoundExceeded):
            read(labels(5))


def test_enumerate_text_output_is_pinned(capsys):
    assert cli.main(["enumerate", "--n", "6", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 30240
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dd709b161ad17c2960aa2940f6807e3eed9b4ea32b942baa6d45f4d6ce79478d")


@pytest.mark.parametrize("memo_limit", [tc.MEMO_LIMIT, 2])
def test_enumerate_renders_every_tree_as_repr_and_json(monkeypatch, capsys, memo_limit):
    # the text held per shared subtree against each tree rendered on its own
    monkeypatch.setattr(tc, "MEMO_LIMIT", memo_limit)
    for argv in (["--n", "1"], ["--n", "5"], ["--n", "6", "--root", "4"],
                 ["--n", "5", "--improper", "2"]):
        root = int(argv[3]) if "--root" in argv else None
        trees = [t for t in TreeEnumerator().trees(labels(int(argv[1])), root)
                 if "--improper" not in argv or t.imp_sub == 2]
        assert cli.main(["enumerate", *argv, "--format", "text"]) == 0
        assert capsys.readouterr().out.splitlines() == [repr(t) for t in trees]
        assert cli.main(["enumerate", *argv, "--format", "json"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            json.dumps(t.to_obj(), sort_keys=True) for t in trees]


@pytest.mark.parametrize("argv, digest", [
    (["--n", "4"], "3c169cc39c3c3138dd4e1ab06297568261184969ef8ef4a31bc0df5144c88390"),
    (["--n", "4", "--improper", "1"],
     "f521c64eefb9c68fa774b19db051d00f496ad59763fb0c40035353aa2ede5304"),
], ids=["every-tree", "improper-1"])
def test_enumerate_reads_no_really_statistic_unasked(monkeypatch, capsys, argv, digest):
    # without --really-improper the filter must not compute a tree's really
    # fields; the digests pin the output
    def refuse(*args):
        raise AssertionError("really statistics computed")
    monkeypatch.setattr(tc, "_really_fold", refuse)
    assert cli.main(["enumerate", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def recount_leaf_profile(enum, m):
    profile = {}
    for t in enum.trees(labels(m)):
        profile[t.leaf_count] = profile.get(t.leaf_count, 0) + 1
    return dict(sorted(profile.items()))


def test_leaf_profile_matches_per_tree_recount(enum):
    for m in range(1, 7):
        assert tc.leaf_profile(m) == recount_leaf_profile(enum, m), m
    assert tc.leaf_profile(1) == {1: 1}


def test_leaf_profile_with_streamed_forests(monkeypatch):
    monkeypatch.setattr(tc, "MEMO_LIMIT", 2)
    enum = TreeEnumerator()
    for m in range(1, 7):
        assert tc.leaf_profile(m) == recount_leaf_profile(enum, m), m


def test_enumerate_count_only_matches_stream(capsys):
    for argv in (["--n", "5"], ["--n", "5", "--root", "3"], ["--n", "1"],
                 ["--n", "5", "--improper", "2"], ["--n", "6", "--root", "2", "--improper", "1"],
                 ["--n", "5", "--really-improper", "1"], ["--n", "4", "--improper", "7"]):
        assert cli.main(["enumerate", *argv, "--count-only"]) == 0
        counted = capsys.readouterr().out
        assert cli.main(["enumerate", *argv]) == 0
        assert counted == f"{capsys.readouterr().out.count(chr(10))}\n"


def test_equality_needs_every_child():
    # == walks node pairs: a tree with one more child, at the root or deep
    # down, is a different tree
    short, long = node(1, node(2)), node(1, node(2), node(3))
    assert short != long and long != short
    assert node(4, short) != node(4, long) and node(4, long) != node(4, short)
    assert node(4, rebuild(long)) == node(4, long)
