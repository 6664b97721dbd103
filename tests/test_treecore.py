import hashlib
from itertools import combinations
from math import comb, factorial

import pytest

from ramapoly import cli, fixtures
from ramapoly import treecore as tc
from ramapoly.polyring import Poly, parse
from ramapoly.treecore import (BoundExceeded, TreeEnumerator, gdes, node, stats,
                               tree_from_obj)


def labels(n):
    return frozenset(range(1, n + 1))


def test_gdes_examples():
    assert gdes([3, 6, 1, 4, 5, 8, 7]) == 3
    assert gdes([1, 2, 3]) == 0
    assert gdes([3, 2, 1]) == 2
    assert gdes([]) == 0
    with pytest.raises(ValueError):
        gdes([2, 2])


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


def test_generating_poly_examples(enum):
    o41 = tc.census_poly(tc.weight_census(labels(4), root=1, enumerator=enum)[1], "o")
    assert o41 == parse("3x+4+5t", tc.QK_VARS)
    p31 = tc.census_poly(tc.weight_census(labels(3), enumerator=enum)[1], "p")
    assert p31 == parse("3x+1+2t", tc.QK_VARS)
    uni = tc.multivar_universe(labels(3))
    p3 = tc.generating_poly(labels(3), enumerator=enum)
    assert p3 == parse("(x1+x2+x3)(x1+x2+x3+t)", uni)


def test_census_matches_generating_poly(enum):
    for n, root in ((4, 1), (4, None), (5, 2)):
        census = tc.weight_census(labels(n), root=root, enumerator=enum)
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
        uni = tc.multivar_universe(labels(n)) + ("x",)
        image = {f"x{i}": 1 for i in range(2, n + 1)} | {"x1": Poly.var(uni, "x")}
        specialized = tc.generating_poly(labels(n), root, enum).extend(uni).substitute(image)
        assert specialized == pooled.extend(uni), (n, root)


def test_leaf_profile(enum):
    assert tc.leaf_profile(2, enum) == {1: 2}
    profile = tc.leaf_profile(4, enum)
    assert {k: v // factorial(4) for k, v in profile.items()} == {1: 1, 2: 3, 3: 1}
    total5 = sum(tc.leaf_profile(5, enum).values())
    assert total5 // factorial(5) == 14  # all shapes on 5 vertices


def test_leaf_set_count_against_enumeration(enum):
    for m in (3, 4, 5):
        n = m - 1
        for k in range(1, n + 1):
            target = frozenset(range(1, k + 1))
            direct = sum(1 for t in enum.trees(labels(m))
                         if frozenset(v.label for v in t.walk()
                                      if not v.children) == target)
            assert direct == tc.leaf_set_count(n, k)


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


def test_weight_census_requires_vertex_one(enum):
    with pytest.raises(ValueError):
        tc.weight_census([2, 3], enumerator=enum)


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
    """Increasing trees by full rebuild: every yielded tree is built anew
    from the children lists (the order the library must keep)."""
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
    for n in range(0, 8):
        assert list(tc.increasing_plane_trees(n)) == list(reference_grow_increasing(n, True))
        assert list(tc.increasing_rooted_trees(n)) == list(reference_grow_increasing(n, False))


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
    assert constructions[0] <= 36330  # a full rebuild per tree makes 72,765


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
    assert enum.count_trees(labels(6)) == factorial(10) // factorial(5)


def test_really_census_matches_per_tree_recount(enum):
    for n in range(1, 7):
        for lab, root in ((labels(n), None), (labels(n + 1), 1)):
            recount = {}
            for t in enum.trees(lab, root):
                cells = recount.setdefault(t.rimp_sub, {})
                key = (t.ryoung_at_1, t.reld_sub)
                cells[key] = cells.get(key, 0) + 1
            assert tc.weight_census(lab, root, really=True, enumerator=enum) == recount


def test_count_trees_matches_stream(enum):
    for m in range(1, 7):
        assert enum.count_trees(labels(m)) == len(list(enum.trees(labels(m))))
        for root in (1, m):
            assert (enum.count_trees(labels(m), root)
                    == len(list(enum.trees(labels(m), root))))


def test_stream_readers_check_input_on_call():
    small = TreeEnumerator(max_labels=4)
    readers = (small.trees, small.count_trees,
               lambda lab, root=None: tc.weight_census(lab, root, really=True,
                                                       enumerator=small))
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
