from math import factorial

import pytest

from ramapoly import fixtures
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
