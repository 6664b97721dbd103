import pytest

from ramapoly import fixtures
from ramapoly import halfmobile as hm
from ramapoly import qpolys as qp
from ramapoly.treecore import MEMO_LIMIT, node, tree_from_obj


@pytest.fixture(scope="module")
def example_pair():
    tree = tree_from_obj(fixtures.load("theta_tree.json"))
    forest = hm.forest_from_obj(fixtures.load("theta_forest.json"))
    return tree, forest


def test_fixture_forest_validates(example_pair):
    _, forest = example_pair
    assert hm.validate(forest) is None


def test_theta_matches_fixture(example_pair):
    tree, forest = example_pair
    assert hm.theta(tree) == forest
    assert hm.theta_inv(forest) == tree


def test_fixture_statistics(example_pair):
    tree, forest = example_pair
    assert (tree.young_at_1, tree.eld_sub, tree.imp_sub) == (2, 5, 4)
    st = hm.hm_stats(forest)
    assert (st.tree, st.bdeg, st.imp) == (2, 5, 4)


def test_validate_violations():
    lonely = hm.HmNode(None, (hm.white(2),))
    out = hm.validate(hm.HalfMobileForest((lonely,)))
    assert out is not None and "fewer than two" in out

    bad_rotation = hm.HmNode(None, (hm.white(1), hm.white(2)))
    out = hm.validate(hm.HalfMobileForest((bad_rotation,)))
    assert out is not None and "minimal beta" in out

    unsorted_white = hm.HmNode(3, (hm.white(2), hm.white(1)))
    out = hm.validate(hm.HalfMobileForest((unsorted_white,)))
    assert out is not None and "sorted" in out

    nested_black = hm.HmNode(None, (hm.white(2), hm.HmNode(None, (hm.white(3), hm.white(1)))))
    out = hm.validate(hm.HalfMobileForest((nested_black,)))
    assert out is not None and "unlabeled child" in out

    dup = hm.HalfMobileForest((hm.white(1), hm.white(1)))
    assert "duplicate" in hm.validate(dup)

    disordered = hm.HalfMobileForest((hm.white(2), hm.white(1)))
    assert "components" in hm.validate(disordered)


def test_black_root_edges_are_proper():
    comp = hm.black(hm.white(2), hm.white(1))
    forest = hm.HalfMobileForest.build([comp])
    assert hm.validate(forest) is None
    st = hm.hm_stats(forest)
    assert (st.imp, st.tree, st.bdeg) == (0, 1, 1)


def test_isolated_whites():
    forest = hm.HalfMobileForest.build([hm.white(i) for i in range(1, 6)])
    st = hm.hm_stats(forest)
    assert (st.tree, st.bdeg, st.imp) == (5, 0, 0)


def test_theta_star_and_path():
    star = node(1, node(2), node(3), node(4))
    assert hm.theta(star) == hm.HalfMobileForest.build(
        [hm.white(1), hm.white(2), hm.white(3)])
    path = node(1, node(2))
    assert hm.theta(path) == hm.HalfMobileForest((hm.white(1),))
    assert hm.theta_inv(hm.HalfMobileForest(())) == node(1)


def test_theta_preconditions():
    with pytest.raises(ValueError):
        hm.theta(node(2, node(1)))
    with pytest.raises(ValueError):
        hm.theta(node(1, node(5)))
    with pytest.raises(ValueError):
        hm.theta_inv(hm.HalfMobileForest((hm.white(3),)))


def test_theta_memo_matches_fresh_images(enum, example_pair):
    # one memo shared across the whole stream, as enumerate_hm shares it
    memo = {}
    for n in range(1, 6):
        for tree in enum.trees(range(1, n + 2), root=1):
            assert hm.theta(tree, _memo=memo) == hm.theta(tree)
    # the fixture has a 7-label subtree, which must be built fresh
    tree, forest = example_pair
    assert hm.theta(tree, _memo=memo) == forest
    assert memo
    assert all(v.size <= MEMO_LIMIT for v in memo)


def test_enumerate_hm_shares_small_images(enum):
    forests = list(hm.enumerate_hm(5, enumerator=enum))
    assert forests == [hm.theta(t) for t in enum.trees(range(1, 7), root=1)]
    # a white component is the image of one shared subtree: equal ones of at
    # most MEMO_LIMIT labels are one object
    by_value = {}
    for forest in forests:
        for comp in forest.components:
            if comp.is_white and len(comp.white_labels()) <= MEMO_LIMIT:
                assert by_value.setdefault(comp, comp) is comp
    assert len(by_value) < sum(len(f.components) for f in forests)


def test_enumerate_counts(enum):
    assert sum(1 for _ in hm.enumerate_hm(1, enumerator=enum)) == 1
    forests3 = list(hm.enumerate_hm(3, enumerator=enum))
    assert len(forests3) == 30
    assert len(set(forests3)) == 30


def test_generating_poly_matches_family(enum):
    for n in range(1, 6):
        got = hm.hm_generating_poly(n, enum).extend(qp.Q_VARS)
        assert got == qp.q_n(n).substitute({"z": 1}), n


def test_direct_enumerator_agrees(enum):
    for n in range(1, 5):
        via_theta = set(hm.enumerate_hm(n, enumerator=enum))
        direct = list(hm.enumerate_hm_direct(n))
        assert len(direct) == len(set(direct))
        assert set(direct) == via_theta


def test_filter_by_improper(enum):
    stats = [hm.hm_stats(f).imp for f in hm.enumerate_hm(3, enumerator=enum)]
    for k in range(3):
        filtered = list(hm.enumerate_hm(3, k=k, enumerator=enum))
        assert len(filtered) == stats.count(k)


def test_round_trip_small(enum):
    for n in range(1, 5):
        for tree in enum.trees(range(1, n + 2), root=1):
            forest = hm.theta(tree)
            assert hm.theta_inv(forest) == tree


def test_json_round_trip(example_pair):
    _, forest = example_pair
    again = hm.forest_from_obj(forest.to_obj())
    assert again == forest
    with pytest.raises(ValueError):
        hm.node_from_obj({"kind": "grey", "children": []})
    with pytest.raises(ValueError):
        hm.node_from_obj({"kind": "white", "children": []})
    with pytest.raises(ValueError):
        hm.forest_from_obj({})
