import hashlib
import itertools
import json
import time
import tracemalloc

import pytest

from stream_hm import hm_poly, stream_hm_poly

from ramapoly import fixtures, harness, treecore
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
    out = hm.validate((lonely,))
    assert out is not None and "fewer than two" in out

    bad_rotation = hm.HmNode(None, (hm.white(1), hm.white(2)))
    out = hm.validate((bad_rotation,))
    assert out is not None and "minimal beta" in out

    unsorted_white = hm.HmNode(3, (hm.white(2), hm.white(1)))
    out = hm.validate((unsorted_white,))
    assert out is not None and "sorted" in out

    nested_black = hm.HmNode(None, (hm.white(2), hm.HmNode(None, (hm.white(3), hm.white(1)))))
    out = hm.validate((nested_black,))
    assert out is not None and "unlabeled child" in out

    dup = (hm.white(1), hm.white(1))
    assert "duplicate" in hm.validate(dup)

    disordered = (hm.white(2), hm.white(1))
    assert "components" in hm.validate(disordered)


def test_black_root_edges_are_proper():
    comp = hm.black(hm.white(2), hm.white(1))
    forest = (comp,)
    assert hm.validate(forest) is None
    st = hm.hm_stats(forest)
    assert (st.imp, st.tree, st.bdeg) == (0, 1, 1)


def test_isolated_whites():
    forest = tuple(hm.white(i) for i in range(1, 6))
    st = hm.hm_stats(forest)
    assert (st.tree, st.bdeg, st.imp) == (5, 0, 0)


def test_theta_star_and_path():
    star = node(1, node(2), node(3), node(4))
    assert hm.theta(star) == (hm.white(1), hm.white(2), hm.white(3))
    path = node(1, node(2))
    assert hm.theta(path) == (hm.white(1),)
    assert hm.theta_inv(()) == node(1)


def test_theta_preconditions():
    with pytest.raises(ValueError):
        hm.theta(node(2, node(1)))
    with pytest.raises(ValueError):
        hm.theta(node(1, node(5)))
    with pytest.raises(ValueError):
        hm.theta_inv((hm.white(3),))


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
    # each entry holds the subtree it is keyed by, and that subtree is small
    assert all(key == id(v) and v.size <= MEMO_LIMIT for key, (_, _, v) in memo.items())


def test_enumerate_hm_shares_small_images(enum):
    forests = list(hm.enumerate_hm(5))
    assert forests == [hm.theta(t) for t in enum.trees(range(1, 7), root=1)]
    # a white component is the image of one shared subtree: equal ones of at
    # most MEMO_LIMIT labels are one object
    by_value = {}
    for forest in forests:
        for comp in forest:
            if comp.is_white and len(comp.white_labels()) <= MEMO_LIMIT:
                assert by_value.setdefault(comp, comp) is comp
    assert len(by_value) < sum(len(f) for f in forests)


def test_enumerate_counts():
    assert sum(1 for _ in hm.enumerate_hm(1)) == 1
    forests3 = list(hm.enumerate_hm(3))
    assert len(forests3) == 30
    assert len(set(forests3)) == 30


def test_forests_are_plain_tuples(example_pair):
    # a forest is the tuple of its components, wherever it comes from
    tree, forest = example_pair
    assert type(forest) is tuple and type(hm.theta(tree)) is tuple
    for forests in (hm.enumerate_hm(3), hm.enumerate_hm_direct(3)):
        for forest in forests:
            assert type(forest) is tuple
            assert all(type(comp) is hm.HmNode for comp in forest)


def test_generating_poly_matches_family():
    for n in range(1, 9):
        got = hm.hm_generating_poly(n).extend(qp.Q_VARS)
        assert got == qp.q_n(n).substitute({"z": 1}), n
    with pytest.raises(ValueError, match="n >= 1"):
        hm.hm_generating_poly(0)


def test_generating_poly_matches_the_theta_stream():
    for n in range(1, 7):
        assert hm.hm_generating_poly(n) == stream_hm_poly(n), n


def test_generating_poly_matches_the_direct_generator():
    # the theta-free generator: the DP and the direct forests share no code
    for n in range(1, 6):
        assert hm.hm_generating_poly(n) == hm_poly(hm.enumerate_hm_direct(n)), n


def test_generating_poly_reads_no_theta_image_and_no_table(monkeypatch):
    want = {n: hm.hm_generating_poly(n) for n in range(1, 7)}

    def refuse(*args, **kwargs):
        raise AssertionError("the half-mobile DP read a theta image or the table")

    for owner, name in ((hm, "theta"), (hm, "enumerate_hm"), (hm, "hm_stats"),
                        (treecore.TreeEnumerator, "__init__"), (treecore.PlaneTree, "__init__"),
                        (qp, "q_n"), (qp, "q_nk")):
        monkeypatch.setattr(owner, name, refuse)
    assert {n: hm.hm_generating_poly(n) for n in range(1, 7)} == want
    monkeypatch.undo()
    # the runner reads the table for its comparison, and builds no enumerator
    monkeypatch.setattr(treecore.TreeEnumerator, "__init__", refuse)
    records = list(harness.run_thm_3_4(max_n=6))
    assert len(records) == 27 and {status for _, status, _ in records} == {harness.PASS}


def test_direct_enumerator_agrees():
    for n in range(1, 5):
        via_theta = set(hm.enumerate_hm(n))
        direct = list(hm.enumerate_hm_direct(n))
        assert len(direct) == len(set(direct))
        assert set(direct) == via_theta


def test_round_trip_small(enum):
    for n in range(1, 5):
        for tree in enum.trees(range(1, n + 2), root=1):
            forest = hm.theta(tree)
            assert hm.theta_inv(forest) == tree


def test_json_round_trip(example_pair):
    _, forest = example_pair
    again = hm.forest_from_obj(hm.forest_to_obj(forest))
    assert again == forest
    with pytest.raises(ValueError):
        hm.node_from_obj({"kind": "grey", "children": []})
    with pytest.raises(ValueError):
        hm.node_from_obj({"kind": "white", "children": []})
    with pytest.raises(ValueError):
        hm.forest_from_obj({})


def reference_hm_stats(forest):
    """hm_stats as a recursive walk over the half-mobile definitions: the
    reference the cached per-node counts are checked against."""
    imp = 0
    bdeg = 0

    def walk_white(u):
        nonlocal imp, bdeg
        for c in u.children:
            if c.is_white:
                if u.label > c.beta:
                    imp += 1
                walk_white(c)
            else:
                bdeg += len(c.children) - 1
                if u.label > c.children[-1].beta:
                    imp += 1
                for w in c.children:
                    walk_white(w)

    for comp in forest:
        if comp.is_white:
            walk_white(comp)
        else:
            # a black component root has no labeled father: its rightmost
            # edge is proper
            bdeg += len(comp.children) - 1
            for w in comp.children:
                walk_white(w)
    return hm.HmStats(imp=imp, tree=len(forest), bdeg=bdeg)


def test_cached_stats_match_reference_walk():
    for n in range(1, 6):
        for forest in hm.enumerate_hm(n):
            assert hm.hm_stats(forest) == reference_hm_stats(forest), forest
    for n in range(1, 5):
        for forest in hm.enumerate_hm_direct(n):
            assert hm.hm_stats(forest) == reference_hm_stats(forest), forest


def test_cached_stats_on_hand_built_forests(example_pair):
    _, forest = example_pair
    assert hm.hm_stats(forest) == reference_hm_stats(forest)
    # improper edges to a black child are read at its last child
    comp = hm.white(3, hm.black(hm.white(4), hm.white(1)), hm.white(2))
    forest = (comp,)
    assert hm.validate(forest) is None
    assert hm.hm_stats(forest) == reference_hm_stats(forest) == hm.HmStats(2, 1, 1)
    # forests that fail validate but that the walk still reads: a black child
    # not rotated (its last child lacks the minimal beta), a repeated label
    for comp in (hm.HmNode(3, (hm.HmNode(None, (hm.white(1), hm.white(4))),)),
                 hm.HmNode(None, (hm.white(2), hm.white(3, hm.white(1)), hm.white(1))),
                 hm.white(2, hm.white(2), hm.black(hm.white(2), hm.white(3)))):
        forest = (comp,)
        assert hm.validate(forest) is not None
        assert hm.hm_stats(forest) == reference_hm_stats(forest), comp


def test_malformed_nodes_build():
    empty_black = hm.HmNode(None, ())
    assert (empty_black.beta, empty_black.imp_sub) == (None, 0)
    nodes = [
        empty_black,
        hm.HmNode(3, (empty_black,)),                               # black child, no children
        hm.HmNode(None, (hm.white(2), hm.HmNode(None, (hm.white(3), hm.white(1))))),
        hm.HmNode(4, (hm.HmNode(None, (hm.white(2), empty_black)),)),  # black last child
        hm.HmNode(5, (hm.HmNode(None, (empty_black, empty_black)),)),
        hm.HmNode(None, (hm.HmNode(None, (empty_black,)),)),
    ]
    for comp in nodes:
        assert isinstance(comp.imp_sub, int) and isinstance(comp.bdeg_sub, int)
        forest = (comp,)
        assert hm.validate(forest) is not None
        hm.hm_stats(forest)


BAD_LABEL_TREES = {
    "duplicate": node(1, node(2), node(2)),
    "above-size": node(1, node(2, node(4))),
    "huge": node(1, node(10 ** 9)),
    "huge-deep": node(1, node(2, node(3, node(10 ** 9)))),
    "zero": node(1, node(0)),
}


@pytest.mark.parametrize("name", sorted(BAD_LABEL_TREES))
def test_theta_rejects_bad_label_sets(enum, name):
    tree = BAD_LABEL_TREES[name]
    memo = {}
    for t in enum.trees(range(1, 7), root=1):  # a memo already holding small subtrees
        hm.theta(t, _memo=memo)
    for kwargs in ({}, {"_memo": {}}, {"_memo": memo}):
        with pytest.raises(ValueError, match=r"^theta needs the label set \{1, \.\.\., n\+1\}$"):
            hm.theta(tree, **kwargs)
    with pytest.raises(ValueError, match="theta needs root 1, got root 2"):
        hm.theta(node(2, node(1), node(10 ** 9)))


def test_theta_huge_label_is_rejected_promptly():
    start = time.perf_counter()
    for _ in range(100):
        with pytest.raises(ValueError):
            hm.theta(node(1, node(10 ** 9), node(2)))
        with pytest.raises(ValueError):
            hm.theta(node(1, node(2), node(10 ** 18)), _memo={})
    assert time.perf_counter() - start < 1.0


def test_theta_memo_reused_across_n(enum):
    memo = {}
    for n in (5, 2, 4, 1, 3):
        for tree in enum.trees(range(1, n + 2), root=1):
            assert hm.theta(tree, _memo=memo) == hm.theta(tree)
    # every leaf on up to 6 labels is in the memo now, keyed by the one object
    # the enumerator shares for it, with its label mask; a hit on that object
    # must not let a label above the size through
    leaf = {k: enum.trees_rooted(frozenset({k}), k)[0] for k in range(2, 7)}
    assert all(memo[id(v)][2] is v for v in leaf.values())
    for tree in (node(1, leaf[6]), node(1, leaf[2], leaf[5]), node(1, node(3, leaf[2]), leaf[3])):
        with pytest.raises(ValueError, match="label set"):
            hm.theta(tree, _memo=memo)
    assert hm.theta(node(1, leaf[2]), _memo=memo) == (hm.white(1),)


def test_theta_memo_keeps_its_subtrees_alive():
    # hand-built trees dropped between calls free their nodes, so CPython may
    # give a later node a dropped node's id; the memo's entries hold their
    # subtrees, so no id is reused while the memo lives and no stale image
    # is hit
    memo = {}
    shapes = [lambda a, b, c: node(1, node(a), node(b), node(c)),
              lambda a, b, c: node(1, node(a, node(b)), node(c)),
              lambda a, b, c: node(1, node(a, node(b), node(c))),
              lambda a, b, c: node(1, node(a, node(b, node(c))))]
    for _ in range(3):
        for shape in shapes:
            for labels in itertools.permutations((2, 3, 4)):
                assert hm.theta(shape(*labels), _memo=memo) == hm.theta(shape(*labels))
    assert all(key == id(v) for key, (_, _, v) in memo.items())
    assert len(memo) == 3 * 4 * 6 * 3


def test_enumerate_hm_output_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for forest in hm.enumerate_hm(5):
        digest.update((json.dumps(hm.forest_to_obj(forest), sort_keys=True) + "\n").encode())
        count += 1
    assert count == 5040
    assert digest.hexdigest() == (
        "c2fc25d61e6e7ab350132d6f6343b01ceea6bfe2e799a826ff66173e8908224c")


def test_enumerate_hm_reports_a_collision(monkeypatch, enum):
    real = hm.theta
    # a theta that maps every tree to one forest: that forest does not invert
    # to the first tree, so the stream raises before it yields a repeated image
    monkeypatch.setattr(hm, "theta", lambda tree, **kw: real(node(1, node(2)), **kw))
    yielded = []
    with pytest.raises(RuntimeError, match="theta collision on"):
        for forest in hm.enumerate_hm(2):
            assert forest not in yielded
            yielded.append(forest)
    assert yielded == []

    # a true collision: one tree is given the previous tree's well-formed image
    trees = list(enum.trees(range(1, 5), root=1))
    victim, before = trees[7], trees[6]
    assert hm.validate(real(before)) is None
    monkeypatch.setattr(hm, "theta", lambda tree, **kw: real(before if tree == victim else tree, **kw))
    yielded = []
    with pytest.raises(RuntimeError, match="theta collision on"):
        for forest in hm.enumerate_hm(3):
            yielded.append(forest)
    assert yielded == [real(t) for t in trees[:7]]


@pytest.mark.parametrize("memo_limit", [MEMO_LIMIT, 2])
def test_left_inverse_check_agrees_with_theta_inv(monkeypatch, enum, memo_limit):
    # with a memo limit of 2 most children are not shared, so their images
    # are expanded recursively instead of read from the checked memo
    monkeypatch.setattr(hm, "MEMO_LIMIT", memo_limit)
    for n in range(1, 6):
        memo = {}
        trees = list(enum.trees(range(1, n + 2), root=1))
        forests = [hm.theta(tree, _memo=memo) for tree in trees]
        assert all(v.size <= memo_limit for _, _, v in memo.values())
        # each tree against its own image and against its predecessor's
        for idx, tree in enumerate(trees):
            for forest in (forests[idx], forests[idx - 1]):
                assert hm._rebuilds(forest, tree.children, memo) == (
                    hm.theta_inv(forest) == tree), (tree, forest)
        assert list(hm.enumerate_hm(n)) == forests


def test_left_inverse_check_rejects_near_misses():
    # with no checked images every child is expanded recursively: a child of
    # six labels, its image relabeled or its children reordered
    tree = node(1, node(7, node(2), node(3), node(4), node(5), node(6)))
    image = hm.theta(tree)[0]
    assert hm._rebuilds((image,), tree.children, {})
    for wrong in (hm.HmNode(image.label + 1, image.children),
                  hm.HmNode(image.label, image.children[::-1]),
                  hm.HmNode(image.label, image.children[:-1]),
                  hm.HmNode(None, (image, hm.white(7)))):
        assert not hm._rebuilds((wrong,), tree.children, {}), wrong


def test_memo_check_rejects_wrong_images():
    # a parent's image holds its children's memo images, as theta builds it
    leaf2, leaf3 = node(2), node(3)
    parent = node(4, leaf2, leaf3)
    w1, w2 = hm.white(1), hm.white(2)
    good = [(w1, 0, leaf2), (w2, 0, leaf3), (hm.white(3, w1, w2), 0, parent)]
    memo = {}
    for entry in good:
        hm._enter(memo, entry)
    assert memo == {id(entry[2]): entry for entry in good}
    # children that are not entered are expanded recursively
    hm._enter({}, (hm.white(3, hm.white(1), hm.white(2)), 0, parent))
    for entries in ([(hm.white(2), 0, leaf2)],                          # label not less one
                    good[:2] + [(hm.HmNode(3, (w2, w1)), 0, parent)],   # children reordered
                    [(hm.white(3, hm.black(w1, w2)), 0, parent)],       # a block where none is
                    [(hm.black(w1, w2), 0, leaf2)]):                    # a black image
        memo = {}
        for entry in entries[:-1]:
            hm._enter(memo, entry)
        with pytest.raises(RuntimeError, match="^theta collision on .*, the image of subtree "):
            hm._enter(memo, entries[-1])
        assert id(entries[-1][2]) not in memo


def test_a_wrong_shared_image_is_caught_when_it_enters_the_memo(monkeypatch, enum):
    # blocks reversed for memoized subtrees only (every node but the root):
    # the per-tree check trusts checked memo images, so the memo check must
    # catch it
    real = hm._hm_blocks

    def reversed_blocks(v, memo, top):
        blocks, mask = real(v, memo, top)
        if memo is not None and v.label != 1 and v.size <= hm.MEMO_LIMIT:
            blocks = blocks[::-1]
        return blocks, mask

    monkeypatch.setattr(hm, "_hm_blocks", reversed_blocks)
    yielded = []
    with pytest.raises(RuntimeError, match=r"^theta collision on .*, the image of subtree "):
        for forest in hm.enumerate_hm(4):
            yielded.append(forest)
    monkeypatch.undo()
    trees = list(enum.trees(range(1, 6), root=1))
    assert yielded == [hm.theta(t) for t in trees[:len(yielded)]]


def test_enumerate_hm_holds_no_forest_set():
    # a set of every forest peaked at about 40 MB under tracemalloc; the
    # left inverse check peaks at about 10 MB
    tracemalloc.start()
    try:
        stream_hm_poly(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_hm_stats_by_position_and_keyword():
    by_position = hm.HmStats(2, 1, 3)
    by_keyword = hm.HmStats(bdeg=3, imp=2, tree=1)
    assert by_position == by_keyword
    assert (by_keyword.imp, by_keyword.tree, by_keyword.bdeg) == (2, 1, 3)
    assert repr(by_keyword) == "HmStats(imp=2, tree=1, bdeg=3)"
    assert by_position != hm.HmStats(imp=1, tree=2, bdeg=3)
