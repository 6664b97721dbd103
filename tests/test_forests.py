import tracemalloc
from itertools import product
from math import factorial

import pytest
from stream_forests import ordered_degree_sequence, stream_degree_census, stream_generating_poly

from ramapoly import forests as fo
from ramapoly import harness
from ramapoly import qpolys as qp
from ramapoly import treecore as tc
from ramapoly.polyring import Poly
from ramapoly.qpolys import BoundExceeded


def expected_row(n, r, k):
    poly = qp.q_nk(n - r, k).substitute({"x": r}) * r
    return Poly(("t",), {(e[1],): c for e, c in poly.terms.items()})


def test_all_roots_forest_is_unique():
    out = list(fo.fixed_root_forests(4, 4))
    assert len(out) == 1
    assert sum(c.eld_sub for c in out[0]) == 0 and sum(c.imp_sub for c in out[0]) == 0


def test_fixed_root_count_and_partition():
    seen = set()
    for forest in fo.fixed_root_forests(5, 2):
        roots = tuple(c.label for c in forest)
        assert roots == (1, 2)
        all_labels = sorted(l for c in forest for l in c.labels())
        assert all_labels == [1, 2, 3, 4, 5]
        key = tuple(forest)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 2 * qp.q_n(3).evaluate({"x": 2, "y": 1, "z": 1, "t": 1})


def test_generating_poly_small(enum):
    polys = fo.forest_generating_poly(3, 2)
    assert polys[0] == Poly(("t",), {(0,): 2})
    for r, n in [(1, 4), (2, 5), (1, 5), (1, 6), (1, 7), (2, 7)]:
        got = fo.forest_generating_poly(n, r)
        for k in range(n - r):
            assert got.get(k, Poly.zero(("t",))) == expected_row(n, r, k)


def test_generating_poly_rejects_r_equal_n(enum):
    with pytest.raises(ValueError):
        fo.forest_generating_poly(3, 3)
    with pytest.raises(ValueError):
        fo.forest_generating_poly(3, 0)
    with pytest.raises(ValueError):
        list(fo.fixed_root_forests(3, 4))


def test_plane_forest_count():
    # ordered forests on [k] are counted by k! * Catalan(k)
    for k in range(1, 5):
        count = sum(1 for _ in fo.plane_forests(range(1, k + 1)))
        assert count == factorial(k) * qp.catalan(k)


def test_planted_count_examples():
    assert fo.planted_count([2, 0, 0]) == 1
    assert fo.planted_count([1, 1, 0]) == 2
    with pytest.raises(ValueError):
        fo.planted_count([2, 1])  # degree sum n leaves no component
    with pytest.raises(ValueError):
        fo.planted_count([-1, 0])


def test_multinomial():
    assert fo.multinomial(4, [2, 1, 1]) == 12
    with pytest.raises(ValueError):
        fo.multinomial(4, [2, 1])


def test_type_count_examples():
    assert fo.type_count([1, 1], "planted") == 2
    # single plane trees on 4 vertices: the k=1 types sum to Catalan(3)
    total = 0
    for r, k in [((3, 0, 0, 1), 1), ((2, 1, 1), 1), ((1, 3), 1), ((2, 2), 2)]:
        if k == 1:
            total += fo.type_count(r, "plane-unlabeled")
    assert total == qp.catalan(3)
    # all-leaves type: n isolated vertices, one valid forest
    assert fo.type_count([4], "plane-unlabeled") == 1
    with pytest.raises(ValueError):
        fo.type_count([0, 4], "plane-unlabeled")  # every vertex of degree 1: k = 0
    with pytest.raises(ValueError):
        fo.type_count([0, 4], "planted")
    with pytest.raises(ValueError):
        fo.type_count([1, 1], "bogus")


def test_type_helpers():
    forest = next(fo.plane_forests([1, 2, 3]))
    assert sum(ordered_degree_sequence(forest, 3)) == 3 - len(forest)
    t = fo.degree_type(ordered_degree_sequence(forest, 3))
    assert sum(t) == 3
    assert fo.type_components(t) == len(forest)


def reference_fixed_root_forests(n, r, enum):
    """Every forest of ``fixed_root_forests(n, r)``, by an independent
    recursive generator: component 1 outermost, each component's trees in
    ``trees_rooted`` order."""
    free = list(range(r + 1, n + 1))

    def components(bins, idx, acc):
        if idx == r:
            yield acc
            return
        for tree in enum.trees_rooted(bins[idx] | {idx + 1}, idx + 1):
            yield from components(bins, idx + 1, acc + (tree,))

    for assignment in product(range(r), repeat=len(free)):
        bins = [frozenset(lab for lab, slot in zip(free, assignment) if slot == b)
                for b in range(r)]
        yield from components(bins, 0, ())


@pytest.mark.parametrize("memo_limit", [tc.MEMO_LIMIT, 2])
def test_fixed_root_forests_match_reference_order(monkeypatch, memo_limit):
    # with MEMO_LIMIT = 2 every component of 3 or more labels is streamed,
    # several in one forest from n = 6 on
    monkeypatch.setattr(tc, "MEMO_LIMIT", memo_limit)
    enum = tc.TreeEnumerator()
    for n in range(1, 7):
        for r in range(1, n + 1):
            got = list(fo.fixed_root_forests(n, r))
            assert got == list(reference_fixed_root_forests(n, r, enum)), (n, r)


def test_streamed_component_is_not_held(monkeypatch):
    # a component the enumerator streams is read once per prefix, not held:
    # peaks measured at 0.08 MB for (6, 1) and 0.03 MB for (7, 2), against
    # 1.8 and 1.6 MB when the stream is turned into a tuple
    monkeypatch.setattr(tc, "MEMO_LIMIT", 2)
    for n, r in [(6, 1), (7, 2)]:
        tracemalloc.start()
        try:
            for _ in fo.fixed_root_forests(n, r):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000, (n, r, peak)


def test_degree_census_matches_the_stream():
    for n in range(7):
        assert fo.degree_census(n) == stream_degree_census(n), n


@pytest.mark.parametrize("memo_limit", [tc.MEMO_LIMIT, 2])
def test_generating_poly_matches_the_stream(monkeypatch, memo_limit):
    monkeypatch.setattr(tc, "MEMO_LIMIT", memo_limit)
    for n in range(2, 7):
        for r in range(1, n):
            assert fo.forest_generating_poly(n, r) == stream_generating_poly(n, r), (n, r)


def test_forest_censuses_build_no_forest_and_check_the_cap_first(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a tree or forest was built")
    monkeypatch.setattr(tc.TreeEnumerator, "forests", refuse)
    monkeypatch.setattr(tc.PlaneTree, "__init__", refuse)
    assert sum(fo.degree_census(6).values()) == tc.forest_count(6)
    for r in range(1, 6):
        got = fo.forest_generating_poly(6, r)
        assert [got.get(k, Poly.zero(("t",))) for k in range(6 - r)] \
            == [expected_row(6, r, k) for k in range(6 - r)], r
    uncapped = fo.forest_generating_poly(4, 2)
    monkeypatch.setenv(tc.ENV_MAX_LABELS, "4")
    assert sum(fo.degree_census(4).values()) == tc.forest_count(4)
    assert fo.forest_generating_poly(4, 2) == uncapped
    with pytest.raises(BoundExceeded):
        fo.degree_census(5)
    # [5] is refused before any component's census is asked for, though
    # every component of F^2_5 has at most 4 labels
    with pytest.raises(BoundExceeded):
        fo.forest_generating_poly(5, 2, census=refuse)
    with pytest.raises(ValueError):
        fo.forest_generating_poly(5, 0, census=refuse)


def reference_degree_type(degrees):
    top = max(degrees, default=0)
    return tuple(sum(1 for d in degrees if d == i) for i in range(top + 1))


def test_degree_type_matches_reference():
    for n in range(1, 8):
        for k in range(1, n + 1):
            for d in harness._degree_sequences(n, n - k):
                assert fo.degree_type(d) == reference_degree_type(d), d
    assert fo.degree_type(()) == reference_degree_type(()) == (0,)
