from itertools import permutations as iter_permutations

import pytest

from ramapoly import bijections as bij
from ramapoly import fixtures
from ramapoly.bijections import Permutation, psi, psi_inv, right_to_left_minima
from ramapoly.treecore import node, stats, tree_from_obj


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([1, 2, 2])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        psi_inv([1, 3])
    with pytest.raises(ValueError):
        Permutation([True, 2])
    with pytest.raises(ValueError):
        psi_inv([2, True])


def test_psi_worked_example():
    p = Permutation.from_cycles([(2, 4, 1), (7, 3), (5,), (8, 6)], 8)
    assert p.word == (2, 4, 7, 1, 5, 8, 3, 6)
    assert psi(p) == (2, 4, 1, 7, 3, 5, 8, 6)
    assert psi_inv((2, 4, 1, 7, 3, 5, 8, 6)) == p
    assert p.cycles() == [(2, 4, 1), (7, 3), (5,), (8, 6)]


def test_psi_identity_permutation():
    p = Permutation(range(1, 7))
    assert psi(p) == tuple(range(1, 7))
    assert len(right_to_left_minima(psi(p))) == 6


def test_psi_bijectivity_and_transport():
    for n in range(1, 7):
        seen = set()
        for word in iter_permutations(range(1, n + 1)):
            p = Permutation(word)
            image = psi(p)
            assert image not in seen
            seen.add(image)
            assert len(p.cycles()) == len(right_to_left_minima(image))
            assert psi_inv(image) == p
        assert len(seen) == len(list(iter_permutations(range(1, n + 1))))


@pytest.fixture(scope="module")
def reference_pair():
    before = tree_from_obj(fixtures.load("tree14.json"))
    after = tree_from_obj(fixtures.load("tree14_label_ordered.json"))
    return before, after


def test_phi_fixture(reference_pair):
    before, after = reference_pair
    assert bij.phi(before) == after
    assert bij.phi_inv(after) == before


def test_phi_fixes_increasing_trees():
    t = node(1, node(2, node(4), node(5)), node(3))
    assert bij.phi(t) == t


def test_phi_transports_eld_and_young(enum):
    for n in (4, 5):
        image = set()
        for t in enum.trees(range(1, n + 1)):
            u = bij.phi(t)
            assert u.reld_sub == t.eld_sub
            st_t, st_u = stats(t), stats(u)
            assert st_u.ryoung_per_vertex == st_t.young_per_vertex
            assert bij.phi_inv(u) == t
            image.add(u)
        assert len(image) == sum(1 for _ in enum.trees(range(1, n + 1)))


def test_contract_fixture_pairs():
    pair_ij = fixtures.load("equiv_pair_ij.json")
    pair_i = fixtures.load("equiv_pair_i.json")
    t3 = tree_from_obj(pair_ij["first"])
    t4 = tree_from_obj(pair_ij["second"])
    t1 = tree_from_obj(pair_i["first"])
    t2 = tree_from_obj(pair_i["second"])
    assert bij.contract(t3, 2, 5) == t1
    assert bij.contract(t4, 2, 5) == t2
    assert bij.equivalent(t1, t2, 2)
    assert bij.equivalent(t3, t4, (2, 5))
    assert bij.equivalent(t3, t3, (2, 5))
    assert not bij.equivalent(t1, t3, 2)


def test_contract_edge_cases():
    assert bij.contract(node(3, node(7)), 3, 7) == node(3)
    t = node(1, node(2, node(4)), node(3))
    assert bij.contract(t, 2, 4) == node(1, node(2), node(3))
    with pytest.raises(ValueError):
        bij.contract(t, 1, 4)


def test_contract_preserves_labels_and_edge_count(enum):
    from itertools import islice
    for t in islice(enum.trees(range(1, 6), root=1), 60):
        for (i, j) in t.edges():
            c = bij.contract(t, i, j)
            assert c.labels() == t.labels() - {j}
            assert len(c.edges()) == len(t.edges()) - 1


def test_ij_class_structure():
    t = node(1, node(2, node(3), node(4)), node(5))
    cls = bij.ij_class(t, 1, 2)
    m = 3  # deg(1) + deg(2) - 1
    assert len(cls) == 6 * (m + 1) * (m + 2) // 2  # m! * (m+1)(m+2)/2
    assert t in cls
    for member in cls:
        assert (1, 2) in member.edges()
        assert bij.equivalent(member, t, (1, 2))


def test_root_swap_path_and_errors():
    assert bij.root_swap(node(1, node(2))) == node(2, node(1))
    with pytest.raises(ValueError):
        bij.root_swap(node(2, node(1)))
    with pytest.raises(ValueError):
        bij.root_swap(node(1, node(3)))


def test_root_swap_transport_and_involution(enum):
    for t in enum.trees(range(1, 5), root=1):
        u = bij.root_swap(t, 1, 2)
        assert u.label == 2
        assert u.eld_sub == t.eld_sub
        st_t, st_u = stats(t), stats(u)
        assert st_u.young_per_vertex[1] == st_t.young_per_vertex[1] - 1
        assert st_u.young_per_vertex[2] == st_t.young_per_vertex[2] + 1
        for v in st_t.young_per_vertex:
            if v not in (1, 2):
                assert st_u.young_per_vertex[v] == st_t.young_per_vertex[v]
        assert bij.root_swap(u, 2, 1) == t
