from itertools import permutations as iter_permutations

import pytest

from ramapoly import bijections as bij
from ramapoly import fixtures
from ramapoly.bijections import Permutation, psi, psi_inv, right_to_left_minima
from ramapoly.treecore import PlaneTree, node, stats, tree_from_obj


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


# -- reference: the whole-tree recursive rebuilds that path copying replaced --


def reference_contract(tree, i, j):
    found = False

    def rebuild(v):
        nonlocal found
        if v.label == i:
            new_children = []
            for c in v.children:
                if c.label == j:
                    found = True
                    new_children.extend(c.children)
                else:
                    new_children.append(rebuild(c))
            return PlaneTree(i, new_children)
        return PlaneTree(v.label, [rebuild(c) for c in v.children])

    result = rebuild(tree)
    if not found:
        raise ValueError(f"tree has no edge ({i}, {j})")
    return result


def reference_forget_order_at(tree, i):
    if tree.label == i:
        children = sorted(tree.children, key=lambda c: c.label)
    else:
        children = tree.children
    return PlaneTree(tree.label, [reference_forget_order_at(c, i) for c in children])


def reference_equivalent(t1, t2, mode):
    if isinstance(mode, tuple):
        i, j = mode
        edges1, edges2 = set(t1.edges()), set(t2.edges())
        if not ((i, j) in edges1 and (i, j) in edges2):
            return False
        return reference_equivalent(reference_contract(t1, i, j),
                                    reference_contract(t2, i, j), i)
    return reference_forget_order_at(t1, mode) == reference_forget_order_at(t2, mode)


def reference_i_class(tree, i):
    target = tree.find(i)
    if target is None:
        raise ValueError(f"no vertex {i}")

    def rebuild(v, new_target):
        if v.label == i:
            return new_target
        return PlaneTree(v.label, [rebuild(c, new_target) for c in v.children])

    return [rebuild(tree, PlaneTree(i, order))
            for order in iter_permutations(target.children)]


def reference_ij_class(tree, i, j):
    contracted = reference_contract(tree, i, j)

    def expansions(base):
        spot = base.find(i)
        m = len(spot.children)

        def rebuild(v, replacement):
            if v.label == i:
                return replacement
            return PlaneTree(v.label, [rebuild(c, replacement) for c in v.children])

        for lo in range(m + 1):
            for hi in range(lo, m + 1):
                j_node = PlaneTree(j, spot.children[lo:hi])
                new_i = PlaneTree(i, spot.children[:lo] + (j_node,) + spot.children[hi:])
                yield rebuild(base, new_i)

    seen = set()
    out = []
    for base in reference_i_class(contracted, i):
        for candidate in expansions(base):
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


def reference_root_swap(tree, old_root=1, new_root=2):
    if tree.label != old_root:
        raise ValueError(f"tree is rooted at {tree.label}, expected {old_root}")
    other = tree.find(new_root)
    if other is None:
        raise ValueError(f"no vertex {new_root}")
    if tree.label == new_root:
        raise ValueError("roots must differ")
    pivot = next(idx for idx, c in enumerate(tree.children)
                 if c.find(new_root) is not None)
    moved = tree.children[pivot + 1:]

    def rebuild(v):
        if v.label == new_root:
            return PlaneTree(new_root, moved)
        return PlaneTree(v.label, [rebuild(c) for c in v.children])

    kept = [rebuild(c) for c in tree.children[:pivot + 1]]
    swapped = PlaneTree(old_root, kept + list(other.children))
    return bij._swap_labels(swapped, old_root, new_root)


def _outcome(f, *args):
    """f's result, or the message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_path_copying_maps_match_reference(enum):
    for n in range(1, 6):
        labels = range(1, n + 1)
        for t in enum.trees(labels):
            for i in range(1, n + 2):   # label n + 1 is absent
                assert bij._forget_order_at(t, i) == reference_forget_order_at(t, i)
                assert _outcome(bij.i_class, t, i) == _outcome(reference_i_class, t, i)
                assert (_outcome(bij.root_swap, t, t.label, i)
                        == _outcome(reference_root_swap, t, t.label, i))
                for j in range(1, n + 2):
                    assert bij.has_edge(t, i, j) == ((i, j) in t.edges())
                    assert _outcome(bij.contract, t, i, j) == _outcome(reference_contract, t, i, j)
            for i, j in t.edges():
                assert bij.ij_class(t, i, j) == reference_ij_class(t, i, j)
            assert _outcome(bij.root_swap, t, t.label % n + 1, 1) == \
                _outcome(reference_root_swap, t, t.label % n + 1, 1)


def test_equivalent_matches_reference(enum):
    # equivalent trees share their root, so pairs across roots only check
    # the cheap False branch; pair within each root instead
    for n in range(1, 5):
        for root in range(1, n + 1):
            trees = list(enum.trees(range(1, n + 1), root=root))
            modes = list(range(1, n + 1)) + [(i, j) for i in range(1, n + 1)
                                             for j in range(1, n + 1) if i != j]
            for t1 in trees:
                for t2 in trees:
                    for mode in modes:
                        assert (bij.equivalent(t1, t2, mode)
                                == reference_equivalent(t1, t2, mode)), (t1, t2, mode)


def test_contract_and_i_class_on_a_deep_path():
    # 2,000 vertices is past the default recursion limit; build the path
    # bottom-up and read results through the iterative edges() and size
    # because == and hash recurse
    n = 2000
    path = PlaneTree(n)
    for label in range(n - 1, 0, -1):
        path = PlaneTree(label, [path])
    chain = [(k, k + 1) for k in range(1, n)]
    contracted = bij.contract(path, 1000, 1001)
    assert contracted.size == n - 1
    assert contracted.edges() == chain[:999] + [(1000, 1002)] + chain[1001:]
    (member,) = bij.i_class(path, 1000)
    assert member.size == n and member.edges() == chain


def deep_path(n, bottom=None):
    """The path 1 - 2 - ... - n, built bottom-up; label n is replaced by
    ``bottom`` if given."""
    path = PlaneTree(n if bottom is None else bottom)
    for label in range(n - 1, 0, -1):
        path = PlaneTree(label, [path])
    return path


def test_hash_eq_and_equivalent_on_a_deep_path():
    # hash and == walk the tree on an explicit stack: a 2,000-vertex path is
    # past the default recursion limit
    n = 2000
    path, twin, other = deep_path(n), deep_path(n), deep_path(n, bottom=n + 1)
    assert hash(path) == hash(twin) == hash((path.label, path.children))
    assert path == twin and twin == path and len({path, twin}) == 1
    assert path != other and other != path
    assert bij.equivalent(path, path, 1000)
    assert bij.equivalent(path, twin, (1000, 1001))
    assert not bij.equivalent(path, other, 1000)
