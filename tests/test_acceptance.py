"""Acceptance checklist: one test per criterion, exact equality throughout.

Each test prints one ``ACCEPTANCE C## [...] PASS/FAIL`` line (visible with
``pytest -s`` or in captured output).  Criteria with stated wall-clock
budgets assert them.

Two sub-claims of criterion 6 are mathematically false and the tests for
them are EXPECTED TO FAIL; they are kept faithful rather than weakened:

* the child-reordering map does not preserve the improper-edge count
  (counterexample on four labels: 2 -> (3, 4 -> 1) has the improper edges
  (2,4) and (4,1), its image 2 -> (4 -> 1, 3) has only (4,1) really
  improper);
* the really-elder variant sums refined by the improper count differ from
  the table rows from n = 4 on (the root-1 sum exceeds the row by t at
  n = 4, k = 1), with either exponent convention.  Only the sums pooled
  over all counts hold, and those are verified in the passing part of
  criterion 6.
"""

import time
from contextlib import contextmanager
from itertools import permutations as iter_permutations
from math import comb, factorial

import pytest

from ramapoly import bijections as bij
from ramapoly import forests as fo
from ramapoly import halfmobile as hm
from ramapoly import harness
from ramapoly import qpolys as qp
from ramapoly import treecore as tc
from ramapoly.polyring import Poly, parse, poly_prod
from ramapoly.qpolys import QK_VARS, Q_VARS


@contextmanager
def criterion(num, label):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE C{num:02d} [{label}] {status} ({elapsed:.2f}s)")


def all_pass(outcomes):
    bad = [(inst, payload) for inst, status, payload in outcomes if status != "pass"]
    assert not bad, bad[:3]


# -- criterion 1: golden tables ---------------------------------------------------

DISPLAYED_QN = {
    1: "1",
    2: "x+y+z+t",
    3: "x^2+3xy+3xz+3xt+3y^2+4yz+5yt+2z^2+4zt+2t^2",
}
DISPLAYED_PLAIN = {
    (1, 0): "1", (2, 0): "x+1+t", (2, 1): "1",
    (3, 0): "x^2+3x+2+(3x+4)t+2t^2", (3, 1): "3x+4+5t", (3, 2): "3",
    (4, 0): "x^3+6x^2+11x+6+(6x^2+22x+18)t+(11x+18)t^2+6t^3",
    (4, 1): "6x^2+22x+18+(26x+43)t+26t^2", (4, 2): "15x+25+35t", (4, 3): "15",
}
DISPLAYED_SHIFTED = {
    (1, 0): "1", (2, 0): "x", (2, 1): "1",
    (3, 0): "x^2+x+xt", (3, 1): "3x+1+2t", (3, 2): "3",
    (4, 0): "x^3+3x^2+2x+(3x^2+4x)t+2xt^2",
    (4, 1): "6x^2+10x+2+(14x+7)t+6t^2", (4, 2): "15x+10+20t", (4, 3): "15",
}


def test_c01_golden_tables():
    with criterion(1, "golden tables") as _:
        start = time.perf_counter()
        for n, text in DISPLAYED_QN.items():
            assert qp.q_n(n).render() == parse(text, Q_VARS).render()
        for (n, k), text in DISPLAYED_PLAIN.items():
            assert qp.q_nk(n, k).render() == parse(text, QK_VARS).render()
        for (n, k), text in DISPLAYED_SHIFTED.items():
            assert qp.q_nk(n, k, shifted=True).render() == parse(text, QK_VARS).render()
        assert time.perf_counter() - start < 1.0


def test_c02_duality():
    with criterion(2, "duality, n <= 10"):
        start = time.perf_counter()
        for n in range(1, 11):
            assert qp.verify_identity("duality", n) is None
        assert time.perf_counter() - start < 30.0


def test_c03_section6_lemmas():
    with criterion(3, "recurrence reformulations, n <= 8"):
        for n in range(2, 9):
            assert qp.verify_identity("rec2", n) is None
            assert qp.verify_identity("diff", n) is None
        for n in range(1, 7):
            assert qp.verify_identity("operator-remark", n) is None


def test_c04_root1_interpretation(enum):
    with criterion(4, "root-1 tree sums, n <= 6"):
        start = time.perf_counter()
        for n in range(1, 7):
            census = tc.weight_census(n + 1, root=1)
            for k in sorted(set(census) | set(range(n))):
                assert tc.census_poly(census.get(k, {}), "o") == qp.q_nk(n, k), (n, k)
        assert time.perf_counter() - start < 60.0


def test_c05_free_interpretation(enum):
    with criterion(5, "free tree sums vs shifted table, n <= 7"):
        start = time.perf_counter()
        for n in range(1, 8):
            census = tc.weight_census(n)
            for k in sorted(set(census) | set(range(n))):
                assert tc.census_poly(census.get(k, {}), "p") == \
                    qp.q_nk(n, k, shifted=True), (n, k)
        assert time.perf_counter() - start < 180.0


# -- criterion 6 -------------------------------------------------------------------


def test_c06_reordering_map_bijection_and_transports(enum):
    with criterion(6, "reordering map: bijection, eld and young transports"):
        for n in range(2, 7):
            total = 0
            image = set()
            for t in enum.trees(range(1, n + 1)):
                u = bij.phi(t)
                total += 1
                image.add(u)
                assert u.reld_sub == t.eld_sub
                young_t = {v.label: v.young_self for v in t.walk()}
                young_u = {v.label: v.ryoung_self for v in u.walk()}
                assert young_t == young_u
            assert len(image) == total


def test_c06_really_variant_sums_and_exponent_reporting():
    with criterion(6, "really-variant sums: pooled identities + variant report"):
        report = harness.run_identity("cor-2-4", {"max_n": 6})
        assert report.status == "pass"
        pooled = [r for r in report.instances if r.instance.get("check") == "pooled"]
        assert len(pooled) == 12
        # both exponent variants are computed and reported on the free side
        noted = [r.info["printed_exponent_variant_matches"] for r in report.instances
                 if r.instance.get("side") == "free"
                 and r.instance.get("check") == "pooled"]
        assert noted == [False] * 6  # the printed "-1" never survives clearing
        refined = [r for r in report.instances
                   if r.instance.get("check") == "refined"]
        assert refined and all(r.status == "pass" for r in refined)  # n <= 3
        reported = [r for r in report.instances
                    if r.instance.get("check") == "refined-reported"]
        assert reported  # n >= 4 comparisons are computed and carried as info


def test_c06_printed_corollary_refined_by_improper_count(enum):
    """EXPECTED FAILURE: the really-variant sum refined by improper count,
    with the exponent convention that matches the shifted-table theorem,
    is required to equal the table row for all k and n <= 6.  It does not:
    at n = 4, k = 1 the sum exceeds the row by t (one tree too many)."""
    with criterion(6, "really-variant sums refined by improper count (as stated)"):
        x = Poly.var(QK_VARS, "x")
        t = Poly.var(QK_VARS, "t")
        for n in range(1, 7):
            census = tc.weight_census(n, really=True)
            for k in sorted(set(census) | set(range(n))):
                lhs = tc.census_poly(census.get(k, {}), "p").substitute(
                    {"x": x + t + 1})
                assert lhs == qp.q_nk(n, k), (n, k, (lhs - qp.q_nk(n, k)).render())


def test_c06_phi_improper_transport_as_stated(enum):
    """EXPECTED FAILURE: the reordering map is required to carry the
    improper-edge count to the really-improper count on every tree with up
    to 6 labels.  It cannot: reordering pairs each position with a subtree
    of a different beta, so the i > beta(child) test changes truth value."""
    with criterion(6, "reordering map transports improper count (as stated)"):
        for n in range(2, 7):
            for t in enum.trees(range(1, n + 1)):
                u = bij.phi(t)
                assert u.rimp_sub == t.imp_sub, (t, u)


# -- criteria 7 to 12 ---------------------------------------------------------------


def test_c07_increasing_counts():
    with criterion(7, "increasing tree counts, n <= 8"):
        for n in range(1, 9):
            plane = sum(1 for _ in tc.increasing_plane_trees(n))
            assert plane == qp.odd_double_factorial(2 * n - 3)
            rooted = sum(1 for _ in tc.increasing_rooted_trees(n))
            assert rooted == factorial(n - 1)


def test_c08_fundamental_transform_and_theta(enum):
    with criterion(8, "psi on S_n (n<=7), theta round trip (n<=6), forest sums"):
        for n in range(1, 8):
            seen = set()
            for word in iter_permutations(range(1, n + 1)):
                p = bij.Permutation(word)
                image = bij.psi(p)
                assert image not in seen
                seen.add(image)
                assert len(p.cycles()) == len(bij.right_to_left_minima(image))
                assert bij.psi_inv(image) == p
            assert len(seen) == factorial(n)
        for n in range(1, 7):
            image = set()
            for tree in enum.trees(range(1, n + 2), root=1):
                forest = hm.theta(tree)
                st = hm.hm_stats(forest)
                assert (tree.young_at_1, tree.eld_sub, tree.imp_sub) == \
                    (st.tree, st.bdeg, st.imp)
                assert hm.theta_inv(forest) == tree
                assert forest not in image
                image.add(forest)
            # surjectivity against the independent generator
            direct = 0
            for forest in hm.enumerate_hm_direct(n):
                assert forest in image
                direct += 1
            assert direct == len(image)
        all_pass(harness.run_thm_3_4(max_n=6))


def test_c09_enumeration_theorems(enum):
    with criterion(9, "permutation/plane-tree enumeration layer"):
        all_pass(harness.run_eq_general(max_n=7))
        all_pass(harness.run_lemma_4_1(max_n=10))
        all_pass(harness.run_thm_4_3(max_n=6))
        all_pass(harness.run_thm_4_gen_on(max_n=6))
        all_pass(harness.run_lemma_4_2(instances=200, max_n=6))
        # counts derived from the formulas, then matched by enumeration
        catalans = [comb(2 * n, n) // (n + 1) for n in range(1, 7)]
        assert catalans == [1, 2, 5, 14, 42, 132]
        for n in range(1, 7):
            count = sum(1 for _ in enum.trees(range(1, n + 2)))
            assert count == catalans[n - 1] * factorial(n + 1)
        for m in range(2, 8):
            profile = tc.leaf_profile(m)
            n = m - 1
            for k in range(1, n + 1):
                expected = (comb(n, k) * comb(n, k - 1) // n) * factorial(m)
                assert profile.get(k, 0) == expected
            assert leafset_consistency(n)


def leafset_consistency(n):
    return all(tc.leaf_set_count(n, k) == factorial(n) * comb(n - 1, k - 1)
               for k in range(1, n + 1))


def test_c10_forest_corollaries():
    with criterion(10, "forest counting corollaries"):
        all_pass(harness.run_cor_planted(enum_max_n=6, cayley_max_n=7))
        all_pass(harness.run_cor_type_planted(max_n=6))
        all_pass(harness.run_cor_plane(max_n=6))
        all_pass(harness.run_thm_5_1(max_n=7, max_r=3))


def test_c11_dual_enumeration_and_gs(enum):
    with criterion(11, "dual enumeration and the product with mixed weights"):
        all_pass(harness.run_eq_equiv(max_n=6))
        uni = ("x", "z", "t")
        x, z, t = (Poly.var(uni, v) for v in uni)
        for n in range(1, 6):
            total = Poly.zero(uni)
            for tree in enum.trees(range(1, n + 2), root=1):
                y1, e = tree.young_at_1, tree.eld_sub
                total = total + x ** y1 * (t - z) ** e * z ** (n - y1 - e)
            product = x * poly_prod((x + z * (n - k) + t * k
                                     for k in range(1, n)), uni)
            assert total == product, n


def test_c12_full_suite_exit_zero():
    with criterion(12, "full verification suite, default bounds"):
        start = time.perf_counter()
        reports = harness.run_suite()
        elapsed = time.perf_counter() - start
        failing = [r.identity for r in reports if r.status != "pass"]
        assert not failing, failing
        assert harness.suite_status(reports) == 0
        assert elapsed <= 300.0, elapsed
