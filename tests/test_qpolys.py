from math import comb, factorial

import pytest

from ramapoly import qpolys as qp
from ramapoly.polyring import Poly, parse, poly_prod
from ramapoly.qpolys import QK_VARS, Q_VARS, BoundExceeded

# the displayed values, entered verbatim and reparsed for byte comparisons
TABLE_PLAIN = {
    (1, 0): "1",
    (2, 0): "x+1+t", (2, 1): "1",
    (3, 0): "x^2+3x+2+(3x+4)t+2t^2", (3, 1): "3x+4+5t", (3, 2): "3",
    (4, 0): "x^3+6x^2+11x+6+(6x^2+22x+18)t+(11x+18)t^2+6t^3",
    (4, 1): "6x^2+22x+18+(26x+43)t+26t^2",
    (4, 2): "15x+25+35t", (4, 3): "15",
}
TABLE_PLAIN_SUMS = {1: "1", 2: "x+2+t", 3: "(x+3+t)(x+3+2t)",
                    4: "(x+4+t)(x+4+2t)(x+4+3t)"}
TABLE_SHIFTED = {
    (1, 0): "1",
    (2, 0): "x", (2, 1): "1",
    (3, 0): "x^2+x+xt", (3, 1): "3x+1+2t", (3, 2): "3",
    (4, 0): "x^3+3x^2+2x+(3x^2+4x)t+2xt^2",
    (4, 1): "6x^2+10x+2+(14x+7)t+6t^2",
    (4, 2): "15x+10+20t", (4, 3): "15",
}
TABLE_SHIFTED_SUMS = {1: "1", 2: "x+1", 3: "(x+2)(x+2+t)",
                      4: "(x+3)(x+3+t)(x+3+2t)"}


def test_q_n_small_values():
    assert qp.q_n(1).render() == "1"
    assert qp.q_n(2).render() == "x + y + z + t"
    assert qp.q_n(3) == parse(
        "x^2+3xy+3xz+3xt+3y^2+4yz+5yt+2z^2+4zt+2t^2", Q_VARS)
    with pytest.raises(ValueError):
        qp.q_n(0)


@pytest.mark.parametrize("nk,text", sorted(TABLE_PLAIN.items()))
def test_table_plain_cells(nk, text):
    n, k = nk
    assert qp.q_nk(n, k).render() == parse(text, QK_VARS).render()


@pytest.mark.parametrize("nk,text", sorted(TABLE_SHIFTED.items()))
def test_table_shifted_cells(nk, text):
    n, k = nk
    assert qp.q_nk(n, k, shifted=True).render() == parse(text, QK_VARS).render()


@pytest.mark.parametrize("shifted,sums",
                         [(False, TABLE_PLAIN_SUMS), (True, TABLE_SHIFTED_SUMS)])
def test_table_sum_rows(shifted, sums):
    for n, text in sums.items():
        total = Poly.zero(QK_VARS)
        for k in range(n):
            total = total + qp.q_nk(n, k, shifted=shifted)
        assert total == parse(text, QK_VARS)


def test_shifted_recurrence_matches_substitution():
    # reference: the shifted table as the substitution x -> x - t - 1 into
    # the plain one; q_nk builds it by its own recurrence instead
    x = Poly.var(QK_VARS, "x")
    t = Poly.var(QK_VARS, "t")
    for n in range(1, 13):
        for k in range(-1, n + 1):
            reference = qp.q_nk(n, k).substitute({"x": x - t - 1})
            assert qp.q_nk(n, k, shifted=True) == reference, (n, k)


def test_q_nk_out_of_range_is_zero():
    assert qp.q_nk(3, 3).is_zero()
    assert qp.q_nk(3, -1).is_zero()
    assert qp.q_nk(5, 99).is_zero()
    with pytest.raises(ValueError):
        qp.q_nk(0, 0)
    with pytest.raises(ValueError):
        qp.q_nk(0, 0, shifted=True)


def test_q_nk_edge_rows():
    x, t = Poly.var(QK_VARS, "x"), Poly.var(QK_VARS, "t")
    for n in range(1, 11):
        assert qp.q_nk(n, n - 1) == Poly.const(QK_VARS, qp.odd_double_factorial(2 * n - 3))
        assert qp.q_nk(n, 0) == poly_prod((x + k + t * k for k in range(1, n)), QK_VARS)


def test_r_n_values():
    assert qp.r_n(1).render() == "1"
    assert qp.r_n(2) == parse("1+y", ("y",))
    assert qp.r_n(3) == parse("2+4y+3y^2", ("y",))
    assert qp.r_n(4) == parse("6+18y+25y^2+15y^3", ("y",))
    for n in range(1, 11):
        r = qp.r_n(n)
        assert r.coefficient((0,)) == factorial(n - 1)
        assert r.evaluate({"y": 1}) == n ** (n - 1)
    assert qp.r_n(4).evaluate({"y": 1}) == 64


def test_homogeneity_and_positivity():
    for n in range(1, 11):
        q = qp.q_n(n)
        assert all(sum(e) == n - 1 for e in q.terms)
        assert all(c > 0 for c in q.terms.values())


def test_specialization_lattice():
    y = Poly.var(Q_VARS, "y")
    z = Poly.var(Q_VARS, "z")
    for n in range(1, 9):
        q = qp.q_n(n)
        assert q.substitute({"z": 1, "t": 0}) == qp.p_n(n).extend(Q_VARS)
        assert q.substitute({"x": 0, "z": 1, "t": 0}) == qp.r_n(n).extend(Q_VARS)
        assert q.substitute({"y": 0}) == qp.closed_form("factor", n)
        assert q.substitute({"t": -y}) == qp.closed_form("special2", n)
        assert q.substitute({"y": z}) == qp.closed_form("qnxt", n)


def test_all_ones_value():
    for n in range(1, 10):
        value = qp.q_n(n).evaluate({"x": 1, "y": 1, "z": 1, "t": 1})
        assert value == factorial(n) * qp.catalan(n)


def test_closed_form_examples():
    x, z, t = (Poly.var(Q_VARS, v) for v in ("x", "z", "t"))
    assert qp.closed_form("qnxt", 3) == (x + 3 * z + t) * (x + 3 * z + 2 * t)
    assert qp.closed_form("factor", 1) == Poly.const(Q_VARS, 1)
    assert qp.closed_form("special2", 4) == (x + z) * (x + 2 * z) * (x + 3 * z)
    with pytest.raises(ValueError):
        qp.closed_form("nope", 3)


def test_verify_identity_examples():
    assert qp.verify_identity("duality", 4) is None
    assert qp.verify_identity("expansion", 5) is None
    assert qp.verify_identity("diff", 4) is None
    assert qp.verify_identity("rec2", 5) is None
    assert qp.verify_identity("rec3", 5) is None
    assert qp.verify_identity("mainconj", 5) is None
    assert qp.verify_identity("operator-remark", 3) is None
    assert qp.verify_identity("chu", 6) is None
    with pytest.raises(ValueError):
        qp.verify_identity("unknown-tag", 3)
    with pytest.raises(ValueError):
        qp.verify_identity("duality", 0)


def test_table_identities_check_every_k():
    # a table identity holds at n only when it holds at every k < n; n = 1
    # has no table identity to check
    for bad in range(5):
        seen = []

        def check(n, k):
            seen.append(k)
            return {"k": k} if k == bad else None

        assert qp._each_k(check)(5) == {"k": bad}
        assert seen == list(range(bad + 1))
    assert qp._each_k(check)(1) is None


def mainconj_reference(p, n, d):
    """The cleared image of p term by term: (-1)^(a+d) (x+n+nt)^a t^(d-a-b)
    for each c x^a t^b, summed in order."""
    x, t = (Poly.var(QK_VARS, v) for v in QK_VARS)
    rhs = Poly.zero(QK_VARS)
    for (a, b), coeff in p.terms.items():
        sign = -1 if (a + d) % 2 else 1
        rhs = rhs + (x + n + t * n) ** a * t ** (d - a - b) * (sign * coeff)
    return rhs


def test_mainconj_image_matches_reference():
    x = Poly.var(QK_VARS, "x")
    for n in range(2, 9):
        for k in range(n):
            d = n - k - 1
            cell = qp.q_nk(n, k)
            assert qp._mainconj_image(cell, n, d) == mainconj_reference(cell, n, d) == cell
            # off the identity too: a cell that is not its own image
            bent = cell + x ** d * 2 - 3
            assert qp._mainconj_image(bent, n, d) == mainconj_reference(bent, n, d)
        assert qp.verify_identity("mainconj", n) is None


def test_mainconj_catches_a_changed_table_cell(monkeypatch):
    # 22x -> 23x in Q_{4,1}; x is not its own image, so k = 1 must fail
    true_q_nk = qp.q_nk
    bent = true_q_nk(4, 1) + Poly.var(QK_VARS, "x")
    monkeypatch.setattr(qp, "q_nk", lambda n, k, shifted=False:
                        bent if (n, k, shifted) == (4, 1, False) else true_q_nk(n, k, shifted))
    witness = qp.verify_identity("mainconj", 4)
    assert witness is not None and witness["lhs"] == str(bent)
    assert qp.verify_identity("mainconj", 5) is None


def test_duality_needs_the_sign_of_z():
    x, z, t = (Poly.var(Q_VARS, v) for v in ("x", "z", "t"))
    for n in range(2, 8):
        q = qp.q_n(n)
        assert q.substitute({"x": x + z * n + t * n, "z": -t, "t": -z}) == q
        assert q.substitute({"x": x + z * n + t * n, "z": t, "t": -z}) != q


def test_chu_builds_its_products_by_running_products(monkeypatch):
    calls = []
    mul = Poly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)
    monkeypatch.setattr(Poly, "__mul__", counting)
    # At n, Poly.__mul__ runs: n scalings t*i and n products for the heads
    # x(x+t)...(x+nt); n scalings t*j and n products for the tails
    # (y)(y+t)...(y+(n-1)t); two per k for head * tail * C(n, k), k = 0..n;
    # n scalings t*k and n products in poly_prod for the right side, and one
    # more for its factor x: 2n + 2n + 2(n + 1) + 2n + 1 = 8n + 3, linear in n.
    for n in (1, 10, 20):
        calls.clear()
        assert qp.verify_identity("chu", n) is None
        assert len(calls) == 8 * n + 3


def test_verify_identity_bound_exceeded():
    with pytest.raises(BoundExceeded):
        qp.verify_identity("duality", qp.MAX_SYMBOLIC_N + 1)


def test_diff_instance_matches_spec_schema():
    # table row n=4, k=1: difference equals (t+1) * 4 * previous row entry
    t = Poly.var(QK_VARS, "t")
    lhs = qp.q_nk(4, 1) - qp.q_nk(4, 1, shifted=True)
    assert lhs == (t + 1) * qp.q_nk(3, 1) * 4


def test_parse_render_identity_on_family_output():
    from ramapoly.polyring import parse as reparse
    for n in range(1, 7):
        q = qp.q_n(n)
        assert reparse(q.render(), Q_VARS) == q
        for k in range(n):
            cell = qp.q_nk(n, k)
            assert reparse(cell.render(), QK_VARS) == cell
    assert reparse(qp.r_n(6).render(), ("y",)) == qp.r_n(6)


def test_catalan_and_narayana():
    assert [qp.catalan(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert qp.narayana(6, 3) == comb(6, 3) * comb(6, 2) // 6
    assert qp.narayana(4, 0) == 0
    assert qp.odd_double_factorial(-1) == 1
    assert qp.odd_double_factorial(5) == 15
