from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramapoly.polyring import (ParseError, Poly, PolyError, UniverseMismatch,
                               parse, poly_prod)
from ramapoly.qpolys import q_n

XYZT = ("x", "y", "z", "t")
XT = ("x", "t")


def V(name, universe=XYZT):
    return Poly.var(universe, name)


def test_parse_basics():
    p = parse("x+y+z+t", XYZT)
    assert p == V("x") + V("y") + V("z") + V("t")
    assert parse("0", XYZT).is_zero()
    assert parse("0", XYZT).terms == {}
    assert parse("3*x*y + x^2", XYZT).render() == "x^2 + 3*x*y"


def test_parse_relaxed_forms():
    assert parse("3x", XT) == Poly.var(XT, "x") * 3
    assert parse("(x+1)(x+2)", XT) == parse("x^2 + 3x + 2", XT)
    assert parse("(x+t)^2", XT) == parse("x^2 + 2*x*t + t^2", XT)
    assert parse("-x + - 3", XT) == -Poly.var(XT, "x") - 3
    assert parse("2 - t", XT) == 2 - Poly.var(XT, "t")


def test_parse_errors_name_position():
    with pytest.raises(ParseError) as err:
        parse("x + w", XYZT)
    assert "w" in str(err.value) and "position 4" in str(err.value)
    with pytest.raises(ParseError):
        parse("x +", XYZT)
    with pytest.raises(ParseError):
        parse("x ? y", XYZT)
    with pytest.raises(ParseError):
        parse("(x+y", XYZT)
    with pytest.raises(ParseError):
        parse("x^y", XYZT)


def test_render_canonical_order():
    # graded order first, then lexicographic by the universe order
    q3 = "x^2 + 3*x*y + 3*x*z + 3*x*t + 3*y^2 + 4*y*z + 5*y*t + 2*z^2 + 4*z*t + 2*t^2"
    assert parse(q3, XYZT).render() == q3
    assert parse("t + x + 4", XYZT).render() == "x + t + 4"
    assert parse("- x^2 - 1", XT).render() == "-x^2 - 1"
    assert Poly.zero(XT).render() == "0"
    assert Poly.const(XT, -7).render() == "-7"


def test_arith_examples():
    x, y = V("x"), V("y")
    assert (x + y) * (x - y) == x * x - y * y
    p = parse("3x y + z", XYZT)
    assert p + Poly.zero(XYZT) == p
    prod = poly_prod((Poly.var(XT, "x") + k + Poly.var(XT, "t") * k
                      for k in range(1, 4)), XT)
    expected = parse("x^3+6x^2+11x+6+(6x^2+22x+18)t+(11x+18)t^2+6t^3", XT)
    assert prod == expected


def test_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        parse("x", XT) + parse("x", XYZT)
    with pytest.raises(UniverseMismatch):
        parse("x", XT).substitute({"y": 1})


def test_substitute_examples():
    q2 = parse("x+y+z+t", XYZT)
    assert q2.substitute({"t": -V("y")}) == parse("x+z", XYZT)
    q3 = parse("x^2+3xy+3xz+3xt+3y^2+4yz+5yt+2z^2+4zt+2t^2", XYZT)
    assert q3.substitute({}) == q3
    dual = q3.substitute({"x": V("x") + 3 * V("z") + 3 * V("t"),
                          "z": -V("t"), "t": -V("z")})
    assert dual == q3
    # simultaneous, not sequential: swapping z and t must not collapse them
    p = parse("z - t", XYZT)
    assert p.substitute({"z": V("t"), "t": V("z")}) == parse("t - z", XYZT)


def test_shifted_derivative_examples():
    one = Poly.const(XYZT, 1)
    assert one.shifted_derivative("y", 1) == one
    y2 = parse("y^2", XYZT)
    assert y2.shifted_derivative("y", 0) == parse("2y^2", XYZT)
    c = Poly.const(XYZT, 5)
    assert c.shifted_derivative("y", 3) == Poly.const(XYZT, 15)
    # the operator applied to 1 builds the first nontrivial polynomial
    built = parse("x+z", XYZT) * one + (V("y") + V("t")) * one.shifted_derivative("y", 1)
    assert built == parse("x+y+z+t", XYZT)
    with pytest.raises(PolyError):
        one.shifted_derivative("y", -1)


def test_evaluate_examples():
    q3 = parse("x^2+3xy+3xz+3xt+3y^2+4yz+5yt+2z^2+4zt+2t^2", XYZT)
    assert q3.evaluate({"x": 1, "y": 1, "z": 1, "t": 1}) == 30
    assert Poly.zero(XYZT).evaluate({}) == 0
    with pytest.raises(PolyError):
        q3.evaluate({"x": 1, "y": 1, "z": 1})
    # variables that do not occur need no assignment
    assert parse("x^2", XYZT).evaluate({"x": 3}) == 9


def test_extend():
    p = parse("x + 2t", XT)
    q = p.extend(XYZT)
    assert q.universe == XYZT
    assert q == parse("x + 2t", XYZT)
    with pytest.raises(UniverseMismatch):
        parse("x+y", XYZT).extend(XT)


def test_public_constructor_validates():
    with pytest.raises(PolyError):
        Poly(("x", "x"))
    with pytest.raises(PolyError):
        Poly(XT, {(1,): 1})
    with pytest.raises(PolyError):
        Poly(XT, {(1, -1): 1})
    with pytest.raises(PolyError):
        parse("x", XT).extend(("x", "t", "x"))
    assert Poly(XT, {(1, 0): 2, (0, 1): 0}).terms == {(1, 0): 2}
    # exact arithmetic only: a float coefficient or exponent is refused, as
    # is a key that is no exponent vector, even with a zero coefficient
    for terms in ({(1, 0): 1.5}, {(1.5, 0): 2}, {(1, 0.0): 0}, {1: 1}, {(1, "0"): 1}):
        with pytest.raises(PolyError):
            Poly(XT, terms)
    # exponents and coefficients are stored as plain ints
    p = Poly(XT, {(True, 0): True})
    assert p.terms == {(1, 0): 1} and type(next(iter(p.terms))[0]) is int
    assert_canonical(p)


def test_pow_and_neg():
    x = Poly.var(XT, "x")
    assert x ** 0 == Poly.const(XT, 1)
    assert (x + 1) ** 2 == parse("x^2 + 2x + 1", XT)
    with pytest.raises(PolyError):
        x ** -1


coeffs = st.integers(min_value=-9, max_value=9)


def poly_over(universe, max_exp, max_size):
    exps = st.tuples(*(st.integers(0, max_exp) for _ in universe))
    return st.dictionaries(exps, coeffs, max_size=max_size).map(lambda d: Poly(universe, d))


polys = poly_over(XT, 3, 6)


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p - p == Poly.zero(XT)


@given(polys)
@settings(max_examples=150, deadline=None)
def test_parse_render_round_trip(p):
    assert parse(p.render(), XT) == p


@given(polys)
@settings(max_examples=100, deadline=None)
def test_substitute_identity_assignment(p):
    idmap = {name: Poly.var(XT, name) for name in XT}
    assert p.substitute(idmap) == p


@given(polys, st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_shifted_derivative_decomposition(p, n):
    # the n-shift is the 0-shift plus n copies of the polynomial
    assert p.shifted_derivative("t", n) == p * n + p.shifted_derivative("t", 0)


# -- the one-pass substitution against the term-by-term reference --------------


def reference_substitute(p, assignment):
    """Term-by-term substitution built only from public Poly operations:
    each term becomes a product of powers of the values, summed in order."""
    uni = p.universe
    values = []
    for name in uni:
        value = assignment.get(name)
        if value is None:
            values.append(Poly.var(uni, name))
        elif isinstance(value, int):
            values.append(Poly.const(uni, value))
        else:
            values.append(value)
    result = Poly.zero(uni)
    for exps, coeff in p.terms.items():
        term = Poly.const(uni, coeff)
        for value, e in zip(values, exps):
            term = term * value ** e
        result = result + term
    return result


def assert_canonical(p):
    """The stored form __eq__ relies on: no zero coefficient, int
    coefficients, and nonnegative exponent tuples of universe arity."""
    for exps, coeff in p.terms.items():
        assert type(coeff) is int and coeff != 0
        assert type(exps) is tuple and len(exps) == len(p.universe)
        assert all(type(e) is int and e >= 0 for e in exps)


polys4 = poly_over(XYZT, 3, 6)
assignments = st.fixed_dictionaries({}, optional={
    name: st.one_of(st.integers(-3, 3), poly_over(XYZT, 2, 3)) for name in XYZT})
points = st.fixed_dictionaries({name: st.integers(-3, 3) for name in XYZT})


@given(polys4, assignments, points)
@settings(max_examples=200, deadline=None)
def test_substitute_matches_reference_and_evaluation(p, assignment, point):
    fast = p.substitute(assignment)
    assert fast == reference_substitute(p, assignment)
    assert_canonical(fast)
    image = dict(point)
    for name, value in assignment.items():
        image[name] = value if isinstance(value, int) else value.evaluate(point)
    assert fast.evaluate(point) == p.evaluate(image)


def test_duality_substitution_matches_reference():
    x, z, t = V("x"), V("z"), V("t")
    for n in range(1, 11):
        q = q_n(n)
        dual = {"x": x + z * n + t * n, "z": -t, "t": -z}
        fast = q.substitute(dual)
        assert fast == reference_substitute(q, dual) == q


def test_substitute_folds_and_packs():
    x, y, z, t = (V(name) for name in XYZT)
    p = parse("x^3*y^2 - 2x*z^2*t + 5y^3*t^2 - 7z^4 + 3", XYZT)
    cases = [
        # one-term values with |c| > 1 and exponents >= 2
        {"x": -3 * y ** 2 * z, "t": 2 * x ** 3},
        {"y": 5 * z ** 2 * t, "z": -2 * x * y ** 3, "t": -4},
        # the zero Poly and the int 0 as values
        {"x": Poly.zero(XYZT), "z": 0},
        {"y": Poly.zero(XYZT), "t": x + y},
        # monomial and multi-term values mixed
        {"x": x + z * 3 + t * 3, "y": -2 * t ** 2, "z": -t, "t": z - y},
        {"x": 7, "y": y * y - 1, "z": 2 * x * t},
    ]
    for assignment in cases:
        fast = p.substitute(assignment)
        assert fast == reference_substitute(p, assignment)
        assert_canonical(fast)
    # the zero polynomial substituted into
    zero = Poly.zero(XYZT)
    for assignment in cases + [{}]:
        assert zero.substitute(assignment).terms == {}
    # slots wider than 8 bits: deg 301 times value degree 2 needs 10
    big = Poly(XYZT, {(300, 1, 0, 0): 1})
    assignment = {"x": x + y, "y": 3 * z ** 2}
    fast = big.substitute(assignment)
    assert fast == reference_substitute(big, assignment)
    assert_canonical(fast)
    assert fast.coefficient((150, 150, 2, 0)) == 3 * comb(300, 150)


def test_substitute_horner_skips_empty_degrees():
    x, y, z, t = (V(name) for name in XYZT)
    # gapped x-exponents: nothing between x^2*t and x^7, and no x^0 term
    gapped = parse("x^7 + x^2*t", XYZT)
    for value in (x + y, 2 * x - 3 * z * t + 1, y + z):
        assignment = {"x": value, "z": -t}
        fast = gapped.substitute(assignment)
        assert fast == reference_substitute(gapped, assignment)
        assert_canonical(fast)
    # two multi-term values: each x-degree holds its own gapped set of y-degrees
    nested = parse("x^5*y^3 + 2x^5 - x^3*y^4 + x^3*y + 4x*y^2 - 3y^5 + 7", XYZT)
    for assignment in ({"x": x + t, "y": y - z + 1},
                       {"x": x + z * 3 + t * 3, "y": t * t - x, "z": -t},
                       {"x": x + y, "y": x - y, "z": z + t + 1, "t": 2}):
        fast = nested.substitute(assignment)
        assert fast == reference_substitute(nested, assignment)
        assert_canonical(fast)


def test_substitute_makes_one_packed_product_per_degree(monkeypatch):
    import ramapoly.polyring as pr
    calls = []

    def counting(left, right, out=None):
        calls.append(1)
        return mul_packed(left, right, out)
    mul_packed = pr._mul_packed
    monkeypatch.setattr(pr, "_mul_packed", counting)
    x, z, t = V("x"), V("z"), V("t")
    dual = {"x": x + z * 3 + t * 3, "z": -t, "t": -z}
    for d in range(0, 9):
        p = parse(f"x^{d}*y + 3y*z^2 - z*t + 2", XYZT)   # of x-degree d
        calls.clear()
        assert p.substitute(dual) == reference_substitute(p, dual)
        assert len(calls) == d
    q = q_n(8)   # of x-degree 7
    calls.clear()
    assert q.substitute(dual) == reference_substitute(q, dual)
    assert len(calls) == 7


@given(polys4, polys4, assignments, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_results_store_canonical_terms(p, q, assignment, shift):
    results = [p + q, p - q, p - p, p + (-p), p * q, p * 0, -p,
               p.derivative("y"), p.shifted_derivative("y", shift),
               p.shifted_derivative("z", 0), p.substitute(assignment),
               p.substitute({"x": 0, "y": V("y") - V("y")}),
               p.extend(XYZT + ("w",))]
    for r in results:
        assert_canonical(r)
    assert (p - p).terms == {}


# -- evaluation is a ring homomorphism; the calculus operators obey their laws --


@given(polys4, polys4, points, st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_evaluation_commutes_with_arithmetic(p, q, point, e):
    a, b = p.evaluate(point), q.evaluate(point)
    assert (p + q).evaluate(point) == a + b
    assert (p - q).evaluate(point) == a - b
    assert (p * q).evaluate(point) == a * b
    assert (p ** e).evaluate(point) == a ** e


@given(polys4, polys4, st.sampled_from(XYZT))
@settings(max_examples=150, deadline=None)
def test_derivative_product_rule(p, q, name):
    assert (p * q).derivative(name) == p.derivative(name) * q + p * q.derivative(name)


@given(polys4, st.sampled_from(XYZT), st.integers(0, 5), points)
@settings(max_examples=150, deadline=None)
def test_shifted_derivative_evaluates_to_its_definition(p, name, shift, point):
    # (s + v d/dv) p evaluates to s * p + v * p'
    expected = shift * p.evaluate(point) + point[name] * p.derivative(name).evaluate(point)
    assert p.shifted_derivative(name, shift).evaluate(point) == expected
