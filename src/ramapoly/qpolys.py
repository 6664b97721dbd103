"""The generalized Ramanujan polynomial families and their symbolic identities.

Families, all with exact integer coefficients:

* ``q_n(n)``: the four-variable sequence defined by Q_1 = 1 and
  Q_{n+1} = [x + n z + (y + t)(n + y d/dy)] Q_n.
* ``q_nk(n, k)``: the coefficient triangle of Q_n(x, y, 1, t) in powers of y,
  computed by its own two-term recurrence and memoized per (n, k);
  ``shifted=True`` gives Q_{n,k}(x - t - 1, t).
* ``p_n(n)``: the classical two-variable specialization (z=1, t=0 recurrence).
* ``r_n(n)``: the one-variable sequence with R_{n+1} = [n(1+y) + y^2 d/dy] R_n.

``closed_form`` builds the product formulas these families collapse to at
special values, and ``verify_identity`` checks every purely symbolic identity
exactly (recurrences, the duality substitution, the cleared 1/t reformulation,
the operator identities, and the Chu-Vandermonde variant).
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate
from math import comb
from operator import mul
from typing import Callable

from .polyring import Poly, poly_prod

Q_VARS = ("x", "y", "z", "t")
QK_VARS = ("x", "t")
P_VARS = ("x", "y")
R_VARS = ("y",)

MAX_SYMBOLIC_N = 64

_X, _Y, _Z, _T = (Poly.var(Q_VARS, v) for v in Q_VARS)
_KX, _KT = (Poly.var(QK_VARS, v) for v in QK_VARS)


class BoundExceeded(RuntimeError):
    """A request exceeded a hard cap: the symbolic n cap here, or the
    label cap that :func:`treecore.check_label_count` checks."""


def check_symbolic_n(n: int) -> None:
    """The symbolic n cap: BoundExceeded above MAX_SYMBOLIC_N."""
    if n > MAX_SYMBOLIC_N:
        raise BoundExceeded(f"n > {MAX_SYMBOLIC_N}")


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    if not 1 <= k <= n:
        return 0
    return comb(n, k) * comb(n, k - 1) // n


def odd_double_factorial(m: int) -> int:
    """m!! for odd m >= -1; (-1)!! = 1 by convention."""
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


# -- the polynomial families -------------------------------------------------

_q_seq = [Poly.const(Q_VARS, 1)]
_p_seq = [Poly.const(P_VARS, 1)]
_r_seq = [Poly.const(R_VARS, 1)]


def _extend(seq: list[Poly], n: int, step: Callable[[Poly, int], Poly]) -> Poly:
    """seq[n - 1], appending step(seq[m - 1], m) for each missing seq[m]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    while len(seq) < n:
        seq.append(step(seq[-1], len(seq)))
    return seq[n - 1]


def q_n(n: int) -> Poly:
    """Q_n in the four variables x, y, z, t."""
    return _extend(_q_seq, n, lambda prev, m:
                   (_X + _Z * m) * prev + (_Y + _T) * prev.shifted_derivative("y", m))


def p_n(n: int) -> Poly:
    """The two-variable specialization: P_{n+1} = [x + n + y(n + y d/dy)] P_n."""
    x, y = (Poly.var(P_VARS, v) for v in P_VARS)
    return _extend(_p_seq, n, lambda prev, m:
                   (x + m) * prev + y * prev.shifted_derivative("y", m))


def r_n(n: int) -> Poly:
    """The one-variable sequence: R_{n+1} = [n(1 + y) + y^2 d/dy] R_n."""
    y = Poly.var(R_VARS, "y")
    return _extend(_r_seq, n, lambda prev, m:
                   prev * m + y * prev * m + y * y * prev.derivative("y"))


# Memoized triangles, plain and shifted; entry (1, 0) is 1.  The shifted
# triangle Q_{n,k}(x - t - 1, t) has its own recurrence: the substitution is a
# ring homomorphism, so pushing it through the plain recurrence turns the
# factor x + n - 1 + t(n + k - 1) into x + n - 2 + t(n + k - 2) and leaves
# everything else alone.
_qk_plain = {(1, 0): Poly.const(QK_VARS, 1)}
_qk_shifted = {(1, 0): Poly.const(QK_VARS, 1)}


def _entry(memo: dict[tuple[int, int], Poly], n: int, k: int, lag: int) -> Poly:
    """Q_{n,k} = (x + n - lag + t(n + k - lag)) Q_{n-1,k} + (n + k - 2) Q_{n-1,k-1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0 or k >= n:
        return Poly.zero(QK_VARS)
    key = (n, k)
    if key not in memo:
        head = (_KX + (n - lag) + _KT * (n + k - lag)) * _entry(memo, n - 1, k, lag)
        tail = _entry(memo, n - 1, k - 1, lag) * (n + k - 2)
        memo[key] = head + tail
    return memo[key]


def q_nk(n: int, k: int, shifted: bool = False) -> Poly:
    """Q_{n,k}(x, t), or Q_{n,k}(x - t - 1, t) when shifted; zero unless 0 <= k < n."""
    return _entry(_qk_shifted, n, k, 2) if shifted else _entry(_qk_plain, n, k, 1)


# -- closed-form products ----------------------------------------------------

def closed_form(name: str, n: int) -> Poly:
    """Expanded product formulas, all in the four-variable universe."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if name == "special2":
        return poly_prod((_X + _Z * k for k in range(1, n)), Q_VARS)
    if name == "factor":
        return poly_prod((_X + _Z * k + _T * k for k in range(1, n)), Q_VARS)
    if name == "qnxt":
        return poly_prod((_X + _Z * n + _T * k for k in range(1, n)), Q_VARS)
    if name == "gessel-seo":
        return _X * poly_prod((_X + _Z * (n - k) + _T * k for k in range(1, n)), Q_VARS)
    raise ValueError(f"unknown closed form {name!r}")


# -- identity verification ---------------------------------------------------

Witness = dict | None


def mismatch(lhs: Poly | int, rhs: Poly | int) -> Witness:
    """None when lhs == rhs, else the failure witness with both sides rendered."""
    if lhs == rhs:
        return None
    return {"lhs": str(lhs), "rhs": str(rhs)}


def _duality(n: int) -> Witness:
    q = q_n(n)
    return mismatch(q, q.substitute({"x": _X + _Z * n + _T * n, "z": -_T, "t": -_Z}))


def _expansion(n: int) -> Witness:
    lhs = q_n(n).substitute({"z": 1})
    rhs = Poly.zero(Q_VARS)
    for k in range(n):
        rhs = rhs + q_nk(n, k).extend(Q_VARS) * _Y ** k
    return mismatch(lhs, rhs)


def _specialization(name: str, n: int) -> Witness:
    subs = {"special2": {"t": -_Y},
            "factor": {"y": 0},
            "qnxt": {"y": _Z}}[name]
    return mismatch(q_n(n).substitute(subs), closed_form(name, n))


def _gessel_seo(n: int) -> Witness:
    lhs = _X * q_n(n).substitute({"y": _Z, "t": _T - _Z})
    return mismatch(lhs, closed_form("gessel-seo", n))


def _each_k(check: Callable[[int, int], Witness]) -> Callable[[int], Witness]:
    """Lift a table identity at (n, k) to n: the first failing k < n.  The
    table identities start at n = 2."""
    def run(n: int) -> Witness:
        if n < 2:
            return None
        for k in range(n):
            witness = check(n, k)
            if witness is not None:
                return witness
        return None
    return run


def _rec2(n: int) -> Witness:
    # Q_{n,k} = (x - k + t + 1) Q_{n-1,k}(x + t + 1) + (n + k - 2) Q_{n-1,k-1}(x + t + 1);
    # row[j + 1] = Q_{n-1,j}(x + t + 1, t) serves both k = j and k = j + 1.
    shift = {"x": _KX + _KT + 1}
    zero = Poly.zero(QK_VARS)
    row = [zero] + [q_nk(n - 1, j).substitute(shift) for j in range(n - 1)] + [zero]

    def at_k(n: int, k: int) -> Witness:
        return mismatch(q_nk(n, k), (_KX - k + _KT + 1) * row[k + 1] + row[k] * (n + k - 2))
    return _each_k(at_k)(n)


@_each_k
def _rec3(n: int, k: int) -> Witness:
    rhs = (_KX - k) * q_nk(n - 1, k) + q_nk(n - 1, k - 1) * (n + k - 2)
    return mismatch(q_nk(n, k, shifted=True), rhs)


@_each_k
def _diff(n: int, k: int) -> Witness:
    lhs = q_nk(n, k) - q_nk(n, k, shifted=True)
    rhs = (_KT + 1) * q_nk(n - 1, k) * (n + k - 1)
    return mismatch(lhs, rhs)


def _mainconj_image(p: Poly, n: int, d: int) -> Poly:
    """p(-(x+n+nt)/t, 1/t) * (-t)^d with the powers of t cleared, for p of
    degree at most d: c x^a t^b goes to c (-1)^d x^a t^(d-a-b), and then
    x -> -(x+n+nt) supplies (-1)^a (x+n+nt)^a."""
    sign = -1 if d % 2 else 1
    cleared = Poly(QK_VARS, {(a, d - a - b): sign * c for (a, b), c in p.terms.items()})
    return cleared.substitute({"x": -(_KX + n + _KT * n)})


@_each_k
def _mainconj(n: int, k: int) -> Witness:
    # Q_{n,k} is its own image with d = n-k-1; polynomial because
    # deg Q_{n,k} <= d.
    p = q_nk(n, k)
    d = n - k - 1
    for a, b in p.terms:
        if a + b > d:
            return {"reason": f"monomial x^{a}*t^{b} exceeds degree {d}"}
    return mismatch(p, _mainconj_image(p, n, d))


def _operator_remark(n: int) -> Witness:
    f_n = q_n(n)
    f_next = q_n(n + 1)
    shifted = f_next.substitute({"x": _X - _Z - _T})
    # F_{n+1}(x - z - t) == [x + nz + (y - z)(n + y d/dy)] F_n
    rhs1 = (_X + _Z * n) * f_n + (_Y - _Z) * f_n.shifted_derivative("y", n)
    # F_{n+1}(x) - F_{n+1}(x - z - t) == (z + t)(n + y d/dy) F_n
    witness = (mismatch(shifted, rhs1)
               or mismatch(f_next - shifted, (_Z + _T) * f_n.shifted_derivative("y", n)))
    if witness is not None or n < 2:
        return witness
    # (y+t)(n + y d/dy)(n-1 + y d/dy) == (n-1 + y d/dy)[(y+t)(n + y d/dy) - y]
    # applied to F_{n-1}, the instance the inductive argument uses.
    f_prev = q_n(n - 1)
    lhs = (_Y + _T) * f_prev.shifted_derivative("y", n - 1).shifted_derivative("y", n)
    inner = (_Y + _T) * f_prev.shifted_derivative("y", n) - _Y * f_prev
    return mismatch(lhs, inner.shifted_derivative("y", n - 1))


def _chu(n: int) -> Witness:
    uni = ("x", "y", "t")
    x, y, t = (Poly.var(uni, v) for v in uni)
    # running products: heads[k] = prod_{i<=k} (x + ti), tails[m] = prod_{j<m} (y + tj)
    heads = list(accumulate((x + t * i for i in range(1, n + 1)), mul, initial=x))
    tails = list(accumulate((y + t * j for j in range(n)), mul, initial=Poly.const(uni, 1)))
    lhs = Poly.zero(uni)
    for k in range(n + 1):
        lhs = lhs + heads[k] * tails[n - k] * comb(n, k)
    rhs = x * poly_prod((x + y + t * k for k in range(1, n + 1)), uni)
    return mismatch(lhs, rhs)


_CHECKS: dict[str, Callable[[int], Witness]] = {
    "duality": _duality,
    "expansion": _expansion,
    "special2": partial(_specialization, "special2"),
    "factor": partial(_specialization, "factor"),
    "qnxt": partial(_specialization, "qnxt"),
    "gessel-seo": _gessel_seo,
    "chu": _chu,
    "operator-remark": _operator_remark,
    "rec2": _rec2,
    "rec3": _rec3,
    "diff": _diff,
    "mainconj": _mainconj,
}


def verify_identity(name: str, n: int) -> Witness:
    """Check one named identity exactly at the given n (the table identities
    rec2, rec3, diff and mainconj at every k < n).

    Returns None when it holds, else the failure witness; raises
    BoundExceeded above MAX_SYMBOLIC_N.
    """
    check = _CHECKS.get(name)
    if check is None:
        raise ValueError(f"unknown identity {name!r}; known: {sorted(_CHECKS)}")
    if n < 1:
        raise ValueError("n must be >= 1")
    check_symbolic_n(n)
    return check(n)
