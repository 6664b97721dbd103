"""The generalized Ramanujan polynomial families and their symbolic identities.

Families, all with exact integer coefficients:

* ``q_n(n)``: the four-variable sequence defined by Q_1 = 1 and
  Q_{n+1} = [x + n z + (y + t)(n + y d/dy)] Q_n.
* ``q_nk(n, k)``: the coefficient triangle of Q_n(x, y, 1, t) in powers of y,
  computed by its own two-term recurrence (memoized in a :class:`QTable`);
  ``shifted=True`` gives Q_{n,k}(x - t - 1, t).
* ``p_n(n)``: the classical two-variable specialization (z=1, t=0 recurrence).
* ``r_n(n)``: the one-variable sequence with R_{n+1} = [n(1+y) + y^2 d/dy] R_n.

``closed_form`` builds the product formulas these families collapse to at
special values, and ``verify_identity`` checks every purely symbolic identity
exactly (recurrences, the duality substitution, the cleared 1/t reformulation,
the operator identities, and the Chu-Vandermonde variant).
"""

from __future__ import annotations

from math import comb
from typing import Callable

from .polyring import Poly, poly_prod

Q_VARS = ("x", "y", "z", "t")
QK_VARS = ("x", "t")
P_VARS = ("x", "y")
R_VARS = ("y",)

MAX_SYMBOLIC_N = 64


class BoundExceeded(RuntimeError):
    """A request exceeded a hard cap: the symbolic n cap here, or the
    enumeration label cap of :class:`treecore.TreeEnumerator`."""


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

_q_seq: list[Poly] = []
_p_seq: list[Poly] = []
_r_seq: list[Poly] = []


def q_n(n: int) -> Poly:
    """Q_n in the four variables x, y, z, t."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not _q_seq:
        _q_seq.append(Poly.const(Q_VARS, 1))
    x = Poly.var(Q_VARS, "x")
    z = Poly.var(Q_VARS, "z")
    y = Poly.var(Q_VARS, "y")
    t = Poly.var(Q_VARS, "t")
    while len(_q_seq) < n:
        m = len(_q_seq)          # _q_seq[m-1] = Q_m; build Q_{m+1}
        prev = _q_seq[m - 1]
        _q_seq.append((x + z * m) * prev + (y + t) * prev.shifted_derivative("y", m))
    return _q_seq[n - 1]


def p_n(n: int) -> Poly:
    """The two-variable specialization: P_{n+1} = [x + n + y(n + y d/dy)] P_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not _p_seq:
        _p_seq.append(Poly.const(P_VARS, 1))
    x = Poly.var(P_VARS, "x")
    y = Poly.var(P_VARS, "y")
    while len(_p_seq) < n:
        m = len(_p_seq)
        prev = _p_seq[m - 1]
        _p_seq.append((x + m) * prev + y * prev.shifted_derivative("y", m))
    return _p_seq[n - 1]


def r_n(n: int) -> Poly:
    """The one-variable sequence: R_{n+1} = [n(1 + y) + y^2 d/dy] R_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not _r_seq:
        _r_seq.append(Poly.const(R_VARS, 1))
    y = Poly.var(R_VARS, "y")
    while len(_r_seq) < n:
        m = len(_r_seq)
        prev = _r_seq[m - 1]
        _r_seq.append(prev * m + y * prev * m + y * y * prev.derivative("y"))
    return _r_seq[n - 1]


class QTable:
    """Memoized triangle of the coefficient polynomials in {x, t}.

    Entry (1, 0) is 1; entries with k >= n or k < 0 are zero by definition.
    The shifted triangle Q_{n,k}(x - t - 1, t) has its own recurrence: the
    substitution is a ring homomorphism, so pushing it through the plain
    recurrence turns the factor x + n - 1 + t(n + k - 1) into
    x + n - 2 + t(n + k - 2) and leaves everything else alone.
    """

    def __init__(self):
        self._plain: dict[tuple[int, int], Poly] = {(1, 0): Poly.const(QK_VARS, 1)}
        self._shifted: dict[tuple[int, int], Poly] = {(1, 0): Poly.const(QK_VARS, 1)}

    def get(self, n: int, k: int) -> Poly:
        return self._entry(self._plain, n, k, 1)

    def get_shifted(self, n: int, k: int) -> Poly:
        return self._entry(self._shifted, n, k, 2)

    def _entry(self, memo: dict[tuple[int, int], Poly], n: int, k: int, lag: int) -> Poly:
        """Q_{n,k} = (x + n - lag + t(n + k - lag)) Q_{n-1,k} + (n + k - 2) Q_{n-1,k-1}."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if k < 0 or k >= n:
            return Poly.zero(QK_VARS)
        key = (n, k)
        if key not in memo:
            x = Poly.var(QK_VARS, "x")
            t = Poly.var(QK_VARS, "t")
            head = (x + (n - lag) + t * (n + k - lag)) * self._entry(memo, n - 1, k, lag)
            tail = self._entry(memo, n - 1, k - 1, lag) * (n + k - 2)
            memo[key] = head + tail
        return memo[key]


_default_table = QTable()


def q_nk(n: int, k: int, shifted: bool = False) -> Poly:
    """Q_{n,k}(x, t), or Q_{n,k}(x - t - 1, t) when shifted."""
    return _default_table.get_shifted(n, k) if shifted else _default_table.get(n, k)


# -- closed-form products ----------------------------------------------------

def closed_form(name: str, n: int) -> Poly:
    """Expanded product formulas, all in the four-variable universe."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = Poly.var(Q_VARS, "x")
    z = Poly.var(Q_VARS, "z")
    t = Poly.var(Q_VARS, "t")
    if name == "special2":
        return poly_prod((x + z * k for k in range(1, n)), Q_VARS)
    if name == "factor":
        return poly_prod((x + z * k + t * k for k in range(1, n)), Q_VARS)
    if name == "qnxt":
        return poly_prod((x + z * n + t * k for k in range(1, n)), Q_VARS)
    if name == "gessel-seo":
        return x * poly_prod((x + z * (n - k) + t * k for k in range(1, n)), Q_VARS)
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
    x = Poly.var(Q_VARS, "x")
    z = Poly.var(Q_VARS, "z")
    t = Poly.var(Q_VARS, "t")
    return mismatch(q, q.substitute({"x": x + z * n + t * n, "z": -t, "t": -z}))


def _expansion(n: int) -> Witness:
    lhs = q_n(n).substitute({"z": 1})
    y = Poly.var(Q_VARS, "y")
    rhs = Poly.zero(Q_VARS)
    for k in range(n):
        rhs = rhs + q_nk(n, k).extend(Q_VARS) * y ** k
    return mismatch(lhs, rhs)


def _specialization(name: str, n: int) -> Witness:
    subs = {"special2": {"t": -Poly.var(Q_VARS, "y")},
            "factor": {"y": 0},
            "qnxt": {"y": Poly.var(Q_VARS, "z")}}[name]
    return mismatch(q_n(n).substitute(subs), closed_form(name, n))


def _gessel_seo(n: int) -> Witness:
    z = Poly.var(Q_VARS, "z")
    t = Poly.var(Q_VARS, "t")
    lhs = Poly.var(Q_VARS, "x") * q_n(n).substitute({"y": z, "t": t - z})
    return mismatch(lhs, closed_form("gessel-seo", n))


def _each_k(check: Callable[[int, int], Witness]) -> Callable[[int, int | None], Witness]:
    """Lift a table identity at (n, k) to n: the given k, else the first
    failing k < n.  The table identities start at n = 2."""
    def run(n: int, k: int | None) -> Witness:
        if n < 2:
            return None
        for kk in (range(n) if k is None else [k]):
            witness = check(n, kk)
            if witness is not None:
                return witness
        return None
    return run


@_each_k
def _rec2(n: int, k: int) -> Witness:
    x = Poly.var(QK_VARS, "x")
    t = Poly.var(QK_VARS, "t")
    shift = {"x": x + t + 1}
    rhs = (x - k + t + 1) * q_nk(n - 1, k).substitute(shift) \
        + q_nk(n - 1, k - 1).substitute(shift) * (n + k - 2)
    return mismatch(q_nk(n, k), rhs)


@_each_k
def _rec3(n: int, k: int) -> Witness:
    x = Poly.var(QK_VARS, "x")
    rhs = (x - k) * q_nk(n - 1, k) + q_nk(n - 1, k - 1) * (n + k - 2)
    return mismatch(q_nk(n, k, shifted=True), rhs)


@_each_k
def _diff(n: int, k: int) -> Witness:
    t = Poly.var(QK_VARS, "t")
    lhs = q_nk(n, k) - q_nk(n, k, shifted=True)
    rhs = (t + 1) * q_nk(n - 1, k) * (n + k - 1)
    return mismatch(lhs, rhs)


@_each_k
def _mainconj(n: int, k: int) -> Witness:
    # Q_{n,k}(-(x+n+nt)/t, 1/t) * (-t)^(n-k-1) with the powers of t cleared
    # monomial by monomial; polynomial because deg Q_{n,k} <= n-k-1.
    p = q_nk(n, k)
    d = n - k - 1
    x = Poly.var(QK_VARS, "x")
    t = Poly.var(QK_VARS, "t")
    base = x + n + t * n
    base_powers = [Poly.const(QK_VARS, 1)]  # base_powers[a] = base ** a
    for _ in range(d):
        base_powers.append(base_powers[-1] * base)
    rhs = Poly.zero(QK_VARS)
    for (a, b), coeff in p.terms.items():
        residue = d - a - b
        if residue < 0:
            return {"reason": f"monomial x^{a}*t^{b} exceeds degree {d}"}
        sign = -1 if (a + d) % 2 else 1
        rhs = rhs + base_powers[a] * Poly.var(QK_VARS, "t", residue) * (sign * coeff)
    return mismatch(p, rhs)


def _operator_remark(n: int) -> Witness:
    x = Poly.var(Q_VARS, "x")
    z = Poly.var(Q_VARS, "z")
    y = Poly.var(Q_VARS, "y")
    t = Poly.var(Q_VARS, "t")
    f_n = q_n(n)
    f_next = q_n(n + 1)
    shifted = f_next.substitute({"x": x - z - t})
    # F_{n+1}(x - z - t) == [x + nz + (y - z)(n + y d/dy)] F_n
    rhs1 = (x + z * n) * f_n + (y - z) * f_n.shifted_derivative("y", n)
    # F_{n+1}(x) - F_{n+1}(x - z - t) == (z + t)(n + y d/dy) F_n
    witness = (mismatch(shifted, rhs1)
               or mismatch(f_next - shifted, (z + t) * f_n.shifted_derivative("y", n)))
    if witness is not None or n < 2:
        return witness
    # (y+t)(n + y d/dy)(n-1 + y d/dy) == (n-1 + y d/dy)[(y+t)(n + y d/dy) - y]
    # applied to F_{n-1}, the instance the inductive argument uses.
    f_prev = q_n(n - 1)
    lhs = (y + t) * f_prev.shifted_derivative("y", n - 1).shifted_derivative("y", n)
    inner = (y + t) * f_prev.shifted_derivative("y", n) - y * f_prev
    return mismatch(lhs, inner.shifted_derivative("y", n - 1))


def _chu(n: int) -> Witness:
    uni = ("x", "y", "t")
    x = Poly.var(uni, "x")
    y = Poly.var(uni, "y")
    t = Poly.var(uni, "t")
    lhs = Poly.zero(uni)
    for k in range(n + 1):
        head = poly_prod((x + t * i for i in range(k + 1)), uni)
        tail = poly_prod((y + t * j for j in range(n - k)), uni)
        lhs = lhs + head * tail * comb(n, k)
    rhs = x * poly_prod((x + y + t * k for k in range(1, n + 1)), uni)
    return mismatch(lhs, rhs)


# name -> check(n, k); only the table identities read k
_CHECKS: dict[str, Callable[[int, int | None], Witness]] = {
    "duality": lambda n, k: _duality(n),
    "expansion": lambda n, k: _expansion(n),
    "special2": lambda n, k: _specialization("special2", n),
    "factor": lambda n, k: _specialization("factor", n),
    "qnxt": lambda n, k: _specialization("qnxt", n),
    "gessel-seo": lambda n, k: _gessel_seo(n),
    "chu": lambda n, k: _chu(n),
    "operator-remark": lambda n, k: _operator_remark(n),
    "rec2": _rec2,
    "rec3": _rec3,
    "diff": _diff,
    "mainconj": _mainconj,
}


def verify_identity(name: str, n: int, k: int | None = None) -> Witness:
    """Check one named identity exactly at the given n (and k, for the table
    identities rec2, rec3, diff and mainconj).

    Returns None when it holds, else the failure witness; raises
    BoundExceeded above MAX_SYMBOLIC_N.
    """
    check = _CHECKS.get(name)
    if check is None:
        raise ValueError(f"unknown identity {name!r}; known: {sorted(_CHECKS)}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_SYMBOLIC_N:
        raise BoundExceeded(f"n > {MAX_SYMBOLIC_N}")
    return check(n, k)
