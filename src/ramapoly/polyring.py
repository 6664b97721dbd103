"""Exact sparse multivariate polynomial arithmetic over the integers.

A polynomial lives in a fixed *universe*: an ordered tuple of variable names,
e.g. ``("x", "y", "z", "t")``.  Terms are stored as a dict mapping exponent
tuples (one entry per universe variable) to nonzero ``int`` coefficients; the
zero polynomial has an empty term map.  Coefficients are plain Python ints,
so nothing overflows or rounds.

Canonical text form (bit-stable, used for golden comparisons): terms sorted
by descending total degree, ties broken lexicographically by the exponent
vector in universe order; terms joined with `` + `` / `` - ``; a coefficient
of magnitude 1 is dropped in front of a nonempty monomial; ``^e`` only for
e >= 2; variables joined by ``*``.

The parser accepts the canonical form plus relaxed input: implicit
multiplication (``3x``, ``(x+1)t``), parentheses with integer powers, and
arbitrary whitespace.

``substitute`` folds every value with at most one term (an int, zero, or
c * monomial) into each term directly, groups the terms by their exponents
of the remaining values, and sums the groups by Horner's rule in those
values: from the top exponent down, the running sum is multiplied by the
value once per degree and the next group is added, so no power of a value
is built.  Inside it, exponent vectors are packed into one int each
(Kronecker's substitution): one slot per universe variable,
``(deg(self) * max(1, D)).bit_length()`` bits wide for D the largest total
degree among the values, which bounds every exponent of every partial
Horner sum, so multiplying two monomials is adding two ints with no carry
between slots.  Products outside ``substitute`` keep tuple keys: their
operands are small, and packing each one costs more than it saves.

Invariant: every ``Poly`` has a universe of distinct names, and its term map
holds only nonzero ``int`` coefficients keyed by tuples of universe arity
with nonnegative ``int`` entries.  ``__eq__`` and ``__hash__`` compare term
maps directly, and ``substitute``'s packing needs int exponents, so they rely
on it.  The public constructor ``Poly(...)`` checks all of this;
arithmetic, ``derivative``, ``shifted_derivative``, ``extend`` and
``substitute`` build their results with the private ``Poly._trusted``, which
only drops zero coefficients: exponent tuples made from valid operands by
adding, copying or lowering a positive entry are valid already.
"""

from __future__ import annotations

import re
from operator import add, index
from typing import Iterable, Iterator, Mapping, Union


class PolyError(ValueError):
    """Base class for polynomial errors."""


class UniverseMismatch(PolyError):
    """Operands live in different variable universes."""


class ParseError(PolyError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


Universe = tuple[str, ...]
Exponents = tuple[int, ...]


class Poly:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("universe", "terms")

    def __init__(self, universe: Iterable[str], terms: Mapping[Exponents, int] | None = None):
        uni = _checked_universe(universe)
        object.__setattr__(self, "universe", uni)
        clean: dict[Exponents, int] = {}
        if terms:
            arity = len(uni)
            for exps, coeff in terms.items():
                try:  # index() refuses floats and turns int subclasses into ints
                    exps = tuple(map(index, exps))
                    coeff = index(coeff)
                except TypeError:
                    raise PolyError(f"term {coeff!r} at {exps!r}: exponents and "
                                    "coefficients must be ints") from None
                if len(exps) != arity or (exps and min(exps) < 0):
                    raise PolyError(f"bad exponent vector {exps} for universe {uni}")
                if coeff:
                    clean[exps] = clean.get(exps, 0) + coeff
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c != 0})

    @classmethod
    def _trusted(cls, universe: Universe, terms: dict[Exponents, int]) -> "Poly":
        """Wrap a term map built from valid operands, without validation.

        The caller guarantees a checked universe and arity-correct,
        nonnegative exponent tuples; zero coefficients are dropped here.
        The poly takes ownership of ``terms``.
        """
        for exps in [e for e, c in terms.items() if not c]:
            del terms[exps]
        poly = object.__new__(cls)
        object.__setattr__(poly, "universe", universe)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, universe: Iterable[str]) -> "Poly":
        return cls(universe)

    @classmethod
    def const(cls, universe: Iterable[str], value: int) -> "Poly":
        uni = tuple(universe)
        return cls(uni, {(0,) * len(uni): value})

    @classmethod
    def var(cls, universe: Iterable[str], name: str, power: int = 1) -> "Poly":
        uni = tuple(universe)
        if name not in uni:
            raise PolyError(f"unknown variable {name!r} in universe {uni}")
        if power < 0:
            raise PolyError("negative powers are not supported")
        exps = tuple(power if v == name else 0 for v in uni)
        return cls(uni, {exps: 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Exponents) -> int:
        return self.terms.get(tuple(exps), 0)

    def variables_used(self) -> set[str]:
        used = set()
        for exps in self.terms:
            for name, e in zip(self.universe, exps):
                if e:
                    used.add(name)
        return used

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: Union["Poly", int]) -> "Poly":
        if isinstance(other, Poly):
            if other.universe != self.universe:
                raise UniverseMismatch(
                    f"universe mismatch: {self.universe} vs {other.universe}")
            return other
        if isinstance(other, int):
            return Poly.const(self.universe, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Union["Poly", int]) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return Poly._trusted(self.universe, out)

    __radd__ = __add__

    def __sub__(self, other: Union["Poly", int]) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) - coeff
        return Poly._trusted(self.universe, out)

    def __rsub__(self, other: Union["Poly", int]) -> "Poly":
        return (-self) + other

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.universe, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        if isinstance(other, int):
            return Poly._trusted(self.universe, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly._trusted(self.universe, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolyError("polynomial powers must be nonnegative integers")
        result = Poly.const(self.universe, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == Poly.const(self.universe, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.universe == other.universe and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.universe, frozenset(self.terms.items())))

    # -- calculus and substitution -----------------------------------------

    def derivative(self, name: str) -> "Poly":
        idx = self._var_index(name)
        out: dict[Exponents, int] = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            key = exps[:idx] + (e - 1,) + exps[idx + 1:]
            out[key] = out.get(key, 0) + coeff * e
        return Poly._trusted(self.universe, out)

    def shifted_derivative(self, name: str, shift: int) -> "Poly":
        """Apply the operator (shift + v * d/dv) for v = name, which maps
        c * v^e to (shift + e) * c * v^e."""
        if shift < 0:
            raise PolyError("shift must be nonnegative")
        idx = self._var_index(name)
        return Poly._trusted(self.universe,
                             {e: (shift + e[idx]) * c for e, c in self.terms.items()})

    def substitute(self, assignment: Mapping[str, Union["Poly", int]]) -> "Poly":
        """Simultaneous substitution; unassigned variables map to themselves.

        One pass over the terms.  A value with at most one term (an int, the
        zero polynomial or c * monomial) folds into each term: the
        coefficient is multiplied by c^e and e times the monomial's exponents
        are added to the kept ones.  An unassigned variable keeps its
        exponent.  The terms are grouped by their exponents of the values
        with two or more terms, and the groups are summed by Horner's rule:
        for one such value v with groups g_0 .. g_E, the sum
        g_0 + g_1 v + ... + g_E v^E is (...(g_E v + g_(E-1)) v + ...) v + g_0,
        one product by v per degree, the empty degrees included.  With
        several such values the rule nests: each group of the first value's
        exponent is itself summed by Horner's rule in the next value.

        Every exponent vector is packed into one int, with a slot of
        ``(deg(self) * max(1, D)).bit_length()`` bits per universe variable,
        D the largest total degree among the values.  Every monomial of a
        partial Horner sum, g_j v^(j-e) (and likewise in the nested sums),
        divides a monomial of g_j v^j, the image of a term of ``self``
        before cancellation, whose total degree is at most
        deg(self) * max(1, D); so no slot overflows, and adding two keys
        adds their vectors slot by slot without a carry.  The groups, the
        values and the result are all keyed by these ints, and the result is
        unpacked once, at the end.
        """
        uni = self.universe
        for name in assignment:
            if name not in uni:
                raise UniverseMismatch(
                    f"cannot substitute unknown variable {name!r} in universe {uni}")
        kept: list[int] = []  # indexes of the unassigned variables
        folds: list[tuple[int, int, Exponents]] = []  # (idx, c, monomial)
        polys: list[tuple[int, Poly]] = []  # values with two or more terms
        degree = 0  # the largest total degree among the values
        constant = (0,) * len(uni)
        for idx, name in enumerate(uni):
            value = assignment.get(name, None)
            if value is None:
                kept.append(idx)
            elif isinstance(value, int):
                folds.append((idx, value, constant))
            else:
                if value.universe != uni:
                    raise UniverseMismatch(
                        f"substituted value for {name!r} lives in {value.universe}, "
                        f"expected {uni}")
                degree = max(degree, max(map(sum, value.terms), default=0))
                if len(value.terms) > 1:
                    polys.append((idx, value))
                else:
                    (mono, c), = value.terms.items() or [(constant, 0)]
                    folds.append((idx, c, mono))
        if not self.terms:
            return Poly._trusted(uni, {})
        width = (max(map(sum, self.terms)) * max(1, degree)).bit_length()
        shifts = [width * idx for idx in range(len(uni))]

        def pack(exps: Exponents) -> int:
            return sum([e << s for e, s in zip(exps, shifts)])

        kept_shifts = [(idx, shifts[idx]) for idx in kept]
        folds_packed = [(idx, c, pack(mono)) for idx, c, mono in folds]
        # group key: exponents of the variables whose values have two or more terms;
        # group value: {packed exponents of the rest: coefficient}
        groups: dict[Exponents, dict[int, int]] = {}
        for exps, coeff in self.terms.items():
            key = 0
            for idx, c, mono in folds_packed:
                e = exps[idx]
                if e:
                    coeff *= c ** e
                    key += e * mono
            if not coeff:
                continue
            for idx, s in kept_shifts:
                key += exps[idx] << s
            group = groups.setdefault(tuple([exps[idx] for idx, _ in polys]), {})
            group[key] = group.get(key, 0) + coeff
        values = [{pack(e): c for e, c in value.terms.items()} for _, value in polys]
        out = _horner(groups, values) if groups else {}
        mask = (1 << width) - 1
        return Poly._trusted(uni, {tuple([key >> s & mask for s in shifts]): c
                                   for key, c in out.items() if c})

    def evaluate(self, point: Mapping[str, int]) -> int:
        """Exact integer evaluation; every variable appearing in p must be assigned."""
        missing = self.variables_used() - set(point)
        if missing:
            raise PolyError(f"unassigned variables: {sorted(missing)}")
        values = [point.get(name, 0) for name in self.universe]
        total = 0
        for exps, coeff in self.terms.items():
            prod = coeff
            for v, e in zip(values, exps):
                if e:
                    prod *= v ** e
            total += prod
        return total

    def extend(self, universe: Iterable[str]) -> "Poly":
        """Embed into a larger universe (matching variables by name)."""
        uni = _checked_universe(universe)
        try:
            positions = [uni.index(name) for name in self.universe]
        except ValueError as exc:
            raise UniverseMismatch(
                f"universe {uni} does not contain all of {self.universe}") from exc
        out: dict[Exponents, int] = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(uni)
            for pos, e in zip(positions, exps):
                new[pos] = e
            out[tuple(new)] = coeff
        return Poly._trusted(uni, out)

    # -- rendering ---------------------------------------------------------

    def _var_index(self, name: str) -> int:
        try:
            return self.universe.index(name)
        except ValueError:
            raise UniverseMismatch(
                f"unknown variable {name!r} in universe {self.universe}") from None

    def _ordered_terms(self) -> Iterator[tuple[Exponents, int]]:
        def key(exps: Exponents):
            return (-sum(exps), tuple(-e for e in exps))
        for exps in sorted(self.terms, key=key):
            yield exps, self.terms[exps]

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self._ordered_terms():
            factors = []
            for name, e in zip(self.universe, exps):
                if e == 1:
                    factors.append(name)
                elif e >= 2:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f"{' - ' if coeff < 0 else ' + '}{body}")
        return "".join(pieces)

    __str__ = render

    def __repr__(self) -> str:
        return f"Poly({self.render()!r})"


def _checked_universe(universe: Iterable[str]) -> Universe:
    uni = tuple(universe)
    if len(set(uni)) != len(uni):
        raise PolyError(f"duplicate variable names in universe {uni}")
    return uni


def _mul_terms(left: Mapping[Exponents, int],
               right: Mapping[Exponents, int]) -> dict[Exponents, int]:
    """The product of two term maps, which may hold zero coefficients."""
    out: dict[Exponents, int] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _mul_packed(left: Mapping[int, int], right: Mapping[int, int],
                out: dict[int, int] | None = None) -> dict[int, int]:
    """Add the product of two term maps keyed by packed exponents, where adding
    two keys multiplies their monomials, into ``out`` (a new map by default)."""
    if out is None:
        out = {}
    get = out.get
    right_items = list(right.items())
    for k1, c1 in left.items():
        for k2, c2 in right_items:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return out


def _horner(groups: dict[Exponents, dict[int, int]],
            values: list[dict[int, int]]) -> dict[int, int]:
    """The sum of groups[e] * values[0]^e[0] * values[1]^e[1] ... over the
    keys e, by Horner's rule in values[0] with the rest nested inside, from
    the top exponent down: one ``_mul_packed`` per degree, with the value's
    few terms in the outer loop and the accumulator in the inner one.  Each
    group's map takes its degree's product as the output, so the groups are
    consumed."""
    if not values:
        return groups[()]
    value, rest = values[0], values[1:]
    buckets: dict[int, dict[Exponents, dict[int, int]]] = {}
    for exps, group in groups.items():
        buckets.setdefault(exps[0], {})[exps[1:]] = group
    top = max(buckets)
    acc = _horner(buckets[top], rest)
    for e in range(top - 1, -1, -1):
        bucket = buckets.get(e)
        acc = _mul_packed(value, acc, _horner(bucket, rest) if bucket else {})
    return acc


def poly_prod(factors: Iterable[Union[Poly, int]], universe: Iterable[str]) -> Poly:
    """Product of an iterable of polynomials; the empty product is 1."""
    result = Poly.const(universe, 1)
    for f in factors:
        result = result * f
    return result


# -- parsing ----------------------------------------------------------------

_TOKEN = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*^()])|(\S)")


def _split_name(word: str, universe: Universe) -> list[str] | None:
    """Split a run of letters into universe names by greedy longest match,
    so relaxed input like "3xy" or "2xt^2" reads as products."""
    names = sorted(universe, key=len, reverse=True)
    parts = []
    i = 0
    while i < len(word):
        for name in names:
            if word.startswith(name, i):
                parts.append(name)
                i += len(name)
                break
        else:
            return None
    return parts


def _tokenize(text: str, universe: Universe) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        pos = m.start()
        if m.group(1):
            tokens.append(("num", m.group(1), pos))
        elif m.group(2):
            word = m.group(2)
            if word in universe:
                tokens.append(("name", word, pos))
            else:
                parts = _split_name(word, universe)
                if parts is None:
                    tokens.append(("name", word, pos))  # parser reports it
                else:
                    tokens.extend(("name", part, pos) for part in parts)
        elif m.group(3):
            tokens.append(("op", m.group(3), pos))
        else:
            raise ParseError(f"unexpected character {m.group(4)!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, universe: Universe):
        self.tokens = _tokenize(text, universe)
        self.universe = universe
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Poly:
        poly = self.parse_sum()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return poly

    def parse_sum(self) -> Poly:
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        total = self.parse_term() * sign
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term()
                total = total - term if value == "-" else total + term
            else:
                return total

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.parse_factor()
            elif kind in ("num", "name") or (kind == "op" and value == "("):
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Poly:
        kind, value, pos = self.advance()
        if kind == "op" and value in "+-":
            inner = self.parse_factor()
            return -inner if value == "-" else inner
        if kind == "num":
            base = Poly.const(self.universe, int(value))
        elif kind == "name":
            if value not in self.universe:
                raise ParseError(f"unknown variable {value!r}", pos)
            base = Poly.var(self.universe, value)
        elif kind == "op" and value == "(":
            base = self.parse_sum()
            kind, value, pos = self.advance()
            if not (kind == "op" and value == ")"):
                raise ParseError("expected ')'", pos)
        else:
            raise ParseError(f"unexpected token {value!r}", pos)
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.advance()
            if kind != "num":
                raise ParseError("expected integer exponent after '^'", pos)
            base = base ** int(value)
        return base


def parse(text: str, universe: Iterable[str]) -> Poly:
    """Parse canonical-or-relaxed polynomial text over the given universe."""
    return _Parser(text, tuple(universe)).parse()
