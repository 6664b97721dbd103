"""Exact sparse multivariate polynomial arithmetic over the integers.

A polynomial lives in a fixed *universe*: an ordered tuple of variable names,
e.g. ``("x", "y", "z", "t")``.  Coefficients are plain Python ints, so
nothing overflows or rounds; the zero polynomial has no terms.

Each ``Poly`` stores its terms as a dict from packed exponent vectors to
nonzero coefficients (Kronecker's substitution): one slot per universe
variable, the first in the lowest bytes, every slot the same whole number of
bytes, enough for an upper bound on the total degree: the largest degree of
the input terms for the public constructor, deg a + deg b for a product, the
larger bound for a sum, deg * max(1, D) for a substitution (see
``substitute``), and the operand's for the other operations.  No exponent of
a term exceeds its total degree, so once a product's operands are repacked
to its width, multiplying two monomials is adding two keys, with no carry
between slots; a sum repacks the narrower operand likewise.  Below total
degree 256 every slot is one byte, packed and unpacked by ``bytes`` and
``int.from_bytes``.  ``terms``, keyed by exponent tuples, is unpacked once.

Canonical text form (bit-stable, used for golden comparisons): terms sorted
by descending total degree, ties broken lexicographically by the exponent
vector in universe order; terms joined with `` + `` / `` - ``; a coefficient
of magnitude 1 is dropped in front of a nonempty monomial; ``^e`` only for
e >= 2; variables joined by ``*``.

The parser accepts the canonical form plus relaxed input: implicit
multiplication (``3x``, ``(x+1)t``), parentheses with integer powers, and
arbitrary whitespace.

Invariant: every ``Poly`` has a universe of distinct names, and its term map
holds only nonzero ``int`` coefficients keyed by packed nonnegative
exponents of total degree at most the stored bound; ``__eq__`` compares
term maps of equal widths directly.  The public constructor ``Poly(...)``
checks and packs its input; every other result is built by the private
``Poly._trusted`` from keys made of valid operands' keys.
"""

from __future__ import annotations

import re
from operator import index
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

    __slots__ = ("universe", "_keys", "_deg", "_width", "_terms")

    def __init__(self, universe: Iterable[str], terms: Mapping[Exponents, int] | None = None):
        uni = _checked_universe(universe)
        arity = len(uni)
        keys, deg = {}, 0  # packed one-byte slots, or exponent tuples past degree 255
        from_bytes = int.from_bytes
        for exps, coeff in (terms or {}).items():
            try:  # index() and bytes() refuse floats and turn int subclasses into ints
                coeff = index(coeff)
                try:
                    raw = bytes(iter(exps))  # iter() refuses an int, which bytes() reads as a size
                except ValueError:  # an exponent outside 0..255
                    raw = tuple(map(index, exps))
                    if min(raw) < 0:
                        raise PolyError(f"bad exponent vector {raw} for universe {uni}") from None
            except TypeError:
                raise PolyError(f"term {coeff!r} at {exps!r}: exponents and "
                                "coefficients must be ints") from None
            if len(raw) != arity:
                raise PolyError(f"bad exponent vector {tuple(raw)} for universe {uni}")
            if coeff:
                d = sum(raw)
                if d > deg:
                    deg = d
                key = from_bytes(raw, "little") if d < 256 else tuple(raw)
                keys[key] = keys.get(key, 0) + coeff
        width = _slot_bytes(deg)
        if width > 1:
            keys = {_pack(e if type(e) is tuple else _unpack(e, arity, 1), width): c
                    for e, c in keys.items()}
        self.universe = uni
        self._keys = _nonzero(keys)
        self._deg = deg
        self._width = width

    @classmethod
    def _trusted(cls, universe: Universe, keys: dict[int, int], deg: int) -> "Poly":
        """Wrap (and own) a map of nonzero coefficients keyed by exponents packed
        at the width of ``deg``, a bound on their total degree, unchecked."""
        poly = object.__new__(cls)
        poly.universe = universe
        poly._keys = keys
        poly._deg = deg
        poly._width = _slot_bytes(deg)
        return poly

    @property
    def terms(self) -> dict[Exponents, int]:
        """The term map keyed by exponent tuples, unpacked on first read."""
        try:
            return self._terms
        except AttributeError:
            arity, width = len(self.universe), self._width
            self._terms = {_unpack(k, arity, width): c for k, c in self._keys.items()}
            return self._terms

    def _keys_at(self, width: int) -> dict[int, int]:
        """The term map packed with ``width``-byte slots, at least this one's."""
        if width == self._width:
            return self._keys
        arity = len(self.universe)
        return {_pack(_unpack(k, arity, self._width), width): c for k, c in self._keys.items()}

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
        return not self._keys

    def coefficient(self, exps: Exponents) -> int:
        return self.terms.get(tuple(exps), 0)

    def variables_used(self) -> set[str]:
        seen = 0
        for key in self._keys:
            seen |= key
        bits = 8 * self._width
        mask = (1 << bits) - 1
        return {name for idx, name in enumerate(self.universe) if seen >> bits * idx & mask}

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

    def _sum(self, other: Union["Poly", int], sign: int) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        width = max(self._width, other._width)
        out, right = dict(self._keys_at(width)), other._keys_at(width)
        get = out.get
        for key, coeff in right.items():
            out[key] = get(key, 0) + sign * coeff
        deg = self._deg if self._deg > other._deg else other._deg
        return Poly._trusted(self.universe, _nonzero(out), deg)

    def __add__(self, other: Union["Poly", int]) -> "Poly":
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other: Union["Poly", int]) -> "Poly":
        return self._sum(other, -1)

    def __rsub__(self, other: Union["Poly", int]) -> "Poly":
        return (-self) + other

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.universe, {k: -c for k, c in self._keys.items()}, self._deg)

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        if isinstance(other, int):
            if not other:
                return Poly._trusted(self.universe, {}, 0)
            return Poly._trusted(self.universe, {k: c * other for k, c in self._keys.items()},
                                 self._deg)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        deg = self._deg + other._deg
        width = _slot_bytes(deg)
        left, right = self._keys_at(width), other._keys_at(width)
        if len(left) > len(right):
            left, right = right, left
        if len(left) == 1:  # a shift of the keys: no collision, no zero
            (mono, coeff), = left.items()
            out = {key + mono: c * coeff for key, c in right.items()}
        else:
            out = _nonzero(_mul_packed(left, right))
        return Poly._trusted(self.universe, out, deg)

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
        if self.universe != other.universe:
            return False
        return (self._keys == other._keys if self._width == other._width
                else self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.universe, frozenset(self.terms.items())))

    # -- calculus and substitution -----------------------------------------

    def derivative(self, name: str) -> "Poly":
        bits = 8 * self._width
        shift, mask = bits * self._var_index(name), (1 << bits) - 1
        unit = 1 << shift
        return Poly._trusted(self.universe, {key - unit: c * e for key, c in self._keys.items()
                                             if (e := key >> shift & mask)}, self._deg)

    def shifted_derivative(self, name: str, shift: int) -> "Poly":
        """Apply the operator (shift + v * d/dv) for v = name, which maps
        c * v^e to (shift + e) * c * v^e."""
        if shift < 0:
            raise PolyError("shift must be nonnegative")
        bits = 8 * self._width
        slot, mask = bits * self._var_index(name), (1 << bits) - 1
        out = {key: (shift + (key >> slot & mask)) * c for key, c in self._keys.items()}
        return Poly._trusted(self.universe, _nonzero(out), self._deg)

    def substitute(self, assignment: Mapping[str, Union["Poly", int]]) -> "Poly":
        """Simultaneous substitution; unassigned variables map to themselves.

        One pass over the terms.  A value with at most one term (an int, the
        zero polynomial or c * monomial) folds into each term: the
        coefficient is multiplied by c^e and e times the monomial's key is
        added to the key.  The unassigned variables keep their slots, under
        one mask.  The terms are grouped by their exponents of the values
        with two or more terms, and the groups are summed by Horner's rule:
        for one such value v with groups g_0 .. g_E, the sum
        g_0 + g_1 v + ... + g_E v^E is (...(g_E v + g_(E-1)) v + ...) v + g_0,
        one product by v per degree, the empty degrees included.  With
        several such values the rule nests: each group of the first value's
        exponent is itself summed by Horner's rule in the next value.

        The result's degree bound is deg(self) * max(1, D), D the largest
        bound among the values, and ``self``, the values and the result are
        all packed at its width.  Every monomial of a partial Horner sum,
        g_j v^(j-e) (and likewise in the nested sums), divides a monomial of
        g_j v^j, the image of a term of ``self`` before cancellation, whose
        total degree is at most that bound; so no slot overflows, and adding
        two keys adds their vectors slot by slot without a carry.
        """
        uni = self.universe
        for name in assignment:
            if name not in uni:
                raise UniverseMismatch(
                    f"cannot substitute unknown variable {name!r} in universe {uni}")
        kept: list[int] = []  # indexes of the unassigned variables
        folds: list[tuple[int, int, Poly | None]] = []  # (idx, c, c * monomial or None)
        polys: list[tuple[int, Poly]] = []  # values with two or more terms
        degree = 0  # the largest degree bound among the values
        for idx, name in enumerate(uni):
            value = assignment.get(name, None)
            if value is None:
                kept.append(idx)
            elif isinstance(value, int):
                folds.append((idx, value, None))
            else:
                if value.universe != uni:
                    raise UniverseMismatch(
                        f"substituted value for {name!r} lives in {value.universe}, "
                        f"expected {uni}")
                degree = max(degree, value._deg)
                if len(value._keys) > 1:
                    polys.append((idx, value))
                else:
                    folds.append((idx, next(iter(value._keys.values()), 0), value))
        if not self._deg:  # a constant: no value changes it, or widens it
            return Poly._trusted(uni, dict(self._keys), 0)
        deg = self._deg * max(1, degree)
        width = _slot_bytes(deg)
        bits = 8 * width
        mask = (1 << bits) - 1
        keep = sum([mask << bits * idx for idx in kept])
        folds_packed = [(bits * idx, c, next(iter(value._keys_at(width)), 0)
                         if value is not None else 0) for idx, c, value in folds]
        poly_slots = [bits * idx for idx, _ in polys]
        # group key: exponents of the variables whose values have two or more terms;
        # group value: {packed exponents of the rest: coefficient}
        groups: dict[Exponents, dict[int, int]] = {}
        for k, coeff in self._keys_at(width).items():
            key = k & keep
            for slot, c, mono in folds_packed:
                e = k >> slot & mask
                if e:
                    coeff *= c ** e
                    key += e * mono
            if not coeff:
                continue
            group = groups.setdefault(tuple([k >> slot & mask for slot in poly_slots]), {})
            group[key] = group.get(key, 0) + coeff
        values = [value._keys_at(width) for _, value in polys]
        out = _horner(groups, values) if groups else {}
        return Poly._trusted(uni, _nonzero(out), deg)

    def evaluate(self, point: Mapping[str, int]) -> int:
        """Exact integer evaluation; every variable appearing in p must be assigned."""
        missing = self.variables_used() - set(point)
        if missing:
            raise PolyError(f"unassigned variables: {sorted(missing)}")
        bits = 8 * self._width
        mask = (1 << bits) - 1
        slots = [(bits * idx, point[name]) for idx, name in enumerate(self.universe)
                 if name in point and point[name] != 1]  # v ** e is 1 for v = 1
        total = 0
        for key, coeff in self._keys.items():
            for slot, v in slots:
                e = key >> slot & mask
                if e:
                    coeff *= v ** e
            total += coeff
        return total

    def extend(self, universe: Iterable[str]) -> "Poly":
        """Embed into a larger universe (matching variables by name)."""
        uni = _checked_universe(universe)
        try:
            positions = [uni.index(name) for name in self.universe]
        except ValueError as exc:
            raise UniverseMismatch(
                f"universe {uni} does not contain all of {self.universe}") from exc
        bits = 8 * self._width
        mask = (1 << bits) - 1
        moves = [(bits * idx, bits * pos) for idx, pos in enumerate(positions)]
        return Poly._trusted(uni, {sum([(k >> s & mask) << t for s, t in moves]): c
                                   for k, c in self._keys.items()}, self._deg)

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


def _slot_bytes(deg: int) -> int:
    """The bytes per slot that hold every exponent of total degree <= deg."""
    return (deg.bit_length() + 7) >> 3 or 1


def _pack(exps: Exponents, width: int) -> int:
    return int.from_bytes(b"".join([e.to_bytes(width, "little") for e in exps]), "little")


def _unpack(key: int, arity: int, width: int) -> Exponents:
    raw = key.to_bytes(arity * width, "little")
    if width == 1:
        return tuple(raw)
    return tuple([int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)])


def _nonzero(keys: dict[int, int]) -> dict[int, int]:
    """Drop the zero coefficients from ``keys``, in place."""
    if 0 in keys.values():
        for key in [k for k, c in keys.items() if not c]:
            del keys[key]
    return keys


def _mul_packed(left: Mapping[int, int], right: Mapping[int, int],
                out: dict[int, int] | None = None) -> dict[int, int]:
    """Add the product of two term maps keyed by packed exponents, where adding
    two keys multiplies their monomials, into ``out`` (a new map by default),
    with the map of fewer terms in the outer loop."""
    if out is None:
        out = {}
    if len(left) > len(right):
        left, right = right, left
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
    the top exponent down: one ``_mul_packed`` per degree.  Each
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
