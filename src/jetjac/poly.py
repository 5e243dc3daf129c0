"""Sparse multivariate polynomials in jet variables x_i^(j).

A polynomial stores a canonically sorted ambient variable tuple and a term
map from dense exponent tuples (aligned with the ambient) to nonzero
coefficients.  Coefficients are kept raw, as FieldSpec.raw stores them
(over Q an int or a Fraction, over GF(p) a residue int), so the inner
loops stay cheap; FieldElement is the scalar type at the API surface.

The ASCII grammar accepted by parse_poly:

    expr   := [sign] term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := number | power
    number := INT ["/" INT]
    power  := var ["^" INT]
    var    := "x" INT ["_" INT]        e.g. x1, x2, x1_3

Whitespace is insignificant.  x<i> is the base variable (jet order 0),
x<i>_<j> the order-j jet variable.  The canonical printer emits terms in
graded-lexicographic order (x1 heaviest within a degree, lower jet orders
heaviest overall) and omits the "_0" suffix, so printing then parsing is
the identity.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Mapping, Sequence

from .field import FieldElement, FieldSpec, MixedFields


class ParseError(ValueError):
    """Malformed polynomial source; .position is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    """A name that is not x<i> / x<i>_<j> with i in 1..s."""


class BadExponent(ParseError):
    """A negative exponent."""


class MissingCoordinate(KeyError):
    """A point does not assign every ambient variable of the polynomial."""

    def __str__(self):  # KeyError quotes its payload by default
        return self.args[0] if self.args else ""


class WrongCoordinateCount(ValueError):
    """A flat point lists more or fewer coordinates than its variables."""


class CoefficientTooLong(ValueError):
    """A coefficient or exponent has more decimal digits than int()
    converts to text (sys.get_int_max_str_digits), so the polynomial
    cannot be printed."""


@total_ordering
@dataclass(frozen=True)
class JetVariable:
    """The symbol x_i^(j): base index i >= 1, jet order j >= 0.

    Canonical order is (order, base) ascending, so the variables read
    x_1, ..., x_s, x_1^(1), ..., x_s^(1), ...
    """

    base: int
    order: int = 0

    def __post_init__(self):
        if self.base < 1:
            raise ValueError("variable base index starts at 1")
        if self.order < 0:
            raise ValueError("jet order must be >= 0")

    @property
    def name(self) -> str:
        return f"x{self.base}" if self.order == 0 else f"x{self.base}_{self.order}"

    def __lt__(self, other):
        if not isinstance(other, JetVariable):
            return NotImplemented
        return (self.order, self.base) < (other.order, other.base)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"JetVariable({self.base}, {self.order})"


def jet_grid(s: int, n: int) -> tuple[JetVariable, ...]:
    """All x_i^(j) for i=1..s, j=0..n, canonically ordered."""
    return tuple(JetVariable(i, j) for j in range(n + 1) for i in range(1, s + 1))


def base_variables(s: int) -> tuple[JetVariable, ...]:
    return jet_grid(s, 0)


MultiIndex = tuple[int, ...]


def _rational(c):
    # a Q coefficient as FieldSpec.raw stores it: an int when integral
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class Polynomial:
    """Sparse polynomial over a FieldSpec in jet variables.

    Values are immutable; every operation returns a new polynomial.  Two
    polynomials are equal iff they have the same field and the same terms,
    regardless of ambient (unused ambient variables do not matter).
    """

    __slots__ = ("spec", "ambient", "terms", "_hash")

    def __init__(self, spec: FieldSpec, ambient: Iterable[JetVariable] = (), terms=None):
        amb = tuple(ambient)
        if list(amb) != sorted(amb):
            raise ValueError("ambient variables must be canonically sorted")
        if len(set(amb)) != len(amb):
            raise ValueError("ambient variables must be distinct")
        clean: dict[MultiIndex, object] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(amb):
                raise ValueError("exponent tuple does not match ambient length")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = spec.raw(coeff)
            if c:
                c0 = clean.get(exps)
                if c0 is None:
                    clean[exps] = c
                else:
                    p = spec.characteristic
                    c = (c0 + c) % p if p else c0 + c
                    if c:
                        clean[exps] = c
                    else:
                        del clean[exps]
        self.spec = spec
        self.ambient = amb
        self.terms = clean
        self._hash = None

    @classmethod
    def _make(cls, spec, ambient, terms) -> "Polynomial":
        # trusted fast path: ambient sorted, terms canonical and zero-free
        obj = object.__new__(cls)
        obj.spec = spec
        obj.ambient = ambient
        obj.terms = terms
        obj._hash = None
        return obj

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec, ambient: Iterable[JetVariable] = ()) -> "Polynomial":
        return cls._make(spec, tuple(ambient), {})

    @classmethod
    def constant(cls, spec: FieldSpec, value, ambient: Iterable[JetVariable] = ()) -> "Polynomial":
        amb = tuple(ambient)
        c = spec.raw(value)
        if not c:
            return cls._make(spec, amb, {})
        return cls._make(spec, amb, {(0,) * len(amb): c})

    @classmethod
    def variable(cls, spec: FieldSpec, v: JetVariable, ambient: Iterable[JetVariable] | None = None) -> "Polynomial":
        amb = (v,) if ambient is None else tuple(ambient)
        idx = amb.index(v)
        exps = tuple(1 if i == idx else 0 for i in range(len(amb)))
        return cls._make(spec, amb, {exps: 1})

    @classmethod
    def from_terms(cls, spec: FieldSpec, sparse: Mapping, ambient: Iterable[JetVariable] = ()) -> "Polynomial":
        """Build from {monomial: coefficient} where a monomial is a mapping
        JetVariable -> exponent (or an iterable of (variable, exponent))."""
        monos = []
        seen = set(ambient)
        for mono, coeff in sparse.items():
            pairs = tuple(mono.items()) if isinstance(mono, Mapping) else tuple(mono)
            monos.append((pairs, coeff))
            seen.update(v for v, _ in pairs)
        amb = tuple(sorted(seen))
        pos = {v: i for i, v in enumerate(amb)}
        terms: dict[MultiIndex, object] = {}
        for pairs, coeff in monos:
            exps = [0] * len(amb)
            for v, e in pairs:
                exps[pos[v]] += e
            key = tuple(exps)
            terms[key] = coeff if key not in terms else spec.element(terms[key]) + spec.element(coeff)
        return cls(spec, amb, terms)

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> FieldElement:
        zero_key = (0,) * len(self.ambient)
        return FieldElement(self.spec, self.terms.get(zero_key, 0))

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return float("-inf")
        return max(sum(e) for e in self.terms)

    @property
    def base_count(self) -> int:
        """Number s of base variables, read off the ambient."""
        return max((v.base for v in self.ambient), default=0)

    @property
    def max_order(self) -> int:
        return max((v.order for v in self.ambient), default=0)

    def variables(self) -> tuple[JetVariable, ...]:
        """The ambient variables that actually occur in some term."""
        used = [False] * len(self.ambient)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.ambient, used) if u)

    def monomials(self):
        """Yield (exponent map JetVariable -> int, FieldElement) per term."""
        for exps, c in self.terms.items():
            mono = {v: e for v, e in zip(self.ambient, exps) if e}
            yield mono, FieldElement(self.spec, c)

    def coefficient(self, mono: Mapping[JetVariable, int]) -> FieldElement:
        exps = [0] * len(self.ambient)
        pos = {v: i for i, v in enumerate(self.ambient)}
        for v, e in mono.items():
            if e:
                if v not in pos:
                    return self.spec.zero
                exps[pos[v]] = e
        return FieldElement(self.spec, self.terms.get(tuple(exps), 0))

    def _remapped(self, amb: tuple[JetVariable, ...]) -> dict:
        if amb == self.ambient:
            return self.terms
        pos = {v: i for i, v in enumerate(amb)}
        mapping = [pos[v] for v in self.ambient]
        width = len(amb)
        out = {}
        for exps, c in self.terms.items():
            ee = [0] * width
            for i, e in enumerate(exps):
                if e:
                    ee[mapping[i]] = e
            out[tuple(ee)] = c
        return out

    def _aligned(self, other: "Polynomial"):
        if self.spec != other.spec:
            raise MixedFields(f"cannot combine {self.spec} with {other.spec}")
        if self.ambient == other.ambient:
            return self.ambient, self.terms, other.terms
        amb = tuple(sorted(set(self.ambient) | set(other.ambient)))
        return amb, self._remapped(amb), other._remapped(amb)

    # -- arithmetic --------------------------------------------------

    def _promote(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return Polynomial.constant(self.spec, other, self.ambient)
        return None

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        amb, t1, t2 = self._aligned(other)
        p = self.spec.characteristic
        out = dict(t1)
        for exps, c in t2.items():
            c0 = out.get(exps)
            if c0 is None:
                out[exps] = c
            else:
                cc = (c0 + c) % p if p else _rational(c0 + c)
                if cc:
                    out[exps] = cc
                else:
                    del out[exps]
        return Polynomial._make(self.spec, amb, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.spec.characteristic
        out = {e: (-c % p if p else -c) for e, c in self.terms.items()}
        return Polynomial._make(self.spec, self.ambient, out)

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _scaled(self, raw) -> "Polynomial":
        if not raw:
            return Polynomial._make(self.spec, self.ambient, {})
        p = self.spec.characteristic
        if p:
            out = {e: c * raw % p for e, c in self.terms.items()}
        else:
            out = {e: _rational(c * raw) for e, c in self.terms.items()}
        return Polynomial._make(self.spec, self.ambient, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self._scaled(self.spec.raw(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        amb, t1, t2 = self._aligned(other)
        p = self.spec.characteristic
        out: dict[MultiIndex, object] = {}
        add = operator.add
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                key = tuple(map(add, e1, e2))
                c = c1 * c2
                c0 = out.get(key)
                if c0 is not None:
                    c = c0 + c
                if p:
                    c %= p
                elif type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
                if c:
                    out[key] = c
                elif c0 is not None:
                    del out[key]
        return Polynomial._make(self.spec, amb, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take a natural exponent")
        if not e:
            return Polynomial.constant(self.spec, 1, self.ambient)
        # start from self rather than 1, so integer coefficients stay integers
        result = None
        square = self
        while True:
            if e & 1:
                result = square if result is None else result * square
            e >>= 1
            if not e:
                return result
            square = square * square

    # -- calculus ----------------------------------------------------

    def partial(self, v: JetVariable) -> "Polynomial":
        """Formal partial derivative with respect to v."""
        try:
            idx = self.ambient.index(v)
        except ValueError:
            return Polynomial._make(self.spec, self.ambient, {})
        p = self.spec.characteristic
        out = {}
        for exps, c in self.terms.items():
            k = exps[idx]
            if not k:
                continue
            cc = c * k % p if p else _rational(c * k)
            if cc:
                out[exps[:idx] + (k - 1,) + exps[idx + 1 :]] = cc
        return Polynomial._make(self.spec, self.ambient, out)

    def divided_partial(self, delta: Sequence[int]) -> "Polynomial":
        """Divided-power (Hasse) derivative for a multi-index over the
        base variables: on x^g it yields prod_i C(g_i, delta_i) * x^(g-delta),
        and 0 when some g_i < delta_i.  The binomials are integers reduced
        into the field, so the operator is well defined in characteristic p
        even when delta! vanishes there.
        """
        delta = tuple(delta)
        if any(d < 0 for d in delta):
            raise ValueError("multi-index entries must be naturals")
        pos = {v: i for i, v in enumerate(self.ambient)}
        needed = []
        for i, d in enumerate(delta):
            if d:
                idx = pos.get(JetVariable(i + 1, 0))
                if idx is None:
                    return Polynomial._make(self.spec, self.ambient, {})
                needed.append((idx, d))
        if not needed:
            return self
        p = self.spec.characteristic
        out = {}
        for exps, c in self.terms.items():
            ee = list(exps)
            coeff = c
            for idx, d in needed:
                g = exps[idx]
                if g < d:
                    coeff = 0
                    break
                coeff *= math.comb(g, d)
                ee[idx] = g - d
            if p:
                coeff = coeff % p if coeff else 0
            else:
                coeff = _rational(coeff)
            if coeff:
                out[tuple(ee)] = coeff
        return Polynomial._make(self.spec, self.ambient, out)

    def evaluate(self, point: "Point") -> FieldElement:
        """Exact value at a point assigning every ambient variable: the
        point's coordinates laid out flat, in the order of Point.from_flat,
        and handed to _raw_value."""
        if point.spec != self.spec:
            raise MixedFields(f"point over {point.spec}, polynomial over {self.spec}")
        width = self.base_count
        vals = [None] * (width * (self.max_order + 1))
        coords = point.coords
        for v in self.ambient:
            fe = coords.get(v)
            if fe is None:
                raise MissingCoordinate(f"point assigns no value to {v.name}")
            vals[v.order * width + v.base - 1] = fe.value
        return FieldElement(self.spec, _raw_value(self, vals, self.spec.characteristic, {}, width))

    # -- identity ----------------------------------------------------

    def _sparse_key(self):
        items = []
        for exps, c in self.terms.items():
            mono = tuple(
                (v.base, v.order, e) for v, e in zip(self.ambient, exps) if e
            )
            items.append((mono, c))
        return frozenset(items)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            if self.spec != other.spec:
                return False
            if self.ambient == other.ambient:
                return self.terms == other.terms
            return self._sparse_key() == other._sparse_key()
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.is_constant and self.constant_value() == self.spec.element(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.spec.characteristic, self._sparse_key()))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- printing ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = [v.name for v in self.ambient]
        parts = []
        terms = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        try:
            for exps, c in terms:
                # residues mod p are never negative; a Fraction prints as num or num/den
                num, den = c.numerator, c.denominator
                if num < 0:
                    parts.append("-")
                    num = -num
                elif parts:
                    parts.append("+")
                factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
                if num != 1 or den != 1 or not factors:
                    factors.insert(0, str(num) if den == 1 else f"{num}/{den}")
                parts.append("*".join(factors))
        except ValueError:  # only int-to-text conversion raises it here
            raise CoefficientTooLong("a coefficient or exponent has too many digits to print") from None
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self}, field={self.spec})"


def _raw_value(g: Polynomial, vals: Sequence, p: int, powers: dict, width: int = 0):
    """The raw value of g where x_i^(j) takes the raw scalar
    vals[j * width + i - 1], the flat order of Point.from_flat; for a
    polynomial in the base variables alone x_i takes vals[i - 1] whatever
    the width.  powers caches vals[k]^e by (k, e), so every polynomial
    evaluated at the same vals may share one dict.  Over Q an integral
    value is an int, as FieldSpec.raw stores it."""
    slots = [v.order * width + v.base - 1 for v in g.ambient]
    acc = 0
    for exps, c in g.terms.items():
        for k, e in zip(slots, exps):
            if e == 1:
                c = c * vals[k]
            elif e:
                pw = powers.get((k, e))
                if pw is None:
                    pw = powers[k, e] = pow(vals[k], e, p) if p else vals[k] ** e
                c = c * pw
        acc += c
    return acc % p if p else _rational(acc)


@dataclass(frozen=True, eq=False)
class Point:
    """An assignment of field values to jet variables."""

    spec: FieldSpec
    coords: Mapping[JetVariable, FieldElement]

    @classmethod
    def from_flat(cls, values: Sequence, s: int, n: int, spec: FieldSpec) -> "Point":
        """Build from a flat list in canonical order: x_1..x_s, then the
        order-1 coordinates x_1^(1)..x_s^(1), and so on up to order n."""
        values = list(values)
        if len(values) != s * (n + 1):
            raise WrongCoordinateCount(f"expected {s * (n + 1)} coordinates, got {len(values)}")
        coords = {}
        for j in range(n + 1):
            for i in range(1, s + 1):
                coords[JetVariable(i, j)] = spec.element(values[j * s + i - 1])
        return cls(spec, coords)

    @classmethod
    def from_base(cls, values: Sequence, spec: FieldSpec) -> "Point":
        return cls.from_flat(values, len(values), 0, spec)

    def __getitem__(self, v: JetVariable) -> FieldElement:
        try:
            return self.coords[v]
        except KeyError:
            raise MissingCoordinate(f"point assigns no value to {v.name}") from None

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.spec == other.spec and dict(self.coords) == dict(other.coords)

    def __str__(self) -> str:
        parts = [f"{v.name}={self.coords[v]}" for v in sorted(self.coords)]
        return "(" + ", ".join(parts) + ")"


# -- parser ----------------------------------------------------------

_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*/^])")
_VAR = re.compile(r"x(\d+)(?:_(\d+))?$")


def _integer(digits: str, position: int) -> int:
    """int(digits), or a ParseError when the literal has more digits than
    int() converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long", position) from None


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, s: int, spec: FieldSpec, length: int):
        self.tokens = tokens
        self.i = 0
        self.s = s
        self.spec = spec
        self.length = length

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", self.length)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self):
        terms = []  # list of ({JetVariable: exp}, raw coeff)
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text in "+-":
            self.take()
            sign = -1 if text == "-" else 1
        if self.peek()[0] is None:
            raise ParseError("empty polynomial", self.peek()[2])
        terms.append(self.term(sign))
        while self.peek()[0] is not None:
            kind, text, pos = self.take()
            if kind != "op" or text not in "+-":
                raise ParseError(f"expected '+' or '-', found {text!r}", pos)
            terms.append(self.term(-1 if text == "-" else 1))
        return terms

    def term(self, sign: int):
        mono: dict[JetVariable, int] = {}
        coeff = self.factor(mono, Fraction(sign))
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "*":
                self.take()
                coeff = self.factor(mono, coeff)
            else:
                return mono, coeff

    def factor(self, mono, coeff):
        kind, text, pos = self.take()
        if kind == "num":
            value = Fraction(_integer(text, pos))
            if self.peek()[:2] == ("op", "/"):
                self.take()
                kind2, text2, pos2 = self.take()
                if kind2 != "num":
                    raise ParseError("expected an integer denominator", pos2)
                den = _integer(text2, pos2)
                if den == 0:
                    raise ParseError("zero denominator", pos2)
                value /= den
            return coeff * value
        if kind == "name":
            m = _VAR.match(text)
            if m is None:
                raise UnknownVariable(f"unknown variable {text!r}", pos)
            base = _integer(m.group(1), pos + 1)
            order = _integer(m.group(2), pos + m.start(2)) if m.group(2) else 0
            if not 1 <= base <= self.s:
                raise UnknownVariable(
                    f"variable {text!r} outside x1..x{self.s}", pos
                )
            v = JetVariable(base, order)
            e = 1
            if self.peek()[:2] == ("op", "^"):
                self.take()
                kind2, text2, pos2 = self.take()
                if kind2 == "op" and text2 == "-":
                    raise BadExponent("negative exponent", pos2)
                if kind2 != "num":
                    raise ParseError("expected an exponent", pos2)
                e = _integer(text2, pos2)
            mono[v] = mono.get(v, 0) + e
            return coeff
        raise ParseError(f"expected a coefficient or variable, found {text!r}", pos)


def parse_poly(src: str, s: int, spec: FieldSpec = None) -> Polynomial:
    """Parse the grammar above into canonical sparse form.

    s fixes the number of base variables: names x1..xs are legal and the
    result's ambient always contains all of them.
    """
    if spec is None:
        spec = FieldSpec.rationals()
    if s < 1:
        raise ValueError("s must be >= 1")
    tokens = _tokenize(src)
    parsed = _Parser(tokens, s, spec, len(src)).parse()
    sparse: dict[tuple, object] = {}
    for mono, coeff in parsed:
        key = tuple(sorted(mono.items()))
        prev = sparse.get(key)
        sparse[key] = coeff if prev is None else prev + coeff
    return Polynomial.from_terms(spec, sparse, ambient=base_variables(s))
