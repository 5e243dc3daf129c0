"""Sparse multivariate polynomials in jet variables x_i^(j).

A polynomial maps each monomial key to its nonzero coefficient.  The key
lists the monomial's variables with their nonzero exponents, as the
triples (j, i, e) for x_i^(j) to the power e, sorted: that is the
canonical order of JetVariable, and the constant monomial is ().  A key
names its variables, so polynomials with different variables add,
multiply and compare without being remapped, and a term holds one
triple per variable in it, however many variables there are.  This
module decides that format; the kernels of hasse, linalg and jetscheme
read and build keys in it, and the API surface goes through JetVariable
and monomials().  A Point is keyed the same way: x_i^(j) takes the raw
scalar under (j, i), so every evaluator reads a point as it is.  A
polynomial also carries base_count, the number s of base variables it
was built over, and max_order, the largest jet order mentioned:
parse_poly("x1", 3) has base_count 3.  Coefficients are kept raw, as
FieldSpec.raw stores them (over Q an int or a Fraction, over GF(p) a
residue int), so the inner loops stay cheap; FieldElement is the scalar
type at the API surface.

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

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import chain
from operator import itemgetter
from typing import Mapping, Sequence

from .field import DomainError, FieldElement, FieldSpec, MixedFields


class ParseError(ValueError, DomainError):
    """Malformed polynomial source; .position is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    """A name that is not x<i> / x<i>_<j> with i in 1..s."""


class BadExponent(ParseError):
    """A negative exponent."""


class MissingCoordinate(KeyError, DomainError):
    """A point does not assign a variable that the polynomial needs."""

    def __str__(self):  # KeyError quotes its payload by default
        return self.args[0] if self.args else ""


class WrongCoordinateCount(ValueError, DomainError):
    """A flat point lists more or fewer coordinates than its variables."""


class BadBaseCount(ValueError):
    """A polynomial parsed over fewer than one base variable."""


class BadPower(ValueError):
    """A polynomial power whose exponent is not a natural number."""


class MalformedMonomial(ValueError):
    """A monomial with a negative exponent, a base index below 1 or a
    negative jet order."""


class CoefficientTooLong(ValueError, DomainError):
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
            raise MalformedMonomial("variable base index starts at 1")
        if self.order < 0:
            raise MalformedMonomial("jet order must be >= 0")

    @property
    def name(self) -> str:
        return _name(self.order, self.base)

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


MultiIndex = tuple[int, ...]


def _rational(c):
    # a Q coefficient as FieldSpec.raw stores it: an int when integral
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _name(order: int, base: int) -> str:
    return f"x{base}_{order}" if order else f"x{base}"


class _Memo(dict):
    """fn(key), computed on the first lookup of key and kept; emptied
    once it holds more than _MEMO_CAP keys, so its size stays bounded."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        if len(self) > _MEMO_CAP:
            self.clear()
        value = self[key] = self.fn(key)
        return value


_MEMO_CAP = 1 << 16
_exponent = itemgetter(2)
# a key triple as the printer compares it, a lower variable weighing more,
# and as it writes it, such as x1_2^3
_weight = _Memo(lambda t: (-t[0], -t[1], t[2])).__getitem__
_factor = _Memo(lambda t: _name(t[0], t[1]) + ("" if t[2] == 1 else f"^{t[2]}")).__getitem__


def _times(k1: tuple, k2: tuple) -> tuple:
    # the key of the product of two monomials
    if not k1 or not k2:
        return k1 or k2
    out = []
    for t in sorted(k1 + k2):
        if out and out[-1][:2] == t[:2]:
            out[-1] = (t[0], t[1], out[-1][2] + t[2])
        else:
            out.append(t)
    return tuple(out)


def _canonical(spec: FieldSpec, items, base_count: int, max_order: int):
    # (terms, base_count, max_order) from (triples, coefficient) pairs:
    # each key sorted with its zero exponents dropped and a repeated
    # variable's exponents added, terms on one key summed, zeros dropped
    terms: dict[tuple, object] = {}
    for triples, coeff in items:
        exps: dict[tuple[int, int], int] = {}
        for order, base, e in triples:
            if e < 0 or base < 1 or order < 0:
                raise MalformedMonomial(f"no monomial has the factor x{base}_{order}^{e}")
            base_count, max_order = max(base_count, base), max(max_order, order)
            if e:
                exps[order, base] = exps.get((order, base), 0) + e
        key = tuple(sorted((order, base, e) for (order, base), e in exps.items()))
        c = spec.raw(coeff)
        terms[key] = spec.raw(terms[key] + c) if key in terms else c
    return {key: c for key, c in terms.items() if c}, base_count, max_order


class Polynomial:
    """Sparse polynomial over a FieldSpec in jet variables.

    Values are immutable; every operation returns a new polynomial.  Two
    polynomials are equal iff they have the same field and the same terms,
    whatever their base_count and max_order.
    """

    __slots__ = ("spec", "terms", "base_count", "max_order", "_hash")

    def __init__(self, spec: FieldSpec, terms=None, base_count: int = 0, max_order: int = 0):
        """terms maps monomial keys to coefficients.  A key lists triples
        (j, i, e) as in the module docstring, in any order, with zero
        exponents or a variable more than once; it is brought to canonical
        form, and terms whose keys then agree are summed
        (MalformedMonomial for e < 0, i < 1 or j < 0).  Coefficients are
        stored as FieldSpec.raw stores them, and zeros are dropped.
        base_count and max_order grow to cover every variable in the keys,
        even with exponent 0 or in a term that cancels."""
        self.spec = spec
        self.terms, self.base_count, self.max_order = _canonical(spec, (terms or {}).items(), base_count, max_order)
        self._hash = None

    @classmethod
    def _make(cls, spec, terms, base_count, max_order) -> "Polynomial":
        # trusted fast path: keys canonical, coefficients raw and nonzero
        obj = object.__new__(cls)
        obj.spec = spec
        obj.terms = terms
        obj.base_count = base_count
        obj.max_order = max_order
        obj._hash = None
        return obj

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec, base_count: int = 0, max_order: int = 0) -> "Polynomial":
        return cls._make(spec, {}, base_count, max_order)

    @classmethod
    def constant(cls, spec: FieldSpec, value, base_count: int = 0, max_order: int = 0) -> "Polynomial":
        c = spec.raw(value)
        return cls._make(spec, {(): c} if c else {}, base_count, max_order)

    @classmethod
    def variable(cls, spec: FieldSpec, v: JetVariable, base_count: int = 0) -> "Polynomial":
        return cls._make(spec, {((v.order, v.base, 1),): 1}, max(base_count, v.base), v.order)

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not key for key in self.terms)

    def constant_value(self) -> FieldElement:
        return FieldElement(self.spec, self.terms.get((), 0))

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return float("-inf")
        return max(sum(map(_exponent, key)) for key in self.terms)

    def variables(self) -> tuple[JetVariable, ...]:
        """The variables that actually occur in some term."""
        used = sorted({t[:2] for key in self.terms for t in key})
        return tuple(JetVariable(base, order) for order, base in used)

    def monomials(self):
        """Yield (exponent map JetVariable -> int, FieldElement) per term."""
        for key, c in self.terms.items():
            yield {JetVariable(base, order): e for order, base, e in key}, FieldElement(self.spec, c)

    def coefficient(self, mono: Mapping[JetVariable, int]) -> FieldElement:
        key = tuple(sorted((v.order, v.base, e) for v, e in mono.items() if e))
        return FieldElement(self.spec, self.terms.get(key, 0))

    # -- arithmetic --------------------------------------------------

    def _promote(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return Polynomial.constant(self.spec, other, self.base_count, self.max_order)
        return None

    def _joint(self, other: "Polynomial") -> tuple[int, int]:
        # base_count and max_order of a sum or product, over one field
        if self.spec != other.spec:
            raise MixedFields(f"cannot combine {self.spec} with {other.spec}")
        return max(self.base_count, other.base_count), max(self.max_order, other.max_order)

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        shape = self._joint(other)
        p = self.spec.characteristic
        out = dict(self.terms)
        for key, c in other.terms.items():
            c0 = out.get(key)
            if c0 is None:
                out[key] = c
            else:
                cc = (c0 + c) % p if p else _rational(c0 + c)
                if cc:
                    out[key] = cc
                else:
                    del out[key]
        return Polynomial._make(self.spec, out, *shape)

    __radd__ = __add__

    def __neg__(self):
        p = self.spec.characteristic
        out = {key: (-c % p if p else -c) for key, c in self.terms.items()}
        return Polynomial._make(self.spec, out, self.base_count, self.max_order)

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
        p = self.spec.characteristic
        if not raw:
            out = {}
        elif p:
            out = {key: c * raw % p for key, c in self.terms.items()}
        else:
            out = {key: _rational(c * raw) for key, c in self.terms.items()}
        return Polynomial._make(self.spec, out, self.base_count, self.max_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self._scaled(self.spec.raw(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        shape = self._joint(other)
        p = self.spec.characteristic
        out: dict[tuple, object] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _times(k1, k2)
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
        return Polynomial._make(self.spec, out, *shape)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise BadPower("polynomial powers take a natural exponent")
        if not e:
            return Polynomial.constant(self.spec, 1, self.base_count, self.max_order)
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
        p = self.spec.characteristic
        out = {}
        for key, c in self.terms.items():
            for i, (order, base, k) in enumerate(key):
                if order == v.order and base == v.base:
                    cc = c * k % p if p else _rational(c * k)
                    if cc:
                        lowered = ((order, base, k - 1),) if k > 1 else ()
                        out[key[:i] + lowered + key[i + 1 :]] = cc
                    break
        return Polynomial._make(self.spec, out, self.base_count, self.max_order)

    def evaluate(self, point: "Point") -> FieldElement:
        """Exact value at a point assigning every variable that occurs,
        from _raw_value."""
        if point.spec != self.spec:
            raise MixedFields(f"point over {point.spec}, polynomial over {self.spec}")
        return FieldElement(self.spec, _raw_value(self, point.values, self.spec.characteristic, {}))

    # -- identity ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.spec == other.spec and self.terms == other.terms
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.is_constant and self.constant_value() == self.spec.element(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.spec.characteristic, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- printing ----------------------------------------------------

    def __str__(self) -> str:
        try:
            return _written(sorted(self.terms.items(), key=_grlex, reverse=True), None)
        except ValueError:  # only int-to-text conversion raises it here
            raise CoefficientTooLong("a coefficient or exponent has too many digits to print") from None

    def __repr__(self) -> str:
        return f"Polynomial({self}, field={self.spec})"


def _grlex(term: tuple) -> tuple:
    # the printer's order of a (key, coefficient) pair, descending: graded
    # lex, by degree, then by the exponent of the first variable in
    # canonical order where two keys differ
    key = term[0]
    return (sum(map(_exponent, key)), *map(_weight, key))


def _written(items, text: dict | None) -> str:
    # the sum of the (key, coefficient) pairs of items in their order, a
    # monomial written as text[key], or from its factors without text;
    # "0" for no terms
    parts = []
    for key, c in items:
        # residues mod p are never negative; a Fraction prints as num or num/den
        num, den = c.numerator, c.denominator
        if num < 0:
            parts.append("-")
            num = -num
        elif parts:
            parts.append("+")
        factors = text[key] if text else "*".join(map(_factor, key))
        if num != 1 or den != 1 or not key:
            scalar = str(num) if den == 1 else f"{num}/{den}"
            factors = f"{scalar}*{factors}" if key else scalar
        parts.append(factors)
    return "".join(parts) or "0"


def render(polys: Sequence[Polynomial]) -> list[str]:
    """[str(g) for g in polys], written from one table of the distinct
    monomials among them: their keys are sorted once in the printer's
    order and each gets its rank and its text, so a polynomial sorts its
    terms by rank and joins ready texts (CoefficientTooLong as str).
    This pays where the polynomials share their monomials, as the minors
    of one matrix do.  Where they share few, as the components of
    hs_components or the entries of D_n(L) do, the table costs more than
    it saves, and str writes them."""
    union = {}
    for g in polys:
        union.update(g.terms)
    keys = [key for key, _ in sorted(union.items(), key=_grlex, reverse=True)]
    rank = dict(zip(keys, range(len(keys))))
    try:
        text = {key: "*".join(map(_factor, key)) for key in keys}
        return [_written(sorted(g.terms.items(), key=lambda kv: rank[kv[0]]), text) for g in polys]
    except ValueError:  # only int-to-text conversion raises it here
        raise CoefficientTooLong("a coefficient or exponent has too many digits to print") from None


def _raw_value(g: Polynomial, vals: Mapping, p: int, powers: dict):
    """The raw value of g where the variable x_i^(j) takes the raw scalar
    vals[(j, i)]; MissingCoordinate when vals lacks a variable that
    occurs.  powers caches each power by its key triple, so every
    polynomial evaluated at the same vals may share one dict.  Over Q an
    integral value is an int, as FieldSpec.raw stores it."""
    acc = 0
    for key, c in g.terms.items():
        for t in key:
            pw = powers.get(t)
            if pw is None:
                order, base, e = t
                x = vals.get((order, base))
                if x is None:
                    raise MissingCoordinate(f"point assigns no value to {_name(order, base)}")
                pw = powers[t] = x if e == 1 else pow(x, e, p) if p else x**e
            c = c * pw
        acc += c
    return acc % p if p else _rational(acc)


def _flat_keys(count: int, s: int, n: int) -> list[tuple[int, int]]:
    # the (j, i) keys of count coordinates in canonical order, x_1..x_s to order n
    if count != s * (n + 1):
        raise WrongCoordinateCount(f"expected {s * (n + 1)} coordinates, got {count}")
    return [(j, i) for j in range(n + 1) for i in range(1, s + 1)]


class Point:
    """An assignment of field values to jet variables.

    `values` maps (j, i), the pair that names x_i^(j) in a monomial key,
    to its coordinate as FieldSpec.raw stores it, which every evaluator
    reads as it is.  Point(spec, {JetVariable: value}) coerces each value
    by FieldSpec.raw (BadCoordinate for a float, MixedFields for an
    element of another field); point[v] and coords build FieldElements.
    """

    __slots__ = ("spec", "values")

    def __init__(self, spec: FieldSpec, coords: Mapping):
        self.spec = spec
        self.values = {(v.order, v.base): spec.raw(x) for v, x in coords.items()}

    @classmethod
    def _make(cls, spec: FieldSpec, values: dict) -> "Point":
        # trusted fast path: values keyed (order, base), raw as FieldSpec.raw stores them
        obj = object.__new__(cls)
        obj.spec, obj.values = spec, values
        return obj

    @classmethod
    def from_flat(cls, values: Sequence, s: int, n: int, spec: FieldSpec) -> "Point":
        """Build from a flat list in canonical order: x_1..x_s, then the
        order-1 coordinates x_1^(1)..x_s^(1), and so on up to order n."""
        values = list(values)
        return cls._make(spec, dict(zip(_flat_keys(len(values), s, n), map(spec.raw, values))))

    @classmethod
    def from_base(cls, values: Sequence, spec: FieldSpec) -> "Point":
        return cls.from_flat(values, len(values), 0, spec)

    @property
    def coords(self) -> dict[JetVariable, FieldElement]:
        return {JetVariable(base, order): FieldElement(self.spec, x) for (order, base), x in self.values.items()}

    def __getitem__(self, v: JetVariable) -> FieldElement:
        try:
            return FieldElement(self.spec, self.values[v.order, v.base])
        except KeyError:
            raise MissingCoordinate(f"point assigns no value to {v.name}") from None

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.spec == other.spec and self.values == other.values

    def __repr__(self) -> str:
        return f"Point({self.spec}, {self})"

    def __str__(self) -> str:
        return "(" + ", ".join(f"{_name(*key)}={x}" for key, x in sorted(self.values.items())) + ")"


# -- parser ----------------------------------------------------------

# whitespace, then an integer, a name, an operator or a character that starts no token
_TOKEN = re.compile(r"(\s*)(?:(\d+)|([A-Za-z]\w*)|([-+*/^])|(\S))")
_VAR = re.compile(r"x(\d+)(?:_(\d+))?$")


def _base_count(src: str) -> int:
    # the highest base index among the variable names of src, at least 1;
    # an index that int() refuses is skipped, and _terms reports it in order
    s = 1
    for token in _TOKEN.findall(src):
        m = token[2] and _VAR.match(token[2])
        if m:
            try:
                s = max(s, int(m.group(1)))
            except ValueError:
                pass
    return s


def _terms(src: str, s: int) -> tuple[list[tuple[dict, int, int]], int]:
    # (exps, num, den) per term of src, and the largest jet order named:
    # exps maps (j, i) to the summed exponent of x_i^(j) in order of first
    # occurrence, ^0 included; num/den is the term's sign times its numbers.
    # The tokens of src end in an empty one past the end; fail(error,
    # message, k, shift) raises the error at token k, or the one at the
    # first character that starts no token; integer(k, digits, shift) is
    # int(digits), or a ParseError when the literal has more digits than
    # int() converts (sys.get_int_max_str_digits)
    tokens = _TOKEN.findall(src) + [("",) * 5]

    def fail(error, message, k, shift=0):
        for j, token in enumerate(tokens):
            if token[4]:
                error, message, k, shift = ParseError, f"unexpected character {token[4]!r}", j, 0
                break
        skipped = sum(map(len, chain.from_iterable(tokens[:k]))) + len(tokens[k][0]) + shift
        raise error(message, skipped if k < len(tokens) - 1 else len(src))

    def integer(k, digits, shift=0):
        try:
            return int(digits)
        except ValueError:
            fail(ParseError, f"integer literal of {len(digits)} digits is too long", k, shift)

    end = len(tokens) - 1
    terms = []
    max_order = 0
    k = 1 if tokens[0][3] in ("+", "-") else 0
    sign = -1 if tokens[0][3] == "-" else 1
    if k == end:
        fail(ParseError, "empty polynomial", k)
    while True:
        num, den, exps = sign, 1, {}
        while True:  # one factor per pass
            _, digits, name, op, _ = tokens[k]
            if digits:
                num *= integer(k, digits)
                if tokens[k + 1][3] == "/":
                    k += 2
                    if not tokens[k][1]:
                        fail(ParseError, "expected an integer denominator", k)
                    den *= integer(k, tokens[k][1]) or fail(ParseError, "zero denominator", k)
            elif name:
                m = _VAR.match(name) or fail(UnknownVariable, f"unknown variable {name!r}", k)
                base = integer(k, m.group(1), 1)
                order = integer(k, m.group(2), m.start(2)) if m.group(2) else 0
                if not 1 <= base <= s:
                    fail(UnknownVariable, f"variable {name!r} outside x1..x{s}", k)
                e = 1
                if tokens[k + 1][3] == "^":
                    k += 2
                    if tokens[k][3] == "-":
                        fail(BadExponent, "negative exponent", k)
                    e = integer(k, tokens[k][1]) if tokens[k][1] else fail(ParseError, "expected an exponent", k)
                exps[order, base] = exps.get((order, base), 0) + e
                max_order = max(max_order, order)
            else:
                fail(ParseError, f"expected a coefficient or variable, found {op!r}", k)
            k += 1
            if tokens[k][3] != "*":
                break
            k += 1
        terms.append((exps, num, den))
        if k == end:
            return terms, max_order
        _, digits, name, op, _ = tokens[k]
        if op != "+" and op != "-":
            fail(ParseError, f"expected '+' or '-', found {digits or name or op!r}", k)
        sign = -1 if op == "-" else 1
        k += 1


def parse_poly(src: str, s: int, spec: FieldSpec = None) -> Polynomial:
    """Parse the grammar above into canonical sparse form.

    s fixes the number of base variables: names x1..xs are legal and the
    result's base_count is s (BadBaseCount for s < 1).  Each term's key
    and coefficient come from one pass over the tokens, in ints, with a
    Fraction only where a "/" occurs.  Over GF(p), a denominator that p
    divides is first summed with the terms of the same written monomial.
    """
    if spec is None:
        spec = FieldSpec.rationals()
    if s < 1:
        raise BadBaseCount("s must be >= 1")
    parsed, max_order = _terms(src, s)
    p = spec.characteristic
    terms: dict[tuple, object] = {}
    for exps, num, den in parsed:
        key = tuple(sorted([(j, i, e) for (j, i), e in exps.items() if e]))
        if not p:
            c = num if den == 1 else _rational(Fraction(num, den))
        elif den % p:
            c = num * pow(den, -1, p) % p
        else:  # summed by written monomial first, as below
            break
        if key in terms:
            c = (terms[key] + c) % p if p else _rational(terms[key] + c)
        terms[key] = c
    else:
        return Polynomial._make(spec, {key: c for key, c in terms.items() if c}, s, max_order)
    groups: dict[tuple, Fraction] = {}
    for exps, num, den in parsed:
        g = tuple(exps.items())
        groups[g] = groups.get(g, 0) + Fraction(num, den)
    items = ((((j, i, e) for (j, i), e in g), c) for g, c in groups.items())
    return Polynomial._make(spec, *_canonical(spec, items, s, 0))


def parse_polys(sources: Sequence[str], spec: FieldSpec = None) -> list[Polynomial]:
    """parse_poly of each source over x1..xs, with s the highest base
    index any of them names (at least 1).  The indices are read with the
    parser's tokens, and one too long for int() is left for the parser to
    report in order, so the first error in a source wins."""
    s = max(map(_base_count, sources), default=1)
    return [parse_poly(src, s, spec) for src in sources]
