"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Field elements are immutable values that carry their field; mixing values
from different fields raises MixedFields.  FieldSpec.raw alone decides
how a value is stored: a rational as an int when it is integral and as
a reduced Fraction otherwise, a prime-field value as its residue in
[0, p).  A float is rejected, so every value stays exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Raw = Union[Fraction, int]


class FieldError(Exception):
    """Base class for scalar arithmetic errors."""


class MixedFields(FieldError):
    """Operands belong to different fields."""


class DivisionByZero(FieldError):
    """Division by the zero element of the field."""


class BadCoordinate(ValueError):
    """A point coordinate is neither an integer nor a fraction a/b."""


# an integer, or a fraction a/b with b > 0, each with an optional sign
_COORDINATE = re.compile(r"[-+]?\d+(?:/0*[1-9]\d*)?")


def check_coordinate(text: str) -> str:
    """`text` itself when it is an integer or a fraction a/b (b > 0) with
    an optional sign; raises BadCoordinate otherwise."""
    if not _COORDINATE.fullmatch(text):
        raise BadCoordinate(f"coordinate {text!r} is not an integer or a fraction a/b")
    return text


class CharacteristicTooLarge(FieldError):
    """The characteristic is at or above PRIME_BOUND, where is_prime is no
    longer known to be exact."""


class BadCharacteristic(ValueError):
    """A characteristic that is neither 0 nor a prime."""


class BadFieldSelector(ValueError):
    """A field selector other than "Q" or "Fp:<integer>"."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_BASES (Sorenson & Webster 2017)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41, exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: Q (characteristic 0) or GF(p) for a prime p."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p >= PRIME_BOUND:
            raise CharacteristicTooLarge(
                f"characteristic {p} is at or above {PRIME_BOUND}, "
                "where the primality test is no longer exact"
            )
        if p != 0 and not is_prime(p):
            raise BadCharacteristic(f"characteristic must be 0 or a prime, got {p}")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse a field selector: "Q", or "Fp:<prime>" such as "Fp:7"."""
        if text == "Q":
            return cls(0)
        if text.startswith("Fp:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise BadFieldSelector(f"bad field selector {text!r}") from None
            return cls(p)
        raise BadFieldSelector(f"bad field selector {text!r} (use Q or Fp:<prime>)")

    def raw(self, x) -> Raw:
        """Coerce x (int, Fraction, FieldElement, or a string in the
        coordinate grammar of check_coordinate, read by int()) to its
        canonical raw value: a residue int in [0, p) over GF(p); over Q an
        int when x is integral, else a reduced Fraction.  Anything else,
        such as a float, raises BadCoordinate."""
        p = self.characteristic
        if type(x) is int:
            return x % p if p else x
        if isinstance(x, FieldElement):
            if x.spec != self:
                raise MixedFields(f"{x.spec} value used where {self} expected")
            return x.value
        if isinstance(x, str):
            return self._raw_text(check_coordinate(x))
        if not isinstance(x, (int, Fraction)):
            raise BadCoordinate(f"{x!r} is not an integer or a fraction a/b")
        if p == 0:
            return x.numerator if x.denominator == 1 else x
        den = x.denominator % p
        if den == 0:
            raise DivisionByZero(f"denominator of {x} vanishes in GF({p})")
        return x.numerator * pow(den, -1, p) % p

    def raw_texts(self, texts: list[str]) -> list[Raw]:
        """[self.raw(t) for t in texts] for texts check_coordinate accepts,
        without a second check: by int() when every text is an integer."""
        p = self.characteristic
        try:
            values = list(map(int, texts))
        except ValueError:  # an a/b, or more digits than int() converts
            return list(map(self._raw_text, texts))
        return [x % p for x in values] if p else values

    def _raw_text(self, text: str) -> Raw:
        # raw of a text check_coordinate accepted, by int() on its parts
        num, _, den = text.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # more digits than int() converts
            raise BadCoordinate(f"coordinate of {len(text)} characters is too long") from None
        p = self.characteristic
        if p and den % p:
            return num * pow(den, -1, p) % p
        return num if den == 1 else self.raw(Fraction(num, den))

    def element(self, x) -> "FieldElement":
        return FieldElement(self, x)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else f"Fp:{self.characteristic}"


class FieldElement:
    """Immutable scalar whose value is the raw value FieldSpec.raw gives:
    an int or a reduced Fraction over Q, a residue in [0, p) over GF(p)."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        self.spec = spec
        self.value = spec.raw(value)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise MixedFields(f"cannot combine {self.spec} with {other.spec}")
            return other.value
        if isinstance(other, (int, Fraction)):
            return self.spec.raw(other)
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.spec, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.spec, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.spec, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.spec, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise DivisionByZero(f"division by zero in {self.spec}")
        p = self.spec.characteristic
        if p:
            return FieldElement(self.spec, self.value * pow(v, -1, p))
        return FieldElement(self.spec, Fraction(self.value, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.spec, v) / self

    def __neg__(self):
        return FieldElement(self.spec, -self.value)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** -e
        p = self.spec.characteristic
        return FieldElement(self.spec, pow(self.value, e, p) if p else self.value**e)

    def inverse(self) -> "FieldElement":
        return self.spec.one / self

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == self.spec.raw(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec.characteristic, self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"FieldElement({self.spec}, {self.value})"

