import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetjac import (
    BadCharacteristic,
    BadCoordinate,
    BadFieldSelector,
    CharacteristicTooLarge,
    DivisionByZero,
    FieldElement,
    FieldError,
    FieldSpec,
    MixedFields,
    is_prime,
)
from jetjac.field import PRIME_BOUND

Q = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)
GF5 = FieldSpec.prime_field(5)


def rationals():
    return st.builds(
        lambda a, b: Q.element(Fraction(a, b)),
        st.integers(-50, 50),
        st.integers(1, 20),
    )


def gf5_elements():
    return st.integers(0, 4).map(GF5.element)


class TestFieldSpec:
    def test_parse(self):
        assert FieldSpec.parse("Q") == Q
        assert FieldSpec.parse("Fp:7") == FieldSpec.prime_field(7)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FieldSpec.parse("R")
        with pytest.raises(ValueError):
            FieldSpec.parse("Fp:abc")

    def test_characteristic_must_be_prime(self):
        with pytest.raises(ValueError):
            FieldSpec(4)
        with pytest.raises(ValueError):
            FieldSpec(1)
        FieldSpec(101)  # fine

    def test_a_characteristic_neither_zero_nor_prime_is_named(self):
        assert issubclass(BadCharacteristic, ValueError)
        for p in (4, 1, -3):
            with pytest.raises(BadCharacteristic, match=rf"^characteristic must be 0 or a prime, got {p}$"):
                FieldSpec(p)
        with pytest.raises(BadCharacteristic):
            FieldSpec.parse("Fp:9")

    def test_a_bad_field_selector_is_named(self):
        assert issubclass(BadFieldSelector, ValueError)
        with pytest.raises(BadFieldSelector, match=r"^bad field selector 'Fp:abc'$"):
            FieldSpec.parse("Fp:abc")
        with pytest.raises(BadFieldSelector, match=r"^bad field selector 'R' \(use Q or Fp:<prime>\)$"):
            FieldSpec.parse("R")

    def test_str_round_trip(self):
        for spec in (Q, GF2, FieldSpec.prime_field(10007)):
            assert FieldSpec.parse(str(spec)) == spec


class TestPrimeBound:
    PSEUDOPRIME_2_TO_37 = 318665857834031151167461
    PSEUDOPRIME_2_TO_41 = 3317044064679887385961981

    def test_strong_pseudoprime_to_the_bases_below_41_is_composite(self):
        assert self.PSEUDOPRIME_2_TO_37 == 399165290221 * 798330580441
        assert not is_prime(self.PSEUDOPRIME_2_TO_37)
        with pytest.raises(ValueError):
            FieldSpec(self.PSEUDOPRIME_2_TO_37)

    def test_characteristics_from_the_bound_up_are_rejected(self):
        assert self.PSEUDOPRIME_2_TO_41 == PRIME_BOUND
        for p in (PRIME_BOUND, 2**89 - 1):
            with pytest.raises(CharacteristicTooLarge):
                FieldSpec(p)
            with pytest.raises(FieldError):
                FieldSpec.parse(f"Fp:{p}")

    def test_large_primes_below_the_bound_are_accepted(self):
        for p in (2**61 - 1, 2**31 - 1, 1000000007):
            assert FieldSpec(p).characteristic == p
        assert not is_prime((2**31 - 1) * (2**61 - 1))


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 10007, 1000003}
    for n in range(-3, 30):
        assert is_prime(n) == (n in primes or n in (17, 19, 23, 29))
    assert is_prime(10007)
    assert not is_prime(10007 * 10009)


class TestArithmetic:
    def test_rational_addition(self):
        assert Q.element(Fraction(1, 2)) + Q.element(Fraction(1, 3)) == Fraction(5, 6)

    def test_gf5_multiplication(self):
        assert GF5.element(2) * GF5.element(3) == GF5.element(1)

    @given(a=rationals())
    def test_additive_identity(self, a):
        assert a + Q.zero == a

    def test_canonical_forms(self):
        assert Q.element("4/6").value == Fraction(2, 3)
        assert GF5.element(-3).value == 2
        assert GF5.element(Fraction(1, 2)).value == 3  # 1/2 = 3 in GF(5)

    @pytest.mark.parametrize("text", ["-3", "+4", "4/6", "-7/3", "6/01"])
    def test_strings_in_the_coordinate_grammar(self, text):
        assert Q.element(text).value == Fraction(text)
        assert GF5.element(text).value == GF5.element(Fraction(text)).value

    @pytest.mark.parametrize("text", ["0.5", "1e3", ".5", "1_0", "1/0", "2/-3", " 1", "x", ""])
    def test_strings_outside_the_coordinate_grammar(self, text):
        for spec in (Q, GF5):
            with pytest.raises(BadCoordinate, match="is not an integer or a fraction a/b"):
                spec.raw(text)

    def test_mixed_fields(self):
        with pytest.raises(MixedFields):
            Q.element(1) + GF5.element(1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            Q.element(1) / Q.element(0)
        with pytest.raises(DivisionByZero):
            GF5.element(2) / GF5.element(0)
        with pytest.raises(DivisionByZero):
            GF2.element(Fraction(1, 2))  # denominator vanishes mod 2

    @given(a=rationals(), b=rationals(), c=rationals())
    def test_rational_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == Q.zero
        if not a.is_zero:
            assert a * a.inverse() == Q.one

    @given(a=gf5_elements(), b=gf5_elements(), c=gf5_elements())
    def test_prime_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == GF5.zero
        if not a.is_zero:
            assert a * a.inverse() == GF5.one

    def test_pow(self):
        assert GF5.element(2) ** 4 == GF5.element(1)
        assert Q.element(Fraction(2, 3)) ** 2 == Fraction(4, 9)
        assert GF5.element(2) ** -1 == GF5.element(3)


class TestOneGate:
    """FieldSpec.raw decides how every scalar is stored, FieldElement
    included."""

    def test_floats_are_rejected(self):
        for make in (
            lambda: FieldElement(Q, 0.5),
            lambda: FieldElement(GF5, 2.5),
            lambda: Q.element(0.1),
            lambda: GF5.element(2.5),
        ):
            with pytest.raises(BadCoordinate):
                make()

    def test_constructor_reduces_into_the_field(self):
        assert FieldElement(GF5, Fraction(1, 2)) == GF5.element(3)
        assert FieldElement(GF5, Fraction(1, 2)).value == 3

    def test_integral_rationals_are_ints(self):
        assert type(Q.element(Fraction(6, 3)).value) is int
        assert type(Q.zero.value) is int and type(Q.one.value) is int
        assert type((Q.element(Fraction(1, 2)) * 2).value) is int

    def test_division_stays_exact(self):
        assert Q.element(1) / Q.element(3) == Fraction(1, 3)
        assert type((Q.element(1) / Q.element(3)).value) is Fraction
        assert Q.element(2) ** -2 == Fraction(1, 4)


class TestBinomial:
    @given(n=st.integers(1, 30), k=st.integers(1, 30))
    def test_pascal_rule_before_reduction(self, n, k):
        assert math.comb(n, k) == math.comb(n - 1, k - 1) + math.comb(n - 1, k)
