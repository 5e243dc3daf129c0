"""The one-pass input readers against the readers they replaced.

parse_poly and cli.parse_point read their text straight into raw values,
and jac_m hands PolyMatrix its distinct objects and layout.  Each is
checked here against the kept oracle in _oracles: a seeded corpus of
polynomial sources and coordinate lists, valid and malformed, must give
the same values or the same error, and the handed-over layout must be
the one found by walking the entries.
"""

import random
from fractions import Fraction

import pytest

import jetjac
from jetjac import (
    BadBaseCount,
    BadPower,
    FieldSpec,
    MixedFields,
    PolyMatrix,
    jac_m,
    parse_poly,
)
from jetjac.cli import parse_point

from _corpus import GF2, Q
from _oracles import BadMultiIndex, divided_partial, parse_point_by_fractions, parse_poly_by_tokens

GF101 = FieldSpec.prime_field(101)
GF32003 = FieldSpec.prime_field(32003)
FIELDS = (Q, GF2, GF101, GF32003)

# more digits than int() converts under the default limit
LONG = "1" * 4301

# one source per error and per corner of the grammar, over s = 3
HAND_PICKED = [
    "", " ", "\t\n", "-", "+", " - ", "x1 +", "x1*", "x1^", "x1^-2", "x1 ^ - 2", "x1^x2", "x1^+2",
    "1/", "1/x1", "1/0", "1/00", "2/3/4", "x1/2", "3x1", "x1 x2", "y1", "x", "X1", "x0", "x4",
    "x1_", "x01", "x1_02", "x_1", "é", "xé", "x1 + $", "x1 x2 $", "$ x1 x2", "x1 + 2 !", "--x1",
    "+-x1", "*x1", "x1**x2", "x1^^2", "x1 + + x2", "x1 - -x2", "0", "-0", "0*x1", "x1 - x1",
    "x1^0", "x1_3^0 + 1", "x1*x1^2*x1_1*x1", "x2*x1 - x1*x2", "1/2*x1 + 1/2*x1",
    "1/101*x1 + 100/101*x1", "1/101*x1*x2 + 100/101*x2*x1", "1/101*x1 - 1/101*x1", "202/101*x1",
    "101/202 + 1", "1/2 + 3/2", "2/4*x1", "4/2", "1/32003*x3 + x1 + 32002/32003*x3",
    "x1 + 1/2*x2^0*x1", "7*3/5*x1_2", "-1/2*-x1", "x" + LONG, "x1_" + LONG, LONG, "1/" + LONG,
    "x1^" + LONG, LONG + "*x1 + $", "x1 +" + " " * 5, "x١ + x1_٢", "٣*x2",
    "x1^3 - x2^2 + x1*x2*x3 + x3^4", "x1\n-\tx2 ", "1 2", "x1 / 2", "x1 ^ 2 ^ 3",
]


def random_source(rng: random.Random, s: int, p: int) -> str:
    """A random source over x1..xs: signs, spaces, fractions with
    denominators that p may divide, repeated and cancelling variables,
    jet variables, ^0 and names out of range; about one in four is then
    broken by an inserted, deleted or replaced character."""
    def space():
        return rng.choice(["", "", "", " ", "  ", "\t"])

    def number():
        digits = rng.choice(["0", "1", "2", "3", "7", "12", "007", str(rng.randint(0, 10**6))])
        if rng.random() < 0.3:
            den = rng.choice(["1", "2", "3", "4", "6", "01", str(p or 5), str(2 * (p or 5)), str(rng.randint(1, 99))])
            if rng.random() < 0.03:
                den = "0"
            digits += space() + "/" + space() + den
        return digits

    def variable():
        base = rng.randint(1, s) if rng.random() < 0.97 else rng.choice([0, s + 1])
        name = f"x{base}" + (f"_{rng.randint(1, 3)}" if rng.random() < 0.3 else "")
        if rng.random() < 0.4:
            name += space() + "^" + space() + rng.choice(["0", "1", "2", "3", "5", "10"])
        return name

    def term():
        factors = [number() if rng.random() < 0.35 else variable() for _ in range(rng.randint(1, 4))]
        return (space() + "*" + space()).join(factors)

    terms = [term() for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.3:
        terms.append(terms[0])  # a repeat, cancelled by a leading "-" or doubled
    src = rng.choice(["", "-", "+", "- "]) + terms[0]
    for t in terms[1:]:
        src += space() + rng.choice("+-") + space() + t
    if rng.random() < 0.25:
        i = rng.randint(0, len(src))
        junk = rng.choice(["$", "_", "é", "y", "x", "/", "*", "^", "+", "-", "0", " ", ".", "(", "x9", "^-", LONG])
        action = rng.randrange(3)
        if action == 0:
            src = src[:i] + junk + src[i:]
        elif action == 1:
            src = src[:i] + src[i + 1 :]
        else:
            src = src[:i] + junk + src[i + 1 :]
    return src


def outcome(parse, *args):
    """What a reader gives: its value, or its error's class, message and
    position."""
    try:
        return ("value", parse(*args))
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "position", None))


def poly_outcome(parse, src, s, spec):
    got = outcome(parse, src, s, spec)
    if got[0] == "error":
        return got
    f = got[1]
    # the terms in order, with the type of each coefficient, and the shape
    return ("value", [(key, type(c), c) for key, c in f.terms.items()], f.base_count, f.max_order)


class TestPolynomialParity:
    @pytest.mark.parametrize("spec", FIELDS, ids=str)
    def test_hand_picked_sources(self, spec):
        for src in HAND_PICKED:
            assert poly_outcome(parse_poly, src, 3, spec) == poly_outcome(parse_poly_by_tokens, src, 3, spec), src

    @pytest.mark.parametrize("spec", FIELDS, ids=str)
    def test_seeded_corpus(self, spec):
        rng = random.Random(20261019 + spec.characteristic)
        kinds = {"value": 0, "error": 0}
        for _ in range(600):
            s = rng.randint(1, 3)
            src = random_source(rng, s, spec.characteristic)
            new, old = poly_outcome(parse_poly, src, s, spec), poly_outcome(parse_poly_by_tokens, src, s, spec)
            assert new == old, src
            kinds[new[0]] += 1
        # both readers are exercised on valid and on malformed input
        assert min(kinds.values()) > 100

    def test_an_over_long_literal_is_reported_where_it_starts(self):
        for src, position in [(LONG, 0), ("x1 + " + LONG, 5), ("x1^" + LONG, 3), ("x" + LONG, 1), ("x1_" + LONG, 3)]:
            with pytest.raises(jetjac.ParseError) as err:
                parse_poly(src, 3, Q)
            assert err.value.position == position

    def test_a_character_that_starts_no_token_comes_first(self):
        # the grammar breaks at x2, but "!" is the first fault reported
        with pytest.raises(jetjac.ParseError, match=r"^unexpected character '!' \(at position 6\)$"):
            parse_poly("x1 x2 !", 2, Q)

    def test_a_vanishing_denominator_is_summed_before_it_is_reduced(self):
        # 1/101 + 100/101 = 1 on one written monomial; on x1*x2 and x2*x1 the first 1/101 is reduced alone
        assert parse_poly("1/101*x1 + 100/101*x1", 2, GF101) == parse_poly("x1", 2, GF101)
        with pytest.raises(jetjac.DivisionByZero, match=r"^denominator of 1/101 vanishes in GF\(101\)$"):
            parse_poly("1/101*x1*x2 + 100/101*x2*x1", 2, GF101)


def coordinate_text(rng: random.Random, p: int) -> str:
    """A random coordinate list entry: integers with signs, spaces and
    leading zeros, -0, fractions not in lowest terms or with a
    denominator that p divides, over-long digits, or a bad numeral."""
    q = p or 7
    choice = rng.random()
    if choice < 0.45:
        text = rng.choice(["", "+", "-"]) + rng.choice(["", "0", "00"]) + str(rng.randint(0, 40000))
    elif choice < 0.8:
        num = rng.choice([rng.randint(-50, 50), q, 2 * q, -q])
        den = rng.choice([rng.randint(1, 30), q, 2 * q, q * q, 1])
        text = f"{num}/{rng.choice(['', '0'])}{den}"
    elif choice < 0.87:
        text = rng.choice(["-0", "+0", "0/5", "-0/3", "٣", "12/٤"])
    elif choice < 0.93:
        text = rng.choice([LONG, "-" + LONG, "1/" + LONG, "0" * 4301, "7/" + "0" * 4300 + "1"])
    else:
        text = rng.choice(["0.5", "1e3", ".5", "1_0", "1/0", "2/-3", "x", "", "1 /2", "--1", "+-1", "1/+2"])
    return rng.choice(["", " ", "\t", " "]) + text + rng.choice(["", " ", "  "])


class TestCoordinateParity:
    HAND_PICKED = [
        (" 1 , +2 ", 2, 0), ("007,-0", 2, 0), ("4/6,-14/21", 2, 0), ("2/14,1", 2, 0), ("101/202,1", 2, 0),
        ("1/101,1", 2, 0), ("1/2,3/4", 2, 0), ("x,1,2", 2, 0), ("1,x", 1, 0), ("1,2,3", 2, 0),
        ("1/" + LONG + ",1", 2, 0), (LONG + ",x", 2, 0), (LONG + ",1,1", 2, 0), ("1/101," + LONG, 2, 0),
        (",".join(["0"] * 39), 3, 12), (",".join(["-7/3", "5/2", "1"] * 4), 3, 3),
    ]

    @pytest.mark.parametrize("spec", FIELDS, ids=str)
    def test_hand_picked_lists(self, spec):
        for text, s, n in self.HAND_PICKED:
            assert outcome(parse_point, text, s, n, spec) == outcome(parse_point_by_fractions, text, s, n, spec), text

    @pytest.mark.parametrize("spec", FIELDS, ids=str)
    def test_seeded_lists(self, spec):
        rng = random.Random(19102026 + spec.characteristic)
        kinds = {"value": 0, "error": 0}
        for _ in range(300):
            s, n = rng.randint(1, 3), rng.randint(0, 3)
            count = s * (n + 1) + rng.choice([0, 0, 0, 0, -1, 1])
            texts = [coordinate_text(rng, spec.characteristic) for _ in range(max(count, 1))]
            if rng.random() < 0.5:  # most lists read, up to the field's denominators
                texts = [str(rng.randint(-9, 9)) for _ in texts]
            text = ",".join(texts)
            new, old = outcome(parse_point, text, s, n, spec), outcome(parse_point_by_fractions, text, s, n, spec)
            if new[0] == "value":
                # equal values of equal types, in the same key order
                assert old[0] == "value", text
                assert [(k, type(x), x) for k, x in new[1].values.items()] == [
                    (k, type(x), x) for k, x in old[1].values.items()
                ], text
            else:
                assert new == old, text
            kinds[new[0]] += 1
        assert min(kinds.values()) > 50

    def test_a_bad_coordinate_comes_before_a_wrong_count(self):
        with pytest.raises(jetjac.BadCoordinate, match=r"^coordinate '0\.5' is not an integer or a fraction a/b$"):
            parse_point("1, 0.5, x", 2, 1, Q)

    def test_a_vanishing_denominator_is_named_in_lowest_terms(self):
        with pytest.raises(jetjac.DivisionByZero, match=r"^denominator of 1/7 vanishes in GF\(7\)$"):
            parse_point("1,2/14", 2, 0, FieldSpec.prime_field(7))


class TestJacMHandover:
    def test_layout_is_the_one_found_from_the_entries(self):
        rng = random.Random(23)
        sources = ["x1^3 - x2^2 + x1*x2*x3 + x3^4", "x1", "x1_1*x2 + 3", "0", "5", "x1^2*x2^2 - x1^3 + x2^5"]
        for spec in FIELDS:
            for _ in range(12):
                fs = [parse_poly(rng.choice(sources), 3, spec) for _ in range(rng.randint(1, 3))]
                if rng.random() < 0.3:
                    fs.append(fs[0])  # one object twice: its block repeats the first one's objects
                for m in (1, 2, 3):
                    mx = jac_m(fs, m)
                    walked = PolyMatrix(mx.rows, mx.cols, mx.entries)
                    assert mx.distinct == walked.distinct
                    assert [id(g) for g in mx.distinct] == [id(g) for g in walked.distinct]
                    assert mx.layout == walked.layout
                    assert mx == walked

    def test_one_variable_has_no_zero_cell(self):
        # s = 1, m = 2: the 2 x 2 block holds f' and f'' in row 0 and f, f' in row 1
        mx = jac_m([parse_poly("x1^3", 1, Q)], 2)
        assert [str(g) for g in mx.distinct] == ["3*x1^2", "3*x1", "x1^3"]
        assert mx.layout == (0, 1, 2, 0)

    def test_two_fields_are_refused(self):
        with pytest.raises(MixedFields, match=r"^matrix entries belong to different fields$"):
            jac_m([parse_poly("x1", 1, Q), parse_poly("x1", 1, GF101)], 2)


class TestNamedErrors:
    def test_bad_power(self):
        f = parse_poly("x1 + 1", 1, Q)
        for e in (-1, Fraction(1, 2)):
            with pytest.raises(BadPower, match=r"^polynomial powers take a natural exponent$"):
                f ** e

    def test_bad_multi_index(self):
        with pytest.raises(BadMultiIndex, match=r"^multi-index entries must be naturals$"):
            divided_partial(parse_poly("x1*x2", 2, Q), (1, -1))

    def test_bad_base_count(self):
        for s in (0, -1):
            with pytest.raises(BadBaseCount, match=r"^s must be >= 1$"):
                parse_poly("x1", s, Q)

    def test_each_is_a_value_error(self):
        assert all(issubclass(cls, ValueError) for cls in (BadBaseCount, BadMultiIndex, BadPower))
