import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetjac import (
    BadExponent,
    CoefficientTooLong,
    FieldSpec,
    JetVariable,
    MalformedMonomial,
    MissingCoordinate,
    ParseError,
    Point,
    Polynomial,
    UnknownVariable,
    hs_components,
    jac_m,
    jet_grid,
    minors,
    parse_poly,
)
import jetjac.poly
from jetjac.poly import render

from _corpus import GF2, GF5, GF32003, Q, random_base_polynomial
from _oracles import divided_partial, evaluate_termwise, polynomial_str

X1 = JetVariable(1, 0)
X2 = JetVariable(2, 0)


def poly(src, s=2, spec=Q):
    return parse_poly(src, s, spec)


CUSP = poly("x1^3 - x2^2")


class TestJetVariable:
    def test_names(self):
        assert JetVariable(1, 0).name == "x1"
        assert JetVariable(2, 3).name == "x2_3"

    def test_canonical_order(self):
        vs = [JetVariable(1, 1), JetVariable(2, 0), JetVariable(1, 0)]
        assert sorted(vs) == [JetVariable(1, 0), JetVariable(2, 0), JetVariable(1, 1)]

    def test_grid(self):
        assert jet_grid(2, 1) == (
            JetVariable(1, 0),
            JetVariable(2, 0),
            JetVariable(1, 1),
            JetVariable(2, 1),
        )

    def test_validation(self):
        with pytest.raises(MalformedMonomial, match=r"^variable base index starts at 1$"):
            JetVariable(0, 0)
        with pytest.raises(MalformedMonomial, match=r"^jet order must be >= 0$"):
            JetVariable(1, -1)


class TestParser:
    def test_basic(self):
        f = poly("x1^3 - x2^2")
        assert f.coefficient({X1: 3}) == Q.element(1)
        assert f.coefficient({X2: 2}) == Q.element(-1)
        assert len(f.terms) == 2

    def test_coefficient_vanishing_mod_p(self):
        f = parse_poly("3*x1*x2 + x1", 2, FieldSpec.prime_field(3))
        assert f == parse_poly("x1", 2, FieldSpec.prime_field(3))

    def test_jet_suffix(self):
        f = parse_poly("x1_1^2", 1, Q)
        assert f.coefficient({JetVariable(1, 1): 2}) == Q.one
        assert f.degree() == 2

    def test_fraction_coefficients(self):
        f = poly("1/2*x1 + 3/4")
        assert f.coefficient({X1: 1}) == Fraction(1, 2)
        assert f.constant_value() == Fraction(3, 4)

    def test_leading_sign_and_merging(self):
        assert poly("-x1 + 2*x1") == poly("x1")
        assert poly("x1 - x1").is_zero

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            poly("x1 + $")
        assert err.value.position == 5

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            poly("x3", s=2)
        with pytest.raises(UnknownVariable):
            poly("y1", s=2)

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            poly("x1^-2")

    def test_juxtaposition_needs_star(self):
        with pytest.raises(ParseError):
            poly("3x1")

    def test_print_parse_identity(self):
        cases = ["x1^3-x2^2", "1/2*x1*x2-3", "x1_2^2+x1*x1_1", "0", "-x1+1"]
        for src in cases:
            f = parse_poly(src, 2, Q)
            assert parse_poly(str(f), 2, Q) == f

    def test_print_parse_identity_random(self):
        rng = random.Random(7)
        for _ in range(60):
            f = random_base_polynomial(rng, rng.randint(1, 3), 4, 5, Q)
            assert parse_poly(str(f), max(f.base_count, 1), Q) == f
        for _ in range(30):
            f = random_base_polynomial(rng, 2, 4, 5, GF5)
            assert parse_poly(str(f), 2, GF5) == f


class TestArithmetic:
    def test_difference_of_squares(self):
        x = poly("x1", s=1)
        assert (x + 1) * (x - 1) == poly("x1^2 - 1", s=1)

    def test_additive_identity(self):
        zero = Polynomial.zero(Q)
        assert CUSP + zero == CUSP

    def test_frobenius_in_char_2(self):
        f = parse_poly("x1 + x2", 2, GF2)
        assert f**2 == parse_poly("x1^2 + x2^2", 2, GF2)

    def test_mixed_ambients_align(self):
        f = parse_poly("x1", 1, Q)
        g = parse_poly("x2", 2, Q)
        assert f + g == poly("x1 + x2")
        assert (f + g).base_count == (f * g).base_count == 2

    def test_scalar_multiplication(self):
        assert CUSP * Fraction(1, 2) == poly("1/2*x1^3 - 1/2*x2^2")
        assert CUSP * Q.element(2) == poly("2*x1^3 - 2*x2^2")

    def test_pow(self):
        x = poly("x1", s=1)
        assert x**0 == 1
        assert (x + 1) ** 3 == poly("x1^3 + 3*x1^2 + 3*x1 + 1", s=1)

    def test_zero_polynomial_degree_convention(self):
        zero = Polynomial.zero(Q, 2)
        assert zero.is_zero
        assert zero.degree() == float("-inf")
        assert (zero * CUSP).is_zero

    def test_integral_results_are_stored_as_ints(self):
        # as FieldSpec.raw stores scalars: over Q an int when integral
        half = poly("1/2*x1", s=1)
        third = poly("1/3*x1^3", s=1)
        results = {
            "scaled": (half * 2, "x1"),
            "scaled by a Fraction": (poly("2*x1", s=1) * Fraction(1, 2), "x1"),
            "sum": (half + half, "x1"),
            "product": (half * poly("2", s=1), "x1"),
            "power": (poly("1/2*x1 + 1/2", s=1) ** 2 * 4, "x1^2 + 2*x1 + 1"),
            "partial": (third.partial(X1), "x1^2"),
            "divided partial": (divided_partial(third, (1,)), "x1^2"),
        }
        for label, (result, want) in results.items():
            assert result == poly(want, s=1), label
            assert all(type(c) is int for c in result.terms.values()), (label, result.terms)
        assert (half * 3).terms == {((0, 1, 1),): Fraction(3, 2)}

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_constants_embed(self, a, b):
        pa = Polynomial.constant(Q, a)
        pb = Polynomial.constant(Q, b)
        assert pa * pb == Polynomial.constant(Q, a * b)
        assert pa + pb == Polynomial.constant(Q, a + b)


class TestSparseKeys:
    """A term is keyed by the variables it contains, whatever the number
    of variables around it."""

    def test_base_count_is_the_s_parsed_with(self):
        assert parse_poly("x1", 3).base_count == 3
        assert parse_poly("x1_2", 1).max_order == 2
        # a jet variable mentioned in a cancelling term still counts
        assert parse_poly("x1_2 - x1_2 + x1", 1).max_order == 2

    def test_equal_and_hash_across_base_counts(self):
        few, many = parse_poly("x1", 1), parse_poly("x1", 3)
        assert few == many and hash(few) == hash(many)
        assert few.terms == many.terms == {((0, 1, 1),): 1}
        assert parse_poly("x1", 1, GF5) != parse_poly("x1", 3)

    def test_a_term_holds_only_its_variables(self):
        f = parse_poly("x100000^2*x3", 100000)
        assert f.terms == {((0, 3, 1), (0, 100000, 2)): 1}
        assert str(f) == "x3*x100000^2"
        assert f.variables() == (JetVariable(3, 0), JetVariable(100000, 0))

    def test_the_constructor_brings_keys_to_canonical_form(self):
        # unsorted triples, a zero exponent and a repeated variable
        f = Polynomial(Q, {((0, 2, 1), (1, 1, 0), (0, 1, 1)): 2, ((0, 1, 1), (0, 2, 1)): 1, ((0, 1, 1), (0, 1, 2)): 1})
        assert f == parse_poly("3*x1*x2 + x1^3", 2)
        assert f.terms == {((0, 1, 1), (0, 2, 1)): 3, ((0, 1, 3),): 1}
        assert str(f) == "x1^3+3*x1*x2"
        # the zero-exponent x1_1 counts towards max_order
        assert (f.base_count, f.max_order) == (2, 1)
        assert Polynomial(Q, {((0, 1, 1),): 1, ((0, 1, 1), (0, 2, 0)): -1}).is_zero

    @pytest.mark.parametrize(
        "triple", [(0, 1, -1), (0, 0, 1), (-1, 1, 1)], ids=["negative exponent", "base 0", "negative order"]
    )
    def test_malformed_keys_are_refused(self, triple):
        with pytest.raises(MalformedMonomial):
            Polynomial(Q, {(triple,): 1})

    def test_evaluate_reads_only_the_variables_that_occur(self):
        f = parse_poly("x2^2 + x1_3", 2)
        point = Point(Q, {JetVariable(2, 0): Q.element(3), JetVariable(1, 3): Q.element(-1)})
        assert f.evaluate(point) == Q.element(8)
        with pytest.raises(MissingCoordinate):
            f.evaluate(Point(Q, {JetVariable(2, 0): Q.element(3)}))


class TestCalculus:
    def test_partial_examples(self):
        assert CUSP.partial(X1) == poly("3*x1^2")
        assert CUSP.partial(X2) == poly("-2*x2")
        assert Polynomial.constant(Q, 5, 2).partial(X1).is_zero

    def test_divided_partial_examples(self):
        assert divided_partial(CUSP, (2, 0)) == poly("3*x1")
        assert divided_partial(CUSP, (0, 2)) == poly("-1")
        # C(4,2) = 6 = 0 mod 2: the divided derivative drops the term
        f = parse_poly("x1^4", 1, GF2)
        assert math.comb(4, 2) % 2 == 0
        assert divided_partial(f, (2,)).is_zero
        # same derivative over Q is C(4,2) x^2
        assert divided_partial(poly("x1^4", s=1), (2,)) == poly("6*x1^2", s=1)

    def test_divided_partial_zero_index_is_identity(self):
        assert divided_partial(CUSP, (0, 0)) == CUSP

    def test_leibniz_rule(self):
        rng = random.Random(11)
        for _ in range(40):
            s = rng.randint(1, 3)
            f = random_base_polynomial(rng, s, 3, 4, Q)
            g = random_base_polynomial(rng, s, 3, 4, Q)
            v = JetVariable(rng.randint(1, s), 0)
            assert (f * g).partial(v) == f * g.partial(v) + g * f.partial(v)

    def test_divided_partial_matches_iterated_partial_over_q(self):
        rng = random.Random(13)
        for _ in range(30):
            s = rng.randint(1, 3)
            f = random_base_polynomial(rng, s, 4, 4, Q)
            delta = [0] * s
            for _ in range(rng.randint(0, 4)):
                delta[rng.randrange(s)] += 1
            iterated = f
            fact = 1
            for i, d in enumerate(delta):
                for _ in range(d):
                    iterated = iterated.partial(JetVariable(i + 1, 0))
                fact *= math.factorial(d)
            assert divided_partial(f, delta) * fact == iterated

    def test_divided_power_composition_on_monomials(self):
        rng = random.Random(17)
        for _ in range(40):
            s = rng.randint(1, 2)
            exps = tuple(rng.randint(0, 5) for _ in range(s))
            mono = Polynomial(Q, {tuple((0, i + 1, e) for i, e in enumerate(exps) if e): 1}, base_count=s)
            delta = tuple(rng.randint(0, 2) for _ in range(s))
            eps = tuple(rng.randint(0, 2) for _ in range(s))
            lhs = divided_partial(divided_partial(mono, eps), delta)
            coeff = 1
            for d, e in zip(delta, eps):
                coeff *= math.comb(d + e, d)
            rhs = divided_partial(mono, tuple(d + e for d, e in zip(delta, eps))) * coeff
            assert lhs == rhs


class TestEvaluation:
    def test_examples(self):
        assert CUSP.evaluate(Point.from_base([1, 1], Q)) == Q.zero
        assert CUSP.evaluate(Point.from_base([2, 3], Q)) == Q.element(-1)
        f = poly("x1^2*x2 + 7")
        assert f.evaluate(Point.from_base([0, 0], Q)) == f.constant_value()

    def test_missing_coordinate(self):
        point = Point(Q, {X1: Q.one})
        with pytest.raises(MissingCoordinate):
            CUSP.evaluate(point)

    def test_point_layout_is_order_major(self):
        point = Point.from_flat([1, 2, 3, 4], 2, 1, Q)
        assert point[JetVariable(1, 0)] == 1
        assert point[JetVariable(2, 0)] == 2
        assert point[JetVariable(1, 1)] == 3
        assert point[JetVariable(2, 1)] == 4

    def test_point_length_validation(self):
        with pytest.raises(ValueError):
            Point.from_flat([1, 2, 3], 2, 1, Q)

    def test_evaluation_is_ring_homomorphism(self):
        rng = random.Random(19)
        for _ in range(40):
            s = rng.randint(1, 3)
            f = random_base_polynomial(rng, s, 3, 4, Q)
            g = random_base_polynomial(rng, s, 3, 4, Q)
            point = Point.from_base([rng.randint(-5, 5) for _ in range(s)], Q)
            assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
            assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)

    def test_evaluation_mod_p(self):
        f = parse_poly("x1^3 - x2^2", 2, GF5)
        assert f.evaluate(Point.from_base([2, 3], GF5)) == GF5.element(-1)

    @pytest.mark.parametrize("spec", [Q, GF2, FieldSpec.prime_field(101)], ids=str)
    def test_matches_the_termwise_evaluator(self, spec):
        # polynomials in jet variables whose ambient skips some of the
        # grid, at points that assign more: rationals a/b over Q, zeros
        rng = random.Random(f"evaluate:{spec}")
        p = spec.characteristic

        def coordinate():
            if rng.random() < 0.2:
                return 0
            return rng.randrange(p) if p else Fraction(rng.randint(-9, 9), rng.randint(1, 5))

        for _ in range(80):
            s, n = rng.randint(1, 3), rng.randint(0, 2)
            grid = jet_grid(s, n)
            ambient = sorted(rng.sample(grid, rng.randint(0, len(grid))))
            terms = {
                tuple(rng.choice((0, 0, 1, 2, 3, 5)) for _ in ambient): (
                    rng.randint(-9, 9) if p or rng.random() < 0.5 else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                )
                for _ in range(rng.randint(0, 6))
            }
            f = Polynomial(spec, {tuple((v.order, v.base, e) for v, e in zip(ambient, exps)): c for exps, c in terms.items()})
            point = Point(spec, {v: spec.element(coordinate()) for v in grid})
            got = f.evaluate(point)
            assert got.value == evaluate_termwise(f, point), (str(f), str(point))
            assert type(got.value) is (int if p or got.value.denominator == 1 else Fraction)


class TestCanonicalPrinting:
    def test_graded_lex_descending(self):
        assert str(CUSP) == "x1^3-x2^2"
        assert str(poly("x2^2 + x1^3")) == "x1^3+x2^2"
        assert str(poly("x1*x2 + x1^2")) == "x1^2+x1*x2"

    def test_jet_variables_print_with_suffix(self):
        f = parse_poly("2*x1*x1_2 + x1_1^2", 1, Q)
        assert str(f) == "2*x1*x1_2+x1_1^2"

    def test_constants(self):
        assert str(Polynomial.zero(Q)) == "0"
        assert str(Polynomial.constant(Q, Fraction(-3, 4))) == "-3/4"

    def test_unit_coefficients_omitted(self):
        assert str(poly("x1 - x2")) == "x1-x2"
        assert str(poly("-x1")) == "-x1"

    def test_the_printer_memos_stay_bounded(self, monkeypatch):
        # each key triple's sort weight and text are kept until the memo
        # passes its cap, then it starts over; the output does not change
        monkeypatch.setattr(jetjac.poly, "_MEMO_CAP", 3)
        f = parse_poly(" + ".join(f"x{i}^{i}" for i in range(1, 9)), 8, Q)
        assert str(f) == "x8^8+x7^7+x6^6+x5^5+x4^4+x3^3+x2^2+x1"
        assert len(jetjac.poly._weight.__self__) <= 4
        assert len(jetjac.poly._factor.__self__) <= 4

    @given(st.data())
    def test_matches_the_former_printer(self, data):
        spec = data.draw(st.sampled_from([Q, GF2, FieldSpec.prime_field(101)]))
        s, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
        grid = jet_grid(s, n)
        # -1, 1, a/b (over Q) and 0 coefficients; the zero exponent is a
        # constant term
        coeffs = st.one_of(st.sampled_from([-1, 1, 0]), st.integers(-300, 300))
        if not spec.characteristic:
            coeffs = st.one_of(coeffs, st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7)))
        exps = st.tuples(*[st.integers(0, 3)] * len(grid))
        terms = data.draw(st.dictionaries(exps, coeffs, max_size=8))
        f = Polynomial(spec, {tuple((v.order, v.base, k) for v, k in zip(grid, e)): c for e, c in terms.items()})
        assert str(f) == polynomial_str(f)


GF101 = FieldSpec.prime_field(101)


def _distinct_monomials(polys) -> tuple[int, int]:
    return len(set().union(*(g.terms for g in polys))), sum(len(g.terms) for g in polys)


class TestRender:
    """render(polys) writes [str(g) for g in polys] from one table of
    their distinct monomials."""

    def test_rationals(self):
        sources = ["1/2*x1^2 - x1*x2 + 3", "-x1^2 + 1/3*x2 - 1", "x1*x2_1 - 7/5", "-1", "x1", "-x2 + x1*x2", "5/2"]
        polys = [parse_poly(src, 2, Q) for src in sources]
        assert render(polys) == [str(g) for g in polys]
        assert render(polys)[:5] == ["1/2*x1^2-x1*x2+3", "-x1^2+1/3*x2-1", "x1*x2_1-7/5", "-1", "x1"]

    @given(st.data())
    def test_matches_str(self, data):
        spec = data.draw(st.sampled_from([Q, GF2, GF101, GF32003]))
        # few variables and low exponents, so the polynomials share monomials
        grid = jet_grid(data.draw(st.integers(1, 3)), data.draw(st.integers(0, 1)))
        coeffs = st.one_of(st.sampled_from([-1, 1, 0]), st.integers(-300, 300))
        if not spec.characteristic:
            coeffs = st.one_of(coeffs, st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7)))
        exps = st.tuples(*[st.integers(0, 2)] * len(grid))
        polys = [
            Polynomial(spec, {tuple((v.order, v.base, k) for v, k in zip(grid, e)): c for e, c in terms.items()})
            for terms in data.draw(st.lists(st.dictionaries(exps, coeffs, max_size=6), max_size=5))
        ]
        assert render(polys) == [str(g) for g in polys]

    def test_empty_list_and_zero(self):
        zero = Polynomial.zero(Q)
        assert render([]) == []
        assert render([zero]) == ["0"]
        assert render([zero, CUSP, zero]) == ["0", "x1^3-x2^2", "0"]

    @pytest.mark.parametrize("spec, k", [(GF101, 6), (GF101, 3), (Q, 2)])
    def test_minors_share_their_monomials(self, spec, k):
        f = parse_poly("3*x1^3 - 2*x2^2 + 5*x1*x2^2", 2, spec)
        polys = minors(jac_m([f], 3), k).values
        distinct, total = _distinct_monomials(polys)
        assert distinct < total / 2
        assert render(polys) == [str(g) for g in polys]

    def test_components_share_none(self):
        sextic = parse_poly("3*x1^5*x2^2 - 7*x2^4*x3^3 + 2*x1^2*x3^3 + 5*x3^6 - 11*x1*x2", 3, Q)
        polys = hs_components(sextic, 10)
        distinct, total = _distinct_monomials(polys)
        assert distinct == total
        assert render(polys) == [str(g) for g in polys]

    def test_a_coefficient_too_long_to_print(self):
        # a coefficient, or an exponent, one digit past what int() converts to text
        big = 10 ** sys.get_int_max_str_digits()
        long_exponent = Polynomial(Q, {((0, 1, big),): 1}, base_count=2)
        for polys in ([Polynomial.constant(Q, big)], [CUSP, CUSP * big], [CUSP, long_exponent]):
            with pytest.raises(CoefficientTooLong, match=r"^a coefficient or exponent has too many digits to print$"):
                render(polys)
