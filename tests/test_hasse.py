import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetjac import (
    FieldSpec,
    JetVariable,
    NotBasePolynomial,
    Point,
    Polynomial,
    TooManyTerms,
    check_commutation,
    hasse,
    hs_components,
    hs_values,
    jet_series,
    parse_poly,
)

from _corpus import GF2, GF3, GF5, Q, base_polynomials, corpus_params, poly_from_int_terms, random_base_polynomial
from _oracles import hs_components_leibniz

CUSP = parse_poly("x1^3 - x2^2", 2, Q)
GF7 = FieldSpec.prime_field(7)


def jp(src, s, spec=Q):
    """Parse a jet polynomial (jet variables allowed)."""
    return parse_poly(src, s, spec)


class TestSubstitutionRoute:
    def test_cusp_first_component(self):
        ex = hs_components(CUSP, 1)
        assert ex[0] == CUSP
        assert ex[1] == jp("3*x1^2*x1_1 - 2*x2*x2_1", 2)

    def test_square_second_component(self):
        ex = hs_components(parse_poly("x1^2", 1, Q), 2)
        assert ex[2] == jp("2*x1*x1_2 + x1_1^2", 1)

    def test_constants_die_in_positive_order(self):
        c = Polynomial.constant(Q, 7, 2)
        ex = hs_components(c, 3)
        assert ex[0] == c
        assert all(ex[k].is_zero for k in range(1, 4))

    def test_rejects_jet_input(self):
        g = jp("x1_1", 1)
        with pytest.raises(NotBasePolynomial):
            hs_components(g, 1)

    def test_component_orders_stay_bounded(self):
        rng = random.Random(23)
        for _ in range(20):
            s = rng.randint(1, 3)
            f = random_base_polynomial(rng, s, 4, 5, Q)
            ex = hs_components(f, 3)
            for k in range(4):
                assert ex[k].max_order <= k


class TestLeibnizRoute:
    def test_product_of_variables(self):
        f = parse_poly("x1*x2", 2, Q)
        ex = hs_components_leibniz(f, 1)
        assert ex[1] == jp("x1*x2_1 + x1_1*x2", 2)

    def test_additivity_on_linear_forms(self):
        f = parse_poly("x1 + x2", 2, Q)
        ex = hs_components_leibniz(f, 3)
        for k in range(4):
            expected = Polynomial.variable(Q, JetVariable(1, k)) + Polynomial.variable(
                Q, JetVariable(2, k)
            )
            assert ex[k] == expected

    def test_agrees_with_substitution_on_cusp(self):
        a = hs_components(CUSP, 3)
        b = hs_components_leibniz(CUSP, 3)
        assert all(x == y for x, y in zip(a, b))


class TestDualRouteAgreement:
    def test_seeded_corpus_all_fields(self):
        # exponents up to 9 reach p and exceed n, where multinomial
        # coefficients of the substitution route vanish mod p
        for s, n, terms in corpus_params(60, master_seed=101, max_deg=9):
            for spec in (Q, GF2, GF3, GF5, GF7):
                f = poly_from_int_terms(s, terms, spec)
                a = hs_components(f, n)
                b = hs_components_leibniz(f, n)
                assert all(x == y for x, y in zip(a, b)), (s, n, terms, str(spec))


class TestRationalCoefficients:
    """Over Q, hs_components expands D*f on integers and divides by D,
    keeping the integral coefficients as ints."""

    @staticmethod
    def assert_matches_leibniz(f, n):
        a = hs_components(f, n)
        b = hs_components_leibniz(f, n)
        assert list(a) == list(b)
        assert [(c.base_count, c.max_order) for c in a] == [(c.base_count, c.max_order) for c in b]
        assert all(
            type(c) is int or (type(c) is Fraction and c.denominator > 1)
            for comp in a
            for c in comp.terms.values()
        )

    def test_common_denominator_six(self):
        self.assert_matches_leibniz(parse_poly("1/2*x1^3 - 2/3*x2^2 + 5/6 + 7*x1*x2", 2, Q), 4)

    @given(st.data())
    def test_random_denominators(self, data):
        s = data.draw(st.integers(1, 3))
        self.assert_matches_leibniz(data.draw(base_polynomials(Q, s)), data.draw(st.integers(0, 3)))


def test_components_match_sympy_series():
    """Over Q, d_k(f) is the t^k coefficient of sympy.series of f(a(t)),
    a_i(t) = sum_j x_i^(j) t^j, on a seeded corpus with fractional
    coefficients; each side is read back from the canonical printer."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random("hs-vs-sympy")
    for s, n, terms in corpus_params(12, master_seed=211, max_deg=5):
        f = poly_from_int_terms(s, {e: Fraction(c, rng.randint(1, 6)) for e, c in terms.items()}, Q)
        arcs = {
            f"x{i}": sum(sympy.Symbol(f"x{i}_{j}" if j else f"x{i}") * t**j for j in range(n + 1))
            for i in range(1, s + 1)
        }
        f_of_arc = sympy.sympify(str(f).replace("^", "**")).subs(arcs, simultaneous=True)
        expansion = sympy.series(f_of_arc, t, 0, n + 1).removeO()
        for k, dk in enumerate(hs_components(f, n)):
            want = sympy.expand(expansion).coeff(t, k)
            assert sympy.expand(sympy.sympify(str(dk).replace("^", "**")) - want) == 0, (str(f), n, k)


class TestTaylorValuesOverQ:
    """hs_values over Q store an integral value as an int, as FieldSpec.raw
    and Polynomial arithmetic do."""

    def test_integral_values_are_ints(self):
        jet = Point.from_flat(["1/2", "1/2"], 1, 1, Q)
        got = hs_values(parse_poly("4*x1^2", 1), 1, jet_series(jet, Q, 1, 1), {})
        assert got == [1, 2]
        assert [type(v) for v in got] == [int, int]

    def test_seeded_corpus(self):
        rng = random.Random("taylor-ints")
        integral = 0
        for s, n, terms in corpus_params(30, master_seed=223):
            f = poly_from_int_terms(s, {e: Fraction(c, rng.choice((1, 2, 4))) for e, c in terms.items()}, Q)
            coords = [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(s * (n + 1))]
            jet = Point.from_flat(coords, s, n, Q)
            got = hs_values(f, n, jet_series(jet, Q, s, n), {})
            assert got == [d.evaluate(jet).value for d in hs_components(f, n)]
            assert all(type(v) is int or v.denominator > 1 for v in got)
            integral += sum(type(v) is int for v in got)
        assert integral


def _series_product(a, b, n, p):
    # a(t) b(t) truncated after t^n, each coefficient summed on its own
    out = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]
    return [c % p for c in out] if p else out


def _pow_by_products(a, e, n, p):
    out = [1] + [0] * n
    for _ in range(e):
        out = _series_product(out, a, n, p)
    return out


def _random_series(rng, p, n, a0_is_zero=False):
    if p:
        a = [rng.randrange(p) for _ in range(n + 1)]
    else:
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)]
    a[0] = 0 if a0_is_zero else a[0] or 1
    return a


class TestSeriesPower:
    """The series kernel's powers a(t)^e, the series of x1^e at a(t),
    against e repeated products, for e = 0..3n, with zero and nonzero
    constant terms a_0 (so e > n with a_0 = 0 too) and with series that
    end after t^1, over Q with Fraction coefficients and over GF(p).
    The cache keeps each power it builds under (0, 1, e)."""

    N = 3

    @pytest.mark.parametrize("p", [0, 2, 3, 101, 32003])
    def test_raw_scalars(self, p):
        spec = FieldSpec.prime_field(p) if p else Q
        rng = random.Random(41 + p)
        n = self.N
        for a0_is_zero, ends_early in itertools.product((False, True), repeat=2):
            for _ in range(4):
                a = _random_series(rng, p, n, a0_is_zero)
                if ends_early:
                    a[2:] = [0] * (n - 1)
                cache = {}
                for e in range(3 * n + 1):
                    want = _pow_by_products(a, e, n, p)
                    assert hasse._substituted(parse_poly(f"x1^{e}", 1, spec), n, {1: a}, cache, p) == want, (a, e)
                    if (0, 1, e) in cache:
                        assert cache[0, 1, e][: n + 1] == want, (a, e)

    @pytest.mark.parametrize("p", [0, 2, 3, 32003])
    def test_a_cache_grown_order_by_order_matches_one_batch_call(self, p):
        """The lift's use of the kernel: at order k every series gains a
        coefficient, one of them first as a 0 placeholder; the kernel reads
        coefficient k, the placeholder is set, and every cached list is cut
        back to k coefficients.  The coefficients read, the final series
        and the cached lists equal those of one call on the whole jet."""
        spec = FieldSpec.prime_field(p) if p else Q
        rng = random.Random(47 + p)
        for _ in range(12):
            s, n = rng.randint(1, 3), rng.randint(0, 6)
            f = random_base_polynomial(rng, s, 4, 5, spec) + Polynomial.constant(spec, rng.randint(1, 5), s)
            jet = {i: _random_series(rng, p, n, rng.random() < 0.3) for i in range(1, s + 1)}
            for a in jet.values():
                end = rng.randint(1, n + 1)  # some series end early
                a[end:] = [0] * (n + 1 - end)
            batch: dict = {}
            want = hasse._substituted(f, n, jet, batch, p)
            series = {i: [a[0]] for i, a in jet.items()}
            cache: dict = {}
            read = hasse._substituted(f, 0, series, cache, p)
            for k in range(1, n + 1):
                target = rng.randint(1, s)
                for i in series:
                    series[i].append(0 if i == target else jet[i][k])
                hasse._substituted(f, k, series, cache, p)
                series[target][k] = jet[target][k]
                for grown in cache.values():
                    del grown[k:]
                read.append(hasse._substituted(f, k, series, cache, p)[k])
            assert read == want, (str(f), n)
            assert hasse._substituted(f, n, series, cache, p) == want
            assert {key: grown[: n + 1] for key, grown in cache.items()} == batch


class TestDerivationAxioms:
    def test_additivity_and_convolution_product(self):
        rng = random.Random(29)
        for _ in range(25):
            s = rng.randint(1, 2)
            n = rng.randint(0, 3)
            f = random_base_polynomial(rng, s, 3, 4, Q)
            g = random_base_polynomial(rng, s, 3, 4, Q)
            ef = hs_components(f, n)
            eg = hs_components(g, n)
            esum = hs_components(f + g, n)
            eprod = hs_components(f * g, n)
            for i in range(n + 1):
                assert esum[i] == ef[i] + eg[i]
                conv = Polynomial.zero(Q)
                for j in range(i + 1):
                    conv = conv + ef[j] * eg[i - j]
                assert eprod[i] == conv

    def test_monomial_expansion_is_composition_sum(self):
        # d_k(x^i) = sum over (j_1, ..., j_i) with j_1+...+j_i = k of
        # x^(j_1) ... x^(j_i), by direct enumeration; over GF(3) the
        # exponents 3 and 4 reach p
        for spec, i in itertools.product((Q, GF3), range(1, 5)):
            f = parse_poly(f"x1^{i}", 1, spec)
            ex = hs_components(f, 3)
            for k in range(4):
                expected = Polynomial.zero(spec)
                for parts in itertools.product(range(k + 1), repeat=i):
                    if sum(parts) != k:
                        continue
                    term = Polynomial.constant(spec, 1)
                    for j in parts:
                        term = term * Polynomial.variable(spec, JetVariable(1, j))
                    expected = expected + term
                assert ex[k] == expected, (str(spec), i, k)

    @pytest.mark.parametrize("spec", [Q, GF7], ids=str)
    def test_huge_exponent_is_composition_sum(self, spec):
        # in the composition sum for d_k(x^e), the r parts j_l > 0 sit at
        # one of C(e, r) sets of positions and, read in order, are a
        # composition of k; the other e - r factors are x^(0)
        e, n = 10**5, 4
        ex = hs_components(parse_poly(f"x1^{e}", 1, spec), n)

        def x(j):
            return Polynomial.variable(spec, JetVariable(1, j))

        for k in range(n + 1):
            expected = Polynomial.zero(spec)
            for r in range(k + 1):
                for parts in itertools.product(range(1, k + 1), repeat=r):
                    if sum(parts) != k:
                        continue
                    term = Polynomial.constant(spec, math.comb(e, r)) * x(0) ** (e - r)
                    for j in parts:
                        term = term * x(j)
                    expected = expected + term
            assert ex[k] == expected, k


class TestTermCap:
    """hs_components raises TooManyTerms once d_0(f), ..., d_n(f) would
    have more than TERM_CAP terms together, and answers at the cap."""

    # one power alone, where the power's expansion passes the cap; and
    # products of powers, where the count of the products passes it
    @pytest.mark.parametrize("src", ["x1^6", "-3/2*x1^5*x2^2 + 4*x2^4*x3^3 + 2*x3^6 - x1*x2"])
    def test_cap_is_the_largest_count_allowed(self, monkeypatch, src):
        f = parse_poly(src, 3, Q)
        total = sum(len(c.terms) for c in hs_components(f, 10))
        monkeypatch.setattr(hasse, "TERM_CAP", total)
        assert sum(len(c.terms) for c in hs_components(f, 10)) == total
        monkeypatch.setattr(hasse, "TERM_CAP", total - 1)
        with pytest.raises(TooManyTerms):
            hs_components(f, 10)

    def test_one_variable_terms_count_each_weight_once(self, monkeypatch):
        # d_0 .. d_1000 of x1 + x2 hold 2 * 1001 terms; each monomial's
        # count is its power's bucket lengths, with nothing to convolve
        f = parse_poly("x1 + x2", 2, Q)
        monkeypatch.setattr(hasse, "TERM_CAP", 2002)
        assert sum(len(c.terms) for c in hs_components(f, 1000)) == 2002
        monkeypatch.setattr(hasse, "TERM_CAP", 2001)
        with pytest.raises(TooManyTerms) as err:
            hs_components(f, 1000)
        assert err.value.count == 2002

    def test_counts_before_building(self):
        # the exact count of 778280 terms is known before any is formed
        f = parse_poly("x1^7*x2^7*x3^7*x4^7", 4, Q)
        with pytest.raises(TooManyTerms) as err:
            hs_components(f, 16)
        assert err.value.count == 778280


class TestSparseComponents:
    def test_a_high_index_variable_costs_one_key_triple(self):
        f = parse_poly("x100000", 100000, Q)
        ex = hs_components(f, 1)
        assert [str(c) for c in ex] == ["x100000", "x100000_1"]
        assert ex[1].terms == {((1, 100000, 1),): 1}
        assert (ex[1].base_count, ex[1].max_order) == (100000, 1)


class TestJetPartial:
    def test_examples(self):
        g = jp("3*x1^2*x1_1", 1)
        assert g.partial(JetVariable(1, 1)) == jp("3*x1^2", 1)
        d1 = hs_components(CUSP, 1)[1]
        assert d1.partial(JetVariable(2, 1)) == jp("-2*x2", 2)

    def test_vanishes_above_component_order(self):
        rng = random.Random(31)
        for _ in range(15):
            s = rng.randint(1, 2)
            f = random_base_polynomial(rng, s, 4, 4, Q)
            ex = hs_components(f, 3)
            for k in range(4):
                for order in range(k + 1, 4):
                    for i in range(1, s + 1):
                        assert ex[k].partial(JetVariable(i, order)).is_zero


class TestCommutation:
    def test_cusp(self):
        assert check_commutation(CUSP, 2).ok

    def test_univariate_monomials(self):
        for i in range(1, 5):
            report = check_commutation(parse_poly(f"x1^{i}", 1, Q), 3)
            assert report.ok

    def test_constant_vacuous(self):
        report = check_commutation(Polynomial.constant(Q, 3, 1), 2)
        assert report.ok

    def test_seeded_corpus_all_fields(self):
        for s, n, terms in corpus_params(60, master_seed=202):
            for spec in (Q, GF2, GF5):
                f = poly_from_int_terms(s, terms, spec)
                report = check_commutation(f, n)
                assert report.ok, (s, n, terms, str(spec), report)

    def test_case_count(self):
        # s * number of pairs 0 <= j <= k <= n
        report = check_commutation(CUSP, 2)
        assert report.cases_checked == 2 * 6
