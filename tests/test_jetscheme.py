import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetjac import (
    BadCoordinate,
    ConstantPolynomial,
    DnMatrix,
    FieldSpec,
    JetVariable,
    MissingCoordinate,
    MixedFields,
    NobileCertificate,
    NoSmoothPointFound,
    NotBasePoint,
    NotBasePolynomial,
    NotSingularBase,
    Point,
    PointNotOnScheme,
    Polynomial,
    RankTooLong,
    at_point,
    dn_matrix,
    eval_matrix,
    extend_to_jet,
    find_smooth_point,
    generic_cokernel_rank,
    higher_rank_test,
    hs_components,
    hs_values,
    index_families,
    jac_m,
    jet_grid,
    jet_equations,
    jet_jacobian,
    jet_series,
    nobile_certificate,
    on_jet_scheme,
    parse_poly,
    presentation_of,
    rank,
    rank_at,
    rank_counterexample_check,
    zero_jet_over,
)

from jetjac import jacobian, jetmatrix, jetscheme, linalg
from jetjac.jacobian import exponent_vectors, taylor_coefficients
from jetjac.linalg import SAMPLE_RANGE, random_point, trial_rng

from _corpus import GF2, GF3, GF5, GF32003, ORACLE_FIELDS, Q, base_polynomials, jets
from _oracles import multiplicity, nobile_certificate_by_matrix

CUSP = parse_poly("x1^3 - x2^2", 2, Q)
GF101 = FieldSpec.prime_field(101)
ORIGIN = Point.from_base([0, 0], Q)


def cusp_point(*values, n):
    return Point.from_flat(list(values), 2, n, Q)


class TestJetEquations:
    def test_cusp_n1(self):
        desc = jet_equations(CUSP, 1)
        expected = hs_components(CUSP, 1)
        assert desc.equations == expected.components
        assert desc.equations[1] == parse_poly("3*x1^2*x1_1 - 2*x2*x2_1", 2, Q)
        assert (desc.s, desc.n) == (2, 1)

    def test_n0_is_the_hypersurface(self):
        desc = jet_equations(CUSP, 0)
        assert desc.equations == (CUSP,)

    def test_hyperplane_gives_linear_space(self):
        desc = jet_equations(parse_poly("x1", 1, Q), 2)
        assert list(desc.equations) == [
            Polynomial.variable(Q, JetVariable(1, k)) for k in range(3)
        ]

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomial):
            jet_equations(Polynomial.constant(Q, 1, 1), 1)

    def test_jet_variables_rejected(self):
        with pytest.raises(NotBasePolynomial):
            jet_equations(parse_poly("x1*x1_1", 1, Q), 1)


class TestOnJetScheme:
    def test_zero_jet_over_singular_point(self):
        desc = jet_equations(CUSP, 1)
        assert on_jet_scheme(desc, cusp_point(0, 0, 0, 0, n=1))

    def test_tangent_jet(self):
        desc = jet_equations(CUSP, 1)
        assert on_jet_scheme(desc, cusp_point(1, 1, 2, 3, n=1))

    def test_non_tangent_jet(self):
        desc = jet_equations(CUSP, 1)
        assert not on_jet_scheme(desc, cusp_point(1, 1, 1, 1, n=1))

    def test_coverage_required(self):
        desc = jet_equations(CUSP, 1)
        with pytest.raises(MissingCoordinate):
            on_jet_scheme(desc, ORIGIN)


@st.composite
def jets_over_the_hypersurface(draw):
    """(f, n, point): f is shifted by a constant so that the base of the
    drawn jet lies on V(f); half of the jets are zero jets, which lie on
    the jet scheme."""
    spec = draw(st.sampled_from(ORACLE_FIELDS))
    s = draw(st.integers(1, 3))
    n = draw(st.integers(0, 5))
    point = draw(jets(spec, s, n))
    g = draw(base_polynomials(spec, s))
    base = Point(spec, {JetVariable(i, 0): point[JetVariable(i, 0)] for i in range(1, s + 1)})
    f = g - g.evaluate(base)
    assume(not f.is_constant)
    return f, n, point


class TestSeriesMembership:
    @settings(max_examples=150)
    @given(jets_over_the_hypersurface())
    def test_series_values_match_the_symbolic_equations(self, case):
        f, n, point = case
        want = [c.evaluate(point).value for c in hs_components(f, n)]
        got = hs_values(f, n, jet_series(point, f.spec, f.base_count, n), {})
        assert got == want
        assert on_jet_scheme(jet_equations(f, n), point) == (not any(want))

    def test_mixed_fields_rejected(self):
        with pytest.raises(MixedFields):
            on_jet_scheme(jet_equations(CUSP, 1), Point.from_flat([0] * 4, 2, 1, GF5))

    def test_equations_are_built_when_read(self):
        desc = jet_equations(CUSP, 2)
        assert "equations" not in vars(desc)
        assert desc.equations == hs_components(CUSP, 2).components


def classical_rank_oracle(f: Polynomial, n: int, point: Point) -> int:
    """Rank of the symbolic Jacobian of (d_0 f, ..., d_n f), evaluated
    entry by entry at the point."""
    return rank(eval_matrix(jet_jacobian([f], n), point))


@st.composite
def jets_on_the_scheme(draw):
    """(f, n, jet) with the jet on the order-n jet scheme of V(f): the
    drawn jet when it lies there, else a seeded lift of its base point,
    else the zero jet over that base point."""
    f, n, point = draw(jets_over_the_hypersurface())
    if not on_jet_scheme(jet_equations(f, n), point):
        base = Point(f.spec, {v: c for v, c in point.coords.items() if v.order == 0})
        try:
            point = extend_to_jet(f, base, n, seed=draw(st.integers(0, 99)))
        except PointNotOnScheme:
            point = zero_jet_over(base, n)
    return f, n, point


class TestClassicalRankTest:
    """higher_rank_test at m = 1, the classical criterion: the Jacobian of
    (f, d_1 f, ..., d_n f) has full rank n + 1."""

    @settings(max_examples=150)
    @given(jets_on_the_scheme())
    def test_matches_the_symbolic_jet_jacobian(self, case):
        f, n, point = case
        report = higher_rank_test(jet_equations(f, n), point, 1)
        assert report.rank == classical_rank_oracle(f, n, point)
        assert report.bound == n + 1
        assert report.full == (report.rank == n + 1)

    def test_zero_jet_is_singular(self):
        desc = jet_equations(CUSP, 2)
        report = higher_rank_test(desc, zero_jet_over(ORIGIN, 2), 1)
        assert (report.rank, report.bound, report.full) == (0, 3, False)

    def test_smooth_jet(self):
        desc = jet_equations(CUSP, 1)
        report = higher_rank_test(desc, cusp_point(1, 1, 2, 3, n=1), 1)
        assert (report.rank, report.full) == (2, True)

    def test_hyperplane_always_full(self):
        f = parse_poly("x1", 1, Q)
        for n in (0, 1, 2):
            desc = jet_equations(f, n)
            point = Point.from_flat([0] * (n + 1), 1, n, Q)
            report = higher_rank_test(desc, point, 1)
            assert report.full and report.rank == n + 1

    def test_rejects_points_off_the_scheme(self):
        desc = jet_equations(CUSP, 1)
        with pytest.raises(PointNotOnScheme):
            higher_rank_test(desc, cusp_point(1, 1, 1, 1, n=1), 1)


class TestHigherRankTest:
    def test_m1_zero_jet(self):
        desc = jet_equations(CUSP, 1)
        report = higher_rank_test(desc, cusp_point(0, 0, 0, 0, n=1), 1)
        assert (report.rank, report.bound, report.full) == (0, 2, False)

    def test_m2_smooth_jet(self):
        desc = jet_equations(CUSP, 1)
        report = higher_rank_test(desc, cusp_point(1, 1, 2, 3, n=1), 2)
        assert (report.rank, report.bound, report.full) == (6, 6, True)

    def test_m2_zero_jet_deficient(self):
        desc = jet_equations(CUSP, 1)
        report = higher_rank_test(desc, cusp_point(0, 0, 0, 0, n=1), 2)
        assert report.rank < 6 and not report.full

    def test_rank_never_exceeds_bound(self):
        desc = jet_equations(CUSP, 2)
        jet = extend_to_jet(CUSP, Point.from_base([1, 1], Q), 2, seed=5)
        for m in (1, 2, 3):
            report = higher_rank_test(desc, jet, m)
            assert report.rank <= report.bound

    def test_validates_membership_and_m(self):
        desc = jet_equations(CUSP, 1)
        with pytest.raises(PointNotOnScheme):
            higher_rank_test(desc, cusp_point(1, 1, 1, 1, n=1), 2)
        with pytest.raises(ValueError):
            higher_rank_test(desc, cusp_point(0, 0, 0, 0, n=1), 0)


class TestPresentation:
    def test_order2_differentials_of_the_cusp(self):
        pres = presentation_of(CUSP, 0, 2)
        assert (pres.gens, pres.rels) == (5, 3)
        assert pres.matrix == jac_m([CUSP], 2)
        assert pres.module_label == "OmegaM"

    def test_tensor_shapes(self):
        assert (presentation_of(CUSP, 1, 1).gens, presentation_of(CUSP, 1, 1).rels) == (4, 2)
        assert (presentation_of(CUSP, 1, 2).gens, presentation_of(CUSP, 1, 2).rels) == (10, 6)

    def test_labels(self):
        assert presentation_of(CUSP, 0, 1).module_label == "Omega1"
        assert presentation_of(CUSP, 2, 1).module_label == "Omega1_tensor_Bn"
        assert presentation_of(CUSP, 2, 3).module_label == "OmegaM_tensor_Bn"

    def test_matrix_shape_matches_counts(self):
        pres = presentation_of(CUSP, 2, 2)
        assert (pres.matrix.rows, pres.matrix.cols) == (pres.rels, pres.gens)


class TestSmoothSampling:
    def test_find_smooth_point_on_the_cusp(self):
        point = find_smooth_point(CUSP, seed=0)
        assert CUSP.evaluate(point).is_zero
        grads = [CUSP.partial(JetVariable(i, 0)).evaluate(point) for i in (1, 2)]
        assert any(not g.is_zero for g in grads)

    def test_find_smooth_point_mod_p(self):
        f = parse_poly("x1^3 - x2^2", 2, GF5)
        point = find_smooth_point(f, seed=1)
        assert f.evaluate(point).is_zero

    def test_degenerate_equation_fails(self, monkeypatch):
        # x^2 over GF(2) is a square: V(f) = {0} and the derivative vanishes
        f = parse_poly("x1^2", 1, GF2)
        monkeypatch.setattr(jetscheme, "SMOOTH_POINT_ATTEMPTS", 30)
        with pytest.raises(NoSmoothPointFound):
            find_smooth_point(f, seed=0)

    def test_extend_to_jet_stays_on_scheme(self):
        for n in (0, 1, 2, 3):
            desc = jet_equations(CUSP, n)
            jet = extend_to_jet(CUSP, Point.from_base([1, 1], Q), n, seed=n)
            assert on_jet_scheme(desc, jet)

    def test_extend_to_jet_respects_given_coordinates(self):
        partial = {
            JetVariable(1, 0): Q.element(1),
            JetVariable(2, 0): Q.element(1),
            JetVariable(1, 1): Q.element(2),
            JetVariable(2, 1): Q.element(3),
        }
        jet = extend_to_jet(CUSP, partial, 2, seed=0)
        assert jet[JetVariable(1, 1)] == 2
        assert jet[JetVariable(2, 1)] == 3
        assert on_jet_scheme(jet_equations(CUSP, 2), jet)

    def test_extend_to_jet_rejects_inconsistent_coordinates(self):
        partial = {
            JetVariable(1, 0): Q.element(1),
            JetVariable(2, 0): Q.element(1),
            JetVariable(1, 1): Q.element(1),
            JetVariable(2, 1): Q.element(1),
        }
        with pytest.raises(PointNotOnScheme):
            extend_to_jet(CUSP, partial, 1)

    def test_extend_to_jet_checks_n_before_the_base(self):
        # (1, 2) is off the cusp, but n is the first fault
        with pytest.raises(ValueError, match=r"^n must be >= 0$"):
            extend_to_jet(CUSP, Point.from_base([1, 2], Q), -1)

    def test_extend_to_jet_deterministic(self):
        a = extend_to_jet(CUSP, Point.from_base([4, 8], Q), 3, seed=9)
        b = extend_to_jet(CUSP, Point.from_base([4, 8], Q), 3, seed=9)
        assert a == b

    def test_zero_jet_over(self):
        jet = zero_jet_over(ORIGIN, 2)
        assert jet[JetVariable(1, 2)] == 0
        assert on_jet_scheme(jet_equations(CUSP, 2), jet)

    def test_zero_jet_over_refuses_a_jet(self):
        with pytest.raises(NotBasePoint, match=r"^expected a base point \(order-0 coordinates only\)$"):
            zero_jet_over(cusp_point(0, 0, 0, 0, n=1), 2)

    def test_zero_jet_over_refuses_an_empty_point(self):
        with pytest.raises(NotBasePoint, match=r"^expected a base point with at least one coordinate$"):
            zero_jet_over(Point(Q, {}), 1)

    def test_extend_to_jet_refuses_a_point_over_another_field(self):
        # (1, 1) lies on the cusp over every field; GF(5) residues are no Q jet
        with pytest.raises(MixedFields, match=r"^point over Fp:5, polynomial over Q$"):
            extend_to_jet(CUSP, Point.from_base([1, 1], FieldSpec.prime_field(5)), 1)
        with pytest.raises(MixedFields):
            extend_to_jet(parse_poly("x1^3 - x2^2", 2, GF101), Point.from_base([1, 1], Q), 1)


def is_canonical_raw(spec: FieldSpec, x) -> bool:
    """Whether x is stored as FieldSpec.raw stores a value: a residue int
    over GF(p); over Q an int when integral, else a Fraction."""
    if spec.characteristic:
        return type(x) is int and 0 <= x < spec.characteristic
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


class TestPointValues:
    """A Point stores raw scalars under (order, base), the pairs of the
    monomial key triples; its accessors build field elements from them."""

    def check(self, point: Point):
        values = point.values
        assert values and all(is_canonical_raw(point.spec, x) for x in values.values())
        variables = [JetVariable(base, order) for order, base in values]
        for v in variables:
            assert point[v].spec == point.spec and point[v].value == values[v.order, v.base]
        assert point.coords == {v: point[v] for v in variables}
        assert point == Point(point.spec, point.coords)
        assert str(point) == "(" + ", ".join(f"{v.name}={point[v]}" for v in sorted(variables)) + ")"

    def test_constructors_store_canonical_raw_values(self):
        X1, X2 = JetVariable(1, 0), JetVariable(2, 0)
        point = Point(Q, {X1: Fraction(4, 2), X2: Q.element(Fraction(1, 3)), JetVariable(1, 1): "-6/3"})
        assert point.values == {(0, 1): 2, (0, 2): Fraction(1, 3), (1, 1): -2}
        assert [type(x) for x in point.values.values()] == [int, Fraction, int]
        assert Point(GF5, {X1: -1, X2: Fraction(1, 2)}).values == {(0, 1): 4, (0, 2): 3}
        flat = Point.from_flat([Fraction(6, 3), "-1/2", 7, "0"], 2, 1, Q)
        assert flat.values == {(0, 1): 2, (0, 2): Fraction(-1, 2), (1, 1): 7, (1, 2): 0}
        points = [point, flat, Point.from_flat(["1/2", -3, 5, 200], 2, 1, GF101), Point.from_base([-1, 9], GF5)]
        for spec in (Q, GF101):
            points.append(random_point(spec, jet_grid(2, 2), trial_rng(3, 0)))
            f = parse_poly("x1^3 - x2^2 + 1/2*x1*x2", 2, spec)
            for seed in range(4):
                base = find_smooth_point(f, seed=seed)
                points += [base, zero_jet_over(base, 2), extend_to_jet(f, base, 3, seed=seed)]
        points.append(zero_jet_over(Point.from_base([Fraction(2, 2), "1/2"], Q), 1))
        for p in points:
            self.check(p)

    def test_coordinates_are_checked_at_construction(self):
        X1, X2 = JetVariable(1, 0), JetVariable(2, 0)
        with pytest.raises(BadCoordinate):
            Point(Q, {X1: 0.5, X2: 1})
        with pytest.raises(MixedFields):
            Point(Q, {X1: GF5.element(3), X2: 1})

    @pytest.mark.parametrize("spec", [Q, GF101], ids=str)
    def test_evaluation_builds_no_jet_variable(self, spec, monkeypatch):
        f = parse_poly("x1^3 - x2^2 + x1*x2*x3 + x3^4", 3, spec)
        desc, D = jet_equations(f, 2), DnMatrix(jac_m([f], 2), 2)
        jets = [
            zero_jet_over(Point.from_base([0, 0, 0], spec), 2),
            Point.from_flat([1, 1, 0] + [0] * 6, 3, 2, spec),
            Point.from_flat([0, 0, 0, 1, 2, 3, 4, 5, 6], 3, 2, spec),  # the dense fallback of rank_at
        ]
        built = []
        post_init = JetVariable.__post_init__
        monkeypatch.setattr(JetVariable, "__post_init__", lambda v: (built.append(v), post_init(v)))
        for jet in jets:
            eval_matrix(D.L, jet)
            on_jet_scheme(desc, jet)
            rank_at(D, jet)
            f.evaluate(jet)
        assert built == []


# The jet lifting before Taylor mode, kept verbatim as the oracle.
def extend_to_jet_oracle(f: Polynomial, base, n: int, seed=0, fill=None) -> Point:
    """Extend coordinates over a smooth base point to a jet on the scheme.

    `base` is a Point (or coordinate mapping) that must assign all base
    variables; it may also fix some higher-order coordinates.  At each
    order k the missing coordinates are filled with seeded random values
    except one at a nonzero gradient position, which is solved from the
    order-k equation (the equation is affine in the order-k coordinates
    with the first partials of f as coefficients).
    """
    spec = f.spec
    p = spec.characteristic
    coords = dict(base.coords) if isinstance(base, Point) else dict(base)
    s = f.base_count
    for i in range(1, s + 1):
        if JetVariable(i, 0) not in coords:
            raise MissingCoordinate(f"base coordinate x{i} is not assigned")
    base_point = Point(spec, {JetVariable(i, 0): coords[JetVariable(i, 0)] for i in range(1, s + 1)})
    if not f.evaluate(base_point).is_zero:
        raise PointNotOnScheme("the base point is not on the hypersurface")
    grad = {
        i: f.partial(JetVariable(i, 0)).evaluate(base_point) for i in range(1, s + 1)
    }
    if fill is None:
        rng = trial_rng(seed, n, "jet-fill")

        def fill(i, k):
            if p:
                return spec.element(rng.randrange(p))
            return spec.element(rng.randint(-SAMPLE_RANGE, SAMPLE_RANGE))

    expansion = hs_components(f, n)
    for k in range(1, n + 1):
        unknown = [i for i in range(1, s + 1) if JetVariable(i, k) not in coords]
        solvable = [i for i in unknown if not grad[i].is_zero]
        if unknown and solvable:
            solve_i = solvable[0]
            for i in unknown:
                if i != solve_i:
                    coords[JetVariable(i, k)] = spec.element(fill(i, k))
            coords[JetVariable(solve_i, k)] = spec.zero
            offset = expansion[k].evaluate(Point(spec, coords))
            coords[JetVariable(solve_i, k)] = -offset / grad[solve_i]
        else:
            for i in unknown:
                coords[JetVariable(i, k)] = spec.element(fill(i, k))
            if not expansion[k].evaluate(Point(spec, coords)).is_zero:
                raise PointNotOnScheme(
                    f"the order-{k} coordinates violate the jet equation"
                )
    return Point(spec, coords)


@st.composite
def lifting_cases(draw):
    """(f, base coordinates, n, seed): the base lies on V(f), and may be
    singular; some coordinates of positive order may be given."""
    f, n, point = draw(jets_over_the_hypersurface())
    s = f.base_count
    coords = {JetVariable(i, 0): point[JetVariable(i, 0)] for i in range(1, s + 1)}
    for j in range(1, n + 1):
        for i in range(1, s + 1):
            if draw(st.integers(0, 3)) == 0:
                coords[JetVariable(i, j)] = point[JetVariable(i, j)]
    return f, coords, n, draw(st.integers(0, 10**6))


def lifted(extend, f, coords, n, seed):
    try:
        return extend(f, dict(coords), n, seed=seed)
    except PointNotOnScheme:
        return PointNotOnScheme


class TestExtendToJetOracle:
    @settings(max_examples=150)
    @given(lifting_cases())
    def test_matches_the_symbolic_lifting(self, case):
        f, coords, n, seed = case
        got = lifted(extend_to_jet, f, coords, n, seed)
        assert got == lifted(extend_to_jet_oracle, f, coords, n, seed)
        if got is not PointNotOnScheme:
            assert on_jet_scheme(jet_equations(f, n), got)

    def test_smooth_points_of_the_benchmark_cusp(self):
        for spec in (Q, GF5, FieldSpec.prime_field(101)):
            f = parse_poly("x1^3 - x2^2", 2, spec)
            for t in range(5):
                base = find_smooth_point(f, seed=f"0:{t}")
                assert extend_to_jet(f, base, 3, seed=t) == extend_to_jet_oracle(f, base, 3, seed=t)


class TestMultiplicityFixesTheRank:
    """At a point a of V(f) with multiplicity mu (the oracle reads it off
    the divided partials at a, with no matrix), Jac_m f(a) has rank
    C(m - mu + s, s), which is 0 when mu > m: its row space is the ideal
    of f(a + y) in k[y]/(y)^(m+1).  At the zero jet over a, D_n(Jac_m f)
    is n + 1 copies of that block.  Checked at the origin, a singular
    point of each surface (mu = 2), and at smooth points (mu = 1),
    among them the 20 base points of a default certificate (seeds "0:t"),
    whose full rank M generic_cokernel_rank reads off a nonzero partial."""

    SOURCES = ["x1^3 - x2^2 + x1*x2*x3 + x3^4", "x1^2 + x2^3 + x3^4", "x1^3 - x2^2"]
    SEEDS = ["mu:0", "mu:1"] + [f"0:{t}" for t in range(20)]
    # the cusp moved to (1, 0); mod 3 it is x1^3 - 1 - x2^2, whose Taylor
    # coefficients C(3, 1) and C(3, 2) at x1 = 1 vanish
    MOVED_CUSP = "x1^3 - 3*x1^2 + 3*x1 - 1 - x2^2"
    N = 2

    @pytest.mark.parametrize("spec", [Q, GF2, GF3, GF5, GF101, GF32003], ids=str)
    @pytest.mark.parametrize("source", SOURCES)
    def test_rank_at_the_origin_and_at_smooth_points(self, source, spec):
        f = parse_poly(source, 3 if "x3" in source else 2, spec)
        s = f.base_count
        points = [Point.from_base([0] * s, spec)]
        for seed in self.SEEDS:
            try:
                points.append(find_smooth_point(f, seed=seed))
            except NoSmoothPointFound:
                # over Q the E_6 surface has few rational points off its axes
                assert (source, spec, seed) == ("x1^2 + x2^3 + x3^4", Q, "0:14")
        mus = [multiplicity(f, a) for a in points]
        assert mus == [2] + [1] * (len(points) - 1)
        for m in range(1, 6):
            L = jac_m([f], m)
            for a, mu in zip(points, mus):
                want = math.comb(m - mu + s, s) if mu <= m else 0
                assert rank(eval_matrix(L, a)) == want, (source, str(spec), m, str(a))
                assert rank_at(DnMatrix(L, self.N), zero_jet_over(a, self.N)) == (self.N + 1) * want

    @pytest.mark.parametrize("spec", [Q, GF2, GF3, GF5, GF101, GF32003], ids=str)
    def test_the_taylor_pass_reads_the_divided_partials(self, spec):
        # every order of f(a + y) up to one past mu, at points on and off V(f)
        rng = random.Random(f"taylor:{spec}")
        for source in self.SOURCES + [self.MOVED_CUSP]:
            s = 3 if "x3" in source else 2
            f = parse_poly(source, s, spec)
            points = [Point.from_base([0] * s, spec), Point.from_base([1] + [0] * (s - 1), spec)]
            points += [find_smooth_point(f, seed=f"0:{t}") for t in range(3)]
            points += [Point.from_base([rng.randint(-9, 9) for _ in range(s)], spec) for _ in range(3)]
            for a in points:
                taylor = taylor_coefficients(f, a.values, s, f.degree())
                mu = min(map(sum, taylor))
                assert mu == multiplicity(f, a), (source, str(spec), str(a))
                for m in range(mu + 2):
                    want = {}
                    for delta in (delta for d in range(m + 1) for delta in exponent_vectors(d, s)):
                        value = f.divided_partial(delta).evaluate(a).value
                        if value:
                            want[delta] = value
                    assert taylor_coefficients(f, a.values, s, m) == want, (source, str(spec), str(a), m)


class TestCertificateOracle:
    """nobile_certificate reads fact (ii) off the multiplicity and each
    sample off a nonzero partial; the oracle ranks D_n(Jac_m f) at the
    zero jet and the base block at every sampled base.  Every field of
    the two certificates agrees, and so does every error they end in."""

    # (source, base, n, m)
    EXTRA = [
        ("x1^2 - x2^4", (0, 0), 1, 1),  # mu = 2 > m = 1: rank 0 at the zero jet
        ("x1^2 - x2^4", (0, 0), 2, 2),
        ("x1^3 + x2^4", (0, 0), 1, 2),  # mu = 3 > m; over GF(3), d_1 f = 3 x1^2 vanishes
        ("x1^3 + x2^4", (0, 0), 1, 3),
        (TestMultiplicityFixesTheRank.MOVED_CUSP, (1, 0), 1, 2),
        (TestMultiplicityFixesTheRank.MOVED_CUSP, (1, 0), 2, 3),
        ("x1^5 - x2^7 + x1^2*x2^3", (0, 0), 1, 4),
        ("x1^3 + x2^5", (0, 0), 2, 2),  # E_8: mu = 3
        ("x1^3 + x2^5", (0, 0), 1, 5),
        ("x1^3 - x2^2", (1, 1), 1, 2),  # a smooth base
        ("x1^3 - x2^2", (1, 2), 1, 2),  # a base off the hypersurface
    ]

    @staticmethod
    def outcome(build, *args):
        try:
            return build(*args)
        except (NotSingularBase, NoSmoothPointFound) as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("spec", [Q, GF2, GF3, GF5, GF101, GF32003], ids=str)
    def test_every_field_matches_the_matrix_path(self, spec):
        cases = [
            (pres.f, pres.n, pres.m, Point.from_base([0] * pres.f.base_count, spec), seed)
            for pres, seed in TestGenericCokernelRank.corpus(spec)
        ]
        for k, (source, base, n, m) in enumerate(self.EXTRA):
            cases.append((parse_poly(source, 2, spec), n, m, Point.from_base(list(base), spec), k))
        certified = 0
        for f, n, m, base, seed in cases:
            got = self.outcome(nobile_certificate, f, n, m, base, 5, seed)
            want = self.outcome(nobile_certificate_by_matrix, f, n, m, base, 5, seed)
            assert got == want, (str(f), str(spec), n, m, str(base), seed)
            certified += isinstance(got, NobileCertificate) and got.all_facts_hold
        # all but the two refused bases and, over GF(2) and GF(3), the curves
        # whose points there are all singular: x1^2 - x2^4 = (x1 - x2^2)^2
        # mod 2, and x1^5 - x2^7 + x1^2*x2^3, whose one point is the origin
        assert certified >= len(cases) - 5


class TestGenericCokernelRank:
    def test_cusp_n1_m2(self):
        report = generic_cokernel_rank(presentation_of(CUSP, 1, 2), trials=8, seed=0)
        assert report.expected == 4
        assert report.cokernel_rank == 4
        assert report.all_match
        assert report.samples == (4,) * 8

    def test_tangent_space_dimension_at_smooth_points(self):
        report = generic_cokernel_rank(presentation_of(CUSP, 0, 1), trials=6, seed=0)
        assert report.expected == 1  # s - 1
        assert report.all_match

    def test_cusp_n0_m2(self):
        report = generic_cokernel_rank(presentation_of(CUSP, 0, 2), trials=6, seed=0)
        assert report.cokernel_rank == 2 and report.all_match

    def test_m1_matches_jet_scheme_dimension(self):
        for n in (0, 1, 2):
            report = generic_cokernel_rank(presentation_of(CUSP, n, 1), trials=4, seed=0)
            assert report.cokernel_rank == (n + 1) * (2 - 1)

    @staticmethod
    def count_matrix_calls(monkeypatch):
        """Counts of the calls through jetscheme.eval_matrix and
        jetscheme.rank."""
        calls = {"eval_matrix": 0, "rank": 0}
        for name in calls:

            def counted(*args, _name=name, _inner=getattr(jetscheme, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(jetscheme, name, counted)
        return calls

    def test_a_certificate_builds_no_matrix_per_sample(self, monkeypatch):
        # the partial that makes each sampled base smooth fixes its block's rank
        calls = self.count_matrix_calls(monkeypatch)
        cert = nobile_certificate(CUSP, 1, 2, ORIGIN)
        assert len(cert.cokernel.samples) == 20 and cert.cokernel.all_match
        assert calls == {"eval_matrix": 0, "rank": 0}

    @pytest.mark.parametrize("spec", [Q, GF101], ids=str)
    def test_a_base_off_the_hypersurface_is_ranked_by_its_matrix(self, spec, monkeypatch):
        # g = 1 + 2y + 4y^2 has g'(0) != 0, but rows g and y*g of Jac_2 f(0),
        # [2, 4] and [1, 2], are dependent: a nonzero partial alone fixes nothing
        pres = presentation_of(parse_poly("4*x1^2 + 2*x1 + 1", 1, spec), 0, 2)
        origin = Point.from_base([0], spec)
        monkeypatch.setattr(jetscheme, "find_smooth_point", lambda f, seed: origin)
        calls = self.count_matrix_calls(monkeypatch)
        report = generic_cokernel_rank(pres, trials=2, seed=0)
        assert report.samples == (pres.gens - rank(eval_matrix(pres.L, origin)),) * 2 == (1, 1)
        assert calls == {"eval_matrix": 2, "rank": 2}

    def test_degenerate_equation_raises(self):
        pres = presentation_of(parse_poly("x1^2", 1, GF2), 1, 1)
        with pytest.raises(NoSmoothPointFound):
            generic_cokernel_rank(pres, trials=2, seed=0)

    @staticmethod
    def eager_samples(pres, trials, seed):
        """Every trial's jet extended and ranked densely, and the base
        point of the first least sample: the certificate without the
        block rule."""
        D = DnMatrix(pres.L, pres.n)
        samples, bases = [], []
        for t in range(trials):
            base = find_smooth_point(pres.f, seed=f"{seed}:{t}")
            jet = extend_to_jet(pres.f, base, pres.n, seed=f"{seed}:{t}")
            samples.append(D.cols - rank(at_point(D, jet)))
            bases.append(base)
        return tuple(samples), bases[samples.index(min(samples))]

    @staticmethod
    def corpus(spec):
        rng = random.Random(f"cokernel:{spec}")
        for src, s in (("x1^3 - x2^2", 2), ("x1*x2 - x3^2", 3), ("x1^3 - x2^2 + x1*x2*x3 + x3^4", 3)):
            f = parse_poly(src, s, spec)
            for n, m in ((0, 1), (1, 2), (rng.randint(2, 4), rng.randint(1, 3))):
                yield presentation_of(f, n, m), rng.randrange(1000)

    @pytest.mark.parametrize("spec", [Q, GF2, GF101], ids=str)
    def test_samples_and_witness_match_the_eager_jets(self, spec):
        for pres, seed in self.corpus(spec):
            report = generic_cokernel_rank(pres, trials=5, seed=seed)
            samples, base = self.eager_samples(pres, 5, seed)
            # a sample read off the base block is the cokernel rank at a lifted jet over it
            assert report.samples == samples, (str(pres.f), pres.n, pres.m, seed)
            assert report.witness == zero_jet_over(base, pres.n)
            D = DnMatrix(pres.L, pres.n)
            assert rank(at_point(D, report.witness)) == D.cols - min(samples)

    def test_a_default_certificate_extends_no_jet(self, monkeypatch):
        calls = []

        def recording_extend(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return extend_to_jet(*args, **kwargs)

        monkeypatch.setattr(jetscheme, "extend_to_jet", recording_extend)
        cert = nobile_certificate(CUSP, 1, 2, ORIGIN)
        assert len(cert.cokernel.samples) == 20
        assert calls == []
        assert cert.witness_jet == zero_jet_over(find_smooth_point(CUSP, seed="0:0"), 1)

    @pytest.mark.parametrize("spec", [Q, GF101], ids=str)
    def test_a_deficient_base_block_cannot_certify(self, spec, monkeypatch):
        # every sampled base is the singular origin: each sample is the
        # exact cokernel rank at the zero jet over it, above the expected one
        calls = self.count_matrix_calls(monkeypatch)
        for pres, seed in self.corpus(spec):
            origin = Point.from_base([0] * pres.f.base_count, spec)
            monkeypatch.setattr(jetscheme, "find_smooth_point", lambda f, seed: origin)
            cert = nobile_certificate(pres.f, pres.n, pres.m, origin, trials=3, seed=seed)
            # no partial is nonzero at the origin, so each trial ranks its block
            assert calls == {"eval_matrix": 3, "rank": 3}
            calls.update(eval_matrix=0, rank=0)
            D = DnMatrix(pres.L, pres.n)
            sample = D.cols - rank(at_point(D, zero_jet_over(origin, pres.n)))
            assert cert.cokernel.samples == (sample,) * 3
            assert not cert.cokernel.all_match and not cert.rank_jump
            assert cert.verdict == "inconclusive: some certificate fact failed"


class TestRankCounterexample:
    def test_default_instance(self):
        report = rank_counterexample_check()
        assert (report.jet_ring_rank, report.tensor_rank) == (5, 4)
        assert not report.isomorphic
        assert report.verdict == "not isomorphic"

    def test_order_one_is_consistent(self):
        report = rank_counterexample_check(1, 1)
        assert (report.jet_ring_rank, report.tensor_rank) == (2, 2)
        assert report.isomorphic
        assert report.verdict == "consistent with an isomorphism"

    def test_n2_m2(self):
        report = rank_counterexample_check(2, 2)
        assert (report.jet_ring_rank, report.tensor_rank) == (9, 6)
        assert not report.isomorphic

    def test_matches_index_family_sizes(self):
        report = rank_counterexample_check(3, 2)
        assert report.jet_ring_rank == index_families(4, 2).N
        assert report.tensor_rank == 4 * index_families(1, 2).N

    def test_order_zero_is_the_base_module(self):
        report = rank_counterexample_check(0, 2)
        assert (report.jet_ring_rank, report.tensor_rank) == (2, 2)

    def test_a_rank_too_long_is_refused_before_its_binomial(self, monkeypatch):
        # C(m + 3001, 3001) at m = 10^3000 has about 9 million digits
        def unreachable(*args):
            raise AssertionError("the binomial was computed")

        monkeypatch.setattr(math, "comb", unreachable)
        with pytest.raises(RankTooLong, match=r"^a free rank has more than \d+ digits"):
            rank_counterexample_check(3000, 10**3000)

    def test_names_its_own_parameters(self):
        with pytest.raises(ValueError, match=r"^n must be >= 0$"):
            rank_counterexample_check(-1, 2)
        with pytest.raises(ValueError, match=r"^m must be >= 1$"):
            rank_counterexample_check(1, 0)


class TestNobileCertificate:
    def test_cusp_n1_m2(self):
        cert = nobile_certificate(CUSP, 1, 2, ORIGIN, trials=8, seed=0)
        assert cert.membership
        assert cert.rank < cert.bound == 6
        assert cert.cokernel.all_match and cert.cokernel.cokernel_rank == 4
        assert cert.rank_jump and cert.witness_rank == 6
        assert cert.all_facts_hold
        assert cert.verdict == "blowup not an isomorphism (under stated assumptions)"
        assert any("user assertion" in a for a in cert.assumptions)

    def test_cusp_n2_m1(self):
        cert = nobile_certificate(CUSP, 2, 1, ORIGIN, trials=6, seed=0)
        assert cert.bound == 3
        assert cert.rank < 3
        assert cert.witness_rank == 3
        assert cert.all_facts_hold

    def test_verdict_follows_the_facts(self):
        cert = nobile_certificate(CUSP, 1, 2, ORIGIN, trials=4, seed=0)
        failed = replace(cert, rank_jump=False)
        assert not failed.all_facts_hold
        assert failed.verdict == "inconclusive: some certificate fact failed"

    def test_trials_rejected_before_any_rank(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the zero-jet rank was computed")

        monkeypatch.setattr(jetscheme, "higher_rank_test", unreachable)
        with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
            nobile_certificate(CUSP, 1, 2, ORIGIN, trials=0)

    @pytest.mark.parametrize("trials", [1, 3])
    def test_witness_is_one_of_the_samples(self, monkeypatch, trials):
        searches = []

        def counted(*args, **kwargs):
            searches.append(kwargs.get("seed"))
            return find_smooth_point(*args, **kwargs)

        monkeypatch.setattr(jetscheme, "find_smooth_point", counted)
        cert = nobile_certificate(CUSP, 1, 2, ORIGIN, trials=trials, seed=0)
        assert len(searches) == trials
        assert cert.witness_jet == cert.cokernel.witness

    def test_builds_one_zero_jet_the_witness(self, monkeypatch):
        # the singular base is checked as a base point without building its
        # zero jet, which holds (n+1)*s coordinates
        built = []

        def counted(base, n):
            built.append(base)
            return zero_jet_over(base, n)

        monkeypatch.setattr(jetscheme, "zero_jet_over", counted)
        cert = nobile_certificate(CUSP, 3, 2, ORIGIN, trials=3, seed=0)
        assert len(built) == 1 and cert.witness_jet == zero_jet_over(built[0], 3)
        with pytest.raises(NotBasePoint, match=r"^expected a base point \(order-0 coordinates only\)$"):
            nobile_certificate(CUSP, 3, 2, cusp_point(0, 0, 0, 0, n=1))

    def test_builds_neither_jac_m_nor_dn(self, monkeypatch):
        # the zero-jet rank comes from the multiplicity, and each sample from
        # a nonzero partial: neither Jac_m f nor D_n(L) is built
        built = []

        def counted_jac_m(*args):
            built.append("jac_m")
            return jac_m(*args)

        def counted_check(self):
            built.append("DnMatrix")
            check(self)

        check = DnMatrix.__post_init__
        monkeypatch.setattr(jetscheme, "jac_m", counted_jac_m)
        monkeypatch.setattr(DnMatrix, "__post_init__", counted_check)
        nobile_certificate(CUSP, 3, 3, ORIGIN, trials=2, seed=0)
        assert built == []

    def test_a_default_certificate_calls_no_matrix_routine(self, monkeypatch):
        calls = Counter()

        def counting(name, inner):
            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return counted

        for module in (jacobian, jetmatrix, linalg, jetscheme):
            for name in ("jac_m", "rank_at", "eval_matrix", "rank"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(DnMatrix, "__post_init__", counting("DnMatrix", DnMatrix.__post_init__))
        cert = nobile_certificate(CUSP, 1, 2, ORIGIN)
        assert cert.all_facts_hold and (cert.rank, cert.bound) == (2, 6)
        assert calls == Counter()

    def test_witness_is_a_full_rank_jet_on_the_scheme(self):
        cert = nobile_certificate(CUSP, 1, 2, ORIGIN, trials=8, seed=0)
        pres = presentation_of(CUSP, 1, 2)
        assert on_jet_scheme(jet_equations(CUSP, 1), cert.witness_jet)
        witness_rank = rank(at_point(DnMatrix(pres.L, 1), cert.witness_jet))
        assert witness_rank == cert.witness_rank == pres.gens - cert.cokernel.cokernel_rank
        assert cert.witness_rank == cert.bound

    def test_jet_variables_rejected_before_the_base_is_read(self):
        # the base point assigns no value to x1_1
        with pytest.raises(NotBasePolynomial):
            nobile_certificate(parse_poly("x1^2*x1_1", 1, Q), 1, 1, Point.from_base([0], Q))

    def test_smooth_base_rejected(self):
        with pytest.raises(NotSingularBase):
            nobile_certificate(CUSP, 1, 2, Point.from_base([1, 1], Q))

    def test_base_off_hypersurface_rejected(self):
        with pytest.raises(NotSingularBase):
            nobile_certificate(CUSP, 1, 2, Point.from_base([1, 2], Q))

    def test_char_p_certificate(self):
        f = parse_poly("x1^3 - x2^2", 2, GF5)
        cert = nobile_certificate(f, 1, 2, Point.from_base([0, 0], GF5), trials=5, seed=0)
        assert cert.all_facts_hold

    def test_singular_jet_kills_all_maximal_minors(self):
        # rank deficiency at the zero jet means every maximal minor vanishes
        from jetjac import minors

        pres = presentation_of(CUSP, 1, 2)
        zjet = zero_jet_over(ORIGIN, 1)
        assert rank(eval_matrix(pres.matrix, zjet)) < pres.rels
        found = minors(pres.matrix, pres.rels)
        assert all(v.evaluate(zjet).is_zero for v in found.values)
        # and the rank-jump witness makes some of them nonzero elsewhere
        witness = extend_to_jet(CUSP, Point.from_base([1, 1], Q), 1, seed=0)
        assert any(not v.evaluate(witness).is_zero for v in found.values)
