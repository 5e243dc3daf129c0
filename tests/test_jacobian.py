import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetjac import (
    BadDifferentialOrder,
    DnMatrix,
    EmptyIndexFamily,
    EmptyInput,
    JacmMatrix,
    JetVariable,
    MissingCoordinate,
    MixedFields,
    Point,
    PolyMatrix,
    Polynomial,
    ScalarMatrix,
    ShapeMismatch,
    TooManyCells,
    TooManyMultiIndices,
    dn_matrix,
    eval_matrix,
    exponent_vectors,
    generic_rank,
    index_families,
    jac,
    jac_m,
    parse_poly,
    rank,
    rank_at,
)

from jetjac import jacobian, linalg
from jetjac.cli import matrix_argument, run
from jetjac.poly import _rational

from _corpus import GF2, GF3, ORACLE_FIELDS, Q, _coefficients, base_polynomials, random_base_polynomial
from jetjac import FieldSpec
from _oracles import divided_partial, exponent_vectors_recursive, jac_m_by_cells, transpose

CUSP = parse_poly("x1^3 - x2^2", 2, Q)

EXAMPLE_3x5 = [
    ["3*x1^2", "-2*x2", "3*x1", "0", "-1"],
    ["x1^3-x2^2", "0", "3*x1^2", "-2*x2", "0"],
    ["0", "x1^3-x2^2", "0", "3*x1^2", "-2*x2"],
]


def expected_matrix(rows, s, spec=Q):
    entries = tuple(parse_poly(e, s, spec) for row in rows for e in row)
    return PolyMatrix(len(rows), len(rows[0]), entries)


class TestJac:
    def test_cusp(self):
        mx = jac([CUSP])
        assert mx.rows == 1 and mx.cols == 2
        assert mx.at(0, 0) == parse_poly("3*x1^2", 2, Q)
        assert mx.at(0, 1) == parse_poly("-2*x2", 2, Q)

    def test_coordinates_give_identity(self):
        mx = jac([parse_poly("x1", 2, Q), parse_poly("x2", 2, Q)])
        assert mx.rows == mx.cols == 2
        for i in range(2):
            for j in range(2):
                expected = 1 if i == j else 0
                assert mx.at(i, j) == Polynomial.constant(Q, expected)

    def test_constant_gives_zero_row(self):
        mx = jac([parse_poly("5", 2, Q)])
        assert mx.rows == 1 and mx.cols == 2
        assert all(e.is_zero for e in mx.entries)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            jac([])


class TestIndexFamilies:
    def test_s2_m2_order(self):
        fam = index_families(2, 2)
        assert fam.lambda0 == ((0, 0), (1, 0), (0, 1))
        assert fam.lambda_ == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        assert fam.M == 3 and fam.N == 5

    def test_s1_m2(self):
        fam = index_families(1, 2)
        assert fam.M == 2 and fam.N == 2
        assert fam.lambda0 == ((0,), (1,))
        assert fam.lambda_ == ((1,), (2,))

    def test_size_formulas_against_enumeration(self):
        for s in range(1, 5):
            for m in range(1, 5):
                fam = index_families(s, m)
                space = list(itertools.product(range(m + 1), repeat=s))
                low = [a for a in space if sum(a) <= m - 1]
                high = [a for a in space if 1 <= sum(a) <= m]
                assert fam.M == len(low) == math.comb(m + s - 1, s)
                assert fam.N == len(high) == math.comb(m + s, s) - 1
                assert sorted(fam.lambda0) == sorted(low)
                assert sorted(fam.lambda_) == sorted(high)

    def test_graded_then_descending_lex(self):
        fam = index_families(3, 2)
        norms = [sum(a) for a in fam.lambda_]
        assert norms == sorted(norms)
        for d in set(norms):
            group = [a for a in fam.lambda_ if sum(a) == d]
            assert group == sorted(group, reverse=True)

    def test_exponent_vectors_keep_the_recursive_order(self):
        for s in range(1, 7):
            for norm in range(6):
                assert list(exponent_vectors(norm, s)) == list(exponent_vectors_recursive(norm, s)), (norm, s)

    def test_exponent_vectors_of_a_thousand_variables(self):
        # one recursion level per variable would pass the interpreter's limit
        units = list(exponent_vectors(1, 1000))
        assert units == [tuple(int(i == j) for j in range(1000)) for i in range(1000)]

    def test_families_are_counted_before_they_are_listed(self, monkeypatch):
        # s = 2, m = 2: 3 + 5 multi-indices of 2 exponents each
        monkeypatch.setattr(jacobian, "INDEX_CAP", 16)
        assert index_families(2, 2).N == 5
        monkeypatch.setattr(jacobian, "INDEX_CAP", 15)
        with pytest.raises(TooManyMultiIndices) as err:
            index_families(2, 2)
        assert str(err.value) == "the index families of s = 2, m = 2 hold 16 exponents (cap 15)"

    def test_validation(self):
        with pytest.raises(ValueError):
            index_families(0, 1)
        with pytest.raises(EmptyIndexFamily):
            list(exponent_vectors(1, 0))
        with pytest.raises(ValueError):
            index_families(1, 0)


class TestJacM:
    def test_cusp_order_2_matrix(self):
        assert jac_m([CUSP], 2) == expected_matrix(EXAMPLE_3x5, 2)

    def test_m1_reduces_to_jac(self):
        # the order-1 Jacobian is the matrix of first partials
        rng = random.Random(37)
        for _ in range(10):
            s = rng.randint(1, 3)
            f = random_base_polynomial(rng, s, 4, 4, Q)
            partials = tuple(f.partial(JetVariable(i, 0)) for i in range(1, s + 1))
            assert jac_m([f], 1) == PolyMatrix(1, s, partials)

    def test_char_2_matrix_is_the_reduction(self):
        cusp2 = parse_poly("x1^3 - x2^2", 2, GF2)
        mx = jac_m([cusp2], 2)
        reduced = expected_matrix(EXAMPLE_3x5, 2, GF2)  # reparse mod 2
        assert mx == reduced
        # -2*x2 entries vanish and -1 becomes 1
        assert mx.at(0, 1).is_zero
        assert mx.at(0, 4) == Polynomial.constant(GF2, 1)

    def test_dimensions(self):
        rng = random.Random(41)
        for _ in range(12):
            s = rng.randint(1, 3)
            m = rng.randint(1, 3)
            r = rng.randint(1, 2)
            fs = [random_base_polynomial(rng, s, 3, 4, Q) for _ in range(r)]
            fam = index_families(s, m)
            mx = jac_m(fs, m)
            assert (mx.rows, mx.cols) == (r * fam.M, fam.N)

    def test_order_one_columns_embed_jac(self):
        rng = random.Random(43)
        for _ in range(10):
            s = rng.randint(1, 3)
            m = rng.randint(1, 3)
            f = random_base_polynomial(rng, s, 4, 4, Q)
            mx = jac_m([f], m)
            for i in range(s):  # unit multi-indices come first among columns
                assert mx.at(0, i) == f.partial(JetVariable(i + 1, 0))

    def test_entries_match_iterated_partials_over_q(self):
        fam = index_families(2, 3)
        f = parse_poly("x1^3*x2 - 2*x1*x2^2 + x2^4", 2, Q)
        mx = jac_m([f], 3)
        for bi, beta in enumerate(fam.lambda0):
            for ai, alpha in enumerate(fam.lambda_):
                if all(a >= b for a, b in zip(alpha, beta)):
                    delta = tuple(a - b for a, b in zip(alpha, beta))
                    iterated = f
                    fact = 1
                    for i, d in enumerate(delta):
                        for _ in range(d):
                            iterated = iterated.partial(JetVariable(i + 1, 0))
                        fact *= math.factorial(d)
                    assert mx.at(bi, ai) * fact == iterated
                else:
                    assert mx.at(bi, ai).is_zero

    def test_rank_is_row_count_at_smooth_points(self):
        # echelon structure: at points where the x1-partial does not
        # vanish, the order-m Jacobian of one polynomial has full row rank
        smooth_points = [(1, 1), (4, 8), (1, -1)]
        for m in (1, 2, 3):
            fam = index_families(2, m)
            mx = jac_m([CUSP], m)
            for coordinates in smooth_points:
                point = Point.from_base(list(coordinates), Q)
                assert not CUSP.partial(JetVariable(1, 0)).evaluate(point).is_zero
                assert rank(eval_matrix(mx, point)) == fam.M

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            jac_m([], 2)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            jac_m([CUSP], 0)


FIELDS = [Q, GF2, FieldSpec.prime_field(3), FieldSpec.prime_field(101), FieldSpec.prime_field(32003)]


def one_pass_corpus(spec: FieldSpec, rng: random.Random) -> list[list[Polynomial]]:
    """Tuples of polynomials for jac_m: random ones in x1..xs, one whose
    binomials C(p, d) vanish mod p, ones with jet variables, constants,
    and tuples whose members have different base counts."""
    p = spec.characteristic or 7
    corpus = [[random_base_polynomial(rng, s, 5, 5, spec)] for s in (1, 2, 3, 3)]
    corpus += [
        [parse_poly(f"x1^{p}*x2 + 2*x2^{p + 1} - x1*x2*x3^2", 3, spec)],
        [parse_poly("x1^2*x1_1 - 3*x2*x2_2^2 + x1_1^3 + x1^3*x2^2*x2_1", 2, spec)],
        [parse_poly("5", 2, spec)],
        [Polynomial.zero(spec, 3)],
        [parse_poly("x1^3 - x1^2", 1, spec), random_base_polynomial(rng, 3, 4, 4, spec), parse_poly("x1*x2^4", 2, spec)],
    ]
    return corpus


def sharing(mx: PolyMatrix) -> list[int]:
    """Each entry's position of the first entry that is the same object."""
    first = {}
    return [first.setdefault(id(e), k) for k, e in enumerate(mx.entries)]


class TestOnePass:
    """jac_m reads each f once and places the dominated cells; the per-cell
    construction it replaced is the oracle."""

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("spec", FIELDS, ids=str)
    def test_matches_the_per_cell_construction(self, spec, m):
        rng = random.Random(1000 * m + spec.characteristic)
        for fs in one_pass_corpus(spec, rng):
            fast, slow = jac_m(fs, m), jac_m_by_cells(fs, m)
            assert (fast.rows, fast.cols) == (slow.rows, slow.cols)
            assert fast.entries == slow.entries
            assert [(e.base_count, e.max_order) for e in fast.entries] == [
                (e.base_count, e.max_order) for e in slow.entries
            ]
            assert sharing(fast) == sharing(slow)

    @pytest.mark.parametrize("spec", FIELDS, ids=str)
    def test_divided_partials_are_the_divided_partial_of_each_delta(self, spec):
        rng = random.Random(spec.characteristic)
        for fs in one_pass_corpus(spec, rng):
            for f in fs:
                for s in {1, f.base_count, 3}:
                    for m in range(1, 7):
                        got = jacobian.divided_partials(f, s, m)
                        deltas = [d for k in range(m + 1) for d in exponent_vectors(k, s)]
                        assert list(got) == deltas
                        for delta in deltas:
                            want = divided_partial(f, delta)
                            assert got[delta] == want
                            assert (got[delta].base_count, got[delta].max_order) == (f.base_count, f.max_order)
                        assert got[(0,) * s] is f

    def test_a_binomial_that_vanishes_mod_p_drops_its_term(self):
        f = parse_poly("x1^3 + x1*x2", 2, FieldSpec.prime_field(3))
        partials = jacobian.divided_partials(f, 2, 2)
        # C(3, 1) = C(3, 2) = 0 mod 3: only x1*x2 leaves first partials
        assert str(partials[(1, 0)]) == "x2"
        assert partials[(2, 0)].is_zero
        assert str(partials[(1, 1)]) == "1"

    @pytest.mark.parametrize("spec", ORACLE_FIELDS, ids=str)
    @given(data=st.data())
    def test_a_mixed_assignment_is_the_taylor_pass_at_the_point(self, spec, data):
        # each coordinate is kept (None) or substituted; the kept ones, put
        # at their drawn values afterwards, give the pass at the full point,
        # and with every coordinate kept each delta's terms are its partial.
        # x1^3*x2 has C(3, 1) = C(3, 2) = 0 mod 3
        p = spec.characteristic
        s = data.draw(st.integers(1, 3))
        f = data.draw(base_polynomials(spec, s)) + parse_poly("x1^3*x2" if s > 1 else "x1^3", s, spec)
        m = data.draw(st.integers(0, 4))
        point = {(0, i): spec.raw(data.draw(_coefficients(spec))) for i in range(1, s + 1)}
        kept = {key for key in point if data.draw(st.booleans())}
        sums = {}
        for dk, c in jacobian.taylor_coefficients(f, {key: None if key in kept else x for key, x in point.items()}, s, m).items():
            delta, key = dk[:s], dk[s:]
            assert {(j, i) for j, i, _ in key} <= kept and sum(delta) <= m
            for j, i, e in key:
                c *= pow(point[j, i], e, p) if p else point[j, i] ** e
            sums[delta] = sums.get(delta, 0) + c
        reduced = {delta: acc % p if p else _rational(acc) for delta, acc in sums.items()}
        assert {delta: c for delta, c in reduced.items() if c} == jacobian.taylor_coefficients(f, point, s, m)
        symbolic = jacobian.taylor_coefficients(f, dict.fromkeys(point), s, m)
        for delta in (d for k in range(m + 1) for d in exponent_vectors(k, s)):
            terms = {dk[s:]: c for dk, c in symbolic.items() if dk[:s] == delta}
            assert Polynomial._make(spec, terms, s, 0) == divided_partial(f, delta)


class TestCellCap:
    """jac_m counts its r M x N cells before it builds any entry."""

    def test_cap_is_the_largest_count_allowed(self, monkeypatch):
        # the cusp with m = 2: M = 3 rows, N = 5 columns
        monkeypatch.setattr(jacobian, "CELL_CAP", 15)
        assert jac_m([parse_poly("x1^3 - x2^2", 2, Q)], 2).rows == 3
        monkeypatch.setattr(jacobian, "CELL_CAP", 14)
        with pytest.raises(TooManyCells) as err:
            jac_m([parse_poly("x1^3 - x2^2", 2, Q)], 2)
        assert str(err.value) == "a 3 x 5 matrix has 15 cells (cap 14)"

    def test_counts_from_the_closed_forms(self):
        # 2.05e9 cells: counting them must not build them
        with pytest.raises(TooManyCells):
            jac_m([parse_poly("x1^2*x2", 2, Q)], 300)


class TestPolyMatrix:
    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch) as err:
            PolyMatrix(2, 2, (Polynomial.zero(Q),))
        assert str(err.value) == "1 entries for a 2 x 2 matrix"
        assert isinstance(err.value, ValueError)

    def test_entries_over_one_field(self):
        # equal specs that are distinct objects agree; different fields do not
        a, b = Polynomial.constant(FieldSpec.prime_field(7), 1), Polynomial.constant(FieldSpec.prime_field(7), 2)
        assert a.spec is not b.spec
        assert PolyMatrix(1, 2, (a, b)).spec == FieldSpec.prime_field(7)
        with pytest.raises(MixedFields):
            PolyMatrix(1, 2, (a, Polynomial.constant(Q, 1)))

    def test_scalar_matrix_shape_validation(self):
        with pytest.raises(ShapeMismatch) as err:
            ScalarMatrix(2, 3, (1, 2, 3, 4, 5), Q)
        assert str(err.value) == "5 values for a 2 x 3 matrix"

    def test_row_column_access(self):
        mx = jac_m([CUSP], 2)
        assert mx.row(0) == tuple(parse_poly(e, 2, Q) for e in EXAMPLE_3x5[0])
        assert transpose(mx).row(4) == tuple(
            parse_poly(row[4], 2, Q) for row in EXAMPLE_3x5
        )

    def test_transpose(self):
        mx = jac_m([CUSP], 2)
        assert transpose(mx).at(4, 0) == mx.at(0, 4)

    def test_text_rendering(self):
        assert str(jac_m([CUSP], 2)).splitlines()[0] == "[3*x1^2, -2*x2, 3*x1, 0, -1]"

    def test_dims_are_the_largest_base_count_and_max_order(self):
        entries = (parse_poly("x1", 3, Q), parse_poly("x2_4", 2, Q))
        assert PolyMatrix(1, 2, entries).dims == (3, 4)
        assert PolyMatrix(0, 0, ()).dims == (0, 0)

    def test_variables_are_the_base_variables_and_those_that_occur(self):
        # x1_1 occurs in no entry, so it is not drawn; x1 and x3 are base variables
        entries = (parse_poly("x2_1", 3, Q), parse_poly("x1^2 - x1^2", 3, Q))
        assert PolyMatrix(1, 2, entries).variables() == (
            JetVariable(1, 0), JetVariable(2, 0), JetVariable(3, 0), JetVariable(2, 1)
        )

    def test_variables_of_a_high_order_jet_variable(self):
        mx = PolyMatrix(1, 1, (parse_poly("x1_100000000", 1, Q),))
        assert mx.variables() == (JetVariable(1, 0), JetVariable(1, 100000000))

    def test_distinct_and_layout_rebuild_the_entries_object_for_object(self):
        quartic = jac_m([parse_poly("x1^3 - x2^2 + x1*x2*x3 + x3^4", 3, Q)], 3)
        # a JSON matrix parses each entry on its own: equal, distinct objects
        json_matrix = matrix_argument('{"rows": 2, "cols": 2, "entries": [["x1", "x2"], ["x1", "x1"]]}', Q)
        cases = [quartic, dn_matrix(jac_m([CUSP], 2), 2), transpose(quartic), PolyMatrix(0, 0, ()), json_matrix]
        for mx in cases:
            rebuilt = tuple(mx.distinct[i] for i in mx.layout)
            assert len(rebuilt) == len(mx.entries)
            assert all(a is b for a, b in zip(rebuilt, mx.entries))
            assert len({id(g) for g in mx.distinct}) == len(mx.distinct)
        assert (len(quartic.entries), len(quartic.distinct)) == (190, 21)
        assert json_matrix.layout == (0, 1, 2, 3)
        assert str(json_matrix) == "[x1, x2]\n[x1, x1]"

    def test_each_entry_object_is_printed_once(self, monkeypatch):
        mx = jac_m([parse_poly("x1^3 - x2^2 + x1*x2*x3 + x3^4", 3, Q)], 3)
        printed = []
        printer = Polynomial.__str__

        def counting_printer(g):
            printed.append(g)
            return printer(g)

        monkeypatch.setattr(Polynomial, "__str__", counting_printer)
        table = mx.rendered()
        assert len(printed) == 21
        assert table == [[printer(e) for e in mx.row(i)] for i in range(mx.rows)]


class TestNumericJacm:
    """JacmMatrix, Jac_m(fs) left unexpanded, against the symbolic jac_m:
    the same shape, variables and errors, and at any point the same
    values, value by value and type by type, read off one Taylor pass per
    distinct f."""

    SOURCES = [
        "x1^3 - x2^2 + x1*x2*x3 + x3^4",
        # C(4, 1), C(4, 2) and C(6, 2) vanish mod 2, C(3, 1), C(6, 3) and C(9, 3) mod 3
        "x1^4*x2^3 + x1^2 - x2^9 + x1^6",
        "x1^3*x2 + x2^6 - x1^9*x2^3 + 5",
        "x1 + x2_1",
        "x1^2*x2_1 + x2*x1_2^2 - x1*x2",
        "x2^2*x1_1 + x1^3",
    ]

    @staticmethod
    def cases(spec):
        rng = random.Random(f"numeric-jacm:{spec}")
        for source in TestNumericJacm.SOURCES:
            yield [parse_poly(source, 2 if "x3" not in source else 3, spec)]
        for s in (1, 2, 3):
            yield [random_base_polynomial(rng, s, 5, 5, spec) for _ in range(rng.randint(1, 2))]
        f, g = (parse_poly(source, 2, spec) for source in ("x1^3 - x2^2", "x1*x2^4 + x2^3"))
        yield [f, g, f]  # a repeated f repeats its block
        yield [f, parse_poly("x1^3 - x2^2", 2, spec)]  # an equal f of its own

    @staticmethod
    def points(mx, spec, rng):
        # the zero point, integer points and, over Q, a/b coordinates
        keys = [(v.order, v.base) for v in mx.variables()]
        yield Point._make(spec, dict.fromkeys(keys, 0))
        for _ in range(3):
            coords = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 3, 5])) for _ in keys]
            if spec.characteristic:
                coords = [x.numerator for x in coords]
            yield Point._make(spec, {key: spec.raw(x) for key, x in zip(keys, coords)})

    @pytest.mark.parametrize("spec", ORACLE_FIELDS, ids=str)
    def test_values_and_ranks_match_the_symbolic_matrix(self, spec):
        rng = random.Random(f"numeric-points:{spec}")
        for fs in self.cases(spec):
            for m in range(1, 5):
                numeric, symbolic = JacmMatrix(fs, m), jac_m(fs, m)
                shape = lambda mx: (mx.rows, mx.cols, mx.spec, mx.dims, mx.variables())
                assert shape(numeric) == shape(symbolic), ([str(f) for f in fs], m)
                for point in self.points(numeric, spec, rng):
                    got, want = eval_matrix(numeric, point), eval_matrix(symbolic, point)
                    assert got == want, ([str(f) for f in fs], m, str(point))
                    assert list(map(type, got.values)) == list(map(type, want.values))
                    assert rank(got) == rank(want)

    @pytest.mark.parametrize("spec", ORACLE_FIELDS, ids=str)
    def test_blocked_ranks_match_at_jets(self, spec):
        # the series route of rank_at reads the symbolic layout of the stand-in
        rng = random.Random(f"numeric-jets:{spec}")
        for fs in self.cases(spec):
            if any(f.max_order for f in fs):
                continue
            s, n = max(f.base_count for f in fs), 2
            for m in (1, 2, 3):
                numeric, symbolic = DnMatrix(JacmMatrix(fs, m), n), DnMatrix(jac_m(fs, m), n)
                for _ in range(3):
                    coords = [rng.choice([0, 0, 1, -2, 3]) for _ in range(s * (n + 1))]
                    jet = Point.from_flat(coords, s, n, spec)
                    assert rank_at(numeric, jet) == rank_at(symbolic, jet)

    def test_printing_and_expansion_read_the_symbolic_matrix(self):
        fs = [CUSP, parse_poly("x1*x2", 2, Q)]
        numeric, symbolic = JacmMatrix(fs, 3), jac_m(fs, 3)
        assert str(numeric) == str(symbolic)
        assert (numeric.distinct, numeric.layout) == (symbolic.distinct, symbolic.layout)
        assert dn_matrix(numeric, 2) == dn_matrix(symbolic, 2)

    @pytest.mark.parametrize(
        "spec, source, m",
        [(Q, "x1 + x2_1", 1), (Q, "x1 + x2_1", 2), (GF2, "x1^2*x2_1 + x1*x1_1", 1), (GF3, "x1^3*x2_2 + x2*x1_1^2", 1)],
        ids=str,
    )
    def test_generic_rank_draws_the_same_points(self, monkeypatch, spec, source, m):
        # for m = 1 a jet variable of a term whose first partials vanish
        # occurs in no entry, and no point draws it
        drawn = []
        draw_point = linalg.random_point

        def recorded(spec, variables, rng):
            point = draw_point(spec, variables, rng)
            drawn.append(point.values)
            return point

        monkeypatch.setattr(linalg, "random_point", recorded)
        fs = [parse_poly(source, 2, spec)]
        numeric = generic_rank(JacmMatrix(fs, m), trials=5, seed=3)
        points, drawn[:] = list(drawn), []
        assert numeric == generic_rank(jac_m(fs, m), trials=5, seed=3)
        assert points == drawn

    def test_errors_come_in_the_order_of_jac_m(self, monkeypatch):
        # each input breaks every check after the one named, so the
        # first check that fails is the one raised
        monkeypatch.setattr(jacobian, "CELL_CAP", 50)
        f, g = CUSP, parse_poly("x1^3 - x2^2", 2, GF2)
        constants = [Polynomial.constant(Q, 1), Polynomial.constant(GF2, 1)]  # no base variable
        cases = [
            ([], 0, EmptyInput),
            (constants, 0, BadDifferentialOrder),
            (constants, 2, EmptyIndexFamily),
            ([f, g] * 10, 10**6, TooManyMultiIndices),
            ([f, g], 5, TooManyCells),  # 2 * 15 x 20 cells, before MixedFields
            ([f, g], 2, MixedFields),
        ]
        for fs, m, error in cases:
            for build in (jac_m, JacmMatrix):
                with pytest.raises(error):
                    build(fs, m)

    def test_a_point_must_assign_every_variable(self):
        numeric = JacmMatrix([parse_poly("x1*x2_1 + x2^2", 2, Q)], 2)
        with pytest.raises(MissingCoordinate, match="x2_1"):
            eval_matrix(numeric, Point.from_base([1, 2], Q))
        with pytest.raises(MixedFields):
            eval_matrix(numeric, Point.from_base([1, 2], GF2))

    POINT_QUERIES = [
        ["singular-check", "--f", "x1^3 - x2^2 + x1*x2*x3 + x3^4", "--n", "3", "--m", "3", "--point=" + ",".join(["0"] * 12)],
        ["singular-check", "--f", "x1^3 - x2^2", "--n", "1", "--m", "2", "--point=1,1,2,3"],
        ["rank-at-point", "--matrix", "dnl:2:3:x1^3 - x2^2 + x1*x2*x3 + x3^4 - 1", "--point=1,0,0,-1/3,2,5/7,0,1,1"],
        ["rank-at-point", "--matrix", "jacm:8:x1^3 - x2^2 + x1*x2*x3 + x3^4", "--point=2,-1,3"],
        ["generic-rank", "--field", "Fp:32003", "--matrix", "dnl:4:2:x1^3 - x2^2 + x1*x2*x3 + x3^4"],
        ["generic-rank", "--matrix", "jacm:3:x1^3 - x2^2,x1*x2"],
    ]

    def test_point_queries_build_no_divided_partials(self, monkeypatch, capsys):
        calls = []
        build = jacobian.divided_partials
        monkeypatch.setattr(jacobian, "divided_partials", lambda *args: calls.append(args) or build(*args))
        for argv in self.POINT_QUERIES:
            assert run(argv) == 0, argv
        assert calls == []
        # printing still builds them: one pass per f
        assert run(["jacm", "--f", "x1^3 - x2^2", "--m", "2"]) == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_too_many_cells_before_any_value(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(jacobian, "taylor_coefficients", lambda *args: calls.append(args))
        assert run(["generic-rank", "--matrix", "jacm:3:x40"]) == 1
        assert capsys.readouterr().err.startswith("TooManyCells: ")
        assert calls == []


class TestBudgetMessages:
    def test_a_count_is_printed_while_int_can_print_it(self):
        with pytest.raises(TooManyCells, match=r"^a 1001 x 1000 matrix has 1001000 cells \(cap 1000000\)$"):
            jacobian._check_cells(1001, 1000)
        limit = sys.get_int_max_str_digits()
        with pytest.raises(TooManyCells, match=rf"^a 2 x 10\^{limit} or more matrix has 10\^{limit} or more cells"):
            jacobian._check_cells(2, 10**limit)
        with pytest.raises(TooManyMultiIndices, match=rf"m = {10**3000} hold 10\^{limit} or more exponents"):
            index_families(2, 10**3000)

    def test_the_last_printable_count(self):
        limit = sys.get_int_max_str_digits()
        assert jacobian._shown(10**limit - 1) == "9" * limit
        assert jacobian._shown(10**limit) == f"10^{limit} or more"
