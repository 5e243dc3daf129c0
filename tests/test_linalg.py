import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetjac import (
    DnMatrix,
    FieldSpec,
    JacmMatrix,
    JetVariable,
    MissingCoordinate,
    MixedFields,
    NotSquare,
    Point,
    PolyMatrix,
    Polynomial,
    ScalarMatrix,
    TooManyMinorTerms,
    TooManyMinors,
    dn_matrix,
    eval_matrix,
    generic_rank,
    jac_m,
    jet_grid,
    minors,
    parse_poly,
    poly_det,
    rank,
    rank_at,
)
from jetjac import jacobian, linalg
from jetjac.linalg import random_point, trial_rng

from _corpus import GF2, GF5, GF32003, Q, base_polynomials, poly_from_int_terms, random_base_polynomial
from _oracles import laplace_walk_polynomials, leibniz_det, transpose

CUSP = parse_poly("x1^3 - x2^2", 2, Q)
GF101 = FieldSpec.prime_field(101)


def scalar(rows, spec=Q):
    values = tuple(spec.raw(v) for row in rows for v in row)
    return ScalarMatrix(len(rows), len(rows[0]), values, spec)


def rational_rank_oracle(rows):
    """Row-reduce over Fraction, independently of the library path.
    Entries may be ints, Fractions or "a/b" strings."""
    a = [[Fraction(v) for v in row] for row in rows]
    rank_count = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((i for i in range(rank_count, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank_count], a[pivot] = a[pivot], a[rank_count]
        pr = a[rank_count]
        for i in range(len(a)):
            if i != rank_count and a[i][c]:
                factor = a[i][c] / pr[c]
                a[i] = [x - factor * y for x, y in zip(a[i], pr)]
        rank_count += 1
    return rank_count


class TestEvalMatrix:
    def test_cusp_at_origin(self):
        mx = jac_m([CUSP], 2)
        got = eval_matrix(mx, Point.from_base([0, 0], Q))
        assert got == scalar([[0, 0, 0, 0, -1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]])

    def test_cusp_at_smooth_point(self):
        mx = jac_m([CUSP], 2)
        got = eval_matrix(mx, Point.from_base([1, 1], Q))
        assert got == scalar([[3, -2, 3, 0, -1], [0, 0, 3, -2, 0], [0, 0, 0, 3, -2]])

    def test_zero_matrix(self):
        mx = PolyMatrix(2, 2, tuple(Polynomial.zero(Q) for _ in range(4)))
        got = eval_matrix(mx, Point.from_base([5, 7], Q))
        assert not any(got.values)

    def test_evaluates_each_entry_object_once(self, monkeypatch):
        # Jac_3 of the quartic has 190 entries but 21 distinct objects
        evaluated = []
        raw_value = jacobian._raw_value

        def counting_raw_value(g, *args):
            evaluated.append(g)
            return raw_value(g, *args)

        monkeypatch.setattr(jacobian, "_raw_value", counting_raw_value)
        mx = jac_m([parse_poly(QUARTIC, 3, Q)], 3)
        point = Point.from_base([1, Fraction(-2, 3), 5], Q)
        got = eval_matrix(mx, point)
        assert (len(mx.entries), len(evaluated)) == (190, 21)
        assert got.values == tuple(e.evaluate(point).value for e in mx.entries)


class TestRank:
    def test_examples(self):
        mx = jac_m([CUSP], 2)
        assert rank(eval_matrix(mx, Point.from_base([0, 0], Q))) == 1
        assert rank(eval_matrix(mx, Point.from_base([1, 1], Q))) == 3

    def test_identity(self):
        for k in (1, 2, 5):
            eye = scalar([[1 if i == j else 0 for j in range(k)] for i in range(k)])
            assert rank(eye) == k

    def test_transpose_invariance(self):
        rng = random.Random(61)
        for _ in range(20):
            rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
            mx = scalar(rows)
            assert rank(mx) == rank(transpose(mx))

    def test_permutation_invariance(self):
        rng = random.Random(67)
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        mx = scalar(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(mx) == rank(scalar(shuffled))

    def test_against_reduction_oracle(self):
        rng = random.Random(71)
        for _ in range(30):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
            assert rank(scalar(rows)) == rational_rank_oracle(rows)

    def test_gf_p_rank(self):
        # rows become dependent mod 5: (1, 2) and (6, 12) differ by 5k
        mx = scalar([[1, 2], [6, 12]], GF5)
        assert rank(mx) == 1

    def test_modular_cross_check(self):
        # for a prime not dividing any pivot the rank over Q persists mod p
        big = FieldSpec.prime_field(10007)
        rng = random.Random(73)
        for _ in range(15):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            over_q = rank(scalar(rows))
            over_p = rank(scalar(rows, big))
            assert over_p == over_q


def mod_p_rank_oracle(rows, p):
    """Column-reduce residues with Fermat inverses: a different route
    from the library's row elimination."""
    cols = [[v % p for v in col] for col in zip(*rows)]
    rank_count = 0
    for i in range(len(rows)):
        pivot = next((k for k in range(rank_count, len(cols)) if cols[k][i]), None)
        if pivot is None:
            continue
        cols[rank_count], cols[pivot] = cols[pivot], cols[rank_count]
        pc = cols[rank_count]
        inv = pow(pc[i], p - 2, p)
        for k in range(rank_count + 1, len(cols)):
            factor = cols[k][i] * inv % p
            cols[k] = [(x - factor * y) % p for x, y in zip(cols[k], pc)]
        rank_count += 1
    return rank_count


INTEGERS = st.integers(-6, 6)
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
# about one entry in four nonzero: most heads are zero, so rows are skipped
# for several steps before they pivot or are eliminated
SPARSE_RATIONALS = st.integers(0, 3).flatmap(lambda k: RATIONALS if k == 0 else st.just(0))


def grid(draw, rows, cols, entries):
    flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


@st.composite
def planted_rank(draw, entries=RATIONALS, max_rows=8, max_cols=10):
    """B·C with B rows x k and C k x cols, so the rank is at most k."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    k = draw(st.integers(0, min(rows, cols)))
    b, c = grid(draw, rows, k, entries), grid(draw, k, cols, entries)
    return [
        [sum(b[i][t] * c[t][j] for t in range(k)) for j in range(cols)]
        for i in range(rows)
    ]


@st.composite
def with_zero_lines(draw, matrices):
    """Insert zero rows and zero columns at drawn positions."""
    rows = [list(row) for row in draw(matrices)]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(rows[0])))
        for row in rows:
            row.insert(j, 0)
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(rows[0]))
    return rows


@st.composite
def block_diagonal(draw, entries=RATIONALS):
    """Entries below each pivot of a later block are already zero, so
    elimination has to rescale rows it does not otherwise touch."""
    blocks = draw(
        st.lists(planted_rank(entries, max_rows=4, max_cols=4), min_size=2, max_size=3)
    )
    width = sum(len(block[0]) for block in blocks)
    out, offset = [], 0
    for block in blocks:
        for row in block:
            out.append([0] * offset + list(row) + [0] * (width - offset - len(row)))
        offset += len(block[0])
    return out


RATIONAL_MATRICES = st.one_of(
    planted_rank(),
    with_zero_lines(planted_rank()),
    block_diagonal(),
    st.integers(1, 8).flatmap(lambda rows: st.integers(1, 10).map(lambda cols: (rows, cols))).flatmap(
        lambda shape: st.lists(
            st.lists(SPARSE_RATIONALS, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]
        )
    ),
    planted_rank(SPARSE_RATIONALS),
)
INTEGER_MATRICES = st.one_of(
    planted_rank(INTEGERS),
    with_zero_lines(planted_rank(INTEGERS)),
    block_diagonal(INTEGERS),
)


class TestRankProperties:
    @settings(max_examples=200)
    @given(RATIONAL_MATRICES)
    def test_rational_rank_matches_fraction_oracle(self, rows):
        text = [[str(v) for v in row] for row in rows]  # "a/b" entries
        assert rank(scalar(rows)) == rational_rank_oracle(text)

    @pytest.mark.parametrize("p", [2, 5, 101, 32003])
    @settings(max_examples=60)
    @given(rows=INTEGER_MATRICES)
    def test_mod_p_rank_matches_oracle_and_bounds_rational_rank(self, p, rows):
        over_p = rank(scalar(rows, FieldSpec.prime_field(p)))
        assert over_p == mod_p_rank_oracle(rows, p)
        assert over_p <= rank(scalar(rows))

    def test_rescaling_rows_below_a_zero_head(self):
        # both lower rows have a zero head under the first pivot 2 and must
        # still be doubled; unscaled, the next step floors 1/2 to 0 and
        # reports rank 2
        rows = [[2, 0, 0], [0, -1, -1], [0, 1, 0]]
        assert rank(scalar(rows)) == rational_rank_oracle(rows) == 3

    def test_rows_skipped_for_several_steps(self):
        # three rows have zero heads under the first three pivots:
        # [0, 0, 0, 7, 1] then pivots, [0, 0, 0, 4, 3] is eliminated by it
        # and pivots next, and [0, 0, 0, 14, 2] becomes zero
        rows = [
            [2, 1, 0, 0, 1],
            [0, 0, 0, 7, 1],
            [0, 3, 1, 0, 2],
            [0, 0, 0, 4, 3],
            [0, 0, 5, 1, 0],
            [0, 0, 0, 14, 2],
        ]
        assert rank(scalar(rows)) == rational_rank_oracle(rows) == 5
        # a multiple of [0, 0, 0, 7, 1] too: both skipped rows become zero
        rows[3] = [0, 0, 0, 21, 3]
        assert rank(scalar(rows)) == rational_rank_oracle(rows) == 4

    def test_sparse_and_low_rank_integer_blocks(self):
        rng = random.Random(41)

        def sparse(rows, cols, density):
            return [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]

        for _ in range(400):
            rows, cols, density = rng.randint(1, 10), rng.randint(1, 10), rng.choice((0.15, 0.3, 0.6))
            if rng.random() < 0.5:
                a = sparse(rows, cols, density)
            else:
                k = rng.randint(0, min(rows, cols))
                b, c = sparse(rows, k, density), sparse(k, cols, density)
                a = [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]
            assert rank(scalar(a)) == rational_rank_oracle(a), a


QUARTIC = "x1^3 - x2^2 + x1*x2*x3 + x3^4"


class TestZeroJetClosedForm:
    """With every coordinate of order >= 1 zero, each d_k(Jac_m f) with
    k >= 1 vanishes, so D_n(Jac_m f) is block diagonal with n + 1 copies
    of Jac_m f at the base point."""

    @pytest.mark.parametrize("spec", [Q, GF101], ids=str)
    @pytest.mark.parametrize("source", ["x1^3 - x2^2", QUARTIC])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rank_is_n_plus_one_copies(self, spec, source, m):
        s = 3 if "x3" in source else 2
        jac = jac_m([parse_poly(source, s, spec)], m)
        for base in ([0] * s, [1] * s):
            base_rank = rank(eval_matrix(jac, Point.from_base(base, spec)))
            for n in range(5):
                zero_jet = Point.from_flat(base + [0] * (s * n), s, n, spec)
                got = rank(eval_matrix(dn_matrix(jac, n), zero_jet))
                assert got == (n + 1) * base_rank


def block_rule_branch(D, jet):
    """Which case of the block rule decides the rank of D = D_n(L) at the
    jet, read off the dense matrix: "full" when the diagonal block A_0 has
    rank min(b, a), "diagonal" when every block A_k with k >= 1 vanishes,
    "dense" otherwise."""
    mx = eval_matrix(D, jet)
    b, a = D.L.rows, D.L.cols
    top = [mx.values[r * mx.cols : (r + 1) * mx.cols] for r in range(b)]
    a0 = ScalarMatrix(b, a, tuple(v for row in top for v in row[:a]), jet.spec)
    if rank(a0) == min(b, a):
        return "full"
    if not any(v for row in top for v in row[a:]):
        return "diagonal"
    return "dense"


def rank_at_corpus(spec):
    """Seeded (label, D_n(L), jet) triples for every case of the block
    rule: L of full row rank (Jac_m of the cusp at a smooth base), of full
    column rank (its transpose), deficient at the zero jet and at a random
    jet over the singular origin (x1_1 = 1 keeps A_1 or A_2 nonzero, also
    over GF(2)), n = 0, L without rows or columns (at a point of the field
    with no coordinates), and random L at mixed jets."""
    rng = random.Random(f"rank-at:{spec}")
    p = spec.characteristic

    def coordinate():
        return rng.randrange(p) if p else Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    def jet(base, n, s=2):
        return Point.from_flat(list(base) + [coordinate() for _ in range(s * n)], s, n, spec)

    out = []
    for m in (1, 2):
        L = jac_m([parse_poly("x1^3 - x2^2", 2, spec)], m)
        for n in (0, 1, 3):
            out.append(("smooth", DnMatrix(L, n), jet([1, 1], n)))
            out.append(("tall", DnMatrix(transpose(L), n), jet([1, 1], n)))
            out.append(("zero", DnMatrix(L, n), Point.from_flat([0] * (2 * (n + 1)), 2, n, spec)))
            origin = jet([0, 0], n)
            if n:
                origin = Point(spec, {**origin.coords, JetVariable(1, 1): spec.element(1)})
            out.append(("origin", DnMatrix(L, n), origin))
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        for n in (0, 2):
            # a matrix without entries is over Q, the point over spec
            out.append(("empty", DnMatrix(PolyMatrix(rows, cols, ()), n), Point(spec, {})))
    for _ in range(12):
        s, n, m = rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, 2)
        f = random_base_polynomial(rng, s, 3, 5, spec, nonzero=True)
        draw = rng.choice((lambda: 0, lambda: rng.randint(-1, 1), coordinate))
        point = Point(spec, {v: spec.element(draw()) for v in jet_grid(s, n)})
        out.append(("random", DnMatrix(jac_m([f], m), n), point))
    # entries whose ambient is shorter than s = 3: x1 alone, x1 and x2,
    # and a constant in no variable
    short = PolyMatrix(
        2,
        2,
        (parse_poly("x1^2 + 1", 1, spec), parse_poly("x1*x3 - x2", 3, spec),
         Polynomial.constant(spec, 3), parse_poly("x2^2 - x1", 2, spec)),
    )
    for n in (0, 2):
        out.append(("short", DnMatrix(short, n), jet([coordinate() for _ in range(3)], n, 3)))
        out.append(("short", DnMatrix(short, n), jet([0, 0, 0], n, 3)))
    return out


class TestRankAt:
    """rank_at against the dense reference rank(eval_matrix(...)), on a
    corpus that reaches each case of the block rule."""

    @pytest.mark.parametrize("spec", [Q, GF2, GF101], ids=str)
    def test_matches_the_dense_rank(self, spec, monkeypatch):
        laid_out = []
        layout = DnMatrix.values_at

        def counting_layout(D, point):
            laid_out.append(D)
            return layout(D, point)

        reached = set()
        for label, D, jet in rank_at_corpus(spec):
            if label == "empty" and spec.characteristic:
                # an entry-less L is over Q and cannot be laid out at a GF(p)
                # point; A_0 is b x a with min(b, a) = 0
                want, branch = 0, "full"
            else:
                want, branch = rank(eval_matrix(D, jet)), block_rule_branch(D, jet)
            reached.add(branch)
            laid_out.clear()
            with monkeypatch.context() as patched:
                patched.setattr(DnMatrix, "values_at", counting_layout)
                got = rank_at(D, jet)
            assert got == want, (label, str(D.L), D.n, str(jet))
            # the dense matrix is laid out exactly when the rule does not decide
            assert laid_out == ([D] if branch == "dense" else []), (label, branch)
            if label in ("smooth", "tall", "empty"):
                assert branch == "full", label
            if label == "zero" or D.n == 0:
                assert branch != "dense", label
            if label == "origin" and D.L.rows > 1 and D.n:
                assert branch == "dense", label
        assert reached == {"full", "diagonal", "dense"}

    @pytest.mark.parametrize("spec", [Q, GF2, GF101], ids=str)
    def test_zero_jet_expands_nothing_beyond_order_0(self, spec, monkeypatch):
        # over a singular base A_0 is deficient, and a zero jet decides the
        # rank from A_0, which is evaluated at the base point without any
        # series of L
        orders = []
        values = DnMatrix.series_at

        def recording_values(D, point):
            orders.append(D.n)
            return values(D, point)

        for src, s in (("x1^3 - x2^2", 2), ("x1^3 - x2^2 + x1*x2*x3 + x3^4", 3)):
            f = parse_poly(src, s, spec)
            for m, n in ((1, 0), (2, 3), (3, 5)):
                D = DnMatrix(jac_m([f], m), n)
                zero_jet = Point.from_flat([0] * (s * (n + 1)), s, n, spec)
                want = rank(eval_matrix(D, zero_jet))
                orders.clear()
                with monkeypatch.context() as patched:
                    patched.setattr(DnMatrix, "series_at", recording_values)
                    assert rank_at(D, zero_jet) == want < min(D.rows, D.cols)
                assert orders == [], (src, m, n)

    @pytest.mark.parametrize("spec", [Q, GF2, GF101], ids=str)
    def test_base_rank_matches_the_dense_rank_at_the_base_point(self, spec):
        # A_0 = eval_matrix(L, a) at the jet against D_0(L) = L laid out
        # by Taylor mode at the base point
        for label, D, jet in rank_at_corpus(spec):
            base = Point(D.spec, {v: x for v, x in jet.coords.items() if v.order == 0})
            want = rank(eval_matrix(DnMatrix(D.L, 0), base))
            got = rank(eval_matrix(D.L, jet))
            assert got == want, (label, str(D.L), str(jet))

    def test_checks_the_point_to_order_n(self):
        # at a smooth base A_0 decides the rank, but the jet is still checked
        D = DnMatrix(jac_m([CUSP], 2), 2)
        with pytest.raises(MissingCoordinate):
            rank_at(D, Point.from_flat([1, 1, 0, 0], 2, 1, Q))
        with pytest.raises(MixedFields):
            rank_at(D, Point.from_flat([1, 1] * 3, 2, 2, GF101))


class TestPolyDet:
    def test_2x2(self):
        entries = tuple(parse_poly(e, 4, Q) for e in ("x1", "x2", "x3", "x4"))
        mx = PolyMatrix(2, 2, entries)
        found = minors(mx, 2)
        assert len(found) == 1
        assert found.values[0] == parse_poly("x1*x4 - x2*x3", 4, Q)

    def test_tridiagonal_matches_leibniz(self):
        rng = random.Random(79)
        entries = []
        for i in range(6):
            for j in range(6):
                if abs(i - j) <= 1:
                    entries.append(random_base_polynomial(rng, 2, 1, 2, Q))
                else:
                    entries.append(Polynomial.zero(Q))
        mx = PolyMatrix(6, 6, tuple(entries))
        want = leibniz_det([list(mx.row(i)) for i in range(6)], Q)
        assert not want.is_zero
        assert poly_det(mx) == want
        assert str(poly_det(mx)) == str(want)

    def test_empty_matrix(self):
        assert poly_det(PolyMatrix(0, 0, ())) == 1

    def test_singular_matrix(self):
        x = parse_poly("x1", 1, Q)
        mx = PolyMatrix(2, 2, (x, x, x, x))
        assert poly_det(mx).is_zero

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            poly_det(jac_m([CUSP], 2))

    def test_non_square_error_is_named(self):
        with pytest.raises(NotSquare) as err:
            poly_det(jac_m([CUSP], 2))
        assert type(err.value).__name__ == "NotSquare"
        assert str(err.value) == "determinant needs a square matrix"


class TestMinors:
    def test_maximal_minors_of_the_order2_jacobian(self):
        found = minors(jac_m([CUSP], 2), 3)
        assert len(found) == 10
        origin = Point.from_base([0, 0], Q)
        assert all(v.evaluate(origin).is_zero for v in found.values)
        # but not identically zero: the rank-deficiency locus is proper
        assert any(not v.is_zero for v in found.values)

    def test_all_zero_minors_iff_generic_rank_below_k(self):
        rng = random.Random(83)
        for _ in range(10):
            r1 = [random_base_polynomial(rng, 2, 2, 3, Q) for _ in range(3)]
            r2 = [random_base_polynomial(rng, 2, 2, 3, Q) for _ in range(3)]
            dependent = [a + b for a, b in zip(r1, r2)]
            mx = PolyMatrix(3, 3, tuple(r1 + r2 + dependent))
            found = minors(mx, 3)
            all_zero = all(v.is_zero for v in found.values)
            assert all_zero == (generic_rank(mx, trials=8, seed=3) < 3)

    def test_cap(self):
        zero = Polynomial.zero(Q)
        big = PolyMatrix(20, 20, tuple(zero for _ in range(400)))
        with pytest.raises(TooManyMinors) as err:
            minors(big, 10)
        assert err.value.count == 184756**2

    def test_cap_bounds_intermediate_minors(self, monkeypatch):
        # every minor of the Hilbert matrix is nonzero, so its 6x6
        # determinant stores all C(6, d) minors of its first d rows, 63 in
        # all, though it lists only one
        hilbert = (Polynomial.constant(Q, Fraction(1, i + j + 1)) for i in range(6) for j in range(6))
        dense = PolyMatrix(6, 6, tuple(hilbert))
        monkeypatch.setattr(linalg, "MINOR_CAP", 63)
        assert len(minors(dense, 6)) == 1
        monkeypatch.setattr(linalg, "MINOR_CAP", 62)
        with pytest.raises(TooManyMinors) as err:
            minors(dense, 6)
        assert err.value.count == 63

    def test_term_cap_bounds_intermediate_minors(self, monkeypatch):
        # the first row stores x1 and x2, then the determinant
        # x1*x4 - x2*x3: four terms in all
        entries = tuple(parse_poly(e, 4, Q) for e in ("x1", "x2", "x3", "x4"))
        mx = PolyMatrix(2, 2, entries)
        monkeypatch.setattr(linalg, "MINOR_TERM_CAP", 4)
        assert str(poly_det(mx)) == "x1*x4-x2*x3"
        monkeypatch.setattr(linalg, "MINOR_TERM_CAP", 3)
        with pytest.raises(TooManyMinorTerms) as err:
            poly_det(mx)
        assert err.value.count == 4
        assert str(err.value) == "intermediate minors would store at least 4 terms (cap 3)"

    def test_k0_is_one_empty_minor(self):
        for mx in (PolyMatrix(0, 0, ()), jac_m([CUSP], 2)):
            found = minors(mx, 0)
            assert found.selections == (((), ()),)
            assert found.values == (1,)

    def test_zero_rows_give_zero_minors_in_combinations_order(self):
        x = parse_poly("x1", 1, Q)
        zero = Polynomial.zero(Q)
        mx = PolyMatrix(3, 2, (x, zero, zero, zero, zero, x))
        found = minors(mx, 2)
        assert found.selections == (((0, 1), (0, 1)), ((0, 2), (0, 1)), ((1, 2), (0, 1)))
        assert [str(v) for v in found.values] == ["0", "x1^2", "0"]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            minors(jac_m([CUSP], 2), 4)


class TestGenericRank:
    def test_cusp_order2(self):
        assert generic_rank(jac_m([CUSP], 2), trials=10, seed=0) == 3

    def test_zero_matrix(self):
        mx = PolyMatrix(2, 3, tuple(Polynomial.zero(Q) for _ in range(6)))
        assert generic_rank(mx, trials=3, seed=0) == 0

    def test_blocked_matrix(self):
        assert generic_rank(dn_matrix(jac_m([CUSP], 2), 1), trials=10, seed=0) == 6

    def test_deterministic_in_seed(self):
        mx = jac_m([CUSP], 2)
        a = generic_rank(mx, trials=7, seed=42)
        b = generic_rank(mx, trials=7, seed=42)
        assert a == b

    def test_lower_bounds_matrix_size(self):
        rng = random.Random(89)
        for _ in range(10):
            f = random_base_polynomial(rng, 2, 3, 4, Q)
            mx = jac_m([f], 2)
            assert generic_rank(mx, trials=5, seed=1) <= min(mx.rows, mx.cols)

    def test_rank_at_point_vs_minors(self):
        # rank >= k at a point iff some k-minor is nonzero there
        rng = random.Random(97)
        for trial in range(8):
            entries = tuple(
                random_base_polynomial(rng, 2, 2, 2, Q) for _ in range(6)
            )
            mx = PolyMatrix(2, 3, entries)
            point = random_point(Q, mx.variables(), trial_rng(5, trial, "minor-check"))
            r = rank(eval_matrix(mx, point))
            for k in (1, 2):
                some_nonzero = any(
                    not v.evaluate(point).is_zero for v in minors(mx, k).values
                )
                assert (r >= k) == some_nonzero

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            generic_rank(jac_m([CUSP], 2), trials=0)

    @pytest.mark.parametrize("spec", [Q, GF2, GF5], ids=str)
    def test_a_dn_matrix_ranks_as_n_plus_one_times_its_l(self, spec):
        # D_n(L) is ranked as L, over the same seeded base draws
        for sources, b in ((["x1^3 - x2^2"], 1), (["x1"], 1), (["x1", "x2", "x1^2", "x1*x2"], 2)):
            entries = [parse_poly(src, 2, spec) for src in sources]
            for L in (jac_m(entries[:1], 2), PolyMatrix(b, len(entries) // b, tuple(entries))):
                for n in (0, 1, 3):
                    for trials in (1, 20):
                        for seed in range(8):
                            got = generic_rank(DnMatrix(L, n), trials, seed)
                            assert got == (n + 1) * generic_rank(L, trials, seed), (sources, n, trials, seed)

    @pytest.mark.parametrize("spec", [Q, GF5, GF32003], ids=str)
    def test_the_dense_rank_at_a_jet_is_n_plus_one_times_r_where_a0_reaches_r(self, spec):
        # r, the generic rank of L, is below min(b, a), so at a jet with
        # nonzero coordinates of positive order the block rule does not
        # decide the rank; the dense layout is the oracle.  It is at most
        # (n+1) r at every jet, and equal to it wherever rank A_0 = r
        f = parse_poly("x1^3 - x2^2 + x1*x2", 2, spec)
        cases = (
            jac_m([f, f], 2),
            PolyMatrix(2, 2, tuple(parse_poly(src, 2, spec) for src in ("x1", "x2", "x1^2", "x1*x2"))),
        )
        reached = deficient = 0
        for L in cases:
            symbolic = L.symbolic if isinstance(L, JacmMatrix) else L
            r = max(k for k in range(min(L.rows, L.cols) + 1) if any(minors(symbolic, k).values))
            assert r < min(L.rows, L.cols)
            for n in (1, 2, 3):
                D = DnMatrix(L, n)
                for trial in range(12):
                    jet = random_point(spec, D.variables(), trial_rng(trial, n, "dense-rank"))
                    if trial % 3 == 0:
                        # over the singular origin, where A_0 drops rank
                        jet = Point._make(spec, {**jet.values, (0, 1): 0, (0, 2): 0})
                    if not any(x for (order, _), x in jet.values.items() if order):
                        continue
                    dense = rank(eval_matrix(D, jet))
                    assert dense <= (n + 1) * r, (str(L), n, trial)
                    if rank(eval_matrix(L, jet)) == r:
                        assert dense == (n + 1) * r, (str(L), n, trial)
                        reached += 1
                    else:
                        deficient += 1
        assert reached and deficient

    def test_a_full_base_block_draws_no_coordinate_of_positive_order(self, monkeypatch):
        drawn = []

        def counted(rng, p):
            drawn.append(p)
            return draw(rng, p)

        draw = linalg.draw
        monkeypatch.setattr(linalg, "draw", counted)
        D = DnMatrix(jac_m([parse_poly("x1*x2", 2, Q)], 1), 10**7)
        assert generic_rank(D) == 10**7 + 1 and len(drawn) == 2
        # a deficient L draws its two base coordinates in each of 20 trials
        drawn.clear()
        D = DnMatrix(jac_m([parse_poly("x1*x2", 2, Q)] * 2, 1), 10**7)
        assert generic_rank(D) == 10**7 + 1 and len(drawn) == 40


# -- every minor against the Leibniz formula ----------------------------

MINOR_FIELDS = (Q, GF2, GF101)


def assert_minors_match_leibniz(mx):
    """Every k x k minor, for k = 0..min(rows, cols), equals the Leibniz
    determinant of its submatrix (by == and by str), and the selections
    come in itertools.combinations order."""
    for k in range(min(mx.rows, mx.cols) + 1):
        found = minors(mx, k)
        assert list(found.selections) == [
            (r, c)
            for r in itertools.combinations(range(mx.rows), k)
            for c in itertools.combinations(range(mx.cols), k)
        ]
        for (row_sel, col_sel), value in zip(found.selections, found.values):
            want = leibniz_det([[mx.at(i, j) for j in col_sel] for i in row_sel], mx.spec)
            assert value == want, (k, row_sel, col_sel)
            assert str(value) == str(want), (k, row_sel, col_sel)


@st.composite
def sparse_matrices(draw, spec):
    """Up to 5x6 with small entries, some of them zero, and some whole
    rows and columns zero."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    zero_rows = draw(st.sets(st.integers(0, 4), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=2))
    entries = []
    for i in range(rows):
        for j in range(cols):
            if i in zero_rows or j in zero_cols or draw(st.booleans()):
                entries.append(Polynomial.zero(spec))
                continue
            terms = draw(
                st.dictionaries(
                    st.tuples(st.integers(0, 2), st.integers(0, 1)),
                    st.integers(-3, 3),
                    min_size=1,
                    max_size=2,
                )
            )
            entries.append(poly_from_int_terms(2, terms, spec))
    return PolyMatrix(rows, cols, tuple(entries))


@settings(max_examples=40)
@given(st.sampled_from(MINOR_FIELDS).flatmap(sparse_matrices))
def test_minors_of_sparse_matrices_match_leibniz(mx):
    assert_minors_match_leibniz(mx)


# (s, m, n): square D_n(Jac_m f) of 3x3 and 6x6 for s = 1, and 3x6 and 3x5
# for s = 2
DN_SHAPES = [(1, 1, 2), (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 2, 0)]


@settings(max_examples=20)
@given(st.data(), st.sampled_from(MINOR_FIELDS), st.sampled_from(DN_SHAPES))
def test_minors_of_dn_matrices_match_leibniz(data, spec, shape):
    s, m, n = shape
    f = data.draw(base_polynomials(spec, s))
    assert_minors_match_leibniz(dn_matrix(jac_m([f], m), n))


def test_minors_of_the_6x10_cusp_block_matrix_match_leibniz():
    cusp = parse_poly("x1^3 - x2^2", 2, GF101)
    assert_minors_match_leibniz(dn_matrix(jac_m([cusp], 2), 1))


# -- the packed walk against the Polynomial walk -------------------------


def packed_walk_corpus(spec):
    """(label, matrix) pairs for the packed Laplace walk: exponents on the
    packing boundary, constants with base_count 0, entries with different
    base counts and orders, and D_n(L) with jet variables."""
    rng = random.Random(f"packed-walk:{spec}")

    def poly(src, s=2):
        return parse_poly(src, s, spec)

    def small():
        return random_base_polynomial(rng, 2, 2, 2, spec)

    # x1^255*x2 on the diagonal: the k x k minor on the diagonal has
    # x1^(255 k), which fills every bit of its field, next to x2^k
    boundary = [
        poly("x1^255*x2") if i == j else (poly("x1^255") if (i + j) % 3 == 0 else small())
        for i in range(4)
        for j in range(5)
    ]
    # the same with 85 = 255 / 3, so 3 * 85 fills an 8-bit field exactly
    narrow = [poly("x2^85*x1 + 1") if i == j else small() for i in range(3) for j in range(3)]
    constants = [Polynomial.constant(spec, rng.randint(-3, 3)) for _ in range(9)]
    mixed = [
        parse_poly("x1", 1, spec),
        parse_poly("x2*x3 + 1", 3, spec),
        Polynomial.constant(spec, 2),
        Polynomial.variable(spec, JetVariable(2, 1)),
        Polynomial.zero(spec),
        parse_poly("x1^2 - x1_1", 1, spec),
        parse_poly("x3^3", 3, spec),
        Polynomial.constant(spec, 5, 1),
        parse_poly("x2", 2, spec),
    ]
    cases = [
        ("boundary 4x5", PolyMatrix(4, 5, tuple(boundary))),
        ("boundary 3x3", PolyMatrix(3, 3, tuple(narrow))),
        ("constants 3x3", PolyMatrix(3, 3, tuple(constants))),
        ("constant 1x1", PolyMatrix(1, 1, (Polynomial.constant(spec, 7),))),
        ("mixed variables 3x3", PolyMatrix(3, 3, tuple(mixed))),
        ("D_2(Jac_1 f) 3x6", dn_matrix(jac_m([poly("x1^3 - x2^2 + x1*x2")], 1), 2)),
        ("D_1(Jac_2 f) 4x4", dn_matrix(jac_m([parse_poly("x1^4 - 2*x1^3 + x1", 1, spec)], 2), 1)),
    ]
    if spec == Q:
        # some products of these, such as 2/3 * 3, are integral
        halves = ("1/2*x1", "2/3", "4/3*x2", "3*x2", "3/2*x1*x2", "1/3", "x1 + 3/4", "4", "2/3*x2^2")
        cases.append(("fractions 3x3", PolyMatrix(3, 3, tuple(poly(src) for src in halves))))
    return cases


def typed_terms(terms: dict) -> dict:
    # a coefficient with its type: over Q an integral one must be an int
    return {key: (c, type(c)) for key, c in terms.items()}


@pytest.mark.parametrize("spec", MINOR_FIELDS, ids=str)
def test_packed_walk_matches_the_polynomial_walk(spec):
    """Every stored minor equals the parent walk's by its terms, their
    coefficient types and str, and takes mx.dims as its base_count and
    max_order."""
    for label, mx in packed_walk_corpus(spec):
        shape = mx.dims
        for k in range(min(mx.rows, mx.cols) + 1):
            got = linalg._laplace_walk(mx, k)
            want = laplace_walk_polynomials(mx, k, linalg.MINOR_CAP)
            assert got.keys() == want.keys(), (label, k)
            for row_sel, by_columns in want.items():
                assert got[row_sel].keys() == by_columns.keys(), (label, k, row_sel)
                for cols, value in by_columns.items():
                    minor = got[row_sel][cols]
                    if k:
                        assert (minor.base_count, minor.max_order) == shape, (label, k)
                    assert typed_terms(minor.terms) == typed_terms(value.terms), (label, k, row_sel, cols)
                    assert str(minor) == str(value), (label, k, row_sel, cols)


@pytest.mark.parametrize(
    "source, n, m",
    [
        ("x1^4 - 2*x1^3 + 3/2*x1^2", 2, 3),
        ("x1^5 + x1^3 - x1^2", 3, 2),
        ("2/3*x1^3 - x1 + 5", 8, 1),
        ("x1^7 - 3*x1^4 + x1", 1, 3),
        ("-x1^2 + 7*x1", 0, 3),
    ],
)
def test_poly_det_matches_sympy(source, n, m):
    sympy = pytest.importorskip("sympy")
    mx = dn_matrix(jac_m([parse_poly(source, 1, Q)], m), n)
    assert mx.rows == mx.cols == m * (n + 1)
    as_sympy = sympy.Matrix(
        mx.rows, mx.cols, [sympy.sympify(str(e).replace("^", "**")) for e in mx.entries]
    )
    ours = sympy.sympify(str(poly_det(mx)).replace("^", "**"))
    assert ours != 0
    assert sympy.expand(as_sympy.det() - ours) == 0


@pytest.mark.parametrize("p", [0, 2, 101, 32003])
def test_rank_matches_sympy(p):
    """rank of seeded D_n(Jac_m f) at jets against sympy: Matrix.rank over
    Q and DomainMatrix over GF(p).  A third of the jets are zero jets over
    the origin, where f * x1 * xs is singular, and a third have
    coordinates in {-1, 0, 1}, so that some matrices are rank deficient;
    the rest are random (fractions a/b over Q)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    spec = FieldSpec.prime_field(p)
    rng = random.Random(f"rank-vs-sympy:{p}")
    deficient = 0
    for trial in range(16):
        s, n, m = rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 2)
        f = random_base_polynomial(rng, s, 3, 5, spec, nonzero=True)
        if trial % 3 == 0:
            f = f * parse_poly(f"x1*x{s}", s, spec)
        draw = (
            lambda: 0,
            lambda: rng.randint(-1, 1),
            lambda: rng.randrange(p) if p else Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        )[trial % 3]
        point = Point(spec, {v: spec.element(draw()) for v in jet_grid(s, n)})
        mx = eval_matrix(DnMatrix(jac_m([f], m), n), point)
        if p:
            rows = [[sympy.ZZ(v) for v in mx.values[i * mx.cols : (i + 1) * mx.cols]] for i in range(mx.rows)]
            want = DomainMatrix(rows, (mx.rows, mx.cols), sympy.ZZ).convert_to(sympy.GF(p)).rank()
        else:
            want = sympy.Matrix(mx.rows, mx.cols, [sympy.Rational(v.numerator, v.denominator) for v in mx.values]).rank()
        assert rank(mx) == want, (str(f), n, m, str(point))
        deficient += want < min(mx.rows, mx.cols)
    assert 0 < deficient < 16
