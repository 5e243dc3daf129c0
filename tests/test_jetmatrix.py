import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetjac import (
    DnMatrix,
    FieldSpec,
    JetVariable,
    MissingCoordinate,
    MixedFields,
    NotBasePolynomial,
    Point,
    PolyMatrix,
    Polynomial,
    ShapeMismatch,
    TooManyCells,
    check_fdbd,
    dn_matrix,
    eval_matrix,
    hs_components,
    jac,
    jac_m,
    jet_jacobian,
    jet_grid,
    parse_poly,
    rank,
    rank_at,
    reverse_blocks,
)
from jetjac import jacobian, jetmatrix
from jetjac.linalg import random_point, trial_rng

from _corpus import GF2, ORACLE_FIELDS, Q, base_polynomials, jets, random_base_polynomial

CUSP = parse_poly("x1^3 - x2^2", 2, Q)


@dataclass(frozen=True)
class BlockSpec:
    """Block layout of a (n+1)b x (n+1)a matrix of b x a blocks."""

    n: int
    b: int
    a: int

    def block(self, mx: PolyMatrix, i: int, j: int) -> PolyMatrix:
        if not (0 <= i <= self.n and 0 <= j <= self.n):
            raise IndexError(f"block ({i}, {j}) outside {self.n + 1} blocks per axis")
        entries = tuple(
            mx.at(i * self.b + r, j * self.a + c)
            for r in range(self.b)
            for c in range(self.a)
        )
        return PolyMatrix(self.b, self.a, entries)


def jp(src, s, spec=Q):
    return parse_poly(src, s, spec)


class TestDnMatrix:
    def test_n0_is_identity_on_entries(self):
        L = jac_m([CUSP], 2)
        assert dn_matrix(L, 0) == L  # order-0 renaming is the identity here

    def test_single_variable_entry(self):
        L = PolyMatrix(1, 1, (jp("x1", 1),))
        D = dn_matrix(L, 1)
        expected = PolyMatrix(
            2, 2, (jp("x1", 1), jp("x1_1", 1), Polynomial.zero(Q), jp("x1", 1))
        )
        assert D == expected

    def test_blocks_of_the_order2_jacobian(self):
        L = jac_m([CUSP], 2)
        D = dn_matrix(L, 1)
        assert (D.rows, D.cols) == (6, 10)
        spec = BlockSpec(1, 3, 5)
        top_right = spec.block(D, 0, 1)
        entrywise_d1 = PolyMatrix(
            L.rows, L.cols, tuple(hs_components(e, 1)[1] for e in L.entries)
        )
        assert top_right == entrywise_d1
        assert top_right.at(0, 0) == jp("6*x1*x1_1", 2)

    def test_upper_block_triangular_with_equal_diagonal(self):
        rng = random.Random(47)
        for _ in range(8):
            s = rng.randint(1, 2)
            n = rng.randint(0, 3)
            f = random_base_polynomial(rng, s, 3, 4, Q)
            L = jac([f])
            D = dn_matrix(L, n)
            spec = BlockSpec(n, L.rows, L.cols)
            diagonal = spec.block(D, 0, 0)
            for i in range(n + 1):
                for j in range(n + 1):
                    block = spec.block(D, i, j)
                    if j < i:
                        assert all(e.is_zero for e in block.entries)
                    elif j == i:
                        assert block == diagonal

    def test_block_rule_matches_components(self):
        f = parse_poly("x1^2*x2", 2, Q)
        L = jac([f])
        n = 2
        D = dn_matrix(L, n)
        spec = BlockSpec(n, L.rows, L.cols)
        expansions = [hs_components(e, n) for e in L.entries]
        for i in range(n + 1):
            for j in range(i, n + 1):
                block = spec.block(D, i, j)
                for idx, ex in enumerate(expansions):
                    assert block.entries[idx] == ex[j - i]

    def test_expands_each_entry_object_once(self, monkeypatch):
        # Jac_3 of the quartic has 190 entries but 21 distinct objects
        expanded = []
        components = jetmatrix.hs_components

        def counting_components(g, n):
            expanded.append(g)
            return components(g, n)

        monkeypatch.setattr(jetmatrix, "hs_components", counting_components)
        L = jac_m([jp("x1^3 - x2^2 + x1*x2*x3 + x3^4", 3)], 3)
        D = dn_matrix(L, 2)
        assert [id(g) for g in expanded] == [id(g) for g in L.distinct]
        assert (len(L.entries), len(expanded)) == (190, 21)
        spec = BlockSpec(2, L.rows, L.cols)
        for i in range(3):
            for j in range(i, 3):
                assert spec.block(D, i, j).entries == tuple(components(e, 2)[j - i] for e in L.entries)


class TestExactScalarsOverQ:
    """Every raw value over Q is an int or a Fraction, never a float or a
    FieldElement; a field element's value is an int when it is integral."""

    @settings(max_examples=60)
    @given(st.data())
    def test_components_values_and_taylor_mode(self, data):
        s = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(0, 3))
        f = data.draw(base_polynomials(Q, s))
        point = data.draw(jets(Q, s, n))
        exact = (int, Fraction)
        components = hs_components(f, n)
        assert all(type(c) in exact for comp in components for c in comp.terms.values())
        for comp in components:
            v = comp.evaluate(point).value
            assert type(v) is int or (type(v) is Fraction and v.denominator > 1)
        assert all(type(v) in exact for v in eval_matrix(DnMatrix(jac_m([f], 2), n), point).values)


@st.composite
def dn_cases(draw):
    """(L, n, point): L = Jac_m of one or two random polynomials, n <= 5,
    m <= 3, and a zero or random jet over the variables of D_n(L)."""
    spec = draw(st.sampled_from(ORACLE_FIELDS))
    s = draw(st.integers(1, 3))
    n = draw(st.integers(0, 5))
    m = draw(st.integers(1, 3))
    fs = draw(st.lists(base_polynomials(spec, s), min_size=1, max_size=2))
    return jac_m(fs, m), n, draw(jets(spec, s, n))


class TestDnMatrixAt:
    """Taylor mode against the symbolic oracle eval_matrix(dn_matrix(...))."""

    @settings(max_examples=100)
    @given(dn_cases())
    def test_matches_the_symbolic_path_entry_for_entry(self, case):
        L, n, point = case
        got = eval_matrix(DnMatrix(L, n), point)
        want = eval_matrix(dn_matrix(L, n), point)
        assert got == want
        assert all(type(v) in (int, Fraction) for v in got.values + want.values)

    @settings(max_examples=50)
    @given(dn_cases())
    def test_unexpanded_shape_and_grid_match_dn_matrix(self, case):
        L, n, _ = case
        D = dn_matrix(L, n)
        lazy = DnMatrix(L, n)
        s = max(v.base for v in L.variables())
        assert lazy.variables() == jet_grid(s, n)
        assert set(D.variables()) <= set(lazy.variables())
        assert (D.rows, D.cols, D.spec) == (lazy.rows, lazy.cols, lazy.spec)

    def test_p_th_powers_over_gf2(self):
        # Jac = [0, x1^2] in characteristic 2, and (x1 + x1_1 t + x1_2 t^2)^2
        # = x1^2 + x1_1^2 t^2, so d_1(x1^2) vanishes
        L = jac_m([parse_poly("x1^2*x2", 2, GF2)], 1)
        point = Point.from_flat([1, 1, 1, 0, 1, 1], 2, 2, GF2)
        got = eval_matrix(DnMatrix(L, 2), point)
        assert got == eval_matrix(dn_matrix(L, 2), point)
        assert str(got) == "\n".join(
            ["[0, 1, 0, 0, 0, 1]", "[0, 0, 0, 1, 0, 0]", "[0, 0, 0, 0, 0, 1]"]
        )

    def test_rejects_what_the_symbolic_path_rejects(self):
        L = jac_m([CUSP], 2)
        gf5 = Point.from_flat([0] * 4, 2, 1, FieldSpec.prime_field(5))
        short = Point.from_base([0, 0], Q)
        for point, error in ((gf5, MixedFields), (short, MissingCoordinate)):
            with pytest.raises(error):
                eval_matrix(dn_matrix(L, 1), point)
            with pytest.raises(error):
                eval_matrix(DnMatrix(L, 1), point)
        jet_entry = PolyMatrix(1, 1, (jp("x1_1", 1),))
        for build in (dn_matrix, DnMatrix):
            with pytest.raises(NotBasePolynomial):
                build(jet_entry, 1)
            with pytest.raises(ValueError):
                build(L, -1)
        with pytest.raises(NotBasePolynomial):
            eval_matrix(DnMatrix(jet_entry, 1), Point.from_flat([0, 0], 1, 1, Q))

    def test_checks_each_entry_object_once(self, monkeypatch):
        # Jac_3 of the quartic has 190 entries but 21 distinct objects
        checked = []
        require = jetmatrix._require_base

        def counting_require(g):
            checked.append(g)
            return require(g)

        monkeypatch.setattr(jetmatrix, "_require_base", counting_require)
        L = jac_m([jp("x1^3 - x2^2 + x1*x2*x3 + x3^4", 3)], 3)
        assert DnMatrix(L, 2).s == 3
        assert (len(L.entries), len(checked)) == (190, 21)
        assert {id(g) for g in checked} == {id(g) for g in L.entries}


class TestCellCap:
    def test_only_the_symbolic_matrix_is_counted(self, monkeypatch):
        # D_2(Jac_2 cusp) has 9 x 15 = 135 cells; at a point it is never laid out
        L = jac_m([CUSP], 2)
        monkeypatch.setattr(jacobian, "CELL_CAP", 135)
        assert dn_matrix(L, 2).rows == 9
        monkeypatch.setattr(jacobian, "CELL_CAP", 134)
        with pytest.raises(TooManyCells):
            dn_matrix(L, 2)
        jet = Point.from_flat([1, 1] + [0] * 4, 2, 2, Q)
        assert rank_at(DnMatrix(L, 2), jet) == 9


class TestJetJacobian:
    def test_n0_is_jac(self):
        assert jet_jacobian([CUSP], 0) == jac([CUSP])

    def test_cells_are_counted_before_any_component(self, monkeypatch):
        # 2 x 4 cells at n = 1; at n = 10^9, 2 * (10^9 + 1)^2 cells, refused at once
        monkeypatch.setattr(jacobian, "CELL_CAP", 8)
        J = jet_jacobian([CUSP], 1)
        assert (J.rows, J.cols) == (2, 4)
        monkeypatch.setattr(jacobian, "CELL_CAP", 7)
        with pytest.raises(TooManyCells):
            jet_jacobian([CUSP], 1)
        monkeypatch.undo()

        def unreachable(*args):
            raise AssertionError("a component was built")

        monkeypatch.setattr(jetmatrix, "hs_components", unreachable)
        with pytest.raises(TooManyCells, match=r"^a 1000000001 x 2000000002 matrix has "):
            jet_jacobian([CUSP], 10**9)

    def test_cusp_n1(self):
        expected = PolyMatrix(
            2,
            4,
            (
                jp("3*x1^2", 2),
                jp("-2*x2", 2),
                Polynomial.zero(Q),
                Polynomial.zero(Q),
                jp("6*x1*x1_1", 2),
                jp("-2*x2_1", 2),
                jp("3*x1^2", 2),
                jp("-2*x2", 2),
            ),
        )
        assert jet_jacobian([CUSP], 1) == expected

    def test_blocks_are_components_of_jac(self):
        # block (k, j) equals d_{k-j} applied to the usual Jacobian
        rng = random.Random(53)
        for _ in range(6):
            s = rng.randint(1, 2)
            n = rng.randint(0, 3)
            f = random_base_polynomial(rng, s, 4, 4, Q)
            J = jet_jacobian([f], n)
            spec = BlockSpec(n, 1, s)
            expansions = [hs_components(e, n) for e in jac([f]).entries]
            for k in range(n + 1):
                for j in range(n + 1):
                    block = spec.block(J, k, j)
                    if j > k:
                        assert all(e.is_zero for e in block.entries)
                    else:
                        for idx, ex in enumerate(expansions):
                            assert block.entries[idx] == ex[k - j]


class TestReverseBlocks:
    def test_involution(self):
        D = dn_matrix(jac([CUSP]), 2)
        twice = reverse_blocks(reverse_blocks(D, 1, 2), 1, 2)
        assert twice == D

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch) as err:
            reverse_blocks(jac([CUSP]), 2, 2)
        assert str(err.value) == "a 1 x 2 matrix is not made of 2 x 2 blocks"


class TestCheckFdbd:
    def test_cusp(self):
        assert check_fdbd([CUSP], 2).ok

    def test_n0_trivial(self):
        assert check_fdbd([CUSP], 0).ok

    def test_smooth_hypersurface(self):
        assert check_fdbd([parse_poly("x1*x2 - 1", 2, Q)], 3).ok

    def test_several_polynomials(self):
        fs = [parse_poly("x1^2 + x2", 2, Q), parse_poly("x1*x2", 2, Q)]
        assert check_fdbd(fs, 2).ok

    def test_random_corpus(self):
        rng = random.Random(59)
        for _ in range(15):
            s = rng.randint(1, 3)
            n = rng.randint(0, 3)
            f = random_base_polynomial(rng, s, 4, 4, Q)
            report = check_fdbd([f], n)
            assert report.ok, (str(f), n)

    def test_char_2(self):
        f = parse_poly("x1^3 - x2^2", 2, GF2)
        assert check_fdbd([f], 2).ok

    def test_entry_multisets_agree(self):
        f = parse_poly("x1^3 + x1*x2", 2, Q)
        n = 2
        blocked = dn_matrix(jac([f]), n)
        direct = jet_jacobian([f], n)
        assert Counter(map(str, blocked.entries)) == Counter(map(str, direct.entries))

    def test_rank_invariant_under_the_permutation(self):
        f = CUSP
        n = 2
        blocked = dn_matrix(jac([f]), n)
        direct = jet_jacobian([f], n)
        variables = jet_grid(2, n)
        for t in range(6):
            point = random_point(Q, variables, trial_rng(0, t, "fdbd-rank"))
            assert rank(eval_matrix(blocked, point)) == rank(eval_matrix(direct, point))

    def test_report_describes_the_permutation(self):
        report = check_fdbd([CUSP], 1)
        assert "block row" in report.permutation
        assert report.block_shape == (1, 2)
