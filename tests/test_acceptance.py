"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run with -s to see them).  All comparisons are
exact; the time limits are part of the criteria."""

import json
import time
from contextlib import contextmanager

import pytest

from jetjac import (
    JetVariable,
    Point,
    PolyMatrix,
    check_commutation,
    check_fdbd,
    dn_matrix,
    eval_matrix,
    extend_to_jet,
    find_smooth_point,
    generic_cokernel_rank,
    hs_components,
    index_families,
    jac,
    jac_m,
    jet_equations,
    on_jet_scheme,
    parse_poly,
    parse_polys,
    presentation_of,
    rank,
    rank_counterexample_check,
    zero_jet_over,
)
from jetjac.cli import run
from jetjac.linalg import random_point, trial_rng

from _corpus import GF2, GF5, Q, corpus_params, poly_from_int_terms
from _oracles import divided_partial, hs_components_leibniz

CUSP_SRC = "x1^3 - x2^2"
CUSP = parse_poly(CUSP_SRC, 2, Q)

EXAMPLE_3x5 = [
    ["3*x1^2", "-2*x2", "3*x1", "0", "-1"],
    ["x1^3-x2^2", "0", "3*x1^2", "-2*x2", "0"],
    ["0", "x1^3-x2^2", "0", "3*x1^2", "-2*x2"],
]

CORPUS = corpus_params(200)  # s <= 3, deg <= 4, n <= 3, seeded


@contextmanager
def criterion(name: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < limit
    print(f"{'PASS' if within else 'FAIL'} {name} ({elapsed:.2f}s, limit {limit:g}s)")
    assert within, f"{name} took {elapsed:.2f}s, over the {limit:g}s limit"


def expected_matrix(rows, spec):
    entries = tuple(parse_poly(e, 2, spec) for row in rows for e in row)
    return PolyMatrix(len(rows), len(rows[0]), entries)


def jacm_via_cli(capsys, field: str, spec):
    argv = ["jacm", "--f", CUSP_SRC, "--m", "2", "--json"]
    if field != "Q":
        argv += ["--field", field]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    flat = [e for row in payload["entries"] for e in row]
    return PolyMatrix(payload["rows"], payload["cols"], tuple(parse_polys(flat, spec)))


def test_criterion_1_example_reproduction(capsys):
    with criterion("criterion 1: order-2 Jacobian of the cusp via the CLI", 1.0):
        got = jacm_via_cli(capsys, "Q", Q)
        assert got == expected_matrix(EXAMPLE_3x5, Q)


def test_criterion_2_size_formulas():
    import itertools
    import math

    with criterion("criterion 2: index family sizes for s <= 4, m <= 4", 1.0):
        for s in range(1, 5):
            for m in range(1, 5):
                fam = index_families(s, m)
                space = list(itertools.product(range(m + 1), repeat=s))
                assert fam.M == math.comb(m + s - 1, s)
                assert fam.N == math.comb(m + s, s) - 1
                assert sorted(fam.lambda0) == sorted(
                    a for a in space if sum(a) <= m - 1
                )
                assert sorted(fam.lambda_) == sorted(
                    a for a in space if 1 <= sum(a) <= m
                )


def test_criterion_3_commutation_identities():
    with criterion("criterion 3: derivative interchange on 200 seeded polynomials", 30.0):
        for s, n, terms in CORPUS:
            for spec in (Q, GF2, GF5):
                f = poly_from_int_terms(s, terms, spec)
                report = check_commutation(f, n)
                assert report.ok, (s, n, terms, str(spec), report)


def test_criterion_4_dual_oracle_agreement():
    with criterion("criterion 4: substitution and convolution routes agree", 30.0):
        for s, n, terms in CORPUS:
            for spec in (Q, GF2, GF5):
                f = poly_from_int_terms(s, terms, spec)
                a = hs_components(f, n)
                b = hs_components_leibniz(f, n)
                assert all(x == y for x, y in zip(a, b)), (s, n, terms, str(spec))


def test_criterion_5_block_matrix_equality():
    from jetjac import jet_jacobian

    with criterion("criterion 5: block matrix vs jet Jacobian on 50 seeded f", 30.0):
        for s, n, terms in CORPUS[:50]:
            f = poly_from_int_terms(s, terms, Q)
            report = check_fdbd([f], n)
            assert report.ok, (s, n, terms)
        for t in range(20):
            s, n, terms = CORPUS[t % 50]
            f = poly_from_int_terms(s, terms, Q)
            blocked = dn_matrix(jac([f]), n)
            direct = jet_jacobian([f], n)
            variables = sorted(set(blocked.variables()) | set(direct.variables()))
            point = random_point(Q, variables, trial_rng(7, t, "accept-5"))
            assert rank(eval_matrix(blocked, point)) == rank(eval_matrix(direct, point))


def test_criterion_6_rank_criterion_on_the_cusp():
    with criterion("criterion 6: rank criterion at singular and smooth jets", 10.0):
        tangent = {
            JetVariable(1, 0): Q.element(1),
            JetVariable(2, 0): Q.element(1),
            JetVariable(1, 1): Q.element(2),
            JetVariable(2, 1): Q.element(3),
        }
        for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
            fam = index_families(2, m)
            bound = (n + 1) * fam.M
            matrix = dn_matrix(jac_m([CUSP], m), n)
            desc = jet_equations(CUSP, n)

            singular_jet = zero_jet_over(Point.from_base([0, 0], Q), n)
            assert on_jet_scheme(desc, singular_jet)
            deficient = rank(eval_matrix(matrix, singular_jet))
            assert deficient < bound, (n, m, deficient, bound)

            smooth_jet = extend_to_jet(CUSP, tangent, n, seed=6)
            assert on_jet_scheme(desc, smooth_jet)
            full = rank(eval_matrix(matrix, smooth_jet))
            assert full == bound, (n, m, full, bound)


def test_criterion_7_free_rank_comparison():
    with criterion("criterion 7: free rank comparison for the affine line", 1.0):
        default = rank_counterexample_check(1, 2)
        assert (default.jet_ring_rank, default.tensor_rank) == (5, 4)
        assert not default.isomorphic
        order_one = rank_counterexample_check(1, 1)
        assert (order_one.jet_ring_rank, order_one.tensor_rank) == (2, 2)
        assert order_one.isomorphic


def test_criterion_8_generic_cokernel_rank():
    with criterion("criterion 8: generic cokernel rank over 20 smooth jets", 10.0):
        pres = presentation_of(CUSP, 1, 2)
        report = generic_cokernel_rank(pres, trials=20, seed=0)
        assert report.expected == 4
        assert report.samples == (4,) * 20
        assert report.all_match


def test_criterion_9_characteristic_2(capsys):
    from jetjac import jet_jacobian

    with criterion("criterion 9: criteria 1, 3 and 5 again over GF(2)", 30.0):
        # example matrix reduces entrywise: -2*x2 entries vanish, -1 becomes 1
        got = jacm_via_cli(capsys, "Fp:2", GF2)
        assert got == expected_matrix(EXAMPLE_3x5, GF2)
        assert got.at(0, 1).is_zero
        assert got.at(0, 4).constant_value() == GF2.one
        # divided powers stay defined: C(4,2) = 6 = 0 mod 2, no division
        quartic = parse_poly("x1^4", 1, GF2)
        assert divided_partial(quartic, (2,)).is_zero
        jac_m([quartic], 3)  # builds without division failures
        # commutation corpus over GF(2)
        for s, n, terms in CORPUS:
            f = poly_from_int_terms(s, terms, GF2)
            assert check_commutation(f, n).ok, (s, n, terms)
        # block-matrix equality corpus over GF(2)
        for s, n, terms in CORPUS[:50]:
            f = poly_from_int_terms(s, terms, GF2)
            assert check_fdbd([f], n).ok, (s, n, terms)
        for t in range(20):
            s, n, terms = CORPUS[t % 50]
            f = poly_from_int_terms(s, terms, GF2)
            blocked = dn_matrix(jac([f]), n)
            direct = jet_jacobian([f], n)
            variables = sorted(set(blocked.variables()) | set(direct.variables()))
            point = random_point(GF2, variables, trial_rng(9, t, "accept-9"))
            assert rank(eval_matrix(blocked, point)) == rank(eval_matrix(direct, point))


def test_criterion_10_certificate_end_to_end(capsys):
    with criterion("criterion 10: singularity certificate via the CLI", 10.0):
        argv = [
            "nobile", "--f", CUSP_SRC, "--n", "1", "--m", "2",
            "--base", "0,0", "--trials", "20", "--seed", "0", "--json",
        ]
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)

        # fact (i): the zero jet lies on the jet scheme
        desc = jet_equations(CUSP, 1)
        zjet = zero_jet_over(Point.from_base([0, 0], Q), 1)
        assert on_jet_scheme(desc, zjet)
        assert payload["membership"] is True

        # fact (ii): rank deficiency at the zero jet
        matrix = dn_matrix(jac_m([CUSP], 2), 1)
        deficient = rank(eval_matrix(matrix, zjet))
        assert deficient == payload["rank"] < payload["bound"] == 6

        # fact (iii): generic cokernel rank matches the free rank
        report = generic_cokernel_rank(presentation_of(CUSP, 1, 2), trials=20, seed=0)
        assert report.all_match
        assert payload["cokernel_rank"] == report.cokernel_rank == 4
        assert payload["expected"] == 4

        # fact (iv): rank jumps back to full at a smooth jet
        base = find_smooth_point(CUSP, seed="check")
        witness = extend_to_jet(CUSP, base, 1, seed="check")
        assert rank(eval_matrix(matrix, witness)) == 6
        assert payload["rank_jump"] is True

        assert payload["verdict"] == "blowup not an isomorphism (under stated assumptions)"
