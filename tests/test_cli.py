import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jetjac
from jetjac import DnMatrix, DomainError, FieldSpec, PolyMatrix, Polynomial, UnknownVariable, dn_matrix, hasse, jac_m, linalg, parse_poly, parse_polys
from jetjac.cli import build_matrix, build_parser, matrix_argument, matrix_dims, run

Q = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)

QUARTIC = "x1^3 - x2^2 + x1*x2*x3 + x3^4"
CUSP_SOURCE = "x1^3 - x2^2"

EXPECTED_JACM_LINES = [
    "[3*x1^2, -2*x2, 3*x1, 0, -1]",
    "[x1^3-x2^2, 0, 3*x1^2, -2*x2, 0]",
    "[0, x1^3-x2^2, 0, 3*x1^2, -2*x2]",
]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_subprocess(*argv, **kwargs):
    """Run the CLI in a subprocess with a 10 s timeout, which bounds the
    wall time even if the query hangs."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "jetjac.cli", *argv], env=env, timeout=10, **kwargs)


def run_within_10s(*argv):
    """Stdout of the CLI run in a subprocess; the run must exit 0."""
    done = cli_subprocess(*argv, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def parse_matrix_payload(payload, spec):
    flat = [e for row in payload["entries"] for e in row]
    return PolyMatrix(payload["rows"], payload["cols"], tuple(parse_polys(flat, spec)))


class TestMatrixCommands:
    def test_jacm_text(self, capsys):
        code, out, err = invoke(capsys, "jacm", "--f", "x1^3 - x2^2", "--m", "2")
        assert code == 0 and err == ""
        assert out.splitlines() == EXPECTED_JACM_LINES

    def test_jacm_json_round_trips(self, capsys):
        code, out, _ = invoke(capsys, "jacm", "--f", "x1^3 - x2^2", "--m", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        cusp = parse_poly("x1^3 - x2^2", 2, Q)
        assert parse_matrix_payload(payload, Q) == jac_m([cusp], 2)

    def test_jacm_over_gf2(self, capsys):
        code, out, _ = invoke(
            capsys, "jacm", "--f", "x1^3 - x2^2", "--m", "2", "--field", "Fp:2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        cusp2 = parse_poly("x1^3 - x2^2", 2, GF2)
        assert parse_matrix_payload(payload, GF2) == jac_m([cusp2], 2)

    def test_dnl_shape_and_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys, "dnl", "--f", "x1^3 - x2^2", "--n", "1", "--m", "2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["rows"], payload["cols"]) == (6, 10)
        cusp = parse_poly("x1^3 - x2^2", 2, Q)
        assert parse_matrix_payload(payload, Q) == dn_matrix(jac_m([cusp], 2), 1)

    def test_dnl_defaults_to_m1(self, capsys):
        code, out, _ = invoke(capsys, "dnl", "--f", "x1^3 - x2^2", "--n", "1", "--json")
        assert code == 0
        assert json.loads(out)["rows"] == 2


class TestDerivationCommands:
    def test_hs_derive(self, capsys):
        code, out, _ = invoke(capsys, "hs-derive", "--f", "x1^2", "--n", "2")
        assert code == 0
        assert out.splitlines() == [
            "d_0 = x1^2",
            "d_1 = 2*x1*x1_1",
            "d_2 = 2*x1*x1_2+x1_1^2",
        ]

    def test_hs_derive_with_exponents_far_above_n(self):
        # powers of a_i(t) must not cost log2(e) products of dense series
        out = run_within_10s("hs-derive", "--f", "x1^100000+x2^100000", "--n", "30")
        lines = out.splitlines()
        assert len(lines) == 31
        assert all(line.startswith(f"d_{k} = ") for k, line in enumerate(lines))

    # a power x_i^e has terms with at most e factors of positive order,
    # and over GF(p) only those whose coefficient survives: x1 gives n + 1
    # terms and x2^3 = x2 * x2^2 over GF(2) gives those of x2 * x2_j^2,
    # not one per partition of each weight <= n
    @pytest.mark.parametrize(
        "field, f, last_terms", [("Q", "x1*x2+x3", 102), ("Fp:2", "x1^1024*x2^3", 51)]
    )
    def test_hs_derive_with_n_far_above_the_exponents(self, field, f, last_terms):
        out = run_within_10s("hs-derive", "--field", field, "--f", f, "--n", "100")
        lines = out.splitlines()
        assert len(lines) == 101
        assert lines[100].count("+") == last_terms - 1

    def test_jet_equations(self, capsys):
        code, out, _ = invoke(capsys, "jet-equations", "--f", "x1^3 - x2^2", "--n", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["equations"] == ["x1^3-x2^2", "3*x1^2*x1_1-2*x2*x2_1"]

    def test_verify_identities(self, capsys):
        code, out, _ = invoke(capsys, "verify-identities", "--f", "x1^3 - x2^2", "--n", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["counterexample"] is None

    def test_check_fdbd(self, capsys):
        code, out, _ = invoke(capsys, "check-fdbd", "--f", "x1^3 - x2^2", "--n", "2")
        assert code == 0
        assert out.startswith("PASS")


class TestRankCommands:
    def test_rank_at_point_with_builder(self, capsys):
        code, out, _ = invoke(
            capsys,
            "rank-at-point",
            "--matrix",
            "jacm:2:x1^3 - x2^2",
            "--point",
            "1,1",
        )
        assert code == 0
        assert out.strip() == "rank = 3"

    def test_rank_at_point_with_dnl_builder(self, capsys):
        code, out, _ = invoke(
            capsys,
            "rank-at-point",
            "--matrix",
            "dnl:1:2:x1^3 - x2^2",
            "--point",
            "0,0,0,0",
            "--json",
        )
        assert code == 0
        assert json.loads(out) == {"rank": 2}

    def test_rank_at_point_with_inline_json(self, capsys):
        matrix = json.dumps(
            {"rows": 2, "cols": 2, "entries": [["x1", "0"], ["0", "x1"]]}
        )
        code, out, _ = invoke(
            capsys, "rank-at-point", "--matrix", matrix, "--point", "3", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"rank": 2}

    def test_minors(self, capsys):
        code, out, _ = invoke(
            capsys, "minors", "--matrix", "jacm:2:x1^3 - x2^2", "--k", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 10
        assert len(payload["minors"]) == 10

    @pytest.mark.parametrize(
        "matrix", ["jacm:2:x1^3 - x2^2", '{"rows":0,"cols":0,"entries":[]}']
    )
    def test_minors_k0_is_one_empty_minor(self, capsys, matrix):
        code, out, err = invoke(capsys, "minors", "--matrix", matrix, "--k", "0")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["count = 1", "rows [] cols []: 1"]

    def test_generic_rank(self, capsys):
        code, out, _ = invoke(
            capsys,
            "generic-rank",
            "--matrix",
            "dnl:1:2:x1^3 - x2^2",
            "--trials",
            "10",
            "--seed",
            "0",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["generic_rank"] == 6
        assert payload["probabilistic"] is True
        assert payload["seed"] == 0

    def test_build_matrix_helper(self):
        mx = build_matrix("jacm:2:x1^3 - x2^2", Q)
        assert (mx.rows, mx.cols) == (3, 5)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_matrix_dims_of_dn_l_are_s_and_n(self, n):
        D = matrix_argument(f"dnl:{n}:2:x1^3 - x2^2 + x3", Q)
        assert matrix_dims(D) == (3, n) == (max(v.base for v in D.variables()), max(v.order for v in D.variables()))

    @pytest.mark.parametrize(
        "L",
        [PolyMatrix(0, 3, ()), PolyMatrix(0, 0, ()), PolyMatrix(1, 2, (Polynomial.constant(Q, 1), Polynomial.zero(Q)))],
        ids=["no rows", "empty", "constants"],
    )
    def test_matrix_dims_of_dn_l_without_variables(self, L):
        D = DnMatrix(L, 2)
        assert D.variables() == ()
        assert matrix_dims(D) == (1, 0)


class TestOneRendering:
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "argv, printed",
        [
            # the distinct entry objects of the 20 x 45 D_4(Jac_2 f)
            (
                ["dnl", "--f", QUARTIC, "--n", "4", "--m", "2"],
                lambda: len(dn_matrix(jac_m([parse_poly(QUARTIC, 3, Q)], 2), 4).distinct),
            ),
            # C(9, 6) = 84 minors of a 6 x 9 matrix
            (["minors", "--field", "Fp:101", "--matrix", "jacm:3:3*x1^3 - 2*x2^2 + 5*x1*x2^2", "--k", "6"], lambda: 84),
        ],
        ids=["dnl", "minors"],
    )
    def test_each_polynomial_is_printed_once(self, capsys, monkeypatch, argv, printed, mode):
        calls = 0
        printer = Polynomial.__str__

        def counting_printer(self):
            nonlocal calls
            calls += 1
            return printer(self)

        expected = printed()
        monkeypatch.setattr(Polynomial, "__str__", counting_printer)
        code, _, _ = invoke(capsys, *argv, *mode)
        assert (code, calls) == (0, expected)

    def test_closed_stdout_ends_quietly(self):
        # the read end is closed before the CLI starts, so its one write
        # meets a broken pipe whatever the timing
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = cli_subprocess("dnl", "--f", QUARTIC, "--n", "4", "--m", "2", stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


class TestSchemeCommands:
    def test_singular_check_smooth_jet(self, capsys):
        code, out, _ = invoke(
            capsys,
            "singular-check",
            "--f",
            "x1^3 - x2^2",
            "--n",
            "1",
            "--m",
            "2",
            "--point",
            "1,1,2,3",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["on_scheme"] is True
        assert (payload["rank"], payload["bound"], payload["full"]) == (6, 6, True)

    def test_singular_check_zero_jet(self, capsys):
        code, out, _ = invoke(
            capsys,
            "singular-check",
            "--f",
            "x1^3 - x2^2",
            "--n",
            "1",
            "--m",
            "2",
            "--point",
            "0,0,0,0",
        )
        assert code == 0
        assert "full = false" in out

    def test_text_and_json_agree(self, capsys):
        args = [
            "singular-check",
            "--f",
            "x1^3 - x2^2",
            "--n",
            "1",
            "--m",
            "2",
            "--point",
            "1,1,2,3",
        ]
        _, text_out, _ = invoke(capsys, *args)
        _, json_out, _ = invoke(capsys, *args, "--json")
        payload = json.loads(json_out)
        assert int(re.search(r"rank = (\d+)", text_out).group(1)) == payload["rank"]
        assert int(re.search(r"bound = (\d+)", text_out).group(1)) == payload["bound"]
        assert (f"full = {str(payload['full']).lower()}") in text_out

    def test_nobile_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            "nobile",
            "--f",
            "x1^3 - x2^2",
            "--n",
            "1",
            "--m",
            "2",
            "--base",
            "0,0",
            "--trials",
            "6",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["membership"] is True
        assert payload["rank"] < payload["bound"] == 6
        assert payload["cokernel_rank"] == payload["expected"] == 4
        assert payload["rank_jump"] is True
        assert payload["verdict"] == "blowup not an isomorphism (under stated assumptions)"

    def test_nobile_deterministic(self, capsys):
        args = [
            "nobile", "--f", "x1^3 - x2^2", "--n", "1", "--m", "2",
            "--base", "0,0", "--trials", "5", "--seed", "3", "--json",
        ]
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    @staticmethod
    def assert_verdict_within_10s(*argv):
        out = run_within_10s(*argv)
        assert "verdict: blowup not an isomorphism (under stated assumptions)" in out.splitlines()

    def test_nobile_in_large_characteristic(self):
        # smooth-point sampling must not scan all p residues
        self.assert_verdict_within_10s(
            "nobile", "--field", "Fp:1000000007", "--f", "x1^3 - x2^2", "--n", "1", "--m", "1", "--base=0,0",
        )

    def test_nobile_over_q_with_huge_constant_terms(self):
        # with x2 frozen at w, the cubic in x1 has constant term w^25, up to
        # 10^25, so rational root search must not trial-divide it
        self.assert_verdict_within_10s(
            "nobile", "--f", "x1^2*x2^2 - x1^3 + x2^25 + x2^24*x1", "--n", "1", "--m", "1", "--base=0,0",
        )

    def test_rank_remark(self, capsys):
        code, out, _ = invoke(capsys, "rank-remark", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["jet_ring_rank"], payload["tensor_rank"]) == (5, 4)
        assert payload["verdict"] == "not isomorphic"

    def test_rank_remark_variant(self, capsys):
        code, out, _ = invoke(capsys, "rank-remark", "--n", "2", "--m", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["jet_ring_rank"], payload["tensor_rank"]) == (9, 6)

    def test_all_documented_subcommands_exist(self, capsys):
        from jetjac.cli import build_parser

        documented = {
            "hs-derive", "verify-identities", "jacm", "dnl", "check-fdbd",
            "jet-equations", "rank-at-point", "minors", "generic-rank",
            "singular-check", "nobile", "rank-remark",
        }
        parser = build_parser()
        actions = [
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        ]
        assert set(actions[0].choices) == documented


class TestErrorHandling:
    def test_usage_error_exit_2(self, capsys):
        code, out, err = invoke(capsys, "jacm", "--f", "x1", "--bogus")
        assert code == 2

    def test_missing_subcommand_exit_2(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == 2

    def test_domain_error_exit_1(self, capsys):
        code, out, err = invoke(
            capsys, "nobile", "--f", "x1^3 - x2^2", "--n", "1", "--m", "2", "--base", "1,1"
        )
        assert code == 1
        assert "NotSingularBase" in err

    def test_too_many_terms_exit_1(self, capsys, monkeypatch):
        # 115 terms in d_0, ..., d_6 of x1^3*x2^3 against a cap of 50
        monkeypatch.setattr(hasse, "TERM_CAP", 50)
        code, out, err = invoke(capsys, "hs-derive", "--f", "x1^3*x2^3", "--n", "6")
        assert code == 1
        assert out == ""
        assert err == "TooManyTerms: would generate at least 115 terms (cap 50)\n"

    def test_too_many_minor_terms_exit_1(self, capsys, monkeypatch):
        # the 3 x 3 minors of Jac_2 of the cusp store 40 terms on the way
        argv = ["minors", "--matrix", "jacm:2:x1^3 - x2^2", "--k", "3"]
        monkeypatch.setattr(linalg, "MINOR_TERM_CAP", 40)
        assert invoke(capsys, *argv)[0] == 0
        monkeypatch.setattr(linalg, "MINOR_TERM_CAP", 39)
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "TooManyMinorTerms: intermediate minors would store at least 40 terms (cap 39)\n"

    def test_parse_error_exit_1(self, capsys):
        code, _, err = invoke(capsys, "jacm", "--f", "x1 + $", "--m", "1")
        assert code == 1
        assert "ParseError" in err

    def test_bad_field_exit_2(self, capsys):
        code, _, _ = invoke(capsys, "jacm", "--f", "x1", "--m", "1", "--field", "Fp:6")
        assert code == 2

    def test_point_length_mismatch_exit_1(self, capsys):
        code, _, err = invoke(
            capsys, "singular-check", "--f", "x1^3 - x2^2", "--n", "1", "--m", "1",
            "--point", "0,0",
        )
        assert code == 1
        assert err == "WrongCoordinateCount: expected 4 coordinates, got 2\n"

    @pytest.mark.parametrize(
        "point, got", [("1", 1), ("1,0,1", 3), ("1,0,1,1,0", 5), ("1,0,1,1,0,0,0", 7)]
    )
    def test_dnl_point_of_the_wrong_length(self, capsys, point, got):
        # dnl:1:1 over x1, x2 has the 4 variables x1, x2, x1_1, x2_1
        code, out, err = invoke(
            capsys, "rank-at-point", "--field", "Fp:2", "--matrix", "dnl:1:1:x1^2*x2",
            "--point", point,
        )
        assert (code, out) == (1, "")
        assert err == f"WrongCoordinateCount: expected 4 coordinates, got {got}\n"

    @pytest.mark.parametrize(
        "command", [["rank-at-point", "--point", "1"], ["generic-rank"], ["minors", "--k", "1"]]
    )
    def test_dnl_of_jet_variables_is_rejected_first(self, capsys, command):
        # before any point is read, as when dnl: matrices were expanded up front
        code, out, err = invoke(capsys, command[0], "--matrix", "dnl:1:1:x1_1", *command[1:])
        assert (code, out) == (1, "")
        assert err.startswith("NotBasePolynomial: ")

    @pytest.mark.parametrize(
        "command",
        [["jet-equations", "--n", "1"], ["singular-check", "--n", "1", "--point", "0,0"], ["nobile", "--n", "1", "--base", "0"]],
        ids=lambda command: command[0],
    )
    def test_jet_variables_in_f_are_rejected_first(self, capsys, command):
        # before the point or base is read: "0,0" has the wrong length
        code, out, err = invoke(capsys, command[0], "--f", "x1*x1_1", *command[1:])
        assert (code, out) == (1, "")
        assert err.startswith("NotBasePolynomial: ")

    @pytest.mark.parametrize(
        "flags, message",
        [(["--n", "-1"], "n must be >= 0"), (["--m", "0"], "m must be >= 1"), (["--m", "-3"], "m must be >= 1")],
    )
    def test_rank_remark_names_the_flag(self, capsys, flags, message):
        code, out, err = invoke(capsys, "rank-remark", *flags)
        assert (code, out) == (1, "")
        # each range error has a class of its own, and stderr names it
        name = {"--n": "BadJetOrder", "--m": "BadDifferentialOrder"}[flags[0]]
        assert err == f"{name}: {message}\n"

    HUGE = "1" + "0" * 3000

    # every out-of-range integer flag of every subcommand, and the sizes
    # inside a builder reference, with the error class it must raise
    OUT_OF_RANGE = {
        "hs-derive --n": (["hs-derive", "--f", "x1^2", "--n", "-1"], "BadJetOrder"),
        "verify-identities --n": (["verify-identities", "--f", "x1^2", "--n", "-1"], "BadJetOrder"),
        "jacm --m": (["jacm", "--f", "x1^2", "--m", "0"], "BadDifferentialOrder"),
        "dnl --n": (["dnl", "--f", "x1^2", "--n", "-1"], "BadJetOrder"),
        "dnl --m": (["dnl", "--f", "x1^2", "--n", "1", "--m", "0"], "BadDifferentialOrder"),
        "check-fdbd --n": (["check-fdbd", "--f", "x1^2", "--n", "-1"], "BadJetOrder"),
        "jet-equations --n": (["jet-equations", "--f", "x1^2", "--n", "-1"], "BadJetOrder"),
        "rank-at-point jacm m": (["rank-at-point", "--matrix", "jacm:0:x1^2", "--point", "1"], "BadDifferentialOrder"),
        "rank-at-point dnl n": (["rank-at-point", "--matrix", "dnl:-1:1:x1^2", "--point", "1"], "BadJetOrder"),
        "rank-at-point dnl m": (["rank-at-point", "--matrix", "dnl:1:0:x1^2", "--point", "1,0"], "BadDifferentialOrder"),
        "minors --k below": (["minors", "--matrix", "jacm:1:x1^2*x2", "--k", "-1"], "BadMinorSize"),
        "minors --k above": (["minors", "--matrix", "jacm:1:x1^2*x2", "--k", "2"], "BadMinorSize"),
        "minors dnl n": (["minors", "--matrix", "dnl:-1:1:x1^2", "--k", "1"], "BadJetOrder"),
        "generic-rank --trials": (["generic-rank", "--matrix", "jacm:1:x1^2", "--trials", "0"], "BadTrialCount"),
        "generic-rank dnl n": (["generic-rank", "--matrix", "dnl:-2:1:x1^2"], "BadJetOrder"),
        "generic-rank jacm m": (["generic-rank", "--matrix", "jacm:-1:x1^2"], "BadDifferentialOrder"),
        "singular-check --n": (["singular-check", "--f", CUSP_SOURCE, "--n", "-1", "--point", "0,0"], "BadJetOrder"),
        "singular-check --m": (["singular-check", "--f", CUSP_SOURCE, "--n", "0", "--m", "0", "--point", "0,0"], "BadDifferentialOrder"),
        "nobile --n": (["nobile", "--f", CUSP_SOURCE, "--n", "-1", "--base", "0,0"], "BadJetOrder"),
        "nobile --m": (["nobile", "--f", CUSP_SOURCE, "--n", "1", "--m", "0", "--base", "0,0"], "BadDifferentialOrder"),
        "nobile --trials": (["nobile", "--f", CUSP_SOURCE, "--n", "1", "--trials", "0", "--base", "0,0"], "BadTrialCount"),
        "rank-remark --n": (["rank-remark", "--n", "-3"], "BadJetOrder"),
        "rank-remark --m": (["rank-remark", "--m", "-1"], "BadDifferentialOrder"),
        # free ranks of about 60,000 digits, more than int() converts to text
        "rank-remark huge": (["rank-remark", "--n", "100000", "--m", "100000"], "RankTooLong"),
        "rank-remark huge --json": (["rank-remark", "--json", "--n", "100000", "--m", "100000"], "RankTooLong"),
        # C(m + 2, 2) of about 6,000 digits: nobile counts generators, not cells
        "nobile --m huge": (
            ["nobile", "--f", CUSP_SOURCE, "--n", "1", "--m", "1" + "0" * 3000, "--base", "0,0"],
            "RankTooLong",
        ),
        # a 3,001-digit m or n: index-family exponents and cells of about
        # 6,000 digits, too many to print, are named by their digit count
        "jacm --m huge": (["jacm", "--f", "x1*x2", "--m", HUGE], "TooManyMultiIndices"),
        "dnl --n huge": (["dnl", "--f", "x1*x2", "--n", HUGE], "TooManyCells"),
        "dnl --m huge": (["dnl", "--f", "x1*x2", "--n", "1", "--m", HUGE], "TooManyMultiIndices"),
        "check-fdbd --n huge": (["check-fdbd", "--f", "x1*x2", "--n", HUGE], "TooManyCells"),
        "singular-check --m huge": (
            ["singular-check", "--f", "x1*x2", "--n", "1", "--m", HUGE, "--point", "0,0,0,0"],
            "TooManyMultiIndices",
        ),
        "generic-rank jacm huge": (["generic-rank", "--matrix", f"jacm:{HUGE}:x1*x2"], "TooManyMultiIndices"),
        "rank-at-point jacm huge": (
            ["rank-at-point", "--matrix", f"jacm:{HUGE}:x1*x2", "--point", "0,0"],
            "TooManyMultiIndices",
        ),
        # 45,150 x 45,450 and 861 x 12,340 cells, counted before any is built
        "jacm --m 300": (["jacm", "--f", "x1^2*x2", "--m", "300"], "TooManyCells"),
        "generic-rank jacm:3:x40": (["generic-rank", "--matrix", "jacm:3:x40"], "TooManyCells"),
    }

    def test_the_sweep_covers_every_subcommand(self):
        commands = {argv[0] for argv, _ in self.OUT_OF_RANGE.values()}
        assert commands == set(build_parser()._subparsers._group_actions[0].choices)

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
    def test_every_out_of_range_flag_names_its_error(self, capsys, case):
        # run() returns, so no exception and no traceback escaped it
        argv, name = self.OUT_OF_RANGE[case]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"{name}: ") and err.count("\n") == 1
        error_class = getattr(jetjac, name)
        assert issubclass(error_class, DomainError) and issubclass(error_class, ValueError)

    # a thousand base variables: each query answers or names its error,
    # and none ends in a traceback
    THOUSAND_VARIABLES = {
        "jacm x1000 --m 1": (["jacm", "--f", "x1000", "--m", "1"], 0, "[" + "0, " * 999 + "1]\n"),
        "rank-remark --n 1000": (
            ["rank-remark", "--n", "1000"],
            0,
            "free rank over the jet polynomial ring: 502502; free rank of the tensored module: 2002; not isomorphic\n",
        ),
        "jacm x1000 --m 2": (["jacm", "--f", "x1000", "--m", "2"], 1, "TooManyMultiIndices"),
    }

    @pytest.mark.parametrize("case", sorted(THOUSAND_VARIABLES))
    def test_a_thousand_base_variables_answer_or_name_the_error(self, capsys, case):
        argv, want_code, want = self.THOUSAND_VARIABLES[case]
        code, out, err = invoke(capsys, *argv)
        assert code == want_code
        if code:
            assert out == "" and err.startswith(f"{want}: ") and err.count("\n") == 1
            assert issubclass(getattr(jetjac, want), DomainError)
        else:
            assert (out, err) == (want, "")

    def test_a_high_order_jet_variable_draws_two_coordinates(self):
        # the point assigns x1 and x1_100000000, not the 10^8 jet variables between them
        matrix = '{"rows":1,"cols":1,"entries":[["x1_100000000"]]}'
        out = run_within_10s("generic-rank", "--matrix", matrix)
        assert out == "generic rank = 1 (probabilistic; trials=20, seed=0)\n"

    def test_an_inline_matrix_draws_no_jet_variable_it_lacks(self, capsys):
        # x2_1 occurs and x1_1 does not: the point draws x1, x2, x2_1 in that order
        matrix = '{"rows": 2, "cols": 2, "entries": [["x1^2", "x1 + x1"], ["x2_1^2 + x2_1^2", "x1 + 1"]]}'
        code, out, _ = invoke(capsys, "generic-rank", "--matrix", matrix, "--field", "Fp:3", "--trials", "2")
        assert (code, out) == (0, "generic rank = 2 (probabilistic; trials=2, seed=0)\n")

    def test_no_bare_builtin_error_is_a_domain_error(self):
        assert not issubclass(ValueError, DomainError)
        assert not issubclass(ArithmeticError, DomainError)

    # raised only by a misuse of the library, never by a CLI input
    LIBRARY_MISUSE = {
        "ShapeMismatch", "BadPower", "BadMultiIndex", "MalformedMonomial", "NotSquare",
        "NotBasePoint", "BadBaseCount", "BadCharacteristic", "BadFieldSelector",
    }

    def test_every_exception_class_is_a_domain_error_or_a_library_misuse(self):
        # every exception class the package defines, in every module
        modules = [module for module in vars(jetjac).values() if type(module) is type(jetjac)]
        defined = {
            cls
            for module in modules
            for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, BaseException) and cls.__module__ == module.__name__
        }
        domain = {cls.__name__ for cls in defined if issubclass(cls, DomainError) and cls is not DomainError}
        other = {cls.__name__ for cls in defined if not issubclass(cls, DomainError)}
        assert {module.__name__ for module in modules} >= {"jetjac.cli", "jetjac.field", "jetjac.jetscheme"}
        assert (len(domain), other) == (29, self.LIBRARY_MISUSE)

    @staticmethod
    def too_many_digits():
        """One more digit than int() converts to or from text."""
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("int() converts any number of digits here")
        return "1" * (limit + 1)

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["jacm", "--m", "1", "--f", "x1^{digits}"], "ParseError"),
            (["jacm", "--m", "1", "--f", "{digits}*x1"], "ParseError"),
            (["jacm", "--m", "1", "--f", "x1/{digits}"], "ParseError"),
            (["jacm", "--m", "1", "--f", "x{digits}"], "ParseError"),
            (["jacm", "--m", "1", "--f", "x1_{digits}"], "ParseError"),
            (["rank-at-point", "--matrix", "jacm:1:x1", "--point", "{digits}"], "BadCoordinate"),
            (["rank-at-point", "--matrix", '{{"rows": {digits}}}', "--point", "1"], "BadMatrixJSON"),
        ],
    )
    def test_an_over_long_integer_literal_is_a_named_error(self, capsys, argv, error):
        digits = self.too_many_digits()
        code, out, err = invoke(capsys, *(arg.format(digits=digits) for arg in argv))
        assert (code, out) == (1, "")
        assert err.startswith(f"{error}: ")

    def test_an_output_coefficient_too_long_to_print_is_a_named_error(self, capsys):
        # d_15(x1^e) has the coefficient C(e, 15) of about 15 log10(e) digits
        digits = self.too_many_digits()
        e = 10 ** (len(digits) // 14 + 1)
        code, out, err = invoke(capsys, "hs-derive", "--f", f"x1^{e}", "--n", "15")
        assert (code, out) == (1, "")
        assert err == "CoefficientTooLong: a coefficient or exponent has too many digits to print\n"

    @pytest.mark.parametrize(
        "p",
        [
            "318665857834031151167461",  # 399165290221 * 798330580441
            "3317044064679887385961981",  # strong pseudoprime to the bases 2..41
            str(2**89 - 1),  # a prime above the bound
        ],
    )
    def test_field_outside_the_exact_prime_range_is_a_usage_error(self, capsys, p):
        code, out, err = invoke(capsys, "jacm", "--f", "x1", "--m", "1", "--field", f"Fp:{p}")
        assert (code, out) == (2, "")
        assert "argument --field" in err

    def test_the_base_count_is_the_highest_index_named(self):
        assert [f.base_count for f in parse_polys(["x1^3 - x2^2"])] == [2]
        assert [f.base_count for f in parse_polys(["x7_2 + x3"])] == [7]
        assert [f.base_count for f in parse_polys(["5"])] == [1]
        assert [f.base_count for f in parse_polys(["x1", "x3_2", "2"])] == [3, 3, 3]
        with pytest.raises(UnknownVariable, match=r"'x0' outside x1\.\.x1 "):
            parse_polys(["x0"])
        with pytest.raises(UnknownVariable, match=r"'x0' outside x1\.\.x4 "):
            parse_polys(["x0 + x1", "x4"])

    def test_the_first_error_in_the_text_wins_over_a_long_index(self, capsys):
        # the base count is read from the tokens the parser reads, so a
        # character that starts no token is named before the index after it
        digits = self.too_many_digits()
        code, out, err = invoke(capsys, "jacm", "--m", "1", "--f", f"x1 + $ + x{digits}")
        assert (code, out) == (1, "")
        assert err == "ParseError: unexpected character '$' (at position 5)\n"

    def test_an_earlier_error_wins_over_a_long_base_index(self, capsys):
        # an index int() refuses is left out of the base count, so the
        # parser meets the negative exponent before it
        digits = self.too_many_digits()
        code, out, err = invoke(capsys, "jacm", "--m", "1", "--f", f"x1^-1 + x{digits}")
        assert (code, out) == (1, "")
        assert err == "BadExponent: negative exponent (at position 3)\n"

    def test_x0_is_an_unknown_variable(self, capsys):
        code, out, err = invoke(capsys, "jacm", "--f", "x0", "--m", "1")
        assert (code, out) == (1, "")
        assert err == "UnknownVariable: variable 'x0' outside x1..x1 (at position 0)\n"


class TestCoordinateGrammar:
    MATRIX = "jacm:1:x1^2-x2"

    @pytest.mark.parametrize("coords", ["1,2", "-3,+4", "1/2,-7/3", " 5 , 6/1 "])
    def test_accepts_integers_and_fractions(self, capsys, coords):
        code, out, err = invoke(
            capsys, "rank-at-point", "--matrix", self.MATRIX, f"--point={coords}"
        )
        assert (code, out, err) == (0, "rank = 1\n", "")

    @pytest.mark.parametrize(
        "coords", ["0.5,1e1", "1e1,2", ".5,1", "1_0,2", "1/0,2", "2/-3,1", "x,1", "1,"]
    )
    def test_rejects_other_numerals(self, capsys, coords):
        code, out, err = invoke(
            capsys, "rank-at-point", "--matrix", self.MATRIX, f"--point={coords}"
        )
        assert code == 1 and out == ""
        assert err.startswith("BadCoordinate:")

    def test_base_coordinates_use_the_same_grammar(self, capsys):
        code, _, err = invoke(
            capsys, "nobile", "--f", "x1^3 - x2^2", "--n", "1", "--base", "0,0.0"
        )
        assert code == 1
        assert err.startswith("BadCoordinate:")


class TestNegativeLeadingCoordinate:
    CASES = [
        ("rank-at-point", "--matrix", "jacm:1:x1^2-x2", "--point", "-9,1"),
        ("singular-check", "--f", "x1^2 - x2", "--n", "1", "--point", "-1,1,1,-2"),
        ("nobile", "--f", "x1^2 + 2*x1 + 1 - x2^3", "--n", "1", "--base", "-1,0", "--json"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: argv[0])
    def test_space_form_matches_equals_form(self, capsys, argv):
        joined = list(argv)
        flag = joined.index("--point" if "--point" in joined else "--base")
        joined[flag : flag + 2] = [f"{joined[flag]}={joined[flag + 1]}"]
        spaced = invoke(capsys, *argv)
        assert spaced[0] == 0 and spaced[2] == ""
        assert spaced == invoke(capsys, *joined)

    def test_missing_value_is_still_a_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "rank-at-point", "--matrix", "jacm:1:x1", "--point")
        assert code == 2


class TestInlineMatrixSchema:
    @pytest.mark.parametrize(
        "matrix",
        [
            "[[\"x1\"]]",
            "{\"rows\": 1, \"cols\": 1}",
            "{\"rows\": 1, \"cols\": 1, \"entries\": [[3]]}",
            "{\"rows\": 1, \"cols\": 1, \"entries\": [\"x1\"]}",
            "{\"rows\": 1, \"cols\": 2, \"entries\": [[\"x1\"], [\"1\"]]}",
            "{\"rows\": \"1\", \"cols\": 1, \"entries\": [[\"x1\"]]}",
            "{\"rows\": 1, \"cols\": 1, \"entries\": [[\"x1\"]]",
            "jacm:1",
            "jacm:x:x1",
            "dnl:1:x1",
        ],
        ids=[
            "not-an-object", "missing-key", "non-string-entry", "row-not-a-list",
            "ragged", "non-integer-size", "not-json",
            "jacm-without-polys", "jacm-non-integer-order", "dnl-without-polys",
        ],
    )
    def test_malformed_matrix_is_a_domain_error(self, capsys, matrix):
        code, out, err = invoke(capsys, "rank-at-point", "--matrix", matrix, "--point", "1")
        assert code == 1 and out == ""
        assert err.startswith("BadMatrixJSON:")
        assert "Traceback" not in err

    def test_empty_matrix_has_rank_zero(self, capsys):
        matrix = json.dumps({"rows": 0, "cols": 0, "entries": []})
        code, out, _ = invoke(capsys, "rank-at-point", "--matrix", matrix, "--point", "1")
        assert (code, out) == (0, "rank = 0\n")
