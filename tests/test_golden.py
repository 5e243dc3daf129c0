"""Byte-identical CLI outputs against recorded golden files.

Each case is an argv; tests/golden/<name>.out holds the exit code on its
first line and the exact stdout after it.  The cases are the README
examples and one query of each benchmark template kind (seeded values
taken from the benchmark's query mix), a few small dnl: queries in
characteristic 2 and at jets with nonzero coordinates, minors at every
size, and one query of each remaining subcommand.

Record the outputs of the current code for every case that has no file
yet with
    PYTHONPATH=src python tests/test_golden.py
An existing file is overwritten only when its case is named:
    PYTHONPATH=src python tests/test_golden.py minors_dnl
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from jetjac.cli import run

GOLDEN = Path(__file__).with_name("golden")

QUARTIC = "x1^3 - x2^2 + x1*x2*x3 + x3^4"

CASES = {
    # README examples
    "readme_hs_derive": ["hs-derive", "--f", "x1^2", "--n", "2"],
    "readme_jacm": ["jacm", "--f", "x1^3 - x2^2", "--m", "2"],
    "readme_rank_at_point": ["rank-at-point", "--matrix", "dnl:1:2:x1^3 - x2^2", "--point", "1,1,2,3"],
    "readme_nobile": ["nobile", "--f", "x1^3 - x2^2", "--n", "1", "--m", "2", "--base", "0,0", "--json"],
    # one query per benchmark template kind
    "rank_at_point_dnl_q": [
        "rank-at-point", "--matrix", "dnl:3:3:-12743/729 + x1*x2*x3 + x1^3 - x2^2 + x3^4",
        "--point=8/9,-1,-2,4,-3/8,8/7,-7,0,-9,-1/2,3/4,-1/3",
    ],
    "singular_check_q": [
        "singular-check", "--field", "Q", "--f", "-3*x1*x2*x3 - 3*x1^3 - 3*x2^2 + 3*x3^4",
        "--n", "3", "--m", "3", "--point=" + ",".join(["0"] * 12),
    ],
    "singular_check_f32003": [
        "singular-check", "--field", "Fp:32003", "--f", "-3*x1*x2*x3 + 3*x1^3 + 3*x2^2 - 3*x3^4",
        "--n", "8", "--m", "3", "--point=" + ",".join(["0"] * 27),
    ],
    "generic_rank_dnl_f32003": [
        "generic-rank", "--field", "Fp:32003", "--matrix", f"dnl:4:2:{QUARTIC}", "--seed", "526283",
    ],
    "nobile_q": [
        "nobile", "--json", "--field", "Q", "--f", "x1^2 - x2^4", "--n", "1", "--m", "2",
        "--base=0,0", "--seed", "203018", "--trials", "5",
    ],
    "nobile_f101": [
        "nobile", "--json", "--field", "Fp:101", "--f", "-2*x1^3 + 2*x2^2", "--n", "3", "--m", "3",
        "--base=0,0", "--seed", "839493", "--trials", "20",
    ],
    # smooth-point sampling by root finding over GF(p), small and large p
    "nobile_cusp_f32003": [
        "nobile", "--json", "--field", "Fp:32003", "--f", "x1^3 - x2^2", "--n", "3", "--m", "3",
        "--base=0,0", "--seed", "20261018", "--trials", "20",
    ],
    "nobile_cusp_f2": [
        "nobile", "--json", "--field", "Fp:2", "--f", "x1^3 - x2^2", "--n", "2", "--m", "2",
        "--base=0,0", "--seed", "20261018", "--trials", "20",
    ],
    "nobile_cusp_f3": [
        "nobile", "--json", "--field", "Fp:3", "--f", "x1^3 - x2^2", "--n", "2", "--m", "2",
        "--base=0,0", "--seed", "20261018", "--trials", "20",
    ],
    # small extras: text reports, nonzero jets, characteristic 2, Q sampling
    "nobile_umbrella_text": [
        "nobile", "--field", "Q", "--f", "3*x1^2 + 3*x2^2*x3", "--n", "1", "--m", "2",
        "--base=0,0,0", "--seed", "873296", "--trials", "5",
    ],
    "singular_check_smooth_jet": [
        "singular-check", "--f", "x1^3 - x2^2", "--n", "1", "--m", "2", "--point", "1,1,2,3", "--json",
    ],
    "rank_at_point_dnl_gf2": ["rank-at-point", "--field", "Fp:2", "--matrix", "dnl:2:2:x1^2*x2 + x2^3", "--point", "1,1,1,0,1,1"],
    "generic_rank_dnl_q": ["generic-rank", "--matrix", "dnl:2:2:x1^3 - x2^2", "--seed", "7", "--trials", "3"],
    "minors_dnl": ["minors", "--matrix", "dnl:1:1:x1^3 - x2^2", "--k", "2"],
    "jet_equations": ["jet-equations", "--f", "x1^3 - x2^2", "--n", "3"],
    # minors at every size: all 6x6 minors of a 6x9 matrix, a square 9x9
    # determinant, and the 3x3 minors of a 3x5 matrix
    "minors_jacm_k6_f101": [
        "minors", "--json", "--field", "Fp:101", "--matrix", "jacm:3:3*x1^3 - 2*x2^2 + 5*x1*x2^2", "--k", "6",
    ],
    "minors_dnl_square_k9": ["minors", "--matrix", "dnl:2:3:x1^4 - 2*x1^3 + 3/2*x1^2", "--k", "9"],
    "minors_jacm_k3_json": ["minors", "--json", "--matrix", "jacm:2:x1^3 - x2^2", "--k", "3"],
    # the remaining subcommands
    "verify_identities": ["verify-identities", "--f", "x1^3 - x2^2 + x1*x2", "--n", "2"],
    "check_fdbd_f3": ["check-fdbd", "--field", "Fp:3", "--f", "x1^3 - x2^2", "--n", "2", "--json"],
    "dnl": ["dnl", "--f", "x1^3 - x2^2", "--n", "1", "--m", "2"],
    "rank_remark": ["rank-remark", "--n", "2", "--m", "2", "--json"],
    # symbolic d_k: Q with coefficient denominators, binomials that vanish
    # mod 2, and exponents larger than the jet order
    "hs_derive_sextic_q": [
        "hs-derive", "--f", "4*x1*x2 + 2*x1^2*x3^3 + 1/2*x1^5*x2^2 - 3*x2^4*x3^3 - 7*x3^6", "--n", "6",
    ],
    "hs_derive_f2": ["hs-derive", "--field", "Fp:2", "--f", "x1^4 + x1^2*x2^3 + x2", "--n", "5"],
    "hs_derive_large_exponent": ["hs-derive", "--f", "x1^40 - 3/2*x2^33", "--n", "6"],
    # every subcommand in the mode not pinned above, so each one is pinned
    # in both text and JSON mode
    "hs_derive_json": ["hs-derive", "--json", "--f", "x1^2*x2 - 1/3*x2^3", "--n", "3"],
    "verify_identities_json": [
        "verify-identities", "--json", "--field", "Fp:5", "--f", "x1^4 + 2*x1*x2^2", "--n", "3",
    ],
    "jacm_json": ["jacm", "--json", "--f", "x1^3 - x2^2, 1/2*x1*x2", "--m", "2"],
    "dnl_json": ["dnl", "--json", "--f", "x1^3 - x2^2", "--n", "2", "--m", "1"],
    "jet_equations_json": ["jet-equations", "--json", "--field", "Fp:7", "--f", "x1^3 - x2^2 + x1*x2", "--n", "2"],
    "rank_at_point_dnl_json": [
        "rank-at-point", "--json", "--matrix", "dnl:1:2:x1^3 - x2^2", "--point", "1,1,2,3",
    ],
    "rank_at_point_inline_json": [
        "rank-at-point", "--json", "--matrix",
        '{"rows": 2, "cols": 2, "entries": [["x1", "x2_1"], ["x1^2", "1/2*x2"]]}',
        "--point=2,-1,3,1/2",
    ],
    "generic_rank_json": [
        "generic-rank", "--json", "--matrix", "jacm:2:x1^3 - x2^2", "--seed", "3", "--trials", "4",
    ],
    "check_fdbd_text": ["check-fdbd", "--f", "x1^3 - x2^2 + x1*x2", "--n", "2"],
    "rank_remark_text": ["rank-remark", "--n", "1", "--m", "2"],
}


def capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return f"{code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    want = (GOLDEN / f"{name}.out").read_text()
    assert capture(CASES[name]) == want


def record(named: list[str]) -> None:
    """Write the missing golden files, and the files of the named cases."""
    unknown = [name for name in named if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        path = GOLDEN / f"{case}.out"
        if case in named or not path.exists():
            path.write_text(capture(argv))
            print(f"wrote {case}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:])
