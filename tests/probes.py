"""CLI probes: each input ends in an answer or a named error, within a bound.

Each row of PROBES runs one fresh interpreter from the repository root,
with src/ on PYTHONPATH and its address space capped at ADDRESS_SPACE,
and fails if it runs past its wall-clock bound, start-up included.  Most
rows run `python -m jetjac.cli`; a few run a script or `-c` code.  A row
passes when the exit status is the row's, and then
- with `error`: stdout is empty and stderr is one line, opened by the
  error name and ": ", or equal to `error` when `error` holds ": ";
- otherwise stderr is empty, each str of `lines` is a whole line of
  stdout, and each compiled pattern of `lines` matches somewhere in it.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q tests/probes.py

The tier-1 suite does not collect this file: pytest collects only
test_*.py files under testpaths, but always a file named on its command
line.
"""

from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 2 * 10**9  # bytes, per probe process

QUARTIC = "x1^3 - x2^2 + x1*x2*x3 + x3^4"
VERDICT = "blowup not an isomorphism (under stated assumptions)"
BIG = "1" + "0" * 3000  # a 3,001-digit m or n
TOO_MANY_DIGITS = "1" * (sys.get_int_max_str_digits() + 1)  # one more than int() reads


class Probe(NamedTuple):
    argv: tuple[str, ...]  # the interpreter's arguments
    seconds: float
    exit: int = 0
    lines: tuple[str | re.Pattern, ...] = ()
    error: str | None = None
    closed: bool = False  # stdout is a pipe whose reader has already gone


def cli(*args: str) -> tuple[str, ...]:
    return ("-m", "jetjac.cli", *args)


def json_lines(**fields) -> tuple[str, ...]:
    """The lines '  "key": value,' of an indented JSON report."""
    return tuple(f'  "{key}": {json.dumps(value)},' for key, value in fields.items())


def readme_example() -> str:
    """The README's python code blocks, as one program."""
    return "".join(re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S))


def x1_1_jet(n: int) -> str:
    """The jet of order n over x1, x2, x3 with x1_1 = 1 and every other
    coordinate 0, as a --point list."""
    return ",".join(["0", "0", "0", "1"] + ["0"] * (3 * n - 1))


# a jet lifted to order 120 over Q, order by order on one set of series,
# in O(n^2) coefficient products
LIFT_120 = f"""
from jetjac import extend_to_jet, find_smooth_point, jet_equations, on_jet_scheme, parse_poly
f = parse_poly("{QUARTIC}", 3)
jet = extend_to_jet(f, find_smooth_point(f, seed="0:0"), 120, seed="0:0")
assert on_jet_scheme(jet_equations(f, 120), jet)
"""

PROBES = [
    # the known hangs of the benchmark's `defects` workload now answer
    Probe(
        ("perfbench/run.py", "--workload", "defects", "--seconds", "1"),
        60,
        lines=(re.compile(r"^defects: .*, 0 failed,", re.M),),
    ),
    Probe(cli("hs-derive", "--f", "x1^100000+x2^100000", "--n", "30"), 20),
    # an output past the term budget ends with the named error
    Probe(cli("hs-derive", "--f", "x1^7*x2^7*x3^7*x4^7", "--n", "16"), 20, 1, error="TooManyTerms"),
    # a term holds only its own variables: one base variable of index 10^6 answers at once
    Probe(cli("hs-derive", "--f", "x1000000", "--n", "1"), 2, lines=("d_1 = x1000000_1",)),
    # 2,002 one-variable terms spread over 2,002 jet variables
    Probe(cli("hs-derive", "--f", "x1 + x2", "--n", "1000"), 5, lines=("d_1000 = x1_1000+x2_1000",)),
    # an inline matrix with one jet variable of order 10^8: the random points draw x1 and x1_100000000 alone
    Probe(
        cli("generic-rank", "--matrix", '{"rows":1,"cols":1,"entries":[["x1_100000000"]]}'),
        2,
        lines=("generic rank = 1 (probabilistic; trials=20, seed=0)",),
    ),
    # free ranks of about 60,000 digits, too long to print, in text and JSON
    Probe(cli("rank-remark", "--n", "100000", "--m", "100000"), 5, 1, error="RankTooLong"),
    Probe(cli("rank-remark", "--json", "--n", "100000", "--m", "100000"), 5, 1, error="RankTooLong"),
    # the block rule ranks D_60(Jac_3 f), 610 x 1159, from its 10 x 19 diagonal block
    Probe(
        cli("singular-check", "--f", QUARTIC, "--n", "60", "--m", "3", "--point=" + ",".join(["1", "1"] + ["0"] * 181)),
        2,
        lines=("rank = 610", "full = true"),
    ),
    Probe(
        cli("singular-check", "--f", QUARTIC, "--n", "60", "--m", "3", "--point=" + ",".join(["0"] * 183)),
        2,
        lines=("rank = 244", "full = false"),
    ),
    # long inputs are read in one pass: the 6,003-coordinate zero jet of D_2000(Jac_1 f) over GF(32003)
    Probe(
        cli(
            "singular-check", "--field", "Fp:32003", "--f", QUARTIC, "--n", "2000", "--m", "1",
            "--point=" + ",".join(["0"] * 6003),
        ),
        3,
        lines=("rank = 0", "bound = 2001", "full = false"),
    ),
    # and 6,003 fractions a/b over Q, where A_0 of full rank decides the rank
    Probe(
        cli("rank-at-point", "--matrix", f"dnl:2000:1:{QUARTIC}", "--point=" + ",".join(["-7/3", "5/2", "1"] * 2001)),
        3,
        lines=("rank = 2001",),
    ),
    # over the singular origin at x1_1 = 1, A_0 is deficient and A_1 is not, so D_n(Jac_3 f) is laid out:
    # its 1,938,190 cells at n = 100 answer, and its 190,380,190 at n = 1000 pass DENSE_CAP before any is laid out
    Probe(cli("rank-at-point", "--matrix", f"dnl:100:3:{QUARTIC}", "--point=" + x1_1_jet(100)), 3, lines=("rank = 996",)),
    Probe(cli("rank-at-point", "--matrix", f"dnl:1000:3:{QUARTIC}", "--point=" + x1_1_jet(1000)), 3, 1, error="TooManyCells"),
    # Jac_16 f, 816 x 968 cells, is the largest Jac_m of f under CELL_CAP: one pass over f, dominated cells only
    Probe(
        cli("singular-check", "--field", "Fp:32003", "--f", QUARTIC, "--n", "1", "--m", "16", "--point=0,0,0,0,0,0"),
        3,
        lines=("rank = 1360", "bound = 1632"),
    ),
    # D_40(Jac_2 f), 164 x 369 cells: each distinct entry object of Jac_2 f is expanded and printed once
    Probe(
        cli("dnl", "--f", QUARTIC, "--n", "40", "--m", "2"),
        2,
        lines=(re.compile(r"\A(?:.*\n){163}.*" + re.escape("x1*x3-2*x2, 4*x3^3+x1*x2]") + r"\n\Z"),),
    ),
    # over Q, integer Bareiss leaves rows with a zero head untouched: D_1(Jac_14 f), 1120 x 1358, at the origin
    Probe(
        cli("singular-check", "--f", QUARTIC, "--n", "1", "--m", "14", "--point=0,0,0,0,0,0"),
        2,
        lines=("rank = 910", "bound = 1120"),
    ),
    # the same zero jet over GF(32003): Jac_14 f at a point is one Taylor pass over f, with no symbolic partial
    Probe(
        cli("singular-check", "--field", "Fp:32003", "--f", QUARTIC, "--n", "1", "--m", "14", "--point=0,0,0,0,0,0"),
        2,
        lines=("rank = 910", "bound = 1120"),
    ),
    # a 3,001-digit m or n: counts too long to print are named by their digits
    Probe(cli("jacm", "--f", "x1*x2", "--m", BIG), 5, 1, error="TooManyMultiIndices"),
    Probe(cli("dnl", "--f", "x1*x2", "--n", BIG), 5, 1, error="TooManyCells"),
    Probe(cli("dnl", "--f", "x1*x2", "--n", "1", "--m", BIG), 5, 1, error="TooManyMultiIndices"),
    Probe(cli("check-fdbd", "--f", "x1*x2", "--n", BIG), 5, 1, error="TooManyCells"),
    Probe(
        cli("singular-check", "--f", "x1*x2", "--n", "1", "--m", BIG, "--point", "0,0,0,0"),
        5,
        1,
        error="TooManyMultiIndices",
    ),
    Probe(cli("generic-rank", "--matrix", f"jacm:{BIG}:x1*x2"), 5, 1, error="TooManyMultiIndices"),
    Probe(cli("rank-at-point", "--matrix", f"jacm:{BIG}:x1*x2", "--point", "0,0"), 5, 1, error="TooManyMultiIndices"),
    # each of the 20 samples of D_1(Jac_14 f) over Q is read off a nonzero partial at its base, with no matrix
    Probe(
        cli("nobile", "--json", "--f", QUARTIC, "--n", "1", "--m", "14", "--base=0,0,0"),
        2,
        lines=json_lines(rank=910, bound=1120, cokernel_rank=238, witness_rank=1120, verdict=VERDICT),
    ),
    # fact (ii) is the rank formula at the multiplicity, with no Jac_m f: Jac_40 f would have 11480 x 12340 cells
    Probe(
        cli("nobile", "--json", "--f", QUARTIC, "--n", "1", "--m", "40", "--base=0,0,0"),
        2,
        lines=json_lines(rank=21320, bound=22960, witness_rank=22960, verdict=VERDICT),
    ),
    # over GF(32003) at m = 17, one past the largest Jac_m f under the cell cap
    Probe(
        cli("nobile", "--json", "--field", "Fp:32003", "--f", QUARTIC, "--n", "1", "--m", "17", "--base=0,0,0"),
        2,
        lines=json_lines(rank=1632, bound=1938, cokernel_rank=340, witness_rank=1938, verdict=VERDICT),
    ),
    # the certificate reads its 20 samples off the base block; its witness is the zero jet over one of them
    Probe(
        cli("nobile", "--json", "--field", "Fp:32003", "--f", QUARTIC, "--n", "120", "--m", "3", "--base=0,0,0"),
        3,
        lines=json_lines(rank=484, bound=1210, cokernel_rank=1089, witness_rank=1210, verdict=VERDICT),
    ),
    # the same certificate over Q: smooth points with fractions, and no jet lifted to order 120
    Probe(
        cli("nobile", "--json", "--f", QUARTIC, "--n", "120", "--m", "3", "--base=0,0,0"),
        5,
        lines=json_lines(rank=484, bound=1210, cokernel_rank=1089, witness_rank=1210, verdict=VERDICT),
    ),
    # at n = 1000 over Q each sample is still read off the 10 x 19 base block
    Probe(
        cli("nobile", "--json", "--f", QUARTIC, "--n", "1000", "--m", "3", "--base=0,0,0"),
        5,
        lines=json_lines(rank=4004, bound=10010, cokernel_rank=9009, witness_rank=10010, verdict=VERDICT),
    ),
    # over Q the coordinate trials alone found no smooth point on these three: each line through the
    # singular origin meets V(f) again in the root of a linear h (for the E_6 surface, lines with x1 = 0)
    Probe(
        cli("nobile", "--json", "--f", "x1^2+x2^2+x3^2+x4^3", "--n", "1", "--m", "2", "--base=0,0,0,0"),
        2,
        lines=json_lines(rank=2, bound=10, cokernel_rank=18, witness_rank=10, verdict=VERDICT),
    ),
    Probe(
        cli(
            "nobile", "--json", "--f", "x1^3+x2^3+x3^3+x4^3+x5^3+x6^3+x7^3+x8^3-3*x1*x2*x3*x4", "--n", "1", "--m", "2",
            "--base=0,0,0,0,0,0,0,0",
        ),
        2,
        lines=json_lines(rank=0, bound=18, cokernel_rank=70, witness_rank=18, verdict=VERDICT),
    ),
    Probe(
        cli("nobile", "--json", "--f", "x1^2+x2^3+x3^4", "--n", "1", "--m", "2", "--base=0,0,0"),
        2,
        lines=json_lines(rank=2, bound=8, cokernel_rank=10, witness_rank=8, verdict=VERDICT),
    ),
    Probe(("-c", LIFT_120), 5),
    # over Q every sample needs a rational smooth point: 200 of them, found by lifting roots mod a small prime
    Probe(
        cli("nobile", "--json", "--f", QUARTIC, "--n", "3", "--m", "3", "--base=0,0,0", "--trials", "200"),
        10,
        lines=json_lines(rank=16, bound=40, cokernel_rank=36, witness_rank=40),
    ),
    # over GF(2^61 - 1) each of the 200 samples powers x to the p-th modulo g: 61 squarings, not p products
    Probe(
        cli(
            "nobile", "--json", "--field", "Fp:2305843009213693951", "--f", QUARTIC, "--n", "3", "--m", "3",
            "--base=0,0,0", "--trials", "200",
        ),
        5,
        lines=json_lines(rank=16, bound=40, cokernel_rank=36, witness_rank=40, verdict=VERDICT),
    ),
    # the 1001 maximal minors of the 10 x 14 Jac_4 of a cusp store 174,600 terms on the way
    Probe(
        cli("minors", "--field", "Fp:101", "--matrix", "jacm:4:x1^3 - x2^2 + x1*x2^2", "--k", "10"),
        3,
        lines=("count = 1001",),
    ),
    # the 92,378 maximal minors of the 10 x 19 Jac_3 f pass the term budget
    Probe(cli("minors", "--field", "Fp:101", "--matrix", f"jacm:3:{QUARTIC}", "--k", "10"), 10, 1, error="TooManyMinorTerms"),
    # a base index too long for int() is reported in order, after an earlier negative exponent
    Probe(
        cli("jacm", "--m", "1", "--f", f"x1^-1 + x{TOO_MANY_DIGITS}"),
        2,
        1,
        error="BadExponent: negative exponent (at position 3)",
    ),
    # a reader that closes stdout first: exit 1 and nothing on stderr
    Probe(cli("dnl", "--f", QUARTIC, "--n", "4", "--m", "2"), 10, 1, closed=True),
    # the README's library example: the three ranks it annotates "# 6", then the verdict
    Probe(("-c", readme_example()), 10, lines=(re.compile(r"\A6\n6\n6\n"), VERDICT)),
    # the terms are counted before anything of size n is allocated
    Probe(cli("hs-derive", "--f", "x1*x2", "--n", "10000000"), 2, 1, error="TooManyTerms"),
    Probe(cli("jet-equations", "--f", "x1*x2", "--n", "10000000"), 2, 1, error="TooManyTerms"),
    # 1,250,075,001 terms, counted from the cumulative terms of x2 without convolving
    Probe(cli("hs-derive", "--f", "x1*x2", "--n", "50000"), 2, 1, error="TooManyTerms"),
    # the singular base is checked without its zero jet; the witness is the one zero jet built
    Probe(
        cli("nobile", "--f", "x1^3-x2^2", "--n", "300000", "--m", "1", "--base=0,0"),
        3,
        lines=(f"verdict: {VERDICT}",),
    ),
    # each of the n + 1 components prints at least one term, so 10^9 of them pass the term budget
    Probe(cli("hs-derive", "--field", "Fp:32003", "--f", "x1^32003", "--n", "1000000000"), 2, 1, error="TooManyTerms"),
    Probe(cli("hs-derive", "--f", "5", "--n", "1000000000"), 2, 1, error="TooManyTerms"),
    Probe(cli("verify-identities", "--f", "5", "--n", "1000000000"), 2, 1, error="TooManyTerms"),
    # the witness is stored as its base point: no printed number reads its (n+1)*s zeros
    Probe(
        cli("nobile", "--f", "x1^3-x2^2", "--n", "10000000", "--m", "1", "--base=0,0"),
        3,
        lines=(f"verdict: {VERDICT}",),
    ),
    # the smooth-point search counts a coordinate line's 10^8 + 1 coefficients before building them
    Probe(cli("nobile", "--f", "x1^100000000-x2^2", "--n", "1", "--m", "2", "--base=0,0"), 3, 1, error="TooManyTerms"),
    Probe(
        cli("nobile", "--field", "Fp:32003", "--f", "x1^100000000-x2^2", "--n", "1", "--m", "2", "--base=0,0"),
        3,
        1,
        error="TooManyTerms",
    ),
    # D_n(L) is ranked as n + 1 times L, drawn over the base coordinates alone:
    # Jac_1(x1*x2) has full rank at the first point, which ends the loop
    Probe(
        cli("generic-rank", "--matrix", "dnl:10000000:1:x1*x2"),
        5,
        lines=(re.compile(r"\A" + re.escape("generic rank = 10000001 (probabilistic; trials=20, seed=0)\n")),),
    ),
    # L deficient: no jet of order n is drawn or laid out, in any of the 20 trials
    Probe(
        cli("generic-rank", "--matrix", f"dnl:40:3:{QUARTIC},{QUARTIC}"),
        3,
        lines=(re.compile(r"\A" + re.escape("generic rank = 410 (probabilistic; trials=20, seed=0)\n")),),
    ),
    Probe(
        cli("generic-rank", "--matrix", "dnl:300000:1:x1*x2,x1*x2"),
        3,
        lines=(re.compile(r"\A" + re.escape("generic rank = 300001 (probabilistic; trials=20, seed=0)\n")),),
    ),
    Probe(
        cli("generic-rank", "--matrix", "dnl:10000000:1:x1*x2,x1*x2"),
        3,
        lines=(re.compile(r"\A" + re.escape("generic rank = 10000001 (probabilistic; trials=20, seed=0)\n")),),
    ),
    # the certificate's cokernel samples keep a running minimum: 50,000 trials are linear work
    Probe(
        cli("nobile", "--f", "x1^3-x2^2", "--n", "1", "--m", "2", "--base=0,0", "--trials", "50000"),
        15,
        lines=(f"verdict: {VERDICT}",),
    ),
    # "--flag=--" passes the text "--" on every Python: before 3.13 argparse stores [] there
    Probe(cli("hs-derive", "--f=--", "--n", "1"), 2, 1, error="ParseError"),
    Probe(cli("rank-at-point", "--matrix=--", "--point", "1"), 2, 1, error="BadMatrixJSON"),
    Probe(cli("rank-at-point", "--matrix", "jacm:1:x1", "--point=--"), 2, 1, error="BadCoordinate"),
    # an abbreviated flag is left to argparse, and reads as the full one
    Probe(cli("hs-derive", "--fi", "Q", "--f", "x1", "--n", "1"), 2, lines=("d_0 = x1", "d_1 = x1_1")),
    # a negative number after a flag is its value
    Probe(cli("hs-derive", "--f", "x1", "--n", "-1"), 2, 1, error="BadJetOrder"),
    # over Q the coordinate trials solve x1^2000 = c: a small prime proves that univariate
    # squarefree, and no pseudo-remainder sequence runs on it
    Probe(
        cli("nobile", "--json", "--f", "x1^2000 - x2^2", "--n", "1", "--m", "2", "--base=0,0"),
        5,
        lines=json_lines(rank=2, bound=6, cokernel_rank=4, witness_rank=6, verdict=VERDICT),
    ),
    Probe(
        cli("nobile", "--json", "--f", "x1^2000 - x2^3", "--n", "1", "--m", "2", "--base=0,0"),
        10,
        lines=json_lines(rank=0, bound=6, cokernel_rank=4, witness_rank=6, verdict=VERDICT),
    ),
    # no trial finds a smooth rational point on these, so all 200 attempts solve their univariates, of
    # degree up to 5000; a small prime proves each squarefree one so, with no pseudo-remainder sequence
    Probe(
        cli("nobile", "--f", "x1^2 - x2^2*x3^2 + x3^997", "--n", "1", "--m", "2", "--base=0,0,0"),
        5,
        1,
        error="NoSmoothPointFound",
    ),
    Probe(
        cli("nobile", "--f", "7*x1^3 - x1^5000", "--n", "5", "--m", "3", "--base=0"), 5, 1, error="NoSmoothPointFound"
    ),
    Probe(
        cli("nobile", "--f", "7*x1^4*x2^999 - 3*x1^4*x2^33 - x1^4*x2^4", "--n", "1", "--m", "1", "--base=0,0"),
        5,
        1,
        error="NoSmoothPointFound",
    ),
]


def _probe_id(k: int, probe: Probe) -> str:
    first = probe.argv[0]
    return f"{k:02}-" + (probe.argv[2] if first == "-m" else "code" if first == "-c" else Path(first).name)


def _cap_address_space() -> None:
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("probe", PROBES, ids=[_probe_id(k, p) for k, p in enumerate(PROBES)])
def test_probe(probe: Probe):
    stdout = subprocess.PIPE
    if probe.closed:
        read, stdout = os.pipe()
        os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, *probe.argv],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=probe.seconds,
            preexec_fn=_cap_address_space,
        )
    finally:
        if probe.closed:
            os.close(stdout)
    out, err = proc.stdout or "", proc.stderr
    assert proc.returncode == probe.exit, err
    if probe.error:
        line, end, rest = err.partition("\n")
        assert (out, end, rest) == ("", "\n", ""), err
        assert line == probe.error if ": " in probe.error else line.startswith(f"{probe.error}: "), line
    else:
        assert err == ""
        shown = out.splitlines()
        for want in probe.lines:
            assert want in shown if isinstance(want, str) else want.search(out), want
