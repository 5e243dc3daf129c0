"""Seeded query mixes, one per workload, each query with its output check.

A workload is a fixed cycle of query templates.  The seed only draws the
values inside each template (points, coefficients, scalings, sampling
seeds), so every seed asks for the same amount of work and the latency
percentiles land on the same templates.

Every check uses a reference that does not come from jetjac: closed
forms for ranks, bounds and counts, the expected-answers file for ranks
at singular points (built by expected.py and cross-checked against
sympy), and, for printed derivation components, their values at a random
jet against a truncated power series computed by algebra.py.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import algebra

QUARTIC = "x1^3 - x2^2 + x1*x2*x3 + x3^4"
CUSP = "x1^3 - x2^2"
VERDICT = "blowup not an isomorphism (under stated assumptions)"
EXPECTED_FILE = Path(__file__).with_name("expected.json")
CYCLE_S = 2.5  # a cycle of any workload takes 2.3-3.1 s at the reference speed (speed.py)

# Hypersurfaces with a singular point at the origin.  The ranks of their
# block matrices at the zero jet over the origin go in expected.json.
SINGULAR = {
    "cusp": CUSP,
    "quartic": QUARTIC,
    "a3": "x1^2 - x2^4",
    "e6": "x1^3 + x2^4",
    "umbrella": "x1^2 - x2^2*x3",
}


@dataclass(frozen=True)
class Query:
    template: str
    argv: list[str]
    check: Callable[[str], str | None]  # stdout -> failure message, or None


def field_arg(p: int) -> str:
    return f"Fp:{p}" if p else "Q"


def base_count(terms: dict) -> int:
    return max(i for mono in terms for (i, _), _ in mono)


def zero_jet_key(name: str, n: int, m: int, p: int) -> str:
    return f"{name}:n={n}:m={m}:{field_arg(p)}"


@functools.cache
def expected_table() -> dict:
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)["zero_jet_rank"]


def expected_zero_jet_rank(name: str, n: int, m: int, p: int) -> int:
    return expected_table()[zero_jet_key(name, n, m, p)]


# -- seeded values -----------------------------------------------------


def coordinate(rng: random.Random) -> Fraction:
    """A point coordinate: an integer or an a/b fraction, half of each."""
    num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(2, 9)) if rng.random() < 0.5 else Fraction(num)


def coords_arg(values) -> str:
    # "--point=<coords>": a value list starting with "-" would be read as a flag
    return ",".join(str(v) for v in values)


def rescaled(name: str, rng: random.Random) -> dict:
    """c * f(l_1 x_1, ..., l_s x_s) for a named singular f.  Scaling the
    equation and the variables multiplies Jac_m at the origin by
    invertible diagonal matrices on both sides, so its rank and the
    expected answers stay those of f.  The variables only change sign:
    larger scalings make rational points of V(f) rarer and the smooth-point
    search over Q much slower."""
    terms = algebra.parse(SINGULAR[name], 0)
    s = base_count(terms)
    scale = rng.choice([-3, -2, -1, 1, 2, 3])
    lam = {i: rng.choice([-1, 1]) for i in range(1, s + 1)}
    return algebra.substitute(terms, scale, lam)


def random_terms(support: list[str], rng: random.Random) -> dict:
    """Fixed monomial support, seeded nonzero coefficients over Q."""
    terms = {}
    for mono_text in support:
        (mono,) = algebra.parse(mono_text, 0)
        terms[mono] = Fraction(rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 4, 6]), rng.choice([1, 1, 1, 2]))
    return terms


# -- checks -----------------------------------------------------------


def _line_value(out: str, key: str) -> str | None:
    m = re.search(rf"^{re.escape(key)} = (.*)$", out, re.MULTILINE)
    return m.group(1) if m else None


def expect_lines(expected: dict[str, str]) -> Callable[[str], str | None]:
    def check(out: str):
        for key, want in expected.items():
            got = _line_value(out, key)
            if got != want:
                return f"{key} = {got!r}, expected {want!r}"
        return None

    return check


def expect_prefix(prefix: str) -> Callable[[str], str | None]:
    def check(out: str):
        return None if out.startswith(prefix) else f"output {out[:120]!r} does not start with {prefix!r}"

    return check


def expect_components(terms: dict, n: int, p: int, rng: random.Random) -> Callable[[str], str | None]:
    """Printed d_0..d_n evaluated at a random jet must equal the t^k
    coefficients of f(a(t)) at that jet (the derivation's defining
    property); a wrong term survives this with probability ~ deg / range."""
    s = base_count(terms)
    jet = {(i, j): rng.randint(-50, 50) for i in range(1, s + 1) for j in range(n + 1)}

    def check(out: str):
        want = algebra.series_coefficients({k: algebra.reduce(c, p) for k, c in terms.items()}, jet, n, p)
        lines = out.rstrip("\n").split("\n")
        if len(lines) != n + 1:
            return f"{len(lines)} components printed, expected {n + 1}"
        for k, line in enumerate(lines):
            head = f"d_{k} = "
            if not line.startswith(head):
                return f"line {k} is {line[:60]!r}"
            got = algebra.evaluate(algebra.parse(line[len(head):], p), jet, p)
            if got != want[k]:
                return f"d_{k} evaluates to {got} at the check jet, expected {want[k]}"
        return None

    return check


def expect_json(expected: dict) -> Callable[[str], str | None]:
    def check(out: str):
        try:
            got = json.loads(out)
        except ValueError:
            return f"output is not JSON: {out[:120]!r}"
        for key, want in expected.items():
            if got.get(key) != want:
                return f"{key} = {got.get(key)!r}, expected {want!r}"
        return None

    return check


# -- query builders ---------------------------------------------------


def rank_at_smooth_point(template: str, base: str, n: int, m: int, rng: random.Random) -> Query:
    """rank-at-point of D_n(Jac_m(g)) at a random rational jet whose base
    point P is a smooth point of V(g), where g = f - f(P).  At such a
    point Jac_m(g) has full row rank M (ordered by degree, the columns
    beta + e_i with g_{x_i}(P) != 0 give a triangular minor), so the
    block upper-triangular D_n has rank (n + 1) M."""
    f = algebra.parse(base, 0)
    s = base_count(f)
    while True:
        point = {(i, 0): coordinate(rng) for i in range(1, s + 1)}
        if any(algebra.evaluate(algebra.partial(f, (i, 0)), point, 0) for i in range(1, s + 1)):
            break
    g = dict(f)
    shift = -algebra.evaluate(f, point, 0)
    if shift:
        g[()] = shift
    values = [point[(i, 0)] for i in range(1, s + 1)] + [coordinate(rng) for _ in range(s * n)]
    M, _ = algebra.families(s, m)
    return Query(
        template,
        ["rank-at-point", "--matrix", f"dnl:{n}:{m}:{algebra.render(g)}", f"--point={coords_arg(values)}"],
        expect_lines({"rank": str((n + 1) * M)}),
    )


def singular_check_zero_jet(template: str, name: str, n: int, m: int, p: int, rng: random.Random) -> Query:
    """singular-check at the zero jet over the singular origin: on the
    scheme, rank from expected.json, bound (n + 1) M, not full."""
    g = rescaled(name, rng)
    s = base_count(algebra.parse(SINGULAR[name], 0))
    M, _ = algebra.families(s, m)
    return Query(
        template,
        [
            "singular-check", "--field", field_arg(p), "--f", algebra.render(g),
            "--n", str(n), "--m", str(m), f"--point={coords_arg([0] * (s * (n + 1)))}",
        ],
        expect_lines(
            {
                "on_scheme": "true",
                "rank": str(expected_zero_jet_rank(name, n, m, p)),
                "bound": str((n + 1) * M),
                "full": "false",
            }
        ),
    )


def generic_rank(template: str, base: str, n: int, m: int, p: int, rng: random.Random) -> Query:
    """generic-rank of D_n(Jac_m(f)): (n + 1) M, since Jac_m(f) has full
    row rank at every smooth point of V(f) and so at a generic point."""
    s = base_count(algebra.parse(base, 0))
    M, _ = algebra.families(s, m)
    seed = rng.randrange(10**6)
    return Query(
        template,
        ["generic-rank", "--field", field_arg(p), "--matrix", f"dnl:{n}:{m}:{base}", "--seed", str(seed)],
        expect_prefix(f"generic rank = {(n + 1) * M} (probabilistic; trials=20, seed={seed})"),
    )


def nobile(template: str, name: str, n: int, m: int, p: int, trials: int, rng: random.Random) -> Query:
    """nobile --json over the singular origin of a rescaled singular f:
    verdict string, zero-jet rank from expected.json, bound (n + 1) M,
    cokernel rank equal to gens - rels = (n + 1)(N - M), and a witness
    jet of full rank."""
    g = rescaled(name, rng)
    s = base_count(algebra.parse(SINGULAR[name], 0))
    M, N = algebra.families(s, m)
    bound = (n + 1) * M
    return Query(
        template,
        [
            "nobile", "--json", "--field", field_arg(p), "--f", algebra.render(g), "--n", str(n), "--m", str(m),
            f"--base={coords_arg([0] * s)}", "--seed", str(rng.randrange(10**6)), "--trials", str(trials),
        ],
        expect_json(
            {
                "verdict": VERDICT,
                "membership": True,
                "rank": expected_zero_jet_rank(name, n, m, p),
                "bound": bound,
                "expected": (n + 1) * (N - M),
                "cokernel_rank": (n + 1) * (N - M),
                "witness_rank": bound,
            }
        ),
    )


def components(template: str, command: str, support: list[str], n: int, p: int, rng: random.Random) -> Query:
    """hs-derive or jet-equations: d_0..d_n of a seeded f, checked at a jet."""
    f = random_terms(support, rng)
    return Query(
        template,
        [command, "--field", field_arg(p), "--f", algebra.render(f), "--n", str(n)],
        expect_components(f, n, p, rng),
    )


def identities(template: str, command: str, support: list[str], n: int, p: int, rng: random.Random) -> Query:
    """verify-identities (s (n+1)(n+2)/2 cases) or check-fdbd (n + 1
    blocks of 1 x s): both must report PASS."""
    f = random_terms(support, rng)
    s = base_count(f)
    if command == "verify-identities":
        prefix = f"PASS: derivative interchange holds in all {s * (n + 1) * (n + 2) // 2} cases"
    else:
        prefix = (
            "PASS: block matrix of the Jacobian equals the jet Jacobian after reversing "
            f"block row and block column order ({n + 1} blocks of 1x{s} per axis)"
        )
    return Query(
        template,
        [command, "--field", field_arg(p), "--f", algebra.render(f), "--n", str(n)],
        expect_prefix(prefix),
    )


def minors(template: str, support: list[str], n: int | None, m: int, k: int, p: int, rng: random.Random) -> Query:
    """All k x k minors of D_n(Jac_m(f)) (of Jac_m(f) when n is None):
    C(r, k) C(c, k) of them."""
    f = random_terms(support, rng)
    M, N = algebra.families(base_count(f), m)
    if n is None:
        spec, rows, cols = f"jacm:{m}:{algebra.render(f)}", M, N
    else:
        spec, rows, cols = f"dnl:{n}:{m}:{algebra.render(f)}", (n + 1) * M, (n + 1) * N
    return Query(
        template,
        ["minors", "--field", field_arg(p), "--matrix", spec, "--k", str(k)],
        expect_lines({"count": str(math.comb(rows, k) * math.comb(cols, k))}),
    )


# -- workloads --------------------------------------------------------

QUARTIC_SUPPORT = ["x1^3", "x2^2", "x1*x2*x3", "x3^4"]
SEXTIC_SUPPORT = ["x1^5*x2^2", "x2^4*x3^3", "x1^2*x3^3", "x3^6", "x1*x2"]
CUSP_SUPPORT = ["x1^3", "x2^2", "x1*x2^2"]
P_SMALL, P_LARGE = 101, 32003

# Sorted by latency, a cycle of c queries puts the median at rank c/2 and
# the 90th percentile near rank 0.9c.  Each cycle is laid out so that the
# queries around those two ranks share one template: a few cheap queries,
# then four or five of the median template, then two of the tail template.


def point_q(rng, tiny):
    """Exact rank over Q.  Rank-deficient matrices with integer entries at
    the zero jet over the singular origin hold the median; full-rank ones
    at rational points with a/b coordinates hold the tail."""
    n2, n3, n4, m3 = (1, 1, 1, 2) if tiny else (2, 3, 4, 3)
    return (
        [singular_check_zero_jet("sing_quartic_n4m2", "quartic", n4, 2, 0, rng),
         rank_at_smooth_point("rank_n4m2", QUARTIC, n4, 2, rng),
         singular_check_zero_jet("sing_quartic_n2m3", "quartic", n2, m3, 0, rng)]
        + [singular_check_zero_jet("sing_quartic_n3m3", "quartic", n3, m3, 0, rng) for _ in range(5)]
        + [rank_at_smooth_point("rank_n3m3", QUARTIC, n3, m3, rng) for _ in range(2)]
    )


def jets_fp(rng, tiny):
    """Large jet orders over GF(32003): building and evaluating D_n(L)
    costs more than the rank mod p."""
    p = P_LARGE
    n4, n8, n12, m3, m4 = (1, 1, 1, 2, 2) if tiny else (4, 8, 12, 3, 4)
    return (
        [generic_rank(f"generic_n4m{m}", QUARTIC, n4, m, p, rng) for m in (1, 2, m4)]
        + [generic_rank("generic_n8m3", QUARTIC, n8, m3, p, rng)]
        + [singular_check_zero_jet("sing_quartic_n8m3", "quartic", n8, m3, p, rng) for _ in range(4)]
        + [singular_check_zero_jet("sing_quartic_n12m3", "quartic", n12, m3, p, rng) for _ in range(2)]
    )


def certificate(rng, tiny):
    """nobile certificates: smooth-point sampling, jet lifting and many
    small evaluations and ranks, over Q, GF(101) and GF(32003).  The Q
    cases take 5 trials and small (n, m), since their smooth-point search
    varies most in cost; the prime-field cases take the default 20 (21
    jet lifts per certificate)."""
    n3, m3 = (1, 2) if tiny else (3, 3)
    return (
        [nobile(f"nobile_{name}_q", name, 1, 2, 0, 5, rng) for name in ("umbrella", "a3", "e6")]
        + [nobile("nobile_quartic_q", "quartic", 1, 1, 0, 5, rng)]
        + [nobile("nobile_cusp_f101", "cusp", n3, m3, P_SMALL, 20, rng) for _ in range(5)]
        + [nobile("nobile_cusp_f32003", "cusp", n3, m3, P_LARGE, 20, rng) for _ in range(2)]
    )


def symbolic(rng, tiny):
    """Building large symbolic outputs: derivation components, jet
    equations, the two identity checks and determinantal minors by
    cofactor expansion (k < 6) and Bareiss (k >= 6).  Nothing is evaluated
    at a point."""
    n6, n10, m3, k6 = (2, 2, 2, 2) if tiny else (6, 10, 3, 6)
    return (
        [identities("verify_identities_f101", "verify-identities", QUARTIC_SUPPORT, n6, P_SMALL, rng),
         identities("check_fdbd_q", "check-fdbd", QUARTIC_SUPPORT, n6, 0, rng),
         components("jet_equations_f32003", "jet-equations", QUARTIC_SUPPORT, n6, P_LARGE, rng),
         minors("minors_k2_q", QUARTIC_SUPPORT, None, 2, 2, 0, rng)]
        + [components("hs_derive_q", "hs-derive", SEXTIC_SUPPORT, n10, 0, rng) for _ in range(5)]
        + [minors("minors_k6_f101", CUSP_SUPPORT, None, m3, k6, P_SMALL, rng) for _ in range(2)]
    )


def defects(rng, tiny):
    """Known hangs: each query is expected to overrun its deadline."""
    return [
        Query(
            "nobile_fp_1000000007",
            ["nobile", "--field", "Fp:1000000007", "--f", CUSP, "--n", "1", "--m", "1", "--base=0,0"],
            expect_prefix("singularity certificate"),
        ),
        Query(
            "smooth_point_huge_constant",
            ["nobile", "--f", "x1^2*x2^2 - x1^3 + x2^25 + x2^24*x1", "--n", "1", "--m", "1", "--base=0,0"],
            expect_prefix("singularity certificate"),
        ),
    ]


WORKLOADS = {"point_q": point_q, "jets_fp": jets_fp, "certificate": certificate, "symbolic": symbolic}
PROBES = {"defects": defects}


def cycle_count(seconds: float) -> int:
    """Whole cycles in a run of `seconds` at the reference speed: a fixed
    count, so the sample count and the percentile reported as the tail do
    not change with the machine's speed."""
    return max(1, round(seconds / CYCLE_S))


def make_pool(workload: str, seed: int, cycles: int, tiny: bool = False) -> list[list[Query]]:
    """`cycles` seeded cycles of the workload's templates."""
    build = {**WORKLOADS, **PROBES}[workload]
    return [build(random.Random(f"{workload}:{seed}:{c}"), tiny) for c in range(cycles)]
