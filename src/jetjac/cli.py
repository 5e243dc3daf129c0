"""Command-line front end.

Every subcommand builds one deterministic report, a (text, payload) pair
made from a single rendering of each polynomial, and run() prints one of
the two: the plain text, or the payload as a JSON object with --json.
Reports whose dataclass fields are already their JSON keys serialize
with dataclasses.asdict.  A report exits 0; domain errors print the error
name on stderr and exit 1; usage errors exit 2.  A reader that closes
stdout before the report is written ends the run with exit 1 and nothing
on stderr.  Polynomials use the x<i> /
x<i>_<j> grammar, points are flat comma-separated coordinate lists in
canonical order (all base coordinates, then all order-1 coordinates, and
so on), and the number of base variables is the highest base index
that a variable of the polynomials names (poly.parse_polys).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict

from .field import _COORDINATE, DomainError, FieldError, FieldSpec, check_coordinate
from .hasse import check_commutation, hs_components
from .jacobian import JacmMatrix, PolyMatrix, _bracketed, jac_m
from .jetmatrix import DnMatrix, check_fdbd, dn_matrix
from .jetscheme import higher_rank_test, jet_equations, nobile_certificate, rank_counterexample_check
from .linalg import generic_rank, minors, rank_at
from .poly import Point, _flat_keys, parse_polys, render


class BadMatrixJSON(ValueError, DomainError):
    """An inline --matrix value is not a {rows, cols, entries} object
    with integer sizes and rows of polynomial strings."""


_COORDINATE_FLAGS = ("--point", "--base")


def parse_field(text: str) -> FieldSpec:
    try:
        return FieldSpec.parse(text)
    except (ValueError, FieldError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_point(text: str, s: int, n: int, spec: FieldSpec) -> Point:
    """Coordinates are integers or fractions a/b (b > 0), each with an
    optional sign.  The list is checked at once (re-read only to name the
    first bad coordinate) and counted, then read straight to raw values."""
    texts = list(map(str.strip, text.split(",")))
    if not all(map(_COORDINATE.fullmatch, texts)):
        for t in texts:
            check_coordinate(t)
    return Point._make(spec, dict(zip(_flat_keys(len(texts), s, n), spec.raw_texts(texts))))


def matrix_dims(mx: PolyMatrix | JacmMatrix | DnMatrix) -> tuple[int, int]:
    """(s, max jet order) across all entries of the matrix: (D.s, D.n) for
    D = D_n(L).  A matrix without variables gives (1, 0)."""
    s, r = mx.dims
    return (s, r) if s else (1, 0)


def matrix_argument(spec_text: str, field: FieldSpec) -> PolyMatrix | JacmMatrix | DnMatrix:
    """Read a matrix argument: "jacm:<m>:<polys>", "dnl:<n>:<m>:<polys>"
    (both kept unexpanded), or an inline JSON {rows, cols, entries}."""
    if spec_text.startswith("jacm:"):
        (m,), polys_text = _builder_fields(spec_text, "jacm:<m>:<polys>")
        return JacmMatrix(parse_polys(polys_text.split(","), field), m)
    if spec_text.startswith("dnl:"):
        (n, m), polys_text = _builder_fields(spec_text, "dnl:<n>:<m>:<polys>")
        return DnMatrix(JacmMatrix(parse_polys(polys_text.split(","), field), m), n)
    rows, cols, flat = _matrix_json_fields(spec_text)
    return PolyMatrix(rows, cols, tuple(parse_polys(flat, field)))


def build_matrix(spec_text: str, field: FieldSpec) -> PolyMatrix:
    """Materialize a matrix argument, expanding a builder reference."""
    mx = matrix_argument(spec_text, field)
    if isinstance(mx, DnMatrix):
        return dn_matrix(mx.L, mx.n)
    return mx.symbolic if isinstance(mx, JacmMatrix) else mx


def _builder_fields(text: str, form: str) -> tuple[list[int], str]:
    # the integer sizes and the polynomial list of a builder reference
    *sizes, polys_text = fields = text.split(":", form.count(":"))[1:]
    try:
        if len(fields) == form.count(":"):
            return [int(size) for size in sizes], polys_text
    except ValueError:
        pass
    raise BadMatrixJSON(f"not a builder reference or JSON: expected {form}")


def _matrix_json_fields(text: str) -> tuple[int, int, list[str]]:
    """Check an inline matrix against its schema; return rows, cols and
    the entries in row-major order."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long for int()
        raise BadMatrixJSON(f"not a builder reference or JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise BadMatrixJSON("expected a JSON object {rows, cols, entries}")
    missing = [key for key in ("rows", "cols", "entries") if key not in obj]
    if missing:
        raise BadMatrixJSON(f"missing key(s): {', '.join(missing)}")
    rows, cols, table = obj["rows"], obj["cols"], obj["entries"]
    if not all(type(size) is int and size >= 0 for size in (rows, cols)):
        raise BadMatrixJSON("rows and cols must be non-negative integers")
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise BadMatrixJSON("entries must be a list of rows, each a list")
    if len(table) != rows or any(len(row) != cols for row in table):
        raise BadMatrixJSON(f"entries do not form a {rows}x{cols} table")
    flat = [entry for row in table for entry in row]
    if not all(isinstance(entry, str) for entry in flat):
        raise BadMatrixJSON("every entry must be a polynomial string")
    return rows, cols, flat


def _matrix_report(mx: PolyMatrix) -> tuple[str, dict]:
    """The "[a, b]" rows and the {rows, cols, entries} object of a
    matrix, from one rendering of its entries."""
    table = mx.rendered()
    return _bracketed(table), {"rows": mx.rows, "cols": mx.cols, "entries": table}


def _numbered(values: list[str]) -> str:
    """One "d_k = ..." line per rendered component."""
    return "\n".join(f"d_{k} = {v}" for k, v in enumerate(values))


# -- subcommand handlers: each returns its report as (text, payload) ---


def cmd_hs_derive(args) -> tuple[str, dict]:
    (f,) = parse_polys([args.f], args.field)
    components = [str(c) for c in hs_components(f, args.n)]
    return _numbered(components), {"n": args.n, "components": components}


def cmd_verify_identities(args) -> tuple[str, dict]:
    (f,) = parse_polys([args.f], args.field)
    report = check_commutation(f, args.n)
    return str(report), asdict(report)


def cmd_jacm(args) -> tuple[str, dict]:
    return _matrix_report(jac_m(parse_polys(args.f.split(","), args.field), args.m))


def cmd_dnl(args) -> tuple[str, dict]:
    return _matrix_report(dn_matrix(jac_m(parse_polys(args.f.split(","), args.field), args.m), args.n))


def cmd_check_fdbd(args) -> tuple[str, dict]:
    report = check_fdbd(parse_polys(args.f.split(","), args.field), args.n)
    return str(report), asdict(report)


def cmd_jet_equations(args) -> tuple[str, dict]:
    (f,) = parse_polys([args.f], args.field)
    desc = jet_equations(f, args.n)
    equations = [str(eq) for eq in desc.equations]
    return _numbered(equations), {"s": desc.s, "n": desc.n, "equations": equations}


def cmd_rank_at_point(args) -> tuple[str, dict]:
    mx = matrix_argument(args.matrix, args.field)
    s, order = matrix_dims(mx)
    point = parse_point(args.point, s, order, args.field)
    r = rank_at(mx, point)
    return f"rank = {r}", {"rank": r}


def cmd_minors(args) -> tuple[str, dict]:
    """The count and the list of the k x k minors, each with its row and
    column selections.  The minors of one matrix share most of their
    monomials, so poly.render writes them all at once, for the text and
    the JSON alike."""
    found = minors(build_matrix(args.matrix, args.field), args.k)
    listed = [
        {"rows": list(r), "cols": list(c), "value": v}
        for (r, c), v in zip(found.selections, render(found.values))
    ]
    lines = [f"count = {len(found)}"]
    lines += [f"rows {m['rows']} cols {m['cols']}: {m['value']}" for m in listed]
    return "\n".join(lines), {"k": found.k, "count": len(found), "minors": listed}


def cmd_generic_rank(args) -> tuple[str, dict]:
    mx = matrix_argument(args.matrix, args.field)
    r = generic_rank(mx, trials=args.trials, seed=args.seed)
    return (
        f"generic rank = {r} (probabilistic; trials={args.trials}, seed={args.seed})",
        {"generic_rank": r, "probabilistic": True, "trials": args.trials, "seed": args.seed},
    )


def cmd_singular_check(args) -> tuple[str, dict]:
    (f,) = parse_polys([args.f], args.field)
    desc = jet_equations(f, args.n)
    point = parse_point(args.point, desc.s, desc.n, args.field)
    # higher_rank_test raises PointNotOnScheme off the jet scheme
    report = higher_rank_test(desc, point, args.m)
    text = "\n".join(
        [
            "on_scheme = true",
            f"rank = {report.rank}",
            f"bound = {report.bound}",
            f"full = {str(report.full).lower()}",
            "assumptions: " + "; ".join(report.assumptions),
        ]
    )
    return text, {"on_scheme": True, **asdict(report)}


def cmd_nobile(args) -> tuple[str, dict]:
    (f,) = parse_polys([args.f], args.field)
    base = parse_point(args.base, f.base_count, 0, args.field)
    cert = nobile_certificate(
        f, args.n, args.m, base, trials=args.trials, seed=args.seed
    )
    payload = {
        "f": str(cert.f),
        "n": cert.n,
        "m": cert.m,
        "base": [str(x) for _, x in sorted(cert.base.values.items())],
        "membership": cert.membership,
        "rank": cert.rank,
        "bound": cert.bound,
        "full": cert.full,
        "cokernel_rank": cert.cokernel.cokernel_rank,
        "expected": cert.cokernel.expected,
        "cokernel_samples": list(cert.cokernel.samples),
        "rank_jump": cert.rank_jump,
        "witness_rank": cert.witness_rank,
        "assumptions": list(cert.assumptions),
        "verdict": cert.verdict,
        "trials": cert.trials,
        "seed": cert.seed,
    }
    return str(cert), payload


def cmd_rank_remark(args) -> tuple[str, dict]:
    report = rank_counterexample_check(args.n, args.m)
    return str(report), {**asdict(report), "verdict": report.verdict}


# -- parser wiring -----------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: a parser is a web of reference cycles, and
    # one left behind by every run() waits for the cyclic collector.
    parser = argparse.ArgumentParser(
        prog="jetjac",
        description="Exact jet-scheme equations, blocked higher-order Jacobians, "
        "and singularity rank certificates over Q and GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poly_flag=True, seeded=False):
        if poly_flag:
            p.add_argument("--f", required=True, help="polynomial(s), comma separated")
        p.add_argument(
            "--field",
            type=parse_field,
            default=FieldSpec.rationals(),
            help="Q (default) or Fp:<prime>",
        )
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("hs-derive", help="derivation components d_0..d_n of f")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_hs_derive)

    p = sub.add_parser("verify-identities", help="derivative interchange report")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("jacm", help="order-m Jacobian matrix")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_jacm)

    p = sub.add_parser("dnl", help="block matrix of the order-m Jacobian")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(func=cmd_dnl)

    p = sub.add_parser("check-fdbd", help="block matrix vs jet Jacobian equality")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_check_fdbd)

    p = sub.add_parser("jet-equations", help="equations of the order-n jet scheme")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_jet_equations)

    p = sub.add_parser("rank-at-point", help="exact rank of a matrix at a point")
    common(p, poly_flag=False)
    p.add_argument("--matrix", required=True, help="jacm:<m>:<polys> | dnl:<n>:<m>:<polys> | inline JSON")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.set_defaults(func=cmd_rank_at_point)

    p = sub.add_parser("minors", help="all k x k minors of a matrix")
    common(p, poly_flag=False)
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_minors)

    p = sub.add_parser("generic-rank", help="probabilistic rank at random points")
    common(p, poly_flag=False, seeded=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_generic_rank)

    p = sub.add_parser("singular-check", help="rank criterion at a point of the jet scheme")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_singular_check)

    p = sub.add_parser("nobile", help="singularity certificate over a singular base point")
    common(p, seeded=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--base", required=True, help="base-point coordinates")
    p.set_defaults(func=cmd_nobile)

    p = sub.add_parser("rank-remark", help="free-rank comparison for the affine line")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rank_remark)

    return parser


def attach_coordinates(argv: list[str]) -> list[str]:
    """Rewrite "--point -9,1" as "--point=-9,1": argparse would read a
    value that starts with "-" as a flag."""
    out = []
    for arg in argv:
        if out and out[-1] in _COORDINATE_FLAGS and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(attach_coordinates(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text, payload = args.func(args)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(payload, indent=2) if args.json else text, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at the null device, so
        # that the interpreter's own flush at exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
