"""Command-line front end.

Every subcommand handler returns one deterministic report: its JSON
payload, built from a single rendering of each polynomial.  Where the
keys are the fields of a report dataclass, the payload is that report's
own field dict (vars), not a copy.  run() prints the payload as a JSON
object with --json, and otherwise the text that the subcommand's
renderer, declared with its handler, writes from the payload alone, so
only this module decides how a report reads.  A report exits 0; domain
errors print the error name on stderr and exit 1; usage errors exit 2.
A reader that closes stdout before the report is written ends the run
with exit 1 and nothing on stderr.  Polynomials use the x<i> /
x<i>_<j> grammar, points are flat comma-separated coordinate lists in
canonical order (all base coordinates, then all order-1 coordinates, and
so on), and the number of base variables is the highest base index
that a variable of the polynomials names (poly.parse_polys).

build_parser() declares every flag.  Well-formed argv, a subcommand and
exact flag names with their values, is read off a flag table built once
from that parser (_read_argv); argparse reads the rest, and owns --help,
abbreviated flags and every usage message.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import NamedTuple

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


@functools.lru_cache
def parse_field(text: str) -> FieldSpec:
    """The --field type.  Memoized: FieldSpec(p) tests p for primality,
    and a query names the same field again and again.  An error is not
    cached, so a bad selector is refused with the same message each time."""
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


def _matrix_payload(mx: PolyMatrix) -> dict:
    """The {rows, cols, entries} object of a matrix, each distinct entry
    rendered once."""
    return {"rows": mx.rows, "cols": mx.cols, "entries": mx.rendered()}


def _numbered(values: list[str]) -> str:
    """One "d_k = ..." line per rendered component."""
    return "\n".join(f"d_{k} = {v}" for k, v in enumerate(values))


# -- subcommand handlers: each returns its JSON payload; a text renderer
# that is more than a lambda in build_parser() follows its handler


def cmd_hs_derive(args) -> dict:
    (f,) = parse_polys([args.f], args.field)
    return {"n": args.n, "components": [str(c) for c in hs_components(f, args.n)]}


def cmd_verify_identities(args) -> dict:
    (f,) = parse_polys([args.f], args.field)
    return vars(check_commutation(f, args.n))


def _text_verify_identities(r: dict) -> str:
    if r["ok"]:
        return f"PASS: derivative interchange holds in all {r['cases_checked']} cases"
    i, j, k = r["counterexample"]
    return f"FAIL: partial_(x{i}^({j})) d_{k} != d_{k - j} partial_(x{i}) (after {r['cases_checked']} cases)"


def cmd_jacm(args) -> dict:
    return _matrix_payload(jac_m(parse_polys(args.f.split(","), args.field), args.m))


def cmd_dnl(args) -> dict:
    return _matrix_payload(dn_matrix(jac_m(parse_polys(args.f.split(","), args.field), args.m), args.n))


def cmd_check_fdbd(args) -> dict:
    return vars(check_fdbd(parse_polys(args.f.split(","), args.field), args.n))


def _text_check_fdbd(r: dict) -> str:
    if not r["ok"]:
        i, j = r["first_mismatch"]
        return f"FAIL: entry mismatch at ({i}, {j})"
    b, a = r["block_shape"]
    return (
        f"PASS: block matrix of the Jacobian equals the jet Jacobian after {r['permutation']} "
        f"({r['n'] + 1} blocks of {b}x{a} per axis)"
    )


def cmd_jet_equations(args) -> dict:
    (f,) = parse_polys([args.f], args.field)
    desc = jet_equations(f, args.n)
    return {"s": desc.s, "n": desc.n, "equations": [str(eq) for eq in desc.equations]}


def cmd_rank_at_point(args) -> dict:
    mx = matrix_argument(args.matrix, args.field)
    s, order = matrix_dims(mx)
    point = parse_point(args.point, s, order, args.field)
    return {"rank": rank_at(mx, point)}


def cmd_minors(args) -> dict:
    """The count and the list of the k x k minors, each with its row and
    column selections.  The minors of one matrix share most of their
    monomials, so poly.render writes them all at once."""
    found = minors(build_matrix(args.matrix, args.field), args.k)
    listed = [
        {"rows": list(r), "cols": list(c), "value": v}
        for (r, c), v in zip(found.selections, render(found.values))
    ]
    return {"k": found.k, "count": len(found), "minors": listed}


def _text_minors(r: dict) -> str:
    lines = [f"rows {m['rows']} cols {m['cols']}: {m['value']}" for m in r["minors"]]
    return "\n".join([f"count = {r['count']}", *lines])


def cmd_generic_rank(args) -> dict:
    mx = matrix_argument(args.matrix, args.field)
    r = generic_rank(mx, trials=args.trials, seed=args.seed)
    return {"generic_rank": r, "probabilistic": True, "trials": args.trials, "seed": args.seed}


def cmd_singular_check(args) -> dict:
    (f,) = parse_polys([args.f], args.field)
    desc = jet_equations(f, args.n)
    point = parse_point(args.point, desc.s, desc.n, args.field)
    # higher_rank_test raises PointNotOnScheme off the jet scheme
    return {"on_scheme": True, **vars(higher_rank_test(desc, point, args.m))}


def _text_singular_check(r: dict) -> str:
    lines = [f"{key} = {json.dumps(r[key])}" for key in ("on_scheme", "rank", "bound", "full")]
    return "\n".join(lines + ["assumptions: " + "; ".join(r["assumptions"])])


def cmd_nobile(args) -> dict:
    (f,) = parse_polys([args.f], args.field)
    base = parse_point(args.base, f.base_count, 0, args.field)
    cert = nobile_certificate(f, args.n, args.m, base, trials=args.trials, seed=args.seed)
    return {
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


def _text_nobile(r: dict) -> str:
    # the base coordinates are x1..xs in order; fact (iii) matches when every sample does
    base = ", ".join(f"x{i}={x}" for i, x in enumerate(r["base"], 1))
    matches = "matches" if all(x == r["expected"] for x in r["cokernel_samples"]) else "DIFFERS from"
    return "\n".join(
        [
            f"singularity certificate for f = {r['f']}, n = {r['n']}, m = {r['m']}",
            f"base point: ({base})",
            f"(i)   zero jet on the jet scheme: {r['membership']}",
            f"(ii)  rank at the zero jet: {r['rank']} < bound {r['bound']}: {r['rank'] < r['bound']}",
            f"(iii) generic cokernel rank {r['cokernel_rank']} {matches} the expected {r['expected']} "
            f"(probabilistic; trials={r['trials']}, seed={r['seed']})",
            f"(iv)  rank jump at a smooth jet (rank {r['witness_rank']}): {r['rank_jump']}",
            "assumptions: " + "; ".join(r["assumptions"]),
            f"verdict: {r['verdict']}",
        ]
    )


def cmd_rank_remark(args) -> dict:
    report = rank_counterexample_check(args.n, args.m)
    return {**vars(report), "verdict": report.verdict}


def _text_rank_remark(r: dict) -> str:
    return (
        f"free rank over the jet polynomial ring: {r['jet_ring_rank']}; "
        f"free rank of the tensored module: {r['tensor_rank']}; {r['verdict']}"
    )


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
    p.set_defaults(func=cmd_hs_derive, text=lambda r: _numbered(r["components"]))

    p = sub.add_parser("verify-identities", help="derivative interchange report")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify_identities, text=_text_verify_identities)

    p = sub.add_parser("jacm", help="order-m Jacobian matrix")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_jacm, text=lambda r: _bracketed(r["entries"]))

    p = sub.add_parser("dnl", help="block matrix of the order-m Jacobian")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(func=cmd_dnl, text=lambda r: _bracketed(r["entries"]))

    p = sub.add_parser("check-fdbd", help="block matrix vs jet Jacobian equality")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_check_fdbd, text=_text_check_fdbd)

    p = sub.add_parser("jet-equations", help="equations of the order-n jet scheme")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_jet_equations, text=lambda r: _numbered(r["equations"]))

    p = sub.add_parser("rank-at-point", help="exact rank of a matrix at a point")
    common(p, poly_flag=False)
    p.add_argument("--matrix", required=True, help="jacm:<m>:<polys> | dnl:<n>:<m>:<polys> | inline JSON")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.set_defaults(func=cmd_rank_at_point, text=lambda r: f"rank = {r['rank']}")

    p = sub.add_parser("minors", help="all k x k minors of a matrix")
    common(p, poly_flag=False)
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_minors, text=_text_minors)

    p = sub.add_parser("generic-rank", help="probabilistic rank at random points")
    common(p, poly_flag=False, seeded=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(
        func=cmd_generic_rank,
        text=lambda r: f"generic rank = {r['generic_rank']} (probabilistic; trials={r['trials']}, seed={r['seed']})",
    )

    p = sub.add_parser("singular-check", help="rank criterion at a point of the jet scheme")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_singular_check, text=_text_singular_check)

    p = sub.add_parser("nobile", help="singularity certificate over a singular base point")
    common(p, seeded=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--base", required=True, help="base-point coordinates")
    p.set_defaults(func=cmd_nobile, text=_text_nobile)

    p = sub.add_parser("rank-remark", help="free-rank comparison for the affine line")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rank_remark, text=_text_rank_remark)

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


class _Subcommand(NamedTuple):
    """What _read_argv needs of one subparser of build_parser()."""

    parser: argparse.ArgumentParser
    actions: dict[str, argparse.Action | None]  # option string -> action; None: argparse reads it
    defaults: dict[str, object]  # the namespace before any flag is read
    required: frozenset[str]  # the dests of the required flags
    negative_number: re.Pattern  # argparse takes a match as a value, not as a flag


def _readable(action: argparse.Action) -> bool:
    # a flag with one value and no choices, or a store_true flag; --help,
    # and any other kind of action, is left to argparse
    if type(action) is argparse._StoreAction:
        return action.nargs is None and action.choices is None
    return type(action) is argparse._StoreTrueAction


@functools.cache
def _flag_table() -> dict[str, _Subcommand]:
    """The flags of each subcommand, read once off build_parser(), which
    stays the only place a flag is declared."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    table = {}
    for name, sub in commands.choices.items():
        actions = {option: a if _readable(a) else None for a in sub._actions for option in a.option_strings}
        defaults = {commands.dest: name, **sub._defaults}
        defaults.update((a.dest, a.default) for a in sub._actions if a.default is not argparse.SUPPRESS)
        required = frozenset(a.dest for a in sub._actions if a.required)
        table[name] = _Subcommand(sub, actions, defaults, required, sub._negative_number_matcher)
    return table


def _taken_as_value(text: str, command: _Subcommand) -> bool:
    """Whether argparse reads `text` after a flag as its value.  A text
    that opens with "-" is a value only where argparse's _parse_optional
    says so: a negative number, or a text with a space whose first two
    characters are no option string.  A text that also holds "=" is left
    to argparse, which may split it as option=value."""
    if not text.startswith("-"):
        return True
    if command.negative_number.match(text):
        return True
    return " " in text and "=" not in text and not text.startswith("--") and text[:2] not in command.actions


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace build_parser().parse_args(argv) returns, read off the
    flag table, or None to leave argv to argparse.  It reads a subcommand
    followed by exact flag names only, as "--flag value" or "--flag=value"
    (a store_true flag without "="), each value converted by its action's
    own type.  Anything else is left to argparse: help, an unknown or
    abbreviated flag, a positional, a flag without its value, a value the
    type refuses, or a required flag left out."""
    command = _flag_table().get(argv[0]) if argv else None
    if command is None:
        return None
    values = dict(command.defaults)
    seen = set()
    rest = iter(argv[1:])
    for arg in rest:
        flag, eq, text = arg.partition("=")
        action = command.actions.get(flag)
        if action is None:
            return None
        if action.nargs == 0:
            if eq:
                return None
            value = action.const
        else:
            if not eq:
                text = next(rest, None)
                if text is None or not _taken_as_value(text, command):
                    return None
            value = text
            if action.type is not None:
                try:
                    value = action.type(text)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
        values[action.dest] = value
        seen.add(action.dest)
    if not command.required <= seen:
        return None
    return argparse.Namespace(**values)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), with "--flag=--" read as the text
    "--" on every Python.  Before 3.13 argparse strips that "--" and
    stores [] as the value; no flag takes nargs, so a list comes only from
    this.  The text goes through the flag's type, as in 3.13, so an
    integer flag refuses it as a usage error."""
    args = build_parser().parse_args(argv)
    command = _flag_table()[args.command]
    for dest, value in vars(args).items():
        if value == []:
            (action,) = {a for a in command.actions.values() if a is not None and a.dest == dest}
            try:
                setattr(args, dest, command.parser._get_value(action, "--"))
            except argparse.ArgumentError as exc:
                command.parser.error(str(exc))
    return args


def run(argv: list[str]) -> int:
    argv = attach_coordinates(argv)
    try:
        args = _read_argv(argv) or _parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report = args.func(args)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(report, indent=2) if args.json else args.text(report), flush=True)
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
