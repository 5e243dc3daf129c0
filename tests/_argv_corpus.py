"""Argv corpus for the two readers of the CLI: the flag table
(cli._read_argv) and argparse (cli._parse_args, the oracle).

The table must return the namespace argparse returns, or None to leave
the argv to argparse.  The corpus holds every golden case, every CLI row
of tests/probes.py, the seed-1 query pools of the four benchmark
workloads (full and tiny), the negative-leading-coordinate cases, and a
seeded fuzz of argv built from the subcommands' flags and awkward values.

tests/test_cli.py runs the checks under pytest.  On an interpreter
without pytest, run them as a script from the repository root:

    PYTHONPATH=src python tests/_argv_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import types
from pathlib import Path

from jetjac import cli

ROOT = Path(__file__).resolve().parent.parent

# a negative leading --point or --base coordinate, written with a space
NEGATIVE_LEADING = [
    ("rank-at-point", "--matrix", "jacm:1:x1^2-x2", "--point", "-9,1"),
    ("singular-check", "--f", "x1^2 - x2", "--n", "1", "--point", "-1,1,1,-2"),
    ("nobile", "--f", "x1^2 + 2*x1 + 1 - x2^3", "--n", "1", "--base", "-1,0", "--json"),
]

# values argparse reads in more than one way: a leading "-" with and
# without a space, negative numbers, "--", flag-like and joined texts
AWKWARD = [
    "-h x", "-x1 - 1", "-1", "-.5", "--", "--fi", "--json=1", "- x", "-", "", "-= x",
    "--f x", "x1 -h", "-3*x1^2 + x2", "-9,1", "1e3", "Fp:6", "Fp:", "=x",
]
GOOD = {
    "--f": ["x1", "x1^3 - x2^2", "x1*x2, x1"],
    "--field": ["Q", "Fp:7", "Fp:32003"],
    "--matrix": ["jacm:1:x1^2-x2", "dnl:1:1:x1^3 - x2^2", '{"rows": 1, "cols": 1, "entries": [["x1"]]}'],
    "--point": ["0,0", "1,1,2,3", "0"],
    "--base": ["0,0"],
}
ABBREVIATED = ["--fi", "--fie", "--js", "--ma", "--po", "--ba", "--se", "--tr", "--he", "--h", "--j"]


def golden_argv() -> list[list[str]]:
    from test_golden import CASES

    return [list(argv) for argv in CASES.values()]


def probe_argv() -> list[list[str]]:
    from probes import PROBES

    return [list(p.argv[2:]) for p in PROBES if p.argv[:2] == ("-m", "jetjac.cli")]


def workload_argv(tiny: bool) -> list[list[str]]:
    """The seed-1 query pools of the four workloads, at the cycle count
    of a full run."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    cycles = workloads.cycle_count(22)
    return [
        list(query.argv)
        for name in workloads.WORKLOADS
        for cycle in workloads.make_pool(name, 1, cycles, tiny)
        for query in cycle
    ]


def fuzz_argv(count: int, seed: int = 45) -> list[list[str]]:
    """`count` seeded argv: a well-formed argv of a random subcommand,
    then up to three edits that may leave it well formed or not."""
    rng = random.Random(seed)
    table = cli._flag_table()
    names = sorted(table)
    every_flag = sorted({flag for command in table.values() for flag in command.actions})
    out = []
    for _ in range(count):
        name = rng.choice(names)
        command = table[name]
        argv = [name]
        for flag, action in sorted(command.actions.items()):
            if action is None or (action.dest not in command.required and rng.random() < 0.6):
                continue
            argv += [flag] if action.nargs == 0 else [flag, rng.choice(GOOD.get(flag, ["1", "2", "0"]))]
        for _ in range(rng.randint(0, 3)):
            edit = rng.randrange(6)
            k = rng.randrange(len(argv) + 1)
            if edit == 0:
                argv.insert(k, rng.choice(every_flag + ABBREVIATED))
            elif edit == 1:
                argv.insert(k, rng.choice(AWKWARD))
            elif edit == 2 and k < len(argv) - 1:
                argv[k + 1] = rng.choice(AWKWARD)
            elif edit == 3 and 0 < k < len(argv) - 1 and argv[k].startswith("--"):
                argv[k : k + 2] = [f"{argv[k]}={argv[k + 1]}"]
            elif edit == 4 and k < len(argv):
                del argv[k]
            elif edit == 5:
                argv[k:k] = [rng.choice(every_flag), rng.choice(AWKWARD)]
        out.append(argv)
    return out + [[], ["-h"], ["--help"], ["--json", "rank-remark"], ["bogus", "--n", "1"]]


def argparse_reading(argv: list[str]):
    """The namespace argparse reads from argv, or None where it exits
    (a usage error, or --help)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._parse_args(list(argv))
        except SystemExit:
            return None


def disagreements(corpus: list[list[str]]) -> list[list[str]]:
    """The argv, as given or as run() passes it on, for which the table
    returns neither None nor argparse's namespace."""
    forms = {tuple(form) for argv in corpus for form in (argv, cli.attach_coordinates(list(argv)))}
    return [list(form) for form in sorted(forms) if cli._read_argv(list(form)) not in (None, argparse_reading(form))]


def deferred(corpus: list[list[str]]) -> list[list[str]]:
    """The argv that run() leaves to argparse."""
    return [argv for argv in corpus if cli._read_argv(cli.attach_coordinates(list(argv))) is None]


def corpus() -> dict[str, list[list[str]]]:
    """The corpus by group.  The groups named in WELL_FORMED hold only
    argv that the table must read."""
    return {
        "golden": golden_argv(),
        "probes": probe_argv(),
        "workloads": workload_argv(False),
        "workloads --tiny": workload_argv(True),
        "negative leading": [list(argv) for argv in NEGATIVE_LEADING],
        "fuzz": fuzz_argv(3000),
    }


WELL_FORMED = ("golden", "workloads", "workloads --tiny")


def main() -> int:
    if "pytest" not in sys.modules:
        try:
            import pytest  # noqa: F401
        except ImportError:
            # test_golden and probes use pytest only to mark their tests
            mark = types.SimpleNamespace(parametrize=lambda *a, **k: lambda f: f)
            sys.modules["pytest"] = types.SimpleNamespace(mark=mark)
    groups = corpus()
    print(f"Python {sys.version.split()[0]}")
    failed = 0
    for group, argvs in groups.items():
        bad = disagreements(argvs)
        failed += len(bad)
        print(f"{group}: {len(argvs)} argv, {len(deferred(argvs))} deferred, {len(bad)} disagree")
        for argv in bad[:5]:
            print("  disagree:", argv)
    well_formed = [argv for group in WELL_FORMED for argv in groups[group]]
    late = deferred(well_formed)
    print(f"well formed: {len(well_formed)} argv, {len(late)} deferred")
    return 1 if failed or late else 0


if __name__ == "__main__":
    sys.exit(main())
