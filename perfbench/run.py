"""Benchmark of the jetjac CLI: one user issuing queries, end to end.

    python3 perfbench/run.py --workload point_q --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --workload defects --seed 1  # known hangs, not benchmarked
    python3 perfbench/run.py --smoke                      # tiny sizes, every metric emitted?

Run from the repository root; the program is imported from src/.  Each
workload runs in its own child process (child.py), so peak RSS belongs to
it.  setup_s is the median wall time of fresh interpreters that import
jetjac.cli, build its parser and generate the workload's inputs, then
exit.  Timings are reported at a reference machine speed (speed.py); the
lines before the result give them as measured too.  With --trace 0 the
last line holds the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics, from a separate traced run (tracing.py).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_REPEATS = 9
TAIL_PERCENTILE = 90
TAIL_MIN_BEYOND = 10  # samples that must lie beyond the reported tail percentile
CHILD_BUDGET_S = 170  # the whole run must end within 180 s
SPANS_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402  (needs HERE on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHILD), *argv], cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False
    )


def setup_seconds(workload: str, seed: int, seconds: float, tiny: bool) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters from spawn to exit, as measured and
    at the reference start-up speed.  Each set-up is paired with a bare
    interpreter start just before it; the speed kernel does not serve
    here, since start-up is exec, imports and page faults."""
    raw, reference = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare = perf_counter() - start
        start = perf_counter()
        argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--setup-only"]
        proc = run_child(argv + ["--tiny"] * tiny, 60)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
        raw.append(elapsed)
        reference.append(elapsed * speed.REFERENCE_START_S / bare)
    return raw, reference


def tail(latencies: list[float]) -> tuple[int, float]:
    """(percentile, value): the 90th percentile if at least ten samples
    lie beyond it, else the highest percentile that has ten beyond it."""
    if len(latencies) < 2:
        return 100, max(latencies, default=0.0)
    cuts = statistics.quantiles(latencies, n=100)
    for q in range(TAIL_PERCENTILE, 49, -1):
        if sum(x > cuts[q - 1] for x in latencies) >= TAIL_MIN_BEYOND:
            return q, cuts[q - 1]
    return 100, max(latencies)


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of BENCHMARK.json from a traced child run: times
    and calls per query, sizes per call, shares of their stated base."""
    summary = raw["traced"]
    layers = summary["layers"]
    queries = max(raw["queries"], 1)
    to_reference = raw["reference_busy_s"] / raw["busy_s"]  # this pass's speed factor

    def stat(name, key):
        return layers.get(name, {}).get(key, 0)

    def per_query_ms(name, key):
        return stat(name, key) / 1e6 / queries * to_reference

    def share(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in (f"{module}.{fn}" for module, fns in tracing.LAYERS.items() for fn in fns):
        for key in ("calls", "busy_ns", "self_ns"):
            unit = "calls/query" if key == "calls" else "ms/query"
            value = stat(name, key) / queries if key == "calls" else per_query_ms(name, key)
            out[f"{name}.{key.replace('_ns', '_ms')}"] = (value, unit)
    for name, key, unit in (
        ("hasse.hs_components", "out_terms", "terms/call"),
        ("jetmatrix.dn_matrix", "out_terms", "terms/call"),
        ("jetmatrix.dn_matrix", "out_cells", "cells/call"),
        ("linalg.eval_matrix", "in_terms", "terms/call"),
        ("linalg.rank", "in_cells", "cells/call"),
    ):
        out[f"{name}.{key}"] = (share(stat(name, key), stat(name, "calls")), unit)
    out["linalg.rank.full_share"] = (share(stat("linalg.rank", "full"), stat("linalg.rank", "calls")), "share")
    out["linalg.generic_rank.trials_used_share"] = (
        share(summary["rank_in_generic"], stat("linalg.generic_rank", "trials")),
        "share",
    )
    out["jetscheme.generic_cokernel_rank.match_share"] = (
        share(stat("jetscheme.generic_cokernel_rank", "matches"), stat("jetscheme.generic_cokernel_rank", "trials")),
        "share",
    )
    out["harness.self_ms"] = ((raw["busy_s"] * 1e9 - summary["root_ns"]) / 1e6 / queries * to_reference, "ms/query")
    out["trace.overhead_share"] = (raw["reference_busy_s"] / raw["plain_reference_busy_s"] - 1, "share")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the metrics and the counts for the result line."""
    started = perf_counter()
    setup_raw, setup = ([], []) if trace else setup_seconds(workload, seed, seconds, tiny)
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if tiny:
        argv.append("--tiny")
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        argv += ["--spans", str(SPANS_DIR / f"spans-{workload}-{seed}.jsonl")]
    proc = run_child(argv, max(CHILD_BUDGET_S - (perf_counter() - started), 10))
    if proc.returncode != 0:
        raise RuntimeError(f"workload {workload} failed:\n{proc.stderr}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    latencies = raw["reference_ms"]
    done = len(latencies)
    notes = [
        f"{workload}: {raw['attempted']} queries attempted, {raw['failed']} failed, "
        f"{raw['cycles']} cycles of {raw['cycle_length']}, error_rate {raw['failed'] / max(raw['attempted'], 1):.4f}"
    ]
    notes += [f"  failure: {text}" for text in raw["failures"]]
    speed_note = f"speed factor to reference {raw['reference_busy_s'] / max(raw['busy_s'], 1e-9):.3f}"
    if trace:
        metrics = layer_metrics(raw)
        notes.append(
            f"  traced {raw['queries']} queries in {raw['reference_busy_s']:.3f} s against "
            f"{raw['plain_reference_busy_s']:.3f} s untraced (reference speed); "
            f"{raw['binding_sites']} binding sites wrapped; {speed_note}"
        )
        notes.append(self_time_accounting(raw))
    else:
        q, tail_ms = tail(latencies)
        metrics = {
            "latency_p50_ms": (statistics.median(latencies) if latencies else 0.0, "ms"),
            "latency_p90_ms": (tail_ms, "ms"),
            "throughput_qps": (done / raw["reference_busy_s"], "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
        measured = raw["latencies_ms"]
        notes.append(
            f"  latency samples {done} (tail reported at p{q}); setup samples {len(setup)}; {speed_note}\n"
            f"  as measured: p50 {statistics.median(measured) if measured else 0:.3f} ms, "
            f"p{q} {tail(measured)[1]:.3f} ms, {done / raw['busy_s']:.4f} queries/s, "
            f"setup {statistics.median(setup_raw):.4f} s; busy {raw['busy_s']:.3f} s of {raw['wall_s']:.3f} s wall"
        )
        notes.append(per_template(raw["templates"], latencies))
    return {
        "metrics": metrics,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "correct": raw["failed"] == 0,
        "notes": notes,
    }


def per_template(templates: list[str], latencies: list[float]) -> str:
    """Median latency of each query template, in cycle order, so that a
    change on one path shows even where no percentile falls on it."""
    by_template: dict[str, list[float]] = {}
    for template, ms in zip(templates, latencies):
        by_template.setdefault(template, []).append(ms)
    cells = [f"{t} {statistics.median(v):.1f} ({len(v)})" for t, v in by_template.items()]
    return "  median ms per template (samples): " + ", ".join(cells)


def self_time_accounting(raw: dict) -> str:
    """Traced wall time split into the self times of the layers and the
    harness remainder (time outside any cli.run span)."""
    layers = raw["traced"]["layers"]
    total = raw["busy_s"] * 1000
    parts = sorted(((entry["self_ns"] / 1e6, name) for name, entry in layers.items()), reverse=True)
    covered = sum(ms for ms, _ in parts)
    lines = [f"  self-time accounting of {total:.1f} ms traced (as measured):"]
    lines += [f"    {name:40s} {ms:10.1f} ms  {ms / total:6.1%}" for ms, name in parts]
    lines.append(f"    {'harness (outside cli.run)':40s} {total - covered:10.1f} ms  {(total - covered) / total:6.1%}")
    return "\n".join(lines)


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def result_line(runs: dict[str, dict], section: str) -> dict:
    """The last output line: declared metrics only (prefixed by workload
    when there are several), with the counts summed over workloads."""
    names = declared(section)
    metrics = {}
    for workload, run in runs.items():
        prefix = f"{workload}." if len(runs) > 1 else ""
        for name in names:
            value, unit = run["metrics"][name]
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(run["correct"] for run in runs.values()),
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": sum(run["failed"] for run in runs.values()),
        "metrics": metrics,
    }


def report(workload: str, run: dict):
    for note in run["notes"]:
        print(note)
    for name, (value, unit) in run["metrics"].items():
        print(f"  {workload}.{name} = {value:.6g} {unit}")


def smoke() -> int:
    """Every workload once at tiny sizes, untraced and traced: each
    declared metric must be emitted with its declared unit."""
    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        for workload in workloads.WORKLOADS:
            run = measure(workload, 1, 0.5, trace, tiny=True)
            report(workload, run)
            if not run["correct"]:
                problems.append(f"{workload}: {run['failed']} failed queries")
            for name, unit in declared(section).items():
                got = run["metrics"].get(name)
                if got is None or got[1] != unit:
                    problems.append(f"{workload} (trace {int(trace)}): {name} [{unit}] emitted as {got}")
    for problem in problems:
        print("SMOKE FAILURE:", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    choices = [*workloads.WORKLOADS, *workloads.PROBES, "all"]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=choices)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, check that every metric is emitted")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "jetjac" / "cli.py").is_file():
        print(f"no jetjac sources under {ROOT / 'src'}: run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload in workloads.PROBES:  # failures and error rate only; no declared metrics
        notes = measure(args.workload, args.seed, args.seconds, False)["notes"]
        print("\n".join(notes[:-2]))  # the last two are latency lines, empty here
        return 0
    runs = {}
    for workload in names:
        runs[workload] = measure(workload, args.seed, args.seconds, bool(args.trace))
        report(workload, runs[workload])
    print(json.dumps(result_line(runs, "per_layer" if args.trace else "end_to_end")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
