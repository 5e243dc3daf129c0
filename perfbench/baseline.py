"""Run the benchmark over seeds 1-10 on every workload of BENCHMARK.json
and record the spread of each end-to-end metric: median, quartiles and
(q3 - q1) / median, the figure BENCHMARK.json's bounds are judged against.

    python3 perfbench/baseline.py                          # -> perfbench/baseline.json
    python3 perfbench/baseline.py --out second-set.json    # a second set, elsewhere

Runs one benchmark process at a time, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [one_run(workload, seed, bench["run_seconds"]) for seed in SEEDS]
        table[workload] = {name: spread([r[name] for r in runs]) for name in bounds}
        for name, row in table[workload].items():
            flag = "" if row["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(
                f"{workload:12s} {name:16s} median {row['median']:10.4f}  q1 {row['q1']:10.4f}  "
                f"q3 {row['q3']:10.4f}  spread {row['spread']:.4f} (bound {bounds[name]}){flag}",
                flush=True,
            )
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": bench["run_seconds"],
        "seeds": SEEDS,
        "workloads": table,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
