"""One workload in its own process: a closed loop of CLI queries.

One client, one thread: each query goes through jetjac.cli.run(argv) with
stdout and stderr captured, so its latency covers argument parsing,
computation and rendering.  The first query is an untimed warm-up.  A
run is a fixed number of whole cycles of the workload, derived from
--seconds (workloads.cycle_count), so every run asks for the same mix and the
same number of queries whatever the machine's speed.  Each query has a deadline
(signal.setitimer); an overrun, a nonzero exit, an exception or a failed
output check counts as a failure.

With --trace 1 the same queries run twice: untraced for half the
cycles, then traced (tracing.py) for the same cycles, which gives the
tracing overhead.  Prints one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEADLINE_S = 10.0
PROBE_DEADLINE_S = 5.0
MAX_FAILURES_SHOWN = 5


class Overrun(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test can swallow it."""


def _alarm(signum, frame):
    raise Overrun


class Client:
    def __init__(self, cli, deadline_s: float):
        self.cli = cli
        self.deadline_s = deadline_s
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        signal.signal(signal.SIGALRM, _alarm)

    def execute(self, query) -> tuple[float, str | None, float]:
        """Latency, failure message (None when the query passed) and the
        time the output check took, all in seconds."""
        out, err = io.StringIO(), io.StringIO()
        problem = None
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(query.argv)  # looked up per call: tracing rebinds it
        except Overrun:
            problem = f"deadline of {self.deadline_s:g} s overrun"
        except Exception as exc:  # a traceback escaping the CLI is a failed query
            problem = f"exception {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = perf_counter() - start
        if problem is None and code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()[:200]}"
        if problem is None:
            problem = query.check(out.getvalue())
        return latency, problem, perf_counter() - start - latency

    def fail(self, what: str, problem: str):
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(f"{what}: {problem}")

    def loop(self, cycles: list, on_query=None) -> dict:
        """Every query of the given cycles, in order.

        A pass of the speed kernel runs between queries; each latency is
        also given at the reference speed (speed.scale).  busy_s leaves
        out the checks and the kernel passes.
        """
        passes = [speed.kernel()]  # passes[i] ran just before query i
        queries = []  # (template, latency, passed)
        first = self.attempted
        start = perf_counter()
        outside_s = passes[0]
        for cycle in cycles:
            for query in cycle:
                if on_query is not None:
                    on_query(self.attempted)
                latency, problem, checking = self.execute(query)
                passes.append(speed.kernel())
                outside_s += checking + passes[-1]
                self.attempted += 1
                queries.append((query.template, latency, problem is None))
                if problem is not None:
                    self.fail(query.template, problem)
        wall = perf_counter() - start
        reference = [latency * speed.scale(passes, i) for i, (_, latency, _) in enumerate(queries)]
        return {
            "cycles": len(cycles),
            "queries": self.attempted - first,
            "wall_s": wall,
            "busy_s": wall - outside_s,
            "reference_busy_s": sum(reference),
            "latencies_ms": [latency * 1000 for _, latency, ok in queries if ok],
            "reference_ms": [ref * 1000 for (_, _, ok), ref in zip(queries, reference) if ok],
            "templates": [template for template, _, ok in queries if ok],
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help="stop once the inputs are generated")
    ap.add_argument("--spans", help="write the traced spans here, one JSON list per line")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from jetjac import cli

    import workloads

    cli.build_parser()
    pool = workloads.make_pool(args.workload, args.seed, workloads.cycle_count(args.seconds), args.tiny)
    if args.setup_only:
        return 0

    probe = args.workload in workloads.PROBES
    client = Client(cli, PROBE_DEADLINE_S if probe else DEADLINE_S)
    if not probe:  # a probe's first query is a known hang: no warm-up
        _, problem, _ = client.execute(pool[0][0])
        client.attempted += 1
        if problem is not None:
            client.fail(f"warm-up {pool[0][0].template}", problem)
    result = {}
    if args.trace:
        import tracing

        half = pool[: (len(pool) + 1) // 2]
        plain = client.loop(half)
        tracer = tracing.Tracer()
        tracer.install()
        run = client.loop(half, on_query=tracer.start_query)
        if args.spans:
            tracer.dump(args.spans)
        result.update(
            plain_reference_busy_s=plain["reference_busy_s"],
            traced=tracing.summarize(tracer.spans),
            binding_sites=tracer.sites,
        )
    else:
        run = client.loop(pool)
    result.update(
        run,
        cycle_length=len(pool[0]),
        attempted=client.attempted,
        failed=client.failed,
        failures=client.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
