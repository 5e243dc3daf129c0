"""Every golden CLI case gives its golden bytes with the benchmark's spans
installed.  perfbench/tracing.py wraps each layer function by name, and
some spans read what the layer was given, such as the terms of the
matrix handed to eval_matrix; a case that hands a layer what its span
cannot read fails here, not only in a traced benchmark run.  All cases
run in one child process, so the wrapping stays out of the other tests.
The benchmark's files are read, never changed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CASES, GOLDEN

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, importlib.util, io, json, sys
from jetjac import cli
from test_golden import CASES
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracing.Tracer().install()
outputs = {}
for name, argv in CASES.items():
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        outputs[name] = f"{code}\\n{out.getvalue()}"
    except Exception as exc:
        outputs[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps(outputs))
"""


@pytest.fixture(scope="module")
def traced_outputs():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench" / "tracing.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", sorted(CASES))
def test_traced_output_is_byte_identical(name, traced_outputs):
    assert traced_outputs[name] == (GOLDEN / f"{name}.out").read_text()
