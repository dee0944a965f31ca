"""The benchmark harness's own tests, run against this checkout's package.

``tests/`` and ``perfbench/tests/`` each import a top-level ``conftest``, so
the two suites cannot share one pytest session.  This runs the harness's
suite in a child interpreter with ``src`` on ``PYTHONPATH``, so a package
change that breaks the harness -- a binding it rebinds or reads, such as
``fbb.rank`` or ``counting._COUNTERS`` -- fails here too.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_harness_suite_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
