"""The library names the benchmark under perfbench/ relies on.

perfbench/tracing.py wraps nilary functions and RingContext methods by
name, and perfbench/worker.py reads the ring_context cache statistics and
clears the caches on every pass. A rename or removal of any of them fails
here, in the test suite, rather than in every benchmark pass.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import tracing
from nilary import classify, parse_ring_spec, theorems

tracer = tracing.Tracer(spans=True)
tracing.install(tracer)
classify.ring_context.cache_info()
classify.clear_caches()
theorems.run_all([parse_ring_spec("Zn:6")], ["Pquot"])
print(tracer.calls["ideals.make_quotient"])
"""


def test_benchmark_tracer_installs_over_the_library():
    path = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # Zn:6 has three proper ideals; each quotient is built once and counted
    assert proc.stdout.split() == ["3"]
