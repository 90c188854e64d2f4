"""The library names the benchmark under perfbench/ relies on.

perfbench/tracing.py wraps nilary functions and RingContext methods by
name, and every theorem case by rebinding theorems.CASES; perfbench/worker.py
reads the ring_context cache statistics and clears the caches on every pass.
A rename or removal of any of them fails here, in the test suite, rather
than in every benchmark pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from nilary.theorems import CASE_IDS

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import tracing
from nilary import classify, parse_ring_spec, theorems

tracer = tracing.Tracer(spans=True)
tracing.install(tracer)
classify.ring_context.cache_info()
classify.clear_caches()
theorems.run_all([parse_ring_spec("Zn:6")], ["Pquot"])
print(tracer.calls["ideals.make_quotient"])
before = dict(tracer.tallies)
rings = [parse_ring_spec(s) for s in ("Zn:6", "Zn:12", "M:2:Zn:2", "T:2:Zn:2")]
print(json.dumps({
    res.case_id: [tracer.tallies[f"theorems.{res.case_id}.instances"]
                  - before.get(f"theorems.{res.case_id}.instances", 0), res.instances]
    for res in theorems.run_all(rings)
}))
"""


def test_benchmark_tracer_installs_over_the_library():
    path = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    quotients, tallies = proc.stdout.splitlines()
    # Zn:6 has two ideals 0 < I < A; each quotient by one is built once and counted,
    # and A/0 is Zn:6's own context, built by nothing
    assert quotients == "2"
    # every case is wrapped, and its instance tally is the result's count
    tallies = json.loads(tallies)
    assert list(tallies) == list(CASE_IDS)
    for case_id, (tally, instances) in tallies.items():
        assert tally == instances > 0, case_id
