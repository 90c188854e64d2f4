"""Tests of the tracer's self-time accounting and of the reference clock.

    python3 -m pytest perfbench/tests
"""

import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from refclock import Stopwatch  # noqa: E402
from tracing import Tracer  # noqa: E402


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_excludes_children_and_inclusive_per_ring():
    tracer = Tracer(spans=True)
    inner = tracer.wrap("inner", lambda ring: busy(0.02))

    def outer_fn(ring):
        busy(0.01)
        inner(ring)

    outer = tracer.wrap("outer", outer_fn, per_ring=True)
    outer(SimpleNamespace(label="Zn:4"))
    metrics = tracer.layer_metrics()
    assert metrics["inner.calls"] == 1 and metrics["outer.Zn-4.calls"] == 1
    assert 0.02 <= metrics["inner.s"] < 0.03
    assert metrics["outer.Zn-4.s"] >= 0.03  # per-ring spans report inclusive time
    ids = {span[0]: span for span in tracer.spans}
    inner_span = next(s for s in tracer.spans if s[3] == "inner")
    assert ids[inner_span[1]][3] == "outer.Zn-4"  # parent link
    assert inner_span[2] == "Zn:4"  # trace id is the ring label


def test_excluded_time_leaves_self_time():
    tracer = Tracer(spans=True)

    def work():
        busy(0.01)
        tracer.exclude(0.005)

    tracer.wrap("work", work)()
    assert tracer.layer_metrics()["work.s"] < 0.008


def test_count_mode_records_no_spans():
    tracer = Tracer(spans=False)
    f = tracer.wrap("f", lambda: [1, 2, 3], tally=("items", len))
    f()
    f()
    assert tracer.calls["f"] == 2 and tracer.tallies["items"] == 6
    assert tracer.spans == [] and not tracer.self_s


def test_stopwatch_leaves_samples_out_of_raw_time():
    excluded = []
    clock = Stopwatch(excluded.append)
    result, raw, scaled = clock.measure(lambda: busy(0.2) or "done")
    assert result == "done"
    assert excluded and abs(raw + sum(excluded) - 0.2) < 0.02
    assert raw < 0.2 and scaled > 0
