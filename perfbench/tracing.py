"""Call counting and span tracing around nilary's public functions.

Everything here lives outside ``src/``: :func:`install` swaps each traced
function for a wrapper in every ``nilary`` module that holds a reference
to it, so calls made inside the library are seen as well as calls made by
the benchmark. With ``spans=False`` only the functions behind the exact
counters are wrapped, and the wrappers only count calls. With
``spans=True`` every listed function is wrapped and each call also records
a span ``(id, parent, trace, name, start, end)``; spans about one ring
share its label as the trace id. A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import re
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]")

CONSTRUCTORS = ("make_zn", "make_zero_mul", "make_direct_sum", "make_matrix_ring",
                "make_upper_triangular")
CONTEXT_METHODS = ("product", "chain", "principal_masks", "lattice_masks")


def metric_key(label: str) -> str:
    """A ring spec or label as it appears inside a metric name."""
    return _UNSAFE.sub("-", label)


class Tracer:
    """Counts calls per name and, with spans on, records spans and self time."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.active = True
        self.calls: Counter = Counter()
        self.tallies: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)  # inclusive, for per-ring spans
        self.excluded = 0.0  # time left out of every span so far, see exclude()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, trace id, time covered by children]

    def wrap(self, name, fn, tally=None, per_ring=False, consume=False):
        """Wrap fn so calls count under name.

        per_ring=True names each span name.<ring> and reports its inclusive
        time, the whole call, instead of its self time. tally=(counter, f)
        adds f(result) to that counter; consume=True drains a generator into
        a list so its span covers the real work.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = f"{name}.{metric_key(args[0].label)}" if per_ring else name
            tracer.calls[span] += 1
            if not tracer.spans_on:
                result = list(fn(*args, **kwargs)) if consume else fn(*args, **kwargs)
            else:
                result = tracer._timed(span, args, fn, kwargs, consume, per_ring)
            if tally is not None:
                tracer.tallies[tally[0]] += tally[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, span, args, fn, kwargs, consume, inclusive):
        stack = self._stack
        parent = stack[-1] if stack else None
        trace_id = _ring_label(args) or (parent[1] if parent else "-")
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the span ends
        frame = [span_id, trace_id, 0.0]
        stack.append(frame)
        excluded0 = self.excluded
        start = time.perf_counter()
        try:
            return list(fn(*args, **kwargs)) if consume else fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.self_s[span] += (end - start) - frame[2]
            if inclusive:
                self.total_s[span] += (end - start) - (self.excluded - excluded0)
            if parent is not None:
                parent[2] += end - start
            self.spans[span_id] = (span_id, parent[0] if parent else None, trace_id, span,
                                   start, end)

    def exclude(self, seconds: float) -> None:
        """Leave time spent outside nilary (inside the open span) out of its self time."""
        self.excluded += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def layer_metrics(self) -> dict[str, float]:
        """``<name>.s`` (self time; inclusive per ring), ``<name>.calls``, and tallies."""
        out: dict[str, float] = {f"{k}.s": v for k, v in self.self_s.items()}
        out.update({f"{k}.s": v for k, v in self.total_s.items()})
        out.update({f"{k}.calls": v for k, v in self.calls.items()})
        out.update(self.tallies)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines.

        The first line lists the span names and the second the trace ids;
        each further line is ``[id, parent, trace index, name index, start,
        end]``.
        """
        names: dict[str, int] = {}
        traces: dict[str, int] = {}
        rows = [[i, parent, traces.setdefault(trace, len(traces)),
                 names.setdefault(name, len(names)), start, end]
                for i, parent, trace, name, start, end in self.spans]
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(list(names)) + "\n")
            fh.write(json.dumps(list(traces)) + "\n")
            for row in rows:
                fh.write(json.dumps(row) + "\n")


def _ring_label(args) -> str | None:
    """Label of the ring a call is about, taken from its first argument."""
    if not args:
        return None
    first = args[0]
    ring = getattr(first, "ring", first)
    label = getattr(ring, "label", None)
    return label if isinstance(label, str) else None


def install(tracer: Tracer) -> None:
    """Replace nilary's functions by tracer wrappers, everywhere they are bound.

    Without spans only the functions behind the exact counters (closures,
    quotients, verdicts) are wrapped, to keep timed passes unperturbed.
    """
    from nilary import classify, corpus, hunt, ideals, replay, rings, specs, theorems

    modules = [m for name, m in sys.modules.items()
               if (name == "nilary" or name.startswith("nilary.")) and m is not None]

    def rebind(old, new) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)

    def patch(module, attr: str, name: str, **kw) -> None:
        old = getattr(module, attr)
        rebind(old, tracer.wrap(name, old, **kw))

    patch(ideals, "ideal_generated_by", "ideals.ideal_generated_by")
    patch(ideals, "additive_closure_mask", "ideals.additive_closure_mask")
    patch(ideals, "make_quotient", "ideals.make_quotient")
    for pred, fn in list(classify.REGISTRY.items()):
        classify.REGISTRY[pred] = tracer.wrap(f"classify.pred.{pred}", fn,
                                              tally=("classify.verdicts", _one))
    if not tracer.spans_on:
        return
    patch(specs, "parse_ring_spec", "specs.parse_ring_spec")
    patch(specs, "load_ring_file", "specs.load_ring_file")
    patch(corpus, "build_rings", "corpus.build_rings")
    for attr in CONSTRUCTORS:
        patch(rings, attr, "rings.construct")
    patch(rings, "validate_ring", "rings.validate_ring")
    patch(rings, "characteristic", "rings.characteristic")
    patch(ideals, "enumerate_ideals", "ideals.enumerate_ideals",
          tally=("ideals.lattice_ideals", len))
    for attr in CONTEXT_METHODS:
        method = getattr(classify.RingContext, attr)
        setattr(classify.RingContext, attr, tracer.wrap(f"classify.RingContext.{attr}", method))
    patch(classify, "full_report", "classify.full_report", per_ring=True)
    rebind(theorems.CASES, tuple(
        (cid, text, tracer.wrap(f"theorems.{cid}", fn, tally=(f"theorems.{cid}.instances",
                                                               _instances)))
        for cid, text, fn in theorems.CASES
    ))
    patch(hunt, "run_hunt", "hunt.run_hunt", consume=True)
    patch(replay, "replay_report", "replay.replay_report", tally=("replay.verdicts", len))


def _one(_result) -> int:
    return 1


def _instances(result) -> int:
    return result.instances
