"""One benchmark pass of one workload, in a fresh process.

    python3 perfbench/worker.py INPUTS.json [--setups K] [--trace] [--checks] [--spans FILE]

INPUTS.json holds ``{"workload": ..., "specs": [...]}``; ``src`` must be on
PYTHONPATH. The worker builds the rings K times (set-up), clears nilary's
caches, times one cold pass through the same entry points and JSON
rendering as the CLI, and then repeats the pass warm. After the timing it
checks the outputs: committed digests, the theorem harness verdicts and a
replay of every emitted verdict. With ``--checks`` it also compares
against the CLI's stdout and the brute-force ideal oracle. With
``--trace`` it records spans and reports per-layer metrics instead of
warm passes. It prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from types import SimpleNamespace

from nilary import classify, cli, corpus, hunt, ideals, replay, theorems
from refclock import Stopwatch
from tracing import Tracer, install
from workloads import HUNT_QUERY

EXPECTED = Path(__file__).with_name("expected.json")
# a unit's warm repeats cover WARM_SHARE of its cold time and, over all units,
# at least WARM_MIN_S
WARM_MIN_S = 1.0
WARM_SHARE = 0.25
WARM_MAX = 5000
CLI_LADDER_RING = "Zn:64"
def render(obj) -> str:
    """The bytes the CLI prints for obj with --json."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# passes: rings -> (rendered outputs by key, objects the checks need) ----------


def pass_verify(rings):
    results = theorems.run_all(rings)
    return {"report": render(theorems.report_json(results, rings))}, results


def pass_ladder(rings):
    texts, reports = {}, {}
    for r in rings:
        reports[r.label] = classify.full_report(r)
        texts[r.label] = render([rep.to_json() for rep in reports[r.label]])
    return texts, reports


def pass_hunt(rings):
    query = hunt.parse_query(HUNT_QUERY, "any-ideal")
    matches = list(hunt.run_hunt(rings, query))
    return {"matches": render({"query": query.text, "target": query.target,
                               "matches": [m.to_json() for m in matches]})}, matches


# pass, and whether it runs ring by ring: then each ring is a unit of its own,
# timed apart and followed by its warm repeats, so that on the one long
# ladder pass the warm measurement is spread over the run like the cold one
PASSES = {"verify-builtin": (pass_verify, False), "classify-ladder": (pass_ladder, True),
          "hunt-noncomm": (pass_hunt, False)}


def warm_time(clock, tracer, run_pass, unit, cold_texts, cover):
    """Repeat the pass on unit, warm, for at least cover seconds.

    Returns (same output as cold, median raw seconds, median reference
    seconds, ring_context hits and misses made). Call counting is paused,
    so the exact counters describe the cold pass alone.
    """
    raws = []

    def repeat():
        while not raws or (sum(raws) < cover and len(raws) < WARM_MAX):
            t0, spent0 = time.perf_counter(), clock.spent
            texts, _ = run_pass(unit)
            raws.append(time.perf_counter() - t0 - (clock.spent - spent0))
            if texts != cold_texts:
                return False
        return True

    before = classify.ring_context.cache_info()
    tracer.active = False
    same, raw, scaled = clock.measure(repeat)
    tracer.active = True
    after = classify.ring_context.cache_info()
    return (same, median(raws), median(raws) * scaled / raw,
            after.hits - before.hits, after.misses - before.misses)


def build(specs):
    return corpus.build_rings(corpus.CorpusConfig(specs=specs))


def case_digests(results) -> dict[str, str]:
    return {res.case_id: digest(render(res.to_json())) for res in results}


def ladder_digests(texts: dict[str, str]) -> dict[str, str]:
    return {label: digest(text) for label, text in texts.items()}


# output checks: each adds the labels of failing rings to `failed` ------------


def check_verify(rings, results, expected, failed, errors) -> None:
    labels = {r.label for r in rings}
    bad = [res.case_id for res in results if not res.passed]
    if len(results) != len(theorems.CASE_IDS) or bad:
        errors.append(f"harness: {len(results)} cases, failing {bad}")
        named = {v.ring_label for res in results for v in res.violations}
        failed.update(named & labels or labels)
    got = case_digests(results)
    wrong = sorted(cid for cid in theorems.CASE_IDS if got.get(cid) != expected.get(cid))
    if wrong:
        errors.append(f"case digests differ: {wrong}")
        failed.update(labels)


def check_ladder(texts, expected, failed, errors) -> None:
    for label, d in ladder_digests(texts).items():
        if d != expected.get(label):
            errors.append(f"digest differs: {label}")
            failed.add(label)


def replay_ladder(rings, reports, failed, errors) -> None:
    for r in rings:
        for rep in reports[r.label]:
            if not all(replay.replay_report(r, rep).values()):
                errors.append(f"replay failed: {r.label} ideal {rep.ideal_elements}")
                failed.add(r.label)


def replay_hunt(rings, matches, failed, errors) -> None:
    by_label = {r.label: r for r in rings}
    names = sorted(set(re.findall(r"\w+", HUNT_QUERY)) & set(classify.PREDICATE_NAMES))
    for m in matches:
        r = by_label[m.ring_label]
        ctx = classify.ring_context(r)
        mask = sum(1 << e for e in m.ideal_elements)
        report = SimpleNamespace(ideal_elements=m.ideal_elements,
                                 verdicts={n: ctx.verdict(n, mask) for n in names})
        if not all(replay.replay_report(r, report).values()):
            errors.append(f"replay failed: {r.label} ideal {m.ideal_elements}")
            failed.add(r.label)


def check_oracle(rings, failed, errors) -> None:
    for r in rings:
        if r.order > ideals.BRUTE_FORCE_ORDER_CAP:
            continue
        for kind in ideals.KINDS:
            if (ideals.enumerate_ideals(r, kind).masks()
                    != ideals.enumerate_ideals_bruteforce(r, kind).masks()):
                errors.append(f"oracle disagrees: {r.label} {kind}")
                failed.add(r.label)


def check_cli(workload, rings, texts, results, failed, errors) -> None:
    labels = {r.label for r in rings}
    if workload == "verify-builtin":
        order = {s: i for i, s in enumerate(corpus.builtin_specs())}
        canonical = sorted(rings, key=lambda r: order.get(r.label, len(order)))
        code, out = run_cli(["verify", "--builtin", "--json"])
        if code != 0 or out != render(theorems.report_json(results, canonical)):
            errors.append("verify --builtin --json differs from the library rendering")
            failed.update(labels)
    elif workload == "classify-ladder":
        code, out = run_cli(["classify", CLI_LADDER_RING, "--json"])
        if code != 0 or out != texts.get(CLI_LADDER_RING):
            errors.append(f"classify {CLI_LADDER_RING} --json differs")
            failed.add(CLI_LADDER_RING)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("inputs")
    p.add_argument("--setups", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--checks", action="store_true")
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    inputs = json.loads(Path(args.inputs).read_text())
    workload, specs = inputs["workload"], tuple(inputs["specs"])
    expected = json.loads(EXPECTED.read_text()).get(workload, {})
    run_pass, per_ring = PASSES[workload]

    tracer = Tracer(spans=args.trace)
    install(tracer)
    clock = Stopwatch(tracer.exclude)
    setup_raw, setup_s = [], []
    for i in range(max(1, args.setups)):
        tracer.active = i == 0
        rings, raw, scaled = clock.measure(build, specs)
        setup_raw.append(raw)
        setup_s.append(scaled)
    tracer.active = True
    labels = {r.label for r in rings}

    failed: set[str] = set()
    errors: list[str] = []
    calls0, tallies0 = tracer.calls.copy(), tracer.tallies.copy()
    units = [[r] for r in rings] if per_ring else [rings]
    texts, reports = {}, {}
    wall_raw = wall_s = warm_raw = warm_s = 0.0
    warm_hits = warm_misses = 0
    classify.clear_caches()
    try:
        for unit in units:
            (unit_texts, payload), raw, scaled = clock.measure(run_pass, unit)
            texts.update(unit_texts)
            if per_ring:
                reports.update(payload)
            wall_raw += raw
            wall_s += scaled
            if args.trace:
                continue
            cover = max(WARM_MIN_S / len(units), WARM_SHARE * raw)
            same, w_raw, w_scaled, hits, misses = warm_time(clock, tracer, run_pass, unit,
                                                            unit_texts, cover)
            warm_raw += w_raw
            warm_s += w_scaled
            warm_hits += hits
            warm_misses += misses
            if not same:
                errors.append("warm pass output differs from the cold pass")
                failed.update(r.label for r in unit)
        if per_ring:
            payload = reports
    except Exception:
        errors.append(traceback.format_exc(limit=-3))
        failed.update(labels)
        payload = wall_raw = wall_s = warm_raw = warm_s = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lru = classify.ring_context.cache_info()
    lru_hits, lru_misses = lru.hits - warm_hits, lru.misses - warm_misses
    calls, tallies = tracer.calls - calls0, tracer.tallies - tallies0
    layers = tracer.layer_metrics()  # set-up and pass; replay is added below
    counters = {
        "closures": calls["ideals.ideal_generated_by"] + calls["ideals.additive_closure_mask"],
        "quotients": calls["ideals.make_quotient"],
        "lru_hits": lru_hits,
        "lru_misses": lru_misses,
        "verdicts": tallies["classify.verdicts"],
        "harness_instances": 0,
        "hunt_instances": 0,
        "hunt_matches": 0,
    }

    if payload is not None:
        if workload == "verify-builtin":
            counters["harness_instances"] = sum(res.instances for res in payload)
            check_verify(rings, payload, expected, failed, errors)
        elif workload == "classify-ladder":
            check_ladder(texts, expected, failed, errors)
            replay_ladder(rings, payload, failed, errors)
        else:
            replay_hunt(rings, payload, failed, errors)
    tracer.active = False
    if workload == "hunt-noncomm" and payload is not None:
        counters["hunt_matches"] = len(payload)
        counters["hunt_instances"] = sum(
            len(classify.ring_context(r).lattice_masks(ideals.TWO_SIDED)) for r in rings)
    t0 = time.perf_counter()
    if args.checks and payload is not None:
        check_cli(workload, rings, texts, payload, failed, errors)
        check_oracle(rings, failed, errors)
    checks_s = time.perf_counter() - t0

    out = {
        "attempted": len(rings),
        "failed": sorted(failed),
        "errors": errors,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "warm_wall_s": warm_s or None,
        "raw_s": {"setup": setup_raw, "wall": wall_raw, "warm": warm_raw or None},
        "peak_rss_mb": peak_rss_mb,
        "counters": counters,
        "checks_s": checks_s,
    }
    if args.trace:
        layers.update({k: v for k, v in tracer.layer_metrics().items()
                       if k.startswith("replay.")})
        layers.update({
            "classify.ring_context.hits": lru_hits,
            "classify.ring_context.misses": lru_misses,
            "classify.ring_context.hit_ratio": lru_hits / max(1, lru_hits + lru_misses),
            "hunt.instances": counters["hunt_instances"],
            "hunt.matches": counters["hunt_matches"],
        })
        # self times in reference seconds, at the cold pass's host speed
        scale = wall_s / wall_raw if wall_raw else 1.0
        out["layers"] = {k: v * scale if k.endswith(".s") else v for k, v in layers.items()}
        if args.spans:
            tracer.dump(Path(args.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
