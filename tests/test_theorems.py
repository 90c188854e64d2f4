"""Theorem harness: cases pass on honest engines and catch corrupted ones."""

import dataclasses
import hashlib
import json
import sys
from collections import Counter

import pytest
from _oracles import p1_3_by_tuples
from hypothesis import given

from test_cli import ONESIDED_QUERY
from test_lattice import HUNT_SHAPES, LADDER, ZERO_RING_5, small_specs
from nilary import (
    Ideal,
    Ring,
    clear_caches,
    enumerate_ideals,
    is_commutative,
    make_quotient,
    parse_ring_spec,
    replay_verdict,
    ring_context,
)
from nilary import ideals, rings
from nilary.classify import REGISTRY, RingContext, Verdict, Witness, _LatticeIndex, full_report
from nilary.hunt import parse_query, run_hunt
from nilary.theorems import CASE_IDS, _case, _p1_3, render_table, report_json, run_all

HARNESS_SPECS = [
    "Zn:1",
    "Zn:2",
    "Zn:4",
    "Zn:6",
    "Zn:12",
    "zmul:4",
    "dsum(Zn:2,Zn:2)",
    "dsum(Zn:2,Zn:3)",
    "M:2:Zn:2",
    "T:2:Zn:2",
    "quot(Zn:12,gen(4))",
]


@pytest.fixture(scope="module")
def harness_rings():
    return [parse_ring_spec(s) for s in HARNESS_SPECS]


def test_all_cases_pass_on_small_corpus(harness_rings):
    results = run_all(harness_rings)
    failing = [res.case_id for res in results if not res.passed]
    assert not failing, render_table(results)


def test_example_cases():
    (e22,) = run_all((), ["E2.2"])
    assert e22.passed and e22.instances == 1
    (em,) = run_all((), ["EM2Z2"])
    assert em.passed and em.instances == 1


# (instances, hypothesis_instances) of every case on the 79 builtin rings
BUILTIN_COUNTS = {
    "P1.2": (267, 267),
    "P1.3": (4078, 2672),
    "P1.3-nilary-quot": (287, 287),
    "Pquot": (267, 267),
    "Phom-fwd": (985, 796),
    "Phom-back": (985, 796),
    "Cquot-corr": (985, 985),
    "Pnil-lift": (346, 60),
    "Pcomm-pnilary": (346, 343),
    "Pnil-nilpotent": (79, 36),
    "Cchar": (72, 28),
    "D2.1-hierarchy": (267, 164),
    "E2.2": (1, 1),
    "P2.3w": (267, 51),
    "P2.4w": (267, 207),
    "C2.5w": (138, 138),
    "P2.6": (255, 255),
    "EM2Z2": (1, 1),
    "Rprime-nilary": (79, 17),
}


def test_builtin_counts_are_pinned(builtin_rings):
    assert len(builtin_rings) == 79
    results = run_all(builtin_rings)
    assert all(res.passed for res in results), render_table(results)
    got = {res.case_id: (res.instances, res.hypothesis_instances) for res in results}
    assert got == BUILTIN_COUNTS


def test_every_case_has_hypothesis_instances(harness_rings):
    for res in run_all(harness_rings):
        assert res.hypothesis_instances >= 1, res.case_id


def test_case_filter_and_unknown_id(harness_rings):
    only = run_all(harness_rings, ["E2.2", "Cchar"])
    assert [res.case_id for res in only] == ["Cchar", "E2.2"]  # registry order
    with pytest.raises(ValueError, match="unknown case"):
        run_all(harness_rings, ["NOPE"])


# each pass with the specs it runs over; None stands for the builtin corpus
WARM_PASSES = {
    "run_all-builtins": (None, lambda rs: [res.to_json() for res in run_all(rs)]),
    "full_report-ladder": (LADDER, lambda rs: [full_report(r) for r in rs]),
    "run_hunt-noncomm": (HUNT_SHAPES,
                         lambda rs: list(run_hunt(rs, parse_query(ONESIDED_QUERY, "any-ideal")))),
}
BUILDERS = (*(getattr(rings, name) for name in (
    "make_zn", "make_zero_mul", "make_direct_sum", "make_matrix_ring", "make_upper_triangular",
    "matrix_entry_index")), ideals.make_quotient, ideals.enumerate_ideals)


@pytest.mark.parametrize("name", WARM_PASSES)
def test_second_pass_builds_nothing(name, builtin_rings, monkeypatch):
    """A second pass over the same rings reuses their contexts: no ring, lattice or verdict is built.

    The worked examples of the harness run on module-constant rings, so
    run_all builds none of its own either.
    """
    specs, run = WARM_PASSES[name]
    corpus = builtin_rings if specs is None else [parse_ring_spec(s) for s in specs]
    clear_caches()
    try:
        first = run(corpus)
        calls: Counter = Counter()

        def counted(label, fn):
            def wrapper(*args, **kw):
                calls[label] += 1
                return fn(*args, **kw)
            return wrapper

        modules = [m for mod, m in sys.modules.items() if mod.split(".")[0] == "nilary"]
        for fn in BUILDERS:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted(fn.__name__, fn))
        from_tables = Ring.__dict__["from_tables"].__func__
        monkeypatch.setattr(Ring, "from_tables", classmethod(counted("Ring.from_tables", from_tables)))
        monkeypatch.setattr(RingContext, "__init__",
                            counted("RingContext.__init__", RingContext.__init__))
        for pred, fn in list(REGISTRY.items()):
            monkeypatch.setitem(REGISTRY, pred, counted(f"predicate {pred}", fn))
        second = run(corpus)
        monkeypatch.undo()
    finally:
        clear_caches()
    assert calls == Counter(), calls
    assert second == first


def test_empty_corpus_flags_warning():
    results = run_all(())
    for res in results:
        assert res.passed
        if res.instances == 0:
            assert res.warning == "empty corpus"
    # the two self-contained example cases still run their single instance
    by_id = {res.case_id: res for res in results}
    assert by_id["E2.2"].instances == 1
    assert by_id["P1.2"].instances == 0


def test_report_is_deterministic(harness_rings):
    a = json.dumps(report_json(run_all(harness_rings), harness_rings), sort_keys=True)
    b = json.dumps(report_json(run_all(harness_rings), harness_rings), sort_keys=True)
    assert a == b


def test_report_shape(harness_rings):
    data = report_json(run_all(harness_rings), harness_rings)
    assert set(data) == {"cases", "corpus"}
    assert data["corpus"]["rings"] == HARNESS_SPECS
    assert [c["id"] for c in data["cases"]] == list(CASE_IDS)
    for c in data["cases"]:
        assert {"id", "pass", "instances", "hypothesis_instances", "violations"} <= set(c)


def test_quotients_stay_out_of_the_context_cache(builtin_rings):
    """Quotient contexts live on their ring's context, not in the global cache."""
    clear_caches()
    try:
        cold = json.dumps(report_json(run_all(builtin_rings), builtin_rings), sort_keys=True)
        assert ring_context.cache_info().misses <= len(builtin_rings)
        quotients = [q for r in builtin_rings for q, _ in ring_context(r)._quotients.values()]
        assert len(quotients) == 346
        assert all(q._commutative is None for q in quotients)  # nothing asked them
        warm = json.dumps(report_json(run_all(builtin_rings), builtin_rings), sort_keys=True)
        assert warm == cold
    finally:
        clear_caches()


def test_run_all_fetches_each_context_once():
    """260 distinct rings overflow the 256-entry context cache; no case refetches one."""
    specs = [f"Zn:{n}" for n in range(1, 65)]
    specs += [f"dsum(Zn:{a},Zn:{b})" for a in range(1, 15) for b in range(1, 15)]
    rings = [parse_ring_spec(s) for s in specs]
    assert len(set(rings)) == 260
    clear_caches()
    try:
        run_all(rings, ["P2.6", "Cchar"])
        assert ring_context.cache_info().misses == 260
    finally:
        clear_caches()


def test_pcomm_hypothesis_is_a_commutative_quotient(builtin_rings):
    """Pcomm-pnilary's hypothesis holds on exactly the ideals I with A/I commutative."""
    rings = [*builtin_rings, *(parse_ring_spec(s) for s in (*LADDER, *HUNT_SHAPES, "T:2:Zn:6"))]
    noncommutative = [r for r in rings if not is_commutative(r)]
    assert len(noncommutative) == 17
    for r in noncommutative:
        (res,) = run_all([r], ["Pcomm-pnilary"])
        want = sum(is_commutative(make_quotient(r, Ideal(r, m))[0])
                   for m in enumerate_ideals(r).masks())
        assert res.hypothesis_instances == want, r.label


_HONEST_PRODUCT = RingContext.product


def _degraded_product(self, jm, km):
    """A faulty RingContext.product: the product of the union with itself, joined with both."""
    return _HONEST_PRODUCT(self, jm | km, jm | km) | jm | km


def _row_through_product(self, ctx, j):
    """Index row j filled through ctx.product, so that a fault injected there reaches the rows."""
    if self.rows[j] is None:
        self.rows[j] = [ctx.product(self.masks[j], km) for km in self.masks]
    return self.rows[j]


# products degraded to sums, at the context and in the index rows, which do not call it
DEGRADED = ((RingContext, "product", _degraded_product), (_LatticeIndex, "row", _row_through_product))


def test_corrupted_engine_is_caught(monkeypatch):
    """Fault injection below the classifier: products degrading to sums."""
    clear_caches()
    for target, name, fake in DEGRADED:
        monkeypatch.setattr(target, name, fake)
    try:
        rings = [parse_ring_spec(s) for s in ("Zn:6", "Zn:12", "Zn:4")]
        results = run_all(rings)
        assert any(not res.passed for res in results)
    finally:
        clear_caches()


def test_corrupted_classifier_is_caught(monkeypatch):
    """Fault injection: a lying predicate produces replayable violations."""
    honest = REGISTRY["completely_nilary"]

    def lying(ctx, mask):
        v = honest(ctx, mask)
        if ctx.ring.label == "Zn:6" and mask == 1:
            return Verdict(True, Witness.none())  # deny the (2,3) counterexample
        return v

    clear_caches()
    monkeypatch.setitem(REGISTRY, "completely_nilary", lying)
    try:
        rings = [parse_ring_spec("Zn:6")]
        results = {res.case_id: res for res in run_all(rings)}
        violated = [cid for cid, res in results.items() if not res.passed]
        assert violated  # P1.2 and the quotient cases must notice
        assert "P1.2" in violated or "Pquot" in violated
        for cid in violated:
            for violation in results[cid].violations:
                for pred, witness in violation.witnesses:
                    if witness.variant == "none":
                        continue
                    # honest sub-verdicts attached to the violation replay fine
                    if pred != "completely_nilary":
                        assert replay_verdict(
                            violation.ring,
                            violation.ideal_elements or (0,),
                            pred,
                            False,
                            witness,
                        )
    finally:
        clear_caches()


def _patch(mp, patches):
    for target, name, fake in patches:
        (mp.setitem if target is REGISTRY else mp.setattr)(target, name, fake)


FAULT_SPECS = ("Zn:6", "Zn:12", "Zn:4", "M:2:Zn:2", "T:2:Zn:2", "zmul:4", "dsum(Zn:2,Zn:3)")
# sha256 of the JSON list of reports below, and its violation count
FAULT_REPORT_SHA256 = "6ee90f9dd845c64f5ef6de372f58640f26a5265ccbdc20512070bbcf40595ebf"
FAULT_VIOLATIONS = 360


def test_fault_injection_report_is_pinned():
    """Every violation, description and witness under injected faults is pinned.

    One report per fault: products degraded to sums as in the test above,
    then each registered predicate negated in turn. The lies no case catches
    are pinned too: they are the harness's blind spots.
    """

    def negated(fn):
        def lying(ctx, mask):
            v = fn(ctx, mask)
            return dataclasses.replace(v, holds=not v.holds)

        return lying

    rings = [parse_ring_spec(s) for s in FAULT_SPECS]
    faults = [("product", DEGRADED)]
    faults += [(name, ((REGISTRY, name, negated(fn)),)) for name, fn in REGISTRY.items()]
    reports = []
    try:
        for _, patches in faults:
            clear_caches()
            with pytest.MonkeyPatch.context() as mp:
                _patch(mp, patches)
                reports.append(report_json(run_all(rings), rings))
    finally:
        clear_caches()
    assert len(reports) == 20
    counts = {name: sum(len(c["violations"]) for c in rep["cases"])
              for (name, _), rep in zip(faults, reports)}
    assert sum(counts.values()) == FAULT_VIOLATIONS
    assert [name for name, n in counts.items() if n == 0] == [
        "semiprime", "left_primary", "p_right_primary", "p_left_primary", "completely_left_primary"]
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FAULT_REPORT_SHA256


def test_p1_3_is_pinned_on_the_zero_ring():
    """(Z_2)^4 with zero product: 67 ideals, all completely nilary, all products zero.

    Every ordered tuple of one to three ideals is a hypothesis instance:
    67 + 67^2 + 67^3 of them.
    """
    r = parse_ring_spec("dsum(zmul:2,dsum(zmul:2,dsum(zmul:2,zmul:2)))")
    (res,) = run_all([r], ["P1.3"])
    assert (res.instances, res.hypothesis_instances, len(res.violations)) == (305319, 305319, 0)


_HONEST_COMPLETELY_NILARY = REGISTRY["completely_nilary"]


def _zero_ideal_liar(ctx, mask):
    """completely_nilary denied on the zero ideal alone: a product that vanishes fails P1.3."""
    return Verdict(False, Witness.none()) if mask == 1 else _HONEST_COMPLETELY_NILARY(ctx, mask)


ZERO_LIAR = ((REGISTRY, "completely_nilary", _zero_ideal_liar),)
# the violation count of P1.3 over FAULT_SPECS under ZERO_LIAR, and the sha256 of their JSON list
P1_3_LIAR_VIOLATIONS = 17
P1_3_LIAR_SHA256 = "3562cda83a237792ef0e4d7105db946679d11b16a7978227b1e699e7fd587328"


def test_p1_3_violations_are_pinned():
    """Order, descriptions, masks and witnesses of P1.3's violations, under a lie it catches."""
    rings = [parse_ring_spec(s) for s in FAULT_SPECS]
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            _patch(mp, ZERO_LIAR)
            (res,) = run_all(rings, ["P1.3"])
    finally:
        clear_caches()
    assert len(res.violations) == P1_3_LIAR_VIOLATIONS
    text = json.dumps([v.to_json() for v in res.violations], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == P1_3_LIAR_SHA256


_HONEST_STABLE_POWERS = _LatticeIndex.stable_powers


def _shifted_stable_powers(self, ctx):
    """Every other ideal's stable power replaced by the next ideal's, which it does not hold."""
    honest = _HONEST_STABLE_POWERS(self, ctx)
    return [self.masks[(j + 1) % len(honest)] if j % 2 else m for j, m in enumerate(honest)]


def _off_lattice_liar(ctx, mask):
    """completely_nilary denied on every mask outside the two-sided lattice."""
    if mask in ctx.index().pos:
        return _HONEST_COMPLETELY_NILARY(ctx, mask)
    return Verdict(False, Witness.none())


# the oracle comparison's faults; under the last, products that leave the lattice fail P1.3
FAULTS = {
    "honest": (),
    "degraded": DEGRADED,
    "liar": ZERO_LIAR,
    "stable": ((_LatticeIndex, "stable_powers", _shifted_stable_powers),),
    "degraded-liar": (*DEGRADED, (REGISTRY, "completely_nilary", _off_lattice_liar)),
}
SWEEP_SPECS = (*FAULT_SPECS, "dsum(zmul:2,dsum(zmul:2,dsum(zmul:2,zmul:2)))", "T:2:Zn:4",
               "dsum(T:3:Zn:2,zmul:2)")


def _p1_3_sweep_and_tuple_walk(ring: Ring, fault) -> tuple[dict, dict]:
    """P1.3's report on one ring from the case body and from the tuple walk, each on a fresh context."""
    with pytest.MonkeyPatch.context() as mp:
        _patch(mp, fault)
        return tuple(_case("P1.3", body)([RingContext(ring)]).to_json()
                     for body in (_p1_3, p1_3_by_tuples))


@pytest.mark.parametrize("fault", FAULTS)
def test_p1_3_sweep_matches_tuple_walk(fault, builtin_rings):
    for r in (*builtin_rings, *(parse_ring_spec(s) for s in SWEEP_SPECS)):
        sweep, walk = _p1_3_sweep_and_tuple_walk(r, FAULTS[fault])
        assert sweep == walk, r.label


@pytest.mark.parametrize("fault", FAULTS)
@given(spec=small_specs())
def test_p1_3_sweep_matches_tuple_walk_on_random_specs(fault, spec):
    sweep, walk = _p1_3_sweep_and_tuple_walk(parse_ring_spec(spec), FAULTS[fault])
    assert sweep == walk


def test_p1_3_sweeps_the_5_zero_ring_by_first_factor(monkeypatch):
    """(Z_2)^5 with zero product: 374 ideals, all completely nilary, all products zero.

    Every one of its 374 + 374^2 + 374^3 tuples is a hypothesis instance.
    The case asks each ideal's verdict and reads each first factor's index
    row a bounded number of times, so a walk over the tuples fails here.
    """
    r = parse_ring_spec(ZERO_RING_5)
    calls: Counter = Counter()
    for target, name in ((RingContext, "verdict"), (_LatticeIndex, "row")):
        def counted(*args, _fn=getattr(target, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(target, name, counted)
    clear_caches()
    try:
        (res,) = run_all([r], ["P1.3"])
        monkeypatch.undo()
        lattice = len(ring_context(r).lattice_masks())
        assert lattice == 374
        assert calls["verdict"] <= 3 * lattice and calls["row"] <= 2 * lattice, calls
        results = run_all([r])
    finally:
        clear_caches()
    assert all(res.passed for res in results), render_table(results)
    (res,) = [res for res in results if res.case_id == "P1.3"]
    assert (res.instances, res.hypothesis_instances, len(res.violations)) == (52453874, 52453874, 0)
