"""Theorem harness: cases pass on honest engines and catch corrupted ones."""

import dataclasses
import gc
import hashlib
import json
import sys
import weakref
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
from nilary import classify, ideals, rings, theorems
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


@pytest.mark.parametrize("case_id, pred, label, ring", [
    ("E2.2", "weakly_nilary", "Zn:6", theorems._Z6),
    ("EM2Z2", "prime", "M:2:Zn:2", theorems._M2Z2),
])
def test_worked_example_violations_name_a_spec_of_their_ring(case_id, pred, label, ring, monkeypatch):
    """A worked example runs on its own ring whatever the corpus, and its violations name that
    ring by a spec that parses back to its tables, so a replay can rebuild a ring outside its corpus."""
    monkeypatch.setitem(REGISTRY, pred, lambda ctx, m: Verdict(False, Witness.none()))
    clear_caches()
    try:
        res, = run_all([parse_ring_spec("Zn:4")], [case_id])
    finally:
        monkeypatch.undo()
        clear_caches()
    assert res.violations and {v.ring_label for v in res.violations} == {label}
    parsed = parse_ring_spec(label)
    assert (parsed.order, parsed.add, parsed.mul, parsed.one) == (ring.order, ring.add, ring.mul,
                                                                  ring.one)


def test_quotients_stay_out_of_the_context_cache(builtin_rings):
    """Quotient contexts live on their ring's context, not in the global cache."""
    clear_caches()
    try:
        cold = json.dumps(report_json(run_all(builtin_rings), builtin_rings), sort_keys=True)
        assert ring_context.cache_info().misses <= len(builtin_rings)
        contexts = list(map(ring_context, builtin_rings))
        quotients = [(ctx, q) for ctx in contexts for q, _ in ctx._quotients.values()]
        assert len(quotients) == 346
        assert len({id(q) for _, q in quotients}) == 66  # 65 corpus table pairs, A/A without unity
        # nothing asked them; a corpus context, A/0 among them, is one the cases did ask
        owned = {id(ctx) for ctx in contexts}
        assert all(q._commutative is None for _, q in quotients if id(q) not in owned)
        warm = json.dumps(report_json(run_all(builtin_rings), builtin_rings), sort_keys=True)
        assert warm == cold
    finally:
        clear_caches()


def test_builtin_run_all_builds_only_proper_nonzero_quotients(builtin_rings, monkeypatch):
    """Of the 346 quotients a builtin run asks for, the 182 by 0 < I < A are built, once."""
    built = []

    def counting(r, i, **kw):
        built.append((r.label, i.mask))
        return make_quotient(r, i, **kw)

    monkeypatch.setattr(classify, "make_quotient", counting)
    clear_caches()
    try:
        run_all(builtin_rings)
        assert len(built) == 182
        run_all(builtin_rings)  # a warm run builds nothing
        assert len(built) == 182 == len(set(built))
    finally:
        clear_caches()


def test_builtin_run_all_builds_no_ring_for_a_by_a(builtin_rings, monkeypatch):
    """Cold, a builtin run builds only quotient rings, none of order 1; warm, it builds no Ring."""
    built = []
    init = Ring.__init__

    def counting(self, *args, **kw):
        init(self, *args, **kw)
        built.append(self.order)

    monkeypatch.setattr(Ring, "__init__", counting)
    clear_caches()
    try:
        run_all(builtin_rings)
        assert built and 1 not in built
        built.clear()
        run_all(builtin_rings)
        assert built == []
    finally:
        clear_caches()


def test_builtin_run_all_makes_one_context_per_table_pair(builtin_rings, monkeypatch):
    """Cold, one context per table pair serves the 79 rings and their quotients: 66, not 346."""
    made = []
    init = RingContext.__init__

    def counting(self, ring):
        made.append(ring.label)
        init(self, ring)

    monkeypatch.setattr(RingContext, "__init__", counting)
    clear_caches()
    try:
        run_all(builtin_rings)
        assert len(made) == 66
        run_all(builtin_rings)
        assert len(made) == 66  # a warm run makes none
    finally:
        clear_caches()


def _tables(r):
    return r.order, r.one, r.add, r.mul


def test_rings_with_equal_tables_share_one_context(builtin_rings):
    """ring_context resolves each builtin to the context of the first builtin with its tables."""
    clear_caches()
    try:
        contexts = [ring_context(r) for r in builtin_rings]
        for r, ctx in zip(builtin_rings, contexts):
            first = next(k for k, s in enumerate(builtin_rings) if _tables(s) == _tables(r))
            assert ctx is contexts[first] and ctx.ring is builtin_rings[first], r.label
        assert len({id(ctx) for ctx in contexts}) == 65
        z4, z4_again = (ring_context(parse_ring_spec(s)) for s in ("dsum(Zn:1,Zn:4)", "Zn:4"))
        assert z4 is z4_again
    finally:
        clear_caches()


def test_quotient_with_a_corpus_rings_tables_is_its_context(builtin_rings):
    """A/I whose tables equal a corpus ring's resolves to that ring's context."""
    clear_caches()
    try:
        contexts = [ring_context(r) for r in builtin_rings]
        z12, z4 = (ring_context(parse_ring_spec(s)) for s in ("Zn:12", "Zn:4"))
        assert z12 in contexts and z4 in contexts
        assert z12.quotient(ideals.elements_mask([0, 4, 8]))[0] is z4
        shared = 0
        for ctx in contexts:
            for m in ctx.lattice_masks():
                qctx = ctx.quotient(m)[0]
                owners = [c for c in contexts if _tables(c.ring) == _tables(qctx.ring)]
                assert owners == [] or qctx in owners, (ctx.ring.label, m)
                shared += qctx in owners
        assert shared == 339  # of 346: all but A/A of the 7 rings without unity
    finally:
        clear_caches()


def test_shared_quotient_contexts_match_fresh_ones(builtin_rings):
    """Every quotient record, its context shared or new, agrees with a fresh build of A/I."""
    rings = [*builtin_rings, *(parse_ring_spec(s) for s in HUNT_SHAPES)]
    clear_caches()
    try:
        for ctx in [ring_context(r) for r in rings]:
            r = ctx.ring
            for m in ctx.lattice_masks():
                qctx, images = ctx.quotient(m)
                quot, q_of = make_quotient(r, Ideal(r, m))
                q = qctx.ring
                want = [(i, ideals.elements_mask(q_of[a] for a in ideals.mask_elements(i)))
                        for i in ctx.lattice_masks() if not m & ~i]
                assert list(images) == want, (r.label, m)
                assert (q.order, q.one, q.add, q.mul) == (quot.order, quot.one, quot.add, quot.mul)
                fresh = RingContext(quot)
                for name in REGISTRY:
                    assert qctx.verdict(name, 1) == fresh.verdict(name, 1), (r.label, m, name)
    finally:
        clear_caches()


def test_the_registry_keeps_no_context_alive(builtin_rings):
    """The registry holds contexts weakly: a quotient's dies with its parent, and all with the caches."""
    clear_caches()
    try:
        ctx = RingContext(parse_ring_spec("Zn:12"))  # unregistered; its quotients are registered
        quotient = weakref.ref(ctx.quotient(ideals.elements_mask([0, 4, 8]))[0])
        assert RingContext(parse_ring_spec("Zn:24")).quotient(
            ideals.elements_mask(range(0, 24, 4)))[0] is quotient()  # Z/4 again: shared
        del ctx
        gc.collect()
        assert quotient() is None
        run_all(builtin_rings)
        old = weakref.ref(ring_context(builtin_rings[0]))
    finally:
        clear_caches()
    gc.collect()
    assert old() is None


def test_a_lie_does_not_outlive_the_caches(builtin_rings):
    """Verdicts decided under a liar leave with clear_caches, though contexts are shared."""
    def text():
        return json.dumps(report_json(run_all(builtin_rings), builtin_rings), sort_keys=True)

    clear_caches()
    try:
        honest = text()
        clear_caches()
        with pytest.MonkeyPatch.context() as mp:
            _patch(mp, ZERO_LIAR)
            assert text() != honest
            clear_caches()
        assert text() == honest
    finally:
        clear_caches()


def test_no_result_keeps_a_ring_alive():
    """Violations name their rings by label: with the corpus and the caches dropped, no ring lives."""
    rings = [parse_ring_spec(s) for s in ("Zn:6", "Zn:12", "M:2:Zn:2", "T:2:Zn:2", "dsum(Zn:2,Zn:3)")]
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            _patch(mp, ZERO_LIAR)
            results = run_all(rings)
    finally:
        clear_caches()
    assert sum(len(res.violations) for res in results) == 38
    before = [res.to_json() for res in results]
    alive = [weakref.ref(r) for r in rings]
    del rings
    gc.collect()
    assert [r() for r in alive] == [None] * len(alive)
    assert [res.to_json() for res in results] == before


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
                assert violation.ring_label == rings[0].label  # replayed through the one ring
                for pred, witness in violation.witnesses:
                    if witness.variant == "none":
                        continue
                    # honest sub-verdicts attached to the violation replay fine
                    if pred != "completely_nilary":
                        assert replay_verdict(
                            rings[0],
                            violation.ideal_elements or (0,),
                            pred,
                            False,
                            witness,
                        )
    finally:
        clear_caches()


@pytest.mark.parametrize("case_id, label, denied, says", [
    # every verdict on Zn:6's own ideals is denied; its quotients A/K, K > 0, answer honestly
    ("Phom-back", "Zn:6", lambda mask: True, "preimage of completely nilary image"),
    # {0,2} is nil and Zn:4/{0,2} is completely nilary, so Zn:4's zero ideal must be too
    ("Pnil-lift", "Zn:4", lambda mask: mask == 1, "ring is not completely nilary despite a nil ideal"),
], ids=["Phom-back", "Pnil-lift"])
def test_a_lie_on_the_ring_but_not_its_quotients_is_caught(monkeypatch, case_id, label, denied, says):
    """A completely_nilary liar on the swept ring alone trips the case that lifts from quotients."""
    honest = REGISTRY["completely_nilary"]

    def lying(ctx, mask):
        if ctx.ring.label == label and denied(mask):
            return Verdict(False, Witness.none())
        return honest(ctx, mask)

    clear_caches()
    try:
        assert run_all([parse_ring_spec(label)], [case_id])[0].passed
        clear_caches()
        monkeypatch.setitem(REGISTRY, "completely_nilary", lying)
        (res,) = run_all([parse_ring_spec(label)], [case_id])
        assert not res.passed and res.violations
        assert {v.ring_label for v in res.violations} == {label}
        assert all(v.description.startswith(says) for v in res.violations)
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


# three labels on Z_6's tables; the first creates the context the three share
Z6_LABELS = ("dsum(Zn:1,Zn:6)", "Zn:6", "quot(Zn:12,gen(6))")


def _by_label(items, label_of) -> dict:
    grouped: dict = {}
    for item in items:
        grouped.setdefault(label_of(item), []).append(item.to_json())
    return grouped


def test_violations_carry_the_label_of_the_ring_swept():
    """Under a lie, each violation names the ring swept, not the one whose label the context has."""
    rings = [parse_ring_spec(s) for s in Z6_LABELS]
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            _patch(mp, ZERO_LIAR)
            assert {id(ring_context(r)) for r in rings} == {id(ring_context(rings[0]))}
            results = run_all(rings)
            shared = [_by_label(res.violations, lambda v: v.ring_label) for res in results]
            for r in rings:
                clear_caches()
                alone = [_by_label(res.violations, lambda v: v.ring_label) for res in run_all([r])]
                assert [got.get(r.label, []) for got in shared] == [
                    got.get(r.label, []) for got in alone], r.label
                assert any(r.label in got for got in shared), r.label
    finally:
        clear_caches()


def test_hunt_and_reports_name_each_rings_own_label():
    """Matches and reports on rings that share a context carry their own ring's label."""
    rings = [parse_ring_spec(s) for s in Z6_LABELS]
    query = parse_query("nilary or not nilary", "any-ideal")

    def outputs(corpus):
        matches = _by_label(run_hunt(corpus, query), lambda m: m.ring_label)
        reports = _by_label((rep for r in corpus for rep in full_report(r)), lambda p: p.ring_label)
        return matches, reports

    clear_caches()
    try:
        shared = outputs(rings)
        for r in rings:
            clear_caches()
            alone = outputs([r])
            assert all(got[r.label] == want[r.label] for got, want in zip(shared, alone)), r.label
        assert all(list(got) == list(Z6_LABELS) for got in shared)
    finally:
        clear_caches()


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


def _p1_3_sweep_and_tuple_walk(ring: Ring, fault) -> tuple[tuple, tuple]:
    """P1.3's record on one ring from the case body and from the tuple walk, each on a fresh context.

    A side is (case_id, instances, hypothesis_instances, violations, warning), the fields
    to_json renders, with the violations compared as Violation objects, unrendered.
    """
    with pytest.MonkeyPatch.context() as mp:
        _patch(mp, fault)
        runs = [_case("P1.3", body)([(ring, RingContext(ring))]) for body in (_p1_3, p1_3_by_tuples)]
    return tuple((run.case_id, run.instances, run.hypothesis_instances, run.violations, run.warning)
                 for run in runs)


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
