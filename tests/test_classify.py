"""Predicate verdicts, witnesses, and the cross-predicate invariants."""

import dataclasses
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given

from _oracles import PredicateScan, is_nil_ring
from test_lattice import HUNT_SHAPES, LADDER, assert_tables_whole, small_specs
from nilary import (
    LEFT,
    RIGHT,
    TWO_SIDED,
    Ideal,
    Ring,
    builtin_specs,
    classify_ring,
    element_powers,
    enumerate_ideals,
    full_report,
    ideal_generated_by,
    is_completely_nilary,
    is_completely_prime,
    is_completely_right_primary,
    is_completely_semiprime,
    is_nilary,
    is_p_nilary,
    is_prime_ideal,
    is_right_primary,
    is_semiprime_ideal,
    is_weakly_nilary,
    is_weakly_nilary_onesided,
    is_weakly_p_nilary,
    make_quotient,
    make_zero_mul,
    make_zn,
    matrix_entry_index,
    parse_ring_spec,
    principal_ideal,
    validate_ring,
    zero_ideal,
)
from nilary import classify, hunt, ideals
from nilary.classify import PREDICATE_NAMES, RingContext, _element_pair, clear_caches, ring_context
from nilary.ideals import coset_walk, elements_mask, full_mask, mask_elements
from nilary.replay import replay_report, replay_verdict
from nilary.theorems import run_all

# implication chains over proper ideals; each pair (weaker <- stronger)
CHAINS = (
    ("completely_prime", "completely_right_primary"),
    ("completely_right_primary", "completely_nilary"),
    ("prime", "right_primary"),
    ("right_primary", "nilary"),
    ("nilary", "p_nilary"),
    ("p_nilary", "weakly_p_nilary"),
    ("nilary", "weakly_nilary"),
)


def test_completely_prime(z6):
    assert is_completely_prime(ideal_generated_by(z6, [2])).holds  # quotient Z_2
    v = is_completely_prime(zero_ideal(z6))
    assert not v.holds and (v.witness.a, v.witness.b) == (2, 3)
    assert is_completely_prime(zero_ideal(make_zn(5))).holds
    assert not is_completely_prime(Ideal(z6, full_mask(z6))).holds  # improper


def test_completely_semiprime(z6, z12):
    v = is_completely_semiprime(ideal_generated_by(z12, [4]))
    assert not v.holds and v.witness.a == 2 and v.witness.n == 2
    assert is_completely_semiprime(zero_ideal(z6)).holds
    assert is_completely_semiprime(Ideal(z6, full_mask(z6))).holds


def test_completely_nilary(z4, z6, m2z2):
    v = is_completely_nilary(zero_ideal(z6))
    assert not v.holds and (v.witness.a, v.witness.b) == (2, 3)
    e11 = matrix_entry_index(make_zn(2), 2, [[1, 0], [0, 0]])
    e22 = matrix_entry_index(make_zn(2), 2, [[0, 0], [0, 1]])
    vm = is_completely_nilary(zero_ideal(m2z2))
    assert not vm.holds and (vm.witness.a, vm.witness.b) == (e11, e22)
    assert is_completely_nilary(zero_ideal(z4)).holds


def test_prime_and_semiprime(z4, z6, m2z2):
    assert is_prime_ideal(zero_ideal(m2z2)).holds
    v = is_prime_ideal(zero_ideal(z6))
    assert not v.holds
    assert {v.witness.j, v.witness.k} == {(0, 3), (0, 2, 4)}
    assert is_semiprime_ideal(zero_ideal(z6)).holds
    vs = is_semiprime_ideal(zero_ideal(z4))
    assert not vs.holds and vs.witness.j == vs.witness.k == (0, 2)


def test_nilary_family(z6, m2z2):
    v = is_nilary(zero_ideal(z6))
    assert not v.holds and {v.witness.j, v.witness.k} == {(0, 3), (0, 2, 4)}
    assert is_nilary(zero_ideal(m2z2)).holds
    assert is_p_nilary(zero_ideal(m2z2)).holds
    assert is_nilary(Ideal(z6, full_mask(z6))).holds  # improper: trivially true


def test_primary_family(z12, m2z2):
    z2 = make_zn(2)
    assert is_right_primary(zero_ideal(m2z2)).holds
    v = is_completely_right_primary(zero_ideal(m2z2))
    e11 = matrix_entry_index(z2, 2, [[1, 0], [0, 0]])
    e22 = matrix_entry_index(z2, 2, [[0, 0], [0, 1]])
    assert not v.holds and (v.witness.a, v.witness.b) == (e11, e22)
    assert is_right_primary(ideal_generated_by(z12, [4])).holds


def test_completely_prime_implies_completely_right_primary(small_rings):
    for r in small_rings:
        for i in enumerate_ideals(r):
            if is_completely_prime(i).holds:
                assert is_completely_right_primary(i).holds


def test_weakly_nilary(z6):
    assert is_weakly_nilary(zero_ideal(z6)).holds
    assert is_weakly_p_nilary(zero_ideal(z6)).holds
    three = ideal_generated_by(z6, [3])
    assert is_weakly_nilary(three).holds == is_nilary(three).holds
    v = is_weakly_nilary(Ideal(z6, full_mask(z6)))
    assert v.na and not v.holds


def test_weakly_onesided(z6, m2z2):
    assert is_weakly_nilary_onesided(zero_ideal(z6), RIGHT).holds
    got = is_weakly_nilary_onesided(zero_ideal(m2z2), RIGHT)
    assert got.holds == is_weakly_nilary(zero_ideal(m2z2)).holds
    with pytest.raises(ValueError, match="unity required"):
        is_weakly_nilary_onesided(zero_ideal(make_zero_mul(4)), RIGHT)
    with pytest.raises(ValueError, match="side"):
        is_weakly_nilary_onesided(zero_ideal(z6), "up")


def test_power_table_and_nil_flag(builtin_rings):
    """The context's idempotent powers against element_powers, and the report's nil flag.

    idem[a] is the one power x of a with x·x = x, and a two-sided ideal holds
    some power of a iff it holds idem[a]. Zn:211, a prime field, has powers
    cycling through up to 210 elements.
    """
    for r in [*builtin_rings, *(parse_ring_spec(s) for s in (*LADDER, *HUNT_SHAPES, "Zn:211"))]:
        ctx = RingContext(r)
        idem, powers = ctx.idempotents, [element_powers(r, a) for a in r.elements]
        for a, pw in enumerate(powers):
            assert [x for x in pw if r.mul[x][x] == x] == [idem[a]], (r.label, a)
        masks = [elements_mask(pw) for pw in powers]
        for m in ctx.lattice_masks():
            for a in r.elements:
                assert bool(masks[a] & m) == bool(m >> idem[a] & 1), (r.label, m, a)
        assert classify_ring(r).nil == is_nil_ring(r), r.label


def test_idempotent_pass_reads_at_most_3n_rows():
    """On Zn:4093, where walking every element's powers reads ~n²/2 rows, the pass reads <= 3n."""
    n = 4093

    class CountingRows:
        reads = 0

        def __getitem__(self, p):
            CountingRows.reads += 1
            return np.arange(n) * p % n

    idem = RingContext(Ring(n, (), CountingRows(), 1, f"Zn:{n}")).idempotents
    assert idem == (0,) + (1,) * (n - 1)
    assert CountingRows.reads <= 3 * n


def test_classify_ring_profiles(z6, m2z2):
    rep6 = classify_ring(z6)
    assert rep6.verdicts["weakly_nilary"].holds
    assert not rep6.verdicts["nilary"].holds
    assert not rep6.verdicts["completely_nilary"].holds
    assert not rep6.verdicts["prime"].holds
    assert rep6.verdicts["semiprime"].holds
    assert rep6.commutative and rep6.unital and not rep6.nil
    assert rep6.char.value == 6

    repm = classify_ring(m2z2)
    assert repm.verdicts["prime"].holds
    assert repm.verdicts["nilary"].holds
    assert repm.verdicts["p_nilary"].holds
    assert not repm.verdicts["completely_nilary"].holds

    repz = classify_ring(make_zero_mul(4))
    assert repz.verdicts["completely_nilary"].holds
    assert repz.verdicts["nilary"].holds
    assert repz.nil and not repz.unital and repz.char is None


def test_full_report_counts(z6, z12):
    assert len(full_report(z12)) == 6
    assert len(full_report(z6)) == 4
    reports = full_report(make_zn(1))
    assert len(reports) == 1 and not reports[0].proper


def test_full_report_first_entry_is_zero_ideal(small_rings):
    for r in small_rings:
        first = full_report(r)[0]
        zero = classify_ring(r)
        assert first.ideal_elements == (0,)
        for name in PREDICATE_NAMES:
            assert first.verdicts[name] == zero.verdicts[name]


def test_monotone_hierarchy(small_rings):
    for r in small_rings:
        ctx = ring_context(r)
        for m in ctx.lattice_masks():
            if m == ctx.full_mask:
                continue
            for weaker_of, stronger in CHAINS:
                if ctx.verdict(weaker_of, m).holds:
                    assert ctx.verdict(stronger, m).holds, (r.label, m, weaker_of, stronger)


def test_left_right_agree_on_commutative(small_rings):
    pairs = (
        ("right_primary", "left_primary"),
        ("p_right_primary", "p_left_primary"),
        ("completely_right_primary", "completely_left_primary"),
        ("weakly_nilary_right", "weakly_nilary_left"),
    )
    for r in small_rings:
        ctx = ring_context(r)
        if not ctx.commutative:
            continue
        for m in ctx.lattice_masks():
            for right_name, left_name in pairs:
                vr, vl = ctx.verdict(right_name, m), ctx.verdict(left_name, m)
                assert (vr.holds, vr.na) == (vl.holds, vl.na), (r.label, m, right_name)


def test_completely_nilary_matches_quotient(small_rings):
    for r in small_rings:
        for i in enumerate_ideals(r):
            if not i.proper:
                continue
            quot, _ = make_quotient(r, i)
            assert is_completely_nilary(i).holds == (
                classify_ring(quot).verdicts["completely_nilary"].holds
            ), (r.label, i.elements)


def test_p_nilary_equals_completely_nilary_on_commutative(small_rings):
    for r in small_rings:
        ctx = ring_context(r)
        if not ctx.commutative:
            continue
        assert ctx.verdict("p_nilary", 1).holds == ctx.verdict("completely_nilary", 1).holds


def test_predicates_reject_one_sided_input(z6):
    with pytest.raises(ValueError, match="two-sided"):
        is_nilary(principal_ideal(z6, 2, LEFT))


def test_report_json_schema_keys(z6):
    data = classify_ring(z6).to_json()
    assert set(data) == {"ring", "ideal", "proper", "verdicts", "char"}
    assert set(data["verdicts"]) == set(PREDICATE_NAMES)
    one = data["verdicts"]["nilary"]
    assert set(one) == {"holds", "witness", "na"}


def _relabeled(r, perm):
    """Isomorphic copy of r under a permutation fixing 0."""
    n = r.order
    inv = [0] * n
    for a, pa in enumerate(perm):
        inv[pa] = a
    add = [[perm[r.add[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    mul = [[perm[r.mul[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    one = perm[r.one] if r.one is not None else None
    return Ring.from_tables(n, add, mul, one=one, label=f"{r.label}-relabeled")


def _verdict_profile(r):
    """Multiset of (ideal size, holds/na vector), invariant under isomorphism."""
    profile = []
    for rep in full_report(r):
        verdicts = tuple((v.holds, v.na) for v in rep.verdicts.values())
        profile.append((len(rep.ideal_elements), verdicts))
    return sorted(profile)


def test_verdicts_are_isomorphism_invariant(small_rings):
    rng = random.Random(20250810)
    for r in small_rings:
        if r.order > 12:
            continue
        perm = [0] + rng.sample(range(1, r.order), r.order - 1)
        other = _relabeled(r, perm)
        assert _verdict_profile(other) == _verdict_profile(r), r.label


# hunt shapes with large one-sided lattices (49 and 80 right ideals), one of them
# non-unital, and a copy of T:2:Zn:4 whose nonzero elements are renumbered
PAIR_SCAN_EXTRA = ["T:2:Zn:4", "T:3:Zn:2", "M:2:Zn:3", "T:2:dsum(Zn:2,Zn:2)",
                   "dsum(T:3:Zn:2,zmul:2)", "relabeled T:2:Zn:4"]
# the one-sided weakly forms, by (side, principal), under their plain-scan names
ONESIDED_SCAN_NAMES = {(RIGHT, False): "weakly_nilary_right", (LEFT, False): "weakly_nilary_left",
                       (RIGHT, True): "weakly_p_nilary_right", (LEFT, True): "weakly_p_nilary_left"}


@pytest.mark.parametrize("spec", list(builtin_specs()) + PAIR_SCAN_EXTRA)
def test_pair_searches_match_plain_scan(spec):
    """Filtered pair searches give the plain scan's verdict and least witness."""
    if spec.startswith("relabeled "):
        r = parse_ring_spec(spec.split()[1])
        rng = random.Random(spec)
        r = _relabeled(r, [0] + rng.sample(range(1, r.order), r.order - 1))
    else:
        r = parse_ring_spec(spec)
    ctx = ring_context(r)
    scan = PredicateScan(r)
    for m in enumerate_ideals(r).masks():
        for name in PREDICATE_NAMES:
            assert ctx.verdict(name, m).to_json() == scan.verdict(name, m), (name, m)
        # on a finite ring the principal forms hold exactly when the full forms do (README)
        for name in ("nilary", "right_primary", "left_primary"):
            assert ctx.verdict("p_" + name, m).holds == ctx.verdict(name, m).holds, (name, m)
        if r.one is not None:
            for (side, principal), name in ONESIDED_SCAN_NAMES.items():
                got = is_weakly_nilary_onesided(Ideal(r, m), side, principal)
                assert got.to_json() == scan.verdict(name, m), (name, m)
                assert is_weakly_nilary_onesided(Ideal(r, m), side, principal) is got  # memoized
                assert replay_verdict(r, mask_elements(m), name, got.holds, got.witness, got.na)


ELEMENT_PREDICATES = ("completely_prime", "completely_semiprime", "completely_nilary",
                      "completely_right_primary", "completely_left_primary")


@pytest.mark.parametrize("spec", ["Zn:210", "dsum(M:2:Zn:2,Zn:12)", "M:2:Zn:4", "Zn:64"])
def test_element_predicates_match_plain_scan_past_order_64(spec):
    """Row-probed element searches give the plain scan's verdict and least witness."""
    r = parse_ring_spec(spec)
    ctx = RingContext(r)
    scan = PredicateScan(r)
    for m in ctx.lattice_masks():
        for name in ELEMENT_PREDICATES:
            assert ctx.verdict(name, m).to_json() == scan.verdict(name, m), (name, m)


def test_coset_reps_are_the_least_element_of_each_coset(builtin_rings):
    """One ascending representative per coset, its least element, numbered as make_quotient does."""
    for r in [*builtin_rings, *(parse_ring_spec(s) for s in LADDER)]:
        ctx = RingContext(r)
        for m in ctx.lattice_masks():
            reps = ctx.walked(m)[1]
            ideal = mask_elements(m)
            cosets = {frozenset(r.add[a][x] for x in ideal) for a in reps}
            assert reps[0] == 0 and list(reps) == sorted(set(reps)), (r.label, m)
            assert len(reps) == len(cosets) == r.order // len(ideal), (r.label, m)
            assert all(min(r.add[a][x] for x in ideal) == a for a in reps), (r.label, m)
            q_of = make_quotient(r, Ideal(r, m))[1]
            assert [q_of[a] for a in reps] == list(range(len(reps))), (r.label, m)


def test_element_predicates_walk_each_ideal_once(builtin_rings, monkeypatch):
    """The five element predicates on one ideal share one coset walk; 0 and A need none."""
    walked = []

    def counting_walk(r, ideal_elems):
        walked.append((r.label, elements_mask(ideal_elems)))
        return coset_walk(r, ideal_elems)

    monkeypatch.setattr(classify, "coset_walk", counting_walk)
    for r in [*builtin_rings, *(parse_ring_spec(s) for s in ("T:2:Zn:4", "M:2:Zn:3"))]:
        ctx = RingContext(r)
        for m in ctx.lattice_masks():
            walked.clear()
            for name in ELEMENT_PREDICATES:
                ctx.verdict(name, m)
            want = [] if m in (1, full_mask(r)) else [(r.label, m)]
            assert walked == want, (r.label, m, walked)


def _first_pair_by_double_loop(r, m, first, second):
    for a in first:
        for b in second:
            if m >> r.mul[a][b] & 1:
                return a, b
    return None


def test_element_pair_matches_double_loop(builtin_rings):
    """_element_pair returns the double loop's first hit on random sublists of each side."""
    rng = random.Random(13)
    rings = [*builtin_rings, *(parse_ring_spec(s) for s in ("Zn:64", "T:2:Zn:4"))]
    for r in rings:
        ctx = RingContext(r)
        masks = ctx.lattice_masks()
        for _ in range(8):
            m = rng.choice(masks)
            sizes = (0, 1, min(2, r.order), rng.randint(0, r.order))
            first, second = (sorted(rng.sample(r.elements, rng.choice(sizes))) for _ in range(2))
            want = _first_pair_by_double_loop(r, m, first, second)
            assert _element_pair(ctx, m, first, second) == want, (r.label, m, first, second)
    # a row whose only hit is its last column, after rows with no hit at all
    r = parse_ring_spec("Zn:12")
    ctx, m = RingContext(r), elements_mask([0, 6])  # 2b lies in I only for b = 0, 3, 6, 9
    first, second = [1, 5, 2], [1, 2, 4, 5, 9]
    assert [b for b in second if m >> r.mul[2][b] & 1] == [9]
    assert _element_pair(ctx, m, first, second) == (2, 9)
    assert _element_pair(ctx, m, first, [9]) == (2, 9)  # a one-element side
    assert _element_pair(ctx, m, [1, 5], second) is None
    assert _element_pair(ctx, m, [], second) is None and _element_pair(ctx, m, first, []) is None


@given(spec=small_specs())
def test_verdicts_replay_and_harness_on_random_specs(spec):
    """On random rings of order <= 16: plain-scan verdicts and witnesses, replay, whole index
    rows, every case passes."""
    r = parse_ring_spec(spec)
    ctx = RingContext(r)
    scan = PredicateScan(r)
    for m in ctx.lattice_masks():
        for name in PREDICATE_NAMES:
            v = ctx.verdict(name, m)
            assert v.to_json() == scan.verdict(name, m), (spec, name, m)
            assert replay_verdict(r, mask_elements(m), name, v.holds, v.witness, v.na), (spec, name, m)
    assert_tables_whole(ctx)
    assert [res.case_id for res in run_all([r]) if not res.passed] == [], spec


def test_quotient_memo_matches_fresh_quotients(builtin_rings):
    """Memoized quotient records equal fresh quotients, and the direct build equals from_tables'."""
    for r in [*builtin_rings, *(parse_ring_spec(s) for s in HUNT_SHAPES)]:
        ctx = RingContext(r)
        for m in ctx.lattice_masks():
            qctx, images = ctx.quotient(m)
            assert ctx.quotient(m) is ctx.quotient(m), (r.label, m)
            quot, q_of = make_quotient(r, Ideal(r, m))
            q = qctx.ring  # A/0 is the ring itself, so only its label differs from quot's
            assert (q.order, q.add, q.mul, q.one) == (quot.order, quot.add, quot.mul, quot.one), (
                r.label, m)
            checked = Ring.from_tables(quot.order, quot.add, quot.mul, one=quot.one,
                                       label=quot.label)
            for f in dataclasses.fields(Ring):
                assert getattr(quot, f.name) == getattr(checked, f.name), (r.label, m, f.name)
            want = [(i, elements_mask(q_of[a] for a in mask_elements(i)))
                    for i in ctx.lattice_masks() if not m & ~i]
            assert list(images) == want, (r.label, m)
            fresh = RingContext(quot)
            for name in ("completely_nilary", "nilary"):
                assert qctx.verdict(name, 1) == fresh.verdict(name, 1), (r.label, m, name)


def test_quotients_by_zero_and_by_the_ring_are_not_built(builtin_rings):
    """A/0 is the ring's own context under the identity; A/A a one-element ring's, onto {0}."""
    rings = [*builtin_rings, *(parse_ring_spec(s) for s in HUNT_SHAPES)]
    assert any(r.one is None for r in rings) and any(r.order == 1 for r in rings)
    for r in rings:
        ctx = RingContext(r)
        qctx, images = ctx.quotient(1)
        assert qctx is ctx and images == tuple((m, m) for m in ctx.lattice_masks()), r.label
        zctx, images = ctx.quotient(ctx.full_mask)
        assert ctx.quotient(ctx.full_mask)[0] is zctx and images == ((ctx.full_mask, 1),), r.label
        assert (zctx.n, zctx.unital) == (1, ctx.unital), r.label
        fresh = RingContext(make_quotient(r, Ideal(r, ctx.full_mask))[0])
        for name in classify.REGISTRY:
            assert zctx.verdict(name, 1) == fresh.verdict(name, 1), (r.label, name)


def test_indexes_own_the_decodes(builtin_rings, monkeypatch):
    """Once a context's indexes exist, ideal-pair verdicts and quotient records decode no mask.

    Witnesses J, K and images I/K read each ideal's elements from its lattice index.
    """
    rings = [*builtin_rings, *(parse_ring_spec(s) for s in (
        "T:2:Zn:4", "T:3:Zn:2", "M:2:Zn:3", "dsum(T:3:Zn:2,zmul:2)"))]
    contexts = [RingContext(r) for r in rings]
    for ctx in contexts:
        for kind in (TWO_SIDED, RIGHT, LEFT):
            ctx.index(kind)
    decoded = []

    def counting_decode(mask):
        decoded.append(mask)
        return mask_elements(mask)

    monkeypatch.setattr(classify, "mask_elements", counting_decode)
    pair_names = [name for name in classify.REGISTRY if name not in ELEMENT_PREDICATES]
    for ctx in contexts:
        for m in ctx.lattice_masks():
            for name in pair_names:
                classify.REGISTRY[name](ctx, m)
            ctx.quotient(m)
    assert len(decoded) == 0


def test_lattice_members_are_decoded_only_by_their_spans(builtin_rings, monkeypatch):
    """From fresh contexts, reports, hunt matches and the builtin run decode no mask.

    Enumeration lists each lattice member's elements once; indexes, walks, quotients,
    witnesses, reports and matches read those lists.
    """
    ladder, hunted = ([parse_ring_spec(s) for s in specs] for specs in (LADDER, HUNT_SHAPES))
    query = hunt.parse_query("(weakly_nilary_right and not weakly_nilary_left) or completely_prime"
                             " or (weakly_nilary and not nilary)", "any-ideal")
    decoded = []

    def counting_decode(mask):
        decoded.append(mask)
        return mask_elements(mask)

    for module in (ideals, classify, hunt):
        monkeypatch.setattr(module, "mask_elements", counting_decode, raising=False)
    clear_caches()
    try:
        for r in ladder:
            full_report(r)
        assert len(list(hunt.run_hunt(hunted, query))) == 35
        run_all(builtin_rings)
    finally:
        clear_caches()
    assert decoded == []


def test_threads_sharing_rings_match_the_serial_run():
    """Reports and theorem cases from four threads over shared fresh rings, switching every 1 µs.

    Zn:12's quotient by (4) has Zn:4's tables, as does dsum(Zn:1,Zn:4), so the threads race
    on that shared context too, under two corpus labels.
    """
    specs = ("T:2:Zn:4", "M:2:Zn:2", "dsum(T:2:Zn:2,Zn:3)", "Zn:12", "T:3:Zn:2", "Zn:4",
             "dsum(Zn:1,Zn:4)")

    def job(k: int, rings: list) -> str:
        if k % 2:
            return json.dumps([res.to_json() for res in run_all(rings)])
        return json.dumps([[rep.to_json() for rep in full_report(r)] for r in rings])

    serial = [parse_ring_spec(s) for s in specs]
    expected = [job(k, serial) for k in range(2)]
    clear_caches()
    shared = [parse_ring_spec(s) for s in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(job, range(8), [shared] * 8))
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected[k % 2] for k in range(8)]


# the zero ideal of R = <e11, e12> in M_2(Z_2) has each left form and none of the right ones
LEFT_FORMS = ("left_primary", "p_left_primary", "completely_left_primary")
RIGHT_FORMS = ("right_primary", "p_right_primary", "completely_right_primary")


def test_e11_e12_subring_separates_left_from_right_primary():
    """R = <e11, e12> in M_2(Z_2) and its opposite: one side's primary forms without the other's.

    Element a0 + 2a1 is a0 e11 + a1 e12, so addition is XOR and ab = a0 b, as
    e11 e11 = e11, e11 e12 = e12 and e12 kills both from the left. R^op swaps
    the sides. Every verdict of both rings is checked against the plain scan
    and replayed, so a lie from any one-sided primary predicate fails here.
    """
    add = [[a ^ b for b in range(4)] for a in range(4)]
    mul = [[b if a & 1 else 0 for b in range(4)] for a in range(4)]
    r = Ring.from_tables(4, add, mul, None, "<e11,e12>")
    op = Ring.from_tables(4, add, [list(col) for col in zip(*mul)], None, "<e11,e12>^op")
    clear_caches()
    try:
        for ring, holds in ((r, LEFT_FORMS), (op, RIGHT_FORMS)):
            ctx, scan = ring_context(ring), PredicateScan(ring)
            assert validate_ring(ring).ok and not ctx.commutative
            for name in LEFT_FORMS + RIGHT_FORMS:
                assert ctx.verdict(name, 1).holds == (name in holds), (ring.label, name)
            for m in ctx.lattice_masks():
                for name in classify.REGISTRY:
                    assert ctx.verdict(name, m).to_json() == scan.verdict(name, m), (name, m)
            for rep in full_report(ring):
                assert all(replay_report(ring, rep).values()), (ring.label, rep.ideal_elements)
    finally:
        clear_caches()
