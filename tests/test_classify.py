"""Predicate verdicts, witnesses, and the cross-predicate invariants."""

import dataclasses
import random

import pytest

from _oracles import PredicateScan
from test_lattice import HUNT_SHAPES, LADDER
from nilary import (
    LEFT,
    RIGHT,
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
    is_nil_ring,
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
    zero_ideal,
)
from nilary.classify import PREDICATE_NAMES, RingContext, ring_context
from nilary.ideals import elements_mask, full_mask, hom_image_mask

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
    """The context's power table against element_powers, and the report's nil flag."""
    for r in [*builtin_rings, *(parse_ring_spec(s) for s in (*LADDER, *HUNT_SHAPES))]:
        powers = RingContext(r).powers
        assert len(powers) == r.order, r.label
        for a in range(r.order):
            assert powers[a] == elements_mask(element_powers(r, a)), (r.label, a)
        assert classify_ring(r).nil == is_nil_ring(r), r.label


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


def test_quotient_memo_matches_fresh_quotients(builtin_rings):
    """Memoized quotients equal fresh ones, and the direct build equals from_tables'."""
    for r in [*builtin_rings, *(parse_ring_spec(s) for s in HUNT_SHAPES)]:
        ctx = RingContext(r)
        for m in ctx.lattice_masks():
            qctx, hom = ctx.quotient(m)
            assert ctx.quotient(m)[0] is qctx, (r.label, m)
            quot, fresh_hom = make_quotient(r, Ideal(r, m))
            assert qctx.ring == quot and hom.map == fresh_hom.map, (r.label, m)
            checked = Ring.from_tables(quot.order, quot.add, quot.mul, one=quot.one,
                                       label=quot.label)
            for f in dataclasses.fields(Ring):
                assert getattr(quot, f.name) == getattr(checked, f.name), (r.label, m, f.name)
            images = [(i, hom_image_mask(fresh_hom, i)) for i in ctx.lattice_masks() if not m & ~i]
            assert list(ctx.images(m)) == images and ctx.images(m) is ctx.images(m), (r.label, m)
            fresh = RingContext(quot)
            for name in ("completely_nilary", "nilary"):
                assert qctx.verdict(name, 1) == fresh.verdict(name, 1), (r.label, m, name)
