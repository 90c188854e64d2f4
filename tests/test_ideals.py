"""Ideal generation, arithmetic, power chains and lattice enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilary import (
    KINDS,
    LEFT,
    RIGHT,
    TWO_SIDED,
    Ideal,
    SizeCapError,
    element_power_in,
    enumerate_ideals,
    enumerate_ideals_bruteforce,
    ideal_generated_by,
    ideal_product,
    ideal_sum,
    make_matrix_ring,
    make_zn,
    power_chain,
    principal_ideal,
    ring_context,
    some_power_contained,
    zero_ideal,
)
from nilary.ideals import full_mask, mask_elements

from _oracles import hom_violations, is_ideal_mask


def test_generated_examples(z6, z12, m2z2):
    assert ideal_generated_by(z6, [2]).elements == (0, 2, 4)
    assert ideal_generated_by(z6, []).elements == (0,)
    assert ideal_generated_by(z6, [0]).elements == (0,)
    assert principal_ideal(z12, 4).elements == (0, 4, 8)
    assert ideal_generated_by(m2z2, [1]).mask == full_mask(m2z2)  # e11 generates all


def test_generated_one_sided(z6, m2z2):
    assert principal_ideal(z6, 3, RIGHT).elements == (0, 3)
    # principal right ideal of e11 in M2(Z2): matrices with zero second row
    right = principal_ideal(m2z2, 1, RIGHT)
    assert right.elements == (0, 1, 2, 3)
    two = principal_ideal(m2z2, 1, TWO_SIDED)
    assert right.mask & ~two.mask == 0


def test_generated_idempotent_and_monotone(z12):
    i = ideal_generated_by(z12, [4, 6])
    again = ideal_generated_by(z12, i.elements)
    assert again.mask == i.mask
    sub = ideal_generated_by(z12, [4])
    assert sub.mask & ~i.mask == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.sets(st.integers(min_value=0, max_value=11), max_size=4), extra=st.integers(0, 11))
def test_generation_monotone_in_seed(seed, extra):
    z12 = make_zn(12)
    small = ideal_generated_by(z12, seed)
    big = ideal_generated_by(z12, set(seed) | {extra})
    assert small.mask & ~big.mask == 0
    assert is_ideal_mask(z12, small.mask)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.sets(st.integers(min_value=0, max_value=15), max_size=3),
    kind=st.sampled_from(KINDS),
)
def test_generated_is_least_ideal(seed, kind):
    """The closure is an ideal of its kind and no enumerated ideal below it contains the seed."""
    m2z2 = make_matrix_ring(make_zn(2), 2)
    gen = ideal_generated_by(m2z2, seed, kind)
    assert is_ideal_mask(m2z2, gen.mask, kind)
    seed_mask = sum(1 << e for e in seed)
    for other in enumerate_ideals(m2z2, kind):
        if not seed_mask & ~other.mask:  # contains the seed
            assert not gen.mask & ~other.mask  # then it contains the closure


def test_sum(z6):
    two, three = principal_ideal(z6, 2), principal_ideal(z6, 3)
    assert ideal_sum(two, three).mask == full_mask(z6)
    assert ideal_sum(two, zero_ideal(z6)).mask == two.mask
    assert ideal_sum(two, two).mask == two.mask


def test_sum_rejects_mismatch(z6, z12):
    with pytest.raises(ValueError, match="different rings"):
        ideal_sum(principal_ideal(z6, 2), principal_ideal(z12, 2))
    with pytest.raises(ValueError, match="cannot sum"):
        ideal_sum(principal_ideal(z6, 2), principal_ideal(z6, 3, RIGHT))


def test_product(z4, z6):
    two, three = principal_ideal(z6, 2), principal_ideal(z6, 3)
    assert ideal_product(two, three).elements == (0,)
    assert ideal_product(two, zero_ideal(z6)).elements == (0,)
    assert ideal_product(principal_ideal(z4, 2), principal_ideal(z4, 2)).elements == (0,)
    with pytest.raises(ValueError, match="cannot multiply"):
        ideal_product(two, principal_ideal(z6, 3, LEFT))


def test_power_chain_examples(z4, z6):
    chain = power_chain(principal_ideal(z4, 2))
    assert [p.elements for p in chain] == [(0, 2), (0,)]
    assert len(chain) == 2
    assert chain[-1].elements == (0,)

    chain6 = power_chain(principal_ideal(z6, 2))
    assert [p.elements for p in chain6] == [(0, 2, 4)]
    assert len(chain6) == 1

    zchain = power_chain(zero_ideal(z4))
    assert len(zchain) == 1 and zchain[-1].is_zero


def test_power_chain_strictly_decreasing(small_rings):
    for r in small_rings:
        for i in enumerate_ideals(r):
            chain = power_chain(i)
            assert chain[0] == i
            sizes = [p.size for p in chain]
            assert sizes == sorted(sizes, reverse=True)
            assert len(set(p.mask for p in chain)) == len(chain)


def test_some_power_contained(z4, z6):
    assert some_power_contained(principal_ideal(z4, 2), zero_ideal(z4)) == 2
    assert some_power_contained(principal_ideal(z6, 2), principal_ideal(z6, 2)) == 1
    assert some_power_contained(principal_ideal(z6, 2), zero_ideal(z6)) is None


def test_some_power_matches_stable_value(small_rings):
    for r in small_rings:
        lattice = enumerate_ideals(r).ideals
        for j in lattice:
            stable = power_chain(j)[-1]
            for i in lattice:
                got = some_power_contained(j, i)
                assert (got is not None) == (stable.mask & ~i.mask == 0)


def test_element_power_in(z6, z12):
    four = principal_ideal(z12, 4)
    assert element_power_in(z12, 2, four) == 2
    assert element_power_in(z12, 4, four) == 1
    assert element_power_in(z6, 2, zero_ideal(z6)) is None


def test_nil_iff_nilpotent_on_finite_rings(small_rings):
    for r in small_rings:
        ctx = ring_context(r)
        for m in ctx.lattice_masks():
            nil = all(ctx.idempotents[a] == 0 for a in mask_elements(m))
            assert nil == (ctx.chain(m)[-1] == 1), (r.label, mask_elements(m))


def test_product_contained_in_intersection(small_rings):
    for r in small_rings:
        lattice = enumerate_ideals(r).ideals
        for i, j in itertools.product(lattice, repeat=2):
            p = ideal_product(i, j)
            assert p.mask & ~(i.mask & j.mask) == 0


def test_product_associative_small(small_rings):
    for r in small_rings:
        if r.order > 12:
            continue
        lattice = enumerate_ideals(r).ideals
        for i, j, k in itertools.product(lattice, repeat=3):
            left = ideal_product(ideal_product(i, j), k)
            right = ideal_product(i, ideal_product(j, k))
            assert left.mask == right.mask


@pytest.mark.parametrize(
    "spec_n, count",
    [(12, 6), (6, 4), (8, 4), (2, 2), (3, 2), (5, 2), (7, 2)],
)
def test_ideal_counts_zn(spec_n, count):
    assert len(enumerate_ideals(make_zn(spec_n))) == count


def test_ideal_counts_m2z2(m2z2):
    assert len(enumerate_ideals(m2z2)) == 2
    assert len(enumerate_ideals_bruteforce(m2z2)) == 2


def test_z12_lattice_order(z12):
    sizes = [i.size for i in enumerate_ideals(z12)]
    assert sizes == [1, 2, 3, 4, 6, 12]


def test_lattice_contains_zero_and_full(small_rings):
    for r in small_rings:
        for kind in KINDS:
            lattice = enumerate_ideals(r, kind)
            masks = lattice.masks()
            assert 1 in masks and full_mask(r) in masks


def test_enumeration_matches_bruteforce(small_rings):
    for r in small_rings:
        for kind in KINDS:
            fast = enumerate_ideals(r, kind).masks()
            slow = enumerate_ideals_bruteforce(r, kind).masks()
            assert fast == slow, (r.label, kind)


def test_bruteforce_cap():
    with pytest.raises(SizeCapError):
        enumerate_ideals_bruteforce(make_zn(17))


def test_every_enumerated_mask_is_an_ideal(small_rings):
    for r in small_rings:
        for kind in KINDS:
            for i in enumerate_ideals(r, kind):
                assert is_ideal_mask(r, i.mask, kind)


def test_mask_elements_round_trip():
    assert mask_elements(0b101001) == (0, 3, 5)


def _subgroup_oracle_masks(r):
    """All additive subgroups, by BFS extension; independent of the engine."""

    def close(mask):
        members = list(mask_elements(mask))
        i = 0
        while i < len(members):
            x = members[i]
            i += 1
            for y in list(members):
                s = r.add[x][y]
                if not mask >> s & 1:
                    mask |= 1 << s
                    members.append(s)
        return mask

    found = {1}
    frontier = [1]
    while frontier:
        h = frontier.pop()
        for x in r.elements:
            if h >> x & 1:
                continue
            new = close(h | 1 << x)
            if new not in found:
                found.add(new)
                frontier.append(new)
    return found


def test_one_sided_lattices_beyond_subset_scan():
    """T_2(Z_3) has order 27, past the 2^n oracle; check against a subgroup filter."""
    from nilary import make_upper_triangular

    t = make_upper_triangular(make_zn(3), 2)
    subgroups = _subgroup_oracle_masks(t)
    assert len(subgroups) == 28  # subgroup count of the elementary abelian (Z_3)^3
    for kind in KINDS:
        want = {
            h
            for h in subgroups
            if all(
                (kind == RIGHT or all(h >> t.mul[z][x] & 1 for z in t.elements))
                and (kind == LEFT or all(h >> t.mul[x][z] & 1 for z in t.elements))
                for x in mask_elements(h)
            )
        }
        got = set(enumerate_ideals(t, kind).masks())
        assert got == want, kind


def test_quotient_rejects_one_sided(m2z2):
    from nilary import make_quotient

    right = principal_ideal(m2z2, 1, RIGHT)
    with pytest.raises(ValueError, match="two-sided"):
        make_quotient(m2z2, right)


@pytest.mark.parametrize("spec", ["Zn:8", "zmul:4", "dsum(Zn:2,Zn:4)", "T:2:Zn:2"])
def test_quotient_accepts_exactly_the_two_sided_ideals(spec):
    """Every subset, even a one-sided ideal, passed as a two-sided Ideal."""
    from nilary import make_quotient, parse_ring_spec

    r = parse_ring_spec(spec)
    for mask in range(1 << r.order):
        if is_ideal_mask(r, mask, TWO_SIDED):
            assert make_quotient(r, Ideal(r, mask))[0].order == r.order // mask.bit_count()
        else:
            with pytest.raises(ValueError, match="not a two-sided ideal"):
                make_quotient(r, Ideal(r, mask))


def test_lattice_scales_past_subset_range():
    z100 = make_zn(100)
    sizes = [i.size for i in enumerate_ideals(z100)]
    assert sizes == sorted(100 // d for d in (100, 50, 25, 20, 10, 5, 4, 2, 1))


def test_quotients_are_valid_rings(small_rings):
    from nilary import make_quotient, validate_ring

    for r in small_rings:
        for i in enumerate_ideals(r):
            q, q_of = make_quotient(r, i)
            assert validate_ring(q).ok, (r.label, i.elements)
            assert not hom_violations(r, q, q_of)
            assert tuple(a for a in r.elements if q_of[a] == 0) == i.elements
