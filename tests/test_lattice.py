"""Lattice enumeration by coset-wise joins against its oracles, and its count cap."""

import json
import random

import pytest
from _oracles import enumerate_by_pairwise_joins
from hypothesis import assume, given
from hypothesis import strategies as st

from nilary import (
    KINDS,
    PREDICATE_NAMES,
    SizeCapError,
    builtin_specs,
    enumerate_ideals,
    enumerate_ideals_bruteforce,
    ideal_generated_by,
    parse_ring_spec,
)
from nilary import ideals
from nilary.classify import RingContext
from nilary.cli import main
from nilary.ideals import additive_closure_mask, principal_of

LADDER = ("Zn:64", "Zn:210", "T:2:Zn:4", "T:3:Zn:2", "M:2:Zn:3", "dsum(M:2:Zn:2,Zn:12)",
          "M:2:Zn:4")
HUNT_SHAPES = ("T:2:dsum(Zn:2,Zn:2)", "dsum(M:2:Zn:2,zmul:8)", "dsum(T:2:Zn:3,zmul:4)",
               "dsum(T:3:Zn:2,zmul:2)", "dsum(T:2:Zn:2,Zn:3)", "dsum(T:2:Zn:2,zmul:4)",
               "dsum(M:2:Zn:2,zmul:2)", "quot(T:2:Zn:3,gen(3))", "quot(T:2:Zn:4,gen(4))",
               "quot(T:2:dsum(Zn:2,Zn:2),gen(4))")
ZERO_RING_5 = "dsum(zmul:2,dsum(zmul:2,dsum(zmul:2,dsum(zmul:2,zmul:2))))"
ZERO_RING_6 = f"dsum(zmul:2,{ZERO_RING_5})"
ORACLE_SPECS = (*builtin_specs(), *LADDER, *HUNT_SHAPES, "T:2:Zn:8", ZERO_RING_5)


@pytest.fixture(scope="module")
def oracle_rings():
    return [parse_ring_spec(s) for s in ORACLE_SPECS]


@pytest.mark.parametrize("kind", KINDS)
def test_lattice_matches_pairwise_joins(oracle_rings, kind):
    for r in oracle_rings:
        assert enumerate_ideals(r, kind).masks() == enumerate_by_pairwise_joins(r, kind), r.label


@pytest.mark.parametrize("kind", KINDS)
def test_context_principal_ideals_match_generation(oracle_rings, kind):
    for r in oracle_rings:
        ctx = RingContext(r)
        generated = [ideal_generated_by(r, (a,), kind).mask for a in range(r.order)]
        assert principal_of(r, kind) == tuple(generated), r.label
        assert set(ctx.principal_masks(kind)) == set(generated), r.label
        distinct = sorted(set(generated), key=lambda m: (m.bit_count(), m))
        assert list(ctx.principal_masks(kind)) == distinct
        lattice = enumerate_ideals(r, kind)
        assert [lattice.masks()[j] for j in lattice.principal] == distinct, r.label


def test_join_depends_only_on_the_coset():
    """I + (a) = I + (a + i) for i in I, and both equal the span of I and (a)."""
    rng = random.Random(0)
    for spec in ("T:3:Zn:2", "dsum(T:2:Zn:3,zmul:4)", "M:2:Zn:3", "Zn:210", ZERO_RING_5):
        r = parse_ring_spec(spec)
        for kind in KINDS:
            of = principal_of(r, kind)
            lattice = enumerate_ideals(r, kind)
            for _ in range(40):
                i = rng.choice(lattice.ideals)
                a, x = rng.randrange(r.order), rng.choice(i.elements)
                start = (i.mask, list(i.elements))
                join = ideals._span(r, of[a], start)[0]
                assert join == ideals._span(r, of[r.add[a][x]], start)[0]
                assert join == additive_closure_mask(r, i.mask | of[a])
                assert join in lattice.masks()


@pytest.mark.parametrize("spec", ["Zn:12", "T:3:Zn:2", "dsum(T:2:Zn:3,zmul:4)",
                                  "dsum(zmul:2,dsum(zmul:2,zmul:2))", ZERO_RING_5])
@pytest.mark.parametrize("kind", KINDS)
def test_count_cap_is_exact(spec, kind):
    r = parse_ring_spec(spec)
    full = enumerate_ideals(r, kind)
    size = len(full)
    assert enumerate_ideals(r, kind, max_ideals=size).masks() == full.masks()
    with pytest.raises(SizeCapError, match=f"count cap {size - 1}"):
        enumerate_ideals(r, kind, max_ideals=size - 1)
    ctx = RingContext(r)
    assert ctx.lattice_masks(kind) == full.masks()  # cached under the default cap
    with pytest.raises(SizeCapError, match=f"count cap {size - 1}"):
        ctx.lattice_masks(kind, max_ideals=size - 1)
    assert ctx.lattice_masks(kind, max_ideals=size) == full.masks()


def test_lattice_cap_stops_before_any_join(capsys, tmp_path, monkeypatch):
    """The (Z2)^6 zero ring has 2825 ideals; with max_lattice 3 its 64 principal ones end it."""
    seeded = []
    span = ideals._span

    def counted(r, mask, start=None):
        seeded.append(start is not None)
        return span(r, mask, start)

    monkeypatch.setattr(ideals, "_span", counted)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"specs": [ZERO_RING_6], "max_lattice": 3}))
    assert main(["verify", "--corpus", str(corpus)]) == 2
    assert "lattice exceeds count cap 3" in capsys.readouterr().err
    assert seeded and not any(seeded)  # principal spans only, no join


def test_product_rows_are_allocated_when_read():
    """The zero ideal of the (Z2)^6 zero ring reads one product row of its 2825-ideal lattice.

    Building every row up front would hold 2825^2 slots; a search with an
    empty side must allocate none of them.
    """
    ctx = RingContext(parse_ring_spec(ZERO_RING_6))
    for name in PREDICATE_NAMES:
        ctx.verdict(name, 1)
    idx = ctx.index()
    assert len(idx.masks) == 2825
    assert sum(row is not None for row in idx.rows) == 1


def test_order_cap_bites_before_the_principal_pass():
    r = parse_ring_spec("Zn:1100")
    with pytest.raises(SizeCapError, match="capped at order 1024"):
        RingContext(r).lattice_masks()
    assert "product_masks" not in vars(r)  # no order-squared masks built for nothing


@st.composite
def small_specs(draw, max_order=16, depth=2):
    """A spec of order <= max_order from Zn, zmul, M:2/T:2 over Zn:2..4, dsum and quot."""
    shapes = ["Zn", "zmul"] + (["quot"] if depth else [])
    if depth and max_order >= 2:
        shapes.append("dsum")
    for shape, size in (("T", 3), ("M", 4)):  # order m^3 or m^4 over Zn:m
        if 2 ** size <= max_order:
            shapes.append(shape)
    shape = draw(st.sampled_from(shapes))
    if shape in ("Zn", "zmul"):
        return f"{shape}:{draw(st.integers(1, max_order))}"
    if shape in ("T", "M"):
        size = 3 if shape == "T" else 4
        return f"{shape}:2:Zn:{draw(st.sampled_from([m for m in (2, 3, 4) if m ** size <= max_order]))}"
    if shape == "dsum":
        left = draw(small_specs(max_order // 2, depth - 1))
        right_cap = max_order // parse_ring_spec(left).order
        return f"dsum({left},{draw(small_specs(max(right_cap, 1), depth - 1))})"
    inner = draw(small_specs(256, depth - 1))
    r = parse_ring_spec(inner)
    fits = [a for a in range(r.order)
            if r.order // ideal_generated_by(r, (a,)).size <= max_order]
    assume(fits)
    return f"quot({inner},gen({draw(st.sampled_from(fits))}))"


@given(spec=small_specs())
def test_lattice_matches_subset_scan_on_random_specs(spec):
    r = parse_ring_spec(spec)
    assert r.order <= 16
    for kind in KINDS:
        assert enumerate_ideals(r, kind).masks() == enumerate_ideals_bruteforce(r, kind).masks()
