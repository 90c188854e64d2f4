"""Lattice enumeration by coset-wise joins against its oracles, and its count cap."""

import dataclasses
import hashlib
import json
import random

import pytest
from _oracles import close_by_worklist, enumerate_by_pairwise_joins
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
from nilary import classify, ideals
from nilary.classify import RingContext, full_report, ring_context
from nilary.cli import main
from nilary.ideals import _principal_spans, additive_closure_mask, elements_mask
from nilary.theorems import run_all

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


# sha256 of the JSON list of (masks, principal) per ORACLE_SPECS ring and kind
LATTICE_SHA256 = "db6fbeaa428c9c819b33bb354847dcd9dea3e58a9d9d812bfbc815bfd81d93bb"
# sha256 of the JSON list of the recorded generators per ORACLE_SPECS ring and kind
GENERATORS_SHA256 = "8fc7c9e43747a49c9a7d644b5999847abb418df4567bee98a3902d1cc5e3b536"


def test_lattices_are_pinned(oracle_rings):
    """Masks and principal positions, all three kinds, byte for byte."""
    got = [[list(lat.masks()), lat.principal]
           for r in oracle_rings for lat in (enumerate_ideals(r, kind) for kind in KINDS)]
    assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == LATTICE_SHA256


def test_recorded_generators_are_pinned(oracle_rings):
    """Each ideal's recorded generators span it, at most order.bit_length() of them, byte for byte."""
    got = []
    for r in oracle_rings:
        for kind in KINDS:
            lattice = enumerate_ideals(r, kind)
            for m, gens in zip(lattice.masks(), lattice.generators):
                assert len(gens) <= r.order.bit_length(), (r.label, kind, m)
                assert additive_closure_mask(r, elements_mask(gens)) == m, (r.label, kind, m)
            got.append(lattice.generators)
    assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == GENERATORS_SHA256


def test_every_seeded_span_finds_a_new_ideal(monkeypatch):
    """Joins that re-find a known ideal are recognised without a span: one span per new ideal."""
    seeded = []
    honest = ideals._span

    def counting(r, mask, start=None):
        seeded.append(start is not None)
        return honest(r, mask, start)

    monkeypatch.setattr(ideals, "_span", counting)
    cases = [(s, kind) for s in (*LADDER, *HUNT_SHAPES, ZERO_RING_5) for kind in KINDS]
    for spec, kind in [*cases, ("T:4:Zn:2", "right")]:
        r = parse_ring_spec(spec)
        seeded.clear()
        lattice = enumerate_ideals(r, kind)
        assert sum(seeded) == len(lattice) - len(lattice.principal), (spec, kind)


def test_principal_passes_span_once_per_orbit(oracle_rings, monkeypatch):
    """A one-sided pass spans once per distinct principal ideal; a two-sided one once per
    orbit of x -> (1 + p)x(1 + q), finer than the classes AaA = AbA on matrix rings."""
    spans = []
    honest = ideals._span
    monkeypatch.setattr(ideals, "_span", lambda *args: spans.append(1) or honest(*args))
    counts, distinct = dict.fromkeys(KINDS, 0), dict.fromkeys(KINDS, 0)
    for r in oracle_rings:
        for kind in KINDS:
            spans.clear()
            distinct[kind] += len(set(_principal_spans(r, kind)[0]))
            counts[kind] += len(spans) - 1  # the span of A for its additive generators
    assert counts[ideals.LEFT] == distinct[ideals.LEFT] == 757
    assert counts[ideals.RIGHT] == distinct[ideals.RIGHT] == 757
    assert distinct[ideals.TWO_SIDED] == 614 and counts[ideals.TWO_SIDED] <= 634


def test_circle_group_is_generated_by_the_generators(oracle_rings):
    """From {0}, the returned generators generate {q : q∘q' = 0 for some q'} under
    x∘y = x + y + xy, each at least doubling the group grown so far; the unity is not read."""
    for r in oracle_rings:
        add, mul = r.add, r.mul
        brute = {q for q in r.elements if any(add[add[q][p]][mul[q][p]] == 0 for p in r.elements)}
        gens = ideals._circle_group(r)
        group = {0}
        for i in range(len(gens)):
            grown, todo = set(group), list(group)
            while todo:
                x = todo.pop()
                for q in gens[:i + 1]:
                    if (y := add[add[x][q]][mul[x][q]]) not in grown:
                        grown.add(y)
                        todo.append(y)
            assert len(grown) >= 2 * len(group), r.label
            group = grown
        assert group == brute, r.label
        if r.one is not None:
            assert ideals._circle_group(dataclasses.replace(r, one=None)) == gens, r.label


@pytest.mark.parametrize("kind", KINDS)
def test_context_principal_ideals_match_generation(oracle_rings, kind):
    # ideal_generated_by and _principal_spans share the closure at additive generators; the
    # worklist oracle reads whole tables (HUNT_SHAPES holds the non-unital dsum(M:2:Zn:2,zmul:8))
    worklist = {*LADDER, *HUNT_SHAPES, ZERO_RING_5}
    for spec, r in zip(ORACLE_SPECS, oracle_rings):
        ctx = RingContext(r)
        generated = [ideal_generated_by(r, (a,), kind).mask for a in range(r.order)]
        assert _principal_spans(r, kind)[0] == tuple(generated), r.label
        if spec in worklist:
            left, right = kind != ideals.RIGHT, kind != ideals.LEFT
            assert generated == [close_by_worklist(r, 1 << a, left, right) for a in r.elements], r.label
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
            of = _principal_spans(r, kind)[0]
            lattice = enumerate_ideals(r, kind)
            for _ in range(40):
                i = rng.choice(lattice.ideals)
                a, x = rng.randrange(r.order), rng.choice(i.elements)
                start = (i.mask, list(i.elements))
                join = ideals._span(r, of[a], start)[0]
                assert join == ideals._span(r, of[r.add[a][x]], start)[0]
                assert join == additive_closure_mask(r, i.mask | of[a])
                assert join in lattice.masks()


@pytest.mark.parametrize("kind", KINDS)
def test_joins_walk_each_ideal_once_through_coset_walk(monkeypatch, kind):
    """Join representatives come from ideals.coset_walk: one walk per nonzero ideal, no other."""
    calls = []
    walk = ideals.coset_walk

    def counted(r, ideal_elems):
        calls.append(1)
        return walk(r, ideal_elems)

    monkeypatch.setattr(ideals, "coset_walk", counted)
    for spec in (*LADDER, *HUNT_SHAPES, ZERO_RING_5):
        r = parse_ring_spec(spec)  # a quot spec walks its kernel's cosets here
        calls.clear()
        lattice = enumerate_ideals(r, kind)
        assert len(calls) == len(lattice) - 1, spec  # the zero ideal joins nothing


class CountingRows(tuple):
    """A table that counts the rows read from it, by index or by iteration."""

    reads = 0

    def __getitem__(self, a):
        self.reads += 1
        return super().__getitem__(a)

    def __iter__(self):
        return (self[a] for a in range(len(self)))


def test_coset_walk_reads_one_add_row_per_coset():
    """For every two-sided ideal I the walk reads |A/I| rows of add, not one per element,
    and numbers the cosets by their least elements, ascending."""
    for spec in (*LADDER, *HUNT_SHAPES):
        r = parse_ring_spec(spec)
        rows = CountingRows(r.add)
        counted = dataclasses.replace(r, add=rows)
        for i in enumerate_ideals(r):
            rows.reads = 0
            q_of, reps = ideals.coset_walk(counted, i.elements)
            assert rows.reads == len(reps) == r.order // i.size, (spec, i)
            least = [min(r.add[a][x] for x in i.elements) for a in r.elements]
            assert reps == sorted(set(least)), (spec, i)
            assert [reps[q] for q in q_of] == least, (spec, i)


@pytest.mark.parametrize("spec", ["Zn:12", "T:3:Zn:2", "dsum(T:2:Zn:3,zmul:4)",
                                  "dsum(zmul:2,dsum(zmul:2,zmul:2))", ZERO_RING_5])
@pytest.mark.parametrize("kind", KINDS)
def test_count_cap_is_exact(spec, kind, monkeypatch):
    r = parse_ring_spec(spec)
    full = enumerate_ideals(r, kind)
    size = len(full)
    assert enumerate_ideals(r, kind, max_ideals=size).masks() == full.masks()
    with pytest.raises(SizeCapError, match=f"count cap {size - 1}"):
        enumerate_ideals(r, kind, max_ideals=size - 1)
    ctx = RingContext(r)
    assert ctx.lattice_masks(kind) == full.masks()  # cached under the default cap
    enumerations = []
    monkeypatch.setattr(classify, "enumerate_ideals",
                        lambda *args, **kw: enumerations.append(args) or enumerate_ideals(*args, **kw))
    with pytest.raises(SizeCapError, match=f"lattice exceeds count cap {size - 1}$"):
        ctx.index(kind, max_ideals=size - 1)
    assert enumerations == []  # the cached lattice's size decides, with no second enumeration
    assert ctx.index(kind, max_ideals=size).masks == full.masks()


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


def assert_tables_whole(ctx: RingContext) -> None:
    """Every allocated product row and stable list equals its fill through ctx.product and chain."""
    for idx in ctx._indexes.values():
        for jm, row in zip(idx.masks, idx.rows):
            assert row in (None, [ctx.product(jm, km) for km in idx.masks]), (ctx.ring.label, idx.kind)
        assert idx.stable in (None, [ctx.chain(m)[-1] for m in idx.masks]), (ctx.ring.label, idx.kind)


def test_lattice_tables_are_whole_once_read():
    """After full_report every allocated product row and every stable list is complete,
    and after run_all on T:4:Zn:2 so are those of its one-sided lattices."""
    for spec in (*builtin_specs(), *LADDER, *HUNT_SHAPES):
        r = parse_ring_spec(spec)
        full_report(r)
        assert_tables_whole(ring_context(r))
        assert ring_context(r).index().stable is not None, spec  # nilary reads every stable power
    r = parse_ring_spec("T:4:Zn:2")
    run_all([r])
    ctx = ring_context(r)
    assert {"left", "right"} <= set(ctx._indexes)
    assert any(row is not None for kind in ("left", "right") for row in ctx._indexes[kind].rows)
    assert_tables_whole(ctx)


def test_lattice_of_zn_1100_is_one_ideal_per_divisor():
    r = parse_ring_spec("Zn:1100")
    # (d) for each divisor d of 1100; the divisor 1100 is the element 0
    want = {ideal_generated_by(r, (d % 1100,)).mask for d in range(1, 1101) if 1100 % d == 0}
    assert len(want) == 18
    for kind in KINDS:
        masks = enumerate_ideals(r, kind).masks()
        assert len(masks) == 18 and set(masks) == want, kind


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
