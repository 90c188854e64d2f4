"""The mask kernel (spans, closures, products) against the worklist oracle."""

import itertools
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from _oracles import close_by_worklist, product_by_elements
from test_lattice import HUNT_SHAPES, LADDER, ZERO_RING_5
from nilary import (
    KINDS,
    LEFT,
    RIGHT,
    builtin_specs,
    clear_caches,
    enumerate_ideals,
    full_report,
    ideal_generated_by,
    ideal_product,
    parse_ring_spec,
    ring_context,
)
from nilary import classify, ideals
from nilary.classify import RingContext
from nilary.ideals import (
    additive_closure_mask,
    additive_generators,
    elements_mask,
    generator_product,
)

EXTRA_SPECS = ["T:2:Zn:4", "T:3:Zn:2", "M:2:Zn:3", "dsum(M:2:Zn:2,zmul:8)"]
CROSS_CHECK_SPECS = list(builtin_specs()) + EXTRA_SPECS


@pytest.mark.parametrize("spec", CROSS_CHECK_SPECS)
def test_closures_match_worklist(spec):
    r = parse_ring_spec(spec)
    rng = random.Random(spec)
    seeds = [(a,) for a in r.elements]
    seeds += [tuple(rng.sample(range(r.order), min(r.order, rng.randint(2, 4)))) for _ in range(12)]
    for kind in KINDS:
        left, right = kind != RIGHT, kind != LEFT
        for seed in seeds:
            mask = sum(1 << a for a in set(seed))
            want = close_by_worklist(r, mask, left, right)
            assert ideal_generated_by(r, seed, kind).mask == want, (kind, seed)
    for seed in seeds[r.order:]:
        mask = sum(1 << a for a in set(seed))
        assert additive_closure_mask(r, mask) == close_by_worklist(r, mask, False, False), seed


def test_generators_span_the_subgroup(small_rings):
    for r in small_rings:
        for m in enumerate_ideals(r).masks():
            gens = additive_generators(r, m)
            assert len(gens) <= max(1, r.order.bit_length() - 1)
            assert additive_closure_mask(r, sum(1 << g for g in gens)) == m


def test_products_match_elementwise(small_rings):
    for r in small_rings:
        clear_caches()
        ctx = ring_context(r)
        for kind in KINDS:
            lattice = enumerate_ideals(r, kind)
            for i, j in itertools.product(lattice, repeat=2):
                want = product_by_elements(r, i.mask, j.mask)
                assert ideal_product(i, j).mask == want, (r.label, kind, i.elements, j.elements)
                assert ctx.product(i.mask, j.mask) == want


INDEX_SPECS = (*builtin_specs(), *LADDER, *HUNT_SHAPES, ZERO_RING_5)


@pytest.fixture(scope="module")
def index_rings():
    return [parse_ring_spec(s) for s in INDEX_SPECS]


def test_index_products_match_generator_product(index_rings, monkeypatch):
    """Every product of two members of one lattice, read off its index, without a span."""
    for r in index_rings:
        ctx = RingContext(r)
        for kind in {ctx.index(kind).kind for kind in KINDS}:  # one index if commutative
            idx = ctx.index(kind)
            gens = [additive_generators(r, m) for m in idx.masks]
            for m, recorded in zip(idx.masks, idx.gens):
                assert len(recorded) < max(2, r.order.bit_length()), (r.label, kind, m)
                assert additive_closure_mask(r, elements_mask(recorded)) == m, (r.label, kind)
            want = [[generator_product(r, g, h) for h in gens] for g in gens]
            with monkeypatch.context() as mp:
                mp.setattr(ideals, "_span", None)  # any span would raise here
                got = [[ctx.product(jm, km) for km in idx.masks] for jm in idx.masks]
            assert got == want, (r.label, kind)


def test_products_outside_the_lattices_take_the_span_path(monkeypatch):
    spans = []
    monkeypatch.setattr(classify, "generator_product",
                        lambda r, g, h: spans.append((g, h)) or generator_product(r, g, h))
    r = parse_ring_spec("T:2:Zn:4")
    ctx = RingContext(r)
    masks = ctx.lattice_masks(RIGHT)
    union = next(jm | km for jm in masks for km in masks if jm | km not in masks)
    assert ctx.product(union, union) == product_by_elements(r, union, union)
    assert len(spans) == 1
    assert ctx.product(masks[3], masks[5]) == product_by_elements(r, masks[3], masks[5])
    assert len(spans) == 1  # a lattice pair: read off the index
    fresh = RingContext(r)
    fresh.product(masks[3], masks[5])
    assert len(spans) == 2 and not fresh._indexes  # no lattice enumerated for a product


def test_products_on_zn_1100_by_spans_and_by_the_index():
    r = parse_ring_spec("Zn:1100")
    i, j = ideal_generated_by(r, (10,)), ideal_generated_by(r, (22,))
    spanned = RingContext(r).product(i.mask, j.mask)  # no index yet: spans the generators
    assert ideal_product(i, j).mask == spanned == ideal_generated_by(r, (220,)).mask
    idx = RingContext(r).index()
    assert idx.product(r.mul, idx.pos[i.mask], idx.pos[j.mask]) == spanned


def test_full_report_is_thread_safe():
    spec = "T:3:Zn:2"

    def render(ring):
        return json.dumps([rep.to_json() for rep in full_report(ring)], sort_keys=True)

    clear_caches()
    shared = parse_ring_spec(spec)  # fresh ring: no cached masks, no context
    start = threading.Barrier(4)

    def worker(_):
        start.wait(timeout=60)
        return render(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            outputs = list(pool.map(worker, range(4)))
    finally:
        sys.setswitchinterval(interval)
    clear_caches()
    expected = render(parse_ring_spec(spec))
    assert outputs == [expected] * 4
