"""Ideals of finite rings: the mask kernel.

Ideals are stored as bitmasks over element indices together with a kind
tag (two-sided, left, right). This module holds the kernel: additive
spans, ideal closures, generator products, sums, lattices and quotients.
The ideal generated by a set S is the additive span of S, AS, SA and ASA
(left ideals: S and AS; right ideals: S and SA); associativity makes one
pass enough, and each term is an OR of the ring's cached Ax / xA masks.
Spans grow a subgroup coset by coset and record the at most log2(order)
generators they use. A product needs only those: by bilinearity JK spans
the same subgroup as the products g*h of the generators of J and K.
Lattices are the principal ideals closed under coset-wise joins; they
record which members are principal and the generators their spans used,
so that :class:`nilary.classify.RingContext` multiplies lattice members
without spanning them again. A quotient's tables are read off the
parent's through the coset map. The 2^n subset scan is kept as an
independent oracle for small orders. Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Optional

import numpy as np

from .rings import Hom, Ring, SizeCapError, element_is_nilpotent, element_powers

TWO_SIDED = "two-sided"
LEFT = "left"
RIGHT = "right"
KINDS = (TWO_SIDED, LEFT, RIGHT)

DEFAULT_LATTICE_ORDER_CAP = 1024
DEFAULT_LATTICE_COUNT_CAP = 100_000
BRUTE_FORCE_ORDER_CAP = 16


def mask_elements(mask: int) -> tuple[int, ...]:
    """Sorted element indices of a subset bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def elements_mask(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def full_mask(r: Ring) -> int:
    return (1 << r.order) - 1


@dataclass(frozen=True, repr=False)
class Ideal:
    """Subset of a ring closed as an ideal of the given kind."""

    ring: Ring
    mask: int
    kind: str = TWO_SIDED

    def __repr__(self) -> str:
        return f"Ideal({self.ring.label!r}, {{{','.join(map(str, self.elements))}}}, {self.kind})"

    @property
    def elements(self) -> tuple[int, ...]:
        return mask_elements(self.mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_zero(self) -> bool:
        return self.mask == 1

    @property
    def proper(self) -> bool:
        return self.mask != full_mask(self.ring)

    def to_json(self) -> dict:
        return {"kind": self.kind, "elements": list(self.elements)}


def zero_ideal(r: Ring, kind: str = TWO_SIDED) -> Ideal:
    return Ideal(r, 1, kind)


def full_ideal(r: Ring, kind: str = TWO_SIDED) -> Ideal:
    return Ideal(r, full_mask(r), kind)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown ideal kind {kind!r}")


def _span(
    r: Ring, mask: int, start: Optional[tuple[int, list[int]]] = None
) -> tuple[int, list[int], tuple[int, ...]]:
    """Additive subgroup generated by a subset: its mask, elements and generators used.

    Coset growth: starting from H = {0}, or from the subgroup ``start``
    given by its mask and element list, the least element g of the subset
    not yet in H extends H to H + <g>, the union of the cosets H + kg for
    k = 0, 1, ... up to the first k with kg in H. Each step at least
    doubles |H|, so at most log2(order) generators are used, and every
    element of the span is listed exactly once.
    """
    add = r.add
    span, elems = (1, [0]) if start is None else (start[0], list(start[1]))
    gens = []
    rest = mask & ~span
    while rest:
        g = (rest & -rest).bit_length() - 1
        gens.append(g)
        base = elems[:]
        c = g
        while not span >> c & 1:
            row = add[c]
            for e in base:
                x = row[e]
                span |= 1 << x
                elems.append(x)
            c = row[g]
        rest &= ~span
    return span, elems, tuple(gens)


def _close(r: Ring, mask: int, left: bool, right: bool) -> int:
    """Least ideal containing the subset S, closed on the requested sides.

    Two-sided: the additive span of S, AS, SA and ASA; left: S and AS;
    right: S and SA. SA is an OR of the ring's xA masks, and A times
    S and SA, that is AS and ASA, an OR of its Ax masks. By associativity
    that span is already closed (A(AS) is in AS, (SA)A in SA, and so on),
    so one pass suffices. The additive zero is always included.
    """
    ax, xa = r.product_masks
    if right:
        for x in mask_elements(mask):
            mask |= xa[x]
    if left:
        for x in mask_elements(mask):
            mask |= ax[x]
    return _span(r, mask)[0]


def additive_generators(r: Ring, mask: int) -> tuple[int, ...]:
    """At most log2(order) generators of the additive span of the subset."""
    return _span(r, mask)[2]


def generator_product(r: Ring, jgens: tuple[int, ...], kgens: tuple[int, ...]) -> int:
    """Mask of the product JK of the additive subgroups with these generators.

    By bilinearity every product jk is a sum of products g*h of
    generators, so JK and {g*h} span the same subgroup.
    """
    mul = r.mul
    prod = 0
    for g in jgens:
        row = mul[g]
        for h in kgens:
            prod |= 1 << row[h]
    return _span(r, prod)[0]


def additive_closure_mask(r: Ring, mask: int) -> int:
    """Least additive subgroup containing the subset (as a mask)."""
    return _span(r, mask)[0]


def ideal_generated_by(r: Ring, seed: Iterable[int], kind: str = TWO_SIDED) -> Ideal:
    """Least ideal of the given kind containing the seed elements.

    The closure realizes Za + aA + Aa + AaA for two-sided generation in a
    possibly non-unital ring; the seed itself is always included.
    """
    _check_kind(kind)
    mask = 0
    for e in seed:
        if not 0 <= e < r.order:
            raise ValueError(f"element {e} out of range for {r.label}")
        mask |= 1 << e
    return Ideal(r, _close(r, mask, left=kind != RIGHT, right=kind != LEFT), kind)


def principal_ideal(r: Ring, a: int, kind: str = TWO_SIDED) -> Ideal:
    return ideal_generated_by(r, (a,), kind)


def is_ideal_mask(r: Ring, mask: int, kind: str = TWO_SIDED) -> bool:
    """Direct check of the ideal axioms for a subset mask."""
    _check_kind(kind)
    if not mask >> 0 & 1:
        return False
    elems = mask_elements(mask)
    for x in elems:
        if not mask >> r.neg[x] & 1:
            return False
        row = r.add[x]
        if any(not mask >> row[y] & 1 for y in elems):
            return False
        if kind != RIGHT and any(not mask >> r.mul[z][x] & 1 for z in r.elements):
            return False
        if kind != LEFT and any(not mask >> r.mul[x][z] & 1 for z in r.elements):
            return False
    return True


def _same_ring(i: Ideal, j: Ideal) -> None:
    if i.ring is not j.ring and i.ring != j.ring:
        raise ValueError(f"ideals live in different rings ({i.ring.label} vs {j.ring.label})")


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    """Least ideal containing both; the additive closure of the union."""
    _same_ring(i, j)
    if i.kind != j.kind:
        raise ValueError(f"cannot sum a {i.kind} ideal with a {j.kind} ideal")
    return Ideal(i.ring, additive_closure_mask(i.ring, i.mask | j.mask), i.kind)


def element_power_in(r: Ring, a: int, i: Ideal) -> Optional[int]:
    """Least n >= 1 with a^n in I, or None."""
    if i.ring != r:
        raise ValueError("ideal belongs to a different ring")
    for exp, p in enumerate(element_powers(r, a), start=1):
        if i.mask >> p & 1:
            return exp
    return None


def is_nil(i: Ideal) -> tuple[bool, Optional[int]]:
    """Whether every element of I is nilpotent; witness is the first that is not."""
    for a in i.elements:
        if element_is_nilpotent(i.ring, a) is None:
            return False, a
    return True, None


@dataclass(frozen=True)
class IdealLattice:
    """All ideals of one kind, sorted by (size, mask)."""

    ring: Ring
    kind: str
    ideals: tuple[Ideal, ...]
    # additive generators of each ideal, as enumerate_ideals' spans recorded them
    generators: tuple[tuple[int, ...], ...] = field(default=(), compare=False)
    # positions of the principal ideals, as enumerate_ideals found them
    principal: tuple[int, ...] = field(default=(), compare=False)

    def __iter__(self):
        return iter(self.ideals)

    def __len__(self) -> int:
        return len(self.ideals)

    def masks(self) -> tuple[int, ...]:
        return tuple(i.mask for i in self.ideals)


def _sorted_lattice(
    r: Ring, kind: str, masks: Iterable[int], gens: Optional[dict[int, tuple[int, ...]]] = None,
    principal: Iterable[int] = (),
) -> IdealLattice:
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    principal = set(principal)
    return IdealLattice(r, kind, tuple(Ideal(r, m, kind) for m in ordered),
                        () if gens is None else tuple(gens[m] for m in ordered),
                        tuple(j for j, m in enumerate(ordered) if m in principal))


def principal_of(r: Ring, kind: str = TWO_SIDED) -> tuple[int, ...]:
    """Mask of the principal ideal (a) of the kind, for every element a."""
    return _principal_spans(r, kind)[0]


def _principal_spans(
    r: Ring, kind: str = TWO_SIDED
) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """:func:`principal_of`, plus the additive generators of each principal ideal.

    (a) spans {a} + Aa + aA + A(aA) (left: {a} + Aa; right: {a} + aA). Spans
    are memoized by that pre-span and A(aA) by aA, since elements share
    them: Zn:210 has 16 distinct pre-spans among 210 elements.
    """
    _check_kind(kind)
    ax, xa = r.product_masks
    left, right = kind != RIGHT, kind != LEFT
    spans, outer, gens = {}, {}, {}  # pre-span -> (a); aA -> A(aA); (a) -> generators
    of = []
    for a in range(r.order):
        pre = 1 << a | (ax[a] if left else 0) | (xa[a] if right else 0)
        if left and right:
            t = xa[a]
            if t not in outer:
                outer[t] = reduce(int.__or__, (ax[x] for x in mask_elements(t)), 0)
            pre |= outer[t]
        if pre not in spans:
            m, _, gens[m] = _span(r, pre)
            spans[pre] = m
        of.append(spans[pre])
    return tuple(of), gens


def enumerate_ideals(
    r: Ring,
    kind: str = TWO_SIDED,
    max_order: int = DEFAULT_LATTICE_ORDER_CAP,
    max_ideals: int = DEFAULT_LATTICE_COUNT_CAP,
) -> IdealLattice:
    """All ideals of the kind: the principal ones closed under the joins I + (a).

    Every ideal is a sum of principal ideals. I + (a) depends only on the
    coset a + I, since (a + i) + I = (a) + I, so each ideal is joined once
    with each distinct (a) over one representative a per coset outside it,
    by growing its own cosets (a seeded span). A join's generators are I's
    plus those its span adds. The lattice records which ideals are principal.
    """
    _check_kind(kind)
    if r.order > max_order:
        raise SizeCapError(f"lattice enumeration capped at order {max_order}, got {r.order}")
    of, gens = _principal_spans(r, kind)  # gens: every ideal found so far, with its generators
    principal = tuple(gens)
    queue = [(m, mask_elements(m)) for m in principal]
    while queue:
        if len(gens) > max_ideals:
            raise SizeCapError(f"lattice exceeds count cap {max_ideals}")
        im, ielems = queue.pop()
        joined, covered = set(), im
        while rest := full_mask(r) & ~covered:
            a = (rest & -rest).bit_length() - 1
            row = r.add[a]
            for x in ielems:
                covered |= 1 << row[x]
            if of[a] in joined or not im & ~of[a]:
                continue  # joined already, or I inside (a): the join is (a)
            joined.add(of[a])
            jm, jelems, new = _span(r, of[a], (im, ielems))
            if jm not in gens:
                gens[jm] = gens[im] + new
                queue.append((jm, jelems))
    return _sorted_lattice(r, kind, gens.keys(), gens, principal)


def enumerate_ideals_bruteforce(r: Ring, kind: str = TWO_SIDED) -> IdealLattice:
    """Independent oracle: test all 2^order subsets against the ideal axioms.

    Vectorized over the whole subset space: for each closure condition the
    subsets violating it are knocked out with boolean-array arithmetic.
    """
    _check_kind(kind)
    n = r.order
    if n > BRUTE_FORCE_ORDER_CAP:
        raise SizeCapError(f"subset scan capped at order {BRUTE_FORCE_ORDER_CAP}, got {n}")
    count = 1 << n
    idx = np.arange(count, dtype=np.uint32)
    has = [(idx >> e) & 1 != 0 for e in range(n)]
    ok = has[0].copy()
    for a in range(n):
        ok &= ~has[a] | has[r.neg[a]]
    for a in range(n):
        row = r.add[a]
        for b in range(n):
            ok &= ~(has[a] & has[b]) | has[row[b]]
    if kind != RIGHT:
        for z in range(n):
            row = r.mul[z]
            for x in range(n):
                ok &= ~has[x] | has[row[x]]
    if kind != LEFT:
        for x in range(n):
            row = r.mul[x]
            for z in range(n):
                ok &= ~has[x] | has[row[z]]
    return _sorted_lattice(r, kind, (int(m) for m in idx[ok]))


# ---------------------------------------------------------------------------
# quotients


def make_quotient(r: Ring, i: Ideal) -> tuple[Ring, Hom]:
    """Quotient ring on least-index coset representatives, plus the projection.

    The canonical surjection's kernel is exactly ``i``; representatives are
    the least element index in each coset, which keeps the quotient tables
    deterministic. Once ``i`` is checked to be two-sided, every table of the
    quotient, negation included, is read off the parent's by the coset map.
    """
    if i.ring != r:
        raise ValueError("ideal belongs to a different ring")
    if i.kind != TWO_SIDED or _close(r, i.mask, True, True) != i.mask:
        raise ValueError(f"{i!r} is not a two-sided ideal of {r.label}")
    ideal_elems = i.elements
    q_of = [-1] * r.order  # coset index of every element
    reps: list[int] = []
    for a, row in enumerate(r.add):
        if q_of[a] < 0:
            for x in ideal_elems:
                q_of[row[x]] = len(reps)
            reps.append(a)
    qadd = tuple(tuple(q_of[row[b]] for b in reps) for row in (r.add[a] for a in reps))
    qmul = tuple(tuple(q_of[row[b]] for b in reps) for row in (r.mul[a] for a in reps))
    qone = q_of[r.one] if r.one is not None else None
    label = f"{r.label}/{{{','.join(map(str, ideal_elems))}}}"
    q = Ring(len(reps), qadd, qmul, qone, label, tuple(q_of[r.neg[a]] for a in reps))
    return q, Hom(r, q, tuple(q_of), surjective=True)


def hom_image_mask(h: Hom, mask: int) -> int:
    """Image of a subset mask of the source under the homomorphism."""
    out = 0
    for a in mask_elements(mask):
        out |= 1 << h.map[a]
    return out


__all__ = [
    "BRUTE_FORCE_ORDER_CAP",
    "DEFAULT_LATTICE_COUNT_CAP",
    "DEFAULT_LATTICE_ORDER_CAP",
    "Ideal",
    "IdealLattice",
    "KINDS",
    "LEFT",
    "RIGHT",
    "TWO_SIDED",
    "additive_closure_mask",
    "additive_generators",
    "element_power_in",
    "elements_mask",
    "enumerate_ideals",
    "enumerate_ideals_bruteforce",
    "full_ideal",
    "full_mask",
    "generator_product",
    "hom_image_mask",
    "ideal_generated_by",
    "ideal_sum",
    "is_ideal_mask",
    "is_nil",
    "make_quotient",
    "mask_elements",
    "principal_ideal",
    "principal_of",
    "zero_ideal",
]
