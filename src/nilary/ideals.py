"""Ideals of finite rings: the mask kernel.

Ideals are stored as bitmasks over element indices together with a kind
tag (two-sided, left, right). This module holds the kernel: additive
spans, ideal closures, generator products, sums, lattices and quotients.
The ideal generated by a set S is the additive span of S, AS, SA and ASA
(left ideals: S and AS; right ideals: S and SA); associativity makes one
pass enough, and bilinearity lets each term range over the additive
generators of S and of A only.
Spans grow a subgroup coset by coset and record the at most log2(order)
generators they use. A product needs only those: by bilinearity JK spans
the same subgroup as the products g*h of the generators of J and K.
Principal ideals are spanned once per orbit of Jacobson's circle group G° of the
q with q∘q' = 0, x∘y = x + y + xy, since then (a + aq) = (a); G° grows from {0}
over one walk of every element. Lattices are the principal ideals closed under
coset-wise joins, where a join that re-finds a known ideal is recognised by its
size and generators and only new ideals are spanned; they record which members
are principal and, for each member, the generators and the elements its span
listed, so that :class:`nilary.classify.RingContext` multiplies and reads lattice
members without spanning or decoding them again. One walk picks each coset's
least element, for joins, element scans and quotients. The 2^n subset scan is
kept as an independent oracle for small orders. Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

from .rings import Ring, SizeCapError, element_powers

TWO_SIDED = "two-sided"
LEFT = "left"
RIGHT = "right"
KINDS = (TWO_SIDED, LEFT, RIGHT)

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


def zero_ideal(r: Ring, kind: str = TWO_SIDED) -> Ideal:
    return Ideal(r, 1, kind)


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


def _sides(mul, gs: Sequence[int], t: int, left: bool, right: bool) -> int:
    """Bits of t and, as the sides ask, of Gt, tG and GtG, for the additive generators G of A."""
    out = 0
    for x in [t, *(mul[g][t] for g in gs)] if left else [t]:
        out |= 1 << x
        if right:
            row = mul[x]
            for g in gs:
                out |= 1 << row[g]
    return out


def _close(r: Ring, mask: int, left: bool, right: bool) -> int:
    """Least ideal containing the subset S, closed on the requested sides.

    Two-sided: the additive span of S, AS, SA and ASA; left: S and AS;
    right: S and SA. By bilinearity that is the span of T, GT, TG and GTG
    (T with GT, or with TG) for the generators T of S's span and G of A,
    and by associativity it is already closed (A(AS) is in AS, (SA)A in
    SA, and so on), so one pass suffices. The additive zero is included.
    """
    gs, mul = additive_generators(r, full_mask(r)), r.mul
    for t in additive_generators(r, mask):
        mask |= _sides(mul, gs, t, left, right)
    return _span(r, mask)[0]


def additive_generators(r: Ring, mask: int) -> tuple[int, ...]:
    """At most log2(order) generators of the additive span of the subset."""
    return _span(r, mask)[2]


def is_commutative(r: Ring) -> bool:
    """ab = ba for all a, b: by bilinearity, gh = hg for all additive generators g, h."""
    mul = r.mul
    return all(mul[g][h] == mul[h][g] for g, h in combinations(additive_generators(r, full_mask(r)), 2))


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


@dataclass(frozen=True)
class IdealLattice:
    """All ideals of one kind, sorted by (size, mask), with the elements each one's span listed."""

    ring: Ring
    kind: str
    ideal_masks: tuple[int, ...]
    elements: tuple[tuple[int, ...], ...] = field(default=(), compare=False)
    # additive generators of each ideal, as enumerate_ideals' spans recorded them
    generators: tuple[tuple[int, ...], ...] = field(default=(), compare=False)
    # positions of the principal ideals, as enumerate_ideals found them
    principal: tuple[int, ...] = field(default=(), compare=False)

    @property
    def ideals(self) -> tuple[Ideal, ...]:  # built when read
        return tuple(Ideal(self.ring, m, self.kind) for m in self.ideal_masks)

    def __iter__(self):
        return iter(self.ideals)

    def __len__(self) -> int:
        return len(self.ideal_masks)

    def masks(self) -> tuple[int, ...]:
        return self.ideal_masks


def _sorted_lattice(r: Ring, kind: str, elems: dict[int, tuple[int, ...]],
                    gens: Optional[dict[int, tuple[int, ...]]] = None,
                    principal: Iterable[int] = ()) -> IdealLattice:
    ordered = sorted(sorted(elems), key=int.bit_count)  # a stable sort: (size, mask) order
    principal = set(principal)
    return IdealLattice(r, kind, tuple(ordered), tuple(elems[m] for m in ordered),
                        () if gens is None else tuple(gens[m] for m in ordered),
                        tuple(j for j, m in enumerate(ordered) if m in principal))


def _circle_group(r: Ring) -> list[int]:
    """Generators of the circle group G° of the q with q∘q' = 0, grown from H = {0}: q is in G°
    iff its ∘-powers reach 0, or one of them is in G°."""
    add, mul, n = r.add, r.mul, r.order
    state, h, gens = [1] + [0] * (n - 1), [0], []  # 1: in H, 2: outside G° or on the walk
    for q in range(n):  # each element is walked at most once
        p, steps, qadd, qmul = q, 0, add[q], mul[q]
        while not state[p]:
            state[p] = 2
            p, steps = add[qadd[p]][qmul[p]], steps + 1  # q∘p
        if state[p] == 1 and steps:  # q in G° but not in H
            gens.append(q)
            for x in h:  # grows while read, over the walk's powers of q too
                for g in gens:
                    if state[y := add[add[g][x]][mul[g][x]]] != 1:
                        state[y] = 1
                        h.append(y)
    return gens


def _ring_circle(r: Ring) -> tuple[tuple[int, ...], Sequence[int]]:
    """A's additive generators and, unless A is cyclic, the generators of its circle group G°."""
    gs = additive_generators(r, full_mask(r))
    return gs, _circle_group(r) if len(gs) > 1 else ()  # cyclic: x + xq is a coprime multiple of x


def _principal_spans(
    r: Ring, kind: str = TWO_SIDED, circle: tuple = ()
) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
    """Mask of the principal ideal (a) of the kind for every element a, plus the
    additive generators and the elements, ascending, of each principal ideal.

    (a) spans :func:`_sides` of a and is (ka), gcd(k, ord a) = 1, and (a + aq) for q in the
    circle group G° of x∘y = x + y + xy: a = (a + aq) + (a + aq)q' when q∘q' = 0 (left: a + qa;
    two-sided: both). So a ascending spans (a) once per orbit, which a worklist marks over a's
    coprime multiples and G°'s generators, found by one walk of every element, each ∘-power
    walked at most once. First spans win. ``circle`` is :func:`_ring_circle`'s pair, if known.
    """
    _check_kind(kind)
    (gs, qs), add, mul = circle or _ring_circle(r), r.add, r.mul
    left, right, moves = kind != RIGHT, kind != LEFT, []  # moves: x + xq (right), x + qx (left)
    for q in qs:
        if right:
            moves.append([s[row[q]] for s, row in zip(add, mul)])
        if left:
            moves.append([s[z] for s, z in zip(add, mul[q])])
    of, gens, elems = [0] * r.order, {}, {}  # (a) for a; (a) -> generators, elements
    for a in r.elements:
        if of[a]:
            continue
        m, e, g = _span(r, _sides(mul, gs, a, left, right))
        if m not in gens:
            gens[m], elems[m] = g, tuple(sorted(e))
        row, cyc, orbit = add[a], [a], []  # a, 2a, ... up to the first zero: ord a elements
        while cyc[-1]:
            cyc.append(row[cyc[-1]])
        for i, c in enumerate(cyc, 1):
            if gcd(i, len(cyc)) == 1:
                of[c] = m
                orbit.append(c)
        for x in orbit if moves else ():  # grows while read
            for move in moves:
                if not of[y := move[x]]:
                    of[y] = m
                    orbit.append(y)
    return tuple(of), gens, elems


def coset_walk(r: Ring, ideal_elems: Sequence[int]) -> tuple[list[int], list[int]]:
    """Coset number of every element, and the least element of each coset, ascending."""
    q_of, reps, a = [-1] * r.order, [], 0
    for q in range(r.order // len(ideal_elems)):  # n/|I| cosets (Lagrange), one add row each
        a = q_of.index(-1, a)
        row = r.add[a]
        for x in ideal_elems:
            q_of[row[x]] = q
        reps.append(a)
    return q_of, reps


def enumerate_ideals(r: Ring, kind: str = TWO_SIDED, max_ideals: int = DEFAULT_LATTICE_COUNT_CAP,
                     *, _circle: tuple = ()) -> IdealLattice:
    """All ideals of the kind: the principal ones closed under the joins I + (a).

    Every ideal is a sum of principal ideals. I + (a) depends only on the coset a + I,
    since (a + i) + I = (a) + I, so each ideal is joined once with each distinct (a) over
    the least element a of each coset outside it, as :func:`coset_walk` lists them; the
    zero ideal and an (a) that holds I need no join, as I + (a) is (a) then. |I + (a)| is
    |I||(a)|/|I & (a)| (second isomorphism theorem), and a found ideal of that size holding
    the generators of I and (a) is the join, so a join is spanned, seeded with I, only when
    it is new. Its generators are I's plus those the span adds. The lattice records which
    ideals are principal and the elements each span listed. ``_circle`` is
    :func:`_ring_circle`'s pair, when the caller has it.
    """
    _check_kind(kind)
    of, gens, elems = _principal_spans(r, kind, _circle)  # gens, elems: every ideal found so far
    principal = tuple(gens)
    holds, by_size = [0] * r.order, {}  # bit t: the t-th ideal found holds x / has that size

    def found(t: int, elems: Sequence[int]) -> int:
        bit = 1 << t
        by_size[len(elems)] = by_size.get(len(elems), 0) | bit
        for x in elems:
            holds[x] |= bit
        return bit

    queue = [(m, elems[m]) for m in principal]
    for t, m in enumerate(principal):
        found(t, elems[m])
    while queue:
        if len(gens) > max_ideals:
            raise SizeCapError(f"lattice exceeds count cap {max_ideals}")
        im, ielems = queue.pop()
        if im == 1:  # 0 + (a) is (a), found already
            continue
        joined, isize = set(), len(ielems)
        above = reduce(int.__and__, (holds[g] for g in gens[im]), -1)  # found ideals holding I
        for a in coset_walk(r, ielems)[1][1:]:
            pm = of[a]
            if pm & im == im or pm in joined:  # the join is (a), or known: no test needed
                continue
            joined.add(pm)  # the join is known iff a found ideal of its size holds I and (a)
            known = by_size.get(isize * pm.bit_count() // (im & pm).bit_count(), 0) & above
            for g in gens[pm]:
                if not known:
                    break
                known &= holds[g]
            if not known:
                jm, jelems, new = _span(r, pm, (im, ielems))
                gens[jm], elems[jm] = gens[im] + new, (jelems := tuple(sorted(jelems)))
                queue.append((jm, jelems))
                above |= found(len(gens) - 1, jelems)
    return _sorted_lattice(r, kind, elems, gens, principal)


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
        ok &= ~has[a] | has[r.add[a].index(0)]
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
    return _sorted_lattice(r, kind, {m: mask_elements(m) for m in idx[ok].tolist()})


# ---------------------------------------------------------------------------
# quotients


def make_quotient(r: Ring, i: Ideal, *, _elements: tuple = ()) -> tuple[Ring, tuple[int, ...]]:
    """Quotient ring on least-index coset representatives, and the projection a -> a + I onto it.

    The kernel is ``i``, of elements ``_elements`` when the caller holds them; the numbering of
    its cosets by :func:`coset_walk` is the projection, and both tables are read through it.
    """
    if i.ring != r:
        raise ValueError("ideal belongs to a different ring")
    if i.kind != TWO_SIDED or _close(r, i.mask, True, True) != i.mask:
        raise ValueError(f"{i!r} is not a two-sided ideal of {r.label}")
    q_of, reps = coset_walk(r, elems := _elements or i.elements)
    qadd = tuple(tuple(q_of[row[b]] for b in reps) for row in (r.add[a] for a in reps))
    qmul = tuple(tuple(q_of[row[b]] for b in reps) for row in (r.mul[a] for a in reps))
    qone = q_of[r.one] if r.one is not None else None
    q = Ring(len(reps), qadd, qmul, qone, f"{r.label}/{{{','.join(map(str, elems))}}}")
    return q, tuple(q_of)


__all__ = [
    "BRUTE_FORCE_ORDER_CAP",
    "DEFAULT_LATTICE_COUNT_CAP",
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
    "full_mask",
    "generator_product",
    "ideal_generated_by",
    "ideal_sum",
    "is_commutative",
    "make_quotient",
    "mask_elements",
    "principal_ideal",
    "zero_ideal",
]
