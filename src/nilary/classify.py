"""Ideal predicates with concrete witnesses.

The public entry point is ``verdict(i, name)``: the registered predicate
``name`` (any key of ``REGISTRY``) on the two-sided ideal ``i``, memoized
in the ring's context. ``classify_ideal`` evaluates every report column.

Each predicate decides one containment property of a two-sided ideal by
exhaustive quantification and returns a :class:`Verdict` carrying a
witness for false verdicts. Quantifier evaluation order is deterministic
(lattice order, then element index order), so reported witnesses are
reproducible. Predicates over "ideals" range over the full two-sided
lattice; predicates over "(principal) ideals" range over principal
two-sided ideals only.

Every pair predicate is one of two searches, and the registry builds it
from the excuse of each side. Element-pair predicates (completely prime,
nilary, right/left primary) call ``_element_pair``; ideal-pair predicates
(prime, nilary, p-nilary, right/left primary and their principal forms,
the weakly nilary family) call ``_ideal_pair``. A predicate first filters
each side of its domain by that side's excuse, "not inside I" or "no
power inside I", and then searches the filtered lists for the first pair
whose product lies in I (and is nonzero for the weakly family). Filtering
keeps the domain's order and drops only pairs that are excused anyway, so
the first pair found is the least witness of the full scan. Element sides
hold each coset's least element, from one walk per ideal; the excuses and
"ab in I" depend only on a + I and b + I, so the full scan's least witness
is among them. An element search probes each row in C and scans only the
first that hits. Ideal domains are positions in the context's lattice
index, in lattice order; a search reads products from index rows, filled
when first read, and its witnesses J and K are the index's element tuples.

Properness conventions: prime and completely prime require a proper
ideal (a domain is nonzero); the nilary/primary family is evaluated on
improper ideals too (trivially true there); the weakly-* family is
defined only for proper ideals and reports not-applicable otherwise,
encoded as holds=False with na=True.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .ideals import (
    DEFAULT_LATTICE_COUNT_CAP,
    LEFT,
    RIGHT,
    TWO_SIDED,
    Ideal,
    IdealLattice,
    _ring_circle,
    _same_ring,
    additive_generators,
    coset_walk,
    element_power_in,
    enumerate_ideals,
    full_mask,
    generator_product,
    is_commutative,
    make_quotient,
    mask_elements,
)
from .rings import Characteristic, Ring, SizeCapError, characteristic


@dataclass(frozen=True)
class Witness:
    """Concrete evidence for a verdict; exponents are least witnesses."""

    variant: str  # "element-pair" | "ideal-pair" | "element" | "none"
    a: Optional[int] = None
    b: Optional[int] = None
    j: Optional[tuple[int, ...]] = None
    k: Optional[tuple[int, ...]] = None
    n: Optional[int] = None

    @staticmethod
    def none() -> "Witness":
        return Witness("none")

    @staticmethod
    def element(a: int, n: Optional[int] = None) -> "Witness":
        return Witness("element", a=a, n=n)

    @staticmethod
    def pair(a: int, b: int) -> "Witness":
        return Witness("element-pair", a=a, b=b)

    @staticmethod
    def ideals(j: tuple[int, ...], k: tuple[int, ...]) -> "Witness":
        return Witness("ideal-pair", j=j, k=k)

    def to_json(self) -> dict:
        out: dict = {"variant": self.variant}
        for name in ("a", "b", "n", "j", "k"):
            v = getattr(self, name)
            if v is not None:
                out[name] = list(v) if name in ("j", "k") else v
        return out


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Witness
    na: bool = False  # not applicable (improper ideal / missing unity)

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness": self.witness.to_json(), "na": self.na}


_TRUE = Verdict(True, Witness.none())
_NA = Verdict(False, Witness.none(), na=True)
_IMPROPER = Verdict(False, Witness.none())  # the prime family on I = A
_UNWALKED = (0, (), frozenset())  # no ideal has mask 0


class _LatticeIndex:
    """One enumerated lattice, addressed by position in its (size, mask) order.

    Built with the lattice: ``gens[j]`` holds the additive generators
    enumeration recorded for ideal j, ``principal`` the positions of the
    principal ideals, ``elements[j]`` ideal j's elements (the list its span made,
    read by witnesses, walks, reports and quotient images) and bit j of ``member[x]``
    says that x lies in ideal j. ``slots[k]`` numbers ideal k's generators among the distinct
    generator elements ``hs`` of the whole lattice. Each derived list is
    absent or complete, stored only once full (racing threads at worst
    compute it twice). Row j is built when first read, as L ideals would
    otherwise cost L^2 entries up front: ``row(ctx, j)[k]`` is JK.
    ``stable_powers(ctx)[j]`` is ideal j's last power, all computed at once;
    it is the one memo of stable powers.
    """

    def __init__(self, kind: str, lattice: IdealLattice):
        self.kind = kind
        self.masks = masks = lattice.masks()
        self.pos = {m: j for j, m in enumerate(masks)}
        self.gens = lattice.generators
        self.principal = lattice.principal
        slot: dict[int, int] = {}
        self.slots = tuple(tuple(slot.setdefault(h, len(slot)) for h in g) for g in self.gens)
        self.hs = tuple(slot)
        self.rows: list[Optional[list[int]]] = [None] * len(masks)
        self.stable: Optional[list[int]] = None
        self.elements = elements = lattice.elements
        self.member = member = [0] * lattice.ring.order
        for j, elems in enumerate(elements):
            for x in elems:
                member[x] |= 1 << j

    def product(self, mul, j: int, k: int) -> int:
        """JK: the first ideal in lattice order that holds every generator product g*h.

        Products of two ideals of one kind are ideals of that kind, and JK is
        the span of the g*h, so it lies inside every ideal that holds them.
        """
        member, hits = self.member, -1
        for g in self.gens[j]:
            row = mul[g]
            for h in self.gens[k]:
                hits &= member[row[h]]
        return self.masks[(hits & -hits).bit_length() - 1]

    def row(self, ctx: "RingContext", j: int) -> list[int]:
        """Products of ideal j with every ideal, as :meth:`product` gives them, when first read.

        One pass: bit i of ``image[s]`` says ideal i holds g*h for every
        generator g of J, h the s-th of ``hs``; so JK is the first ideal in
        the AND of ``image`` over K's slots. JK lies in J (at position <= j)
        unless J is a left ideal, so then ``image`` keeps bits 0..j only.
        """
        got = self.rows[j]
        if got is None:
            member, masks, hs, mul = self.member, self.masks, self.hs, ctx.ring.mul
            image = [-1 if self.kind == LEFT else (2 << j) - 1] * len(hs)
            for g in self.gens[j]:
                row = mul[g]
                image = [hits & member[row[h]] for hits, h in zip(image, hs)]
            got = []
            for slots in self.slots:
                hits = -1
                for s in slots:
                    hits &= image[s]
                got.append(masks[(hits & -hits).bit_length() - 1])
            self.rows[j] = got
        return got

    def stable_powers(self, ctx: "RingContext") -> list[int]:
        """Last power of every ideal, filled by ctx.chain when first read."""
        got = self.stable
        if got is None:
            got = self.stable = [ctx.chain(m)[-1] for m in self.masks]
        return got


class RingContext:
    """Memoized quantification data for one table pair: its one mask algebra.

    Everything here depends on the tables alone, so rings that differ only in
    their labels share a context, and :attr:`ring` is just one of them.
    Caches a :class:`_LatticeIndex` per enumerated lattice kind, one quotient record
    per kernel K (A/K's context, this one for A/0 and else the shared context of its
    tables, with the images of the ideals above K), the last ideal walked, verdicts and
    :attr:`outcomes`, the case memo: each theorem case's unlabelled outcome on these
    tables, by case id, filled and replayed by the case's sweep; clear_caches drops it.
    :attr:`commutative`, :attr:`characteristic` and :attr:`idempotents` are built
    whole on first use. :meth:`product` multiplies any two masks and :meth:`chain`
    computes power chains; neither keeps what it returns, since index rows hold
    the products of lattice members and the index's stable powers keep the
    chains' last terms. Everything is derived data and deterministic; the context
    never mutates its ring, and two threads racing on one entry only compute it
    twice (a quotient is built twice, but both callers get the one stored first).
    """

    def __init__(self, ring: Ring):
        self.ring = ring  # a representative of the table pair: no output reads its label
        self.n = ring.order
        self.full_mask = full_mask(ring)
        self.unital = ring.one is not None
        self._commutative: Optional[bool] = None
        self._characteristic: Optional[Characteristic] = None
        self._idempotents: Optional[tuple[int, ...]] = None
        self._walked: tuple[int, Sequence[int], frozenset[int]] = _UNWALKED
        self._circle: tuple = ()  # _ring_circle's pair, shared by the enumerations of every kind
        self._indexes: dict[str, _LatticeIndex] = {}
        self._quotients: dict[int, tuple[RingContext, tuple[tuple[int, int], ...]]] = {}
        self._verdicts: dict[tuple, Verdict] = {}
        self.outcomes: dict[str, tuple] = {}  # the case memo, filled by theorems' sweeps

    @property
    def commutative(self) -> bool:
        """Whether the ring is commutative, scanned on first use."""
        if self._commutative is None:
            self._commutative = is_commutative(self.ring)
        return self._commutative

    @property
    def characteristic(self) -> Characteristic:
        """Additive order of the unity, walked on first use; ValueError without unity."""
        if self._characteristic is None:
            self._characteristic = characteristic(self.ring)
        return self._characteristic

    @property
    def idempotents(self) -> tuple[int, ...]:
        """The idempotent power a^ω of each element a, built on first use.

        A two-sided I holds a power of a iff it holds a^ω; a is nilpotent iff
        a^ω = 0. A walk stops at a power already known: at most 2n row reads.
        """
        if self._idempotents is None:
            mul, idem = self.ring.mul, [-1] * self.n
            for a in range(self.n):
                walk, p = {}, a  # a^(i+1) -> i
                while idem[p] < 0 and p not in walk:
                    walk[p] = len(walk)
                    p = mul[p][a]
                if idem[p] < 0:  # p recurs: its cycle is a group, whose one idempotent is a^ω
                    idem[p] = next(x for x in list(walk)[walk[p]:] if mul[x][x] == x)
                for x in walk:
                    idem[x] = idem[p]
            self._idempotents = tuple(idem)
        return self._idempotents

    def walked(self, m: int) -> tuple[int, Sequence[int], frozenset[int]]:
        """(m, least element of each coset of m ascending, m's elements) for a two-sided m.

        0 is the first representative. Predicates on one ideal come together,
        so one record keeps the last ideal walked; it is read and stored
        whole, so the three stay paired. The zero ideal and A need no walk
        and are not stored.
        """
        got = self._walked
        if got[0] != m:
            elems = self.elements(m)
            if m == 1 or m == self.full_mask:  # cosets are the elements, or A alone: no walk
                return m, range(self.n if m == 1 else 1), frozenset(elems)
            got = self._walked = (m, coset_walk(self.ring, elems)[1], frozenset(elems))
        return got

    # ideal data ----------------------------------------------------------
    def elements(self, m: int) -> tuple[int, ...]:
        """m's elements ascending: the two-sided index's list when it holds m, else decoded."""
        idx = self._indexes.get(TWO_SIDED)
        return idx.elements[idx.pos[m]] if idx and m in idx.pos else mask_elements(m)

    def index(self, kind: str = TWO_SIDED,
              max_ideals: int = DEFAULT_LATTICE_COUNT_CAP) -> _LatticeIndex:
        """The lattice of the kind with its product rows, enumerated on first use."""
        if kind != TWO_SIDED and self.commutative:
            kind = TWO_SIDED  # one-sided ideals are the two-sided ones
        got = self._indexes.get(kind)
        if got is None:
            self._circle = self._circle or _ring_circle(self.ring)
            lattice = enumerate_ideals(self.ring, kind, max_ideals=max_ideals, _circle=self._circle)
            got = self._indexes.setdefault(kind, _LatticeIndex(kind, lattice))
        elif len(got.masks) > max_ideals:  # as enumeration under this cap would raise
            raise SizeCapError(f"lattice exceeds count cap {max_ideals}")
        return got

    def lattice_masks(self, kind: str = TWO_SIDED) -> tuple[int, ...]:
        return self.index(kind).masks

    def principal_masks(self, kind: str = TWO_SIDED) -> tuple[int, ...]:
        """The distinct principal ideals of the kind, in lattice order."""
        idx = self.index(kind)
        return tuple(idx.masks[j] for j in idx.principal)

    def product(self, jm: int, km: int) -> int:
        """Mask of the product of two additive subgroups given by their masks."""
        for idx in tuple(self._indexes.values()):  # a snapshot: other threads may add one
            j = idx.pos.get(jm)
            if j is not None and (k := idx.pos.get(km)) is not None:
                return idx.product(self.ring.mul, j, k)
        r = self.ring
        return generator_product(r, additive_generators(r, jm), additive_generators(r, km))

    def chain(self, m: int) -> tuple[int, ...]:
        """Masks of I, I^2, ... up to the first that equals the next.

        The chain descends, so it stops within |I| steps at its stable value.
        """
        powers = [m]
        while (nxt := self.product(powers[-1], m)) != powers[-1]:
            powers.append(nxt)
        return tuple(powers)

    def quotient(self, m: int) -> tuple[RingContext, tuple[tuple[int, int], ...]]:
        """A/K's context for a two-sided ideal mask K, with (I, I/K) for the two-sided I above K.

        One record per K, in lattice order, off one coset map: the identity for A/0 (this
        context), 0 for A/A (_POINTS' ring), else make_quotient's, shared by _shared_context.
        """
        got = self._quotients.get(m)
        if got is None:
            if m == 1:
                qctx, q_of = self, range(self.n)
            elif m == self.full_mask:
                qctx, q_of = _shared_context(_POINTS[self.unital]), (0,) * self.n
            else:
                quot, q_of = make_quotient(self.ring, Ideal(self.ring, m), _elements=self.elements(m))
                qctx = _shared_context(quot)
            images = []
            for im, elems in zip(self.lattice_masks(), self.index().elements):
                if not m & ~im:
                    image = 0
                    for a in elems:
                        image |= 1 << q_of[a]
                    images.append((im, image))
            got = self._quotients.setdefault(m, (qctx, tuple(images)))
        return got

    # verdicts -------------------------------------------------------------
    def verdict(self, name: str, ideal_mask: int) -> Verdict:
        key = (name, ideal_mask)
        got = self._verdicts.get(key)
        if got is None:
            got = REGISTRY[name](self, ideal_mask)
            self._verdicts[key] = got
        return got


_LIVE: dict[tuple[int, Optional[int]], tuple[weakref.ref, ...]] = {}  # weak, by (order, one)
# A/A for every A, by whether A has a unity: the one-element ring, built once at import
_POINTS = {unital: Ring(1, ((0,),), ((0,),), 0 if unital else None, "A/A") for unital in (False, True)}


def _shared_context(r: Ring) -> RingContext:
    """A live registered context with r's order, unity and tables (==, unhashed), or a new one."""
    key = (r.order, r.one)
    for ref in _LIVE.get(key, ()):  # a tuple: registering replaces it whole
        if (ctx := ref()) is not None and ctx.ring.mul == r.mul and ctx.ring.add == r.add:
            return ctx
    ctx = RingContext(r)  # if a racing thread registers its own too, one share is lost
    _LIVE[key] = (*(ref for ref in _LIVE.get(key, ()) if ref() is not None), weakref.ref(ctx))
    return ctx


@lru_cache(maxsize=256)
def ring_context(ring: Ring) -> RingContext:
    """The shared context of ring's tables, whose ring may carry another label than ring's."""
    return _shared_context(ring)


def clear_caches() -> None:
    """Forget every context: the LRU and the registry, so no later lookup finds an old memo."""
    ring_context.cache_clear()
    _LIVE.clear()


# ---------------------------------------------------------------------------
# ideal arithmetic: Ideal-level views of the context's products and chains


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    """Additive closure of the set of pairwise products.

    Defined for matching kinds only: the product of two right (left,
    two-sided) ideals is again right (left, two-sided).
    """
    _same_ring(i, j)
    if i.kind != j.kind:
        raise ValueError(f"cannot multiply a {i.kind} ideal by a {j.kind} ideal")
    return Ideal(i.ring, ring_context(i.ring).product(i.mask, j.mask), i.kind)


def power_chain(i: Ideal) -> tuple[Ideal, ...]:
    """I, I^2, ... until two consecutive powers coincide: the last is the stable power."""
    return tuple(Ideal(i.ring, m, i.kind) for m in ring_context(i.ring).chain(i.mask))


def some_power_contained(j: Ideal, i: Ideal) -> Optional[int]:
    """Least m with J^m inside I, or None; powers past the chain's end equal its last."""
    _same_ring(j, i)
    for exp, p in enumerate(ring_context(j.ring).chain(j.mask), start=1):
        if not p & ~i.mask:
            return exp
    return None


# ---------------------------------------------------------------------------
# predicate implementations (ctx, ideal mask) -> Verdict


def _outside_elements(ctx: RingContext, m: int) -> Sequence[int]:
    return ctx.walked(m)[1][1:]


def _powerless_elements(ctx: RingContext, m: int) -> list[int]:
    idem = ctx.idempotents
    return [a for a in ctx.walked(m)[1] if not m >> idem[a] & 1]


Domain = tuple[_LatticeIndex, Sequence[int]]  # an index and positions in it, ascending


def _outside_ideals(ctx: RingContext, domain: Domain, m: int) -> list[int]:
    masks, out = domain[0].masks, ~m
    return [j for j in domain[1] if masks[j] & out]


def _powerless_ideals(ctx: RingContext, domain: Domain, m: int) -> list[int]:
    stable, out = domain[0].stable_powers(ctx), ~m
    return [j for j in domain[1] if stable[j] & out]


def _element_pair(
    ctx: RingContext, m: int, first: Sequence[int], second: Sequence[int]
) -> Optional[tuple[int, int]]:
    """First (a, b) in index order with a in first, b in second and ab in I.

    The sides hold each coset's least element; ab in I depends only on a + I
    and b + I, so the witness is the full scan's. Each row a is probed whole
    in C: ``pick`` gathers the products ab over ``second`` and
    ``inside.isdisjoint`` asks whether any lies in I. Only the first row that
    hits is scanned in Python, for its least b, in the double loop's order.
    """
    if not first or not second:
        return None
    inside = ctx.walked(m)[2]
    pick = itemgetter(*second, second[0])  # a tuple even when second has one entry
    mul = ctx.ring.mul
    for a in first:
        row = mul[a]
        if not inside.isdisjoint(pick(row)):
            return a, next(b for b in second if row[b] in inside)
    return None


def _ideal_pair(
    ctx: RingContext, m: int, idx: _LatticeIndex, js: list[int], ks: list[int],
    nonzero: bool = False,
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """First (J, K) in lattice order from js x ks, positions in idx, with JK inside I.

    Products are read from J's row, filled whole when first read; with nonzero
    set, pairs with JK = 0 are skipped. Witnesses read J and K as idx's element tuples.
    """
    if not ks:  # no pair, and no row allocated for each j
        return None
    elements, rows, out = idx.elements, idx.rows, ~m
    for j in js:
        row = rows[j] or idx.row(ctx, j)
        for k in ks:
            prod = row[k]
            if not prod & out and not (nonzero and prod == 1):
                return elements[j], elements[k]
    return None


def _refuted(pair: Optional[tuple], witness: Callable[..., Witness]) -> Verdict:
    return _TRUE if pair is None else Verdict(False, witness(*pair))


Predicate = Callable[[RingContext, int], Verdict]


def _element_pairs(first: Callable, second: Callable, proper: bool = False) -> Predicate:
    """ab in I implies a in I / some power of a in I (first), likewise b (second).

    ``first`` and ``second`` list the elements lacking that excuse. A
    ``proper`` predicate (completely prime) fails on I = A.
    """

    def check(ctx: RingContext, m: int) -> Verdict:
        if proper and m == ctx.full_mask:
            return _IMPROPER
        js = first(ctx, m)
        ks = js if second is first else second(ctx, m)
        return _refuted(_element_pair(ctx, m, js, ks), Witness.pair)

    return check


def _ideal_pairs(
    first: Callable, second: Callable, principal: bool = False, side: str = TWO_SIDED,
    proper: bool = False, weakly: bool = False,
) -> Predicate:
    """JK inside I implies J in I / some power of J in I (first), likewise K (second).

    J and K range over the ideals of ``side``, or its principal ideals. A
    ``proper`` predicate (prime) fails on I = A. The ``weakly`` family skips
    pairs with JK = 0 and is not applicable on I = A, nor one-sided without unity.
    """

    def check(ctx: RingContext, m: int) -> Verdict:
        if m == ctx.full_mask and (proper or weakly):
            return _NA if weakly else _IMPROPER
        if side != TWO_SIDED and not ctx.unital:
            return _NA
        idx = ctx.index(side)
        domain = idx, idx.principal if principal else range(len(idx.masks))
        js = first(ctx, domain, m)
        ks = js if second is first else second(ctx, domain, m)
        return _refuted(_ideal_pair(ctx, m, idx, js, ks, nonzero=weakly), Witness.ideals)

    return check


def _completely_semiprime(ctx: RingContext, m: int) -> Verdict:
    """a^n in I for some n implies a in I."""
    idem = ctx.idempotents
    for a in _outside_elements(ctx, m):
        if m >> idem[a] & 1:
            n = element_power_in(ctx.ring, a, Ideal(ctx.ring, m))
            return Verdict(False, Witness.element(a, n=n))
    return _TRUE


def _semiprime(ctx: RingContext, m: int) -> Verdict:
    """J^2 inside I implies J inside I."""
    idx = ctx.index(TWO_SIDED)
    for jm, elems in zip(idx.masks, idx.elements):
        if jm & ~m and not ctx.product(jm, jm) & ~m:
            return Verdict(False, Witness.ideals(elems, elems))
    return _TRUE


_OUT_E, _FREE_E = _outside_elements, _powerless_elements
_OUT, _FREE = _outside_ideals, _powerless_ideals

REGISTRY: dict[str, Predicate] = {
    "completely_prime": _element_pairs(_OUT_E, _OUT_E, proper=True),
    "completely_semiprime": _completely_semiprime,
    "completely_nilary": _element_pairs(_FREE_E, _FREE_E),
    "prime": _ideal_pairs(_OUT, _OUT, proper=True),
    "semiprime": _semiprime,
    "nilary": _ideal_pairs(_FREE, _FREE),
    "p_nilary": _ideal_pairs(_FREE, _FREE, principal=True),
    "right_primary": _ideal_pairs(_OUT, _FREE),
    "left_primary": _ideal_pairs(_FREE, _OUT),
    "p_right_primary": _ideal_pairs(_OUT, _FREE, principal=True),
    "p_left_primary": _ideal_pairs(_FREE, _OUT, principal=True),
    "completely_right_primary": _element_pairs(_OUT_E, _FREE_E),
    "completely_left_primary": _element_pairs(_FREE_E, _OUT_E),
    "weakly_nilary": _ideal_pairs(_FREE, _FREE, weakly=True),
    "weakly_p_nilary": _ideal_pairs(_FREE, _FREE, principal=True, weakly=True),
    "weakly_nilary_right": _ideal_pairs(_FREE, _FREE, side=RIGHT, weakly=True),
    "weakly_nilary_left": _ideal_pairs(_FREE, _FREE, side=LEFT, weakly=True),
}

PREDICATE_NAMES = tuple(REGISTRY)  # the report columns; the principal one-sided forms are not
REGISTRY.update(
    weakly_p_nilary_right=_ideal_pairs(_FREE, _FREE, principal=True, side=RIGHT, weakly=True),
    weakly_p_nilary_left=_ideal_pairs(_FREE, _FREE, principal=True, side=LEFT, weakly=True),
)


def _require_two_sided(i: Ideal) -> RingContext:
    if i.kind != TWO_SIDED:
        raise ValueError(f"predicates take two-sided ideals, got kind {i.kind!r}")
    return ring_context(i.ring)


def verdict(i: Ideal, name: str) -> Verdict:
    """The registered predicate ``name`` on the two-sided ideal ``i``, memoized per ring."""
    if name not in REGISTRY:
        raise ValueError(f"unknown predicate {name!r}; expected one of: {', '.join(REGISTRY)}")
    return _require_two_sided(i).verdict(name, i.mask)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PropertyReport:
    """Full predicate profile of one (ring, ideal) pair."""

    ring_label: str
    ideal_elements: tuple[int, ...]
    proper: bool
    verdicts: dict[str, Verdict]
    char: Optional[Characteristic]
    commutative: bool
    unital: bool
    nil: bool

    def to_json(self) -> dict:
        return {
            "ring": self.ring_label,
            "ideal": list(self.ideal_elements),
            "proper": self.proper,
            "verdicts": {name: v.to_json() for name, v in self.verdicts.items()},
            "char": (
                {"value": self.char.value, "factors": [list(f) for f in self.char.factors]}
                if self.char is not None
                else None
            ),
        }


def classify_ideal(i: Ideal) -> PropertyReport:
    """Evaluate every registered predicate on one two-sided ideal."""
    ctx = _require_two_sided(i)
    verdicts = {name: ctx.verdict(name, i.mask) for name in PREDICATE_NAMES}
    return PropertyReport(
        ring_label=i.ring.label,
        ideal_elements=ctx.elements(i.mask),
        proper=i.mask != ctx.full_mask,
        verdicts=verdicts,
        char=ctx.characteristic if ctx.unital else None,
        commutative=ctx.commutative,
        unital=ctx.unital,
        nil=not any(ctx.idempotents),
    )


def classify_ring(r: Ring) -> PropertyReport:
    """Predicate profile of the zero ideal plus ring-level facts."""
    return classify_ideal(Ideal(r, 1, TWO_SIDED))


def full_report(r: Ring) -> list[PropertyReport]:
    """One PropertyReport per two-sided ideal, in lattice order."""
    ctx = ring_context(r)
    return [classify_ideal(Ideal(r, m, TWO_SIDED)) for m in ctx.lattice_masks(TWO_SIDED)]


__all__ = [
    "PREDICATE_NAMES",
    "PropertyReport",
    "REGISTRY",
    "RingContext",
    "Verdict",
    "Witness",
    "classify_ideal",
    "classify_ring",
    "clear_caches",
    "full_report",
    "ideal_product",
    "power_chain",
    "ring_context",
    "some_power_contained",
    "verdict",
]
