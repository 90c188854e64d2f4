"""Ideal predicates with concrete witnesses.

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
power inside I", computed once per element or ideal, and then searches
the filtered lists for the first pair whose product lies in I (and is
nonzero for the weakly family). Filtering keeps the domain's order and
drops only pairs that are excused anyway, so the first pair found is the
least witness of the full scan. Ideal domains are positions in the
context's lattice index, whose order is lattice order; a search reads
each product from the index rows and asks :meth:`RingContext.product`
only for an empty slot.

Properness conventions: prime and completely prime require a proper
ideal (a domain is nonzero); the nilary/primary family is evaluated on
improper ideals too (trivially true there); the weakly-* family is
defined only for proper ideals and reports not-applicable otherwise,
encoded as holds=False with na=True.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .ideals import (
    DEFAULT_LATTICE_COUNT_CAP,
    LEFT,
    RIGHT,
    TWO_SIDED,
    Ideal,
    IdealLattice,
    _same_ring,
    additive_generators,
    element_power_in,
    elements_mask,
    enumerate_ideals,
    full_mask,
    generator_product,
    hom_image_mask,
    make_quotient,
    mask_elements,
    zero_ideal,
)
from .rings import Characteristic, Hom, Ring, characteristic, element_powers, is_commutative


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


class _LatticeIndex:
    """One enumerated lattice, addressed by position in its (size, mask) order.

    Built with the lattice: ``gens[j]`` holds the additive generators
    enumeration recorded for ideal j, ``principal`` the positions of the
    principal ideals, and bit j of ``member[x]`` says that element x lies in
    ideal j. Row j is allocated when it is first read, since a lattice of
    L ideals would otherwise cost L^2 slots before anything multiplies:
    ``row(j)[k]`` is the product of ideals j and k as
    :meth:`RingContext.product` returned it, 0 while unfilled (a product
    always holds zero). ``stable[j]`` is the last power of ideal j, 0 until
    asked for; it is the one memo of stable powers.
    """

    def __init__(self, kind: str, lattice: IdealLattice):
        self.kind = kind
        self.masks = masks = lattice.masks()
        self.pos = {m: j for j, m in enumerate(masks)}
        self.gens = lattice.generators
        self.principal = lattice.principal
        self.rows: list[Optional[list[int]]] = [None] * len(masks)
        self.stable = [0] * len(masks)
        self.member = member = [0] * lattice.ring.order
        for j, m in enumerate(masks):
            for x in mask_elements(m):
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

    def row(self, j: int) -> list[int]:
        got = self.rows[j]
        if got is None:
            got = self.rows[j] = [0] * len(self.masks)
        return got

    def times(self, ctx: "RingContext", j: int, k: int) -> int:
        """Product of ideals j and k, read from the row or filled by ctx.product."""
        row = self.row(j)
        got = row[k]
        if not got:
            got = row[k] = ctx.product(self.masks[j], self.masks[k])
        return got

    def last_power(self, ctx: "RingContext", j: int) -> int:
        """Stable value of ideal j's power chain, filled by ctx.chain."""
        got = self.stable[j]
        if not got:
            got = self.stable[j] = ctx.chain(self.masks[j])[-1]
        return got


class RingContext:
    """Memoized quantification data for one ring: its one mask algebra.

    Caches a :class:`_LatticeIndex` per enumerated lattice kind, quotients
    by two-sided ideals with the images of the ideals above each kernel, and
    verdicts. :attr:`commutative` is scanned on first use; only one-sided
    lattices and reports ask for it. :attr:`powers` is built whole on first
    use; only element predicates, reports and two harness cases ask for it.
    :meth:`product` is the one source of products and :meth:`chain` computes
    power chains; neither keeps what it returns, since index rows keep the
    products and the index's stable powers keep the chains' last terms.
    Everything is derived data and deterministic; the context never mutates
    its ring, and two threads racing on one entry only compute it twice (a
    quotient is built twice, but both callers get the one stored first).
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.n = ring.order
        self.full_mask = full_mask(ring)
        self.unital = ring.one is not None
        self._commutative: Optional[bool] = None
        self._powers: Optional[tuple[int, ...]] = None
        self._indexes: dict[str, _LatticeIndex] = {}
        self._quotients: dict[int, tuple[RingContext, Hom]] = {}
        self._images: dict[int, tuple[tuple[int, int], ...]] = {}
        self._verdicts: dict[tuple, Verdict] = {}

    @property
    def commutative(self) -> bool:
        """Whether the ring is commutative, scanned on first use."""
        if self._commutative is None:
            self._commutative = is_commutative(self.ring)
        return self._commutative

    @property
    def powers(self) -> tuple[int, ...]:
        """Mask of the powers a, a^2, ... of each element a, built on first use."""
        if self._powers is None:
            self._powers = tuple(elements_mask(element_powers(self.ring, a))
                                 for a in range(self.n))
        return self._powers

    # ideal data ----------------------------------------------------------
    def index(
        self, kind: str = TWO_SIDED, max_ideals: int = DEFAULT_LATTICE_COUNT_CAP
    ) -> _LatticeIndex:
        """The lattice of the kind with its product rows, enumerated on first use."""
        if kind != TWO_SIDED and self.commutative:
            kind = TWO_SIDED  # one-sided ideals are the two-sided ones
        got = self._indexes.get(kind)
        if got is None or len(got.masks) > max_ideals:  # then enumeration raises SizeCapError
            lattice = enumerate_ideals(self.ring, kind, max_ideals=max_ideals)
            got = self._indexes.setdefault(kind, _LatticeIndex(kind, lattice))
        return got

    def lattice_masks(
        self, kind: str = TWO_SIDED, max_ideals: int = DEFAULT_LATTICE_COUNT_CAP
    ) -> tuple[int, ...]:
        return self.index(kind, max_ideals).masks

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

    def quotient(self, m: int) -> tuple[RingContext, Hom]:
        """Context of A/I for a two-sided ideal mask, plus the projection A -> A/I."""
        got = self._quotients.get(m)
        if got is None:
            quot, hom = make_quotient(self.ring, Ideal(self.ring, m, TWO_SIDED))
            got = self._quotients.setdefault(m, (RingContext(quot), hom))
        return got

    def images(self, m: int) -> tuple[tuple[int, int], ...]:
        """(I, I/K) for the two-sided ideals I above K = m, in lattice order."""
        got = self._images.get(m)
        if got is None:
            hom = self.quotient(m)[1]
            got = self._images[m] = tuple(
                (im, hom_image_mask(hom, im)) for im in self.lattice_masks() if not m & ~im)
        return got

    # verdicts -------------------------------------------------------------
    def verdict(self, name: str, ideal_mask: int) -> Verdict:
        key = (name, ideal_mask)
        got = self._verdicts.get(key)
        if got is None:
            got = REGISTRY[name](self, ideal_mask)
            self._verdicts[key] = got
        return got


@lru_cache(maxsize=256)
def ring_context(ring: Ring) -> RingContext:
    return RingContext(ring)


def clear_caches() -> None:
    ring_context.cache_clear()


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


@dataclass(frozen=True)
class PowerChain:
    """Descending chain I, I^2, ... up to its stabilization point."""

    base: Ideal
    powers: tuple[Ideal, ...]
    stable_index: int
    stable_value: Ideal


def power_chain(i: Ideal) -> PowerChain:
    """I, I^2, ... until two consecutive powers coincide."""
    powers = tuple(Ideal(i.ring, m, i.kind) for m in ring_context(i.ring).chain(i.mask))
    return PowerChain(i, powers, len(powers), powers[-1])


def some_power_contained(j: Ideal, i: Ideal) -> Optional[int]:
    """Least m with J^m inside I, or None; powers past the chain's end equal its last."""
    _same_ring(j, i)
    for exp, p in enumerate(ring_context(j.ring).chain(j.mask), start=1):
        if not p & ~i.mask:
            return exp
    return None


def is_nilpotent_ideal(i: Ideal) -> Optional[int]:
    """Least m with I^m = {0}, or None."""
    return some_power_contained(i, zero_ideal(i.ring, i.kind))


# ---------------------------------------------------------------------------
# predicate implementations (ctx, ideal mask) -> Verdict


def _outside_elements(ctx: RingContext, m: int) -> list[int]:
    return [a for a in range(ctx.n) if not m >> a & 1]


def _powerless_elements(ctx: RingContext, m: int) -> list[int]:
    return [a for a, p in enumerate(ctx.powers) if not p & m]


Domain = tuple[_LatticeIndex, Sequence[int]]  # an index and positions in it, ascending


def _outside_ideals(ctx: RingContext, domain: Domain, m: int) -> list[int]:
    masks = domain[0].masks
    return [j for j in domain[1] if masks[j] & ~m]


def _powerless_ideals(ctx: RingContext, domain: Domain, m: int) -> list[int]:
    idx = domain[0]
    return [j for j in domain[1] if idx.last_power(ctx, j) & ~m]


def _element_pair(
    ctx: RingContext, m: int, first: list[int], second: list[int]
) -> Optional[tuple[int, int]]:
    """First (a, b) in index order with a in first, b in second and ab in I."""
    mul = ctx.ring.mul
    for a in first:
        row = mul[a]
        for b in second:
            if m >> row[b] & 1:
                return a, b
    return None


def _ideal_pair(
    ctx: RingContext, m: int, idx: _LatticeIndex, js: list[int], ks: list[int],
    nonzero: bool = False,
) -> Optional[tuple[int, int]]:
    """First (J, K) in lattice order from js x ks, positions in idx, with JK inside I.

    Products are read from J's row, and ctx.product fills an empty slot.
    With nonzero set, pairs with JK = 0 are skipped.
    """
    if not ks:  # no pair, and no row allocated for each j
        return None
    masks = idx.masks
    for j in js:
        row, jm = idx.row(j), masks[j]
        for k in ks:
            prod = row[k]  # idx.times(ctx, j, k), inlined in the hottest loop
            if not prod:
                prod = row[k] = ctx.product(jm, masks[k])
            if not prod & ~m and not (nonzero and prod == 1):
                return jm, masks[k]
    return None


def _refuted(pair: Optional[tuple[int, int]], witness: Callable[[int, int], Witness]) -> Verdict:
    return _TRUE if pair is None else Verdict(False, witness(*pair))


def _wit_ideals(jm: int, km: int) -> Witness:
    return Witness.ideals(mask_elements(jm), mask_elements(km))


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
        return _refuted(_ideal_pair(ctx, m, idx, js, ks, nonzero=weakly), _wit_ideals)

    return check


def _completely_semiprime(ctx: RingContext, m: int) -> Verdict:
    """a^n in I for some n implies a in I."""
    powers = ctx.powers
    for a in _outside_elements(ctx, m):
        if powers[a] & m:
            n = element_power_in(ctx.ring, a, Ideal(ctx.ring, m))
            return Verdict(False, Witness.element(a, n=n))
    return _TRUE


def _semiprime(ctx: RingContext, m: int) -> Verdict:
    """J^2 inside I implies J inside I."""
    idx = ctx.index(TWO_SIDED)
    for j, jm in enumerate(idx.masks):
        if jm & ~m and not idx.times(ctx, j, j) & ~m:
            return Verdict(False, _wit_ideals(jm, jm))
    return _TRUE


_OUT_E, _FREE_E = _outside_elements, _powerless_elements
_OUT, _FREE = _outside_ideals, _powerless_ideals
# weakly (p-)nilary over right or left ideals, by (side, principal)
_ONESIDED = {(side, principal): _ideal_pairs(_FREE, _FREE, principal, side, weakly=True)
             for side in (RIGHT, LEFT) for principal in (False, True)}

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
    "weakly_nilary_right": _ONESIDED[RIGHT, False],
    "weakly_nilary_left": _ONESIDED[LEFT, False],
}

PREDICATE_NAMES = tuple(REGISTRY)


def _require_two_sided(i: Ideal) -> RingContext:
    if i.kind != TWO_SIDED:
        raise ValueError(f"predicates take two-sided ideals, got kind {i.kind!r}")
    return ring_context(i.ring)


def _public(name: str) -> Callable[[Ideal], Verdict]:
    """The registered predicate ``name`` as a function of a two-sided Ideal."""

    def check(i: Ideal) -> Verdict:
        return _require_two_sided(i).verdict(name, i.mask)

    return check


is_completely_prime = _public("completely_prime")
is_completely_semiprime = _public("completely_semiprime")
is_completely_nilary = _public("completely_nilary")
is_prime_ideal = _public("prime")
is_semiprime_ideal = _public("semiprime")
is_nilary = _public("nilary")
is_p_nilary = _public("p_nilary")
is_right_primary = _public("right_primary")
is_left_primary = _public("left_primary")
is_p_right_primary = _public("p_right_primary")
is_p_left_primary = _public("p_left_primary")
is_completely_right_primary = _public("completely_right_primary")
is_completely_left_primary = _public("completely_left_primary")
is_weakly_nilary = _public("weakly_nilary")
is_weakly_p_nilary = _public("weakly_p_nilary")


def is_weakly_nilary_onesided(l: Ideal, side: str, principal: bool = False) -> Verdict:
    """Weakly (p-)nilary via one-sided ideals of the given side; needs unity."""
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    ctx = _require_two_sided(l)
    if not ctx.unital:
        raise ValueError("unity required")
    key = (side, principal, l.mask)  # memoized beside the registry verdicts, not through them
    got = ctx._verdicts.get(key)
    if got is None:
        got = ctx._verdicts[key] = _ONESIDED[side, principal](ctx, l.mask)
    return got


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
    ring = i.ring
    return PropertyReport(
        ring_label=ring.label,
        ideal_elements=i.elements,
        proper=i.mask != ctx.full_mask,
        verdicts=verdicts,
        char=characteristic(ring) if ctx.unital else None,
        commutative=ctx.commutative,
        unital=ctx.unital,
        nil=all(p & 1 for p in ctx.powers),
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
    "PowerChain",
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
    "is_completely_left_primary",
    "is_completely_nilary",
    "is_completely_prime",
    "is_completely_right_primary",
    "is_completely_semiprime",
    "is_left_primary",
    "is_nilary",
    "is_nilpotent_ideal",
    "is_p_left_primary",
    "is_p_nilary",
    "is_p_right_primary",
    "is_right_primary",
    "is_prime_ideal",
    "is_semiprime_ideal",
    "is_weakly_nilary",
    "is_weakly_nilary_onesided",
    "is_weakly_p_nilary",
    "power_chain",
    "ring_context",
    "some_power_contained",
]
