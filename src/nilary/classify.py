"""Ideal predicates with concrete witnesses.

Each predicate decides one containment property of a two-sided ideal by
exhaustive quantification and returns a :class:`Verdict` carrying a
witness for false verdicts. Quantifier evaluation order is deterministic
(lattice order, then element index order), so reported witnesses are
reproducible. Predicates over "ideals" range over the full two-sided
lattice; predicates over "(principal) ideals" range over principal
two-sided ideals only.

Every pair predicate is one of two searches. Element-pair predicates
(completely prime, nilary, right/left primary) call ``_element_pair``;
ideal-pair predicates (prime, nilary, p-nilary, right/left primary and
their principal forms, the weakly nilary family) call ``_ideal_pair``.
A predicate first filters each side of its domain by that side's excuse,
"not inside I" or "no power inside I", computed once per element or
ideal, and then searches the filtered lists for the first pair whose
product lies in I (and is nonzero for the weakly family). Filtering keeps
the domain's order and drops only pairs that are excused anyway, so the
first pair found is the least witness of the full scan.

Properness conventions: prime and completely prime require a proper
ideal (a domain is nonzero); the nilary/primary family is evaluated on
improper ideals too (trivially true there); the weakly-* family is
defined only for proper ideals and reports not-applicable otherwise,
encoded as holds=False with na=True.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .ideals import (
    DEFAULT_LATTICE_COUNT_CAP,
    DEFAULT_LATTICE_ORDER_CAP,
    LEFT,
    RIGHT,
    TWO_SIDED,
    Ideal,
    _same_ring,
    additive_generators,
    element_power_in,
    elements_mask,
    enumerate_ideals,
    full_mask,
    generator_product,
    make_quotient,
    mask_elements,
    principal_of,
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
    m: Optional[int] = None

    @staticmethod
    def none() -> "Witness":
        return Witness("none")

    @staticmethod
    def element(a: int, n: Optional[int] = None) -> "Witness":
        return Witness("element", a=a, n=n)

    @staticmethod
    def pair(a: int, b: int, n: Optional[int] = None, m: Optional[int] = None) -> "Witness":
        return Witness("element-pair", a=a, b=b, n=n, m=m)

    @staticmethod
    def ideals(
        j: tuple[int, ...], k: tuple[int, ...], n: Optional[int] = None, m: Optional[int] = None
    ) -> "Witness":
        return Witness("ideal-pair", j=j, k=k, n=n, m=m)

    def to_json(self) -> dict:
        out: dict = {"variant": self.variant}
        for name in ("a", "b", "n", "m"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        if self.j is not None:
            out["j"] = list(self.j)
        if self.k is not None:
            out["k"] = list(self.k)
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


class RingContext:
    """Memoized quantification data for one ring: its one mask algebra.

    Caches the ideal lattices, the principal ideal of every element (one
    pass per kind, for the principal-ideal sets and the lattices), element
    power masks, additive generators per mask, pairwise ideal products,
    power chains, quotients by two-sided ideals (each with its own
    context) and individual verdicts. Products and chains are keyed by
    masks alone: the product of two additive subgroups is the same
    whatever kind of ideal they are. Everything is derived data and
    deterministic; the context never mutates its ring, and two threads
    racing on one entry only compute it twice (a quotient is built twice,
    but both callers get the one stored first).
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.n = ring.order
        self.full_mask = full_mask(ring)
        self.commutative = is_commutative(ring)
        self.unital = ring.one is not None
        self._lattices: dict[str, tuple[int, ...]] = {}
        self._principal_of: dict[str, tuple[int, ...]] = {}
        self._principal: dict[str, tuple[int, ...]] = {}
        self._powmask: list[Optional[int]] = [None] * self.n
        self._generators: dict[int, tuple[int, ...]] = {}
        self._products: dict[tuple[int, int], int] = {}
        self._chains: dict[int, tuple[int, ...]] = {}
        self._quotients: dict[int, tuple[RingContext, Hom]] = {}
        self._verdicts: dict[tuple[str, int], Verdict] = {}

    # element power data -------------------------------------------------
    def powmask(self, a: int) -> int:
        """Mask of the powers a, a^2, ... of one element."""
        m = self._powmask[a]
        if m is None:
            m = elements_mask(element_powers(self.ring, a))
            self._powmask[a] = m
        return m

    # ideal data ----------------------------------------------------------
    def lattice_masks(
        self, kind: str = TWO_SIDED, max_ideals: int = DEFAULT_LATTICE_COUNT_CAP
    ) -> tuple[int, ...]:
        if self.commutative:
            kind = TWO_SIDED  # one-sided ideals are the two-sided ones
        got = self._lattices.get(kind)
        if got is None or len(got) > max_ideals:  # then enumeration raises SizeCapError
            # over the order cap enumeration raises at once, before any principal ideal
            of = self.principal_of(kind) if self.n <= DEFAULT_LATTICE_ORDER_CAP else None
            got = self._lattices[kind] = enumerate_ideals(
                self.ring, kind, max_ideals=max_ideals, principal=of).masks()
        return got

    def principal_of(self, kind: str = TWO_SIDED) -> tuple[int, ...]:
        """Mask of the principal ideal (a) for every element a."""
        if kind not in self._principal_of:
            self._principal_of[kind] = principal_of(self.ring, kind)
        return self._principal_of[kind]

    def principal_masks(self, kind: str = TWO_SIDED) -> tuple[int, ...]:
        if kind not in self._principal:
            seen = set(self.principal_of(kind))
            self._principal[kind] = tuple(sorted(seen, key=lambda m: (m.bit_count(), m)))
        return self._principal[kind]

    def generators(self, m: int) -> tuple[int, ...]:
        got = self._generators.get(m)
        if got is None:
            got = additive_generators(self.ring, m)
            self._generators[m] = got
        return got

    def product(self, jm: int, km: int) -> int:
        key = (jm, km)
        got = self._products.get(key)
        if got is None:
            got = generator_product(self.ring, self.generators(jm), self.generators(km))
            self._products[key] = got
        return got

    def chain(self, m: int) -> tuple[int, ...]:
        """Masks of I, I^2, ... up to the first that equals the next.

        The chain descends, so it stops within |I| steps at its stable value.
        """
        got = self._chains.get(m)
        if got is None:
            powers = [m]
            while (nxt := self.product(powers[-1], m)) != powers[-1]:
                powers.append(nxt)
            got = tuple(powers)
            self._chains[m] = got
        return got

    def power_in(self, jm: int, target: int) -> bool:
        """Whether some power of the ideal mask lands inside target."""
        return not self.chain(jm)[-1] & ~target

    def quotient(self, m: int) -> tuple[RingContext, Hom]:
        """Context of A/I for a two-sided ideal mask, plus the projection A -> A/I."""
        got = self._quotients.get(m)
        if got is None:
            quot, hom = make_quotient(self.ring, Ideal(self.ring, m, TWO_SIDED))
            got = self._quotients.setdefault(m, (RingContext(quot), hom))
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
    return [a for a in range(ctx.n) if not ctx.powmask(a) & m]


def _outside_ideals(domain: tuple[int, ...], m: int) -> list[int]:
    return [jm for jm in domain if jm & ~m]


def _powerless_ideals(ctx: RingContext, domain: tuple[int, ...], m: int) -> list[int]:
    return [jm for jm in domain if not ctx.power_in(jm, m)]


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
    ctx: RingContext, m: int, js: list[int], ks: list[int], nonzero: bool = False
) -> Optional[tuple[int, int]]:
    """First (J, K) in lattice order from js x ks with JK inside I.

    With nonzero set, pairs with JK = 0 are skipped.
    """
    for jm in js:
        for km in ks:
            prod = ctx.product(jm, km)
            if not prod & ~m and not (nonzero and prod == 1):
                return jm, km
    return None


def _refuted(pair: Optional[tuple[int, int]], witness: Callable[[int, int], Witness]) -> Verdict:
    return _TRUE if pair is None else Verdict(False, witness(*pair))


def _wit_ideals(jm: int, km: int) -> Witness:
    return Witness.ideals(mask_elements(jm), mask_elements(km))


def _completely_prime(ctx: RingContext, m: int) -> Verdict:
    """ab in I implies a in I or b in I; requires a proper ideal."""
    if m == ctx.full_mask:
        return Verdict(False, Witness.none())
    out = _outside_elements(ctx, m)
    return _refuted(_element_pair(ctx, m, out, out), Witness.pair)


def _completely_semiprime(ctx: RingContext, m: int) -> Verdict:
    """a^n in I for some n implies a in I."""
    for a in _outside_elements(ctx, m):
        if ctx.powmask(a) & m:
            n = element_power_in(ctx.ring, a, Ideal(ctx.ring, m))
            return Verdict(False, Witness.element(a, n=n))
    return _TRUE


def _completely_nilary(ctx: RingContext, m: int) -> Verdict:
    """ab in I implies some power of a or of b lies in I."""
    free = _powerless_elements(ctx, m)
    return _refuted(_element_pair(ctx, m, free, free), Witness.pair)


def _completely_right_primary(ctx: RingContext, m: int) -> Verdict:
    """ab in I implies a in I or some power of b lies in I."""
    pair = _element_pair(ctx, m, _outside_elements(ctx, m), _powerless_elements(ctx, m))
    return _refuted(pair, Witness.pair)


def _completely_left_primary(ctx: RingContext, m: int) -> Verdict:
    """ab in I implies b in I or some power of a lies in I."""
    pair = _element_pair(ctx, m, _powerless_elements(ctx, m), _outside_elements(ctx, m))
    return _refuted(pair, Witness.pair)


def _prime(ctx: RingContext, m: int) -> Verdict:
    """JK inside I implies J inside I or K inside I; requires proper I."""
    if m == ctx.full_mask:
        return Verdict(False, Witness.none())
    out = _outside_ideals(ctx.lattice_masks(TWO_SIDED), m)
    return _refuted(_ideal_pair(ctx, m, out, out), _wit_ideals)


def _semiprime(ctx: RingContext, m: int) -> Verdict:
    """J^2 inside I implies J inside I."""
    for jm in ctx.lattice_masks(TWO_SIDED):
        if jm & ~m and not ctx.product(jm, jm) & ~m:
            return Verdict(False, _wit_ideals(jm, jm))
    return _TRUE


def _nilary_over(
    ctx: RingContext, m: int, domain: tuple[int, ...], nonzero: bool = False
) -> Verdict:
    free = _powerless_ideals(ctx, domain, m)
    return _refuted(_ideal_pair(ctx, m, free, free, nonzero), _wit_ideals)


def _nilary(ctx: RingContext, m: int) -> Verdict:
    """JK inside I implies some power of J or of K is inside I."""
    return _nilary_over(ctx, m, ctx.lattice_masks(TWO_SIDED))


def _p_nilary(ctx: RingContext, m: int) -> Verdict:
    """Nilary condition quantified over principal two-sided ideals."""
    return _nilary_over(ctx, m, ctx.principal_masks(TWO_SIDED))


def _primary_over(ctx: RingContext, m: int, domain: tuple[int, ...], right: bool) -> Verdict:
    out, free = _outside_ideals(domain, m), _powerless_ideals(ctx, domain, m)
    pair = _ideal_pair(ctx, m, out, free) if right else _ideal_pair(ctx, m, free, out)
    return _refuted(pair, _wit_ideals)


def _right_primary(ctx: RingContext, m: int) -> Verdict:
    """JK inside I implies J inside I or some power of K inside I."""
    return _primary_over(ctx, m, ctx.lattice_masks(TWO_SIDED), right=True)


def _left_primary(ctx: RingContext, m: int) -> Verdict:
    """JK inside I implies K inside I or some power of J inside I."""
    return _primary_over(ctx, m, ctx.lattice_masks(TWO_SIDED), right=False)


def _p_right_primary(ctx: RingContext, m: int) -> Verdict:
    return _primary_over(ctx, m, ctx.principal_masks(TWO_SIDED), right=True)


def _p_left_primary(ctx: RingContext, m: int) -> Verdict:
    return _primary_over(ctx, m, ctx.principal_masks(TWO_SIDED), right=False)


def _weakly_over(ctx: RingContext, m: int, domain: tuple[int, ...]) -> Verdict:
    if m == ctx.full_mask:
        return _NA
    return _nilary_over(ctx, m, domain, nonzero=True)


def _weakly_nilary(ctx: RingContext, m: int) -> Verdict:
    """0 != JK inside proper I implies some power of J or of K inside I."""
    return _weakly_over(ctx, m, ctx.lattice_masks(TWO_SIDED))


def _weakly_p_nilary(ctx: RingContext, m: int) -> Verdict:
    return _weakly_over(ctx, m, ctx.principal_masks(TWO_SIDED))


def _weakly_onesided(ctx: RingContext, m: int, side: str, principal: bool) -> Verdict:
    if not ctx.unital:
        return _NA
    domain = ctx.principal_masks(side) if principal else ctx.lattice_masks(side)
    return _weakly_over(ctx, m, domain)


def _weakly_nilary_right(ctx: RingContext, m: int) -> Verdict:
    """Weakly nilary condition quantified over right ideals (unital rings)."""
    return _weakly_onesided(ctx, m, RIGHT, principal=False)


def _weakly_nilary_left(ctx: RingContext, m: int) -> Verdict:
    return _weakly_onesided(ctx, m, LEFT, principal=False)


REGISTRY: dict[str, Callable[[RingContext, int], Verdict]] = {
    "completely_prime": _completely_prime,
    "completely_semiprime": _completely_semiprime,
    "completely_nilary": _completely_nilary,
    "prime": _prime,
    "semiprime": _semiprime,
    "nilary": _nilary,
    "p_nilary": _p_nilary,
    "right_primary": _right_primary,
    "left_primary": _left_primary,
    "p_right_primary": _p_right_primary,
    "p_left_primary": _p_left_primary,
    "completely_right_primary": _completely_right_primary,
    "completely_left_primary": _completely_left_primary,
    "weakly_nilary": _weakly_nilary,
    "weakly_p_nilary": _weakly_p_nilary,
    "weakly_nilary_right": _weakly_nilary_right,
    "weakly_nilary_left": _weakly_nilary_left,
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
    return _weakly_onesided(ctx, l.mask, side, principal)


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
        nil=all(ctx.powmask(a) & 1 for a in range(ctx.n)),
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
