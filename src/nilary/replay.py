"""Witness replay against the bare predicate definitions.

Given a ring, an ideal (as an element set), a predicate name, a verdict
and its witness, decide whether the witness really certifies the verdict.
The arithmetic needed here (element powers, additive closures, set
products, ideal-axiom checks) is re-implemented from the raw Cayley
tables on purpose: replaying through the ideal engine or the classifier
would only echo the code being checked.
"""

from __future__ import annotations

from typing import Iterable

from .classify import Witness
from .rings import Ring

_ELEMENT_PREDICATES = {
    "completely_prime": "element-pair",
    "completely_semiprime": "element",
    "completely_nilary": "element-pair",
    "completely_right_primary": "element-pair",
    "completely_left_primary": "element-pair",
}
_IDEAL_PREDICATES = (
    "prime",
    "semiprime",
    "nilary",
    "p_nilary",
    "right_primary",
    "left_primary",
    "p_right_primary",
    "p_left_primary",
    "weakly_nilary",
    "weakly_p_nilary",
    "weakly_nilary_right",
    "weakly_nilary_left",
    "weakly_p_nilary_right",
    "weakly_p_nilary_left",
)


def _powers(r: Ring, a: int) -> list[int]:
    seen: set[int] = set()
    out = []
    p = a
    while p not in seen:
        seen.add(p)
        out.append(p)
        p = r.mul[p][a]
    return out


def _add_close(r: Ring, seed: Iterable[int]) -> frozenset[int]:
    members = set(seed) | {0}
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            s = r.add[x][y]
            if s not in members:
                members.add(s)
                frontier.append(s)
    return frozenset(members)


def _set_product(r: Ring, left: frozenset[int], right: frozenset[int]) -> frozenset[int]:
    return _add_close(r, {r.mul[x][y] for x in left for y in right})


def _power_sets(r: Ring, s: frozenset[int]) -> list[frozenset[int]]:
    """J, J^2, ... until the set repeats."""
    chain = [s]
    while True:
        nxt = _set_product(r, chain[-1], s)
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def _no_power_inside(r: Ring, s: frozenset[int], target: frozenset[int]) -> bool:
    return all(not p <= target for p in _power_sets(r, s))


def _is_ideal_set(r: Ring, s: frozenset[int], side: str) -> bool:
    if 0 not in s:
        return False
    for x in s:
        if r.add[x].index(0) not in s:
            return False
        if any(r.add[x][y] not in s for y in s):
            return False
        if side in ("two-sided", "left") and any(r.mul[z][x] not in s for z in r.elements):
            return False
        if side in ("two-sided", "right") and any(r.mul[x][z] not in s for z in r.elements):
            return False
    return True


def _is_principal(r: Ring, s: frozenset[int], side: str) -> bool:
    """Whether the set is generated by a single element, by direct search."""
    for g in s:
        gen = {g, 0}
        grew = True
        while grew:
            grew = False
            for x in list(gen):
                new = {r.add[x][y] for y in gen} | {r.add[x].index(0)}
                if side in ("two-sided", "left"):
                    new |= {r.mul[z][x] for z in r.elements}
                if side in ("two-sided", "right"):
                    new |= {r.mul[x][z] for z in r.elements}
                if not new <= gen:
                    gen |= new
                    grew = True
        if frozenset(gen) == s:
            return True
    return False


def replay_verdict(
    r: Ring,
    ideal_elements: Iterable[int],
    predicate: str,
    holds: bool,
    witness: Witness,
    na: bool = False,
) -> bool:
    """True iff the witness is consistent with the claimed verdict.

    True verdicts carry no witness and replay vacuously; not-applicable
    verdicts are checked against their gating condition (improper ideal,
    or missing unity for the one-sided forms). False verdicts must carry
    a counter-instance that satisfies the predicate's hypothesis and
    falsifies its conclusion, with least exponents where claimed.
    """
    if predicate not in _ELEMENT_PREDICATES and predicate not in _IDEAL_PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    ideal = frozenset(ideal_elements) | {0}
    everything = frozenset(r.elements)
    improper = ideal == everything
    # J and K range over the (principal) ideals of this side
    side = predicate.rsplit("_", 1)[1] if predicate.endswith(("_right", "_left")) else "two-sided"

    if na:
        if side != "two-sided" and r.one is None:
            return True
        return predicate.startswith("weakly") and improper
    if holds:
        return witness.variant == "none"

    if predicate in ("completely_prime", "prime") and witness.variant == "none":
        return improper

    if predicate in _ELEMENT_PREDICATES and witness.variant != _ELEMENT_PREDICATES[predicate]:
        return False

    if predicate == "completely_prime":
        a, b = witness.a, witness.b
        return r.mul[a][b] in ideal and a not in ideal and b not in ideal

    if predicate == "completely_semiprime":
        a, n = witness.a, witness.n
        if a in ideal or n is None or n < 1:
            return False
        pows = _powers(r, a)
        hits = [e for e, p in enumerate(pows, start=1) if p in ideal]
        return bool(hits) and hits[0] == n

    if predicate == "completely_nilary":
        a, b = witness.a, witness.b
        return (
            r.mul[a][b] in ideal
            and all(p not in ideal for p in _powers(r, a))
            and all(p not in ideal for p in _powers(r, b))
        )

    if predicate == "completely_right_primary":
        a, b = witness.a, witness.b
        return (
            r.mul[a][b] in ideal
            and a not in ideal
            and all(p not in ideal for p in _powers(r, b))
        )

    if predicate == "completely_left_primary":
        a, b = witness.a, witness.b
        return (
            r.mul[a][b] in ideal
            and b not in ideal
            and all(p not in ideal for p in _powers(r, a))
        )

    if witness.variant != "ideal-pair":
        return False
    j = frozenset(witness.j)
    k = frozenset(witness.k)

    if side != "two-sided" and r.one is None:
        return False
    if not (_is_ideal_set(r, j, side) and _is_ideal_set(r, k, side)):
        return False
    if predicate.startswith(("p_", "weakly_p_")):
        if not (_is_principal(r, j, side) and _is_principal(r, k, side)):
            return False
    prod = _set_product(r, j, k)

    if predicate == "prime":
        return prod <= ideal and not j <= ideal and not k <= ideal
    if predicate == "semiprime":
        return j == k and prod <= ideal and not j <= ideal
    if predicate in ("nilary", "p_nilary"):
        return prod <= ideal and _no_power_inside(r, j, ideal) and _no_power_inside(r, k, ideal)
    if predicate in ("right_primary", "p_right_primary"):
        return prod <= ideal and not j <= ideal and _no_power_inside(r, k, ideal)
    if predicate in ("left_primary", "p_left_primary"):
        return prod <= ideal and not k <= ideal and _no_power_inside(r, j, ideal)
    if predicate.startswith("weakly"):
        return (
            not improper
            and prod != frozenset({0})
            and prod <= ideal
            and _no_power_inside(r, j, ideal)
            and _no_power_inside(r, k, ideal)
        )

    raise ValueError(f"unknown predicate {predicate!r}")


def replay_report(r: Ring, report) -> dict[str, bool]:
    """Replay every verdict of a PropertyReport; maps predicate -> consistent."""
    return {
        name: replay_verdict(r, report.ideal_elements, name, v.holds, v.witness, v.na)
        for name, v in report.verdicts.items()
    }


__all__ = ["replay_report", "replay_verdict"]
