"""Independent brute-force oracles used to pin expected values in tests."""

from __future__ import annotations

import itertools
from typing import Optional

from nilary import Ring
from nilary.ideals import mask_elements


def find_isomorphism(r: Ring, s: Ring) -> Optional[tuple[int, ...]]:
    """Search all bijections fixing 0 for a ring isomorphism; desk scale only."""
    if r.order != s.order:
        return None
    n = r.order
    for perm in itertools.permutations(range(1, n)):
        f = (0,) + perm
        if all(
            f[r.add[a][b]] == s.add[f[a]][f[b]] and f[r.mul[a][b]] == s.mul[f[a]][f[b]]
            for a in range(n)
            for b in range(n)
        ):
            return f
    return None


def nilpotency_by_direct_powers(r: Ring, a: int) -> Optional[int]:
    """Least n <= order with a^n = 0, computing each power by a fresh fold."""
    for n in range(1, r.order + 1):
        p = a
        for _ in range(n - 1):
            p = r.mul[p][a]
        if p == 0:
            return n
    return None


def close_by_worklist(r: Ring, mask: int, left: bool, right: bool) -> int:
    """Fixed-point closure under addition, negation and side multiplications.

    Worklist closure: every element, when popped, is combined with all
    elements already absorbed, so each pair is covered exactly once. The
    additive zero is always included. O(|I| * order) per closure.
    """
    add, mul, neg, n = r.add, r.mul, r.neg, r.order
    mask |= 1
    queue = list(mask_elements(mask))
    members: list[int] = []
    while queue:
        x = queue.pop()
        members.append(x)
        row = add[x]
        for y in members:
            s = row[y]
            if not mask >> s & 1:
                mask |= 1 << s
                queue.append(s)
        nx = neg[x]
        if not mask >> nx & 1:
            mask |= 1 << nx
            queue.append(nx)
        if left:
            for z in range(n):
                p = mul[z][x]
                if not mask >> p & 1:
                    mask |= 1 << p
                    queue.append(p)
        if right:
            row_m = mul[x]
            for z in range(n):
                p = row_m[z]
                if not mask >> p & 1:
                    mask |= 1 << p
                    queue.append(p)
    return mask


def product_by_elements(r: Ring, jm: int, km: int) -> int:
    """Additive closure of all pairwise products of the two subsets."""
    prod = 0
    for x in mask_elements(jm):
        row = r.mul[x]
        for y in mask_elements(km):
            prod |= 1 << row[y]
    return close_by_worklist(r, prod, left=False, right=False)
