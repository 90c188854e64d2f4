"""Independent brute-force oracles used to pin expected values in tests."""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Sequence

import numpy as np

from nilary import LEFT, RIGHT, TWO_SIDED, Ring, ValidationReport, element_is_nilpotent
from nilary.ideals import (
    additive_closure_mask,
    enumerate_ideals,
    ideal_generated_by,
    mask_elements,
)
from nilary.rings import MAX_VIOLATIONS


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


def is_nil_ring(r: Ring) -> bool:
    """True iff every element is nilpotent."""
    return all(element_is_nilpotent(r, a) is not None for a in r.elements)


def is_ideal_mask(r: Ring, mask: int, kind: str = TWO_SIDED) -> bool:
    """Direct check of the ideal axioms for a subset mask."""
    if not mask >> 0 & 1:
        return False
    elems = mask_elements(mask)
    for x in elems:
        row = r.add[x]
        if not mask >> row.index(0) & 1 or any(not mask >> row[y] & 1 for y in elems):
            return False
        if kind != RIGHT and any(not mask >> r.mul[z][x] & 1 for z in r.elements):
            return False
        if kind != LEFT and any(not mask >> r.mul[x][z] & 1 for z in r.elements):
            return False
    return True


def hom_violations(src: Ring, tgt: Ring, f: Sequence[int]) -> list[str]:
    """Additivity, multiplicativity and surjectivity defects of the map f: src -> tgt, as descriptions."""
    out = []
    for a, b in itertools.product(src.elements, repeat=2):
        if f[src.add[a][b]] != tgt.add[f[a]][f[b]]:
            out.append(f"additivity fails at ({a},{b})")
        if f[src.mul[a][b]] != tgt.mul[f[a]][f[b]]:
            out.append(f"multiplicativity fails at ({a},{b})")
    if len(set(f)) != tgt.order:
        out.append("image is not the whole target")
    return out


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
    elements already absorbed, so each pair is covered exactly once; -x is
    the d with x + d = 0, read off x's row of the addition table. The
    additive zero is always included. O(|I| * order) per closure.
    """
    add, mul = r.add, r.mul
    queue = list(mask_elements(mask | 1))
    inside = bytearray(r.order)
    for x in queue:
        inside[x] = 1
    members: list[int] = []
    while queue:
        x = queue.pop()
        members.append(x)
        row = add[x]
        reached = [row[y] for y in members]
        reached.append(row.index(0))
        if left:
            reached += [m[x] for m in mul]
        if right:
            reached += mul[x]
        for p in reached:
            if not inside[p]:
                inside[p] = 1
                queue.append(p)
    return sum(1 << x for x in itertools.compress(range(r.order), inside))


def enumerate_by_pairwise_joins(r: Ring, kind: str = TWO_SIDED) -> tuple[int, ...]:
    """Ideal masks in (size, mask) order: the principal ideals closed under pairwise join.

    Every new ideal is joined with every known one by re-spanning the union
    of the two masks; comparable pairs are skipped, their join is the larger.
    """
    masks = {ideal_generated_by(r, (a,), kind).mask for a in range(r.order)}
    queue = list(masks)
    while queue:
        m = queue.pop()
        for m2 in list(masks):
            if not m & ~m2 or not m2 & ~m:
                continue
            j = additive_closure_mask(r, m | m2)
            if j not in masks:
                masks.add(j)
                queue.append(j)
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def product_by_elements(r: Ring, jm: int, km: int) -> int:
    """Additive closure of all pairwise products of the two subsets."""
    prod = 0
    for x in mask_elements(jm):
        row = r.mul[x]
        for y in mask_elements(km):
            prod |= 1 << row[y]
    return close_by_worklist(r, prod, left=False, right=False)


def ring_by_elements(order: int, add, mul, one: Optional[int], label: str) -> Ring:
    """A Ring straight from element-wise tables."""
    return Ring(order, tuple(map(tuple, add)), tuple(map(tuple, mul)), one, label)


# Element-wise constructors with the signatures of those in nilary.rings; the
# size cap is the real constructors' business and is ignored here.


def zn_by_elements(n: int, size_cap: int = 0) -> Ring:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return ring_by_elements(n, add, mul, 1 % n, f"Zn:{n}")


def zero_mul_by_elements(n: int, size_cap: int = 0) -> Ring:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    return ring_by_elements(n, add, [[0] * n for _ in range(n)], 0 if n == 1 else None, f"zmul:{n}")


def direct_sum_by_elements(r: Ring, s: Ring, size_cap: int = 0) -> Ring:
    order, ro = r.order * s.order, r.order
    add, mul = [], []
    for i in range(order):
        a1, b1 = i % ro, i // ro
        add.append([r.add[a1][j % ro] + ro * s.add[b1][j // ro] for j in range(order)])
        mul.append([r.mul[a1][j % ro] + ro * s.mul[b1][j // ro] for j in range(order)])
    one = None if r.one is None or s.one is None else r.one + ro * s.one
    return ring_by_elements(order, add, mul, one, f"dsum({r.label},{s.label})")


def matrix_tables_by_elements(base: Ring, k: int, positions: list[tuple[int, int]], order: int):
    """Sum and product of every pair of matrices, entry by entry."""
    q = base.order
    badd, bmul = base.add, base.mul

    def decode(idx: int):
        m = [[0] * k for _ in range(k)]
        for (i, j) in positions:
            m[i][j] = idx % q
            idx //= q
        return m

    def encode(m) -> int:
        idx = 0
        for (i, j) in reversed(positions):
            idx = idx * q + m[i][j]
        return idx

    mats = [decode(i) for i in range(order)]
    add, mul = [], []
    for a in mats:
        add.append([encode([[badd[a[i][j]][b[i][j]] for j in range(k)] for i in range(k)]) for b in mats])
        mrow = []
        for b in mats:
            p = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(k):
                    acc = 0
                    for l in range(k):
                        acc = badd[acc][bmul[a[i][l]][b[l][j]]]
                    if acc and (i, j) not in positions:
                        raise ValueError("product left the supported positions")
                    p[i][j] = acc
            mrow.append(encode(p))
        mul.append(mrow)
    ident = [[base.one if i == j else 0 for j in range(k)] for i in range(k)]
    return add, mul, encode(ident)


def matrix_ring_by_elements(base: Ring, k: int, size_cap: int = 0) -> Ring:
    positions = [(i, j) for i in range(k) for j in range(k)]
    order = base.order ** len(positions)
    add, mul, one = matrix_tables_by_elements(base, k, positions, order)
    return ring_by_elements(order, add, mul, one, f"M:{k}:{base.label}")


def upper_triangular_by_elements(base: Ring, k: int, size_cap: int = 0) -> Ring:
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    order = base.order ** len(positions)
    add, mul, one = matrix_tables_by_elements(base, k, positions, order)
    return ring_by_elements(order, add, mul, one, f"T:{k}:{base.label}")


def p1_3_by_tuples(run, ctx) -> None:
    """The P1.3 case body as a walk over every ordered tuple of one to three ideals, one at a time.

    Hypothesis: some Q_k has a power inside the intersection of all Q_i
    (searched constructively over k and the power chain of Q_k). Each
    hypothesis tuple multiplies left to right through the index rows, or
    through ctx.product when a faulty product leaves the lattice.
    """
    idx = ctx.index(TWO_SIDED)
    masks = idx.masks
    cnil = [j for j, m in enumerate(masks) if ctx.verdict("completely_nilary", m).holds]
    elements = {q: mask_elements(masks[q]) for q in cnil}
    last = idx.stable_powers(ctx)
    for n in (1, 2, 3):
        for tup in itertools.product(cnil, repeat=n):
            inter = ctx.full_mask
            for q in tup:
                inter &= masks[q]
            if not run.instance(any(not last[q] & ~inter for q in tup)):
                continue
            prod = masks[tup[0]]
            for q in tup[1:]:
                j = idx.pos.get(prod)  # None only if a faulty product left the lattice
                prod = ctx.product(prod, masks[q]) if j is None else idx.row(ctx, j)[q]
            v = ctx.verdict("completely_nilary", prod)
            if not v.holds:
                run.violate(
                    f"product of completely nilary ideals {[elements[q] for q in tup]} "
                    "is not completely nilary",
                    prod,
                    [("completely_nilary", v)],
                )


class PredicateScan:
    """Every predicate by its definition, scanning every pair of its domain in order.

    No pair is filtered out up front: each pair (a, b) or (J, K) is tested
    against the full condition, in index or lattice order, and the first
    failing pair is the witness. Products are element-wise and powers are
    iterated up to the ring's order. Verdicts come back in the
    ``Verdict.to_json`` shape.
    """

    def __init__(self, r: Ring):
        self.r = r
        self._products: dict[tuple[int, int], int] = {}
        self._domains: dict[tuple[str, bool], list[int]] = {}

    def product(self, jm: int, km: int) -> int:
        key = (jm, km)
        if key not in self._products:
            self._products[key] = product_by_elements(self.r, jm, km)
        return self._products[key]

    def element_power_in(self, a: int, m: int) -> bool:
        p = a
        for _ in range(self.r.order):  # every distinct power shows up within order steps
            if m >> p & 1:
                return True
            p = self.r.mul[p][a]
        return False

    def ideal_power_in(self, jm: int, m: int) -> bool:
        p = jm
        for _ in range(self.r.order):  # J, J^2, ... descends strictly until it is stable
            if not p & ~m:
                return True
            p = self.product(p, jm)
        return False

    def domain(self, kind: str, principal: bool) -> list[int]:
        key = (kind, principal)
        if key not in self._domains:
            if principal:
                left, right = kind != RIGHT, kind != LEFT
                masks = {close_by_worklist(self.r, 1 << a, left, right) for a in range(self.r.order)}
            else:
                masks = set(enumerate_ideals(self.r, kind).masks())
            self._domains[key] = sorted(masks, key=lambda x: (x.bit_count(), x))
        return self._domains[key]

    def verdict(self, name: str, m: int) -> dict:
        r = self.r
        none = {"variant": "none"}

        def inside(a: int) -> bool:
            return bool(m >> a & 1)

        @functools.cache  # one power scan per element, not one per pair
        def power(a: int) -> bool:
            return self.element_power_in(a, m)

        def sub(jm: int) -> bool:
            return not jm & ~m

        def ideal_power(jm: int) -> bool:
            return self.ideal_power_in(jm, m)

        def refuted(witness: dict) -> dict:
            return {"holds": False, "witness": witness, "na": False}

        holds = {"holds": True, "witness": none, "na": False}
        if name in ("completely_prime", "prime") and m == (1 << r.order) - 1:
            return refuted(none)
        if name.startswith("weakly_") and (
            m == (1 << r.order) - 1
            or (name.endswith(("_right", "_left")) and r.one is None)
        ):
            return {"holds": False, "witness": none, "na": True}

        if name == "completely_semiprime":
            for a in range(r.order):
                p = a
                for n in range(1, r.order + 1):
                    if not inside(a) and inside(p):
                        return refuted({"variant": "element", "a": a, "n": n})
                    p = r.mul[p][a]
            return holds

        element_excuses = {
            "completely_prime": lambda a, b: inside(a) or inside(b),
            "completely_nilary": lambda a, b: power(a) or power(b),
            "completely_right_primary": lambda a, b: inside(a) or power(b),
            "completely_left_primary": lambda a, b: inside(b) or power(a),
        }
        if name in element_excuses:
            excuse = element_excuses[name]
            for a in range(r.order):
                for b in range(r.order):
                    if inside(r.mul[a][b]) and not excuse(a, b):
                        return refuted({"variant": "element-pair", "a": a, "b": b})
            return holds

        def no_power(j: int, k: int) -> bool:
            return ideal_power(j) or ideal_power(k)

        def right_primary(j: int, k: int) -> bool:
            return sub(j) or ideal_power(k)

        def left_primary(j: int, k: int) -> bool:
            return sub(k) or ideal_power(j)

        ideal_rules = {  # name: (excuse, kind of the domain, principal ideals only)
            "prime": (lambda j, k: sub(j) or sub(k), TWO_SIDED, False),
            "semiprime": (lambda j, k: j != k or sub(j), TWO_SIDED, False),
            "nilary": (no_power, TWO_SIDED, False),
            "p_nilary": (no_power, TWO_SIDED, True),
            "right_primary": (right_primary, TWO_SIDED, False),
            "left_primary": (left_primary, TWO_SIDED, False),
            "p_right_primary": (right_primary, TWO_SIDED, True),
            "p_left_primary": (left_primary, TWO_SIDED, True),
            "weakly_nilary": (no_power, TWO_SIDED, False),
            "weakly_p_nilary": (no_power, TWO_SIDED, True),
            "weakly_nilary_right": (no_power, RIGHT, False),
            "weakly_nilary_left": (no_power, LEFT, False),
            # the principal one-sided forms, registered but not report columns
            "weakly_p_nilary_right": (no_power, RIGHT, True),
            "weakly_p_nilary_left": (no_power, LEFT, True),
        }
        excuse, kind, principal = ideal_rules[name]
        domain = self.domain(kind, principal)
        for jm in domain:
            for km in domain:
                prod = self.product(jm, km)
                if name.startswith("weakly_") and prod == 1:
                    continue
                if sub(prod) and not excuse(jm, km):
                    j, k = list(mask_elements(jm)), list(mask_elements(km))
                    return refuted({"variant": "ideal-pair", "j": j, "k": k})
        return holds


def validate_by_full_scan(r: Ring) -> ValidationReport:
    """Every ring axiom checked over all pairs and all n³ triples, with witnesses.

    The triple-quantified axioms are composed as whole-table gathers,
    chunked along the first axis so no temporary exceeds 2²² entries.
    Witness slots: (a, b) for additive commutativity, (a, b, c) for
    (a·b)·c = a·(b·c), a(b+c) = ab+ac and (a+b)c = ac+bc, and the same
    ``MAX_VIOLATIONS`` cut as :func:`nilary.validate_ring`. A malformed
    table or unity index is reported with no witness and ends the report.
    """
    n = r.order
    out: list[tuple[str, tuple[int, ...]]] = []
    truncated = False

    def extend(axiom: str, witnesses) -> None:
        nonlocal truncated
        for w in witnesses:
            if len(out) >= MAX_VIOLATIONS:
                truncated = True
                return
            out.append((axiom, tuple(int(x) for x in w)))

    def table(rows) -> Optional[np.ndarray]:
        if len(rows) != n or any(len(row) != n for row in rows):
            return None
        t = np.array(rows, dtype=np.int64)
        return None if (t < 0).any() or (t >= n).any() else t

    add, mul = table(r.add), table(r.mul)
    out += [(f"{name}-table-malformed", ()) for name, t in (("add", add), ("mul", mul)) if t is None]
    if r.one is not None and not (type(r.one) is int and 0 <= r.one < n):
        out.append(("unity-malformed", ()))
    if out:
        return ValidationReport(r.label, tuple(out), truncated)

    rng = np.arange(n)
    extend("add-zero-identity", [(a,) for a in np.nonzero((add[0] != rng) | (add[:, 0] != rng))[0]])
    extend("add-commutativity", np.argwhere(add != add.T))
    extend("add-negative-missing", [(a,) for a in np.nonzero(~(add == 0).any(axis=1))[0]])

    chunk = max(1, (1 << 22) // (n * n))
    for axiom, lhs_of, rhs_of in (
        # lhs/rhs produce (chunk, n, n) arrays indexed [a - a0, b, c]
        ("add-associativity", lambda c: add[add[c]], lambda c: add[c][:, add]),
        ("mul-associativity", lambda c: mul[mul[c]], lambda c: mul[c][:, mul]),
        (
            "distributivity-left",
            lambda c: mul[c][:, add],
            lambda c: add[mul[c][:, :, None], mul[c][:, None, :]],
        ),
        (
            "distributivity-right",
            lambda c: mul[add[c]],
            lambda c: add[mul[c][:, None, :], mul[None, :, :]],
        ),
    ):
        for a0 in range(0, n, chunk):
            if len(out) >= MAX_VIOLATIONS:
                truncated = True
                break
            c = slice(a0, min(n, a0 + chunk))
            mism = lhs_of(c) != rhs_of(c)
            if mism.any():
                extend(axiom, ((a + a0, b, cc) for a, b, cc in np.argwhere(mism)))

    if r.one is not None:
        e = r.one
        extend("unity", [(a,) for a in np.nonzero((mul[e] != rng) | (mul[:, e] != rng))[0]])

    return ValidationReport(r.label, tuple(out), truncated)
