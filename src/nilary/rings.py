"""Finite rings as explicit Cayley tables.

A ring is a finite set {0, ..., order-1} together with full addition and
multiplication tables over element indices. Index 0 is reserved for the
additive zero; constructors and the file loader enforce this. Rings need
not be commutative and need not contain a unity; when a unity exists its
index is recorded in ``one`` (the order-1 ring has ``one = 0``).

Every constructor returns an immutable :class:`Ring` whose negation table
is derived once from the addition table, so later subset closures can
negate in O(1). The bitmasks of the one-element products Ax and xA are
derived on first use and cached on the ring; computing them twice is
harmless, so rings can still be shared freely across threads. All
functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

DEFAULT_SIZE_CAP = 4096

Table = tuple[tuple[int, ...], ...]


class SizeCapError(ValueError):
    """A construction or enumeration would exceed its configured size cap."""


@dataclass(frozen=True, repr=False)
class Ring:
    """Finite ring given by addition/multiplication tables over 0..order-1."""

    order: int
    add: Table
    mul: Table
    one: Optional[int]
    label: str
    neg: tuple[int, ...]

    def __repr__(self) -> str:
        return f"Ring({self.label!r}, order={self.order})"

    @property
    def elements(self) -> range:
        return range(self.order)

    @property
    def is_unital(self) -> bool:
        return self.one is not None

    @cached_property
    def product_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Bitmasks of Ax and of xA for every element x.

        ``product_masks[0][x]`` has bit ``a*x`` set for every a, and
        ``product_masks[1][x]`` has bit ``x*a`` set for every a. Built on
        first use by one scatter into a boolean array; not a field, so
        equality, hashing and repr ignore it.
        """
        n = self.order
        mul = np.array(self.mul, dtype=np.intp)
        idx = np.arange(n)
        bits = np.zeros((2, n, n), dtype=bool)
        bits[0, idx[None, :], mul] = True
        bits[1, idx[:, None], mul] = True
        packed = np.packbits(bits, axis=2, bitorder="little")
        return tuple(tuple(int.from_bytes(row.tobytes(), "little") for row in side) for side in packed)

    @classmethod
    def from_tables(
        cls,
        order: int,
        add: Sequence[Sequence[int]],
        mul: Sequence[Sequence[int]],
        one: Optional[int] = None,
        label: str = "ring",
    ) -> "Ring":
        """Build a Ring from raw tables, checking shape, range and zero row.

        Structural defects (wrong shape, out-of-range entry, element 0 not
        the additive zero, missing additive inverse) raise ValueError.
        Axiom-level defects are the business of :func:`validate_ring`.
        """
        if order < 1:
            raise ValueError(f"ring order must be >= 1, got {order}")
        add_t = _normalize_table(order, add, "addition")
        mul_t = _normalize_table(order, mul, "multiplication")
        for a in range(order):
            if add_t[0][a] != a or add_t[a][0] != a:
                raise ValueError("element 0 must be the additive zero")
        neg = []
        for a in range(order):
            row = add_t[a]
            for b in range(order):
                if row[b] == 0:
                    neg.append(b)
                    break
            else:
                raise ValueError(f"element {a} has no additive inverse")
        if one is not None and not 0 <= one < order:
            raise ValueError(f"unity index {one} out of range")
        return cls(order, add_t, mul_t, one, label, tuple(neg))


def _normalize_table(order: int, table: Sequence[Sequence[int]], what: str) -> Table:
    if len(table) != order:
        raise ValueError(f"{what} table has {len(table)} rows, expected {order}")
    rows = []
    for i, row in enumerate(table):
        r = tuple(int(x) for x in row)
        if len(r) != order:
            raise ValueError(f"{what} table row {i} has length {len(r)}, expected {order}")
        for x in r:
            if not 0 <= x < order:
                raise ValueError(f"{what} table entry {x} out of range [0, {order})")
        rows.append(r)
    return tuple(rows)


@dataclass(frozen=True)
class Hom:
    """Ring homomorphism given by an element-index map table."""

    source: Ring
    target: Ring
    map: tuple[int, ...]
    surjective: bool

    def apply(self, a: int) -> int:
        return self.map[a]

    def kernel_elements(self) -> tuple[int, ...]:
        return tuple(a for a in self.source.elements if self.map[a] == 0)


def hom_violations(h: Hom) -> list[str]:
    """Check additivity/multiplicativity of a Hom; returns defect descriptions."""
    out = []
    src, tgt = h.source, h.target
    for a in src.elements:
        for b in src.elements:
            if h.map[src.add[a][b]] != tgt.add[h.map[a]][h.map[b]]:
                out.append(f"additivity fails at ({a},{b})")
            if h.map[src.mul[a][b]] != tgt.mul[h.map[a]][h.map[b]]:
                out.append(f"multiplicativity fails at ({a},{b})")
    if h.surjective and len(set(h.map)) != tgt.order:
        out.append("marked surjective but image is not the whole target")
    return out


# ---------------------------------------------------------------------------
# constructors


def make_zn(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Integers mod n. Unital; n = 1 gives the zero ring with one = 0."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if n > size_cap:
        raise SizeCapError(f"Z_n order {n} exceeds cap {size_cap}")
    add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    mul = tuple(tuple((a * b) % n for b in range(n)) for a in range(n))
    return Ring.from_tables(n, add, mul, one=1 % n, label=f"Zn:{n}")


def make_zero_mul(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Additive group Z_n with every product equal to zero."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > size_cap:
        raise SizeCapError(f"zero-multiplication ring order {n} exceeds cap {size_cap}")
    add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    mul = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    one = 0 if n == 1 else None
    return Ring.from_tables(n, add, mul, one=one, label=f"zmul:{n}")


def make_direct_sum(r: Ring, s: Ring, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Direct sum with componentwise operations.

    Pairs (a, b) are packed as a + r.order * b (left summand varies
    fastest), so element 0 is (0, 0). Unity exists iff both summands
    have one.
    """
    order = r.order * s.order
    if order > size_cap:
        raise SizeCapError(f"direct sum order {order} exceeds cap {size_cap}")
    ro = r.order

    def enc(a: int, b: int) -> int:
        return a + ro * b

    add = []
    mul = []
    for i in range(order):
        a1, b1 = i % ro, i // ro
        arow = []
        mrow = []
        for j in range(order):
            a2, b2 = j % ro, j // ro
            arow.append(enc(r.add[a1][a2], s.add[b1][b2]))
            mrow.append(enc(r.mul[a1][a2], s.mul[b1][b2]))
        add.append(tuple(arow))
        mul.append(tuple(mrow))
    one = None
    if r.one is not None and s.one is not None:
        one = enc(r.one, s.one)
    return Ring.from_tables(
        order, tuple(add), tuple(mul), one=one, label=f"dsum({r.label},{s.label})"
    )


def _matrix_tables(base: Ring, k: int, positions: list[tuple[int, int]], order: int):
    """Cayley tables for matrices supported on the given (row, col) positions.

    Element indices are mixed-radix numerals over base.order with the first
    position as the least significant digit.
    """
    q = base.order
    npos = len(positions)
    pos_index = {p: i for i, p in enumerate(positions)}

    def decode(idx: int):
        m = [[0] * k for _ in range(k)]
        for (i, j) in positions:
            m[i][j] = idx % q
            idx //= q
        return m

    def encode(m) -> int:
        idx = 0
        for p in reversed(positions):
            idx = idx * q + m[p[0]][p[1]]
        return idx

    mats = [decode(i) for i in range(order)]
    add = []
    mul = []
    badd, bmul = base.add, base.mul
    for a in mats:
        arow = []
        mrow = []
        for b in mats:
            s = [[badd[a[i][j]][b[i][j]] for j in range(k)] for i in range(k)]
            arow.append(encode(s))
            p = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(k):
                    acc = 0
                    for l in range(k):
                        acc = badd[acc][bmul[a[i][l]][b[l][j]]]
                    if acc and (i, j) not in pos_index:
                        raise ValueError("product left the supported positions")
                    p[i][j] = acc
            mrow.append(encode(p))
        add.append(tuple(arow))
        mul.append(tuple(mrow))
    ident = [[base.one if i == j else 0 for j in range(k)] for i in range(k)]
    return tuple(add), tuple(mul), encode(ident)


def make_matrix_ring(base: Ring, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Full k x k matrix ring over a unital base ring."""
    if base.one is None:
        raise ValueError("matrix ring requires a unital base ring")
    if k < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {k}")
    order = base.order ** (k * k)
    if order > size_cap:
        raise SizeCapError(f"matrix ring order {order} exceeds cap {size_cap}")
    positions = [(i, j) for i in range(k) for j in range(k)]
    add, mul, one = _matrix_tables(base, k, positions, order)
    return Ring.from_tables(order, add, mul, one=one, label=f"M:{k}:{base.label}")


def make_upper_triangular(base: Ring, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Subring of k x k upper-triangular matrices over a unital base ring."""
    if base.one is None:
        raise ValueError("triangular matrix ring requires a unital base ring")
    if k < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {k}")
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    order = base.order ** len(positions)
    if order > size_cap:
        raise SizeCapError(f"triangular ring order {order} exceeds cap {size_cap}")
    add, mul, one = _matrix_tables(base, k, positions, order)
    return Ring.from_tables(order, add, mul, one=one, label=f"T:{k}:{base.label}")


def matrix_entry_index(base: Ring, k: int, entries: Sequence[Sequence[int]]) -> int:
    """Element index of a given matrix in make_matrix_ring(base, k)."""
    q = base.order
    idx = 0
    for i in reversed(range(k)):
        for j in reversed(range(k)):
            idx = idx * q + entries[i][j]
    return idx


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Axiom check outcome; ``violations`` holds (axiom, witness indices)."""

    label: str
    violations: tuple[tuple[str, tuple[int, ...]], ...]
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_ring(r: Ring, max_violations: int = 25) -> ValidationReport:
    """Check every ring axiom, reporting witnesses for each violation.

    Triple-quantified axioms (associativity, distributivity) are checked
    with vectorized table composition, chunked along the first axis so
    memory stays bounded for large orders. The witness list is capped at
    ``max_violations``; ``truncated`` records whether anything was cut.
    """
    n = r.order
    out: list[tuple[str, tuple[int, ...]]] = []
    truncated = False

    def extend(axiom: str, witnesses) -> None:
        nonlocal truncated
        for w in witnesses:
            if len(out) >= max_violations:
                truncated = True
                return
            out.append((axiom, tuple(int(x) for x in w)))

    add = np.array(r.add, dtype=np.int64)
    mul = np.array(r.mul, dtype=np.int64)
    for name, t in (("add", add), ("mul", mul)):
        if t.shape != (n, n) or (t < 0).any() or (t >= n).any():
            out.append((f"{name}-table-malformed", ()))
    if out:
        return ValidationReport(r.label, tuple(out), truncated)

    rng = np.arange(n)
    extend("add-zero-identity", [(a,) for a in np.nonzero((add[0] != rng) | (add[:, 0] != rng))[0]])
    extend("add-commutativity", np.argwhere(add != add.T))
    extend("add-negative-missing", [(a,) for a in np.nonzero(~(add == 0).any(axis=1))[0]])

    chunk = max(1, (1 << 22) // max(1, n * n))
    for axiom, lhs_of, rhs_of in (
        # lhs/rhs produce (chunk, n, n) arrays indexed [a - a0, b, c]
        ("add-associativity", lambda c: add[add[c]], lambda c: add[c][:, add]),
        ("mul-associativity", lambda c: mul[mul[c]], lambda c: mul[c][:, mul]),
        (
            "distributivity-left",  # a*(b+c) == a*b + a*c
            lambda c: mul[c][:, add],
            lambda c: add[mul[c][:, :, None], mul[c][:, None, :]],
        ),
        (
            "distributivity-right",  # (a+b)*c == a*c + b*c
            lambda c: mul[add[c]],
            lambda c: add[mul[c][:, None, :], mul[None, :, :]],
        ),
    ):
        for a0 in range(0, n, chunk):
            if len(out) >= max_violations:
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


# ---------------------------------------------------------------------------
# element-level facts


def element_powers(r: Ring, a: int) -> tuple[int, ...]:
    """Distinct powers a^1, a^2, ... in order, stopping when they cycle."""
    if not 0 <= a < r.order:
        raise ValueError(f"element {a} out of range")
    seen = set()
    seq = []
    p = a
    while p not in seen:
        seen.add(p)
        seq.append(p)
        p = r.mul[p][a]
    return tuple(seq)


def element_is_nilpotent(r: Ring, a: int) -> Optional[int]:
    """Least n >= 1 with a^n = 0, or None if no power vanishes."""
    for exp, p in enumerate(element_powers(r, a), start=1):
        if p == 0:
            return exp
    return None


def is_commutative(r: Ring) -> bool:
    mul = r.mul
    return all(mul[a][b] == mul[b][a] for a in r.elements for b in r.elements)


def is_nil_ring(r: Ring) -> bool:
    """True iff every element is nilpotent."""
    return all(element_is_nilpotent(r, a) is not None for a in r.elements)


@dataclass(frozen=True)
class Characteristic:
    """Additive order of the unity, with its prime factorization."""

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def is_prime_power(self) -> bool:
        # char 1 (order-1 ring) counts as the degenerate prime power p^0
        return len(self.factors) <= 1


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division; factorize(1) == ()."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def characteristic(r: Ring) -> Characteristic:
    """Additive order of the unity element; requires a unital ring."""
    if r.one is None:
        raise ValueError(f"ring {r.label} has no unity")
    k = 1
    s = r.one
    while s != 0:
        s = r.add[s][r.one]
        k += 1
    return Characteristic(k, factorize(k))


__all__ = [
    "DEFAULT_SIZE_CAP",
    "Characteristic",
    "Hom",
    "Ring",
    "SizeCapError",
    "ValidationReport",
    "characteristic",
    "element_is_nilpotent",
    "element_powers",
    "factorize",
    "hom_violations",
    "is_commutative",
    "is_nil_ring",
    "make_direct_sum",
    "make_matrix_ring",
    "make_upper_triangular",
    "make_zero_mul",
    "make_zn",
    "matrix_entry_index",
    "validate_ring",
]
