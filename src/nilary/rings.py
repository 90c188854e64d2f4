"""Finite rings as explicit Cayley tables.

A ring is a finite set {0, ..., order-1} together with full addition and
multiplication tables over element indices. Index 0 is reserved for the
additive zero; constructors and the file loader enforce this. Rings need
not be commutative and need not contain a unity; when a unity exists its
index is recorded in ``one`` (the order-1 ring has ``one = 0``).

Constructors build whole tables at once: each element is decoded into
digit arrays, and every entry of all sums and products is one numpy
gather over all pairs, in int16 (up to order 2**15). :meth:`Ring.from_tables`
checks the arrays, derives the negation table once (so closures negate in
O(1)) and stores tuples of Python ints; a Ring keeps no numpy arrays.
The bitmasks of the one-element products Ax and xA, and the hash, are
derived on first use and cached on the ring; computing them twice is
harmless, so rings can still be shared freely across threads. All
functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterable, Optional, Sequence

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

    @cached_property
    def _hash(self) -> int:
        return hash((self.order, self.add, self.mul, self.one, self.label, self.neg))

    def __hash__(self) -> int:
        # the dataclass hash would re-hash both tables on every call
        return self._hash

    @classmethod
    def from_tables(
        cls,
        order: int,
        add: Sequence[Sequence[int]],
        mul: Sequence[Sequence[int]],
        one: Optional[int] = None,
        label: str = "ring",
    ) -> "Ring":
        """Build a Ring from raw tables: nested sequences or 2-D arrays.

        Structural defects (wrong shape, non-integer or out-of-range entry,
        element 0 not the additive zero, missing additive inverse, unity not
        an integer or out of range) raise ValueError; axiom-level ones are
        :func:`validate_ring`'s.
        """
        if order < 1:
            raise ValueError(f"ring order must be >= 1, got {order}")
        add_a = _table_array(order, add, "addition")
        mul_a = _table_array(order, mul, "multiplication")
        idx = np.arange(order)
        if (add_a[0] != idx).any() or (add_a[:, 0] != idx).any():
            raise ValueError("element 0 must be the additive zero")
        zero = add_a == 0
        if not zero.any(axis=1).all():
            raise ValueError(f"element {int(zero.any(axis=1).argmin())} has no additive inverse")
        if one is not None and not isinstance(one, (int, np.integer)):
            raise ValueError(f"unity index {one!r} is not an integer")
        if one is not None and not 0 <= one < order:
            raise ValueError(f"unity index {one} out of range")
        add_t, mul_t = (tuple(tuple(row.tolist()) for row in t) for t in (add_a, mul_a))
        return cls(order, add_t, mul_t, one, label, tuple(zero.argmax(axis=1).tolist()))


def _index_dtype(order: int) -> type:
    """Narrowest signed dtype that holds every element index of the order."""
    return np.int16 if order <= 1 << 15 else np.int32


def _table_array(order: int, table, what: str) -> np.ndarray:
    if len(table) != order:
        raise ValueError(f"{what} table has {len(table)} rows, expected {order}")
    for i, row in enumerate(table):
        if len(row) != order:
            raise ValueError(f"{what} table row {i} has length {len(row)}, expected {order}")
    t = np.asarray(table)  # object dtype if an entry does not fit int64
    if t.dtype.kind not in "iu":
        odd = [x for x in t.ravel().tolist() if not isinstance(x, (int, np.integer))]
        if odd:
            raise ValueError(f"{what} table entries must be integers, got {odd[0]!r}")
    bad = (t < 0) | (t >= order)
    if bad.any():
        x = int(t.flat[bad.argmax()])
        raise ValueError(f"{what} table entry {x} out of range [0, {order})")
    return t.astype(_index_dtype(order), copy=False)


@dataclass(frozen=True)
class Hom:
    """Ring homomorphism given by an element-index map table."""

    source: Ring
    target: Ring
    map: tuple[int, ...]
    surjective: bool

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


def _cyclic(n: int, op: np.ufunc) -> np.ndarray:
    t = op.outer(*[np.arange(n, dtype=np.int32 if n <= 1 << 15 else np.int64)] * 2)
    t %= n  # (n - 1)**2 fits the wide type
    return t.astype(_index_dtype(n))


def _digits(order: int, radices: Sequence[int]) -> list[np.ndarray]:
    """Mixed-radix digits of every index below order, least significant first."""
    idx = np.arange(order, dtype=_index_dtype(order))
    return [idx // prod(radices[:e]) % radix for e, radix in enumerate(radices)]


def _numeral(digit_tables: Iterable[np.ndarray], radices: Sequence[int]) -> np.ndarray:
    """The inverse of _digits, entrywise over tables of digits."""
    return sum(t * prod(radices[:e]) for e, t in enumerate(digit_tables))


def make_zn(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Integers mod n. Unital; n = 1 gives the zero ring with one = 0."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if n > size_cap:
        raise SizeCapError(f"Z_n order {n} exceeds cap {size_cap}")
    add, mul = _cyclic(n, np.add), _cyclic(n, np.multiply)
    return Ring.from_tables(n, add, mul, one=1 % n, label=f"Zn:{n}")


def make_zero_mul(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Additive group Z_n with every product equal to zero."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > size_cap:
        raise SizeCapError(f"zero-multiplication ring order {n} exceeds cap {size_cap}")
    mul = np.zeros((n, n), dtype=_index_dtype(n))
    one = 0 if n == 1 else None
    return Ring.from_tables(n, _cyclic(n, np.add), mul, one=one, label=f"zmul:{n}")


def make_direct_sum(r: Ring, s: Ring, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Direct sum with componentwise operations.

    Pairs (a, b) are packed as a + r.order * b (left summand varies
    fastest), so element 0 is (0, 0). Unity exists iff both summands
    have one.
    """
    order = r.order * s.order
    if order > size_cap:
        raise SizeCapError(f"direct sum order {order} exceeds cap {size_cap}")
    dt, radices = _index_dtype(order), (r.order, s.order)
    digits = _digits(order, radices)

    def table(*tables: Table) -> np.ndarray:
        return _numeral((np.array(t, dtype=dt)[d[:, None], d] for t, d in zip(tables, digits)), radices)

    one = None if r.one is None or s.one is None else r.one + r.order * s.one
    label = f"dsum({r.label},{s.label})"
    return Ring.from_tables(order, table(r.add, s.add), table(r.mul, s.mul), one=one, label=label)


def _matrix_tables(base: Ring, k: int, positions: list[tuple[int, int]], order: int):
    """Cayley tables for matrices supported on the given (row, col) positions.

    Element indices are mixed-radix numerals over base.order with the first
    position as the least significant digit. Each element is decoded once,
    into its entries and into a code per row and per column; ``dot`` is the
    base-ring dot product of two codes. Each entry of all sums or products
    is then one gather over every pair of elements.
    """
    q, radices = base.order, [base.order] * len(positions)
    badd, bmul = (np.array(t, dtype=_index_dtype(order)) for t in (base.add, base.mul))
    digits, zero = dict(zip(positions, _digits(order, radices))), np.zeros(order, dtype=np.int8)
    vec = _digits(q**k, [q] * k)
    dot = bmul[vec[0][:, None], vec[0]]
    for l in range(1, k):
        dot = badd[dot, bmul[vec[l][:, None], vec[l]]]

    def code(cells: list[tuple[int, int]]) -> np.ndarray:  # the cells' entries as k digits
        return _numeral((digits.get(c, zero).astype(np.intp) for c in cells), [q] * k)

    rows = [code([(i, l) for l in range(k)]) for i in range(k)]
    cols = [code([(l, j) for l in range(k)]) for j in range(k)]
    for i in range(k):
        for j in range(k):
            if (i, j) not in digits and dot[rows[i][:, None], cols[j]].any():
                raise ValueError("product left the supported positions")
    add = _numeral((badd[d[:, None], d] for d in digits.values()), radices)
    mul = _numeral((dot[rows[i][:, None], cols[j]] for i, j in positions), radices)
    one = sum(base.one * q**e for e, (i, j) in enumerate(positions) if i == j)
    return add, mul, one


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
    # narrow, so the (chunk, n, n) temporaries below are narrow too
    add, mul = add.astype(_index_dtype(n)), mul.astype(_index_dtype(n))

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
