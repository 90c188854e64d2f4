"""Finite rings as explicit Cayley tables.

A ring is a finite set {0, ..., order-1} together with full addition and
multiplication tables over element indices. Index 0 is reserved for the
additive zero; constructors and the file loader enforce this. Rings need
not be commutative and need not contain a unity; when a unity exists its
index is recorded in ``one`` (the order-1 ring has ``one = 0``).

Constructors build whole tables at once: each element is decoded into
digit arrays, and every entry of all sums and products is one numpy
gather over all pairs, in int16 (up to order 2**15). :meth:`Ring.from_tables`
checks the arrays and stores tuples of Python ints, one int object per
element shared by all its entries; a Ring keeps no numpy arrays and no
table of negatives: -a is ``add[a].index(0)``, and no derived data:
product facts are read at the additive generators, at most log2(order)
elements. The hash reads no table. Rings can be shared freely across
threads. All functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from math import prod
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_SIZE_CAP = 4096
MAX_VIOLATIONS = 25  # witnesses validate_ring reports before it truncates
_CHUNK_ENTRIES = 1 << 22  # entries in validate_ring's largest temporary

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

    def __repr__(self) -> str:
        return f"Ring({self.label!r}, order={self.order})"

    @property
    def elements(self) -> range:
        return range(self.order)

    @property
    def is_unital(self) -> bool:
        return self.one is not None

    def __hash__(self) -> int:
        # reads no table: equal rings share these fields, and rings differing in tables stay unequal
        return hash((self.order, self.one, self.label))

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
        _check_unity(order, one)
        if order > 257:  # past CPython's shared ints 0..256: one int object per element, not entry
            add_a, mul_a = idx.astype(object)[np.stack((add_a, mul_a))]
        add_t, mul_t = (tuple(tuple(row.tolist()) for row in t) for t in (add_a, mul_a))
        return cls(order, add_t, mul_t, one, label)


def _index_dtype(order: int) -> type:
    """Narrowest signed dtype that holds every element index of the order."""
    return np.int16 if order <= 1 << 15 else np.int32


def _table_array(order: int, table, what: str) -> np.ndarray:
    if len(table) != order:
        raise ValueError(f"{what} table has {len(table)} rows, expected {order}")
    for i, row in enumerate(table):
        if len(row) != order:
            raise ValueError(f"{what} table row {i} has length {len(row)}, expected {order}")
    return _index_array(order, table, f"{what} table", (order, order))


def _index_array(order: int, values, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """The values as an array of the shape of indices in [0, order); ValueError unless so."""
    t = np.asarray(values)  # object dtype if an entry does not fit int64
    if t.shape != shape:
        raise ValueError(f"{what} has shape {t.shape}, expected {shape}")
    if t.dtype.kind not in "iu":
        odd = [x for x in t.ravel().tolist() if not isinstance(x, (int, np.integer))]
        if odd:
            raise ValueError(f"{what} entries must be integers, got {odd[0]!r}")
    bad = (t < 0) | (t >= order)
    if bad.any():
        x = int(t.flat[bad.argmax()])
        raise ValueError(f"{what} entry {x} out of range [0, {order})")
    return t.astype(_index_dtype(order), copy=False)


def _check_unity(order: int, one) -> None:
    """ValueError unless one is None or an integer index below order."""
    if one is not None and not isinstance(one, (int, np.integer)):
        raise ValueError(f"unity index {one!r} is not an integer")
    if one is not None and not 0 <= one < order:
        raise ValueError(f"unity index {one} out of range")


@dataclass(frozen=True)
class Hom:
    """Ring homomorphism given by an element-index map table, unchecked; make_quotient's are onto."""

    source: Ring
    target: Ring
    map: tuple[int, ...]

    def kernel_elements(self) -> tuple[int, ...]:
        return tuple(a for a in self.source.elements if self.map[a] == 0)


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


def _matrix_ring(base: Ring, k: int, size_cap: int, triangular: bool) -> Ring:
    """Full or upper-triangular k x k matrices over a unital base ring.

    Cells are bounded before the order base.order ** cells, which can have billions of
    digits: more than size_cap.bit_length() of them (size_cap over an order-1 base) exceed the cap.
    """
    if base.one is None:
        raise ValueError(f"{'triangular ' if triangular else ''}matrix ring requires a unital base ring")
    if k < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {k}")
    cells = k * (k + 1) // 2 if triangular else k * k
    if cells > (size_cap.bit_length() if base.order > 1 else size_cap):
        raise SizeCapError(f"matrix dimension {k} over {base.label} exceeds cap {size_cap} "
                           f"({cells} entries per matrix)")
    order = base.order ** cells
    if order > size_cap:
        kind = "triangular" if triangular else "matrix"
        raise SizeCapError(f"{kind} ring order {order} exceeds cap {size_cap}")
    positions = [(i, j) for i in range(k) for j in range(i if triangular else 0, k)]
    add, mul, one = _matrix_tables(base, k, positions, order)
    label = f"{'T' if triangular else 'M'}:{k}:{base.label}"
    return Ring.from_tables(order, add, mul, one=one, label=label)


def make_matrix_ring(base: Ring, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Full k x k matrix ring over a unital base ring."""
    return _matrix_ring(base, k, size_cap, triangular=False)


def make_upper_triangular(base: Ring, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Subring of k x k upper-triangular matrices over a unital base ring."""
    return _matrix_ring(base, k, size_cap, triangular=True)


def matrix_entry_index(base: Ring, k: int, entries: Sequence[Sequence[int]]) -> int:
    """Index in make_matrix_ring(base, k) of k rows of k elements of base; ValueError if not."""
    digits = _index_array(base.order, entries, "matrix", (k, k)).ravel().tolist()
    return sum(x * base.order**e for e, x in enumerate(digits))


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


def _additive_generators(add: Table) -> list[int]:
    """Least-first elements whose right-added span from 0 covers A; at most n.bit_length().

    validate_ring's generators: a DFS that reads nothing but the table, so it
    runs on tables not yet known to be a group. Valid rings use ideals' spans.
    """
    n = len(add)
    reached = bytearray(n)
    reached[0] = 1
    gens: list[int] = []
    while len(gens) < n.bit_length() and (s := reached.find(0)) >= 0:
        gens.append(s)
        stack = [s, *(add[x][s] for x in compress(range(n), reached))]
        while stack:
            y = stack.pop()
            if not reached[y]:
                reached[y] = 1
                stack += [add[y][g] for g in gens]
    return gens


def validate_ring(r: Ring) -> ValidationReport:
    """Check every ring axiom, reporting witnesses for each violation.

    Tables and unity first pass :meth:`Ring.from_tables`' own checks; a
    field that fails is reported ``<field>-malformed`` and ends the report.
    Axioms over one or two elements are checked everywhere, triple axioms
    only at the additive generators S of :func:`_additive_generators`:
    O(n² log n) on every input.
    (x+s)+y = x+(s+y) is Light's test: the elements passing it are closed
    under +, and each span of passing generators is a group at least double
    the last. a(x+s) = ax+as, (x+s)c = xc+sc and (xs)y = x(sy) extend from
    S to A by additivity. Witnesses fill their axiom's (a, b, c) slots:
    (x, s, y) for both associativities, (a, x, s) and (x, s, c) for left
    and right distributivity. No temporary exceeds ``_CHUNK_ENTRIES``; the
    witness list is capped at ``MAX_VIOLATIONS``, and ``truncated`` records
    whether anything was cut.
    """
    out: list[tuple[str, tuple[int, ...]]] = []

    def checked(name: str, check, *args) -> Optional[np.ndarray]:
        try:
            return check(*args)
        except ValueError:
            out.append((f"{name}-malformed", ()))

    add = checked("add-table", _table_array, r.order, r.add, "addition")
    mul = checked("mul-table", _table_array, r.order, r.mul, "multiplication")
    checked("unity", _check_unity, r.order, r.one)
    return ValidationReport(r.label, tuple(out)) if out else _check_axioms(r, add, mul)


def _check_axioms(r: Ring, add: np.ndarray, mul: np.ndarray) -> ValidationReport:
    """validate_ring's axiom checks, reading r's tables as arrays that passed from_tables' checks."""
    n = r.order
    add, mul = (t.astype(_index_dtype(n), copy=False) for t in (add, mul))  # narrow: faster reads
    out: list[tuple[str, tuple[int, ...]]] = []
    truncated = False

    def extend(axiom: str, witnesses) -> None:
        nonlocal truncated
        for w in witnesses:
            if len(out) >= MAX_VIOLATIONS:
                truncated = True
                return
            out.append((axiom, tuple(int(x) for x in w)))

    rng = np.arange(n)
    extend("add-zero-identity", [(a,) for a in np.nonzero((add[0] != rng) | (add[:, 0] != rng))[0]])
    extend("add-commutativity", np.argwhere(add != add.T))
    extend("add-negative-missing", [(a,) for a in np.nonzero(~(add == 0).any(axis=1))[0]])

    chunk = max(1, _CHUNK_ENTRIES // n)
    gens = _additive_generators(r.add)
    for axiom, slot, lhs_of, rhs_of in (
        # lhs/rhs give (rows, n) arrays indexed [x - x0, y] for generator s; s takes the slot
        ("add-associativity", 1, lambda c, s: add[add[c, s]], lambda c, s: add[c][:, add[s]]),
        ("mul-associativity", 1, lambda c, s: mul[mul[c, s]], lambda c, s: mul[c][:, mul[s]]),
        ("distributivity-left", 2,
         lambda c, s: mul[c][:, add[:, s]], lambda c, s: add[mul[c], mul[c, s, None]]),
        ("distributivity-right", 1, lambda c, s: mul[add[c, s]], lambda c, s: add[mul[c], mul[s]]),
    ):
        for s, x0 in product(gens, range(0, n, chunk)):
            c = slice(x0, x0 + chunk)
            mism = lhs_of(c, s) != rhs_of(c, s)
            if mism.any():
                extend(axiom, np.insert(np.argwhere(mism) + (x0, 0), slot, s, axis=1))

    if r.one is not None:
        extend("unity", [(a,) for a in np.nonzero((mul[r.one] != rng) | (mul[:, r.one] != rng))[0]])

    return ValidationReport(r.label, tuple(out), truncated)


# ---------------------------------------------------------------------------
# element-level facts


def element_powers(r: Ring, a: int) -> tuple[int, ...]:
    """Distinct powers a^1, a^2, ... in order, stopping when they cycle."""
    if not 0 <= a < r.order:
        raise ValueError(f"element {a} out of range")
    seen, p = {}, a  # a dict keeps the powers in order
    while p not in seen:
        seen[p] = None
        p = r.mul[p][a]
    return tuple(seen)


def element_is_nilpotent(r: Ring, a: int) -> Optional[int]:
    """Least n >= 1 with a^n = 0, or None if no power vanishes."""
    powers = element_powers(r, a)
    return powers.index(0) + 1 if 0 in powers else None


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
    k, s = 1, r.one
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
    "make_direct_sum",
    "make_matrix_ring",
    "make_upper_triangular",
    "make_zero_mul",
    "make_zn",
    "matrix_entry_index",
    "validate_ring",
]
