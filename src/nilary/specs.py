"""Ring construction DSL and the Cayley-table file format.

Grammar (whitespace allowed around tokens):

    spec := "Zn:" n
          | "M:" k ":" spec
          | "T:" k ":" spec
          | "dsum(" spec "," spec ")"
          | "zmul:" n
          | "quot(" spec ",gen(" e1 ["," e2 ...] "))"
          | "file:" path

Table files: line 1 is the order n, the next n lines are addition-table
rows, the following n lines multiplication-table rows (space-separated
element indices), and an optional final line ``one <index>``. Element 0
must be the additive zero.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np

from .ideals import ideal_generated_by, make_quotient
from .rings import (
    DEFAULT_SIZE_CAP,
    Ring,
    SizeCapError,
    _check_axioms,
    make_direct_sum,
    make_matrix_ring,
    make_upper_triangular,
    make_zero_mul,
    make_zn,
)

# deepest nesting a ring spec or hunt query may have; it keeps the recursive
# parsers and the query evaluation well inside Python's recursion limit
MAX_NESTING = 100


class RingSpecError(ValueError):
    """Spec text rejected; ``position`` is the offset of the defect."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str, size_cap: int):
        self.text = text
        self.pos = 0
        self.size_cap = size_cap

    def error(self, message: str) -> RingSpecError:
        return RingSpecError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start:self.pos])

    def spec(self, depth: int = 0) -> Ring:
        if depth > MAX_NESTING:
            raise self.error(f"ring spec is nested too deeply (more than {MAX_NESTING} levels)")
        self.skip_ws()
        for head in ("Zn:", "M:", "T:", "dsum(", "zmul:", "quot(", "file:"):
            if self.text.startswith(head, self.pos):
                break
        else:
            raise self.error("expected a ring constructor (Zn:, M:, T:, dsum(, zmul:, quot(, file:)")
        self.pos += len(head)
        if head == "Zn:":
            return make_zn(self.natural(), size_cap=self.size_cap)
        if head == "zmul:":
            return make_zero_mul(self.natural(), size_cap=self.size_cap)
        if head in ("M:", "T:"):
            k = self.natural()
            self.expect(":")
            base = self.spec(depth + 1)
            maker = make_matrix_ring if head == "M:" else make_upper_triangular
            return maker(base, k, size_cap=self.size_cap)
        if head == "dsum(":
            a = self.spec(depth + 1)
            self.expect(",")
            b = self.spec(depth + 1)
            self.expect(")")
            return make_direct_sum(a, b, size_cap=self.size_cap)
        if head == "quot(":
            inner = self.spec(depth + 1)
            self.expect(",")
            self.expect("gen(")
            gens = [self.natural()]
            self.skip_ws()
            while self.text.startswith(",", self.pos):
                self.pos += 1
                gens.append(self.natural())
                self.skip_ws()
            self.expect(")")
            self.expect(")")
            bad = [g for g in gens if not 0 <= g < inner.order]
            if bad:
                raise self.error(f"generator {bad[0]} out of range for {inner.label}")
            ideal = ideal_generated_by(inner, gens)
            quot, _ = make_quotient(inner, ideal)
            label = f"quot({inner.label},gen({','.join(map(str, gens))}))"
            return replace(quot, label=label)
        # file:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ",)":
            self.pos += 1
        path = self.text[start:self.pos].strip()
        if not path:
            raise self.error("expected a file path")
        return load_ring_file(path, size_cap=self.size_cap)


def parse_ring_spec(text: str, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Evaluate a ring spec string to a Ring."""
    parser = _Parser(text, size_cap)
    try:
        ring = parser.spec()
    except (SizeCapError, RingSpecError):
        raise
    except ValueError as exc:
        raise RingSpecError(str(exc), parser.pos) from exc
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing characters after ring spec")
    return ring


# bytes a table-file line may hold before the order is known
HEADER_LINE_BYTES = 64


def _lines(fh, path, limit: int, line_no: int = 0):
    """(line number, stripped bytes) of the non-blank lines ahead; a line over limit bytes raises."""
    while line := fh.readline(limit + 1):
        line_no += 1
        if len(line) > limit and not line.endswith(b"\n"):
            raise ValueError(f"{path}: line {line_no} is longer than {limit} bytes")
        if line := line.strip():
            yield line_no, line


def load_ring_file(path: str | Path, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """Load a ring from the table file format, validating all axioms.

    The order on the first non-blank line is checked against the cap
    before the rest of the file is read, and no more than 2n + 2 further
    non-blank lines are ever read. Every line is read with a byte bound:
    ``HEADER_LINE_BYTES`` up to the order, then that plus twice the length
    of a single-spaced row of n indices.
    """
    with Path(path).open("rb") as fh:
        header_no, header = next(_lines(fh, path, HEADER_LINE_BYTES), (0, None))
        if header is None:
            raise ValueError(f"{path}: empty ring file")
        try:
            n = int(header)
        except ValueError:
            raise ValueError(f"{path}: first line must be the ring order") from None
        if n < 1:
            raise ValueError(f"{path}: order must be >= 1")
        if n > size_cap:
            raise SizeCapError(f"{path}: ring order {n} exceeds cap {size_cap}")
        # 2n rows, an optional "one" line and one more to tell trailing content
        limit = HEADER_LINE_BYTES + 2 * n * (len(str(n)) + 1)
        rows = list(islice(_lines(fh, path, limit, header_no), 2 * n + 2))
    if len(rows) < 2 * n:
        raise ValueError(f"{path}: expected {2 * n} table rows, found {len(rows)}")

    def row(i: int) -> tuple[int, ...]:
        line_no, text = rows[i]
        try:
            vals = tuple(map(int, text.split()))
        except ValueError:
            raise ValueError(f"{path}: line {line_no} is not a table row") from None
        if len(vals) != n:
            raise ValueError(f"{path}: line {line_no} has {len(vals)} entries, expected {n}")
        return vals

    # one array per table, which from_tables and the axiom checks both read: no dtype is inferred twice
    add, mul = (np.array([row(i) for i in range(k, k + n)]) for k in (0, n))
    one = None
    rest = rows[2 * n:]
    if rest:
        line_no, text = rest[0]
        parts = text.split()
        if len(rest) > 1 or len(parts) != 2 or parts[0] != b"one":
            raise ValueError(f"{path}: trailing content; only 'one <index>' is allowed")
        if not parts[1].isdigit() or int(parts[1]) >= n:
            raise ValueError(f"{path}: line {line_no} must be 'one <index>' with index below {n}")
        one = int(parts[1])
    ring = Ring.from_tables(n, add, mul, one=one, label=f"file:{path}")
    report = _check_axioms(ring, add, mul)
    if not report.ok:
        first = report.violations[0]
        raise ValueError(f"{path}: ring axioms violated, e.g. {first[0]} at {first[1]}")
    return ring


def write_ring_file(ring: Ring, path: str | Path) -> None:
    """Serialize a ring in the table file format."""
    lines = [str(ring.order)]
    lines += [" ".join(map(str, row)) for row in ring.add]
    lines += [" ".join(map(str, row)) for row in ring.mul]
    if ring.one is not None:
        lines.append(f"one {ring.one}")
    Path(path).write_text("\n".join(lines) + "\n")


__all__ = ["RingSpecError", "load_ring_file", "parse_ring_spec", "write_ring_file"]
