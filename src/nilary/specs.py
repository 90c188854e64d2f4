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
must be the additive zero. Each table's n lines are parsed by
``np.loadtxt``; a table it rejects, or whose lines hold a byte other than
ASCII digits, ``+``, ``-``, space and tab, is parsed row by row with
``int``, which names the defect.

Each sub-spec is built once per parse: a node whose label was built
earlier in the same ``parse_ring_spec`` call (or the same
``corpus.build_rings`` call) is reused. The nodes inside a ``quot``
operand are shared within that operand only, since each is larger than
the quotient and would otherwise stay alive for the rest of the call.
"""

from __future__ import annotations

from collections import ChainMap
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
    def __init__(self, text: str, size_cap: int, built: dict[str, Ring]):
        self.text = text
        self.pos = 0
        self.size_cap = size_cap
        self.built = built  # label -> the ring built for it

    def once(self, label: str, make, *args) -> Ring:
        """The ring built for label, made by make(*args) on the first request."""
        ring = self.built.get(label)
        if ring is None:
            ring = self.built[label] = make(*args, size_cap=self.size_cap)
        return ring

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
            n = self.natural()
            return self.once(f"Zn:{n}", make_zn, n)
        if head == "zmul:":
            n = self.natural()
            return self.once(f"zmul:{n}", make_zero_mul, n)
        if head in ("M:", "T:"):
            k = self.natural()
            self.expect(":")
            base = self.spec(depth + 1)
            maker = make_matrix_ring if head == "M:" else make_upper_triangular
            return self.once(f"{head}{k}:{base.label}", maker, base, k)
        if head == "dsum(":
            a = self.spec(depth + 1)
            self.expect(",")
            b = self.spec(depth + 1)
            self.expect(")")
            return self.once(f"dsum({a.label},{b.label})", make_direct_sum, a, b)
        if head == "quot(":
            # the operand's own nodes are dropped with it: each is larger than the quotient
            outer, self.built = self.built, ChainMap({}, self.built)
            try:
                inner = self.spec(depth + 1)
            finally:
                self.built = outer
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
            label = f"quot({inner.label},gen({','.join(map(str, gens))}))"
            if label not in self.built:
                quot, _ = make_quotient(inner, ideal_generated_by(inner, gens))
                self.built[label] = replace(quot, label=label)
            return self.built[label]
        # file:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ",)":
            self.pos += 1
        path = self.text[start:self.pos].strip()
        if not path:
            raise self.error("expected a file path")
        return self.once(f"file:{path}", load_ring_file, path)


def parse_ring_spec(text: str, size_cap: int = DEFAULT_SIZE_CAP, *,
                    _built: dict[str, Ring] | None = None) -> Ring:
    """Evaluate a ring spec string to a Ring, building each repeated sub-spec once.

    ``_built`` is ``corpus.build_rings``'s label -> ring map, shared by the
    specs of one corpus; on its own a call keeps a map of its own.
    """
    parser = _Parser(text, size_cap, {} if _built is None else _built)
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
# np.loadtxt parses a table only when its rows hold these bytes alone: over them it splits where
# bytes.split() does and reads the tokens int() reads (within int64), but it also splits on
# bytes such as b"\xa0", b"\x85" and b"\x1c", where int() rejects the row
_LOADTXT_BYTES = b"0123456789+- \t"


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

    def table(k: int) -> np.ndarray:
        lines = [text for _, text in rows[k:k + n]]
        if not b"".join(lines).translate(None, _LOADTXT_BYTES):
            try:
                t = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
            except Exception:  # the per-row parse below names the defect
                pass
            else:
                if t.shape == (n, n):
                    return t
        # float64 only for an entry in [2**63, 2**64): keep its int
        rows_k = [row(i) for i in range(k, k + n)]
        t = np.array(rows_k)
        return np.array(rows_k, dtype=object) if t.dtype.kind == "f" else t

    # one array per table, which from_tables and the axiom checks both read: no dtype is inferred twice
    add, mul = table(0), table(n)
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
