"""Counterexample hunting: boolean predicate queries over a corpus.

Queries are flat boolean expressions (and/or/not, parentheses) whose
atoms are registered predicate names plus the ring/ideal facts
``proper``, ``commutative``, ``unital`` and ``prime_power_char``. A
query is evaluated against every (ring, ideal) pair of the chosen
target: the zero ideal of each ring, or every two-sided ideal.
Not-applicable verdicts never match. An ``and`` or ``or`` chain is one
node holding all its operands, so its length costs no recursion;
parentheses and ``not`` may nest up to ``specs.MAX_NESTING`` levels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .classify import PREDICATE_NAMES, RingContext, ring_context
from .ideals import TWO_SIDED, mask_elements
from .rings import Ring
from .specs import MAX_NESTING

FACT_ATOMS = ("proper", "commutative", "unital", "prime_power_char")
TARGETS = ("ring-zero-ideal", "any-ideal")

_TOKEN = re.compile(r"\s*(?:(\(|\)|[A-Za-z_][A-Za-z0-9_]*)|(\S))")  # group 2: a bad character


@dataclass(frozen=True)
class HuntQuery:
    """Parsed boolean expression plus the quantification target."""

    expression: tuple
    text: str
    target: str = "ring-zero-ideal"


@dataclass(frozen=True)
class HuntMatch:
    ring_label: str
    ideal_elements: tuple[int, ...]

    def to_json(self) -> dict:
        return {"ring": self.ring_label, "ideal": list(self.ideal_elements)}


def _tokenize(text: str) -> list[str]:
    tokens = []
    for m in _TOKEN.finditer(text):  # trailing blanks match nothing and end the scan
        if m.group(2):
            raise ValueError(f"bad character in query at position {m.start(2)}")
        tokens.append(m.group(1))
    return tokens


def parse_query(text: str, target: str = "ring-zero-ideal") -> HuntQuery:
    """Parse ``a and not (b or c)`` style expressions over predicate atoms."""
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def advance() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def atom(depth: int) -> tuple:
        if depth > MAX_NESTING:
            raise ValueError(f"query is nested too deeply (more than {MAX_NESTING} levels)")
        tok = peek()
        if tok is None:
            raise ValueError("query ended unexpectedly")
        if tok == "(":
            advance()
            node = or_expr(depth + 1)
            if peek() != ")":
                raise ValueError("missing closing parenthesis")
            advance()
            return node
        if tok == "not":
            advance()
            return ("not", atom(depth + 1))
        advance()
        if tok in ("and", "or", ")"):
            raise ValueError(f"expected a predicate name, got {tok!r}")
        if tok not in PREDICATE_NAMES and tok not in FACT_ATOMS:
            raise ValueError(f"unknown predicate name {tok!r}")
        return ("atom", tok)

    def and_expr(depth: int) -> tuple:
        nodes = [atom(depth)]
        while peek() == "and":
            advance()
            nodes.append(atom(depth))
        return nodes[0] if len(nodes) == 1 else ("and", tuple(nodes))

    def or_expr(depth: int) -> tuple:
        nodes = [and_expr(depth)]
        while peek() == "or":
            advance()
            nodes.append(and_expr(depth))
        return nodes[0] if len(nodes) == 1 else ("or", tuple(nodes))

    expr = or_expr(0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in query: {' '.join(tokens[pos:])}")
    return HuntQuery(expr, text, target)


def _eval_atom(name: str, ctx: RingContext, mask: int) -> bool:
    if name == "proper":
        return mask != ctx.full_mask
    if name == "commutative":
        return ctx.commutative
    if name == "unital":
        return ctx.unital
    if name == "prime_power_char":
        return ctx.unital and ctx.characteristic.is_prime_power
    v = ctx.verdict(name, mask)
    return v.holds and not v.na


def _eval(node: tuple, ctx: RingContext, mask: int) -> bool:
    op, arg = node
    if op == "atom":
        return _eval_atom(arg, ctx, mask)
    if op == "not":
        return not _eval(arg, ctx, mask)
    if op == "and":  # loops, not all()/any() over generators, which doubled a warm hunt's time
        for n in arg:
            if not _eval(n, ctx, mask):
                return False
        return True
    if op == "or":
        for n in arg:
            if _eval(n, ctx, mask):
                return True
        return False
    raise AssertionError(f"bad query node {node!r}")


def run_hunt(rings: Sequence[Ring], query: HuntQuery) -> Iterator[HuntMatch]:
    """Yield every matching (ring, ideal) instance, in corpus order."""
    for r in rings:
        ctx = ring_context(r)
        masks = (1,) if query.target == "ring-zero-ideal" else ctx.lattice_masks(TWO_SIDED)
        for mask in masks:
            if _eval(query.expression, ctx, mask):
                yield HuntMatch(r.label, mask_elements(mask))


__all__ = ["FACT_ATOMS", "HuntMatch", "HuntQuery", "TARGETS", "parse_query", "run_hunt"]
