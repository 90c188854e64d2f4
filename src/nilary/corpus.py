"""Corpus configuration and the builtin ring corpus."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .rings import DEFAULT_SIZE_CAP, Ring, SizeCapError
from .specs import parse_ring_spec


@dataclass(frozen=True)
class CorpusConfig:
    """A list of ring specs plus the caps applied when building them."""

    specs: tuple[str, ...]
    max_order: Optional[int] = None
    max_lattice: Optional[int] = None


def builtin_specs() -> tuple[str, ...]:
    """Deterministic default corpus covering the key example rings."""
    specs = [f"Zn:{n}" for n in range(1, 31)]
    specs += [f"dsum(Zn:{a},Zn:{b})" for a in range(1, 7) for b in range(1, 7)]
    specs += [f"zmul:{n}" for n in range(1, 9)]
    specs += [
        "M:2:Zn:2",
        "T:2:Zn:2",
        "T:2:Zn:3",
        "quot(Zn:12,gen(4))",
        "quot(Zn:12,gen(6))",
    ]
    return tuple(specs)


def build_builtin_corpus(max_order: Optional[int] = None) -> CorpusConfig:
    return CorpusConfig(specs=builtin_specs(), max_order=max_order)


def load_corpus_file(path: str | Path) -> CorpusConfig:
    """Read a corpus file: a JSON list of specs, or an object with caps.

    Every key is checked: an unknown key, a value of the wrong type or range
    and JSON nested too deeply raise ValueError. The keys are CorpusConfig's fields.
    """
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON is nested too deeply") from None
    if isinstance(data, list):
        data = {"specs": data}
    if not isinstance(data, dict) or "specs" not in data:
        raise ValueError(f"{path}: expected a JSON list of specs or an object with 'specs'")
    unknown = sorted(set(data) - {f.name for f in fields(CorpusConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}")
    specs = data["specs"]
    if not isinstance(specs, list) or not all(isinstance(s, str) for s in specs):
        raise ValueError(f"{path}: 'specs' must be a list of strings")
    for key in ("max_order", "max_lattice"):
        cap = data.get(key)
        if cap is not None and (type(cap) is not int or cap < 0):
            raise ValueError(f"{path}: {key!r} must be a non-negative integer or null")
    return CorpusConfig(
        specs=tuple(specs),
        max_order=data.get("max_order"),
        max_lattice=data.get("max_lattice"),
    )


def build_rings(config: CorpusConfig, size_cap: int = DEFAULT_SIZE_CAP) -> list[Ring]:
    """Parse every spec, with max_order as the construction cap when it is lower.

    A spec is dropped when any ring built for it is above max_order; one
    above size_cap alone raises SizeCapError.
    """
    cap = size_cap if config.max_order is None else min(config.max_order, size_cap)
    rings = []
    for spec in config.specs:
        try:
            rings.append(parse_ring_spec(spec, size_cap=cap))
        except SizeCapError:
            if cap == size_cap:
                raise
    return rings


__all__ = [
    "CorpusConfig",
    "build_builtin_corpus",
    "build_rings",
    "builtin_specs",
    "load_corpus_file",
]
