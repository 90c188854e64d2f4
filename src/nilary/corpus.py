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


def build_builtin_corpus() -> CorpusConfig:
    return CorpusConfig(specs=builtin_specs())


# the most bytes of a corpus file that are read
MAX_CORPUS_BYTES = 16 << 20


def load_corpus_file(path: str | Path) -> CorpusConfig:
    """Read a corpus file: a JSON list of specs, or an object with caps.

    Every key is checked: an unknown key, a value of the wrong type or range,
    JSON nested too deeply and a file over ``MAX_CORPUS_BYTES`` raise
    ValueError. The keys are CorpusConfig's fields.
    """
    if not str(path):
        raise ValueError("corpus path is empty")
    with Path(path).open("rb") as fh:
        text = fh.read(MAX_CORPUS_BYTES + 1)
    if len(text) > MAX_CORPUS_BYTES:
        raise ValueError(f"{path}: corpus file is larger than {MAX_CORPUS_BYTES} bytes")
    try:
        data = json.loads(text)
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


def build_rings(config: CorpusConfig) -> list[Ring]:
    """Parse every spec, with max_order as the construction cap when it is lower.

    A spec is dropped when any ring built for it is above max_order; one
    above the construction cap alone raises SizeCapError. The specs share
    one map from label to ring, so a sub-spec repeated across the corpus is
    built once, and a table file is parsed by ``np.loadtxt`` unless its rows
    need the per-row fallback (see :mod:`nilary.specs`). The nodes of a
    ``quot`` operand are not shared, and the map is dropped on return.
    """
    cap = DEFAULT_SIZE_CAP if config.max_order is None else min(config.max_order, DEFAULT_SIZE_CAP)
    rings, built = [], {}
    for spec in config.specs:
        try:
            rings.append(parse_ring_spec(spec, size_cap=cap, _built=built))
        except SizeCapError:
            if cap == DEFAULT_SIZE_CAP:
                raise
    return rings


__all__ = [
    "CorpusConfig",
    "build_builtin_corpus",
    "build_rings",
    "builtin_specs",
    "load_corpus_file",
]
