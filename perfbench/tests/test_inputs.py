"""Tests of the benchmark's seeded input generator.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from nilary.classify import ring_context  # noqa: E402
from nilary.corpus import builtin_specs  # noqa: E402
from nilary.specs import parse_ring_spec  # noqa: E402

from workloads import HUNT_MAX_ORDER, LADDER, WORKLOADS, make_specs  # noqa: E402

SEEDS = range(8)


def generate(workload, seed, workdir):
    """Spec list plus the bytes of every table file written."""
    specs = make_specs(workload, seed, workdir, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return specs, files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first = generate(workload, 3, tmp_path)
    for p in tmp_path.iterdir():
        p.unlink()
    assert generate(workload, 3, tmp_path) == first


def test_seeds_differ(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a, _ = generate("hunt-noncomm", 1, tmp_path / "a")
    b, _ = generate("hunt-noncomm", 2, tmp_path / "b")
    assert a != b


@pytest.mark.parametrize("seed", SEEDS)
def test_fixed_lists_are_only_shuffled(seed, tmp_path):
    assert sorted(make_specs("classify-ladder", seed, tmp_path, tmp_path)) == sorted(LADDER)
    assert sorted(make_specs("verify-builtin", seed, tmp_path, tmp_path)) == sorted(builtin_specs())


@pytest.mark.parametrize("seed", SEEDS)
def test_hunt_corpus_builds_and_covers_both_paths(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # file: specs are relative to the run directory
    specs = make_specs("hunt-noncomm", seed, tmp_path, tmp_path)
    assert len(specs) == 16
    assert any(s.startswith("file:") for s in specs)
    rings = [parse_ring_spec(s) for s in specs]
    assert all(r.order <= HUNT_MAX_ORDER for r in rings)
    assert any(r.one is not None and not ring_context(r).commutative for r in rings)
    assert any(r.one is None for r in rings)
