import pytest
from hypothesis import settings

from nilary import build_builtin_corpus, build_rings, parse_ring_spec

# Reproducible property tests: the same examples on every run, no example database.
settings.register_profile("tier1", derandomize=True, database=None, max_examples=40, deadline=None)
settings.load_profile("tier1")

# Orders all <= 16 so the subset-scan oracle applies everywhere.
SMALL_SPECS = [
    "Zn:1",
    "Zn:2",
    "Zn:3",
    "Zn:4",
    "Zn:6",
    "Zn:7",
    "Zn:8",
    "Zn:12",
    "Zn:16",
    "zmul:4",
    "zmul:8",
    "dsum(Zn:2,Zn:2)",
    "dsum(Zn:2,Zn:3)",
    "dsum(Zn:2,Zn:4)",
    "M:2:Zn:2",
    "T:2:Zn:2",
    "quot(Zn:12,gen(4))",
    "quot(Zn:12,gen(6))",
]


@pytest.fixture(scope="session")
def small_rings():
    return [parse_ring_spec(s) for s in SMALL_SPECS]


@pytest.fixture(scope="session")
def builtin_rings():
    return build_rings(build_builtin_corpus())


@pytest.fixture
def z4():
    return parse_ring_spec("Zn:4")


@pytest.fixture
def z6():
    return parse_ring_spec("Zn:6")


@pytest.fixture
def z12():
    return parse_ring_spec("Zn:12")


@pytest.fixture
def m2z2():
    return parse_ring_spec("M:2:Zn:2")
