"""Hunt query parsing and evaluation."""

import pytest

from nilary import parse_query, run_hunt, parse_ring_spec


@pytest.fixture(scope="module")
def rings():
    return [parse_ring_spec(s) for s in ["Zn:4", "Zn:6", "M:2:Zn:2", "zmul:4"]]


def test_weakly_but_not_nilary(rings):
    matches = list(run_hunt(rings, parse_query("weakly_nilary and not nilary")))
    assert ("Zn:6", (0,)) in [(m.ring_label, m.ideal_elements) for m in matches]


def test_prime_not_completely_nilary(rings):
    matches = list(run_hunt(rings, parse_query("prime and not completely_nilary")))
    assert [m.ring_label for m in matches] == ["M:2:Zn:2"]


def test_completely_prime_implies_prime(rings):
    assert not list(run_hunt(rings, parse_query("completely_prime and not prime")))


def test_fact_atoms(rings):
    matches = list(run_hunt(rings, parse_query("unital and not commutative")))
    assert [m.ring_label for m in matches] == ["M:2:Zn:2"]
    matches = list(run_hunt(rings, parse_query("completely_nilary and not prime_power_char")))
    assert [m.ring_label for m in matches] == ["zmul:4"]  # non-unital: char atom is false


def test_any_ideal_target(rings):
    zero_only = list(run_hunt(rings, parse_query("completely_nilary and proper")))
    everywhere = list(
        run_hunt(rings, parse_query("completely_nilary and proper", target="any-ideal"))
    )
    assert len(everywhere) > len(zero_only)
    assert ("Zn:6", (0, 2, 4)) in [(m.ring_label, m.ideal_elements) for m in everywhere]


def test_precedence_and_parens(rings):
    # not binds tightest, then and, then or
    q = parse_query("prime or weakly_nilary and not nilary")
    got = {m.ring_label for m in run_hunt(rings, q)}
    assert got == {"Zn:6", "M:2:Zn:2"}  # M2(Z2) via the prime disjunct
    q2 = parse_query("(prime or weakly_nilary) and not nilary")
    got2 = {m.ring_label for m in run_hunt(rings, q2)}
    assert got2 == {"Zn:6"}


def test_parse_errors():
    with pytest.raises(ValueError, match="unknown predicate"):
        parse_query("frobnicating")
    with pytest.raises(ValueError, match="closing"):
        parse_query("(prime or nilary")
    with pytest.raises(ValueError, match="ended unexpectedly"):
        parse_query("prime and")
    with pytest.raises(ValueError, match="bad character in query at position 6"):
        parse_query("prime && nilary")
    assert parse_query(" prime  ").expression == parse_query("prime").expression
    with pytest.raises(ValueError, match="target"):
        parse_query("prime", target="sideways")
