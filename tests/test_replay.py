"""Witness replay: every emitted verdict must re-verify from raw tables."""

import dataclasses

import pytest

from nilary import (
    Witness,
    classify_ring,
    full_report,
    make_zn,
    parse_ring_spec,
    replay,
    replay_report,
    replay_verdict,
    zero_ideal,
)
from nilary.classify import is_completely_nilary, is_nilary


def test_all_small_corpus_reports_replay(small_rings):
    for r in small_rings:
        for report in full_report(r):
            results = replay_report(r, report)
            bad = [name for name, ok in results.items() if not ok]
            assert not bad, (r.label, report.ideal_elements, bad)


def test_tampered_element_witness_fails(z6):
    v = is_completely_nilary(zero_ideal(z6))
    assert not v.holds
    good = v.witness
    assert replay_verdict(z6, (0,), "completely_nilary", False, good)
    # (2,4): product is 2, not in {0}, so no counterexample
    assert not replay_verdict(
        z6, (0,), "completely_nilary", False, dataclasses.replace(good, b=4)
    )
    # (1,3): product 3 is nonzero, again no counterexample
    assert not replay_verdict(
        z6, (0,), "completely_nilary", False, dataclasses.replace(good, a=1)
    )


def test_tampered_ideal_witness_fails(z6):
    v = is_nilary(zero_ideal(z6))
    assert not v.holds
    assert replay_verdict(z6, (0,), "nilary", False, v.witness)
    swapped = dataclasses.replace(v.witness, j=(0, 1), k=(0, 3))
    assert not replay_verdict(z6, (0,), "nilary", False, swapped)  # {0,1} not an ideal
    shrunk = dataclasses.replace(v.witness, j=(0, 2, 4), k=(0, 2, 4))
    assert not replay_verdict(z6, (0,), "nilary", False, shrunk)  # product not in {0}


def test_false_exponent_fails():
    z12 = make_zn(12)
    rep = full_report(z12)[2]  # ideal {0,4,8}
    v = rep.verdicts["completely_semiprime"]
    assert not v.holds and v.witness.n == 2
    wrong_exponent = dataclasses.replace(v.witness, n=3)
    assert not replay_verdict(z12, rep.ideal_elements, "completely_semiprime", False, wrong_exponent)


def test_true_verdict_with_leftover_witness_fails(z6):
    assert not replay_verdict(z6, (0,), "nilary", True, Witness.pair(2, 3))
    assert replay_verdict(z6, (0,), "nilary", True, Witness.none())


def test_na_replay(z6):
    full = tuple(range(6))
    assert replay_verdict(z6, full, "weakly_nilary", False, Witness.none(), na=True)
    assert not replay_verdict(z6, (0,), "weakly_nilary", False, Witness.none(), na=True)


def test_improper_prime_replay(z6):
    rep = classify_ring(make_zn(1))
    assert replay_report(make_zn(1), rep) == {name: True for name in rep.verdicts}


# (ring, ideal, predicate, forged witness of a false verdict): replay refuses each
FORGED = {
    "ideal without 0": ("Zn:6", (0,), "nilary", Witness.ideals((2, 4), (0, 3))),
    "ideal not closed under +": ("Zn:6", (0,), "nilary", Witness.ideals((0, 2, 4), (0, 1, 5))),
    "ideal not absorbing on the left":  # the diagonal of Z_2 + Z_2
        ("dsum(Zn:2,Zn:2)", (0,), "nilary", Witness.ideals((0, 3), (0, 3))),
    "ideal not absorbing on the right":  # {0, e11} is a left ideal of T_2(Z_2) only
        ("T:2:Zn:2", (0,), "prime", Witness.ideals((0, 1), (0, 1))),
    "p-form factor not principal":  # each (a) of this zero ring has two elements
        ("dsum(zmul:2,zmul:2)", (0,), "p_nilary", Witness.ideals((0, 1, 2, 3), (0, 1, 2, 3))),
    "element witness for an element pair":
        ("Zn:6", (0,), "completely_nilary", Witness.element(2)),
    "element pair for an ideal pair": ("Zn:6", (0,), "nilary", Witness.pair(2, 3)),
    "semiprime element inside I":
        ("Zn:12", (0, 4, 8), "completely_semiprime", Witness.element(4, n=1)),
    "semiprime exponent missing": ("Zn:12", (0, 4, 8), "completely_semiprime", Witness.element(2)),
    "semiprime exponent below 1":
        ("Zn:12", (0, 4, 8), "completely_semiprime", Witness.element(2, n=0)),
    "one-sided form without unity":
        ("zmul:4", (0,), "weakly_nilary_right", Witness.ideals((0, 2), (0, 2))),
    "one-sided form on I = A":
        ("Zn:6", tuple(range(6)), "weakly_nilary_left", Witness.ideals((0, 2, 4), (0, 3))),
    "right form given a left ideal":
        ("T:2:Zn:2", (0,), "weakly_nilary_right", Witness.ideals((0, 1), (0, 1))),
    "left form given a right ideal":  # {0, e22} is a right ideal of T_2(Z_2) only
        ("T:2:Zn:2", (0,), "weakly_nilary_left", Witness.ideals((0, 4), (0, 4))),
}


@pytest.mark.parametrize("spec, ideal, predicate, witness", FORGED.values(), ids=FORGED)
def test_forged_witness_is_refused(spec, ideal, predicate, witness):
    assert not replay_verdict(parse_ring_spec(spec), ideal, predicate, False, witness)


def test_replay_closes_a_seed_under_addition(z6):
    assert replay._add_close(z6, {2}) == {0, 2, 4}
