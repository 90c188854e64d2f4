"""Acceptance suite: one test per criterion, each printing a PASS line.

Runtime limits are asserted with time.perf_counter around the work the
criterion names. Witness checks go through the independent replay
routine, never through the classifier's own loops.
"""

import itertools
import time

from nilary import (
    KINDS,
    build_builtin_corpus,
    build_rings,
    characteristic,
    classify_ring,
    enumerate_ideals,
    enumerate_ideals_bruteforce,
    full_report,
    make_zn,
    matrix_entry_index,
    parse_query,
    parse_ring_spec,
    replay_verdict,
    run_hunt,
)
from nilary.classify import ring_context
from nilary.cli import main as cli_main
from nilary.theorems import run_all

EXAMPLE_CASES = {"E2.2", "EM2Z2"}


def _pass(n: int, text: str) -> None:
    print(f"ACCEPTANCE criterion {n}: PASS — {text}")


def test_criterion_1_example_2_2(capsys):
    t0 = time.perf_counter()
    assert cli_main(["classify", "Zn:6"]) == 0
    out = capsys.readouterr().out
    ring = parse_ring_spec("Zn:6")
    report = classify_ring(ring)
    wn = report.verdicts["weakly_nilary"]
    ni = report.verdicts["nilary"]
    assert wn.holds is True
    assert ni.holds is False
    w = ni.witness
    assert w.variant == "ideal-pair"
    assert {w.j, w.k} == {(0, 2, 4), (0, 3)}
    # replayable, and the pair's product is {0}
    assert replay_verdict(ring, (0,), "nilary", False, w)
    products = {ring.mul[x][y] for x in w.j for y in w.k}
    assert products == {0}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    # the CLI's zero-ideal row shows the same booleans
    header, zero_row = None, None
    for line in out.splitlines():
        if line.startswith("ideal"):
            header = line.split()
        if line.startswith("{0}"):
            zero_row = line.split()
    cells = dict(zip(header[2:], zero_row[2:]))
    assert cells["wn"] == "T" and cells["ni"] == "F"
    _pass(1, f"Z_6 zero ideal weakly_nilary/not nilary with zero-product witness ({elapsed:.3f}s)")


def test_criterion_2_m2z2():
    t0 = time.perf_counter()
    z2 = make_zn(2)
    ring = parse_ring_spec("M:2:Zn:2")
    enumerate_ideals(ring)  # lattice enumeration included in the timed run
    report = classify_ring(ring)
    expected = {
        "prime": True,
        "nilary": True,
        "p_nilary": True,
        "completely_nilary": False,
        "right_primary": True,
        "completely_right_primary": False,
    }
    for name, want in expected.items():
        assert report.verdicts[name].holds is want, name
    w = report.verdicts["completely_nilary"].witness
    e11 = matrix_entry_index(z2, 2, [[1, 0], [0, 0]])
    e22 = matrix_entry_index(z2, 2, [[0, 0], [0, 1]])
    assert (w.a, w.b) == (e11, e22)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(2, f"M_2(Z_2) zero-ideal profile with witness (diag(1,0),diag(0,1)) ({elapsed:.3f}s)")


def test_criterion_3_theorem_harness():
    required = {
        "P1.2", "P1.3", "Pquot", "Phom-fwd", "Phom-back", "Cquot-corr", "Pnil-lift",
        "Pcomm-pnilary", "Pnil-nilpotent", "Cchar", "D2.1-hierarchy", "E2.2",
        "P2.3w", "P2.4w", "C2.5w", "P2.6", "EM2Z2", "Rprime-nilary",
    }
    t0 = time.perf_counter()
    rings = build_rings(build_builtin_corpus())
    assert len(rings) >= 50
    results = run_all(rings)
    elapsed = time.perf_counter() - t0
    assert required <= {res.case_id for res in results}
    failing = [res.case_id for res in results if not res.passed]
    assert not failing, failing
    for res in results:
        if res.case_id not in EXAMPLE_CASES:
            assert res.hypothesis_instances >= 1, res.case_id
    assert elapsed < 60.0
    assert cli_main(["verify", "--builtin"]) == 0
    _pass(3, f"all {len(results)} harness cases pass over {len(rings)} rings ({elapsed:.2f}s)")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    rings = [r for r in build_rings(build_builtin_corpus()) if r.order <= 16]
    checked = 0
    for ring in rings:
        for kind in KINDS:
            fast = enumerate_ideals(ring, kind).masks()
            slow = enumerate_ideals_bruteforce(ring, kind).masks()
            assert fast == slow, (ring.label, kind)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(4, f"join-closure lattice equals 2^n subset scan on {checked} ring/kind pairs ({elapsed:.2f}s)")


def test_criterion_5_ideal_counts():
    expected = {"Zn:12": 6, "Zn:6": 4, "Zn:8": 4, "M:2:Zn:2": 2, "Zn:2": 2, "Zn:3": 2, "Zn:5": 2, "Zn:7": 2}
    for spec, count in expected.items():
        ring = parse_ring_spec(spec)
        assert len(enumerate_ideals(ring)) == count, spec
        assert len(enumerate_ideals_bruteforce(ring)) == count, spec
    _pass(5, "two-sided ideal counts match the subset-scan ground truth")


def test_criterion_6_characteristic_corollary():
    rings = build_rings(build_builtin_corpus())
    for ring in rings:
        if ring.one is None:
            continue
        ctx = ring_context(ring)
        if ctx.verdict("completely_nilary", 1).holds:
            assert characteristic(ring).is_prime_power, ring.label
    query = parse_query("completely_nilary and unital and not prime_power_char")
    matches = list(run_hunt(rings, query))
    assert matches == []
    # same query via the CLI: no matches means exit code 1
    assert cli_main(["hunt", "--builtin", "completely_nilary and unital and not prime_power_char"]) == 1
    _pass(6, "every unital completely nilary corpus ring has prime-power characteristic")


def test_criterion_7_witness_replay():
    reports = full_report(parse_ring_spec("Zn:6")) + full_report(parse_ring_spec("M:2:Zn:2"))
    total = 0
    for report in reports:
        ring = parse_ring_spec(report.ring_label)
        for name, v in report.verdicts.items():
            assert replay_verdict(
                ring, report.ideal_elements, name, v.holds, v.witness, v.na
            ), (report.ring_label, report.ideal_elements, name)
            total += 1
    rings = build_rings(build_builtin_corpus())
    by_label = {r.label: r for r in rings}
    for res in run_all(rings):
        for violation in res.violations:  # none expected; replay if any appear
            for pred, w in violation.witnesses:
                # a worked example names its own ring, which may lie outside the corpus: its label parses
                label = violation.ring_label
                ring = by_label.get(label) or parse_ring_spec(label)
                assert replay_verdict(ring, violation.ideal_elements or (0,), pred, False, w)
                total += 1
    _pass(7, f"{total} witnesses re-verified by the independent replay routine")


def test_criterion_8_monotone_hierarchy():
    chains = (
        ("completely_prime", "completely_right_primary", "completely_nilary"),
        ("prime", "right_primary", "nilary", "p_nilary", "weakly_p_nilary"),
    )
    rings = build_rings(build_builtin_corpus())
    checked = 0
    for ring in rings:
        ctx = ring_context(ring)
        for m in ctx.lattice_masks():
            if m == ctx.full_mask:
                continue
            for chain in chains:
                for stronger, weaker in itertools.pairwise(chain):
                    if ctx.verdict(stronger, m).holds:
                        assert ctx.verdict(weaker, m).holds, (ring.label, m, stronger, weaker)
                    checked += 1
    _pass(8, f"implication chains hold on all proper ideals ({checked} implication checks)")
