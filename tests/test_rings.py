"""Ring constructors, validation, characteristic and nilpotency."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilary import (
    Ideal,
    Ring,
    SizeCapError,
    characteristic,
    element_is_nilpotent,
    element_power_in,
    element_powers,
    full_report,
    ideal_generated_by,
    is_commutative,
    make_direct_sum,
    make_matrix_ring,
    make_quotient,
    make_upper_triangular,
    make_zero_mul,
    make_zn,
    matrix_entry_index,
    parse_ring_spec,
    replay_verdict,
    validate_ring,
    zero_ideal,
)
from nilary import classify, rings, specs
from nilary.classify import Witness, clear_caches, ring_context
from nilary.corpus import builtin_specs
from nilary.rings import MAX_VIOLATIONS, _additive_generators, _matrix_tables, factorize

from test_lattice import HUNT_SHAPES, LADDER
from _oracles import (
    direct_sum_by_elements,
    find_isomorphism,
    hom_violations,
    is_nil_ring,
    matrix_ring_by_elements,
    matrix_tables_by_elements,
    nilpotency_by_direct_powers,
    upper_triangular_by_elements,
    validate_by_full_scan,
    zero_mul_by_elements,
    zn_by_elements,
)

# The builtins, the benchmark's classify ladder and hunt shapes, the
# degenerate sizes and the largest shapes at the default cap.
ORACLE_SPECS = tuple(dict.fromkeys(builtin_specs() + (
    "Zn:64", "Zn:210", "T:2:Zn:4", "T:3:Zn:2", "M:2:Zn:3", "dsum(M:2:Zn:2,Zn:12)", "M:2:Zn:4",
    "T:2:dsum(Zn:2,Zn:2)", "dsum(M:2:Zn:2,zmul:8)", "dsum(T:2:Zn:3,zmul:4)",
    "dsum(T:3:Zn:2,zmul:2)", "T:2:Zn:2", "T:2:Zn:3", "M:2:Zn:2", "dsum(T:2:Zn:2,Zn:3)",
    "dsum(T:2:Zn:2,zmul:4)", "dsum(M:2:Zn:2,zmul:2)", "quot(T:2:Zn:4,gen(3))",
    "Zn:1", "zmul:1", "M:1:Zn:5", "T:1:Zn:5", "T:2:Zn:8", "M:3:Zn:2",
)))
ORACLE_CONSTRUCTORS = {
    "make_zn": zn_by_elements,
    "make_zero_mul": zero_mul_by_elements,
    "make_direct_sum": direct_sum_by_elements,
    "make_matrix_ring": matrix_ring_by_elements,
    "make_upper_triangular": upper_triangular_by_elements,
}


def test_zn_tables():
    z4 = make_zn(4)
    assert z4.add[2][3] == 1
    assert z4.mul[2][2] == 0
    assert z4.one == 1
    assert z4.order == 4


def test_zn_six_is_commutative_unital():
    z6 = make_zn(6)
    assert z6.order == 6
    assert is_commutative(z6)
    assert z6.one == 1


def test_zn_one_is_zero_ring():
    z1 = make_zn(1)
    assert z1.order == 1
    assert z1.one == 0
    assert validate_ring(z1).ok


def test_all_constructors_validate(small_rings):
    for r in small_rings:
        report = validate_ring(r)
        assert report.ok, f"{r.label}: {report.violations[:3]}"


def test_corrupted_table_reports_witness():
    z4 = make_zn(4)
    mul = [list(row) for row in z4.mul]
    mul[2][2] = 1
    bad = Ring.from_tables(4, z4.add, mul, one=1, label="bad-Z4")
    report = validate_ring(bad)
    assert not report.ok
    axioms = {axiom for axiom, _ in report.violations}
    assert axioms & {"mul-associativity", "distributivity-left", "distributivity-right"}
    # every reported triple genuinely violates its axiom
    for axiom, w in report.violations:
        a, b, c = w
        if axiom == "mul-associativity":
            assert bad.mul[bad.mul[a][b]][c] != bad.mul[a][bad.mul[b][c]]
        elif axiom == "distributivity-left":
            assert bad.mul[a][bad.add[b][c]] != bad.add[bad.mul[a][b]][bad.mul[a][c]]
        elif axiom == "distributivity-right":
            assert bad.mul[bad.add[a][b]][c] != bad.add[bad.mul[a][c]][bad.mul[b][c]]


@pytest.mark.parametrize("add, mul, axiom", [
    (((0, 1), (1,)), ((0, 0), (0, 0)), "add-table-malformed"),
    (((0, 1), (1, 0)), ((0, 0), (0, 0, 0)), "mul-table-malformed"),
    (((0, 1),), ((0, 0), (0, 0)), "add-table-malformed"),
    # entries from_tables rejects, however numpy would coerce them
    (((0, 1), (1, 0)), ((0, 0), (0, 1.5)), "mul-table-malformed"),
    (((0, 1), (1, "1")), ((0, 0), (0, 1)), "add-table-malformed"),
    (((0, 1), (1, 1.0)), ((0, 0), (0, 1)), "add-table-malformed"),
    (((0, 1), (1, 10**30)), ((0, 0), (0, 1)), "add-table-malformed"),
    (((0, 1), (1, 0)), ((0, 0), (0, 10**30)), "mul-table-malformed"),
])
def test_ragged_table_is_reported(add, mul, axiom):
    report = validate_ring(Ring(2, add, mul, None, "ragged"))
    assert report.violations == ((axiom, ()),)


@pytest.mark.parametrize("n, fields, violations", [
    (2, {"one": 5}, (("unity-malformed", ()),)),
    (2, {"one": -1}, (("unity-malformed", ()),)),
    (2, {"one": 1.0}, (("unity-malformed", ()),)),
    (2, {"one": "1"}, (("unity-malformed", ()),)),
])
def test_malformed_unity_is_reported(n, fields, violations):
    """A hand-built Z_n with a bad unity gets a report, from validate_ring and the oracle."""
    r = dataclasses.replace(make_zn(n), **fields)
    assert validate_ring(r).violations == validate_by_full_scan(r).violations == violations
    assert all(violates(r, axiom, w) for axiom, w in violations if w)


def violates(r: Ring, axiom: str, w: tuple[int, ...]) -> bool:
    """Whether the witness w breaks the axiom in r, read off the tables entry by entry."""
    add, mul = r.add, r.mul
    if axiom == "add-zero-identity":
        return add[0][w[0]] != w[0] or add[w[0]][0] != w[0]
    if axiom == "add-commutativity":
        return add[w[0]][w[1]] != add[w[1]][w[0]]
    if axiom == "add-negative-missing":
        return 0 not in add[w[0]]
    if axiom == "unity":
        return mul[r.one][w[0]] != w[0] or mul[w[0]][r.one] != w[0]
    a, b, c = w
    return {
        "add-associativity": lambda: add[add[a][b]][c] != add[a][add[b][c]],
        "mul-associativity": lambda: mul[mul[a][b]][c] != mul[a][mul[b][c]],
        "distributivity-left": lambda: mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]],
        "distributivity-right": lambda: mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]],
    }[axiom]()


def with_entries(r: Ring, add=(), mul=()) -> Ring:
    """r with (i, j, v) entries overwritten, built without from_tables' structural checks."""
    tables = [[list(row) for row in r.add], [list(row) for row in r.mul]]
    for t, entries in zip(tables, (add, mul)):
        for i, j, v in entries:
            t[i][j] = v
    new_add, new_mul = (tuple(map(tuple, t)) for t in tables)
    return dataclasses.replace(r, add=new_add, mul=new_mul, label="corrupted")


# valid tables of order <= 16; M:2 and T:2 over Z3 (orders 81, 27) are above it
FUZZ_SPECS = ("Zn:2", "Zn:3", "Zn:4", "Zn:6", "Zn:8", "Zn:9", "Zn:16", "zmul:4", "zmul:8",
              "M:2:Zn:2", "T:2:Zn:2", "dsum(Zn:2,Zn:2)", "dsum(Zn:2,Zn:4)", "dsum(zmul:2,Zn:3)",
              "dsum(T:2:Zn:2,Zn:2)")
fuzz_ring = functools.cache(parse_ring_spec)


@st.composite
def corrupted_rings(draw):
    """A valid small ring with 1-12 entries changed: of mul, of add, or of add on both sides."""
    r = fuzz_ring(draw(st.sampled_from(FUZZ_SPECS)))
    index = st.integers(0, r.order - 1)
    add, mul = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("mul", "add", "add-symmetric")))
        i, j, v = draw(index), draw(index), draw(index)
        if kind == "mul":
            mul.append((i, j, v))
        else:
            add += [(i, j, v), (j, i, v)] if kind == "add-symmetric" else [(i, j, v)]
    return with_entries(r, add, mul)


@settings(max_examples=200)
@given(r=corrupted_rings())
def test_corrupted_tables_match_the_full_scan(r):
    report = validate_ring(r)
    assert report.ok == validate_by_full_scan(r).ok
    assert len(_additive_generators(r.add)) <= r.order.bit_length()
    for axiom, w in report.violations:
        assert violates(r, axiom, w), (axiom, w)


def test_a_span_short_at_the_generator_cap_fails_associativity():
    # Z6 with 1+2, 1+3, 1+4 and 2+3 redefined on both sides: the zero, the
    # negatives and commutativity survive, so only the triple checks can catch it
    sums = {(1, 2): 0, (1, 3): 1, (1, 4): 4, (2, 3): 3}
    bad = with_entries(make_zn(6), [(i, j, v) for (a, b), v in sums.items() for i, j in ((a, b), (b, a))])
    gens = _additive_generators(bad.add)
    assert gens == [1, 3, 4] and len(gens) == (6).bit_length()
    report = validate_ring(bad)
    assert not report.ok and not validate_by_full_scan(bad).ok
    assert "add-associativity" in {axiom for axiom, _ in report.violations}
    assert all(violates(bad, axiom, w) for axiom, w in report.violations)


def test_many_violations_are_truncated():
    z8 = make_zn(8)
    bad = Ring.from_tables(8, z8.add, [[1] * 8] * 8, label="constant-product")
    report = validate_ring(bad)
    assert len(report.violations) == MAX_VIOLATIONS
    assert report.truncated
    assert all(violates(bad, axiom, w) for axiom, w in report.violations)


@pytest.mark.parametrize("entries", [2, 5, 64])
def test_chunk_bound_does_not_change_the_report(entries, monkeypatch):
    cases = [parse_ring_spec("T:2:Zn:4"), with_entries(make_zn(12), mul=[(5, 7, 3), (2, 9, 4)])]
    expected = [validate_ring(r) for r in cases]
    monkeypatch.setattr(rings, "_CHUNK_ENTRIES", entries)
    assert [validate_ring(r) for r in cases] == expected
    assert expected[0].ok and not expected[1].ok


def test_built_rings_match_the_full_scan(builtin_rings):
    # LADDER rings above order 128 cost the n³ scan seconds; they are validated below
    built = [*builtin_rings, *(parse_ring_spec(s) for s in (*LADDER, *HUNT_SHAPES))]
    for r in (r for r in built if r.order <= 128):
        assert validate_ring(r).ok == validate_by_full_scan(r).ok, r.label


@pytest.mark.parametrize("spec", (*LADDER, *HUNT_SHAPES, "T:2:Zn:8"))
def test_ladder_and_hunt_rings_validate(spec):
    r = parse_ring_spec(spec)
    assert validate_ring(r).ok
    assert len(_additive_generators(r.add)) <= r.order.bit_length()


def test_from_tables_rejects_bad_zero():
    # swap rows so element 0 is no longer the additive zero
    z2 = make_zn(2)
    with pytest.raises(ValueError, match="additive zero"):
        Ring.from_tables(2, ((1, 0), (0, 1)), z2.mul)


def test_from_tables_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Ring.from_tables(2, ((0, 1), (1, 5)), ((0, 0), (0, 1)))


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_constructors_match_elementwise_oracle(spec, monkeypatch):
    ring = parse_ring_spec(spec)
    with monkeypatch.context() as m:
        for name, oracle in ORACLE_CONSTRUCTORS.items():
            m.setattr(specs, name, oracle)
        expected = parse_ring_spec(spec)
    for field in ("order", "add", "mul", "one", "label"):
        assert getattr(ring, field) == getattr(expected, field), (spec, field)
    for table in (ring.add, ring.mul):
        assert all(type(x) is int for row in table for x in row), spec


def test_matrix_tables_reject_an_unclosed_support():
    z2 = make_zn(2)
    support = [(0, 1), (1, 0)]  # E01 * E10 = E00 is outside
    for build in (_matrix_tables, matrix_tables_by_elements):
        with pytest.raises(ValueError, match="product left the supported positions"):
            build(z2, 2, support, 4)


@pytest.mark.parametrize(
    "add, mul, one, message",
    [
        (((0, 1), (1, 10**30)), ((0, 0), (0, 1)), None, "addition table entry 10{30} out of range"),
        (((0, 1), (1, 0)), ((0, 0), (0, 10**30)), None, "multiplication table entry 10{30} out of"),
        (((0, 1), (1, -1)), ((0, 0), (0, 1)), None, r"addition table entry -1 out of range \[0, 2\)"),
        (((0, 1), (1, 0)), ((0, 0), (0, 2)), None, r"multiplication table entry 2 out of range"),
        (((0, 1), (1, 0)), ((0, 0), (0, 1, 1)), None, "multiplication table row 1 has length 3"),
        (((0, 1), (1, 0)), ((0, 0),), None, "multiplication table has 1 rows, expected 2"),
        (((0, 1),), ((0, 0), (0, 1)), None, "addition table has 1 rows, expected 2"),
        (((0, 1), (1, 1)), ((0, 0), (0, 1)), None, "element 1 has no additive inverse"),
        (((0, 1), (1, 0)), ((0, 0), (0, 1)), 2, "unity index 2 out of range"),
        # non-integers, however numpy would coerce them
        (((0, 1), (1, 0)), ((0, 0), (0, 1.7)), 1, "multiplication table entries must be integers"),
        (((0, 1), (1, 0)), ((0, 0), (0, "1")), 1, "multiplication table entries must be integers"),
        (((0, 1), (1, None)), ((0, 0), (0, 1)), 1, "addition table entries must be integers, got None"),
        (((0, None), (1, 10**30)), ((0, 0), (0, 1)), None, "addition table entries must be integers"),
        (((0, 1), (1, 0)), ((0, 0), (0, 1)), 1.0, r"unity index 1\.0 is not an integer"),
        (((0, 1), (1, 0)), ((0, 0), (0, 1)), "1", "unity index '1' is not an integer"),
        # the entry named is the bad one, not the first of a table numpy coerced to float or str
        (((0, 1), (1, 0)), ((0, 0), (0, 1.5)), None, r"multiplication table entries must be integers, got 1\.5$"),
        (((0, 1), (1, 0)), ((0, 0), (0, "x")), None, "multiplication table entries must be integers, got 'x'$"),
        (((0, 1), (1, 0)), ((0, 0), (0, 2**63)), None,
         r"multiplication table entry 9223372036854775808 out of range \[0, 2\)$"),
        (((0, 1), (1, 0)), ((0, 0), (0, 2**64 - 1)), None,
         r"multiplication table entry 18446744073709551615 out of range \[0, 2\)$"),
    ],
)
def test_from_tables_structural_errors(add, mul, one, message):
    with pytest.raises(ValueError, match=message):
        Ring.from_tables(2, add, mul, one=one)


@pytest.mark.parametrize("shape", [(1, 2), (3, 2), (2, 3), (2, 2, 1)])
def test_from_tables_names_a_misshapen_array_as_its_rows(shape):
    """An array of the wrong shape gets the message its nested lists get."""
    table = np.zeros(shape, dtype=np.int64)
    messages = []
    for add in (table, table.tolist()):
        with pytest.raises(ValueError) as exc:
            Ring.from_tables(2, add, ((0, 0), (0, 1)))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("addition table ")


@pytest.mark.parametrize("call, message", [
    (lambda: Ring.from_tables(0, (), ()), "ring order must be >= 1, got 0"),
    (lambda: make_zn(0), "modulus must be >= 1, got 0"),
    (lambda: make_zero_mul(0), "order must be >= 1, got 0"),
    (lambda: make_matrix_ring(make_zn(2), 0), "matrix dimension must be >= 1, got 0"),
    (lambda: element_powers(make_zn(6), 6), "element 6 out of range"),
    (lambda: factorize(0), "cannot factorize 0"),
    (lambda: ideal_generated_by(make_zn(6), (), "middle"), "unknown ideal kind 'middle'"),
    (lambda: element_power_in(make_zn(6), 2, zero_ideal(make_zn(4))), "ideal belongs to a different ring"),
    (lambda: make_quotient(make_zn(6), zero_ideal(make_zn(4))), "ideal belongs to a different ring"),
    (lambda: replay_verdict(make_zn(6), (0,), "bogus", False, Witness.none()), "unknown predicate 'bogus'"),
], ids=["from_tables-order-0", "make_zn-0", "make_zero_mul-0", "matrix-dimension-0",
        "element_powers-out-of-range", "factorize-0", "unknown-kind", "element_power_in-foreign-ideal",
        "make_quotient-foreign-ideal", "replay-unknown-predicate"])
def test_rejections_name_their_cause(call, message):
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message


def test_equal_rings_share_one_context():
    clear_caches()
    a, b = make_zn(12), parse_ring_spec("Zn:12")
    assert a is not b and a == b and hash(a) == hash(b)
    assert ring_context(a) is ring_context(b)
    assert classify.ring_context.cache_info().misses == 1


def test_hash_reads_no_table():
    class Unhashable(tuple):
        __hash__ = None

    r = make_zn(9)
    object.__setattr__(r, "add", Unhashable(r.add))
    object.__setattr__(r, "mul", Unhashable(r.mul))
    assert hash(r) == hash(make_zn(9))


def test_ring_memoizes_nothing():
    """A Ring is its tables: no cached_property keeps derived data on it."""
    assert not [k for k, v in vars(Ring).items() if isinstance(v, functools.cached_property)]


def test_rings_differing_only_in_tables_share_a_hash_not_a_context():
    """Z4 and a Klein-four ring renumbered so its unity is 1, both labelled Zn:4."""
    z4, v = make_zn(4), make_direct_sum(make_zn(2), make_zn(2))
    p = (0, 3, 2, 1)  # new index of each element: the unity, 3, becomes 1
    tables = []
    for t in (v.add, v.mul):
        new = [[0] * 4 for _ in range(4)]
        for a in range(4):
            for b in range(4):
                new[p[a]][p[b]] = p[t[a][b]]
        tables.append(new)
    klein = Ring.from_tables(4, *tables, one=p[v.one], label="Zn:4")
    assert validate_ring(klein).ok and klein.one == z4.one == 1
    assert klein != z4 and hash(klein) == hash(z4)
    assert ring_context(klein) is not ring_context(z4)
    assert ring_context(klein).ring is klein and ring_context(z4).ring is z4
    reports = [[rep.to_json() for rep in full_report(r)] for r in (z4, klein)]
    assert reports[0] != reports[1]


def test_zero_mul_ring():
    z = make_zero_mul(4)
    assert all(z.mul[a][b] == 0 for a in range(4) for b in range(4))
    assert z.one is None
    assert is_nil_ring(z)
    assert element_is_nilpotent(z, 3) == 2
    assert make_zero_mul(1).one == 0


def test_direct_sum_isomorphic_to_z6():
    d = make_direct_sum(make_zn(2), make_zn(3))
    assert d.order == 6
    assert find_isomorphism(d, make_zn(6)) is not None


def test_direct_sum_componentwise_product():
    d = make_direct_sum(make_zn(2), make_zn(2))
    # (1,0) is index 1, (0,1) is index 2; their product is (0,0)
    assert d.mul[1][2] == 0
    assert d.one == 3


def test_direct_sum_with_zero_ring_copies_tables():
    r = make_zn(5)
    d = make_direct_sum(make_zn(1), r)
    assert d.add == r.add
    assert d.mul == r.mul


def test_direct_sum_nilpotency_is_componentwise():
    r, s = make_zn(2), make_zn(4)
    d = make_direct_sum(r, s)
    for idx in range(d.order):
        a, b = idx % 2, idx // 2
        both = element_is_nilpotent(r, a) is not None and element_is_nilpotent(s, b) is not None
        assert (element_is_nilpotent(d, idx) is not None) == both


def test_matrix_ring_m2z2():
    z2 = make_zn(2)
    m = make_matrix_ring(z2, 2)
    assert m.order == 16
    assert m.one == matrix_entry_index(z2, 2, [[1, 0], [0, 1]])
    e11 = matrix_entry_index(z2, 2, [[1, 0], [0, 0]])
    e22 = matrix_entry_index(z2, 2, [[0, 0], [0, 1]])
    assert m.mul[e11][e22] == 0
    assert not is_commutative(m)


def test_is_commutative_is_the_pairwise_definition(builtin_rings):
    """The compare at additive generators agrees with ab == ba over every pair, both ways."""
    rings = [*builtin_rings, *(parse_ring_spec(s) for s in HUNT_SHAPES)]
    seen = set()
    for r in rings:
        want = all(r.mul[a][b] == r.mul[b][a] for a in r.elements for b in r.elements)
        assert is_commutative(r) == want, r.label
        seen.add(want)
    assert seen == {False, True}


@pytest.mark.parametrize("entries, message", [
    ([[5, 0], [0, 0]], r"matrix entry 5 out of range \[0, 2\)"),
    ([[1, 0], [0, -1]], "matrix entry -1 out of range"),
    ([[1.0, 0], [0, 0]], "matrix entries must be integers, got 1.0"),
    ([[1, 0]], r"matrix has shape \(1, 2\), expected \(2, 2\)"),
    ([[1, 0, 0], [0, 1, 0]], r"matrix has shape \(2, 3\)"),
    ([[[1], [0]], [[0], [1]]], r"matrix has shape \(2, 2, 1\)"),
    ([[1, 0], [0]], "with a sequence"),  # ragged: numpy's own ValueError
])
def test_matrix_entry_index_rejects_what_is_not_a_matrix_over_the_base(entries, message):
    with pytest.raises(ValueError, match=message):
        matrix_entry_index(make_zn(2), 2, entries)


def test_matrix_entry_index_numbers_entries_row_by_row():
    z3 = make_zn(3)
    assert matrix_entry_index(z3, 2, [[1, 2], [0, 1]]) == 1 + 2 * 3 + 0 * 9 + 1 * 27
    assert matrix_entry_index(z3, 1, [[2]]) == 2


def test_matrix_ring_k1_is_base():
    z5 = make_zn(5)
    m = make_matrix_ring(z5, 1)
    assert m.add == z5.add and m.mul == z5.mul and m.one == z5.one


def test_matrix_ring_requires_unity_and_cap():
    with pytest.raises(ValueError, match="unital"):
        make_matrix_ring(make_zero_mul(2), 2)
    with pytest.raises(SizeCapError):
        make_matrix_ring(make_zn(4), 2, size_cap=100)


def test_upper_triangular():
    t = make_upper_triangular(make_zn(2), 2)
    assert t.order == 8
    e12 = 2  # matrix with a 1 in the (0,1) slot only
    assert t.mul[e12][e12] == 0
    assert make_upper_triangular(make_zn(3), 2).order == 27


def test_quotient_z12_by_4_is_z4():
    z12 = make_zn(12)
    i = ideal_generated_by(z12, [4])
    q, q_of = make_quotient(z12, i)
    assert q.order == 4
    assert find_isomorphism(q, make_zn(4)) is not None
    assert [a for a in z12.elements if q_of[a] == 0] == [0, 4, 8]
    assert not hom_violations(z12, q, q_of)


def test_quotient_z6_by_2_is_z2():
    z6 = make_zn(6)
    q, _ = make_quotient(z6, ideal_generated_by(z6, [2]))
    assert q.order == 2
    assert find_isomorphism(q, make_zn(2)) is not None


def test_quotient_by_zero_is_identity_relabel():
    z6 = make_zn(6)
    q, q_of = make_quotient(z6, ideal_generated_by(z6, []))
    assert q.order == 6
    assert q_of == tuple(range(6))
    assert q.add == z6.add and q.mul == z6.mul


def test_quotient_rejects_non_ideal():
    z6 = make_zn(6)
    with pytest.raises(ValueError, match="ideal"):
        make_quotient(z6, Ideal(z6, 0b000110))  # {1,2} is not an ideal


def test_hom_violations_detect_breakage():
    z4 = make_zn(4)
    assert hom_violations(z4, z4, (0, 2, 1, 3))


@pytest.mark.parametrize(
    "n, expected",
    [(4, (4, ((2, 2),))), (6, (6, ((2, 1), (3, 1)))), (2, (2, ((2, 1),)))],
)
def test_characteristic_zn(n, expected):
    ch = characteristic(make_zn(n))
    assert (ch.value, ch.factors) == expected


def test_characteristic_matrix_and_zero_ring():
    assert characteristic(make_matrix_ring(make_zn(2), 2)).value == 2
    ch1 = characteristic(make_zn(1))
    assert ch1.value == 1 and ch1.is_prime_power
    assert characteristic(make_zn(12)).is_prime_power is False
    with pytest.raises(ValueError, match="unity"):
        characteristic(make_zero_mul(3))


def test_characteristic_matches_modulus(small_rings):
    for n in range(2, 17):
        assert characteristic(make_zn(n)).value == n


def test_nilpotency_examples():
    assert element_is_nilpotent(make_zn(4), 2) == 2
    assert element_is_nilpotent(make_zn(6), 2) is None
    assert element_is_nilpotent(make_zn(6), 0) == 1


def test_nilpotency_agrees_with_direct_powers(small_rings):
    for r in small_rings:
        for a in r.elements:
            assert element_is_nilpotent(r, a) == nilpotency_by_direct_powers(r, a), (
                r.label,
                a,
            )
