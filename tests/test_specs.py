"""Ring spec DSL parsing, the table file format and corpus building."""

import gc
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from nilary import (
    CorpusConfig,
    Ring,
    RingSpecError,
    SizeCapError,
    build_rings,
    builtin_specs,
    load_ring_file,
    make_direct_sum,
    make_matrix_ring,
    make_zero_mul,
    make_zn,
    parse_ring_spec,
    validate_ring,
    write_ring_file,
)

# the ring shapes of the hunt-noncomm benchmark workload (perfbench/workloads.py)
HUNT_SHAPES = ("T:2:Zn:4", "T:2:dsum(Zn:2,Zn:2)", "T:3:Zn:2", "M:2:Zn:3", "dsum(M:2:Zn:2,zmul:8)",
               "dsum(T:2:Zn:3,zmul:4)", "dsum(T:3:Zn:2,zmul:2)", "T:2:Zn:2", "T:2:Zn:3", "M:2:Zn:2",
               "dsum(T:2:Zn:2,Zn:3)", "dsum(T:2:Zn:2,zmul:4)", "dsum(M:2:Zn:2,zmul:2)")


@pytest.mark.parametrize(
    "text, builder",
    [
        ("Zn:6", lambda: make_zn(6)),
        ("zmul:4", lambda: make_zero_mul(4)),
        ("M:2:Zn:2", lambda: make_matrix_ring(make_zn(2), 2)),
        ("dsum(Zn:2,Zn:3)", lambda: make_direct_sum(make_zn(2), make_zn(3))),
    ],
)
def test_parse_matches_direct_construction(text, builder):
    parsed = parse_ring_spec(text)
    direct = builder()
    assert parsed.add == direct.add
    assert parsed.mul == direct.mul
    assert parsed.one == direct.one
    assert parsed.label == text


def test_parse_quotient():
    q = parse_ring_spec("quot(Zn:12,gen(4))")
    assert q.order == 4
    assert q.label == "quot(Zn:12,gen(4))"
    assert validate_ring(q).ok
    assert parse_ring_spec("quot(Zn:12,gen(4,6))").order == 2  # <4,6> = <2>, index 2


def test_parse_nested_and_whitespace():
    r = parse_ring_spec(" dsum( Zn:2 , T:2:Zn:2 ) ")
    assert r.order == 16
    assert r.label == "dsum(Zn:2,T:2:Zn:2)"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("Zn:x", "number"),
        ("M:2", "expected ':'"),
        ("dsum(Zn:2", "expected ','"),
        ("Zn:6 extra", "trailing"),
        ("quot(Zn:6,gen(9))", "out of range"),
        ("foo:3", "constructor"),
        ("", "constructor"),
        ("file:", "expected a file path"),
    ],
)
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(RingSpecError, match=fragment) as exc:
        parse_ring_spec(text)
    assert exc.value.position >= 0


def test_parse_respects_size_cap():
    with pytest.raises(SizeCapError):
        parse_ring_spec("M:2:Zn:8", size_cap=1000)


@pytest.mark.parametrize("text", ["Zn:50", "zmul:50", "quot(Zn:50,gen(5))"])
def test_cyclic_specs_respect_size_cap(text):
    with pytest.raises(SizeCapError):
        parse_ring_spec(text, size_cap=20)
    assert parse_ring_spec(text, size_cap=50).order <= 50


@pytest.mark.parametrize("maker", [make_zn, make_zero_mul])
def test_cyclic_constructors_check_cap_before_building(maker):
    with pytest.raises(SizeCapError):
        maker(10**9, size_cap=10)  # a table of 10^18 entries if built


def test_file_loader_checks_cap_at_header(tmp_path):
    path = tmp_path / "z8.txt"
    write_ring_file(make_zn(8), path)
    with pytest.raises(SizeCapError, match="order 8 exceeds cap 4"):
        parse_ring_spec(f"file:{path}", size_cap=4)
    assert parse_ring_spec(f"file:{path}", size_cap=8).order == 8
    header_only = tmp_path / "huge.txt"
    header_only.write_text("100000\n")  # no rows: only the header can be read
    with pytest.raises(SizeCapError, match="exceeds cap 10"):
        load_ring_file(header_only, size_cap=10)


def test_file_loader_reads_no_further_than_an_oversized_header(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_bytes(b"\n100000\n\xff\xfe not text\n")
    with pytest.raises(SizeCapError, match="exceeds cap 10"):
        load_ring_file(path, size_cap=10)


def test_file_loader_reads_no_further_than_the_order_needs(tmp_path):
    path = tmp_path / "junk.txt"
    write_ring_file(make_zn(2), path)
    with path.open("a") as fh:
        fh.write("junk\n" * 2_000_000)  # 10 MB after a valid order-2 table
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="trailing content"):
            load_ring_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


def test_file_loader_bounds_each_line(tmp_path):
    path = tmp_path / "long.txt"
    path.write_bytes(b"1" * 10_000_000)  # a 10 MB first line, no newline
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="line 1 is longer than 64 bytes"):
            load_ring_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    blanks = tmp_path / "blanks.txt"
    write_ring_file(make_zn(2), blanks)
    text = blanks.read_text().split("\n")
    blanks.write_text("\n".join([text[0], " " * 1_000_000, *text[1:]]))
    with pytest.raises(ValueError, match="line 2 is longer than"):
        load_ring_file(blanks)


def test_file_round_trip(tmp_path):
    ring = make_direct_sum(make_zn(2), make_zn(4))
    path = tmp_path / "ring.txt"
    write_ring_file(ring, path)
    loaded = parse_ring_spec(f"file:{path}")
    assert loaded.add == ring.add
    assert loaded.mul == ring.mul
    assert loaded.one == ring.one
    assert loaded.label == f"file:{path}"


def test_file_loader_accepts_non_unital(tmp_path):
    path = tmp_path / "zmul.txt"
    write_ring_file(make_zero_mul(3), path)
    assert load_ring_file(path).one is None


def test_file_loader_rejects_bad_zero(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 0\n0 1\n0 0\n0 1\n")
    with pytest.raises(ValueError, match="additive zero"):
        load_ring_file(path)


def test_file_loader_rejects_axiom_violation(tmp_path):
    # addition table is fine; multiplication is not associative
    path = tmp_path / "nonassoc.txt"
    z4 = make_zn(4)
    mul = [list(row) for row in z4.mul]
    mul[2][2] = 1
    lines = ["4"]
    lines += [" ".join(map(str, row)) for row in z4.add]
    lines += [" ".join(map(str, row)) for row in mul]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="axioms"):
        load_ring_file(path)


def test_file_loader_rejects_a_false_unity(tmp_path):
    path = tmp_path / "z4.txt"
    write_ring_file(make_zn(4), path)
    path.write_text(path.read_text().replace("one 1", "one 3"))
    with pytest.raises(ValueError, match=r"ring axioms violated, e\.g\. unity at \(1,\)"):
        load_ring_file(path)


def test_file_round_trip_at_order_512(tmp_path):
    ring = parse_ring_spec("T:2:Zn:8")
    path = tmp_path / "t2z8.txt"
    write_ring_file(ring, path)
    loaded = load_ring_file(path)
    assert (loaded.order, loaded.add, loaded.mul, loaded.one) == (512, ring.add, ring.mul, ring.one)


@pytest.mark.parametrize("unity", ["x", "7", "-1"])
def test_file_loader_names_the_line_of_a_bad_unity(tmp_path, unity):
    path = tmp_path / "z2.txt"
    write_ring_file(make_zn(2), path)  # its last line, line 6, is "one 1"
    path.write_text(path.read_text().replace("one 1", f"one {unity}"))
    message = f"{path}: line 6 must be 'one <index>' with index below 2"
    with pytest.raises(ValueError) as got:
        load_ring_file(path)
    assert str(got.value) == message
    with pytest.raises(RingSpecError, match="line 6 must be 'one <index>'"):
        parse_ring_spec(f"file:{path}")


@pytest.mark.parametrize("entry", [10**30, -1, 2**63, 2**64 - 1])
def test_file_loader_rejects_an_entry_out_of_range(tmp_path, entry):
    path = tmp_path / "z2.txt"
    path.write_text(f"2\n0 1\n1 0\n0 0\n0 {entry}\n")
    with pytest.raises(ValueError, match=rf"multiplication table entry {entry} out of range \[0, 2\)"):
        load_ring_file(path)
    with pytest.raises(RingSpecError, match=rf"^multiplication table entry {entry} out of range"):
        parse_ring_spec(f"file:{path}")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty ring file"),
        ("two\n0\n0\n", "first line must be the ring order"),
        ("0\n", "order must be >= 1"),
        ("2\n0 1\n1 x\n0 0\n0 1\n", "line 3 is not a table row"),
        ("2\n0 1\n1 0\n0 0 0\n0 1\n", "line 4 has 3 entries, expected 2"),
        ("2\n0 1\n1 0\n0 0\n0 1.5\n", "line 5 is not a table row"),
        ("2\n0 1\n1 0\n0 0\n0 x\n", "line 5 is not a table row"),
    ],
)
def test_file_loader_names_a_malformed_header_or_row(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_ring_file(path)
    assert str(exc.value) == f"{path}: {message}"
    with pytest.raises(RingSpecError) as exc:
        parse_ring_spec(f"file:{path}")
    assert str(exc.value).startswith(f"{path}: {message} (at position ")


def test_file_loader_rejects_short_file(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3\n0 1 2\n")
    with pytest.raises(ValueError, match="table rows"):
        load_ring_file(path)


def test_every_builtin_spec_validates(builtin_rings):
    assert len(builtin_rings) >= 50
    labels = {r.label for r in builtin_rings}
    assert "Zn:6" in labels and "M:2:Zn:2" in labels
    for r in builtin_rings:
        assert validate_ring(r).ok, r.label


def _renumbered(ring, rng):
    """An isomorphic copy of ring with its nonzero elements renumbered at random."""
    new = np.array([0] + rng.sample(range(1, ring.order), ring.order - 1))
    old = np.argsort(new)
    add, mul = (new[np.array(t)[old][:, old]] for t in (ring.add, ring.mul))
    one = None if ring.one is None else int(new[ring.one])
    return Ring.from_tables(ring.order, add, mul, one=one, label=ring.label)


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """The shapes np.loadtxt returns, one per call."""
    shapes = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        table = loadtxt(*args, **kwargs)
        shapes.append(table.shape)
        return table

    monkeypatch.setattr(np, "loadtxt", counted)
    return shapes


def test_file_loader_reloads_every_corpus_ring_renumbered(tmp_path, loadtxt_calls):
    """Every builtin and hunt shape, renumbered, reloads with its tables and unity, by np.loadtxt."""
    rng = random.Random(20261021)
    shapes = []
    for i, spec in enumerate(builtin_specs() + HUNT_SHAPES):
        ring = parse_ring_spec(spec)
        if ring.order > 1:
            ring = _renumbered(ring, rng)
        path = tmp_path / f"ring{i}.txt"
        write_ring_file(ring, path)
        loaded = load_ring_file(path)
        assert (loaded.add, loaded.mul, loaded.one) == (ring.add, ring.mul, ring.one), spec
        shapes += [(ring.order, ring.order)] * 2  # the addition and the multiplication table
    assert loadtxt_calls == shapes


# table files at the edge of what np.loadtxt and int() read alike, each with the loader's message
# ({} stands for the path; None: the file loads as Zn:2 with no unity); the per-row parse
# gives every message
@pytest.mark.parametrize(
    "text, message",
    [
        (b"2\n0 1\n1\xa00\n0 0\n0 1\n", "{}: line 3 is not a table row"),
        (b"2\n0 1\n1 0\n0\x850\n0 1\n", "{}: line 4 is not a table row"),
        (b"2\n0 1\n1 0\n0 0\n0\x1c1\n", "{}: line 5 is not a table row"),
        (b"2\n0 0_1\n1 0\n0 0\n0 1\n", None),
        (b"2\n0 +1\n1 0\n0 0\n0 +1\n", None),
        (b"2\r\n0 1\r\n1 0\r\n0 0\r\n0 1\r\n", None),
        (b"2\n0 1\n1 0\n0 0\n0 9223372036854775808\n",
         "multiplication table entry 9223372036854775808 out of range [0, 2)"),
        (f"2\n0 1\n1 0\n0 0\n0 {10**30}\n".encode(),
         f"multiplication table entry {10**30} out of range [0, 2)"),
        (b"2\n0 1\n1 -1\n0 0\n0 1\n", "addition table entry -1 out of range [0, 2)"),
        (b"2\n0 1\n1\n0 0\n0 1\n", "{}: line 3 has 1 entries, expected 2"),
        (b"2\n0 1 0\n1 0 1\n0 0\n0 1\n", "{}: line 2 has 3 entries, expected 2"),
        (b"2\n0 1\n1 0\n0 0\n0 1.5\n", "{}: line 5 is not a table row"),
    ],
)
def test_file_loader_edge_cases_load_as_by_rows(tmp_path, monkeypatch, text, message):
    path = tmp_path / "edge.txt"
    path.write_bytes(text)

    def outcome():
        try:
            ring = load_ring_file(path)
        except ValueError as exc:
            return str(exc)
        return ring.add, ring.mul, ring.one

    expected = (make_zn(2).add, make_zn(2).mul, None) if message is None else message.format(path)
    assert outcome() == expected
    monkeypatch.setattr(np, "loadtxt", None)  # every table by the per-row parse
    assert outcome() == expected


@pytest.fixture
def built(monkeypatch):
    """The labels of the rings Ring.from_tables builds, in order."""
    labels = []
    from_tables = Ring.from_tables.__func__

    def counted(cls, *args, **kwargs):
        ring = from_tables(cls, *args, **kwargs)
        labels.append(ring.label)
        return ring

    monkeypatch.setattr(Ring, "from_tables", classmethod(counted))
    return labels


def test_parse_builds_a_repeated_sub_spec_once(built):
    ring = parse_ring_spec("dsum(Zn:4,Zn:4)")
    assert built == ["Zn:4", "dsum(Zn:4,Zn:4)"]
    parse_ring_spec("dsum(Zn:4,Zn:4)")
    assert built.count("Zn:4") == 2  # a map lives for one call only
    z4 = make_zn(4)
    assert ring == make_direct_sum(z4, z4)


def test_builtin_corpus_builds_each_ring_once(built):
    build_rings(CorpusConfig(specs=builtin_specs()))
    assert len(built) == 77  # 79 specs, two of them quotients, which from_tables does not build
    assert len(set(built)) == len(built)


def test_corpus_rings_equal_their_specs_parsed_alone():
    specs = builtin_specs() + HUNT_SHAPES + ("quot(T:2:Zn:4,gen(2))", "quot(Zn:12,gen(4))")
    for spec, ring in zip(specs, build_rings(CorpusConfig(specs=specs)), strict=True):
        alone = parse_ring_spec(spec)
        assert (ring.add, ring.mul, ring.one, ring.label) == (alone.add, alone.mul, alone.one,
                                                              alone.label), spec


def test_corpus_keeps_no_operand_after_the_call(monkeypatch):
    refs = {}
    from_tables = Ring.from_tables.__func__

    def watched(cls, *args, **kwargs):
        ring = from_tables(cls, *args, **kwargs)
        refs[ring.label] = weakref.ref(ring)
        return ring

    monkeypatch.setattr(Ring, "from_tables", classmethod(watched))
    rings = build_rings(CorpusConfig(specs=("dsum(Zn:4,Zn:5)", "T:2:Zn:3", "dsum(Zn:4,Zn:3)")))
    gc.collect()
    assert sorted(label for label, ref in refs.items() if ref() is not None) == sorted(
        r.label for r in rings)
    assert refs["Zn:4"]() is None and refs["Zn:3"]() is None


def test_corpus_keeps_no_quotient_operand(built):
    build_rings(CorpusConfig(specs=("quot(Zn:64,gen(2))", "Zn:64")))
    assert built == ["Zn:64", "Zn:64"]
    built.clear()
    build_rings(CorpusConfig(specs=("Zn:64", "quot(Zn:64,gen(2))", "quot(dsum(Zn:2,Zn:2),gen(1))")))
    assert built == ["Zn:64", "Zn:2", "dsum(Zn:2,Zn:2)"]  # an earlier spec is reused inside quot
