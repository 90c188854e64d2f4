"""Ring spec DSL parsing and the table file format."""

import tracemalloc

import pytest

from nilary import (
    RingSpecError,
    SizeCapError,
    load_ring_file,
    make_direct_sum,
    make_matrix_ring,
    make_zero_mul,
    make_zn,
    parse_ring_spec,
    validate_ring,
    write_ring_file,
)


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


@pytest.mark.parametrize("entry", [10**30, -1])
def test_file_loader_rejects_an_entry_out_of_range(tmp_path, entry):
    path = tmp_path / "z2.txt"
    path.write_text(f"2\n0 1\n1 0\n0 0\n0 {entry}\n")
    with pytest.raises(ValueError, match=rf"multiplication table entry {entry} out of range \[0, 2\)"):
        load_ring_file(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty ring file"),
        ("two\n0\n0\n", "first line must be the ring order"),
        ("0\n", "order must be >= 1"),
        ("2\n0 1\n1 x\n0 0\n0 1\n", "line 3 is not a table row"),
        ("2\n0 1\n1 0\n0 0 0\n0 1\n", "line 4 has 3 entries, expected 2"),
    ],
)
def test_file_loader_names_a_malformed_header_or_row(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_ring_file(path)
    assert str(exc.value) == f"{path}: {message}"


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
