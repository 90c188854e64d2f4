"""CLI behavior: output shapes, exit codes, JSON schemas."""

import hashlib
import json

import jsonschema
import pytest

from nilary import classify, cli, rings
from nilary.cli import main
from nilary.corpus import MAX_CORPUS_BYTES

WITNESS_SCHEMA = {
    "type": "object",
    "properties": {
        "variant": {"enum": ["none", "element", "element-pair", "ideal-pair"]},
        "a": {"type": "integer"},
        "b": {"type": "integer"},
        "n": {"type": "integer"},
        "j": {"type": "array", "items": {"type": "integer"}},
        "k": {"type": "array", "items": {"type": "integer"}},
    },
    "required": ["variant"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "ring": {"type": "string"},
        "ideal": {"type": "array", "items": {"type": "integer"}},
        "proper": {"type": "boolean"},
        "verdicts": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "properties": {
                    "holds": {"type": "boolean"},
                    "witness": WITNESS_SCHEMA,
                    "na": {"type": "boolean"},
                },
                "required": ["holds", "witness", "na"],
                "additionalProperties": False,
            },
        },
        "char": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "properties": {
                        "value": {"type": "integer"},
                        "factors": {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "integer"}},
                        },
                    },
                    "required": ["value", "factors"],
                    "additionalProperties": False,
                },
            ]
        },
    },
    "required": ["ring", "ideal", "proper", "verdicts", "char"],
    "additionalProperties": False,
}

HARNESS_SCHEMA = {
    "type": "object",
    "properties": {
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "id": {"type": "string"},
                    "pass": {"type": "boolean"},
                    "instances": {"type": "integer"},
                    "hypothesis_instances": {"type": "integer"},
                    "violations": {"type": "array"},
                    "warning": {"type": "string"},
                },
                "required": ["id", "pass", "instances", "hypothesis_instances", "violations"],
                "additionalProperties": False,
            },
        },
        "corpus": {
            "type": "object",
            "properties": {"rings": {"type": "array", "items": {"type": "string"}}},
            "required": ["rings"],
            "additionalProperties": False,
        },
    },
    "required": ["cases", "corpus"],
    "additionalProperties": False,
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "Zn:6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("ring Zn:6")
    assert "char 6=2*3" in lines[0]
    zero_row = next(ln for ln in lines if ln.startswith("{0}"))
    header = next(ln for ln in lines if ln.startswith("ideal"))
    cols = header.split()
    cells = zero_row.split()
    verdict = dict(zip(cols[2:], cells[2:]))
    assert verdict["wn"] == "T" and verdict["ni"] == "F"


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "Zn:12", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 6
    for rep in reports:
        jsonschema.validate(rep, REPORT_SCHEMA)


def test_classify_generated_ideal(capsys):
    code, out, _ = run(capsys, "classify", "Zn:12", "--ideal", "4", "--json")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["ideal"] == [0, 4, 8]
    assert rep["verdicts"]["right_primary"]["holds"] is True


def test_classify_empty_ideal_flag(capsys):
    code, out, _ = run(capsys, "classify", "M:2:Zn:2", "--ideal", "--json")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["ideal"] == [0]
    assert rep["verdicts"]["completely_nilary"]["holds"] is False


@pytest.mark.parametrize("ideal, token", [("x", "'x'"), ("2,x3", "'x3'"), ("1,-1", "'-1'")])
def test_classify_bad_ideal_token_exits_2(capsys, ideal, token):
    code, out, err = run(capsys, "classify", "Zn:5", "--ideal", ideal)
    assert code == 2 and out == ""
    assert err == f"error: --ideal takes comma-separated element indices, got {token}\n"


def test_classify_ideal_element_out_of_range_exits_2(capsys):
    code, out, err = run(capsys, "classify", "Zn:5", "--ideal", "2,99")
    assert code == 2 and out == ""
    assert err == "error: element 99 out of range for Zn:5\n"


def test_ideals_text_and_oracle(capsys):
    code, out, _ = run(capsys, "ideals", "Zn:12", "--oracle")
    assert code == 0
    assert "6 ideal(s)" in out
    assert "subset scan agrees" in out


def test_ideals_kind_and_json(capsys):
    code, out, _ = run(capsys, "ideals", "M:2:Zn:2", "--kind", "right", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert data["ideals"][0] == {"kind": "right", "elements": [0]}


def test_ideals_oracle_skipped_above_cap(capsys):
    code, out, _ = run(capsys, "ideals", "Zn:18", "--oracle")
    assert code == 0
    assert "oracle skipped" in out


def test_verify_single_case(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "--case", "E2.2")
    assert code == 0
    assert "E2.2" in out and "ALL PASS" in out


def test_verify_json_schema_and_determinism(capsys):
    code, out1, _ = run(capsys, "verify", "--builtin", "--max-order", "8", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "--builtin", "--max-order", "8", "--json")
    assert code == 0
    assert out1 == out2
    jsonschema.validate(json.loads(out1), HARNESS_SCHEMA)


# the hunt-noncomm benchmark workload's query; its one-sided atoms read right and left lattices
ONESIDED_QUERY = ("(weakly_nilary_right and not weakly_nilary_left)"
                  " or (right_primary and not left_primary)"
                  " or (weakly_nilary and not nilary)")
# sha256 of the stdout of each command, pinned so that a refactor keeps its outputs byte for byte
GOLDEN_OUTPUTS = {
    ("verify", "--builtin", "--json"):
        "7d99e3145536da70b030ca8537728efd2bbb40ff882d9f791d2255e06ddb94d1",
    ("classify", "T:2:Zn:8", "--json"):
        "cdab96cf89da348b9cb31dfc1ca77c06d43a899e613d4eda2b3793ab4f170906",
    ("hunt", "--builtin", "--target", "any", "--json", ONESIDED_QUERY):
        "4f92558ae093969e78c7072d729f26dc42e3d76f4b55341d0550464b5fbb5121",
    ("classify", "T:3:Zn:2", "--json"):
        "a48ff7ab763f29ac93cad23ef49508f9e6f06785e4b1dc07d3951812fc84b58f",
}


@pytest.mark.parametrize("argv", list(GOLDEN_OUTPUTS), ids=" ".join)
def test_golden_outputs_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OUTPUTS[argv]


def test_hunt_exit_codes(capsys):
    code, out, _ = run(capsys, "hunt", "--builtin", "--max-order", "8", "weakly_nilary and not nilary")
    assert code == 0
    assert "Zn:6" in out
    code, _, _ = run(capsys, "hunt", "--builtin", "--max-order", "8", "completely_prime and not prime")
    assert code == 1


def test_hunt_json(capsys):
    code, out, _ = run(
        capsys, "hunt", "--builtin", "--max-order", "6", "--json", "prime and commutative"
    )
    assert code == 0
    data = json.loads(out)
    assert data["target"] == "ring-zero-ideal"
    assert {"ring": "Zn:2", "ideal": [0]} in data["matches"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "dsum(" * 3000 + "Zn:1" + ",Zn:1)" * 3000], "ring spec is nested too deeply"),
        (["verify", "--corpus", "DEEP_JSON"], "JSON is nested too deeply"),
        (["hunt", "--builtin", "--max-order", "4", "(" * 400 + "unital" + ")" * 400],
         "query is nested too deeply"),
        (["hunt", "--builtin", "--max-order", "4", "not " * 1200 + "unital"],
         "query is nested too deeply"),
    ],
    ids=["spec", "corpus", "parentheses", "not"],
)
def test_deeply_nested_input_exits_2(capsys, tmp_path, argv, message):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, *(str(deep) if a == "DEEP_JSON" else a for a in argv))
    assert code == 2 and message in err
    assert err.startswith("error: ") and err.count("\n") == 1  # one message, no traceback


def test_long_flat_query_chains_run(capsys):
    code, one, _ = run(capsys, "hunt", "--builtin", "--max-order", "4", "--json", "unital")
    assert code == 0
    for op in ("and", "or"):
        code, out, _ = run(capsys, "hunt", "--builtin", "--max-order", "4", "--json",
                           f" {op} ".join(["unital"] * 5000))
        assert code == 0
        assert json.loads(out)["matches"] == json.loads(one)["matches"], op


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "classify", "Zn:bad")[0] == 2
    assert run(capsys, "verify")[0] == 2  # no corpus chosen
    assert run(capsys, "hunt", "--builtin", "no_such_predicate")[0] == 2
    assert run(capsys, "nope")[0] == 2
    assert run(capsys, "classify", "M:2:Zn:8", "--max-order", "100")[0] == 2


@pytest.mark.parametrize("argv", [["verify", "--builtin", "--corpus", "F"],
                                  ["hunt", "q", "--corpus", "F", "--builtin"]])
def test_builtin_and_corpus_together_exit_2(capsys, tmp_path, argv):
    """A run takes exactly one corpus: --builtin with --corpus is a usage error."""
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(["Zn:4"]))
    code, out, err = run(capsys, *(str(corpus) if a == "F" else a for a in argv))
    assert code == 2 and not out
    message = err.splitlines()[-1]  # argparse's error line, below the usage text
    assert "--builtin" in message and "--corpus" in message and "not allowed" in message


def test_oversized_cyclic_spec_exits_2_before_building(capsys):
    # 10^10 table entries if the cap were checked only after construction
    code, _, err = run(capsys, "classify", "Zn:100000", "--max-order", "10")
    assert code == 2
    assert "exceeds cap 10" in err


def test_construction_cap_is_the_only_order_cap(capsys, monkeypatch):
    code, out, _ = run(capsys, "classify", "Zn:1100", "--json")
    assert code == 0
    assert len(json.loads(out)) == 18  # one ideal per divisor of 1100

    def tables(*args):
        raise AssertionError("cyclic tables built")

    monkeypatch.setattr(rings, "_cyclic", tables)
    code, _, err = run(capsys, "classify", "Zn:4097")
    assert code == 2 and "exceeds cap 4096" in err


@pytest.mark.parametrize("spec", ["M:300:Zn:1", "M:3000:Zn:2", "M:60000:Zn:2", "T:200000:Zn:3"])
def test_oversized_matrix_dimension_exits_2_before_building(capsys, monkeypatch, spec):
    # the order of M:300:Zn:1 is 1, and that of T:200000:Zn:3 has ~10^10 digits
    def tables(*args):
        raise AssertionError("matrix tables built")

    monkeypatch.setattr(rings, "_matrix_tables", tables)
    code, _, err = run(capsys, "classify", spec)
    assert code == 2
    (line,) = err.splitlines()
    assert f"matrix dimension {spec.split(':')[1]} " in line and "exceeds cap 4096" in line


def test_zero_max_order_is_the_construction_cap(capsys, monkeypatch):
    # a cap of 0 is a cap, not "no cap": construction refuses before building
    code, _, err = run(capsys, "classify", "Zn:1500", "--max-order", "0")
    assert code == 2
    assert "exceeds cap 0" in err and "--max-order" not in err
    monkeypatch.setenv("NILARY_MAX_ORDER", "0")
    code, _, err = run(capsys, "ideals", "Zn:1500")
    assert code == 2
    assert "exceeds cap 0" in err and "--max-order" not in err


def test_env_max_order(capsys, monkeypatch):
    monkeypatch.setenv("NILARY_MAX_ORDER", "4")
    code, out, _ = run(capsys, "verify", "--builtin", "--json")
    assert code == 0
    labels = json.loads(out)["corpus"]["rings"]
    assert "Zn:4" in labels and "Zn:6" not in labels


def test_corpus_file(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(["Zn:4", "Zn:6"]))
    code, out, _ = run(capsys, "verify", "--corpus", str(corpus), "--json")
    assert code == 0
    assert json.loads(out)["corpus"]["rings"] == ["Zn:4", "Zn:6"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(["Zn:nope"]))
    assert run(capsys, "verify", "--corpus", str(bad))[0] == 2


@pytest.mark.parametrize("argv", [["verify", "--corpus", ""], ["hunt", "unital", "--corpus", ""]])
def test_empty_corpus_path_exits_2(capsys, argv):
    """An empty --corpus names no file; the message says so rather than naming '.'."""
    code, _, err = run(capsys, *argv)
    assert code == 2 and err == "error: corpus path is empty\n"


def test_oversized_corpus_file_exits_2(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    text = json.dumps(["Zn:4"])
    corpus.write_text(text + " " * (MAX_CORPUS_BYTES - len(text)))
    assert run(capsys, "verify", "--corpus", str(corpus))[0] == 0  # exactly the bound
    with corpus.open("a") as fh:
        fh.write(" ")
    code, _, err = run(capsys, "verify", "--corpus", str(corpus))
    assert code == 2 and f"{corpus}: corpus file is larger than" in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_corpus_file_object_form(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"specs": ["Zn:4", "Zn:6", "Zn:9"], "max_order": 6}))
    # max_order filters Zn:9
    code, out, _ = run(capsys, "verify", "--corpus", str(corpus), "--json")
    assert code == 0
    assert json.loads(out)["corpus"]["rings"] == ["Zn:4", "Zn:6"]


def test_corpus_file_lattice_cap(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"specs": ["Zn:12"], "max_lattice": 3}))
    assert run(capsys, "verify", "--corpus", str(corpus))[0] == 2  # 6 ideals > 3


def test_lattice_cap_preflight_enumerates_once(capsys, tmp_path, monkeypatch):
    calls = []
    enumerate_ideals = classify.enumerate_ideals

    def counted(r, *args, **kwargs):
        calls.append((r.label, kwargs.get("max_ideals")))
        return enumerate_ideals(r, *args, **kwargs)

    for module in (cli, classify):
        monkeypatch.setattr(module, "enumerate_ideals", counted)
    classify.clear_caches()
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"specs": ["M:2:Zn:3", "T:2:Zn:4"], "max_lattice": 100000}))
    code, _, _ = run(capsys, "hunt", "--corpus", str(corpus), "nilary")
    assert code == 0
    assert sorted(calls) == [("M:2:Zn:3", 100000), ("T:2:Zn:4", 100000)]
    # over the cap with the lattices cached: their sizes decide, with no second enumeration
    corpus.write_text(json.dumps({"specs": ["M:2:Zn:3", "T:2:Zn:4"], "max_lattice": 3}))
    code, _, err = run(capsys, "hunt", "--corpus", str(corpus), "nilary")
    assert code == 2 and "lattice exceeds count cap 3" in err
    assert len(calls) == 2
    # over the cap on fresh contexts: the enumeration itself stops at the cap, so a huge
    # lattice is never enumerated in full
    classify.clear_caches()
    code, _, err = run(capsys, "hunt", "--corpus", str(corpus), "nilary")
    assert code == 2 and "lattice exceeds count cap 3" in err
    assert calls[-1] == ("T:2:Zn:4", 3)


def test_lattice_cap_preflight_past_the_context_cache_enumerates_once(capsys, tmp_path, monkeypatch):
    """260 rings overflow the 256-entry context cache; the run finds the pre-flight's contexts."""
    calls = []
    enumerate_ideals = classify.enumerate_ideals

    def counted(r, *args, **kwargs):
        calls.append(r.label)
        return enumerate_ideals(r, *args, **kwargs)

    monkeypatch.setattr(classify, "enumerate_ideals", counted)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"specs": [f"Zn:{n}" for n in range(1, 261)], "max_lattice": 100000}))
    classify.clear_caches()
    try:
        code, out, _ = run(capsys, "hunt", "--corpus", str(corpus), "nilary")
    finally:
        classify.clear_caches()
    assert code == 0 and out.endswith("\n72 match(es) for: nilary\n")  # 1 and 71 prime powers
    assert sorted(calls) == sorted(f"Zn:{n}" for n in range(1, 261))


def test_table_file_entry_beyond_int64_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.tbl"
    path.write_text(f"2\n0 1\n1 {10**30}\n0 0\n0 1\n")
    code, _, err = run(capsys, "classify", f"file:{path}")
    assert code == 2 and f"entry {10**30} out of range" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_order", "10"),
        ("max_order", True),
        ("max_order", -1),
        ("max_lattice", "x"),
        ("predicates", 5),
        ("predicates", ["nilary", "no_such_predicate"]),
        ("format", "xml"),
        ("max_ordr", 1),
    ],
)
def test_corpus_file_bad_key_exits_2(capsys, tmp_path, key, value):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"specs": ["Zn:4"], key: value}))
    code, _, err = run(capsys, "verify", "--corpus", str(corpus))
    assert code == 2
    assert repr(key) in err


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"spex": ["Zn:4"]}', "expected a JSON list of specs or an object with 'specs'"),
        ('"Zn:4"', "expected a JSON list of specs or an object with 'specs'"),
        ('{"specs": "Zn:4"}', "'specs' must be a list of strings"),
        ('["Zn:4", 4]', "'specs' must be a list of strings"),
    ],
)
def test_corpus_file_of_the_wrong_shape_exits_2(capsys, tmp_path, content, message):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(content)
    code, out, err = run(capsys, "verify", "--corpus", str(corpus))
    assert code == 2 and out == ""
    assert err == f"error: {corpus}: {message}\n"


def test_corpus_max_order_caps_construction(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    # Zn:5000 is above max_order: dropped without being built
    corpus.write_text(json.dumps({"specs": ["Zn:5000", "Zn:4"], "max_order": 10}))
    code, out, _ = run(capsys, "verify", "--corpus", str(corpus), "--json")
    assert code == 0
    assert json.loads(out)["corpus"]["rings"] == ["Zn:4"]
    # no max_order, or one at or above the construction cap: Zn:5000 is an error
    for extra in ({}, {"max_order": 4096}, {"max_order": 6000}):
        corpus.write_text(json.dumps({"specs": ["Zn:5000", "Zn:4"], **extra}))
        code, _, err = run(capsys, "verify", "--corpus", str(corpus))
        assert code == 2 and "exceeds cap 4096" in err, extra


@pytest.mark.parametrize("value", ["-3", "abc", "1.5"])
def test_bad_env_max_order_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("NILARY_MAX_ORDER", value)
    for argv in (["verify", "--builtin"], ["classify", "Zn:4"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "NILARY_MAX_ORDER" in err and repr(value) in err, argv


def test_negative_max_order_flag_exits_2(capsys):
    for argv in (["verify", "--builtin"], ["ideals", "Zn:4"]):
        code, _, err = run(capsys, *argv, "--max-order", "-3")
        assert code == 2 and "--max-order" in err, argv


def test_corpus_with_ring_file(capsys, tmp_path):
    from nilary import make_zero_mul, write_ring_file

    ring_path = tmp_path / "zm5.ring"
    write_ring_file(make_zero_mul(5), ring_path)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([f"file:{ring_path}", "Zn:4"]))
    code, out, _ = run(capsys, "verify", "--corpus", str(corpus), "--json")
    assert code == 0
    assert json.loads(out)["corpus"]["rings"] == [f"file:{ring_path}", "Zn:4"]
