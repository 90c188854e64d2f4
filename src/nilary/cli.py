"""Command-line interface: classify, ideals, verify, hunt.

Exit codes: 0 success (or all cases pass), 1 hunt found nothing or a
harness case failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from .classify import PREDICATE_NAMES, PropertyReport, classify_ideal, full_report, ring_context
from .corpus import build_builtin_corpus, build_rings, load_corpus_file
from .hunt import parse_query, run_hunt
from .ideals import (
    BRUTE_FORCE_ORDER_CAP,
    TWO_SIDED,
    enumerate_ideals,
    enumerate_ideals_bruteforce,
    ideal_generated_by,
)
from .rings import DEFAULT_SIZE_CAP
from .specs import parse_ring_spec
from .theorems import CASE_IDS, render_table, report_json, run_all

ABBREV = {
    "completely_prime": "cp",
    "completely_semiprime": "csp",
    "completely_nilary": "cn",
    "prime": "pr",
    "semiprime": "sp",
    "nilary": "ni",
    "p_nilary": "pni",
    "right_primary": "rp",
    "left_primary": "lp",
    "p_right_primary": "prp",
    "p_left_primary": "plp",
    "completely_right_primary": "crp",
    "completely_left_primary": "clp",
    "weakly_nilary": "wn",
    "weakly_p_nilary": "wpn",
    "weakly_nilary_right": "wnr",
    "weakly_nilary_left": "wnl",
}

_EPILOG = """\
ring spec DSL:
  Zn:<n> | M:<k>:<spec> | T:<k>:<spec> | dsum(<spec>,<spec>) | zmul:<n>
  | quot(<spec>,gen(<e1>[,<e2>...])) | file:<path>

predicate abbreviations (classify table columns; T=holds, F=fails, -=not applicable):
"""


def _epilog() -> str:
    rows = "\n".join(f"  {ABBREV[name]:<4} {name}" for name in PREDICATE_NAMES)
    return _EPILOG + rows + "\n\nenvironment: NILARY_MAX_ORDER caps ring orders when --max-order is absent."


def _max_order(args) -> Optional[int]:
    """--max-order, else NILARY_MAX_ORDER when set, as a non-negative integer."""
    name, value = "--max-order", args.max_order
    if value is None:
        name, value = "NILARY_MAX_ORDER", os.environ.get("NILARY_MAX_ORDER")
    if value in (None, ""):
        return None
    if not str(value).strip().isdecimal():
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _corpus_rings(args) -> tuple[list, list]:
    """The corpus's rings, and the contexts a max_lattice pre-flight keeps live for the run."""
    config = build_builtin_corpus() if args.builtin else load_corpus_file(args.corpus)
    cap = _max_order(args)
    if cap is not None:
        config = dataclasses.replace(config, max_order=cap)
    rings = build_rings(config)
    held = [ring_context(r) for r in rings] if config.max_lattice is not None else []
    for ctx in held:  # pre-flight before any classification; the run finds these contexts again
        ctx.index(max_ideals=config.max_lattice)
    return rings, held


def _parse_single(args):
    """Parse one ring spec, with the order cap applied at construction time."""
    cap = _max_order(args)
    if cap is None or cap > DEFAULT_SIZE_CAP:
        cap = DEFAULT_SIZE_CAP
    return parse_ring_spec(args.spec, size_cap=cap)


def _print_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _ideal_text(elements: Sequence[int]) -> str:
    return "{" + ",".join(map(str, elements)) + "}"


def _print_reports(reports: list[PropertyReport], as_json: bool) -> None:
    if as_json:
        _print_json([rep.to_json() for rep in reports])
        return
    head = reports[0]
    flags = [w for w, on in (("commutative", head.commutative), ("unital", head.unital),
                             ("nil", head.nil)) if on]
    print(f"ring {head.ring_label}  {_char_text(head)}  {' '.join(flags)}".rstrip())
    width = max(len("ideal"), max(len(_ideal_text(rep.ideal_elements)) for rep in reports))
    cols = [ABBREV[name] for name in PREDICATE_NAMES]
    print(f"{'ideal':<{width}} proper " + " ".join(f"{c:<3}" for c in cols))
    for rep in reports:
        cells = []
        for name in PREDICATE_NAMES:
            v = rep.verdicts[name]
            cells.append("-" if v.na else ("T" if v.holds else "F"))
        print(
            f"{_ideal_text(rep.ideal_elements):<{width}} "
            f"{'T' if rep.proper else 'F':<6} " + " ".join(f"{c:<3}" for c in cells)
        )


def _char_text(rep: PropertyReport) -> str:
    if rep.char is None:
        return "char -"
    fact = "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in rep.char.factors) or "1"
    return f"char {rep.char.value}={fact}"


def cmd_classify(args) -> int:
    ring = _parse_single(args)
    if args.ideal is None:
        reports = full_report(ring)
    else:
        tokens = [x for x in args.ideal.split(",") if x != ""]
        if bad := [x for x in tokens if not x.strip().isdecimal()]:
            raise ValueError(f"--ideal takes comma-separated element indices, got {bad[0]!r}")
        ideal = ideal_generated_by(ring, [int(x) for x in tokens], TWO_SIDED)
        reports = [classify_ideal(ideal)]
    _print_reports(reports, args.json)
    return 0


def cmd_ideals(args) -> int:
    ring = _parse_single(args)
    lattice = enumerate_ideals(ring, args.kind)
    oracle_checked, oracle_note = False, None
    if args.oracle:
        if ring.order <= BRUTE_FORCE_ORDER_CAP:
            oracle = enumerate_ideals_bruteforce(ring, args.kind)
            if oracle.masks() != lattice.masks():
                print(
                    f"ORACLE MISMATCH: closure found {len(lattice)} ideals, "
                    f"subset scan found {len(oracle)}",
                    file=sys.stderr,
                )
                return 1
            oracle_checked, oracle_note = True, "oracle: subset scan agrees"
        else:
            oracle_note = f"oracle skipped: order {ring.order} > {BRUTE_FORCE_ORDER_CAP}"
    if args.json:
        _print_json({"ring": ring.label, "kind": args.kind, "count": len(lattice),
                     "ideals": [i.to_json() for i in lattice], "oracle_checked": oracle_checked})
        return 0
    print(f"ring {ring.label}  kind {args.kind}  {len(lattice)} ideal(s)")
    for i in lattice:
        print(f"  size {i.size:>3}  {_ideal_text(i.elements)}")
    if oracle_note:
        print(oracle_note)
    return 0


def cmd_verify(args) -> int:
    rings, _held = _corpus_rings(args)
    case_ids = args.case if args.case else None
    results = run_all(rings, case_ids)
    if args.json:
        _print_json(report_json(results, rings))
    else:
        print(render_table(results))
    return 0 if all(res.passed for res in results) else 1


def cmd_hunt(args) -> int:
    target = "any-ideal" if args.target == "any" else "ring-zero-ideal"
    query = parse_query(args.query, target)
    rings, _held = _corpus_rings(args)
    matches = list(run_hunt(rings, query))
    if args.json:
        _print_json({"query": query.text, "target": query.target,
                     "matches": [m.to_json() for m in matches]})
    else:
        for m in matches:
            print(f"{m.ring_label}  ideal {_ideal_text(m.ideal_elements)}")
        print(f"{len(matches)} match(es) for: {query.text}")
    return 0 if matches else 1


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    corpus = p.add_mutually_exclusive_group(required=True)
    corpus.add_argument("--builtin", action="store_true", help="use the builtin corpus")
    corpus.add_argument("--corpus", metavar="FILE", help="corpus JSON file")
    p.add_argument("--max-order", type=int, default=None, help="drop rings above this order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilary",
        description="Finite-ring workbench: ideal lattices, nilary-type predicates, "
        "theorem verification and counterexample hunting.",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="predicate profile of a ring's ideals")
    p.add_argument("spec", help="ring spec (DSL)")
    p.add_argument(
        "--ideal",
        nargs="?",
        const="",
        default=None,
        metavar="E1,E2,...",
        help="classify the ideal generated by these elements (empty = zero ideal)",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("ideals", help="enumerate the ideal lattice")
    p.add_argument("spec")
    p.add_argument("--kind", choices=["two-sided", "left", "right"], default="two-sided")
    p.add_argument("--oracle", action="store_true", help="cross-check with the 2^n subset scan")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(fn=cmd_ideals)

    p = sub.add_parser("verify", help="run the theorem harness over a corpus")
    _add_corpus_flags(p)
    p.add_argument("--case", action="append", choices=list(CASE_IDS), help="run only this case")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("hunt", help="search a corpus for predicate combinations")
    p.add_argument("query", help="boolean query, e.g. 'weakly_nilary and not nilary'")
    _add_corpus_flags(p)
    p.add_argument("--target", choices=["zero", "any"], default="zero",
                   help="quantify over zero ideals only, or every ideal")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_hunt)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
