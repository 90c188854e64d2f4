"""Instance-level verification of the nilary-ideal propositions.

Each registered case quantifies one statement over a corpus of rings and
reports every violating instance with replayable witnesses. Implications
are checked per instance (skipped when the hypothesis fails) and the
number of hypothesis-satisfying instances is reported separately, so a
vacuous pass is visible as such.

A case is a body ``body(run, ctx)`` over one ring's context, and
:func:`_case` is the one loop that sweeps it over the corpus's (ring,
context) pairs: it creates the case's one record, a :class:`TheoremResult`,
sets ``run.label`` to each ring's label in turn (rings that differ only in
their labels share a context), has the record visit the context, and stamps
the elapsed time on the record. The body runs only if the context's case
memo, ``RingContext.outcomes``, lacks the case: it keeps the body's counts
and unlabelled violations on those tables, so a repeated run (whose
``render_table`` ms column shows replay time), or a ring with an earlier
ring's tables, replays them under the swept ring's label; ``clear_caches()``
drops it with the contexts. :func:`run_all` resolves each ring's context
once and hands the pairs to every sweep, so a context lives for the whole
run. The record does the counting. A body only reports:
``run.instance(hypothesis)`` once per instance (or ``run.count`` for many at
once), ``run.violate(description, ideal_mask, witnesses)`` per failure (the
record adds the ring's label and keeps the mask; no result holds a ring, so
replay finds it by label in the corpus), and an early ``return`` skips a
ring whose hypothesis fails outright. A case built with ``own=`` checks that
one ring instead of the corpus, so the worked examples of the paper run
whatever corpus is given; their rings, Z_6 and M_2(Z_2), are module
constants built once at import, so a second run builds no ring.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .classify import RingContext, Verdict, Witness, ring_context
from .ideals import TWO_SIDED, elements_mask, mask_elements
from .rings import Ring, make_matrix_ring, make_zn, matrix_entry_index


@dataclass(frozen=True)
class Violation:
    ring_label: str
    description: str
    ideal_mask: int
    witnesses: tuple[tuple[str, Witness], ...]

    @property
    def ideal_elements(self) -> tuple[int, ...]:
        return mask_elements(self.ideal_mask)

    def to_json(self) -> dict:
        return {
            "ring": self.ring_label,
            "ideal": list(self.ideal_elements),
            "description": self.description,
            "witnesses": [
                {"predicate": name, "witness": w.to_json()} for name, w in self.witnesses
            ],
        }


@dataclass
class TheoremResult:
    """One case's record, filled by its sweep as the bodies report instances and violations."""

    case_id: str
    instances: int = 0
    hypothesis_instances: int = 0
    violations: list[Violation] = field(default_factory=list)
    elapsed: float = 0.0
    warning: Optional[str] = None
    label: str = field(default="", compare=False, repr=False)  # the label of the ring being visited

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "id": self.case_id,
            "pass": self.passed,
            "instances": self.instances,
            "hypothesis_instances": self.hypothesis_instances,
            "violations": [v.to_json() for v in self.violations],
            **({"warning": self.warning} if self.warning else {}),
        }

    def instance(self, hypothesis: bool) -> bool:
        self.instances += 1
        if hypothesis:
            self.hypothesis_instances += 1
        return hypothesis

    def count(self, instances: int, hypotheses: int) -> None:
        """Count instances in bulk, hypotheses of them satisfying the hypothesis."""
        self.instances += instances
        self.hypothesis_instances += hypotheses

    def violate(
        self,
        description: str,
        ideal_mask: int,
        witnesses: Sequence[tuple[str, Verdict]] = (),
    ) -> None:
        """Record a violation on the ring being visited, by its label and the ideal's mask."""
        pairs = tuple((name, v.witness) for name, v in witnesses)
        self.violations.append(Violation(self.label, description, ideal_mask, pairs))

    def visit(self, body: Callable[[TheoremResult, RingContext], None], ctx: RingContext) -> None:
        """Add body's outcome on ctx, from the context's case memo or, on a miss, run into it."""
        got = ctx.outcomes.get(self.case_id)
        if got is None:
            i, h, v = self.instances, self.hypothesis_instances, len(self.violations)
            body(self, ctx)
            ctx.outcomes[self.case_id] = (self.instances - i, self.hypothesis_instances - h, tuple(
                (x.description, x.ideal_mask, x.witnesses) for x in self.violations[v:]))
        else:
            self.count(got[0], got[1])
            self.violations.extend(Violation(self.label, *x) for x in got[2])


def _case(
    case_id: str,
    body: Callable[[TheoremResult, RingContext], None],
    own: Optional[Ring] = None,
) -> Callable[[Sequence[tuple[Ring, RingContext]]], TheoremResult]:
    """The sweep of body over (ring, context) pairs, or own's, replaying each context's case
    memo if it holds case_id, else running body; run.label is the swept ring's."""

    def sweep(pairs: Sequence[tuple[Ring, RingContext]]) -> TheoremResult:
        t0 = time.perf_counter()
        run = TheoremResult(case_id)
        for ring, ctx in pairs if own is None else ((own, ring_context(own)),):
            run.label = ring.label
            run.visit(body, ctx)
        run.elapsed = time.perf_counter() - t0
        return run

    return sweep


def _proper_masks(ctx: RingContext) -> list[int]:
    return [m for m in ctx.lattice_masks(TWO_SIDED) if m != ctx.full_mask]


# ---------------------------------------------------------------------------
# case bodies, in registry order


def _p1_2(run: TheoremResult, ctx: RingContext) -> None:
    """Completely prime iff completely semiprime and completely nilary."""
    for m in _proper_masks(ctx):
        cp = ctx.verdict("completely_prime", m)
        csp = ctx.verdict("completely_semiprime", m)
        cn = ctx.verdict("completely_nilary", m)
        run.instance(True)
        if cp.holds != (csp.holds and cn.holds):
            run.violate(
                f"completely_prime={cp.holds} vs completely_semiprime={csp.holds} "
                f"and completely_nilary={cn.holds}",
                m,
                [("completely_prime", cp), ("completely_semiprime", csp),
                 ("completely_nilary", cn)],
            )


def _p1_3(run: TheoremResult, ctx: RingContext) -> None:
    """Products Q_1...Q_n of completely nilary ideals stay completely nilary, for n <= 3.

    Hypothesis: some Q_q in the tuple has its stable power inside every Q_i;
    bit i of ``inside[q]`` says Q_i holds it. So, as bits over x, the
    hypothesis tuples (P, x) are ``inside[q]`` for each q in P whose inside
    holds P, and the x whose inside holds x and P. Their product is pQ_x for
    the first factor p (Q_a, or Q_aQ_b); each distinct p keeps the bits i where
    pQ_i is not completely nilary, read off its index row (a lattice product
    is not iff it is none of the c ideals). Bit order is the tuples' order.
    """
    idx = ctx.index(TWO_SIDED)
    masks, pos, last = idx.masks, idx.pos, idx.stable_powers(ctx)
    cnil = [j for j, m in enumerate(masks) if ctx.verdict("completely_nilary", m).holds]
    good, c = {masks[q] for q in cnil}, len(cnil)
    inside = [sum(1 << i for i, q in enumerate(cnil) if not last[a] & ~masks[q]) for a in cnil]
    holders = [sum(1 << a for a, bits in enumerate(inside) if bits >> i & 1) for i in range(c)]
    own = [bits if bits >> a & 1 else 0 for a, bits in enumerate(inside)]  # inside[q] if q in it
    selfs = sum(1 << a for a, bits in enumerate(own) if bits)
    firsts: dict[int, tuple[Sequence[int] | dict[int, int], int]] = {}

    def first(p: int) -> tuple[Sequence[int] | dict[int, int], int]:
        """p's products, by lattice position, and the bits i where pQ_i is not completely nilary."""
        got = firsts.get(p)
        if got is None:
            j = pos.get(p)  # None only if a faulty product left the lattice
            row = idx.row(ctx, j) if j is not None else {q: ctx.product(p, masks[q]) for q in cnil}
            bad = sum(1 << i for i, q in enumerate(cnil) if (m := row[q]) not in good and (
                m in pos or not ctx.verdict("completely_nilary", m).holds))
            got = firsts[p] = (row, bad)
        return got

    def prefixes():  # P = (a,), then P = (a, b), with its hypothesis tuples (P, x) as bits over x
        for a in range(c):
            yield (a,), own[a] | selfs & holders[a]
        for a, own_a in enumerate(own):
            for b, own_b in enumerate(own):
                hyp = selfs & holders[a] & holders[b] | (own_a if own_a >> b & 1 else 0)
                yield (a, b), hyp | own_b if own_b >> a & 1 else hyp

    hyps = selfs.bit_count()  # the tuples (x,), each product Q_x completely nilary
    for tup, hyp in prefixes():
        hyps += hyp.bit_count()
        if not hyp:
            continue
        row, bad = first(masks[cnil[tup[0]]])
        if len(tup) == 2:
            row, bad = first(row[cnil[tup[1]]])
        bad &= hyp
        while bad:
            i = (bad & -bad).bit_length() - 1
            bad, m = bad & (bad - 1), row[cnil[i]]
            factors = [idx.elements[cnil[q]] for q in (*tup, i)]
            run.violate(f"product of completely nilary ideals {factors} is not completely nilary",
                        m, [("completely_nilary", ctx.verdict("completely_nilary", m))])
    run.count(c + c * c + c * c * c, hyps)


def _p1_3_nilary_quot(run: TheoremResult, ctx: RingContext) -> None:
    """A/Q^n is a nilary ring for every completely nilary Q and n <= 3."""
    cnil = [m for m in ctx.lattice_masks(TWO_SIDED)
            if ctx.verdict("completely_nilary", m).holds]
    for q in cnil:
        # the chain lists Q, Q^2, ... while they differ, so its first three are the distinct Q^n
        for n, power in enumerate(ctx.chain(q)[:3], start=1):
            run.instance(True)
            v = ctx.quotient(power)[0].verdict("nilary", 1)
            if not v.holds:
                run.violate(
                    f"quotient by Q^{n} of Q={mask_elements(q)} is not a nilary ring",
                    power,
                    [("nilary", v)],
                )


def _pquot(run: TheoremResult, ctx: RingContext) -> None:
    """I completely nilary iff A/I is a completely nilary ring."""
    for m in _proper_masks(ctx):
        run.instance(True)
        cn = ctx.verdict("completely_nilary", m)
        qcn = ctx.quotient(m)[0].verdict("completely_nilary", 1)
        if cn.holds != qcn.holds:
            run.violate(
                f"ideal completely_nilary={cn.holds} but quotient ring "
                f"completely_nilary={qcn.holds}",
                m,
                [("completely_nilary", cn), ("completely_nilary", qcn)],
            )


def _hom_pairs(ctx: RingContext):
    """Instances of A -> A/K: (K, I, verdict on I, verdict on I/K), off K's quotient record."""
    for km in ctx.lattice_masks(TWO_SIDED):
        qctx, images = ctx.quotient(km)
        for im, image in images:
            yield (km, im, ctx.verdict("completely_nilary", im),
                   qctx.verdict("completely_nilary", image))


def _phom_fwd(run: TheoremResult, ctx: RingContext) -> None:
    """Surjections forward: I completely nilary implies phi(I) completely nilary."""
    for km, im, v, qv in _hom_pairs(ctx):
        if run.instance(v.holds) and not qv.holds:
            run.violate(
                f"image of completely nilary ideal under quotient by {mask_elements(km)} "
                "is not completely nilary",
                im,
                [("completely_nilary", v), ("completely_nilary", qv)],
            )


def _phom_back(run: TheoremResult, ctx: RingContext) -> None:
    """Surjections backward: phi(I) completely nilary implies I completely nilary."""
    for km, im, v, qv in _hom_pairs(ctx):
        if run.instance(qv.holds) and not v.holds:
            run.violate(
                f"preimage of completely nilary image (kernel {mask_elements(km)}) "
                "is not completely nilary",
                im,
                [("completely_nilary", qv), ("completely_nilary", v)],
            )


def _cquot_corr(run: TheoremResult, ctx: RingContext) -> None:
    """Corollary: I completely nilary in A iff I/K completely nilary in A/K."""
    for km, im, v, qv in _hom_pairs(ctx):
        run.instance(True)
        if v.holds != qv.holds:
            run.violate(
                f"biconditional fails for kernel {mask_elements(km)}: "
                f"ideal={v.holds}, image={qv.holds}",
                im,
                [("completely_nilary", v), ("completely_nilary", qv)],
            )


def _pnil_lift(run: TheoremResult, ctx: RingContext) -> None:
    """A/I completely nilary with I nil forces A completely nilary."""
    nilpotents = elements_mask(a for a, e in enumerate(ctx.idempotents) if e == 0)
    for m in ctx.lattice_masks(TWO_SIDED):
        hyp = not m & ~nilpotents
        if hyp:
            hyp = ctx.quotient(m)[0].verdict("completely_nilary", 1).holds
        if not run.instance(hyp):
            continue
        v = ctx.verdict("completely_nilary", 1)
        if not v.holds:
            run.violate(
                "ring is not completely nilary despite a nil ideal with "
                "completely nilary quotient",
                m,
                [("completely_nilary", v)],
            )


def _pcomm(run: TheoremResult, ctx: RingContext) -> None:
    """Over a commutative quotient, p-nilary iff completely nilary.

    A/I is commutative iff I holds every ab - ba; the commutator is
    bilinear, so iff I holds gh - hg (the d with hg + d = gh) for additive
    generators g, h of A: those the two-sided index recorded for its last ideal.
    """
    add, mul = ctx.ring.add, ctx.ring.mul
    gens = ctx.index(TWO_SIDED).gens[-1]
    commutators = elements_mask(add[mul[h][g]].index(mul[g][h]) for g in gens for h in gens)
    for m in ctx.lattice_masks(TWO_SIDED):
        if not run.instance(not commutators & ~m):
            continue
        pn = ctx.verdict("p_nilary", m)
        cn = ctx.verdict("completely_nilary", m)
        if pn.holds != cn.holds:
            run.violate(
                f"commutative quotient but p_nilary={pn.holds}, "
                f"completely_nilary={cn.holds}",
                m,
                [("p_nilary", pn), ("completely_nilary", cn)],
            )


def _pnil_nilpotent(run: TheoremResult, ctx: RingContext) -> None:
    """Completely nilary or p-nilary forces nilary (finite rings: nil => nilpotent)."""
    cn = ctx.verdict("completely_nilary", 1)
    pn = ctx.verdict("p_nilary", 1)
    if not run.instance(cn.holds or pn.holds):
        return
    ni = ctx.verdict("nilary", 1)
    if not ni.holds:
        run.violate(
            f"completely_nilary={cn.holds}, p_nilary={pn.holds} but ring not nilary",
            1,
            [("nilary", ni)],
        )


def _cchar(run: TheoremResult, ctx: RingContext) -> None:
    """Unital completely nilary rings have prime-power characteristic."""
    if ctx.ring.one is None:
        return
    cn = ctx.verdict("completely_nilary", 1)
    if not run.instance(cn.holds):
        return
    if not (ch := ctx.characteristic).is_prime_power:
        run.violate(
            f"completely nilary but characteristic {ch.value} is not a prime power",
            1,
            [("completely_nilary", cn)],
        )


# (strong, weak, prefix): the nilary and the p-nilary forms, in that order
_FAMILIES = (("nilary", "weakly_nilary", ""), ("p_nilary", "weakly_p_nilary", "p-"))


def _d2_1_hierarchy(run: TheoremResult, ctx: RingContext) -> None:
    """Every (p-)nilary proper ideal is weakly (p-)nilary."""
    for m in _proper_masks(ctx):
        strong = [ctx.verdict(name, m).holds for name, _, _ in _FAMILIES]
        if not run.instance(any(strong)):
            continue
        for held, (_, weak, p) in zip(strong, _FAMILIES):
            v = ctx.verdict(weak, m)
            if held and not v.holds:
                run.violate(f"{p}nilary ideal is not weakly {p}nilary", m, [(weak, v)])


# the worked examples' rings, built once: Z_6; M_2(Z_2) with its base and matrix units e11, e22
_Z6 = make_zn(6)
_Z2 = make_zn(2)
_M2Z2 = make_matrix_ring(_Z2, 2)
_E11 = matrix_entry_index(_Z2, 2, [[1, 0], [0, 0]])
_E22 = matrix_entry_index(_Z2, 2, [[0, 0], [0, 1]])


def _e2_2(run: TheoremResult, ctx: RingContext) -> None:
    """Z_6 reproduction: the zero ideal is weakly nilary but not nilary."""
    run.instance(True)
    wn = ctx.verdict("weakly_nilary", 1)
    ni = ctx.verdict("nilary", 1)
    wpn = ctx.verdict("weakly_p_nilary", 1)
    if not wn.holds:
        run.violate("zero ideal of Z_6 should be weakly nilary", 1, [("weakly_nilary", wn)])
    if not wpn.holds:
        run.violate("zero ideal of Z_6 should be weakly p-nilary", 1,
                    [("weakly_p_nilary", wpn)])
    if ni.holds:
        run.violate("zero ideal of Z_6 should not be nilary", 1, [("nilary", ni)])
    else:
        w = ni.witness
        if w.variant != "ideal-pair" or {w.j, w.k} != {(0, 2, 4), (0, 3)}:
            run.violate(f"nilary counter-witness should be the pair <2>,<3>, got {w}",
                        1, [("nilary", ni)])
        elif ctx.product(elements_mask(w.j), elements_mask(w.k)) != 1:
            run.violate("nilary counter-witness pair should multiply to {0}",
                        1, [("nilary", ni)])


def _p2_3w(run: TheoremResult, ctx: RingContext) -> None:
    """In a (p-)nilary ring, weakly (p-)nilary proper ideals are (p-)nilary."""
    of_ring = [ctx.verdict(strong, 1).holds for strong, _, _ in _FAMILIES]
    for m in _proper_masks(ctx):
        weak = [ctx.verdict(name, m).holds for _, name, _ in _FAMILIES]
        asked = [r and w for r, w in zip(of_ring, weak)]
        if not run.instance(any(asked)):
            continue
        for held, (strong, _, p) in zip(asked, _FAMILIES):
            if held and not (v := ctx.verdict(strong, m)).holds:
                run.violate(f"weakly {p}nilary ideal of a {p}nilary ring is not {p}nilary",
                            m, [(strong, v)])


def _p2_4w(run: TheoremResult, ctx: RingContext) -> None:
    """A weakly (p-)nilary ideal satisfies I^2 = 0 or is (p-)nilary."""
    for m in _proper_masks(ctx):
        weak = [ctx.verdict(name, m).holds for _, name, _ in _FAMILIES]
        if not run.instance(any(weak)) or ctx.product(m, m) == 1:
            continue
        for held, (strong, _, p) in zip(weak, _FAMILIES):
            if held and not (v := ctx.verdict(strong, m)).holds:
                run.violate(f"weakly {p}nilary ideal with I^2 != 0 is not {p}nilary",
                            m, [(strong, v)])


def _c2_5w(run: TheoremResult, ctx: RingContext) -> None:
    """In a semiprime ring: weakly (p-)nilary iff zero or (p-)nilary."""
    if not ctx.verdict("semiprime", 1).holds:
        return
    for m in _proper_masks(ctx):
        run.instance(True)
        for strong, weak, _ in _FAMILIES:
            w, v = ctx.verdict(weak, m), ctx.verdict(strong, m)
            if w.holds != (m == 1 or v.holds):
                run.violate(f"semiprime ring: {weak}={w.holds} but zero={m == 1}, "
                            f"{strong}={v.holds}", m, [(weak, w), (strong, v)])


# each weakly form with its right and left forms, named once so the verdict memo's keys share them
_ONESIDED_FORMS = tuple((name, name + "_right", name + "_left") for _, name, _ in _FAMILIES)


def _p2_6(run: TheoremResult, ctx: RingContext) -> None:
    """One-sided characterization: two-sided, right and left forms agree (unital)."""
    if ctx.ring.one is None:
        return
    for m in _proper_masks(ctx):
        run.instance(True)
        for names in _ONESIDED_FORMS:
            v2, vr, vl = verdicts = [ctx.verdict(name, m) for name in names]
            if not (v2.holds == vr.holds == vl.holds):
                run.violate(
                    f"{names[0]}: two-sided={v2.holds}, right={vr.holds}, "
                    f"left={vl.holds}",
                    m,
                    list(zip(names, verdicts)),
                )


def _em2z2(run: TheoremResult, ctx: RingContext) -> None:
    """M_2(Z_2) reproduction: prime and nilary but not completely nilary."""
    run.instance(True)
    expectations = (
        ("prime", True),
        ("nilary", True),
        ("p_nilary", True),
        ("completely_nilary", False),
        ("right_primary", True),
        ("completely_right_primary", False),
    )
    for name, expect in expectations:
        v = ctx.verdict(name, 1)
        if v.holds != expect:
            run.violate(f"{name} should be {expect}, got {v.holds}", 1, [(name, v)])
    cn = ctx.verdict("completely_nilary", 1)
    if not cn.holds:
        w = cn.witness
        if (w.a, w.b) != (_E11, _E22):
            run.violate(
                f"completely nilary counter-witness should be (diag(1,0), diag(0,1)) = "
                f"({_E11},{_E22}), got ({w.a},{w.b})",
                1,
                [("completely_nilary", cn)],
            )
        elif ctx.ring.mul[_E11][_E22] != 0:
            run.violate("witness product e11*e22 should be 0", 1)
        elif 0 in (ctx.idempotents[_E11], ctx.idempotents[_E22]):
            run.violate("witness elements should both be non-nilpotent", 1)


def _rprime_nilary(run: TheoremResult, ctx: RingContext) -> None:
    """Every prime ring is a nilary ring."""
    pr = ctx.verdict("prime", 1)
    if not run.instance(pr.holds):
        return
    ni = ctx.verdict("nilary", 1)
    if not ni.holds:
        run.violate("prime ring is not nilary", 1, [("nilary", ni)])


# (id, text, body[, own]); see _case for own
CASES: tuple[tuple[str, str, Callable[..., TheoremResult]], ...] = tuple(
    (cid, text, _case(cid, body, *own)) for cid, text, body, *own in (
        ("P1.2", "completely prime iff completely semiprime + completely nilary", _p1_2),
        ("P1.3", "products of completely nilary ideals", _p1_3),
        ("P1.3-nilary-quot", "A/Q^n is a nilary ring", _p1_3_nilary_quot),
        ("Pquot", "ideal completely nilary iff quotient ring completely nilary", _pquot),
        ("Phom-fwd", "surjective image of completely nilary is completely nilary", _phom_fwd),
        ("Phom-back", "preimage of completely nilary is completely nilary", _phom_back),
        ("Cquot-corr", "I completely nilary iff I/K completely nilary in A/K", _cquot_corr),
        ("Pnil-lift", "nil ideal with completely nilary quotient lifts", _pnil_lift),
        ("Pcomm-pnilary", "commutative quotient: p-nilary iff completely nilary", _pcomm),
        ("Pnil-nilpotent", "completely nilary / p-nilary force nilary (finite)",
         _pnil_nilpotent),
        ("Cchar", "unital completely nilary ring has prime-power characteristic", _cchar),
        ("D2.1-hierarchy", "(p-)nilary implies weakly (p-)nilary", _d2_1_hierarchy),
        ("E2.2", "Z_6: zero ideal weakly nilary but not nilary", _e2_2, _Z6),
        ("P2.3w", "weakly (p-)nilary ideal of a (p-)nilary ring is (p-)nilary", _p2_3w),
        ("P2.4w", "weakly (p-)nilary: I^2 = 0 or (p-)nilary", _p2_4w),
        ("C2.5w", "semiprime ring: weakly (p-)nilary iff zero or (p-)nilary", _c2_5w),
        ("P2.6", "one-sided characterization of weakly (p-)nilary", _p2_6),
        ("EM2Z2", "M_2(Z_2): prime, nilary, p-nilary, not completely nilary", _em2z2, _M2Z2),
        ("Rprime-nilary", "every prime ring is nilary", _rprime_nilary),
    )
)

CASE_IDS = tuple(cid for cid, _, _ in CASES)


def run_all(rings: Sequence[Ring], case_ids: Optional[Sequence[str]] = None) -> list[TheoremResult]:
    """Run the registered cases over a corpus, in registry order, on contexts resolved once."""
    selected = CASES
    if case_ids is not None:
        unknown = sorted(set(case_ids) - set(CASE_IDS))
        if unknown:
            raise ValueError(f"unknown case id(s): {', '.join(unknown)}")
        selected = tuple(c for c in CASES if c[0] in case_ids)
    warning = "empty corpus" if not rings else None
    pairs = [(r, ring_context(r)) for r in rings]
    results = []
    for _, _, fn in selected:
        res = fn(pairs)
        if warning and res.instances == 0:
            res.warning = warning
        results.append(res)
    return results


def report_json(results: Sequence[TheoremResult], rings: Sequence[Ring]) -> dict:
    return {
        "cases": [res.to_json() for res in results],
        "corpus": {"rings": [r.label for r in rings]},
    }


def render_table(results: Sequence[TheoremResult]) -> str:
    lines = [f"{'case':<18} {'result':<6} {'instances':>9} {'hyp':>7} {'viol':>5} {'ms':>8}"]
    for res in results:
        lines.append(
            f"{res.case_id:<18} {'pass' if res.passed else 'FAIL':<6} "
            f"{res.instances:>9} {res.hypothesis_instances:>7} "
            f"{len(res.violations):>5} {res.elapsed * 1000:>8.1f}"
            + (f"  [{res.warning}]" if res.warning else "")
        )
        for v in res.violations:
            lines.append(f"    {v.ring_label}: {v.description}")
    total_viol = sum(len(res.violations) for res in results)
    lines.append(
        f"{len(results)} case(s), {total_viol} violation(s): "
        + ("ALL PASS" if total_viol == 0 else "FAILURES PRESENT")
    )
    return "\n".join(lines)


__all__ = [
    "CASES",
    "CASE_IDS",
    "TheoremResult",
    "Violation",
    "render_table",
    "report_json",
    "run_all",
]
