"""``eq``'s refutation by emitted schedules against the interpreter it replaced.

When two normal forms differ, ``judgementally_equal`` emits both sides and
compares their channels.  The reference below is the refutation it
replaced: ``interpret`` both sides in ``PulseModel`` and compare the
morphisms with ``mor_eq``.  Every case requires the same verdict kind and
reason from both.
"""

import dataclasses
import itertools
import random
from collections import defaultdict

import pytest

from pstt import (
    Calibration,
    ChipSpec,
    EqKind,
    EqVerdict,
    GateApp,
    GateDecl,
    Judgement,
    Qubit,
    Schedule,
    Unit,
    alpha_eq,
    check,
    judgementally_equal,
    normalize,
    parse,
)
from pstt.equality import DEFAULT_BUDGET, BudgetExceeded
from pstt.schedule import MissingCalibration
from pstt.semantics import PulseModel, interpret
from pstt.syntax import CtxEntry, plug, positions
from pstt.testkit import GenConfig, enumerate_well_typed, gen_judgement

SWAP = {"H1": "K1", "K1": "H1"}
AGREE = "normal forms differ, semantics agree"


def reference_eq(ctx, s, t, type_, chip, *, budget=DEFAULT_BUDGET) -> EqVerdict:
    """``judgementally_equal`` refuting through ``interpret`` + ``mor_eq``."""
    js, jt = Judgement(ctx, s, type_), Judgement(ctx, t, type_)
    ev_s = check(js, chip)
    ev_t = check(jt, chip)
    try:
        nf_s = normalize(js, chip, budget=budget)
        nf_t = normalize(jt, chip, budget=budget)
    except BudgetExceeded:
        return EqVerdict(EqKind.UNKNOWN, reason="budget exhausted")
    forms = (nf_s, nf_t)
    if alpha_eq(nf_s.term, nf_t.term):
        return EqVerdict(EqKind.EQUAL, forms)
    model = PulseModel(chip)
    try:
        f = interpret(js, ev_s, model)
        g = interpret(jt, ev_t, model)
    except MissingCalibration:
        return EqVerdict(EqKind.UNKNOWN, forms, reason="semantics unavailable")
    if not model.mor_eq(f, g):
        return EqVerdict(EqKind.NOT_EQUAL_SEMANTICS, forms, witness=(f, g))
    return EqVerdict(EqKind.UNKNOWN, forms, reason=AGREE)


def assert_same_verdict(ctx, s, t, type_, chip) -> EqVerdict:
    verdict = judgementally_equal(ctx, s, t, type_, chip)
    expected = reference_eq(ctx, s, t, type_, chip)
    assert (verdict.kind, verdict.reason) == (expected.kind, expected.reason)
    if verdict.kind is EqKind.NOT_EQUAL_SEMANTICS:
        f, g = verdict.witness
        assert isinstance(f, Schedule) and isinstance(g, Schedule)
        assert f.channels != g.channels
    return verdict


def swap_one_gate(t, rng: random.Random):
    """``t`` with one ``H1`` made ``K1`` or the reverse; None if it has neither."""
    sites = [(n, up) for n, up in positions(t) if type(n) is GateApp and n.gate in SWAP]
    if not sites:
        return None
    node, up = rng.choice(sites)
    return plug(dataclasses.replace(node, gate=SWAP[node.gate]), up)


def equation(head: str, s: str, t: str):
    """``(ctx, s, t, type)`` of two declarations ``schedule d <head> = ...``."""
    a, b = (parse(f"schedule d {head} = {term}\n").declarations[0] for term in (s, t))
    return a.ctx, a.term, b.term, a.type


# ------------------------------------------------------------ differential


def test_same_verdicts_on_corpus_pairs(chip0, corpus):
    rng = random.Random(6)
    kinds = defaultdict(int)
    decls = corpus.declarations
    for a, b in itertools.combinations_with_replacement(decls, 2):
        if a.ctx == b.ctx and a.type == b.type:
            kinds[assert_same_verdict(a.ctx, a.term, b.term, a.type, chip0).kind] += 1
    for d in decls:
        swapped = swap_one_gate(d.term, rng)
        if swapped is not None:
            kinds[assert_same_verdict(d.ctx, d.term, swapped, d.type, chip0).kind] += 1
    assert kinds[EqKind.EQUAL] >= len(decls)
    assert kinds[EqKind.NOT_EQUAL_SEMANTICS] >= 5


def test_same_verdicts_on_enumerated_pairs_with_different_normal_forms(chip0):
    sig = {"a": Qubit("q1"), "c": Unit()}
    terms = enumerate_well_typed(sig, chip0, 7, gates=("H1", "K1"), box_grades=(0, 20))
    groups = defaultdict(list)
    for t, j in terms:
        key = (tuple(sorted((e.name, e.grade) for e in j.ctx)), repr(j.type))
        groups[key].append((t, j.type))
    groups = [(key, members) for key, members in sorted(groups.items()) if len(members) > 1]

    rng = random.Random(608)
    kinds = defaultdict(int)
    compared = 0
    while compared < 80:
        (offsets, _), members = rng.choice(groups)
        (s, ty), (t, _) = rng.sample(members, 2)
        ctx = tuple(CtxEntry(v, g, sig[v]) for v, g in offsets)
        nf_s = normalize(Judgement(ctx, s, ty), chip0)
        nf_t = normalize(Judgement(ctx, t, ty), chip0)
        if alpha_eq(nf_s.term, nf_t.term):
            continue
        compared += 1
        assert_same_verdict(ctx, s, t, ty, chip0)


def test_same_verdicts_on_generated_one_gate_substitutions(chip0):
    cfg = GenConfig(chip=chip0, seed=606, distinct_qubits=True)
    rng = random.Random(606)
    kinds = defaultdict(int)
    for _ in range(400):
        j = gen_judgement(cfg, rng=rng)
        swapped = swap_one_gate(j.term, rng)
        if swapped is not None:
            kinds[assert_same_verdict(j.ctx, j.term, swapped, j.type, chip0).kind] += 1
    assert kinds[EqKind.NOT_EQUAL_SEMANTICS] >= 50


TWIN_CHIP = ChipSpec(
    qubits=("q1",),
    gates=(
        GateDecl("H1", ("q1",), 20),
        GateDecl("T1", ("q1",), 20),  # H1's samples under another name
        GateDecl("Z1", ("q1",), 20),  # a 20-ns delay under another name
        GateDecl("G", ("q1",), 20),  # no calibration
    ),
    calibrations={
        "H1": Calibration("H1", {"q1": tuple(range(1, 21))}),
        "T1": Calibration("T1", {"q1": tuple(range(1, 21))}),
        "Z1": Calibration("Z1", {"q1": (0,) * 20}),
    },
)


@pytest.mark.parametrize(
    "head, s, t, kind, reason",
    [
        ("(x:^-20 q1) : q1", "H1(x)", "T1(x)", EqKind.UNKNOWN, AGREE),
        ("(x:^-40 q1) : q1", "H1(Z1(x))", "T1(delay[q1,20](x))", EqKind.UNKNOWN, AGREE),
        ("(x:^-40 q1) : q1", "H1(Z1(x))", "H1(H1(x))", EqKind.NOT_EQUAL_SEMANTICS, ""),
        ("(x:^-20 q1) : q1", "G(x)", "H1(x)", EqKind.UNKNOWN, "semantics unavailable"),
        ("(x:^-20 q1) : q1", "H1(x)", "G(x)", EqKind.UNKNOWN, "semantics unavailable"),
    ],
)
def test_same_verdicts_when_semantics_agree_or_are_unavailable(head, s, t, kind, reason):
    verdict = assert_same_verdict(*equation(head, s, t), TWIN_CHIP)
    assert (verdict.kind, verdict.reason) == (kind, reason)


# ------------------------------------------------- no generic interpreter


@pytest.mark.parametrize(
    "head, s, t, kind, reason",
    [
        ("(x:^-20 q1) : q1", "H1(x)", "K1(x)", EqKind.NOT_EQUAL_SEMANTICS, ""),
        ("(x:^-20 q1) : q1", "H1(x)", "let * = * in H1(x)", EqKind.EQUAL, ""),
        (
            "(x:^-20 q1, y:^-20 q1) : q1 * q1",
            "(H1(x), H1(y))",
            "(H1(x), K1(y))",
            EqKind.UNKNOWN,
            "semantics unavailable",
        ),
    ],
)
def test_judgementally_equal_never_reaches_the_interpreter(
    chip0, forbid_interpreter, head, s, t, kind, reason
):
    forbid_interpreter()
    verdict = judgementally_equal(*equation(head, s, t), chip0)
    assert (verdict.kind, verdict.reason) == (kind, reason)
