"""Term walks at depth, and a digest that pins their outputs.

Every term walk runs over an explicit stack, so a term's depth is bounded
by memory, not by Python's recursion limit.  The depth tests run at the
default limit.  Deep terms are compared with ``alpha_eq``, because the
dataclass ``==`` of a deep term still recurses.

The golden digest covers printed terms, alpha keys, normal forms, rule
traces and type errors on seeded inputs.  It was recorded before the walks
were made iterative, so any change in their behaviour shows here.
"""

import hashlib
import random
import sys
import tracemalloc

import pytest

from pstt import (
    BoxIntro,
    CtxEntry,
    EqKind,
    GateApp,
    Judgement,
    LetBox,
    LetPair,
    LetStar,
    Pair,
    Qubit,
    Star,
    TypingError,
    Unit,
    Var,
    alpha_eq,
    check,
    emit,
    free_vars,
    from_json,
    judgementally_equal,
    normalize,
    parse,
    print_context,
    print_term,
    print_type,
    to_json,
    validate,
)
from pstt.semantics import PulseModel, type_pulse_object
from pstt.syntax import alpha_key, qubits_of_type, subst_parallel
from pstt.testkit import GenConfig, enumerate_well_typed, gen_judgement

GOLDEN = "ab0497105ee067a761a080bf0739d2af9a50c8598bc1a6025d29e9c7f9f19c50"


def chain_source(n: int) -> str:
    return f"schedule chain (x:^{-20 * n} q1) : q1 = {'H1(' * n}x{')' * n}\n"


def units_source(n: int) -> str:
    units = [f"u{i}:^{(i * 37) % 121 - 60} 1" for i in range(n)]
    ctx = ", ".join(units[: n // 2] + ["x:^-20 q1"] + units[n // 2 :])
    term = "".join(f"let * = u{i} in " for i in range(n)) + "H1(x)"
    return f"schedule units ({ctx}) : q1 = {term}\n"


@pytest.fixture(autouse=True)
def default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000


# ------------------------------------------------------------------ depth


def test_chain_of_ten_thousand_gates(chip0):
    j = parse(chain_source(10_000)).declarations[0].judgement
    again = parse(f"schedule chain (x:^-200000 q1) : q1 = {print_term(j.term)}\n")
    assert alpha_eq(again.declarations[0].term, j.term)

    check(j, chip0)
    schedule = emit(j, chip0)
    assert validate(schedule, j).passed
    assert len(schedule.channels[0].samples) == 200_000
    assert from_json(to_json(schedule)) == schedule

    nf = normalize(j, chip0)
    assert nf.rules == () and alpha_eq(nf.term, j.term)
    verdict = judgementally_equal(j.ctx, j.term, j.term, j.type, chip0)
    assert verdict.kind is EqKind.EQUAL


def test_spine_of_two_thousand_unit_lets(chip0):
    text = units_source(2_000)
    j = parse(text).declarations[0].judgement
    # No derivation node keeps a context, so checking and emitting a let
    # spine take memory linear in its length.
    tracemalloc.start()
    try:
        evidence = check(j, chip0)
        schedule = emit(j, chip0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert {e.name for e in evidence.ctx} == {e.name for e in j.ctx}
    assert validate(schedule, j).passed
    printed = print_term(j.term)
    assert text.endswith(f" = {printed}\n")


def test_chain_of_ten_thousand_gates_checks_with_one_tree(chip0):
    j = parse(chain_source(10_000)).declarations[0].judgement
    # Synthesis builds the derivation itself, so no second tree of the
    # same size is held while it is built.
    tracemalloc.start()
    try:
        evidence = check(j, chip0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert [(e.name, e.grade) for e in evidence.ctx] == [("x", -200_000)]


def test_layer_of_a_thousand_qubits():
    # The type is a thousand tensors deep: type equality, parse_type,
    # print_type and the emitter's channel layout walk it without recursing.
    from test_strict_fast_path import layer_chip, layer_judgement

    chip, j = layer_chip(1_000), layer_judgement(1_000)
    text = f"schedule layer ({print_context(j.ctx)}) : {print_type(j.type)} = {print_term(j.term)}\n"
    again = parse(text).declarations[0].judgement
    assert again.ctx == j.ctx and again.type == j.type and alpha_eq(again.term, j.term)
    assert qubits_of_type(j.type) == [f"q{i}" for i in range(1_000)]
    assert PulseModel(chip).type_obj(j.type) == type_pulse_object(j.type)

    check(j, chip)
    schedule = emit(j, chip)
    assert validate(schedule, j).passed
    assert len(schedule.channels) == 1_000


# ----------------------------------------------------------------- golden


def ill_typed_variants(j: Judgement, rng: random.Random) -> list[Judgement]:
    """One term mutation and one context mutation of a checked judgement."""
    names = free_vars(j.term)
    ghost = Var("ghost")
    if names:
        x = rng.choice(names)
        other = Var(rng.choice(names))
        wrappers = [
            other,
            GateApp("NOPE", (ghost,)),
            GateApp("H1", (ghost, Var(x))),
            GateApp("CX", (Var(x), ghost)),
            LetStar(ghost, Var(x)),
            LetStar(Var(x), Var(x)),
            LetBox(5, "w", Var(x), Var("w")),
            LetPair("s", "t", Var(x), Pair(Var("t"), Var("s"))),
            BoxIntro(3, Var(x)),
            Pair(Var(x), other),
            Star(),
        ]
        term = subst_parallel(j.term, {x: rng.choice(wrappers)})
    else:
        term = Pair(j.term, ghost)
    ctx = list(j.ctx)
    if ctx and rng.random() < 0.5:
        i = rng.randrange(len(ctx))
        e = ctx[i]
        ctx[i] = CtxEntry(e.name, e.grade + rng.randint(1, 9), e.type)
    elif ctx:
        ctx.pop(rng.randrange(len(ctx)))
    else:
        ctx.append(CtxEntry("extra", 0, Unit()))
    return [Judgement(j.ctx, term, j.type), Judgement(tuple(ctx), j.term, j.type)]


def golden_lines(chip0):
    cfg = GenConfig(chip=chip0, seed=2025)
    rng = random.Random(2025)
    mutations = random.Random(7)
    for _ in range(500):
        j = gen_judgement(cfg, rng=rng)
        nf = normalize(j, chip0)
        yield print_term(j.term)
        yield alpha_key(j.term)
        yield print_term(nf.term)
        yield alpha_key(nf.term)
        yield " ".join(nf.rules)
        for variant in ill_typed_variants(j, mutations):
            try:
                check(variant, chip0)
                yield "ok"
            except TypingError as exc:
                yield str(exc)

    sig = {"a": Qubit("q1"), "c": Unit()}
    for t, j in enumerate_well_typed(sig, chip0, 7, gates=("H1", "K1"), box_grades=(0, 20)):
        ctx = tuple(sorted(j.ctx, key=lambda e: e.name))
        nf = normalize(Judgement(ctx, t, j.type), chip0, budget=3000)
        yield print_term(nf.term)
        yield alpha_key(nf.term)


def golden_digest(chip0) -> str:
    h = hashlib.sha256()
    for line in golden_lines(chip0):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_golden_digest(chip0):
    assert golden_digest(chip0) == GOLDEN
