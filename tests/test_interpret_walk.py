"""The generic interpreter walks the derivation on an explicit stack.

``pstt.semantics.interpret`` builds each node from its premises' results
in one post-order walk, with one case for the three let rules.  These
tests hold it to the recursive interpreter frozen in
``reference_interpret``: equal morphisms in both models, the same
provenance in the pulse model, and the same error wherever the reference
raises.  At sizes where the reference runs out of stack, the pulse
interpretation still equals ``emit``, channel for channel.
"""

import sys

import pytest

import reference_interpret as ref
from brickwork import brickwork_chip, brickwork_judgement
from pstt import Judgement, check, emit, parse
from pstt.schedule import Channel
from pstt.semantics import ModelError, PulseModel, SyntacticModel
from pstt.semantics.interpret import _interp, interpret, interpret_single_var
from pstt.syntax import CtxEntry
from pstt.testkit import GenConfig, gen_judgement, gen_single_var_judgement
from pstt.typecheck import Derivation

MODELS = (PulseModel, SyntacticModel)


def provenance(mor):
    return sorted(getattr(mor, "provenance", ()), key=lambda p: (p.qubit, p.start, p.gate))


def assert_same(live, frozen, *args) -> None:
    """Equal results with equal provenance, or the same exception and message."""
    try:
        expected = frozen(*args)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            live(*args)
        assert str(raised.value) == str(exc)
        return
    got = live(*args)
    assert got == expected
    assert provenance(got) == provenance(expected)


def assert_interprets_as_the_reference(j: Judgement, chip) -> None:
    evidence = check(j, chip)
    for model in MODELS:
        assert_same(interpret, ref.interpret, j, evidence, model(chip))


def test_the_corpus_interprets_as_the_reference(chip0, corpus):
    assert len(corpus.declarations) == 20
    for d in corpus.declarations:
        assert_interprets_as_the_reference(d.judgement, chip0)


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("depth", [3, 5, 7])
def test_generated_judgements_interpret_as_the_reference(chip0, depth, distinct):
    for seed in range(60):
        cfg = GenConfig(chip=chip0, seed=seed, max_depth=depth, distinct_qubits=distinct)
        assert_interprets_as_the_reference(gen_judgement(cfg), chip0)


def test_single_variable_judgements_interpret_as_the_reference(chip0):
    cases = 0
    for seed in range(200):
        j = gen_single_var_judgement(GenConfig(chip=chip0, seed=seed, max_depth=5))
        if j is None:
            continue
        evidence = check(j, chip0)
        for model in MODELS:
            assert_same(interpret_single_var, ref.interpret_single_var, j, evidence, model(chip0))
        cases += 1
        if cases == 40:
            break
    assert cases == 40


def with_rule(d: Derivation, path: tuple[int, ...], rule: str) -> Derivation:
    """``d`` with the node at ``path`` (premise indices) carrying ``rule``."""
    if not path:
        return Derivation(d.term, d.type, rule, d.params, d.premises)
    i, rest = path[0], path[1:]
    premises = d.premises[:i] + (with_rule(d.premises[i], rest, rule),) + d.premises[i + 1 :]
    return Derivation(d.term, d.type, d.rule, d.params, premises)


def node_paths(d: Derivation, path=()):
    yield path
    for i, p in enumerate(d.premises):
        yield from node_paths(p, path + (i,))


def test_an_unknown_rule_raises_as_the_reference(chip0, corpus):
    for decl in corpus.declarations[:6]:
        j = decl.judgement
        evidence = check(j, chip0)
        for path in node_paths(evidence):
            bad = with_rule(evidence, path, "no-such-rule")
            for model in MODELS:
                # the evidence's context is read first, and it meets the rule there
                assert_same(interpret, ref.interpret, j, bad, model(chip0))
                with pytest.raises(ModelError, match="unknown derivation rule 'no-such-rule'"):
                    _interp(bad, model(chip0))
                assert_same(_interp, ref._interp, bad, model(chip0))


def test_evidence_for_another_context_raises_as_the_reference(chip0, corpus):
    checked = 0
    for decl in corpus.declarations:
        j = decl.judgement
        if not j.ctx:
            continue
        evidence = check(j, chip0)
        x, rest = j.ctx[0], j.ctx[1:]
        renamed = CtxEntry(x.name + "_other", x.grade, x.type)
        regraded = CtxEntry(x.name, x.grade + 1, x.type)
        for other in (Judgement((e,) + rest, j.term, j.type) for e in (renamed, regraded)):
            for model in MODELS:
                with pytest.raises(ModelError, match="differs from"):
                    interpret(other, evidence, model(chip0))
                assert_same(interpret, ref.interpret, other, evidence, model(chip0))
        checked += 1
    assert checked >= 10


# ------------------------------------------------------------------ scale


def assert_interprets_as_emit(j: Judgement, chip) -> None:
    assert sys.getrecursionlimit() <= 1000
    mor = interpret(j, check(j, chip), PulseModel(chip))
    channels = tuple(
        Channel(q, g, mor.tgt.grade_of(q), mor.signal(q))
        for g, q in sorted(mor.src.entries, key=lambda e: e[1])
    )
    assert channels == emit(j, chip).channels


def test_a_long_gate_chain_interprets_as_emit(chip0):
    n = 2_000
    source = f"schedule chain (x:^{-20 * n} q1) : q1 = {'H1(' * n}x{')' * n}\n"
    assert_interprets_as_emit(parse(source).declarations[0].judgement, chip0)


def test_brickwork_32_by_40_interprets_as_emit():
    chip = brickwork_chip(32, seed=32)
    assert_interprets_as_emit(brickwork_judgement(chip, 40), chip)

