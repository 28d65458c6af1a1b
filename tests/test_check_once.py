"""A judgement is decided once per chip: ``check`` keeps its evidence.

``emit`` calls ``check`` itself, so the compile path ``check`` → ``emit``
→ ``validate`` → ``to_json`` synthesises one derivation, not two.  The
evidence is kept on the ``Judgement`` object for the ``ChipSpec`` object it
was checked against, and dies with the judgement.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import weakref

import pytest

from pstt import (
    Judgement,
    TypingError,
    check,
    emit,
    parse,
    parse_chip_spec,
    to_json,
    typecheck,
    validate,
)
from pstt.testkit import GenConfig, gen_judgement
from test_strict_fast_path import layer_chip, layer_judgement
from test_traversal import chain_source

FIELDS = {f.name for f in dataclasses.fields(Judgement)}


def fresh(j: Judgement) -> Judgement:
    """An equal judgement that has never been checked."""
    return Judgement(j.ctx, j.term, j.type)


@pytest.fixture
def synth_calls(monkeypatch):
    """The number of times ``check`` has synthesised a derivation so far."""
    calls = []
    synth = typecheck._synth

    def counting(*args):
        calls.append(None)
        return synth(*args)

    monkeypatch.setattr(typecheck, "_synth", counting)
    return calls


def same_tree(a, b) -> bool:
    """Node-for-node equality of two derivations, without recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if (x.term, x.type, x.rule, x.params) != (y.term, y.type, y.rule, y.params):
            return False
        if len(x.premises) != len(y.premises):
            return False
        stack += zip(x.premises, y.premises)
    return True


def compile_once(j: Judgement, chip, synth_calls) -> None:
    """``check`` → ``emit`` → ``validate`` → ``to_json`` synthesises once."""
    j = fresh(j)
    before = len(synth_calls)
    check(j, chip)
    s = emit(j, chip)
    assert validate(s, j).passed
    text = to_json(s)
    assert len(synth_calls) - before == 1
    assert text == to_json(emit(fresh(j), chip))


# ---------------------------------------------------------------- the memo


def test_a_second_check_returns_the_same_derivation(chip0, corpus, synth_calls):
    for decl in corpus.declarations:
        j = decl.judgement
        d = check(j, chip0)
        assert check(j, chip0) is d
    assert len(synth_calls) == len(corpus.declarations)


def test_a_distinct_equal_chip_gets_a_fresh_equal_derivation(chip0, chip0_path, corpus, synth_calls):
    other = parse_chip_spec(chip0_path.read_text())
    assert other == chip0 and other is not chip0
    for decl in corpus.declarations:
        j = decl.judgement
        d = check(j, chip0)
        e = check(j, other)
        assert e is not d
        assert same_tree(d, e)
        assert check(j, other) is e
    assert len(synth_calls) == 2 * len(corpus.declarations)


@pytest.mark.parametrize(
    "source",
    [
        "schedule a (x:^-20 q1) : q1 = H2(x)\n",  # gate argument mismatch
        "schedule a (x:^-30 q1) : q1 = H1(x)\n",  # grade mismatch, found after synthesis
        "schedule a (x:^-20 q1) : q2 = H1(x)\n",  # type mismatch
        "schedule a (x:^-20 q1, y:^0 q2) : q1 = H1(x)\n",  # unused context entry
        "schedule a (x:^-20 q1) : q1 = Z9(x)\n",  # unknown gate
    ],
)
def test_an_ill_typed_judgement_raises_every_time_and_keeps_nothing(chip0, source, synth_calls):
    j = parse(source).declarations[0].judgement
    errors = []
    for decide in (check, check, emit, check):
        with pytest.raises(TypingError) as info:
            decide(j, chip0)
        errors.append((info.value.kind, str(info.value)))
        assert vars(j).keys() == FIELDS
    assert len(set(errors)) == 1
    assert len(synth_calls) == 4


def test_a_check_leaves_equality_hash_and_repr_alone(chip0, corpus):
    for decl in corpus.declarations:
        j = decl.judgement
        before = (hash(j), repr(j))
        d = check(j, chip0)
        assert j == fresh(j) and fresh(j) == j
        assert (hash(j), repr(j)) == before == (hash(fresh(j)), repr(fresh(j)))
        replaced = dataclasses.replace(j, type=j.type)
        assert vars(replaced).keys() == FIELDS
        assert check(replaced, chip0) is not d


def test_the_evidence_dies_with_its_judgement(chip0, corpus):
    gc.disable()
    try:
        for decl in corpus.declarations:
            j = decl.judgement
            d = check(j, chip0)
            ref = weakref.ref(d)
            del d
            assert ref() is check(j, chip0)
            del j
            assert ref() is None
    finally:
        gc.enable()


# ------------------------------------------------------ the compile path


def test_compile_checks_once_on_corpus(chip0, corpus, synth_calls):
    for decl in corpus.declarations:
        compile_once(decl.judgement, chip0, synth_calls)


@pytest.mark.parametrize("seed", [7, 2025])
def test_compile_checks_once_on_generated(chip0, seed, synth_calls):
    rng = random.Random(seed)
    for depth in range(4, 11):
        cfg = GenConfig(chip=chip0, seed=seed, max_depth=depth, distinct_qubits=True)
        for _ in range(10):
            compile_once(gen_judgement(cfg, rng=rng), chip0, synth_calls)


def test_compile_checks_once_on_a_wide_layer(synth_calls):
    compile_once(layer_judgement(64), layer_chip(64), synth_calls)


def test_compile_checks_once_on_a_long_chain(chip0, synth_calls):
    j = parse(chain_source(2000)).declarations[0].judgement
    compile_once(j, chip0, synth_calls)
