"""A judgement is decided once per chip: ``check`` keeps its evidence.

``emit`` calls ``check`` itself, so the compile path ``check`` → ``emit``
→ ``validate`` → ``to_json`` synthesises one derivation, not two.  So do
``normalize`` and ``judgementally_equal``: ``eq`` synthesises each side
once, and ``normalize`` reads its unit-typed variables off the kept
derivation, synthesising only to recheck a parked eta contraction.  The
evidence is kept on the ``Judgement`` object for the ``ChipSpec`` object it
was checked against, and dies with the judgement.  A judgement that
``infer`` returns keeps the derivation it was inferred with in the same
way, so ``infer`` → ``emit`` synthesises once too.
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
    equality,
    infer,
    judgementally_equal,
    normalize,
    parse,
    parse_chip_spec,
    to_json,
    typecheck,
    validate,
)
from pstt import testkit
from pstt.testkit import GenConfig, gen_judgement, gen_single_var_judgement
from test_rewrite_once import equiv_pairs
from test_strict_fast_path import layer_chip, layer_judgement
from test_traversal import chain_source

FIELDS = {f.name for f in dataclasses.fields(Judgement)}


def fresh(j: Judgement) -> Judgement:
    """An equal judgement that has never been checked."""
    return Judgement(j.ctx, j.term, j.type)


@pytest.fixture
def synth_calls(monkeypatch):
    """The number of derivations synthesised so far, by the checker or the test kit."""
    calls = []
    synth = typecheck._synth

    def counting(*args):
        calls.append(None)
        return synth(*args)

    monkeypatch.setattr(typecheck, "_synth", counting)
    monkeypatch.setattr(testkit, "_synth", counting)  # imported by name
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


# ------------------------------------------------------------------ infer


def infer_once(term, env, chip, synth_calls) -> None:
    """``infer`` → ``check`` → ``emit`` → ``validate`` → ``to_json`` synthesises once."""
    before = len(synth_calls)
    j = infer(term, env, chip)
    d = check(j, chip)
    assert len(synth_calls) - before == 1
    s = emit(j, chip)
    assert validate(s, j).passed
    text = to_json(s)
    assert len(synth_calls) - before == 1
    assert check(j, chip) is d
    assert text == to_json(emit(fresh(j), chip))


def settled_once(term, env, chip, rng, synth_calls) -> None:
    """A judgement read off a derivation settled at chosen slack values, as
    ``gen_judgement`` makes one, is checked once more and emitted off that check."""
    d, _, synth = typecheck._synth(term, env, chip)
    synth.settle({sid: rng.randint(-90, 90) for sid in synth.slacks})
    j = Judgement(d.ctx, term, d.type)
    before = len(synth_calls)
    check(j, chip)
    s = emit(j, chip)
    assert validate(s, j).passed
    text = to_json(s)
    assert len(synth_calls) - before == 1
    assert text == to_json(emit(fresh(j), chip))


def infer_every_way(j: Judgement, chip, rng, synth_calls) -> None:
    """Inferred, settled at chosen slack values, and with every grade declared."""
    env = {e.name: e.type for e in j.ctx}
    infer_once(j.term, env, chip, synth_calls)
    settled_once(j.term, env, chip, rng, synth_calls)
    compile_once(j, chip, synth_calls)


def test_infer_then_emit_synthesises_once_on_corpus(chip0, corpus, synth_calls):
    rng = random.Random(3)
    for decl in corpus.declarations:
        infer_every_way(decl.judgement, chip0, rng, synth_calls)


@pytest.mark.parametrize("seed", [7, 2025])
def test_infer_then_emit_synthesises_once_on_generated(chip0, seed, synth_calls):
    rng = random.Random(seed)
    for depth in range(4, 11):
        cfg = GenConfig(chip=chip0, seed=seed, max_depth=depth, distinct_qubits=True)
        for _ in range(6):
            infer_every_way(gen_judgement(cfg, rng=rng), chip0, rng, synth_calls)


def test_infer_then_emit_synthesises_once_on_a_long_chain(chip0, synth_calls):
    j = parse(chain_source(2000)).declarations[0].judgement
    infer_once(j.term, {"x": j.ctx[0].type}, chip0, synth_calls)


@pytest.fixture
def gen_attempts(monkeypatch):
    """The number of generation attempts the test kit has started so far."""
    attempts = []

    class Counting(testkit._Gen):
        def __init__(self, *args):
            attempts.append(None)
            super().__init__(*args)

    monkeypatch.setattr(testkit, "_Gen", Counting)
    return attempts


@pytest.mark.parametrize(
    "generate, passes",
    [(gen_judgement, 2), (gen_single_var_judgement, 1)],
    ids=["gen_judgement", "gen_single_var_judgement"],
)
def test_a_first_try_generation_synthesises_per_judgement(
    chip0, generate, passes, synth_calls, gen_attempts
):
    """``gen_judgement`` reads its judgement off one synthesis and checks it
    afresh; ``gen_single_var_judgement`` only checks its declared judgement."""
    first_tries = 0
    for seed in range(30):
        before, tries = len(synth_calls), len(gen_attempts)
        assert generate(GenConfig(chip=chip0, seed=seed, max_depth=5)) is not None
        if len(gen_attempts) - tries == 1:
            first_tries += 1
            assert len(synth_calls) - before == passes
    assert first_tries >= 10


def test_inferred_evidence_is_kept_for_that_chip_only(chip0, chip0_path, corpus, synth_calls):
    other = parse_chip_spec(chip0_path.read_text())
    for decl in corpus.declarations:
        env = {e.name: e.type for e in decl.ctx}
        j = infer(decl.term, env, chip0)
        d = check(j, chip0)
        before = len(synth_calls)
        e = check(j, other)
        assert len(synth_calls) - before == 1
        assert e is not d and same_tree(d, e)
        assert check(j, other) is e
        assert len(synth_calls) - before == 1


# ------------------------------------------------------- eq and normalize

# Pairs of declarations ``eq`` compares: a parked repack that contracts
# after a recheck, and unit placements that expand unit variables.
UNIT_PAIRS = """\
schedule parked (p:^0 1 * q1) : 1 * q1 = let (a, b) = p in let * = a in (*, b)
schedule packed (p:^0 1 * q1) : 1 * q1 = p
schedule swapped (p:^0 1 * 1) : 1 * 1 = let (a, b) = p in (b, a)
schedule kept (p:^0 1 * 1) : 1 * 1 = p
schedule left (c:^0 1) : 1 * 1 = (c, *)
schedule right (c:^0 1) : 1 * 1 = (*, c)
"""


@pytest.fixture
def rechecks(monkeypatch):
    """The number of parked eta contractions ``normalize`` has rechecked so far."""
    calls = []
    eta_spine = equality._eta_spine

    def counting(t, recheck):
        def counted(t2):
            calls.append(None)
            return recheck(t2)

        return eta_spine(t, counted)

    monkeypatch.setattr(equality, "_eta_spine", counting)
    return calls


def test_equality_no_longer_synthesises_types_itself():
    assert not hasattr(equality, "synthesize")
    assert not hasattr(equality, "_expand_unit_var")


def test_eq_synthesises_each_side_once(chip0, synth_calls, rechecks):
    decls = parse(UNIT_PAIRS).declarations
    pairs = [(a.ctx, a.term, b.term, a.type) for a, b in zip(decls[::2], decls[1::2])]
    pairs += equiv_pairs(chip0, random.Random(953), 12)
    for ctx, s, t, ty in pairs:
        synth_before, rechecks_before = len(synth_calls), len(rechecks)
        assert judgementally_equal(ctx, s, t, ty, chip0).is_equal
        assert len(synth_calls) - synth_before == 2 + len(rechecks) - rechecks_before
    assert rechecks


def test_normalize_of_a_checked_judgement_synthesises_only_to_recheck(chip0, synth_calls, rechecks):
    judgements = [decl.judgement for decl in parse(UNIT_PAIRS).declarations]
    rng = random.Random(5)
    cfg = GenConfig(chip=chip0, seed=5)
    judgements += [gen_judgement(cfg, rng=rng) for _ in range(40)]
    expanded = 0
    for j in judgements:
        check(j, chip0)
        synth_before, rechecks_before = len(synth_calls), len(rechecks)
        nf = normalize(j, chip0)
        assert len(synth_calls) - synth_before == len(rechecks) - rechecks_before
        expanded += "eta-unit" in nf.rules
    assert expanded > 5 and rechecks
