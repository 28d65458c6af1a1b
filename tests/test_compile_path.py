"""The lean compile path against the code it replaced.

``Derivation.ctx`` is derived from the node's subtree when read, and
``to_json`` writes the document's layout directly.  The references are the
replaced code, kept here: the per-rule context construction ``_elaborate``
ran at every node, and ``json.dumps`` with ``indent=2``.
"""

import json
import random

from pstt import (
    CtxEntry,
    Judgement,
    LetStar,
    Unit,
    Var,
    check,
    emit,
    from_json,
    parse,
    to_json,
)
from pstt import typecheck
from pstt.schedule import Channel, Schedule
from pstt.semantics import PulseModel, interpret
from pstt.testkit import GenConfig, gen_judgement
from test_strict_fast_path import layer_chip, layer_judgement

# ---------------------------------------------------------------- contexts


def reference_contexts(root):
    """Every node's context by the rules ``_elaborate`` applied, keyed by id."""
    ctx = {}
    stack = [(root, False)]
    while stack:
        d, ready = stack.pop()
        if not ready:
            stack.append((d, True))
            stack.extend((p, False) for p in d.premises)
            continue
        prem = [ctx[id(p)] for p in d.premises]
        match d.rule:
            case "var":
                out = (CtxEntry(d.term.name, 0, d.type),)
            case "unit-intro":
                out = ()
            case "pair-intro":
                out = tuple(e for c in prem for e in c)
            case "gate":
                out = tuple(
                    CtxEntry(e.name, e.grade - d.params[0], e.type) for c in prem for e in c
                )
            case "unit-elim" | "pair-elim":
                scrut, body = prem
                names = (d.term.x, d.term.y) if d.rule == "pair-elim" else ()
                out = tuple(CtxEntry(e.name, e.grade + d.params[0], e.type) for e in scrut)
                out += tuple(e for e in body if e.name not in names)
            case "box-intro":
                (body,) = prem
                out = tuple(CtxEntry(e.name, e.grade + d.params[0], e.type) for e in body)
            case "box-elim":
                scrut, body = prem
                shift = d.params[1] - d.params[0]
                out = tuple(CtxEntry(e.name, e.grade + shift, e.type) for e in scrut)
                out += tuple(e for e in body if e.name != d.term.x)
        ctx[id(d)] = out
    return ctx


def nodes(root):
    stack = [root]
    while stack:
        d = stack.pop()
        yield d
        stack.extend(d.premises)


def assert_contexts_match(root):
    expected = reference_contexts(root)
    for d in nodes(root):
        assert d.ctx == expected[id(d)], d.rule


def under_unit_spine(j, rng):
    """``j`` with its term under a spine of ``let * = s in`` over fresh unit entries."""
    n = rng.randint(1, 12)
    names = [f"s{i}" for i in range(n)]
    term = j.term
    for name in rng.sample(names, n):
        term = LetStar(Var(name), term)
    units = tuple(CtxEntry(name, rng.randint(-60, 60), Unit()) for name in names)
    return Judgement(units + j.ctx, term, j.type)


def test_contexts_match_the_per_rule_construction(chip0):
    binding = 0
    for seed in (3, 103):
        rng = random.Random(seed)
        for depth in range(4, 9):
            cfg = GenConfig(chip=chip0, seed=seed, max_depth=depth)
            for _ in range(12):
                j = gen_judgement(cfg, rng=rng)
                for jj in (j, under_unit_spine(j, rng)):
                    evidence = check(jj, chip0)
                    assert_contexts_match(evidence)  # read through the subtree walk
                    assert {(e.name, e.grade) for e in evidence.ctx} == {
                        (e.name, e.grade) for e in jj.ctx
                    }
                binding += any(d.rule in ("pair-elim", "box-elim") for d in nodes(evidence))
                env = {e.name: e.type for e in j.ctx}
                slacks = {sid: rng.randint(-50, 50) for sid in range(1, 30)}
                # Settled at chosen slack values, as gen_judgement settles them.
                evidence, _, synth = typecheck._synth(j.term, env, chip0)
                synth.settle(slacks)
                assert_contexts_match(evidence)
                assert evidence.ctx == reference_contexts(evidence)[id(evidence)]
    assert binding  # some contexts drop let-bound names


def test_contexts_of_a_deep_spine_are_read_without_recursion(chip0):
    from test_strict_fast_path import unit_judgement

    evidence = check(unit_judgement(2_000), chip0)
    body = evidence
    while body.premises:
        body = body.premises[-1]
    assert [e.name for e in body.ctx] == ["x"]
    assert len(evidence.ctx) == 2_001


def test_interpret_reads_every_context_in_linear_work(chip0, monkeypatch):
    """``interpret`` uses each node's context; building them from the
    premises' as it goes visits every node once, where reads from the top
    down would walk each subtree again (about n * n / 2 visits on an n-gate
    chain)."""
    n = 300
    j = parse(f"schedule c (x:^{-20 * n} q1) : q1 = {'H1(' * n}x{')' * n}\n").declarations[0].judgement
    evidence = check(j, chip0)
    visits = 0
    shifts = typecheck.premise_shifts

    def counted(d):
        nonlocal visits
        visits += 1
        return shifts(d)

    monkeypatch.setattr(typecheck, "premise_shifts", counted)
    interpret(j, evidence, PulseModel(chip0))
    assert visits <= 2 * len(list(nodes(evidence)))


def test_interpret_only_reads_the_evidence(chip0, corpus):
    """Evidence is plain data: interpreting it writes nothing into any node."""
    judgements = [decl.judgement for decl in corpus.declarations]
    for seed in (7, 2025):
        rng = random.Random(seed)
        for depth in range(4, 9):
            cfg = GenConfig(chip=chip0, seed=seed, max_depth=depth)
            judgements += [gen_judgement(cfg, rng=rng) for _ in range(4)]
    model = PulseModel(chip0)
    for j in judgements:
        evidence = check(j, chip0)
        before = {id(d): {k: id(v) for k, v in vars(d).items()} for d in nodes(evidence)}
        interpret(j, evidence, model)
        for d in nodes(evidence):
            assert {k: id(v) for k, v in vars(d).items()} == before[id(d)], d.rule


# -------------------------------------------------------------------- JSON


def reference_json(s: Schedule) -> str:
    doc = {
        "channels": {
            ch.qubit: {
                "start_ns": ch.start,
                "end_ns": ch.end,
                "samples": list(ch.samples),
            }
            for ch in s.channels
        },
        "provenance": [
            {"gate": gate, "qubit": qubit, "start_ns": start, "end_ns": end}
            for gate, qubit, start, end in s.provenance
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def assert_json_matches(s: Schedule, round_trip: bool = True) -> None:
    text = to_json(s)
    assert text == reference_json(s)
    if round_trip:
        assert from_json(text) == s


def test_json_matches_the_indenting_encoder_on_corpus(chip0, corpus):
    for d in corpus.declarations:
        assert_json_matches(emit(d.judgement, chip0))


def test_json_matches_the_indenting_encoder_on_generated(chip0):
    cfg = GenConfig(chip=chip0, seed=2025, distinct_qubits=True)
    rng = random.Random(2025)
    for _ in range(500):
        assert_json_matches(emit(gen_judgement(cfg, rng=rng), chip0))


def test_json_matches_the_indenting_encoder_on_wide_layer():
    assert_json_matches(emit(layer_judgement(64), layer_chip(64)))


def test_json_matches_the_indenting_encoder_on_edge_cases():
    lo, hi = -(2**31), 2**31 - 1
    assert_json_matches(Schedule(()))
    assert_json_matches(Schedule((Channel("q1", 0, 0, ()),)))
    assert_json_matches(Schedule((Channel("q1", -3, 0, (lo, -1, hi)),), (("G", "q1", -3, 0),)))
    named = Channel('q"é\\\n☃', -1, 0, (7,))
    assert_json_matches(Schedule((named,), (('G"ü\t', named.qubit, -1, 0),)))
    # A repeated qubit keeps its last channel, in qubit order.
    repeated = Schedule(
        (Channel("q2", -2, 0, (1, 2)), Channel("q1", 0, 0, ()), Channel("q2", -1, 0, (lo,)))
    )
    assert_json_matches(repeated, round_trip=False)
    assert from_json(to_json(repeated)).channels == repeated.channels[1:]
