"""The strict pulse fast path against the generic interpreter it replaces.

``emit`` places calibrations by walking the derivation once, and
``PulseModel.reorder`` builds every structural map as one morphism.  The
generic interpreter with the coherence construction stays the reference:
every case here is decided by comparing the two.
"""

import dataclasses
import json
import random

import pytest

from pstt import (
    ChipSpec,
    GateDecl,
    Judgement,
    check,
    emit,
    parse,
    parse_chip_spec,
    to_json,
)
from pstt.schedule import Channel, MissingCalibration, Schedule
from pstt.semantics import ModelError, PulseModel, PulseMorphism, context_obj, interpret
from pstt.semantics.model import Model
from pstt.testkit import GenConfig, gen_judgement


def generic_emit(j: Judgement, chip: ChipSpec) -> Schedule:
    """The schedule of ``interpret`` in ``PulseModel``, channel by channel."""
    mor = interpret(j, check(j, chip), PulseModel(chip))
    channels = tuple(
        Channel(q, g, mor.tgt.grade_of(q), mor.signal(q))
        for g, q in sorted(mor.src.entries, key=lambda e: e[1])
    )
    provenance = tuple(
        (p.gate, p.qubit, p.start, p.end)
        for p in sorted(mor.provenance, key=lambda p: (p.qubit, p.start, p.gate))
    )
    return Schedule(channels, provenance)


def assert_same_outcome(j: Judgement, chip: ChipSpec) -> None:
    """Byte-equal JSON, or the same exception class from both paths."""
    try:
        expected = to_json(generic_emit(j, chip))
    except Exception as exc:
        with pytest.raises(type(exc)):
            emit(j, chip)
        return
    assert to_json(emit(j, chip)) == expected


def layer_chip(n: int) -> ChipSpec:
    rng = random.Random(n)
    qubits = [f"q{i}" for i in range(n)]
    durations = [8 + i % 5 for i in range(n)]
    doc = {
        "qubits": qubits,
        "gates": [
            {"name": f"X{i}", "qubits": [q], "duration_ns": d}
            for i, (q, d) in enumerate(zip(qubits, durations))
        ],
        "calibrations": {
            f"X{i}": {q: [rng.randint(-999, 999) for _ in range(d)]}
            for i, (q, d) in enumerate(zip(qubits, durations))
        },
    }
    return parse_chip_spec(json.dumps(doc))


def layer_judgement(n: int) -> Judgement:
    """``(X0(x0), (X1(x1), ...))`` with the context in reverse order."""
    ctx = ", ".join(f"x{i}:^{-(8 + i % 5)} q{i}" for i in reversed(range(n)))
    term = f"X{n - 1}(x{n - 1})"
    for i in reversed(range(n - 1)):
        term = f"(X{i}(x{i}), {term})"
    ty = " * ".join(f"q{i}" for i in range(n))
    return parse(f"schedule layer ({ctx}) : {ty} = {term}\n").declarations[0].judgement


def unit_judgement(n: int) -> Judgement:
    """``let * = u0 in ... H1(x)`` with ``x`` in the middle of n unit entries."""
    units = [f"u{i}:^{(i * 37) % 121 - 60} 1" for i in range(n)]
    ctx = ", ".join(units[: n // 2] + ["x:^-20 q1"] + units[n // 2 :])
    term = "".join(f"let * = u{i} in " for i in range(n)) + "H1(x)"
    return parse(f"schedule units ({ctx}) : q1 = {term}\n").declarations[0].judgement


# ------------------------------------------------------------ differential


def test_emit_matches_generic_on_corpus(chip0, corpus):
    for d in corpus.declarations:
        assert_same_outcome(d.judgement, chip0)


def test_emit_matches_generic_on_generated(chip0):
    cfg = GenConfig(chip=chip0, seed=2025, distinct_qubits=True)
    rng = random.Random(2025)
    for _ in range(500):
        assert_same_outcome(gen_judgement(cfg, rng=rng), chip0)


def test_emit_matches_generic_on_wide_layer():
    assert_same_outcome(layer_judgement(64), layer_chip(64))


def test_interpret_on_a_long_unit_context_is_the_emitted_schedule(chip0):
    j = unit_judgement(400)
    model = PulseModel(chip0)
    mor = interpret(j, check(j, chip0), model)
    s = emit(j, chip0)
    described = PulseMorphism(
        context_obj(model, j.ctx),
        model.type_obj(j.type),
        tuple((ch.qubit, ch.samples) for ch in s.channels),
    )
    assert model.mor_eq(mor, described)
    assert to_json(generic_emit(j, chip0)) == to_json(s)


def test_missing_calibration_raises_on_both_paths():
    chip = ChipSpec(
        qubits=("q1",), gates=(GateDecl("G", ("q1",), 5),), calibrations={}
    )
    j = parse("schedule g (x:^-5 q1) : q1 = G(x)\n").declarations[0].judgement
    with pytest.raises(MissingCalibration):
        generic_emit(j, chip)
    assert_same_outcome(j, chip)


@pytest.mark.parametrize(
    "source",
    [
        "schedule r (x:^0 q1, y:^0 q1) : q1 * q1 = (x, y)",
        "schedule r (x:^0 q1 * q1) : q1 * q1 = x",
        "schedule r (x:^0 q1, y:^-20 q1) : q1 * q1 = (x, H1(y))",
        "schedule r (x:^0 q9) : q9 = x",
    ],
)
def test_repeated_or_unknown_qubit_raises_on_both_paths(chip0, source):
    j = parse(source + "\n").declarations[0].judgement
    with pytest.raises(ModelError):
        generic_emit(j, chip0)
    assert_same_outcome(j, chip0)


def test_emit_rejects_a_derivation_that_leaves_a_hole(chip0, monkeypatch):
    import pstt.schedule

    # The box body now finishes at 25, so H1 writes [5, 25) on the [10, 30)
    # channel: a gap at the end, which must not be filled with zeros.
    j = parse("schedule b (x:^10 q1) : [30] q1 = box[30] H1(x)\n").declarations[0].judgement
    shifted = dataclasses.replace(check(j, chip0), params=(25,))
    monkeypatch.setattr(pstt.schedule, "check", lambda j, chip: shifted)
    with pytest.raises(ModelError, match="channel q1"):
        emit(j, chip0)


# ------------------------------------------------------------ reorder hook


class CountingPulseModel(PulseModel):
    def __init__(self, chip: ChipSpec):
        super().__init__(chip)
        self.braids = 0

    def braid(self, a, b):
        self.braids += 1
        return super().braid(a, b)


class CoherencePulseModel(CountingPulseModel):
    reorder = Model.reorder


def test_pulse_reorder_builds_no_braids():
    chip, j = layer_chip(32), layer_judgement(32)
    evidence = check(j, chip)
    strict, coherent = CountingPulseModel(chip), CoherencePulseModel(chip)
    fast = interpret(j, evidence, strict)
    slow = interpret(j, evidence, coherent)
    assert strict.braids == 0
    assert coherent.braids > 0
    assert strict.mor_eq(fast, slow)
    assert fast.provenance == slow.provenance


def test_interpret_rejects_a_derivation_that_disagrees_with_its_context(chip0):
    # A box-intro grade of 25 under a context at grade 10 shifts the body to
    # start at 5; the result must not pass for a morphism from the context.
    j = parse("schedule b (x:^10 q1) : [30] q1 = box[30] H1(x)\n").declarations[0].judgement
    shifted = dataclasses.replace(check(j, chip0), params=(25,))
    with pytest.raises(ModelError, match="context"):
        interpret(j, shifted, PulseModel(chip0))
