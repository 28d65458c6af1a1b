"""``emit`` against the frozen walk in ``reference_schedule``.

``emit`` resolves each gate on the chip once and pushes a gate's
arguments at its start time directly.  On every input below it must give
the same ``Schedule`` and the same JSON bytes as the reference, or raise
the same exception class with the same message.
"""

from __future__ import annotations

import json
import random

import pytest

from brickwork import brickwork_chip, brickwork_judgement
from pstt import parse, parse_chip_spec
from pstt.schedule import MissingCalibration, Unschedulable, emit, to_json
from pstt.testkit import GenConfig, gen_judgement
from pstt.typecheck import TypingError
from reference_schedule import emit as reference_emit
from test_cli import UNCALIBRATED_CHIP
from test_compile_path import under_unit_spine
from test_traversal import chain_source


def outcome(f, j, chip):
    """The schedule and its JSON, or the class and message of what ``f`` raised."""
    try:
        s = f(j, chip)
    except Exception as e:
        return type(e), str(e)
    return s, to_json(s)


def assert_same_emit(j, chip):
    new, ref = outcome(emit, j, chip), outcome(reference_emit, j, chip)
    assert new == ref
    return new


def judgement(source: str):
    return parse(source + "\n").declarations[0].judgement


def test_corpus_emits_as_the_reference(chip0, corpus):
    rng = random.Random(3)
    for d in corpus.declarations:
        assert_same_emit(d.judgement, chip0)
        assert_same_emit(under_unit_spine(d.judgement, rng), chip0)


@pytest.mark.parametrize("seed", [7, 2025])
def test_generated_judgements_emit_as_the_reference(chip0, seed):
    rng = random.Random(seed)
    gates = 0
    for depth in range(4, 11):
        cfg = GenConfig(chip=chip0, seed=seed, max_depth=depth)
        for _ in range(8):
            j = gen_judgement(cfg, rng=rng)
            s, _ = assert_same_emit(j, chip0)
            gates += len(s.provenance)
            assert_same_emit(under_unit_spine(j, rng), chip0)
    assert gates > 30


@pytest.mark.parametrize("width, layers", [(8, 10), (16, 20)])
def test_brickwork_emits_as_the_reference(width, layers):
    chip = brickwork_chip(width)
    s, _ = assert_same_emit(brickwork_judgement(chip, layers), chip)
    assert len(s.channels) == width


def test_a_long_chain_emits_as_the_reference(chip0):
    s, _ = assert_same_emit(judgement(chain_source(2_000)), chip0)
    assert len(s.provenance) == 2_000


def test_a_gate_without_calibration_raises_as_the_reference():
    chip = parse_chip_spec(json.dumps(UNCALIBRATED_CHIP))
    for source in (
        "schedule g (x:^-20 q1) : q1 = G(x)",
        "schedule g (x:^-45 q1) : q1 = H1(delay[q1,5](G(x)))",
    ):
        assert assert_same_emit(judgement(source), chip) == (
            MissingCalibration,
            "gate 'G' has no calibration",
        )
    # A delay has no calibration either, and is no error.
    s, _ = assert_same_emit(judgement("schedule d (x:^-25 q1) : q1 = H1(delay[q1,5](x))"), chip)
    assert s.channels[0].samples == (0,) * 5 + tuple(range(20))


def test_a_chip_without_delay_gates_emits_as_the_reference(chip0_path):
    doc = json.loads(chip0_path.read_text())
    chip = parse_chip_spec(json.dumps({**doc, "delay_gates_enabled": False}))
    cls, message = assert_same_emit(judgement("schedule d (x:^-25 q1) : q1 = H1(delay[q1,5](x))"), chip)
    assert cls is TypingError and message.startswith("unknown gate: gate 'delay[q1,5]'")
    assert_same_emit(judgement("schedule h (x:^-40 q1) : q1 = K1(H1(x))"), chip)


@pytest.mark.parametrize(
    "source, message",
    [
        ("schedule a (x:^-20 q1, y:^0 q9) : q1 * q9 = (H1(x), y)", "unknown qubit 'q9'"),
        (
            "schedule a (x:^-20 q1, y:^-20 q1) : q1 * q1 = (H1(x), H1(y))",
            "qubit q1 is named twice in the context: by x and by y",
        ),
    ],
)
def test_unschedulable_judgements_raise_as_the_reference(chip0, source, message):
    assert assert_same_emit(judgement(source), chip0) == (Unschedulable, message)
