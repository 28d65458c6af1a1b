import dataclasses

import pytest

from pstt import (
    EqKind,
    Judgement,
    Qubit,
    Unit,
    emit,
    from_json,
    judgementally_equal,
    make_context,
    parse_term,
    parse_type,
    to_json,
    validate,
)
from pstt.schedule import Channel, Schedule


def test_emit_single_gate_is_calibration(chip0):
    j = Judgement(make_context([("x", -20, Qubit("q1"))]), parse_term("H1(x)"), Qubit("q1"))
    s = emit(j, chip0)
    (ch,) = s.channels
    assert (ch.qubit, ch.start, ch.end) == ("q1", -20, 0)
    assert ch.samples == chip0.calibrations["H1"].samples["q1"]
    assert s.provenance == (("H1", "q1", -20, 0),)


def test_emit_delay_then_gate(chip0):
    j = Judgement(
        make_context([("x", -50, Qubit("q1"))]),
        parse_term("H1(delay[q1,30](x))"),
        Qubit("q1"),
    )
    s = emit(j, chip0)
    (ch,) = s.channels
    assert (ch.start, ch.end) == (-50, 0)
    assert ch.samples[:30] == (0,) * 30
    assert ch.samples[30:] == chip0.calibrations["H1"].samples["q1"]
    assert s.provenance == (
        ("delay[q1,30]", "q1", -50, -20),
        ("H1", "q1", -20, 0),
    )


def test_emit_star_is_empty(chip0):
    s = emit(Judgement((), parse_term("*"), Unit()), chip0)
    assert s.channels == ()
    assert validate(s, Judgement((), parse_term("*"), Unit())).passed


def test_emit_deterministic(chip0, corpus):
    for d in corpus.declarations:
        assert emit(d.judgement, chip0) == emit(d.judgement, chip0)


def test_validate_corpus(chip0, corpus):
    for d in corpus.declarations:
        report = validate(emit(d.judgement, chip0), d.judgement)
        assert report.passed, (d.name, report.summary())


def _mutate_delete_sample(s: Schedule) -> Schedule:
    channels = list(s.channels)
    for i, ch in enumerate(channels):
        if ch.samples:
            channels[i] = dataclasses.replace(ch, samples=ch.samples[:-1])
            return Schedule(tuple(channels), s.provenance)
    raise ValueError("no non-empty channel")


def _mutate_duplicate_segment(s: Schedule) -> Schedule:
    channels = list(s.channels)
    for i, ch in enumerate(channels):
        if ch.samples:
            channels[i] = dataclasses.replace(ch, samples=ch.samples + ch.samples[-3:])
            return Schedule(tuple(channels), s.provenance)
    raise ValueError("no non-empty channel")


def test_validate_catches_deleted_sample(chip0):
    j = Judgement(make_context([("x", -20, Qubit("q1"))]), parse_term("H1(x)"), Qubit("q1"))
    bad = _mutate_delete_sample(emit(j, chip0))
    report = validate(bad, j)
    assert not report.passed
    assert any(ch.gaps for ch in report.channels)


def test_validate_catches_duplicated_segment(chip0):
    j = Judgement(make_context([("x", -20, Qubit("q1"))]), parse_term("H1(x)"), Qubit("q1"))
    bad = _mutate_duplicate_segment(emit(j, chip0))
    report = validate(bad, j)
    assert not report.passed
    assert any(ch.overlaps for ch in report.channels)


def test_validate_missing_channel_is_gap(chip0):
    j = Judgement(make_context([("x", -20, Qubit("q1"))]), parse_term("H1(x)"), Qubit("q1"))
    report = validate(Schedule(()), j)
    assert not report.passed
    assert report.channels[0].gaps == ((-20, 0),)


def test_validate_untouched_qubit_zero_length(chip0):
    j = Judgement(
        make_context([("x", -20, Qubit("q1")), ("y", 5, Qubit("q2"))]),
        parse_term("(H1(x), box[5] y)"),
        parse_type("q1 * ([5] q2)"),
    )
    s = emit(j, chip0)
    q2 = s.channel("q2")
    assert q2.start == q2.end == 5 and q2.samples == ()
    assert validate(s, j).passed
    # Dropping the zero-length channel entirely is also complete.
    trimmed = Schedule(tuple(c for c in s.channels if c.qubit != "q2"), s.provenance)
    assert validate(trimmed, j).passed
    # But giving the idle qubit samples is an overlap.
    fat = Schedule(
        tuple(
            c if c.qubit != "q2" else dataclasses.replace(c, end=8, samples=(1, 2, 3))
            for c in s.channels
        ),
        s.provenance,
    )
    assert not validate(fat, j).passed


def test_extra_channel_is_flagged(chip0):
    j = Judgement(make_context([("x", -20, Qubit("q1"))]), parse_term("H1(x)"), Qubit("q1"))
    s = emit(j, chip0)
    extra = Schedule(s.channels + (Channel("q2", 0, 4, (1, 2, 3, 4)),), s.provenance)
    report = validate(extra, j)
    assert not report.passed


@pytest.mark.parametrize(
    "where, stray, summary",
    [
        ("after", Channel("q1", 0, 7, (5,) * 7), "q1: overlaps [(0, 7)]"),
        (
            "before",
            Channel("q1", 0, 7, (5,) * 7),
            "q1: gaps [(-20, 0)]; q1: overlaps [(0, 7)]; q1: overlaps [(-20, 0)]",
        ),
        ("after", Channel("q1", 3, 3, ()), "q1: overlaps [(3, 3)]"),
    ],
    ids=["appended", "prepended", "empty-appended"],
)
def test_repeated_channel_is_flagged(chip0, where, stray, summary):
    # ``to_json`` writes a qubit's last channel, so every channel after
    # the first, empty or not, is an overlap over its claimed span.
    j = Judgement(make_context([("x", -20, Qubit("q1"))]), parse_term("H1(x)"), Qubit("q1"))
    s = emit(j, chip0)
    channels = s.channels + (stray,) if where == "after" else (stray,) + s.channels
    report = validate(Schedule(channels, s.provenance), j)
    assert not report.passed
    assert report.summary() == summary


def test_emit_invariant_under_judgemental_equality(chip0):
    ctx = make_context([("x", -40, Qubit("q1"))])
    s = parse_term("H1(let box[20] b = box[20] H1(x) in b)")
    t = parse_term("H1(H1(x))")
    assert judgementally_equal(ctx, s, t, Qubit("q1"), chip0).kind is EqKind.EQUAL
    assert emit(Judgement(ctx, s, Qubit("q1")), chip0) == emit(
        Judgement(ctx, t, Qubit("q1")), chip0
    )


def test_channel_spans_match_judgement_grades(chip0, corpus):
    from pstt.semantics import type_pulse_object

    for d in corpus.declarations:
        s = emit(d.judgement, chip0)
        ends = {q: g for g, q in type_pulse_object(d.type).entries}
        starts = {}
        for e in d.ctx:
            for g, q in type_pulse_object(e.type).entries:
                starts[q] = g + e.grade
        for ch in s.channels:
            assert ch.start == starts[ch.qubit]
            assert ch.end == ends[ch.qubit]


def test_json_round_trip_byte_stable(chip0, corpus):
    for d in corpus.declarations:
        s = emit(d.judgement, chip0)
        text = to_json(s)
        assert to_json(from_json(text)) == text
        assert from_json(text) == s


def test_json_key_order_sorted(chip0):
    j = Judgement(
        make_context([("y", -120, Qubit("q2")), ("x", -120, Qubit("q1"))]),
        parse_term("CX(x, y)"),
        parse_type("q1 * q2"),
    )
    text = to_json(emit(j, chip0))
    assert text.index('"q1"') < text.index('"q2"')
