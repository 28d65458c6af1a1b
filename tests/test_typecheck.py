import inspect
import random

import pytest

import pstt
from pstt import (
    CtxEntry,
    ErrorKind,
    Judgement,
    Qubit,
    TypingError,
    Unit,
    check,
    infer,
    make_context,
    parse_term,
    parse_type,
    shift_context,
)
from pstt.syntax import free_occurrences
from pstt.testkit import GenConfig, gen_judgement


def test_typing_answers_check_and_infer_only():
    assert not hasattr(pstt, "synthesize") and not hasattr(pstt, "OffsetReport")
    assert "synthesize" not in pstt.__all__ and "OffsetReport" not in pstt.__all__
    assert list(inspect.signature(infer).parameters) == ["term", "env", "chip"]


def test_infer_var(chip0):
    j = infer(parse_term("x"), {"x": Qubit("q1")}, chip0)
    assert j.type == Qubit("q1")
    assert j.ctx == (CtxEntry("x", 0, Qubit("q1")),)


def test_infer_gate_offsets(chip0):
    j = infer(parse_term("H1(x)"), {"x": Qubit("q1")}, chip0)
    assert j.type == Qubit("q1")
    assert {e.name: e.grade for e in j.ctx} == {"x": -20}


def test_infer_duplicate_use(chip0):
    with pytest.raises(TypingError) as exc:
        infer(parse_term("(x, x)"), {"x": Qubit("q1")}, chip0)
    assert exc.value.kind is ErrorKind.DUPLICATE_USE


def test_infer_unbound(chip0):
    with pytest.raises(TypingError) as exc:
        infer(parse_term("H1(y)"), {}, chip0)
    assert exc.value.kind is ErrorKind.UNBOUND_VARIABLE


def test_infer_slack_scopes(chip0):
    # The let-* slack shifts ``u`` only: ``u`` may move, ``x`` may not.
    j = infer(parse_term("let * = u in H1(x)"), {"u": Unit(), "x": Qubit("q1")}, chip0)
    assert {e.name: e.grade for e in j.ctx} == {"u": 0, "x": -20}
    for name, delta, derivable in (("u", 7, True), ("u", -7, True), ("x", 1, False)):
        ctx = tuple(CtxEntry(e.name, e.grade + delta * (e.name == name), e.type) for e in j.ctx)
        moved = Judgement(ctx, j.term, j.type)
        if derivable:
            check(moved, chip0)
        else:
            with pytest.raises(TypingError) as exc:
                check(moved, chip0)
            assert exc.value.kind is ErrorKind.GRADE_MISMATCH


def test_check_chained_gates(chip0):
    j = Judgement(
        make_context([("x", -40, Qubit("q1"))]), parse_term("H1(H1(x))"), Qubit("q1")
    )
    ev = check(j, chip0)
    assert ev.rule == "gate"
    assert ev.params == (20,)


def test_check_box_rule(chip0):
    j = Judgement(
        make_context([("x", 30, Qubit("q1"))]),
        parse_term("box[30] x"),
        parse_type("[30] q1"),
    )
    assert check(j, chip0).rule == "box-intro"


def test_check_box_grade_mismatch(chip0):
    j = Judgement(
        make_context([("x", 0, Qubit("q1"))]),
        parse_term("box[30] x"),
        parse_type("[30] q1"),
    )
    with pytest.raises(TypingError) as exc:
        check(j, chip0)
    assert exc.value.kind is ErrorKind.GRADE_MISMATCH
    assert exc.value.expected == 30
    assert exc.value.actual == 0


def test_check_unit(chip0):
    assert check(Judgement((), parse_term("*"), Unit()), chip0).rule == "unit-intro"


def test_check_unused_context_entry(chip0):
    j = Judgement(make_context([("x", 0, Unit())]), parse_term("*"), Unit())
    with pytest.raises(TypingError) as exc:
        check(j, chip0)
    assert exc.value.kind is ErrorKind.UNUSED_CONTEXT_ENTRY


def test_check_gate_arity_and_type(chip0):
    with pytest.raises(TypingError) as exc:
        check(
            Judgement(
                make_context([("x", -120, Qubit("q1"))]),
                parse_term("CX(x)"),
                parse_type("q1 * q2"),
            ),
            chip0,
        )
    assert exc.value.kind is ErrorKind.GATE_MISMATCH
    with pytest.raises(TypingError) as exc:
        check(
            Judgement(
                make_context([("y", -20, Qubit("q2"))]),
                parse_term("H1(y)"),
                Qubit("q1"),
            ),
            chip0,
        )
    assert exc.value.kind is ErrorKind.GATE_MISMATCH


def test_check_unknown_gate(chip0):
    with pytest.raises(TypingError) as exc:
        check(
            Judgement(make_context([("x", 0, Qubit("q1"))]), parse_term("ZZ(x)"), Qubit("q1")),
            chip0,
        )
    assert exc.value.kind is ErrorKind.UNKNOWN_GATE


def test_check_letbox_grade_annotation_must_match(chip0):
    j = Judgement(
        make_context([("x", 0, parse_type("[20] q1"))]),
        parse_term("let box[30] y = x in y"),
        Qubit("q1"),
    )
    with pytest.raises(TypingError) as exc:
        check(j, chip0)
    assert exc.value.kind is ErrorKind.TYPE_MISMATCH


def test_letstar_slack_solves_any_grade(chip0):
    for grade in (-7, 0, 13):
        j = Judgement(
            make_context([("u", grade, Unit())]),
            parse_term("let * = u in *"),
            Unit(),
        )
        ev = check(j, chip0)
        assert ev.params == (grade,)


def test_letpair_unequal_binder_grades_rejected(chip0):
    # One binder passes through a gate, the other does not.
    j = Judgement(
        make_context([("p", -20, parse_type("q1 * q1"))]),
        parse_term("let (a, b) = p in (H1(a), b)"),
        parse_type("q1 * q1"),
    )
    with pytest.raises(TypingError) as exc:
        check(j, chip0)
    assert exc.value.kind is ErrorKind.GRADE_MISMATCH


def test_declared_type_mismatch(chip0):
    j = Judgement(make_context([("x", 0, Qubit("q1"))]), parse_term("x"), Qubit("q2"))
    with pytest.raises(TypingError) as exc:
        check(j, chip0)
    assert exc.value.kind is ErrorKind.TYPE_MISMATCH


def test_infer_slack_zero_convention(chip0):
    j = infer(parse_term("let * = u in H1(x)"), {"u": Unit(), "x": Qubit("q1")}, chip0)
    grades = {e.name: e.grade for e in j.ctx}
    assert grades == {"u": 0, "x": -20}
    d = check(j, chip0)  # the derivation infer kept
    assert (d.rule, d.params) == ("unit-elim", (0,))  # its slack, reported at 0


def test_check_a_pinned_grade(chip0):
    ctx = make_context([("u", 9, Unit()), ("x", -20, Qubit("q1"))])
    d = check(Judgement(ctx, parse_term("let * = u in H1(x)"), Qubit("q1")), chip0)
    assert {e.name: e.grade for e in d.ctx} == {"u": 9, "x": -20}


# -------------------------------------------------------------- properties


def test_linearity_of_generated_judgements(chip0):
    rng = random.Random(7)
    cfg = GenConfig(chip=chip0, seed=7)
    for _ in range(150):
        j = gen_judgement(cfg, rng=rng)
        names = sorted(e.name for e in j.ctx)
        assert sorted(free_occurrences(j.term)) == names


def test_substitution_admissibility(chip0):
    from pstt.syntax import substitute

    rng = random.Random(11)
    cfg = GenConfig(chip=chip0, seed=11)
    done = 0
    while done < 60:
        outer = gen_judgement(cfg, rng=rng)
        if not outer.ctx:
            continue
        entry = rng.choice(list(outer.ctx))
        inner = gen_judgement(cfg, goal=entry.type, rng=rng)
        if set(e.name for e in inner.ctx) & set(e.name for e in outer.ctx):
            continue
        new_ctx = shift_context(entry.grade, inner.ctx) + tuple(
            e for e in outer.ctx if e.name != entry.name
        )
        new_term = substitute(outer.term, entry.name, inner.term)
        check(Judgement(new_ctx, new_term, outer.type), chip0)
        done += 1


def test_letstar_shift_invariance(chip0):
    # Uniformly moving the declared grades of a let-* scrutinee's variables
    # keeps the judgement derivable.
    j = Judgement(
        make_context([("u", 4, Unit()), ("x", -20, Qubit("q1"))]),
        parse_term("let * = u in H1(x)"),
        Qubit("q1"),
    )
    check(j, chip0)
    for delta in (-100, -1, 17):
        moved = tuple(
            e if e.name != "u" else type(e)(e.name, e.grade + delta, e.type)
            for e in j.ctx
        )
        check(Judgement(moved, j.term, j.type), chip0)


def test_check_infer_consistency(chip0):
    rng = random.Random(13)
    cfg = GenConfig(chip=chip0, seed=13)
    for _ in range(80):
        j = gen_judgement(cfg, rng=rng)
        check(j, chip0)
        assert infer(j.term, {e.name: e.type for e in j.ctx}, chip0).type == j.type
