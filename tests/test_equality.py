import random

import pytest

from pstt import (
    EqKind,
    Judgement,
    Qubit,
    TypingError,
    Unit,
    alpha_eq,
    check,
    judgementally_equal,
    make_context,
    normalize,
    parse,
    parse_term,
    parse_type,
    print_term,
)
from pstt.equality import ALL_RULES, BudgetExceeded, _beta
from pstt.testkit import GenConfig, gen_judgement


def judgement(ctx, src, ty):
    """``ctx |- src : ty``, each written in the surface syntax."""
    return parse(f"schedule s ({ctx}) : {ty} = {src}\n").declarations[0].judgement


def nf(chip, ctx, src, ty):
    return print_term(normalize(judgement(ctx, src, ty), chip).term)


def test_beta_unit(chip0):
    assert nf(chip0, "x:^0 q1", "let * = * in x", "q1") == "x"


def test_beta_pair_swaps_components(chip0):
    assert nf(chip0, "a:^0 q1, b:^0 q2", "let (x, y) = (a, b) in (y, x)", "q2 * q1") == "(b, a)"


def test_eta_pair(chip0):
    assert nf(chip0, "t:^0 q1 * q2", "let (x, y) = t in (x, y)", "q1 * q2") == "t"


def test_beta_box(chip0):
    assert nf(chip0, "a:^-20 q1", "let box[30] x = box[30] a in H1(x)", "q1") == "H1(a)"


def test_box_grade_mismatch_is_not_a_redex(chip0):
    # The let and the box disagree on the grade, so no judgement types the
    # term; the beta rule leaves it alone all the same.
    term = parse_term("let box[30] x = box[20] a in x")
    assert _beta(term) is None
    with pytest.raises(TypingError, match=r"let box\[30\] must have type \[30\] A, got \[20\] q1"):
        normalize(Judgement(make_context([("a", 0, Qubit("q1"))]), term, parse_type("q1")), chip0)


def test_lets_hoist_to_prefix(chip0):
    assert nf(chip0, "a:^0 q1, s:^0 1, b:^0 q2", "(a, let * = s in b)", "q1 * q2") == (
        "let * = s in (a, b)"
    )
    assert nf(chip0, "s:^3 1, b:^3 q1", "box[3] let * = s in b", "[3] q1") == "let * = s in box[3] b"
    assert nf(chip0, "s:^-20 1, x:^-20 q1", "H1(let * = s in x)", "q1") == "let * = s in H1(x)"
    assert (
        nf(chip0, "s:^0 1, t:^0 1, u:^0 q1", "let * = (let * = s in t) in u", "q1")
        == "let * = s in let * = t in u"
    )


def test_independent_lets_sort_by_scrutinee(chip0):
    out = nf(chip0, "yy:^0 1, xx:^0 1", "let * = yy in let * = xx in *", "1")
    assert out == "let * = xx in let * = yy in *"


def test_dependent_lets_do_not_reorder(chip0):
    out = nf(chip0, "p:^0 1 * 1", "let (zz, ww) = p in let * = zz in let * = ww in *", "1")
    assert out.startswith("let (zz, ww) = p")


def test_normalize_idempotent(chip0):
    rng = random.Random(3)
    cfg = GenConfig(chip=chip0, seed=3)
    for _ in range(60):
        j = gen_judgement(cfg, rng=rng)
        once = normalize(j, chip0)
        twice = normalize(Judgement(j.ctx, once.term, j.type), chip0)
        assert alpha_eq(once.term, twice.term)
        assert not twice.trace


def test_every_step_preserves_typing(chip0):
    rng = random.Random(5)
    cfg = GenConfig(chip=chip0, seed=5)
    for _ in range(60):
        j = gen_judgement(cfg, rng=rng)
        result = normalize(j, chip0)
        for step in result.trace:
            check(Judgement(j.ctx, step.result, j.type), chip0)


def test_trace_rules_are_known(chip0):
    rng = random.Random(9)
    cfg = GenConfig(chip=chip0, seed=9)
    seen = set()
    for _ in range(80):
        j = gen_judgement(cfg, rng=rng)
        result = normalize(j, chip0)
        seen.update(result.rules)
    assert seen <= set(ALL_RULES)
    assert seen  # the corpus is not trivial


def test_congruence_under_contexts(chip0):
    # A rewrite applied inside a context normalizes to the same form as the
    # context of the rewritten term.
    from pstt import BoxIntro, LetStar, Pair, Var

    redex = parse_term("let * = * in x")
    reduced = parse_term("x")
    x, w, u = ("x", 0, Qubit("q1")), ("w", 0, Qubit("q2")), ("u", 0, Unit())
    contexts = [
        (lambda h: Pair(h, Var("w")), [x, w], "q1 * q2"),
        (lambda h: Pair(Var("w"), h), [w, x], "q2 * q1"),
        (lambda h: BoxIntro(5, h), [("x", 5, Qubit("q1"))], "[5] q1"),
        (lambda h: LetStar(Var("u"), h), [u, x], "q1"),
    ]
    for ctx_of, ctx, ty in contexts:
        ctx, ty = make_context(ctx), parse_type(ty)
        a = normalize(Judgement(ctx, ctx_of(redex), ty), chip0)
        b = normalize(Judgement(ctx, ctx_of(reduced), ty), chip0)
        assert alpha_eq(a.term, b.term)


def test_budget_exhaustion_raises(chip0):
    j = judgement("a:^0 q1, b:^0 q2", "let (x, y) = (a, b) in (y, x)", "q2 * q1")
    with pytest.raises(BudgetExceeded):
        normalize(j, chip0, budget=0)


def test_normalize_takes_only_a_judgement(chip0):
    j = judgement("x:^0 q1", "let * = * in x", "q1")
    with pytest.raises(TypeError, match="takes a Judgement"):
        normalize(j.term, chip0)


# ------------------------------------------------------------ judgemental


def test_unit_eta_equal(chip0):
    ctx = make_context([("x", 0, Unit())])
    v = judgementally_equal(ctx, parse_term("let * = x in *"), parse_term("x"), Unit(), chip0)
    assert v.kind is EqKind.EQUAL


def test_unit_eta_blocked_at_nonzero_grade(chip0):
    # At grade 5 the contraction target `x` does not even check, so the
    # normal form must keep the let.
    ctx = make_context([("x", 5, Unit())])
    out = normalize(Judgement(ctx, parse_term("let * = x in *"), Unit()), chip0)
    assert print_term(out.term) == "let * = x in *"


def test_semantics_distinguish_gates(chip0):
    ctx = make_context([("x", -20, Qubit("q1"))])
    v = judgementally_equal(ctx, parse_term("H1(x)"), parse_term("K1(x)"), Qubit("q1"), chip0)
    assert v.kind is EqKind.NOT_EQUAL_SEMANTICS


def test_let_reordering_equal(chip0):
    ctx = make_context([("x", 0, Unit()), ("y", 0, Unit())])
    v = judgementally_equal(
        ctx,
        parse_term("let * = x in let * = y in *"),
        parse_term("let * = y in let * = x in *"),
        Unit(),
        chip0,
    )
    assert v.kind is EqKind.EQUAL


def test_unit_placement_equal(chip0):
    ctx = make_context([("c", 0, Unit())])
    v = judgementally_equal(
        ctx, parse_term("(c, *)"), parse_term("(*, c)"), parse_type("1 * 1"), chip0
    )
    assert v.kind is EqKind.EQUAL


def test_delay_is_not_erasable(chip0):
    # A unit-typed process with a delay inside is not rewritten to *.
    j = Judgement(
        make_context([("u", 0, Unit())]),
        parse_term("let * = u in *"),
        Unit(),
    )
    check(j, chip0)
    out = normalize(j, chip0)
    assert print_term(out.term) != "*"


def test_ill_typed_inputs_rejected(chip0):
    ctx = make_context([("x", 5, Qubit("q1"))])
    with pytest.raises(TypingError):
        judgementally_equal(ctx, parse_term("x"), parse_term("x"), Qubit("q1"), chip0)


def test_equal_trace_records_rules(chip0):
    ctx = make_context([("x", -20, Qubit("q1"))])
    v = judgementally_equal(
        ctx,
        parse_term("let box[30] x2 = box[30] H1(x) in x2"),
        parse_term("H1(x)"),
        Qubit("q1"),
        chip0,
    )
    assert v.kind is EqKind.EQUAL
    assert "beta-box" in v.trace[0]


def test_reversed_160_let_spine_sorts_within_budget(chip0):
    # Sorting one adjacent swap per step spent the whole budget on this
    # spine's 12 720 inversions and answered Unknown; one sort pass costs
    # one step.
    from pstt import CtxEntry, GateApp, LetStar, Var

    names = [f"u{i:03d}" for i in range(160)]
    ctx = (CtxEntry("x", -20, Qubit("q1")),) + tuple(CtxEntry(u, 0, Unit()) for u in names)
    core = GateApp("H1", (Var("x"),))

    def spine(order):
        term = core
        for u in reversed(order):
            term = LetStar(Var(u), term)
        return term

    reversed_, sorted_ = spine(names[::-1]), spine(names)
    v = judgementally_equal(ctx, reversed_, sorted_, Qubit("q1"), chip0)
    assert v.kind is EqKind.EQUAL
    nf = normalize(Judgement(ctx, reversed_, Qubit("q1")), chip0)
    assert alpha_eq(nf.term, normalize(Judgement(ctx, sorted_, Qubit("q1")), chip0).term)
    assert len(nf.rules) == 160 * 159 // 2 == 12_720
