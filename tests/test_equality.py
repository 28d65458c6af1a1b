import random

import pytest

from pstt import (
    EqKind,
    Judgement,
    Qubit,
    Unit,
    alpha_eq,
    check,
    judgementally_equal,
    make_context,
    normalize,
    parse_term,
    parse_type,
    print_term,
)
from pstt.equality import ALL_RULES, BudgetExceeded
from pstt.testkit import GenConfig, gen_judgement


def nf(src, **kw):
    return print_term(normalize(parse_term(src), **kw).term)


def test_beta_unit():
    assert nf("let * = * in x") == "x"


def test_beta_pair_swaps_components():
    assert nf("let (x, y) = (a, b) in (y, x)") == "(b, a)"


def test_eta_pair():
    assert nf("let (x, y) = t in (x, y)") == "t"


def test_beta_box():
    assert nf("let box[30] x = box[30] a in H1(x)") == "H1(a)"


def test_box_grade_mismatch_is_not_a_redex():
    assert nf("let box[30] x = box[20] a in x") == "let box[30] x = box[20] a in x"


def test_lets_hoist_to_prefix():
    assert nf("(a, let * = s in b)") == "let * = s in (a, b)"
    assert nf("box[3] let * = s in b") == "let * = s in box[3] b"
    assert nf("H1(let * = s in x)") == "let * = s in H1(x)"
    assert nf("let * = (let * = s in t) in u") == "let * = s in let * = t in u"


def test_independent_lets_sort_by_scrutinee():
    assert nf("let * = yy in let * = xx in *") == "let * = xx in let * = yy in *"


def test_dependent_lets_do_not_reorder():
    src = "let (zz, ww) = p in let * = zz in let * = ww in *"
    out = nf(src)
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
    contexts = [
        lambda h: Pair(h, Var("w")),
        lambda h: Pair(Var("w"), h),
        lambda h: BoxIntro(5, h),
        lambda h: LetStar(Var("u"), h),
    ]
    for ctx_of in contexts:
        a = normalize(ctx_of(redex))
        b = normalize(ctx_of(reduced))
        assert alpha_eq(a.term, b.term)


def test_budget_exhaustion_raises():
    term = parse_term("let (x, y) = (a, b) in (y, x)")
    with pytest.raises(BudgetExceeded):
        normalize(term, budget=0)


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
    from pstt import TypingError

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
