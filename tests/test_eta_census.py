"""The eta-spine rules read one census of the let spine.

``equality._eta_spine`` answers both pair/box eta rules, the deep repack
and the parked repack, from one walk of the spine's scrutinees and core,
taken when its scan meets the first pair or box let.  ``eta_spine`` in
``reference_normalize`` is the code it replaces, frozen: for every pair or
box let it rescans the rest of the term.  The two are held to each other
call by call and normal form by normal form on generated judgements, typed
and bare, brickwork circuits in both layer orders, ``equiv``-shaped pairs
and parked unit binders, and on random bare terms, which may be
non-linear.  Call counts bound the work: at most one census per call, none
for a spine of unit lets only, and no ``free_vars`` call.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pstt import (
    EqKind,
    Judgement,
    check,
    equality,
    judgementally_equal,
    normalize,
    parse,
    parse_term,
    print_term,
)
from pstt.equality import DEFAULT_BUDGET, BudgetExceeded, LetStar
from pstt.testkit import GenConfig, gen_judgement

import reference_normalize as ref
from brickwork import brickwork_chip, brickwork_judgement
from test_check_once import UNIT_PAIRS
from test_rewrite_once import equiv_pairs
from test_syntax import terms

# Box lets across a spine: a deep repack, and a parked one.
BOX_SPINES = """\
schedule deep_box (b:^0 [2] q1, c:^0 1) : [2] q1 = let box[2] x = b in let * = c in box[2] x
schedule parked_box (b:^0 [2] 1) : [2] 1 = let box[2] x = b in let * = x in box[2] *
"""

# A bare, non-linear term: beta copies ``let (v, x) = u in *``, so two
# spine lets bind ``v_1`` and the sort pass refuses the spine.
REBOUND_SPINE = (
    "let (y, u) = ((let (v, x) = u in *, box[2] *), v) in "
    "let box[8] z = ((v, y), box[-2] y) in box[2] let box[2] z = z in *"
)


@pytest.fixture(scope="module")
def subjects(chip0):
    """``(subject, chip)``: each judgement checked on its chip, and its bare term."""
    out = []

    def judgement(j, chip):
        check(j, chip)
        out.append((j, chip))
        out.append((j.term, None))

    rng = random.Random(23)
    for depth in range(4, 11):
        cfg = GenConfig(chip=chip0, seed=23, max_depth=depth)
        for _ in range(6):
            judgement(gen_judgement(cfg, rng=rng), chip0)
    for n, layers in ((4, 5), (8, 10), (16, 20)):
        chip = brickwork_chip(n, seed=n)
        for reverse in (False, True):
            judgement(brickwork_judgement(chip, layers, reverse=reverse), chip)
    for ctx, s, t, ty in equiv_pairs(chip0, random.Random(18), 8):
        judgement(Judgement(ctx, s, ty), chip0)
        judgement(Judgement(ctx, t, ty), chip0)
    for decl in parse(UNIT_PAIRS + BOX_SPINES).declarations:
        judgement(decl.judgement, chip0)
    return out


def frozen_normalize(subject, chip, monkeypatch, **budget):
    """``normalize`` with the frozen ``eta_spine`` in place of the census."""
    with monkeypatch.context() as m:
        m.setattr(equality, "_eta_spine", ref.eta_spine)
        return normalize(subject, chip, **budget)


def test_each_call_answers_as_the_frozen_rescans(subjects, monkeypatch):
    live = equality._eta_spine
    fired = []
    scans = 0

    def compared(t, recheck):
        nonlocal scans
        scans += not all(type(node) is LetStar for node in equality._spine(t)[0])
        checked = []

        def noted(t2):
            checked.append(recheck(t2))
            return checked[-1]

        got = live(t, recheck and noted)
        assert got == ref.eta_spine(t, recheck)
        if got is not None:
            fired.append((got[0], checked[-1:] == [True]))  # a parked repack passed its recheck
        return got

    monkeypatch.setattr(equality, "_eta_spine", compared)
    for subject, chip in subjects:
        normalize(subject, chip)
    assert set(fired) == {(rule, parked) for rule in ("eta-pair", "eta-box") for parked in (False, True)}
    assert scans > 500  # calls that meet a pair or box let


def test_normal_forms_and_steps_match_the_frozen_rescans(subjects, monkeypatch):
    for subject, chip in subjects:
        nf = normalize(subject, chip)
        want = frozen_normalize(subject, chip, monkeypatch)
        assert nf.steps == want.steps
        assert nf.rules == want.rules
        assert nf.term == want.term
        for budget in (1, 3):
            try:
                got = normalize(subject, chip, budget=budget).steps
            except BudgetExceeded as e:
                got = e.partial
            try:
                want = frozen_normalize(subject, chip, monkeypatch, budget=budget).steps
            except BudgetExceeded as e:
                want = e.partial
            assert got == want


def test_the_parked_repack_contracts_after_a_recheck(chip0):
    parked = parse(UNIT_PAIRS).declarations[0].judgement  # let (a, b) = p in let * = a in (*, b)
    nf = normalize(parked, chip0)
    assert print_term(nf.term) == "p"
    assert nf.rules == ("eta-pair",)
    # A bare term has no recheck, so its parked repack stays.
    assert normalize(parked.term).rules == ()


def outcome(run, term, budget):
    try:
        nf = run(term, budget=budget)
        return print_term(nf.term), nf.rules
    except BudgetExceeded as e:
        return "budget", e.steps, print_term(e.partial)
    except Exception as e:
        return type(e), str(e)


@given(terms(depth=4), st.sampled_from([2, 8, DEFAULT_BUDGET]))
@example(parse_term(REBOUND_SPINE), DEFAULT_BUDGET)
@settings(max_examples=400, deadline=None)
def test_bare_terms_give_the_frozen_outcome(term, budget):
    assert outcome(normalize, term, budget) == outcome(ref.normalize, term, budget)


def accept(t):
    """A recheck that passes every contraction, so that untyped spines reach the parked rule."""
    return True


@pytest.mark.parametrize(
    "text, recheck, want",
    [
        # The repack's ``x`` is the inner let's: contracting would capture it.
        ("let (x, y) = p in let (x, w) = q in (x, y)", None, None),
        # The repack is the outer let's, but a later scrutinee rebinds ``x``.
        ("let (x, y) = p in let * = (x, y) in let * = (let (x, w) = q in *) in *", None, None),
        # Uses in the let's own scrutinee are not below it.
        ("let (x, y) = K(x) in let * = u in (x, y)", None, "let * = u in K(x)"),
        ("let box[2] x = K(x) in let * = u in box[2] x", None, "let * = u in K(x)"),
        ("let box[2] x = b in let * = u in box[3] x", None, None),
        # A parked binder must be a whole ``let *`` scrutinee, parked once,
        # and every other use below must be its core slot.
        ("let (a, b) = p in let * = a in (*, b)", accept, "p"),
        ("let (a, b) = p in let * = a in (*, b)", None, None),
        ("let (a, b) = p in let * = K(a) in (*, b)", accept, None),
        ("let (a, b) = p in let * = a in let * = K(b) in (*, b)", accept, None),
        ("let (a, b) = p in let * = a in let * = a in (*, b)", accept, None),
        ("let (a, b) = p in let * = a in (*, *)", accept, None),
        ("let box[2] a = p in let * = a in box[2] *", accept, "p"),
    ],
)
def test_hand_built_spines_answer_as_the_frozen_rescans(text, recheck, want):
    # ``normalize`` freshens binders, and only a beta step that copies a let
    # of a non-linear term rebinds one; these spines come from the parser.
    t = parse_term(text)
    got = equality._eta_spine(t, recheck)
    assert got == ref.eta_spine(t, recheck)
    assert (got and print_term(got[1])) == want


def test_a_spine_binder_rebound_by_a_copied_let_is_not_fresh():
    # The spine's sort keys need fresh binders; a bare term is assumed
    # linear, and this one is not.
    with pytest.raises(AssertionError, match="spine binder 'v_1' is not fresh"):
        normalize(parse_term(REBOUND_SPINE))
    with pytest.raises(AssertionError, match="spine binder 'v_1' is not fresh"):
        ref.normalize(parse_term(REBOUND_SPINE))


# ------------------------------------------------------------- bounded work


@pytest.fixture
def work(monkeypatch):
    """Per ``_eta_spine`` call: (spine of unit lets only, census walks, ``free_vars`` calls)."""
    calls = []
    counts = {"census": 0, "free_vars": 0}
    live, census, free_vars = equality._eta_spine, equality._census, equality.free_vars

    def counted(name, fn):
        def run(*args):
            counts[name] += 1
            return fn(*args)

        return run

    def eta_spine(t, recheck):
        counts.update(census=0, free_vars=0)
        got = live(t, recheck)
        units_only = all(type(node) is LetStar for node in equality._spine(t)[0])
        calls.append((units_only, counts["census"], counts["free_vars"]))
        return got

    monkeypatch.setattr(equality, "_census", counted("census", census))
    monkeypatch.setattr(equality, "free_vars", counted("free_vars", free_vars))
    monkeypatch.setattr(equality, "_eta_spine", eta_spine)
    return calls


def assert_bounded(calls):
    assert calls
    for units_only, censuses, free_vars in calls:
        assert free_vars == 0
        assert censuses == (0 if units_only else 1)


def test_brickwork_takes_one_census_per_scan(work):
    chip = brickwork_chip(32, seed=32)
    normalize(brickwork_judgement(chip, 40), chip)
    assert_bounded(work)
    assert not any(units_only for units_only, _, _ in work)


def test_an_equiv_pair_takes_no_census_for_a_spine_of_unit_lets(chip0, work):
    ctx, s, t, ty = equiv_pairs(chip0, random.Random(954), 1)[0]
    assert judgementally_equal(ctx, s, t, ty, chip0).kind is EqKind.EQUAL
    assert_bounded(work)
    assert any(units_only for units_only, _, _ in work)


def test_the_census_module_has_no_rescans():
    assert not hasattr(equality, "_count_pattern")
    assert not hasattr(equality, "positions")
