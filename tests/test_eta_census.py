"""The eta-spine rules read one census of the let spine.

``equality._eta_spine`` answers both pair/box eta rules, the deep repack
and the parked repack, from one walk of the spine's scrutinees and core,
taken when its scan meets the first pair or box let.  ``eta_spine`` in
``reference_normalize`` is the code it replaces, frozen: for every pair or
box let it rescans the rest of the term.  The two are held to each other
call by call and normal form by normal form on generated judgements,
brickwork circuits in both layer orders, ``equiv``-shaped pairs and parked
unit binders.  Call counts bound the work: at most one census per call,
none for a spine of unit lets only, and no ``free_vars`` call.  A
non-linear term never reaches the rewriter: ``normalize`` checks it first.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstt import (
    EqKind,
    ErrorKind,
    Judgement,
    TypingError,
    check,
    equality,
    judgementally_equal,
    normalize,
    parse,
    parse_term,
    print_term,
)
from pstt.equality import DEFAULT_BUDGET, BudgetExceeded, LetStar
from pstt.syntax import binders, children, free_vars
from pstt.testkit import GenConfig, gen_judgement

import reference_normalize as ref
from brickwork import brickwork_chip, brickwork_judgement
from test_check_once import UNIT_PAIRS
from test_cli import invoke
from test_rewrite_once import SHADOWING, equiv_pairs

# Box lets across a spine: a deep repack, and a parked one.
BOX_SPINES = """\
schedule deep_box (b:^0 [2] q1, c:^0 1) : [2] q1 = let box[2] x = b in let * = c in box[2] x
schedule parked_box (b:^0 [2] 1) : [2] 1 = let box[2] x = b in let * = x in box[2] *
"""

# A non-linear term: ``y`` is used twice, so beta would copy the let that
# ``y`` is bound to, and two spine lets would bind ``v_1``.
REBOUND_SPINE = (
    "let (y, u) = ((let (v, x) = u in *, box[2] *), v) in "
    "let box[8] z = ((v, y), box[-2] y) in box[2] let box[2] z = z in *"
)
# The same with the copied let using its binders, so that the first fault
# the checker meets is ``y``'s second use.
REBOUND_SPINE_USED = REBOUND_SPINE.replace("u in *", "u in let * = v in x")


@pytest.fixture(scope="module")
def subjects(chip0):
    """``(judgement, chip)``: each judgement checked on its chip."""
    out = []

    def judgement(j, chip):
        check(j, chip)
        out.append((j, chip))

    rng = random.Random(23)
    for depth in range(4, 11):
        cfg = GenConfig(chip=chip0, seed=23, max_depth=depth)
        for _ in range(12):
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

        got = live(t, noted)
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


def outcome(run, *args, **kw):
    try:
        nf = run(*args, **kw)
        return print_term(nf.term), nf.rules, len(nf.steps)
    except BudgetExceeded as e:
        return "budget", e.steps, print_term(e.partial)


@given(
    st.integers(0, 10**6),
    st.integers(4, 8),
    st.sampled_from([2, 8, DEFAULT_BUDGET]),
)
@settings(max_examples=150, deadline=None)
def test_typed_terms_give_the_frozen_outcome(chip0, seed, depth, budget):
    # The whole frozen normalizer, with its rescans and renaming hoists,
    # against the live one on generated judgements.
    j = gen_judgement(GenConfig(chip=chip0, seed=seed, max_depth=depth))
    kw = dict(context=j.ctx, result_type=j.type, chip=chip0, budget=budget)
    assert outcome(normalize, j, chip0, budget=budget) == outcome(ref.normalize, j.term, **kw)


def bound_names(t):
    """Every name a let in ``t`` binds, once per binding site."""
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        out.extend(binders(node))
        stack.extend(children(node))
    return out


def test_checked_spines_bind_each_name_once(subjects, chip0, monkeypatch):
    # What lets the census keep no binding sites and ``_eta_spine`` no
    # back-off: in every term the rewriter meets, no name is bound twice and
    # no binder is also a free name, so no repack can capture a use.
    live = equality._eta_spine
    seen = 0

    def fresh_only(t, recheck):
        nonlocal seen
        names = bound_names(t)
        assert len(set(names)) == len(names)
        assert not set(names) & set(free_vars(t))
        seen += bool(names)
        return live(t, recheck)

    monkeypatch.setattr(equality, "_eta_spine", fresh_only)
    # ``SHADOWING`` binds ``x`` in its term and in its context.
    for subject, chip in [*subjects, (parse(SHADOWING).declarations[0].judgement, chip0)]:
        normalize(subject, chip)
    assert seen > 500


def test_the_parked_repack_contracts_after_a_recheck(chip0):
    parked = parse(UNIT_PAIRS).declarations[0].judgement  # let (a, b) = p in let * = a in (*, b)
    nf = normalize(parked, chip0)
    assert print_term(nf.term) == "p"
    assert nf.rules == ("eta-pair",)
    # A recheck that fails keeps the parked repack.
    assert equality._eta_spine(parked.term, reject) is None


def accept(t):
    """A recheck that passes every contraction, so that untyped spines reach the parked rule."""
    return True


def reject(t):
    """A recheck that fails every contraction: only the deep repack can fire."""
    return False


@pytest.mark.parametrize(
    "text, recheck, want",
    [
        # Uses in the let's own scrutinee are not below it.
        ("let (x, y) = K(x) in let * = u in (x, y)", reject, "let * = u in K(x)"),
        ("let box[2] x = K(x) in let * = u in box[2] x", reject, "let * = u in K(x)"),
        ("let box[2] x = b in let * = u in box[3] x", reject, None),
        # A parked binder must be a whole ``let *`` scrutinee, parked once,
        # and every other use below must be its core slot.
        ("let (a, b) = p in let * = a in (*, b)", accept, "p"),
        ("let (a, b) = p in let * = a in (*, b)", reject, None),
        ("let (a, b) = p in let * = K(a) in (*, b)", accept, None),
        ("let (a, b) = p in let * = a in let * = K(b) in (*, b)", accept, None),
        ("let (a, b) = p in let * = a in let * = a in (*, b)", accept, None),
        ("let (a, b) = p in let * = a in (*, *)", accept, None),
        ("let box[2] a = p in let * = a in box[2] *", accept, "p"),
    ],
)
def test_hand_built_spines_answer_as_the_frozen_rescans(text, recheck, want):
    # Every binder is bound once, as in the freshened terms ``normalize`` rewrites.
    t = parse_term(text)
    got = equality._eta_spine(t, recheck)
    assert got == ref.eta_spine(t, recheck)
    assert (got and print_term(got[1])) == want


def test_a_non_linear_term_is_a_type_error_not_a_stale_spine(chip0, chip0_path, tmp_path):
    # The checker rejects a non-linear term before any rewrite could copy a
    # let, so its spine never meets a binder twice (no AssertionError).
    source = "".join(
        f"schedule {name} (u:^0 1 * 1, v:^0 1) : [2] 1 = {text}\n"
        for name, text in (("rebound", REBOUND_SPINE), ("rebound_used", REBOUND_SPINE_USED))
    )
    kinds = (ErrorKind.UNUSED_CONTEXT_ENTRY, ErrorKind.DUPLICATE_USE)
    for decl, kind in zip(parse(source).declarations, kinds, strict=True):
        with pytest.raises(TypingError) as raised:
            normalize(decl.judgement, chip0)
        assert raised.value.kind is kind
    path = tmp_path / "rebound.pstt"
    path.write_text(source)
    code, out, err = invoke("normalize", str(path), "--chip", str(chip0_path))
    assert (code, err) == (1, "")
    assert out == (
        "rebound: error: unused context entry: binder 'v' is not used in the body"
        " at `let (v, x) = u in *`\n"
        "rebound_used: error: duplicate use: variable 'y' is used more than once"
        " at `((v, y), box[-2] y)`\n"
    )


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
    # Nor any capture-avoiding renaming: a checked term never needs one.
    assert not hasattr(equality, "_rename_binders")
    assert not hasattr(equality, "fresh_name")
