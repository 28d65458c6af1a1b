"""``normalize`` and ``eq`` doing each piece of work once.

The reference is the normalizer in ``reference_normalize``, frozen as it
was before one walk found each step and a sort pass ended normalization.
On a corpus of generated judgements, unit spines, brickwork circuits and
``equiv``-shaped pairs, both must take the same steps, list the same rules
and trace, and run out of budget at the same place.  Counters then show
that each ``normalize`` call scans once per step, sorts at most once and
never after the sort, and that an ``eq`` verdict lists no rules until its
trace is read.  ``freshen_binders`` returns a term that needs no renaming
itself, and otherwise what the old rebuilding walk returned, save where that
walk renamed a binder before reaching it; renaming a long shadowed chain
probes each suffix about once.  Each hoist site rewrites as the frozen
``hoist`` does.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstt import (
    BoxIntro,
    CtxEntry,
    EqKind,
    EqVerdict,
    GateApp,
    Judgement,
    LetBox,
    LetPair,
    LetStar,
    Pair,
    Unit,
    Var,
    alpha_eq,
    check,
    judgementally_equal,
    normalize,
    parse,
    parse_term,
    print_term,
)
from pstt import equality, syntax
from pstt.equality import BudgetExceeded, NormalForm, RewriteStep, SortPass, _sort_pass
from pstt.syntax import freshen_binders
from pstt.testkit import GenConfig, gen_judgement

import reference_normalize as ref
import test_eq_refutation as refutation
from brickwork import brickwork_chip, brickwork_judgement
from test_syntax import names, terms


# ``freshen_binders`` renames the unit-typed binder ``x``, which shadows the
# context's ``x``; the renamed binder must still expand.
SHADOWING = "schedule s (x:^0 1, p:^0 1 * 1) : 1 * 1 = let * = x in let (x, y) = p in (y, x)\n"


def under_spine(j, units):
    """``j``'s term under ``let * = u in`` for each unit, the first outermost."""
    term = j.term
    for name in reversed(units):
        term = LetStar(Var(name), term)
    return term


def equiv_pairs(chip, rng, count):
    """``(ctx, s, t, type)``: a small core under a unit-let spine, reversed against sorted."""
    cfg = GenConfig(chip=chip, max_depth=5)
    out = []
    while len(out) < count:
        core = gen_judgement(cfg, rng=rng)
        if print_term(core.term).count("let ") > 3:
            continue
        units = [f"u{i:02d}" for i in range(rng.randint(4, 20))]
        ctx = tuple(CtxEntry(u, rng.randint(-60, 60), Unit()) for u in units) + core.ctx
        out.append((ctx, under_spine(core, units[::-1]), under_spine(core, units), core.type))
    return out


@pytest.fixture(scope="module")
def cases(chip0):
    """``(judgement, chip)`` over the corpus, each judgement checked on its chip."""
    out = []

    def judgement(j, chip):
        check(j, chip)
        out.append((j, chip))

    for seed in (7, 107):
        rng = random.Random(seed)
        for depth in range(4, 11):
            cfg = GenConfig(chip=chip0, seed=seed, max_depth=depth)
            for _ in range(5):
                judgement(gen_judgement(cfg, rng=rng), chip0)
    rng = random.Random(41)
    cfg = GenConfig(chip=chip0, seed=41, max_depth=4)
    for n in (2, 5, 13, 30):
        j = gen_judgement(cfg, rng=rng)
        units = [f"s{rng.randrange(10 * n)}_{i}" for i in range(n)]
        ctx = tuple(CtxEntry(u, rng.randint(-60, 60), Unit()) for u in units) + j.ctx
        judgement(Judgement(ctx, under_spine(j, rng.sample(units, n)), j.type), chip0)
    for n in (4, 8):
        chip = brickwork_chip(n, seed=n)
        for layers in (2, 5, 16):
            for reverse in (False, True):
                judgement(brickwork_judgement(chip, layers, reverse=reverse), chip)
    for ctx, s, t, ty in equiv_pairs(chip0, random.Random(951), 6):
        judgement(Judgement(ctx, s, ty), chip0)
        judgement(Judgement(ctx, t, ty), chip0)
    judgement(parse(SHADOWING).declarations[0].judgement, chip0)
    return out


def shown(nf):
    """What a normal form records: each step, rules, trace and final term, as text."""
    steps = tuple(
        (step.rule if type(step) is not SortPass else step.order, print_term(step.result))
        for step in nf.steps
    )
    trace = tuple((step.rule, print_term(step.result)) for step in nf.trace)
    return steps, nf.rules, trace, print_term(nf.term)


def reference_keywords(j, chip):
    """The reference's keywords for a case: the judgement's context, type and chip."""
    return dict(context=j.ctx, result_type=j.type, chip=chip)


def outcome(run, *args, **kw):
    try:
        return shown(run(*args, **kw))
    except BudgetExceeded as e:
        return "budget", e.steps, print_term(e.partial)


def live_and_reference(j, chip, **budget):
    """The outcomes of ``normalize`` and of the frozen reference on one case."""
    kw = reference_keywords(j, chip)
    return outcome(normalize, j, chip, **budget), outcome(ref.normalize, j.term, **kw, **budget)


def test_normalize_matches_the_frozen_reference(cases):
    sorts = 0
    for case in cases:
        got, want = live_and_reference(*case)
        assert got == want
        sorts += any(r.startswith("swap-") for r in want[1])
        for budget in range(4):
            got, want = live_and_reference(*case, budget=budget)
            assert got == want
    assert sorts > 20  # the corpus exercises the sort


def test_each_step_takes_one_scan_and_a_sort_ends_normalization(cases, monkeypatch):
    scans = keys = 0
    find_rewrite, spine_keys = equality._find_rewrite, equality._spine_keys

    def counted_find_rewrite(*args):
        nonlocal scans
        scans += 1
        return find_rewrite(*args)

    def counted_spine_keys(lets):
        nonlocal keys
        keys += 1
        return spine_keys(lets)

    monkeypatch.setattr(equality, "_find_rewrite", counted_find_rewrite)
    monkeypatch.setattr(equality, "_spine_keys", counted_spine_keys)
    ended_by_sort = 0
    for case in cases:
        scans = keys = 0
        steps = normalize(*case).steps
        sort_at = [i for i, step in enumerate(steps) if type(step) is SortPass]
        assert sort_at in ([], [len(steps) - 1])
        assert keys <= 1
        assert scans == len(steps) + (not sort_at)
        ended_by_sort += bool(sort_at)
    assert ended_by_sort > 20


def test_a_renamed_unit_binder_still_expands(chip0):
    j = parse(SHADOWING).declarations[0].judgement
    assert freshen_binders(j.term) != j.term
    nf = normalize(j, chip0)
    assert print_term(nf.term) == "let * = x in p"
    assert nf.rules == (
        "eta-unit",
        "eta-unit",
        "hoist-unit-from-pair-left",
        "hoist-unit-from-pair-right",
        "eta-pair",
    )


def test_no_hoist_renames_a_binder(cases, monkeypatch):
    # ``normalize`` hoists without renaming: on a checked, freshened term no
    # hoist captures a name.  The frozen reference still renames wherever a
    # hoisted binder meets a sibling's free name, and never does here.
    def no_renaming(name, taken):
        if name in taken:
            raise AssertionError(f"a hoist renamed {name!r}")
        return name

    monkeypatch.setattr(ref, "fresh_name", no_renaming)
    pair_let = parse(SHADOWING).declarations[0].term.body  # let (x, y) = p in (y, x)
    with pytest.raises(AssertionError, match="renamed 'x'"):  # the patch reaches the renaming
        ref.rename_binders(pair_let, {"x"})
    hoists = 0
    for j, chip in cases:
        # Freshened as ``normalize`` freshens it, so that only a hoist could rename.
        nf = ref.normalize(freshen_binders(j.term), **reference_keywords(j, chip))
        hoists += sum(r.startswith("hoist-") for r in nf.rules)
    assert hoists > 100


def test_the_reference_finds_nothing_after_a_sort(cases):
    checked = 0
    for j, chip in cases:
        nf = normalize(j, chip)
        if nf.steps and type(nf.steps[-1]) is SortPass:
            env, recheck = ref.rule_env(j.ctx, j.type, chip)
            assert ref.find_rewrite(nf.term, env, chip, recheck) is None
            assert _sort_pass(nf.term) is None
            checked += 1
    assert checked > 20


# ---------------------------------------------------------- freshen_binders


@given(terms(), st.sets(names, max_size=3) | st.none())
@settings(max_examples=200, deadline=None)
def test_freshen_binders_returns_its_argument_when_nothing_needs_renaming(t, avoid):
    fresh = freshen_binders(t, avoid)
    want = ref.freshen_binders(t, avoid)
    assert fresh == want
    assert (fresh is t) == (want == t)


def shadowed_chain(n):
    """``let (a, b) = CX(a, b) in`` ``n`` times over the free ``a`` and ``b``, ended by ``(a, b)``."""
    t = Pair(Var("a"), Var("b"))
    for _ in range(n):
        t = LetPair("a", "b", GateApp("CX", (Var("a"), Var("b"))), t)
    return t


def test_freshen_binders_renames_a_shadowed_chain_as_the_frozen_walk():
    for n in (1, 2, 3, 12, 40):
        assert freshen_binders(shadowed_chain(n)) == ref.freshen_binders(shadowed_chain(n))


def test_freshening_a_shadowed_chain_probes_each_suffix_about_once(monkeypatch):
    # Each name is taken for good, so a stem's probes resume where the last stopped.
    probes = 0

    class Counted:
        def __init__(self, names):
            self.names = names

        def __contains__(self, name):
            nonlocal probes
            probes += 1
            return name in self.names

    fresh_name = syntax._fresh_name
    monkeypatch.setattr(syntax, "_fresh_name", lambda base, avoid, resume: fresh_name(base, Counted(avoid), resume))
    fresh = freshen_binders(shadowed_chain(4000))
    assert probes <= 3 * 8000
    assert (fresh.x, fresh.y) == ("a_1", "b_1")
    while type(fresh.body) is LetPair:
        fresh = fresh.body
    assert fresh.body == Pair(Var("a_4000"), Var("b_4000"))


def test_freshen_binders_takes_names_in_the_order_it_reaches_binders():
    # The inner ``a_1`` is a name the walk takes for the outer ``a``.  The
    # frozen walk renamed it while substituting the outer renaming, before
    # reaching it, and so named the inner binders (a_3, a_2).
    t = parse_term("let (a, b) = a in let (a_1, a_2) = b in (a_1, a_2)")
    fresh = freshen_binders(t)
    assert print_term(fresh) == "let (a_1, b) = a in let (a_2, a_3) = b in (a_2, a_3)"
    assert alpha_eq(fresh, ref.freshen_binders(t))


# ----------------------------------------------------------------- hoists

INNER = {
    "unit": LetStar(Var("z"), Var("u")),
    "pair": LetPair("c", "d", Var("p"), Pair(Var("d"), Var("c"))),
    "box": LetBox(3, "e", Var("r"), Var("e")),
}
SITES = {
    "pair-left": lambda inner: Pair(inner, Var("w")),
    "pair-right": lambda inner: Pair(Var("w"), inner),
    "gate": lambda inner: GateApp("CX", (inner, Var("w"))),
    "gate-1": lambda inner: GateApp("CX", (Var("w"), inner)),
    "box": lambda inner: BoxIntro(4, inner),
    "unit-scrutinee": lambda inner: LetStar(inner, Var("w")),
    "pair-scrutinee": lambda inner: LetPair("a", "b", inner, Pair(Var("b"), Var("a"))),
    "box-scrutinee": lambda inner: LetBox(5, "f", inner, Var("f")),
}


@pytest.mark.parametrize("kind", INNER)
@pytest.mark.parametrize("pos", SITES)
def test_each_hoist_site_rewrites_as_the_frozen_hoist(kind, pos):
    site = SITES[pos](INNER[kind])
    found = equality._find_rewrite(site, set(), lambda t: False)
    rule, result = ref.hoist(site)
    assert found == RewriteStep(rule, result)
    assert rule == f"hoist-{kind}-from-{pos.removesuffix('-1')}"


# -------------------------------------------------------------- lazy trace


def test_a_verdict_without_normal_forms_has_an_empty_trace():
    assert EqVerdict(EqKind.EQUAL).trace == ((), ())


def refutation_cases(chip0):
    """``(ctx, s, t, type, chip)`` of each case that ``test_eq_refutation`` parametrizes."""
    tests = {
        refutation.test_same_verdicts_when_semantics_agree_or_are_unavailable: refutation.TWIN_CHIP,
        refutation.test_judgementally_equal_never_reaches_the_interpreter: chip0,
    }
    for test, chip in tests.items():
        (mark,) = test.pytestmark
        for head, s, t, *_ in mark.args[1]:
            yield (*refutation.equation(head, s, t), chip)


def reference_trace(ctx, s, t, type_, chip):
    kw = dict(context=ctx, result_type=type_, chip=chip)
    return ref.normalize(s, **kw).rules, ref.normalize(t, **kw).rules


def test_the_trace_matches_the_reference_and_is_listed_only_when_read(chip0, corpus, monkeypatch):
    reads = 0
    rules = NormalForm.rules

    def counted_rules(self):
        nonlocal reads
        reads += 1
        return rules.func(self)

    monkeypatch.setattr(NormalForm, "rules", property(counted_rules))
    pairs = [(ctx, s, t, ty, chip0) for ctx, s, t, ty in equiv_pairs(chip0, random.Random(952), 8)]
    decls = corpus.declarations
    pairs += [
        (a.ctx, a.term, b.term, a.type, chip0)
        for a in decls
        for b in decls
        if (a.ctx, a.type) == (b.ctx, b.type)
    ]
    rng = random.Random(606)
    cfg = GenConfig(chip=chip0, seed=606, distinct_qubits=True)
    while len(pairs) < 160:
        j = gen_judgement(cfg, rng=rng)
        swapped = refutation.swap_one_gate(j.term, rng)
        if swapped is not None:
            pairs.append((j.ctx, j.term, swapped, j.type, chip0))
    pairs += list(refutation_cases(chip0))
    kinds = set()
    for pair in pairs:
        reads = 0
        verdict = judgementally_equal(*pair)
        assert reads == 0  # building the verdict listed no rules
        assert verdict.trace == reference_trace(*pair)
        kinds.add(verdict.kind)
    assert kinds == set(EqKind)
