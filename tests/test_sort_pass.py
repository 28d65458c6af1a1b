"""The one-pass spine sort against the per-swap engine it replaced.

``per_swap_normalize`` is that engine, kept here as the reference: when no
other rule applies it recomputes the canonical order of the let prefix
(pairwise dependencies, greedy least ready key), makes one adjacent swap
and rescans the whole term.  ``normalize`` must reach the same normal form
with the same rule names and the same intermediate terms.
"""

import random

from pstt import (
    CtxEntry,
    Judgement,
    LetBox,
    LetPair,
    LetStar,
    Pair,
    Star,
    TypingError,
    Unit,
    Var,
    check,
    normalize,
    print_term,
)
from pstt.equality import (
    RewriteStep,
    _find_rewrite,
    _KIND,
    _rename_binders,
    _spine,
    _spine_keys,
    _wrap,
)
from pstt.syntax import binders, children, free_vars, freshen_binders, rebuild
from pstt.testkit import GenConfig, gen_judgement


def _reference_order(lets):
    keys = _spine_keys(lets)[0]
    deps = [
        {i for i in range(j) if not set(free_vars(lets[j].scrutinee)).isdisjoint(binders(lets[i]))}
        for j in range(len(lets))
    ]
    order, emitted = [], set()
    while len(order) < len(lets):
        ready = [i for i in range(len(lets)) if i not in emitted and deps[i] <= emitted]
        best = min(ready, key=lambda i: (keys[i], i))
        order.append(best)
        emitted.add(best)
    return order


def _reference_swap(t):
    lets, core = _spine(t)
    if len(lets) < 2:
        return None
    target = _reference_order(lets)
    if target == list(range(len(lets))):
        return None
    want = next(want for pos, want in enumerate(target) if want != pos)
    upper, lower = lets[want - 1], lets[want]
    lower = _rename_binders(lower, set(free_vars(upper.scrutinee)))
    scrut, rest = children(lower)
    swapped = rebuild(lower, (scrut, rebuild(upper, (upper.scrutinee, rest))))
    rule = f"swap-{_KIND[type(upper)]}-{_KIND[type(lower)]}"
    return RewriteStep(rule, _wrap(lets[: want - 1], swapped))


def per_swap_normalize(term, context=None, result_type=None, chip=None):
    """Normal form and trace, sorting the let prefix one adjacent swap per step."""
    env = {e.name: e.type for e in context} if context is not None else None
    recheck = None
    if context is not None:

        def recheck(t2):
            try:
                check(Judgement(context, t2, result_type), chip)
                return True
            except TypingError:
                return False

    t = freshen_binders(term)
    trace = []
    while True:
        step = _find_rewrite(t, env, chip, recheck) or _reference_swap(t)
        if step is None:
            return t, trace
        trace.append(step)
        t = step.result


def assert_same(term, **kw):
    want_term, want_trace = per_swap_normalize(term, **kw)
    nf = normalize(term, **kw)
    assert print_term(nf.term) == print_term(want_term)
    assert nf.rules == tuple(step.rule for step in want_trace)
    assert [print_term(s.result) for s in nf.trace] == [print_term(s.result) for s in want_trace]
    return nf


def test_gen_judgements_match_the_per_swap_engine(chip0):
    sorted_somewhere = 0
    for seed in (3, 103):
        rng = random.Random(seed)
        for depth in range(4, 9):
            cfg = GenConfig(chip=chip0, seed=seed, max_depth=depth)
            for _ in range(12):
                j = gen_judgement(cfg, rng=rng)
                nf = assert_same(j.term, context=j.ctx, result_type=j.type, chip=chip0)
                assert_same(j.term)
                sorted_somewhere += any(r.startswith("swap-") for r in nf.rules)
    assert sorted_somewhere  # the corpus exercises the sort


def test_unit_spines_match_the_per_swap_engine(chip0):
    rng = random.Random(41)
    cfg = GenConfig(chip=chip0, seed=41, max_depth=4)
    moved = 0
    for n in (2, 3, 5, 8, 13, 21, 30, 40):
        for _ in range(2):
            j = gen_judgement(cfg, rng=rng)
            names = [f"s{rng.randrange(10 * n)}_{i}" for i in range(n)]
            units = [CtxEntry(name, rng.randint(-60, 60), Unit()) for name in names]
            term = j.term
            for name in rng.sample(names, n):
                term = LetStar(Var(name), term)
            ctx = tuple(units) + j.ctx
            check(Judgement(ctx, term, j.type), chip0)
            nf = assert_same(term, context=ctx, result_type=j.type, chip=chip0)
            moved += sum(r == "swap-unit-unit" for r in nf.rules)
    assert moved


def test_tied_keys_match_the_per_swap_engine():
    # Bare terms need not be linear, so scrutinees can repeat and keys can
    # tie; ties keep the spine's order.
    rng = random.Random(59)
    tied = 0
    for _ in range(150):
        names, spine = ["y", "z"], []
        for i in range(rng.randint(2, 12)):
            scrut = Var(rng.choice(names) if rng.random() < 0.3 else rng.choice("yz"))
            node = rng.choice(
                (
                    LetStar(scrut, Star()),
                    LetPair(f"a{i}", f"b{i}", scrut, Star()),
                    LetBox(rng.choice((0, 5)), f"c{i}", scrut, Star()),
                )
            )
            spine.append(node)
            names += binders(node)
        term = _wrap(spine, Pair(Var(rng.choice(names)), Var(rng.choice(names))))
        keys = _spine_keys(_spine(term)[0])[0]
        tied += len(set(keys)) < len(keys)
        assert_same(term)
    assert tied
