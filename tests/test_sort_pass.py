"""The one-pass spine sort against the per-swap engine it replaced.

``per_swap_normalize`` is that engine, kept here as the reference: when no
other rule applies it recomputes the canonical order of the let prefix
(pairwise dependencies, greedy least ready key), makes one adjacent swap
and rescans the whole term.  ``normalize`` must reach the same normal form
with the same rule names and the same intermediate terms.  Hand-built
spines that no checked term has, with keys that tie, hold one sort pass
alone to the engine's swaps.

``reference_spine_keys`` is the flattening key builder that the
by-reference keys replaced, kept as the reference for the canonical order:
on every spine the normalizer sorts in this module, both key kinds must
agree on ``<`` and ``==`` for every pair of keys, and the sort must give
the order that a greedy scan over the flat keys gives, also for names that
hold any character.  ``_spine_keys`` raises where a binder is not fresh.
"""

import random

import pytest

from pstt import (
    CtxEntry,
    GateApp,
    Judgement,
    LetBox,
    LetPair,
    LetStar,
    Pair,
    Qubit,
    Star,
    TypingError,
    Unit,
    Var,
    check,
    parse_term,
    normalize,
    print_term,
)
from pstt import equality
from pstt.equality import (
    NormalForm,
    RewriteStep,
    _KIND,
    _sort_pass,
    _sorted_spine_order,
    _spine,
    _spine_keys,
    _wrap,
)
from pstt.syntax import binders, children, free_vars, freshen_binders, rebuild, subst_parallel
from pstt.testkit import GenConfig, gen_judgement

from brickwork import brickwork_chip, brickwork_judgement, chain_judgement, cx_chain_term, twin_chains_term
from reference_normalize import find_rewrite, rename_binders


def reference_spine_keys(lets):
    """Flat text keys: an earlier let's whole key is pasted in for each binder it owns."""
    owner = {}
    keys = []
    for i, node in enumerate(lets):
        scrut = node.scrutinee
        used = [b for b in free_vars(scrut) if b in owner]
        ren = {b: Var(f"<{keys[owner[b][0]]}#{owner[b][1]}>") for b in used}
        rendered = print_term(subst_parallel(scrut, ren)) if ren else print_term(scrut)
        prefix = f"box[{node.grade}]:" if type(node) is LetBox else f"{_KIND[type(node)]}:"
        keys.append(prefix + rendered)
        for slot, b in enumerate(binders(node)):
            owner[b] = (i, slot)
    return keys


@pytest.fixture(autouse=True)
def sorted_spines(monkeypatch):
    """Check each spine the normalizer sorts against the flat keys; list the spines."""
    seen = []

    def checked_order(lets):
        keys, flat = _spine_keys(lets)[0], reference_spine_keys(lets)
        for a, fa in zip(keys, flat):
            for b, fb in zip(keys, flat):
                assert (a < b, a == b) == (fa < fb, fa == fb)
        order = _sorted_spine_order(lets)
        assert order == _reference_order(lets)
        seen.append(lets)
        return order

    monkeypatch.setattr(equality, "_sorted_spine_order", checked_order)
    return seen


def _reference_order(lets):
    keys = reference_spine_keys(lets)
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
    lower = rename_binders(lower, set(free_vars(upper.scrutinee)))
    scrut, rest = children(lower)
    swapped = rebuild(lower, (scrut, rebuild(upper, (upper.scrutinee, rest))))
    rule = f"swap-{_KIND[type(upper)]}-{_KIND[type(lower)]}"
    return RewriteStep(rule, _wrap(lets[: want - 1], swapped))


def per_swap_normalize(j, chip):
    """Normal form and trace, sorting the let prefix one adjacent swap per step."""
    env = {e.name: e.type for e in j.ctx}

    def recheck(t2):
        try:
            check(Judgement(j.ctx, t2, j.type), chip)
            return True
        except TypingError:
            return False

    return per_swap_run(freshen_binders(j.term), lambda t: find_rewrite(t, env, chip, recheck))


def per_swap_run(t, find_step):
    """Each ``find_step`` or, when it finds none, each adjacent swap, to the end: the term and trace."""
    trace = []
    while True:
        step = find_step(t) or _reference_swap(t)
        if step is None:
            return t, trace
        trace.append(step)
        t = step.result


def assert_same_trace(nf, want_term, want_trace):
    assert print_term(nf.term) == print_term(want_term)
    assert nf.rules == tuple(step.rule for step in want_trace)
    assert [print_term(s.result) for s in nf.trace] == [print_term(s.result) for s in want_trace]


def assert_same(j, chip):
    """``normalize(j, chip)`` against the per-swap engine."""
    nf = normalize(j, chip)
    assert_same_trace(nf, *per_swap_normalize(j, chip))
    return nf


def assert_sorts_as_per_swap(term):
    """One sort pass of ``term``'s let prefix against the per-swap engine's swaps."""
    found = _sort_pass(term)
    nf = NormalForm(term, ()) if found is None else NormalForm(found.result, (found,))
    assert_same_trace(nf, *per_swap_run(term, lambda t: None))
    return nf


def test_gen_judgements_match_the_per_swap_engine(chip0):
    sorted_somewhere = 0
    for seed in (3, 103):
        rng = random.Random(seed)
        for depth in range(4, 9):
            cfg = GenConfig(chip=chip0, seed=seed, max_depth=depth)
            for _ in range(12):
                j = gen_judgement(cfg, rng=rng)
                nf = assert_same(j, chip0)
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
            unit_spine = Judgement(ctx, term, j.type)
            check(unit_spine, chip0)
            nf = assert_same(unit_spine, chip0)
            moved += sum(r == "swap-unit-unit" for r in nf.rules)
    assert moved


def test_tied_keys_match_the_per_swap_engine():
    # Spines that reuse a name, which no checked term does, so scrutinees
    # can repeat and keys can tie; ties keep the spine's order.
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
        assert_sorts_as_per_swap(term)
    assert tied


def test_keys_that_meet_at_a_reference_sort_as_their_text(sorted_spines):
    # A reference meets "(" and "*" (so the piece before it must end in
    # "<"), a referenced key is a proper prefix of another, and two
    # references differ only in the slot.
    term = parse_term(
        "let (a, b) = x in let (c, d) = x1 in let * = (a, z) in let * = ((y, w), v) in "
        "let * = (*, z) in let * = H(b) in let * = H(c) in let * = H(a) in (d, u)"
    )
    nf = assert_sorts_as_per_swap(term)
    assert sorted_spines and "swap-unit-unit" in nf.rules


def test_brickwork_spines_sort_as_with_flat_keys(sorted_spines):
    for n in (4, 5, 8):
        chip = brickwork_chip(n, seed=n)
        for layers in (2, 5, 9, 16):
            forward = brickwork_judgement(chip, layers)
            reverse = brickwork_judgement(chip, layers, reverse=True)
            assert print_term(normalize(forward, chip).term) == print_term(normalize(reverse, chip).term)
    assert max(len(lets) for lets in sorted_spines) == 56


def test_chains_sort_as_with_flat_keys(chip0, sorted_spines):
    for n in range(1, 13):
        for text in (cx_chain_term(n), twin_chains_term(n)):
            j = chain_judgement(text, chip0)
            normalize(j, chip0)
    assert max(len(lets) for lets in sorted_spines) == 2 * 12 + 8  # the 12-let twins


def test_a_name_with_a_nul_sorts_as_its_text(chip0, sorted_spines):
    # A library-built name may hold any character; its key prints it whole.
    ctx = (CtxEntry("u\0v", 0, Unit()), CtxEntry("w", 0, Unit()), CtxEntry("x", 0, Qubit("q1")))
    j = Judgement(ctx, LetStar(Var("w"), LetStar(Var("u\0v"), Var("x"))), Qubit("q1"))
    check(j, chip0)
    nf = normalize(j, chip0)
    assert nf.rules == ("swap-unit-unit",)
    assert nf.term == LetStar(Var("u\0v"), LetStar(Var("w"), Var("x")))
    assert sorted_spines


@pytest.mark.parametrize(
    "lets",
    [
        # A later spine binder is free in an earlier scrutinee.
        [LetStar(GateApp("H1", (Var("a"),)), Star()), LetBox(0, "a", Var("y"), Star())],
        # A let inside a scrutinee binds an earlier spine binder's name.
        [LetBox(0, "a", Var("y"), Star()), LetStar(Pair(LetBox(5, "a", Var("z"), Var("a")), Star()), Star())],
    ],
)
def test_spine_keys_reject_a_binder_that_is_not_fresh(lets):
    with pytest.raises(AssertionError, match="spine binder 'a' is not fresh"):
        _spine_keys(lets)
