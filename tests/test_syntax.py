from hypothesis import given, settings
from hypothesis import strategies as st

from pstt import (
    Box,
    BoxIntro,
    CtxEntry,
    LetPair,
    LetStar,
    Pair,
    Qubit,
    Star,
    Unit,
    Var,
    alpha_eq,
    free_vars,
    make_context,
    shift_context,
    substitute,
)
from pstt.syntax import (
    LetBox,
    alpha_key,
    free_occurrences,
    freshen_binders,
    subst_parallel,
)

import pytest


def test_free_vars_pair():
    assert free_vars(Pair(Var("x"), Var("y"))) == ["x", "y"]


def test_free_vars_binders_removed():
    t = LetPair("x", "y", Var("z"), Pair(Var("x"), Var("y")))
    assert free_vars(t) == ["z"]


def test_free_vars_star():
    assert free_vars(Star()) == []


def test_substitute_var():
    assert substitute(Var("x"), "x", Star()) == Star()


def test_substitute_in_scrutinee():
    t = LetStar(Var("x"), Star())
    assert substitute(t, "x", Star()) == LetStar(Star(), Star())


def test_substitute_avoids_capture():
    # Replacing x by b under a binder named b must rename the binder first.
    t = LetPair("a", "b", Var("z"), Pair(Var("a"), Var("x")))
    out = substitute(t, "x", Var("b"))
    assert isinstance(out, LetPair)
    assert out.y != "b"
    assert out.body == Pair(Var(out.x), Var("b"))
    assert sorted(free_vars(out)) == ["b", "z"]


def test_subst_parallel_is_simultaneous():
    # Sequential substitution would rewrite the x-image's free y.
    t = Pair(Var("x"), Var("y"))
    out = subst_parallel(t, {"x": Var("y"), "y": Var("x")})
    assert out == Pair(Var("y"), Var("x"))


def test_subst_shadowed_binder_untouched():
    t = LetBox(3, "x", Var("y"), Var("x"))
    assert subst_parallel(t, {"x": Star()}) == t


def test_alpha_eq_examples():
    s = LetPair("x", "y", Var("z"), Pair(Var("x"), Var("y")))
    t = LetPair("a", "b", Var("z"), Pair(Var("a"), Var("b")))
    assert alpha_eq(s, t)
    assert not alpha_eq(Var("x"), Var("y"))
    assert not alpha_eq(BoxIntro(3, Star()), BoxIntro(4, Star()))


def test_alpha_eq_distinguishes_binder_usage():
    s = LetPair("x", "y", Var("z"), Pair(Var("x"), Var("y")))
    t = LetPair("x", "y", Var("z"), Pair(Var("y"), Var("x")))
    assert not alpha_eq(s, t)


def test_shift_context_paper_example():
    ctx = make_context([("x", 50, Qubit("q1")), ("y", 75, Qubit("q2"))])
    assert shift_context(100, ctx) == (
        CtxEntry("x", 150, Qubit("q1")),
        CtxEntry("y", 175, Qubit("q2")),
    )


def test_shift_context_identity_and_negative():
    ctx = make_context([("x", 0, Qubit("q1"))])
    assert shift_context(0, ctx) == ctx
    assert shift_context(-20, ctx)[0].grade == -20


def test_make_context_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        make_context([("x", 0, Unit()), ("x", 1, Unit())])


# ------------------------------------------------------------- properties

names = st.sampled_from(["x", "y", "z", "u", "v"])


@st.composite
def terms(draw, depth=3, names=names):
    if depth == 0:
        return draw(st.one_of(st.builds(Var, names), st.just(Star())))
    sub = terms(depth=depth - 1, names=names)
    options = [
        st.builds(Var, names),
        st.just(Star()),
        st.builds(Pair, sub, sub),
        st.builds(LetStar, sub, sub),
        st.builds(BoxIntro, st.integers(-9, 9), sub),
    ]
    x = draw(names)
    y = draw(names.filter(lambda n: n != x))
    options.append(st.builds(lambda s, b: LetPair(x, y, s, b), sub, sub))
    options.append(st.builds(lambda s, b: LetBox(draw(st.integers(-9, 9)), x, s, b), sub, sub))
    return draw(st.one_of(options))


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_shift_context_composes(d, e):
    ctx = make_context([("x", 5, Qubit("q1")), ("y", -3, Box(2, Unit()))])
    assert shift_context(d, shift_context(e, ctx)) == shift_context(d + e, ctx)


@given(terms(), names, terms())
@settings(max_examples=150, deadline=None)
def test_substitution_free_vars(t, x, s):
    out = substitute(t, x, s)
    expected = [n for n in free_vars(t) if n != x]
    if x in free_vars(t):
        expected = expected + [n for n in free_vars(s) if n not in expected]
    assert set(free_vars(out)) == set(expected)


@given(terms())
@settings(max_examples=100, deadline=None)
def test_alpha_eq_reflexive_and_key_stable(t):
    assert alpha_eq(t, t)
    fresh = freshen_binders(t, extra_avoid={"w9"})
    assert alpha_eq(t, fresh)
    assert alpha_key(t) == alpha_key(fresh)


@given(terms(), names, terms())
@settings(max_examples=100, deadline=None)
def test_substitute_respects_alpha(t, x, s):
    renamed = freshen_binders(t, extra_avoid=set(free_vars(s)) | {x})
    assert alpha_eq(substitute(t, x, s), substitute(renamed, x, s))


@given(terms())
@settings(max_examples=100, deadline=None)
def test_linear_occurrences_match_free_vars(t):
    occ = free_occurrences(t)
    assert set(occ) == set(free_vars(t))
