"""Substitution in one walk that reads each pending value once.

``syntax.subst_parallel`` renames a capturing binder by adding ``x ↦ Var(nx)``
to its body's pending map, and finds each value's free names once per call.
The walk it replaced renamed the body in one pass and substituted into it in
a second, and rescanned every pending value at every binder; it is frozen in
``reference_syntax``.  The two agree up to alpha on every input, and exactly
whenever the frozen walk renames at most one binder: only a renaming inside
an already renamed body can pick other fresh names.
"""

import reference_syntax as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from test_syntax import terms

from pstt import EqKind, judgementally_equal, normalize, parse_term
from pstt import syntax
from pstt.syntax import (
    Pair,
    Var,
    alpha_eq,
    binders,
    fresh_name,
    positions,
    subst_parallel,
    substitute,
)

from brickwork import pair_beta_judgement

SUFFIXED = ["x", "x_1", "x_2", "y", "y_1", "z"]
suffixed = st.sampled_from(SUFFIXED)


def reference(t, mapping):
    """The frozen walk's result, and how many binders it renamed."""
    renamed = []

    def counting(base, avoid):
        renamed.append(base)
        return fresh_name(base, avoid)

    ref.fresh_name = counting
    try:
        return ref.subst_parallel(t, mapping), len(renamed)
    finally:
        ref.fresh_name = fresh_name


def like_reference(out, t, mapping) -> int:
    """Hold ``out`` to the frozen walk's result; return its renamings."""
    expected, renamings = reference(t, mapping)
    assert alpha_eq(out, expected)
    if renamings <= 1:
        assert out == expected
    return renamings


@st.composite
def cases(draw):
    """A term over suffixed names and a mapping whose values may mention its binders."""
    t = draw(terms(names=suffixed))
    bound = sorted({x for node, _ in positions(t) for x in binders(node)})
    mention = st.sampled_from(bound or SUFFIXED).map(Var)
    value = st.one_of(
        terms(depth=2, names=suffixed), mention, st.builds(Pair, mention, terms(depth=1, names=suffixed))
    )
    return t, draw(st.dictionaries(suffixed, value, min_size=1, max_size=3))


def test_subst_parallel_agrees_with_the_two_pass_walk():
    """Derandomized, so that the cases surely reach renamings inside renamed bodies."""
    renamings = []

    @given(cases())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def agree(case):
        t, mapping = case
        renamings.append(like_reference(subst_parallel(t, mapping), t, mapping))

    agree()
    assert sum(renamings) > 50 and sum(n > 1 for n in renamings) > 10, renamings


@given(cases())
@settings(max_examples=200, deadline=None)
def test_substitute_agrees_with_the_two_pass_walk(case):
    t, mapping = case
    x, s = next(iter(mapping.items()))
    like_reference(substitute(t, x, s), t, {x: s})


def test_a_renamed_outer_binder_is_kept_and_the_inner_one_named_anew():
    # The outer ``x`` is free in the value, so it becomes ``x_2``.  The two-pass
    # walk renames the inner ``x_2`` to ``x_1`` while renaming, a name its
    # second pass then leaves alone; the one walk sees ``x_1`` as a pending key
    # and takes ``x_3``.  Both keep ``x_2`` for the outer binder.
    t = parse_term("let (z, x) = * in let (z, x_2) = x in *")
    mapping = {"x_1": parse_term("let box[0] x_2 = y in x")}
    out = subst_parallel(t, mapping)
    assert out == parse_term("let (z, x_2) = * in let (z, x_3) = x_2 in *")
    assert ref.subst_parallel(t, mapping) == parse_term("let (z, x_2) = * in let (z, x_1) = x_2 in *")
    assert like_reference(out, t, mapping) == 2


# ------------------------------------------------------------ work and size


def test_pair_beta_chains_read_each_value_once(chip0, monkeypatch):
    """Each beta step finds its two values' free names once: at most 2n scans
    for n layers, where rescanning at every binder took about n²."""
    calls = []
    real = syntax.free_occurrences

    def counting(t):
        calls.append(1)
        return real(t)

    for n in (50, 100, 200):
        j, twin = pair_beta_judgement(chip0, n)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(syntax, "free_occurrences", counting)
            nf = normalize(j, chip0)
        assert len(nf.steps) == n
        assert alpha_eq(nf.term, twin.term)
        assert len(calls) <= 2 * n, (n, len(calls))


def test_a_250_layer_pair_beta_chain_equals_its_twin(chip0):
    j, twin = pair_beta_judgement(chip0, 250)
    verdict = judgementally_equal(j.ctx, j.term, twin.term, j.type, chip0)
    assert verdict.kind is EqKind.EQUAL
