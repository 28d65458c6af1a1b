"""The proof-search oracle enumerates moves over the syntax table.

``pstt.testkit._local_moves`` finds hoists and push-ins with one loop over
the children a let may leave, ``all_moves`` carries each node's path in its
own walk and ``search_equal`` rebuilds a proof with one helper.  These
tests hold each to the per-constructor oracle frozen in
``reference_testkit``: the same moves in the same order, the same proofs.
The hand-built nodes pin each side condition of a hoist, a push-in and a
swap.
"""

import itertools
import random
from collections import defaultdict

import pytest

import reference_testkit as ref
from pstt import parse_term, parse_type
from pstt.syntax import CtxEntry, Qubit, Unit, make_context, positions
from pstt.testkit import (
    GenConfig,
    _local_moves,
    all_moves,
    enumerate_well_typed,
    gen_judgement,
    node_types,
    search_equal,
)
from pstt.typecheck import TypingError

SIG = {"a": Qubit("q1"), "c": Unit()}


@pytest.fixture(scope="module")
def enumeration(chip0):
    return enumerate_well_typed(SIG, chip0, 5, gates=("H1", "K1"), box_grades=(0, 20))


@pytest.fixture(scope="module")
def generated(chip0):
    out = []
    for distinct in (False, True):
        for depth in (3, 5, 7):
            for seed in range(30):
                cfg = GenConfig(chip=chip0, seed=seed, max_depth=depth, distinct_qubits=distinct)
                out.append(gen_judgement(cfg))
    return out


def typed_subterms(j, chip):
    env = {e.name: e.type for e in j.ctx}
    try:
        types = node_types(j.term, env, chip)
    except (TypingError, KeyError):
        types = {}
    for node, up in positions(j.term):
        yield node, types.get(ref._path(up))


def test_local_moves_match_the_frozen_oracle(chip0, corpus, generated, enumeration):
    judgements = [d.judgement for d in corpus.declarations] + generated
    judgements += [j for _, j in enumeration]
    moves = 0
    for j in judgements:
        for node, ty in typed_subterms(j, chip0):
            expected = ref._local_moves(node, ty)
            assert _local_moves(node, ty) == expected, node
            moves += len(expected)
    assert moves > 10_000


def test_all_moves_match_the_frozen_oracle(chip0, corpus, generated):
    judgements = [d.judgement for d in corpus.declarations] + generated[::3]
    for j in judgements:
        for fast, skip_noise in itertools.product((False, True), repeat=2):
            got = all_moves(j, chip0, fast=fast, skip_noise=skip_noise)
            assert got == ref.all_moves(j, chip0, fast=fast, skip_noise=skip_noise)


def grouped_pairs(enumeration, count):
    """``count`` pairs of enumerated terms that share a context and a type."""
    groups = defaultdict(list)
    for t, j in enumeration:
        groups[(tuple(sorted((e.name, e.grade) for e in j.ctx)), j.type)].append(t)
    pairs = []
    for (grades, ty), members in groups.items():
        ctx = tuple(CtxEntry(v, g, SIG[v]) for v, g in grades)
        pairs += [(ctx, s, t, ty) for s, t in itertools.combinations(members, 2)]
    return random.Random(24).sample(pairs, count)


def search_cases():
    units = make_context([("x", 0, Unit()), ("y", 0, Unit())])
    qubit = make_context([("x", -20, Qubit("q1"))])
    return [
        (make_context([("x", 0, Unit())]), "let * = x in *", "x", Unit(), 1),
        (
            make_context([("p", -120, parse_type("q1 * q2"))]),
            "let (a, b) = p in CX(a, b)",
            "let (c, d) = p in CX(c, d)",
            parse_type("q1 * q2"),
            0,
        ),
        (qubit, "H1(x)", "K1(x)", Qubit("q1"), 4),
        (units, "let * = x in let * = y in *", "let * = y in let * = x in *", Unit(), 3),
        (qubit, "let * = * in H1(x)", "H1(x)", Qubit("q1"), 2),
    ]


def test_search_equal_matches_the_frozen_oracle(chip0, enumeration):
    cases = [(ctx, s, t, ty, 3) for ctx, s, t, ty in grouped_pairs(enumeration, 24)]
    cases += [
        (ctx, parse_term(s), parse_term(t), ty, depth)
        for ctx, s, t, ty, depth in search_cases()
    ]
    found = 0
    for ctx, s, t, ty, depth in cases:
        expected = ref.search_equal(ctx, s, t, ty, chip0, depth)
        got = search_equal(ctx, s, t, ty, chip0, depth)
        assert got.found == expected.found and got.depth_explored == expected.depth_explored
        assert got.path_terms == expected.path_terms
        assert got.proof == expected.proof
        found += got.found
    assert 0 < found < len(cases)


# ---------------------------------------------------------- side conditions


def rules(text):
    return [(rule, direction) for rule, direction, _ in _local_moves(parse_term(text), None)]


@pytest.mark.parametrize(
    "refused, offered, rule",
    [
        (
            "CX(let box[0] x = s in x, x)",
            "CX(let box[0] x = s in x, y)",
            "hoist-box-from-gate",
        ),
        (
            "CX(x, let box[0] x = s in x)",
            "CX(y, let box[0] x = s in x)",
            "hoist-box-from-gate",
        ),
        (
            "(let box[0] x = s in x, x)",
            "(let box[0] x = s in x, y)",
            "hoist-box-from-pair-left",
        ),
        (
            "(x, let (x, y) = p in CX(x, y))",
            "(z, let (x, y) = p in CX(x, y))",
            "hoist-pair-from-pair-right",
        ),
        (
            "let (x, y) = (let box[0] z = s in z) in (x, z)",
            "let (x, y) = (let box[0] z = s in z) in (x, y)",
            "hoist-box-from-pair-scrutinee",
        ),
    ],
)
def test_hoist_refused_when_a_sibling_uses_the_binder(refused, offered, rule):
    assert (rule, "fwd") in rules(offered)
    assert (rule, "fwd") not in rules(refused)


@pytest.mark.parametrize(
    "refused, offered, rule",
    [
        (
            "let (x, y) = p in (x, y)",
            "let (x, y) = p in (CX(x, y), z)",
            "hoist-pair-from-pair-left",
        ),
        (
            "let (x, y) = p in (x, y)",
            "let (x, y) = p in (z, CX(x, y))",
            "hoist-pair-from-pair-right",
        ),
        ("let box[0] x = s in CX(x, x)", "let box[0] x = s in CX(x, y)", "hoist-box-from-gate"),
        (
            "let box[0] x = s in let * = u in x",
            "let box[0] x = s in let * = x in u",
            "hoist-box-from-unit-scrutinee",
        ),
    ],
)
def test_push_in_refused_when_another_child_uses_the_binder(refused, offered, rule):
    assert (rule, "bwd") in rules(offered)
    assert (rule, "bwd") not in rules(refused)


def test_push_in_keeps_the_body_lets_binders_out_of_the_outer_scrutinee():
    # Pushing the outer let into the body let's scrutinee captures nothing
    # here, but the oracle refuses it: the body let binds the outer
    # scrutinee's ``x``.
    assert rules("let (a, b) = x in let (x, c) = (a, b) in (x, c)") == [("beta-unit", "bwd")]
    assert rules("let (a, b) = y in let (x, c) = (a, b) in (x, c)") == [
        ("beta-unit", "bwd"),
        ("hoist-pair-from-pair-scrutinee", "bwd"),
    ]


def test_swap_refused_each_way():
    swap = ("swap-box-box", "fwd")
    assert swap in rules("let box[0] x = s in let box[0] y = t in (x, y)")
    # The outer binder is used by the inner scrutinee.
    assert swap not in rules("let box[0] x = s in let box[0] y = x in y")
    # The inner binder is free in the outer scrutinee.
    assert swap not in rules("let box[0] x = y in let box[0] y = t in (x, y)")
