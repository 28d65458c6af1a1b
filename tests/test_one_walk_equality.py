"""One token walk per syntax sort decides equality.

``alpha_eq`` and ``alpha_key`` both read ``syntax._alpha_pieces``, and type
``==`` and ``hash`` both read ``syntax._type_tokens``.  The walks they
replaced are frozen in ``reference_syntax``; these tests hold the new ones
to them on random terms and types and on near-miss mutants of them: a
consistent binder renaming, swapped pair binders, shadowing binders, a
binder whose uses become free variables of its old name, and a changed
grade, gate name, arity or variable.
"""

import json
import random
import sys
from dataclasses import replace

import reference_syntax as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from test_syntax import terms

from pstt import EqKind, judgementally_equal, parse, parse_chip_spec
from pstt.syntax import (
    Box,
    BoxIntro,
    GateApp,
    LetBox,
    LetPair,
    Pair,
    Qubit,
    Tensor,
    Unit,
    Var,
    _type_tokens,
    alpha_eq,
    alpha_key,
    binders,
    children,
    freshen_binders,
    plug,
    positions,
    rebuild,
    subst_parallel,
    tensor_of,
)
from pstt.testkit import search_equal

NAMES = ["x", "y", "z", "u", "v"]
GATES = ["H1", "CX", "g"]
KEY_WORDS = ["ls", "p", "lp", "b", "lb"]  # gate names that spell a constructor's key head


@st.composite
def gated_terms(draw, gate_names=GATES):
    """``test_syntax.terms()`` with some pairs and boxes turned into gate applications."""
    rnd = draw(st.randoms(use_true_random=False))

    def gate(t):
        kids = [gate(k) for k in children(t)]
        t = rebuild(t, kids)
        if type(t) in (Pair, BoxIntro) and rnd.random() < 0.5:
            return GateApp(rnd.choice(gate_names), tuple(kids))
        return t

    return gate(draw(terms()))


def mutants(t, rnd: random.Random) -> list:
    """Near misses of ``t``: each changes one node, or renames every binder."""
    avoid = {n for node, _ in positions(t) for n in binders(node)} | set(NAMES)
    out = [freshen_binders(t, extra_avoid=avoid)]
    for node, up in positions(t):
        cls = type(node)
        if cls is LetPair:
            out.append(plug(replace(node, x=node.y, y=node.x), up))
        if cls in (LetPair, LetBox):
            x, other = node.x, rnd.choice(NAMES)
            names = (other, node.y) if cls is LetPair else (other,)
            if len(set(names)) == len(names):
                # Shadowing: the binder takes a name that may be bound outside.
                body = subst_parallel(node.body, {x: Var(other)})
                out.append(plug(rebuild(node, [node.scrutinee, body], names), up))
            # The binder's uses become free variables named as it was.
            fresh = ("w9", node.y) if cls is LetPair else ("w9",)
            out.append(plug(rebuild(node, [node.scrutinee, node.body], fresh), up))
        if cls in (BoxIntro, LetBox):
            out.append(plug(replace(node, grade=node.grade + 1), up))
        if cls is GateApp:
            out.append(plug(GateApp(rnd.choice(GATES + KEY_WORDS), node.args), up))
            out.append(plug(GateApp(node.gate, node.args + (Var("x"),)), up))
            if len(node.args) > 1:
                out.append(plug(GateApp(node.gate, node.args[:-1]), up))
        if cls is Var:
            out.append(plug(Var(rnd.choice(NAMES)), up))
    return out


def assert_same_decisions(s, t, marked=False):
    assert alpha_eq(s, t) == ref.alpha_eq(s, t)
    assert alpha_eq(s, t) == (alpha_key(s) == alpha_key(t))
    if not marked:
        assert alpha_key(s) == ref.alpha_key(s)
        assert alpha_key(t) == ref.alpha_key(t)


@given(terms(), terms())
@settings(max_examples=100, deadline=None)
def test_terms_pairs_decide_as_the_reference(s, t):
    assert_same_decisions(s, t)


@given(gated_terms(), gated_terms())
@settings(max_examples=100, deadline=None)
def test_gated_pairs_decide_as_the_reference(s, t):
    assert_same_decisions(s, t)


@given(gated_terms(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_near_misses_decide_as_the_reference(t, rnd):
    for m in mutants(t, rnd):
        assert_same_decisions(t, m, marked=any(
            type(n) is GateApp and n.gate in KEY_WORDS for n, _ in positions(m)
        ))


@given(gated_terms(gate_names=GATES + KEY_WORDS), gated_terms(gate_names=GATES + KEY_WORDS))
@settings(max_examples=100, deadline=None)
def test_a_gate_named_like_a_key_head_is_marked(s, t):
    assert_same_decisions(s, t, marked=True)
    for u in (s, t):
        heads = [n.gate for n, _ in positions(u) if type(n) is GateApp and n.gate in KEY_WORDS]
        if heads:
            assert "(`" in alpha_key(u)
        else:
            assert alpha_key(u) == ref.alpha_key(u)


def test_key_heads_and_marks():
    x, y = Var("x"), Var("y")
    assert alpha_key(Pair(x, y)) == "(p x y)"
    assert alpha_key(GateApp("p", (x, y))) == "(`p x y)"
    assert alpha_key(GateApp("lb", (x,))) == "(`lb x)"
    assert alpha_key(GateApp("CX", (x, y))) == "(CX x y)"
    assert alpha_key(LetBox(-3, "a", x, BoxIntro(4, Var("a")))) == "(lb -3 x (b 4 !0))"
    assert alpha_key(LetPair("a", "b", x, Pair(Var("b"), Var("a")))) == "(lp x (p !1 !0))"


# ------------------------------------------------------------------ types

leaf_types = st.one_of(st.just(Unit()), st.sampled_from(["q1", "q2", "q3"]).map(Qubit))
types = st.recursive(
    leaf_types,
    lambda sub: st.one_of(
        st.builds(Tensor, sub, sub), st.builds(Box, st.integers(-3, 3), sub)
    ),
    max_leaves=12,
)


def near_types(ty):
    """Copies of ``ty``: the first built afresh, each other one with one node changed."""
    cls = type(ty)
    if cls is Tensor:
        left, right = list(near_types(ty.left)), list(near_types(ty.right))
        yield Tensor(left[0], right[0])
        yield Tensor(right[0], left[0])
        yield from (Tensor(a, right[0]) for a in left[1:])
        yield from (Tensor(left[0], b) for b in right[1:])
    elif cls is Box:
        body = list(near_types(ty.body))
        yield Box(ty.grade, body[0])
        yield Box(ty.grade + 1, body[0])
        yield from (Box(ty.grade, b) for b in body[1:])
    else:
        yield Qubit(ty.name) if cls is Qubit else Unit()
        yield Unit() if cls is Qubit else Qubit("q1")


def assert_types_decide_as_the_reference(a, b):
    same = ref.types_equal(a, b)
    assert (a == b) == same
    assert (a != b) == (not same)
    if type(a) in (Tensor, Box):
        assert hash(a) == hash(_type_tokens(a))
    if same:
        assert hash(a) == hash(b)


@given(types, types)
@settings(max_examples=300, deadline=None)
def test_type_pairs_decide_as_the_reference(a, b):
    assert_types_decide_as_the_reference(a, b)


@given(types)
@settings(max_examples=200, deadline=None)
def test_type_near_misses_decide_as_the_reference(a):
    for b in near_types(a):
        assert_types_decide_as_the_reference(a, b)
        assert_types_decide_as_the_reference(b, a)


def test_wide_and_deep_types_compare_and_hash_at_the_default_limit():
    assert sys.getrecursionlimit() <= 1000
    n = 10_000
    wide = [tensor_of([Qubit(f"q{i}") for i in range(n)]) for _ in range(2)]
    other = tensor_of([Qubit(f"q{i}") for i in range(n - 1)] + [Unit()])
    deep = []
    for _ in range(2):
        ty = Unit()
        for _ in range(n):
            ty = Box(1, ty)
        deep.append(ty)
    assert wide[0] == wide[1] and hash(wide[0]) == hash(wide[1])
    assert wide[0] != other and not wide[0] == other
    assert deep[0] == deep[1] and hash(deep[0]) == hash(deep[1])
    assert deep[0] != Box(1, deep[0]) and deep[0] != wide[0]


# ------------------------------------------------------- a gate named p


def test_a_gate_named_p_is_not_a_pair():
    doc = {
        "qubits": ["q1", "q2"],
        "gates": [{"name": "p", "qubits": ["q1", "q2"], "duration_ns": 0}],
        "calibrations": {},
    }
    chip = parse_chip_spec(json.dumps(doc))
    a, b = parse(
        "schedule a (x:^0 q1, y:^0 q2) : q1 * q2 = p(x, y)\n"
        "schedule b (x:^0 q1, y:^0 q2) : q1 * q2 = (x, y)\n"
    ).declarations
    assert alpha_key(a.term) == "(`p x y)" and alpha_key(b.term) == "(p x y)"
    assert not alpha_eq(a.term, b.term)
    assert not search_equal(a.ctx, a.term, b.term, a.type, chip).found
    assert judgementally_equal(a.ctx, a.term, b.term, a.type, chip).kind is EqKind.UNKNOWN
