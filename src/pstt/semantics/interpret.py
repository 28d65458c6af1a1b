"""Generic interpretation of checked judgements in any model.

A context ``x1:^d1 A1, ..., xn:^dn An`` denotes the left-nested object
``(..(I (x) d1.A1) .. (x) dn.An)``; a derivation denotes a morphism from its
context object to its type object, built by a post-order walk on an
explicit stack over the solved derivation evidence.
"""

from __future__ import annotations

from typing import Any, Callable

from ..surface import print_context
from ..syntax import Context, CtxEntry, Judgement, shift_context
from ..typecheck import Derivation, premise_shifts
from .model import (
    Model,
    ModelError,
    Shape,
    ShapeLeaf,
    ShapeNode,
    ShapeUnit,
    shape_obj,
    shapes_equal,
    structural,
)

_RULES = frozenset(
    ("var", "unit-intro", "pair-intro", "gate", "box-intro", "unit-elim", "pair-elim", "box-elim")
)


def context_shape(m: Model, ctx: Context) -> Shape:
    sh: Shape = ShapeUnit()
    for entry in ctx:
        leaf = ShapeLeaf(m.act_obj(entry.grade, m.type_obj(entry.type)), entry.name)
        sh = ShapeNode(sh, leaf)
    return sh


def context_obj(m: Model, ctx: Context) -> Any:
    return shape_obj(m, context_shape(m, ctx))


def _absorb(m: Model, d: int, premise_ctx: Context) -> Any:
    """[[d + ctx]] -> d . [[ctx]]  via multiplicators and distributors."""
    mor, init = m.dist_unit_inv(d), m.unit()  # init: the object of the entries absorbed so far
    for entry in premise_ctx:
        a = m.type_obj(entry.type)
        leaf = m.act_obj(entry.grade, a)
        step = m.tensor_mor(mor, m.multiplicator_inv(d, entry.grade, a))
        mor = m.compose(m.dist_tensor(d, init, leaf), step)
        init = m.tensor_obj(init, leaf)
    return mor


def _fold_right(pair: Callable[[Any, Any], Any], items: list[Any]) -> Any:
    """``pair(items[0], pair(items[1], ... items[-1]))``, right-nested."""
    out = items[-1]
    for item in reversed(items[:-1]):
        out = pair(item, out)
    return out


def _split(m: Model, parts: list[Context]) -> tuple[Any, Context]:
    """[[c1, c2, ...]] -> [[c1]] (x) ([[c2]] (x) ...), and the joined context."""
    ctx = tuple(e for c in parts for e in c)
    groups = [context_shape(m, c) for c in parts]
    return structural(m, context_shape(m, ctx), _fold_right(ShapeNode, groups)), ctx


def _dist_chain(m: Model, d: int, objs: list[Any]) -> Any:
    """((d.O1) (x) (d.O2) (x) ...) -> d . (O1 (x) O2 (x) ...), right-nested."""
    mor, rest = m.identity(m.act_obj(d, objs[-1])), objs[-1]  # rest: the suffix's object
    for o in reversed(objs[:-1]):
        step = m.tensor_mor(m.identity(m.act_obj(d, o)), mor)
        mor = m.compose(m.dist_tensor(d, o, rest), step)
        rest = m.tensor_obj(o, rest)
    return mor


def _open(m: Model, d: Derivation, shift: int) -> tuple[Any, list[ShapeLeaf]]:
    """The map opening a let's scrutinee at ``shift``, and the binder leaves it lands on."""
    if d.rule == "unit-elim":
        return m.dist_unit(shift), []
    ty = d.premises[0].type
    if d.rule == "pair-elim":
        a, b = m.type_obj(ty.left), m.type_obj(ty.right)
        leaves = [ShapeLeaf(m.act_obj(shift, o), x) for o, x in ((a, d.term.x), (b, d.term.y))]
        return m.dist_tensor_inv(shift, a, b), leaves
    grade, binder_grade = d.params
    a = m.type_obj(ty.body)
    return m.multiplicator(shift, grade, a), [ShapeLeaf(m.act_obj(binder_grade, a), d.term.x)]


def _node(m: Model, d: Derivation, premises: list[tuple[Any, Context]]) -> tuple[Any, Context]:
    """``d``'s morphism and its domain's context, built from its premises'."""
    match d.rule:
        case "var":
            a = m.type_obj(d.type)
            mor = m.compose(m.unitor_inv(a), m.lunit(m.act_obj(0, a)))
            return mor, (CtxEntry(d.term.name, 0, d.type),)

        case "unit-intro":
            return m.identity(m.unit()), ()

        case "pair-intro":
            (left, lctx), (right, rctx) = premises
            split, ctx = _split(m, [lctx, rctx])
            return m.compose(m.tensor_mor(left, right), split), ctx

        case "gate":
            dur = d.params[0]
            mors, ctxs = zip(*premises)
            split, ctx = _split(m, [shift_context(-dur, c) for c in ctxs])
            absorbed = _fold_right(m.tensor_mor, [_absorb(m, -dur, c) for c in ctxs])
            gathered = _dist_chain(m, -dur, [context_obj(m, c) for c in ctxs])
            body = m.act_mor(-dur, _fold_right(m.tensor_mor, list(mors)))
            return m.compose_all([split, absorbed, gathered, body, m.gate_mor(d.term.gate)]), ctx

        case "box-intro":
            grade = d.params[0]
            ((body, bctx),) = premises
            mor = m.compose(m.act_mor(grade, body), _absorb(m, grade, bctx))
            return mor, shift_context(grade, bctx)

    # unit-elim, pair-elim and box-elim: split, absorb, act on the scrutinee,
    # open it, enter the body's context, then the body
    shift = premise_shifts(d)[0]
    (scrut, sctx), (body, bctx) = premises
    opened, leaves = _open(m, d, shift)
    names = {leaf.name for leaf in leaves}
    delta = tuple(e for e in bctx if e.name not in names)
    split, ctx = _split(m, [shift_context(shift, sctx), delta])
    delta_obj = context_obj(m, delta)
    if leaves:
        binders = ShapeNode(_fold_right(ShapeNode, leaves), context_shape(m, delta))
        enter = structural(m, binders, context_shape(m, bctx))
    else:
        enter = m.lunit(delta_obj)
    on_scrut = [_absorb(m, shift, sctx), m.act_mor(shift, scrut), opened]
    steps = [m.tensor_mor(f, m.identity(delta_obj)) for f in on_scrut]
    return m.compose_all([split, *steps, enter, body]), ctx


def _interp(root: Derivation, m: Model) -> tuple[Any, Context]:
    """``root``'s morphism and its domain's context, built bottom-up.

    Each node is pushed, then its premises, so that they finish left to
    right; a node is built once its premises' results are on ``done``.
    """
    done: list[tuple[Any, Context]] = []
    stack: list[tuple[Derivation, bool]] = [(root, False)]  # (node, premises done)
    while stack:
        d, ready = stack.pop()
        if ready:
            k = len(done) - len(d.premises)
            premises = done[k:]
            del done[k:]
            done.append(_node(m, d, premises))
        elif d.rule in _RULES:
            stack.append((d, True))
            stack += [(p, False) for p in reversed(d.premises)]
        else:
            raise ModelError(f"unknown derivation rule {d.rule!r}")
    return done[0]


def interpret(j: Judgement, evidence: Derivation, m: Model) -> Any:
    """Interpret the judgement as a morphism [[ctx]] -> [[type]].

    Raises ModelError when the derivation's context differs from the
    judgement's in names or grades, or the result is not such a morphism.
    Each node's context is built from its premises' as the node is
    interpreted; the evidence is only read.
    """
    if {(e.name, e.grade) for e in evidence.ctx} != {(e.name, e.grade) for e in j.ctx}:
        raise ModelError(
            f"derivation's context ({print_context(evidence.ctx)}) differs from"
            f" the judgement's ({print_context(j.ctx)})"
        )
    mor, ctx = _interp(evidence, m)
    declared = context_shape(m, j.ctx)
    derived = context_shape(m, ctx)
    if not shapes_equal(declared, derived):
        mor = m.compose(mor, structural(m, declared, derived))
    if not m.obj_eq(m.dom(mor), shape_obj(m, declared)):
        raise ModelError(f"interpretation starts at {m.dom(mor)}, not at the context's object")
    if not m.obj_eq(m.cod(mor), m.type_obj(j.type)):
        raise ModelError(f"interpretation ends at {m.cod(mor)}, not at the type's object")
    return mor


def interpret_single_var(j: Judgement, evidence: Derivation, m: Model) -> Any:
    """Interpretation of ``x :^0 A |- t : B`` as a morphism [[A]] -> [[B]].

    Precomposes with the canonical embedding [[A]] = I (x) (0 . [[A]]).
    """
    if len(j.ctx) != 1 or j.ctx[0].grade != 0:
        raise ModelError("expected a single context entry at grade 0")
    a = m.type_obj(j.ctx[0].type)
    embed = m.compose(m.lunit_inv(m.act_obj(0, a)), m.unitor(a))
    return m.compose(interpret(j, evidence, m), embed)
