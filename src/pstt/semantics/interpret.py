"""Generic interpretation of checked judgements in any model.

A context ``x1:^d1 A1, ..., xn:^dn An`` denotes the left-nested object
``(..(I (x) d1.A1) .. (x) dn.An)``; a derivation denotes a morphism from its
context object to its type object, built by structural recursion over the
solved derivation evidence.
"""

from __future__ import annotations

from typing import Any

from ..surface import print_context
from ..syntax import Context, CtxEntry, Judgement
from ..typecheck import Derivation, fill_contexts
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
    if not premise_ctx:
        return m.dist_unit_inv(d)
    init, last = premise_ctx[:-1], premise_ctx[-1]
    rec = _absorb(m, d, init)
    leaf_obj = m.type_obj(last.type)
    leaf_mor = m.multiplicator_inv(d, last.grade, leaf_obj)
    step = m.tensor_mor(rec, leaf_mor)
    gather = m.dist_tensor(d, context_obj(m, init), m.act_obj(last.grade, leaf_obj))
    return m.compose(gather, step)


def _rc_shape(groups: list[Shape]) -> Shape:
    if len(groups) == 1:
        return groups[0]
    return ShapeNode(groups[0], _rc_shape(groups[1:]))


def _tensor_chain(m: Model, morphisms: list[Any]) -> Any:
    if len(morphisms) == 1:
        return morphisms[0]
    return m.tensor_mor(morphisms[0], _tensor_chain(m, morphisms[1:]))


def _dist_chain(m: Model, d: int, objs: list[Any]) -> Any:
    """((d.O1) (x) (d.O2) (x) ...) -> d . (O1 (x) O2 (x) ...), right-nested."""
    if len(objs) == 1:
        return m.identity(m.act_obj(d, objs[0]))
    rest = objs[1:]
    rest_whole = _rc_obj(m, rest)
    step = m.tensor_mor(m.identity(m.act_obj(d, objs[0])), _dist_chain(m, d, rest))
    return m.compose(m.dist_tensor(d, objs[0], rest_whole), step)


def _rc_obj(m: Model, objs: list[Any]) -> Any:
    out = objs[-1]
    for o in reversed(objs[:-1]):
        out = m.tensor_obj(o, out)
    return out


def _interp(d: Derivation, m: Model) -> Any:
    match d.rule:
        case "var":
            entry = d.ctx[0]
            a = m.type_obj(entry.type)
            return m.compose(m.unitor_inv(a), m.lunit(m.act_obj(0, a)))

        case "unit-intro":
            return m.identity(m.unit())

        case "pair-intro":
            left, right = d.premises
            split = structural(
                m,
                context_shape(m, d.ctx),
                ShapeNode(context_shape(m, left.ctx), context_shape(m, right.ctx)),
            )
            return m.compose(m.tensor_mor(_interp(left, m), _interp(right, m)), split)

        case "gate":
            dur = d.params[0]
            shifted = [
                tuple(CtxEntry(e.name, e.grade - dur, e.type) for e in p.ctx)
                for p in d.premises
            ]
            groups = [context_shape(m, ctx) for ctx in shifted]
            split = structural(m, context_shape(m, d.ctx), _rc_shape(groups))
            absorbed = _tensor_chain(m, [_absorb(m, -dur, p.ctx) for p in d.premises])
            prem_objs = [context_obj(m, p.ctx) for p in d.premises]
            gathered = _dist_chain(m, -dur, prem_objs)
            body = m.act_mor(-dur, _tensor_chain(m, [_interp(p, m) for p in d.premises]))
            return m.compose_all([split, absorbed, gathered, body, m.gate_mor(d.term.gate)])

        case "unit-elim":
            shift = d.params[0]
            scrut, body = d.premises
            shifted = tuple(
                CtxEntry(e.name, e.grade + shift, e.type) for e in scrut.ctx
            )
            delta_obj = context_obj(m, body.ctx)
            split = structural(
                m,
                context_shape(m, d.ctx),
                ShapeNode(context_shape(m, shifted), context_shape(m, body.ctx)),
            )
            return m.compose_all(
                [
                    split,
                    m.tensor_mor(_absorb(m, shift, scrut.ctx), m.identity(delta_obj)),
                    m.tensor_mor(m.act_mor(shift, _interp(scrut, m)), m.identity(delta_obj)),
                    m.tensor_mor(m.dist_unit(shift), m.identity(delta_obj)),
                    m.lunit(delta_obj),
                    _interp(body, m),
                ]
            )

        case "pair-elim":
            shift = d.params[0]
            scrut, body = d.premises
            x, y = d.term.x, d.term.y
            tensor_ty = scrut.type
            a_obj = m.type_obj(tensor_ty.left)
            b_obj = m.type_obj(tensor_ty.right)
            shifted = tuple(
                CtxEntry(e.name, e.grade + shift, e.type) for e in scrut.ctx
            )
            delta = tuple(e for e in body.ctx if e.name not in (x, y))
            delta_obj = context_obj(m, delta)
            split = structural(
                m,
                context_shape(m, d.ctx),
                ShapeNode(context_shape(m, shifted), context_shape(m, delta)),
            )
            binder_shape = ShapeNode(
                ShapeNode(
                    ShapeLeaf(m.act_obj(shift, a_obj), x),
                    ShapeLeaf(m.act_obj(shift, b_obj), y),
                ),
                context_shape(m, delta),
            )
            reorder = structural(m, binder_shape, context_shape(m, body.ctx))
            return m.compose_all(
                [
                    split,
                    m.tensor_mor(_absorb(m, shift, scrut.ctx), m.identity(delta_obj)),
                    m.tensor_mor(m.act_mor(shift, _interp(scrut, m)), m.identity(delta_obj)),
                    m.tensor_mor(m.dist_tensor_inv(shift, a_obj, b_obj), m.identity(delta_obj)),
                    reorder,
                    _interp(body, m),
                ]
            )

        case "box-intro":
            grade = d.params[0]
            (body,) = d.premises
            return m.compose(
                m.act_mor(grade, _interp(body, m)), _absorb(m, grade, body.ctx)
            )

        case "box-elim":
            grade, binder_grade = d.params
            shift = binder_grade - grade
            scrut, body = d.premises
            x = d.term.x
            a_obj = m.type_obj(scrut.type.body)
            shifted = tuple(
                CtxEntry(e.name, e.grade + shift, e.type) for e in scrut.ctx
            )
            delta = tuple(e for e in body.ctx if e.name != x)
            delta_obj = context_obj(m, delta)
            split = structural(
                m,
                context_shape(m, d.ctx),
                ShapeNode(context_shape(m, shifted), context_shape(m, delta)),
            )
            binder_shape = ShapeNode(
                ShapeLeaf(m.act_obj(binder_grade, a_obj), x), context_shape(m, delta)
            )
            reorder = structural(m, binder_shape, context_shape(m, body.ctx))
            return m.compose_all(
                [
                    split,
                    m.tensor_mor(_absorb(m, shift, scrut.ctx), m.identity(delta_obj)),
                    m.tensor_mor(m.act_mor(shift, _interp(scrut, m)), m.identity(delta_obj)),
                    m.tensor_mor(
                        m.multiplicator(shift, grade, a_obj), m.identity(delta_obj)
                    ),
                    reorder,
                    _interp(body, m),
                ]
            )

    raise ModelError(f"unknown derivation rule {d.rule!r}")


def interpret(j: Judgement, evidence: Derivation, m: Model) -> Any:
    """Interpret the judgement as a morphism [[ctx]] -> [[type]].

    Raises ModelError when the derivation's context differs from the
    judgement's in names or grades, or the result is not such a morphism.
    """
    fill_contexts(evidence)  # every node's context, read below, in one pass
    if {(e.name, e.grade) for e in evidence.ctx} != {(e.name, e.grade) for e in j.ctx}:
        raise ModelError(
            f"derivation's context ({print_context(evidence.ctx)}) differs from"
            f" the judgement's ({print_context(j.ctx)})"
        )
    mor = _interp(evidence, m)
    declared = context_shape(m, j.ctx)
    derived = context_shape(m, evidence.ctx)
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
