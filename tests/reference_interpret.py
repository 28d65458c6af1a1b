"""The generic interpreter as it was before it walked on an explicit stack.

Kept as the reference for ``pstt.semantics.interpret``:

* ``_interp`` calls itself once per premise, so its depth is the
  derivation's;
* ``unit-elim``, ``pair-elim`` and ``box-elim`` each spell out the same
  pipeline and compute their own shift from the rule's parameters;
* ``_absorb``, ``_rc_shape``, ``_tensor_chain`` and ``_dist_chain`` recurse
  once per entry.

The models, shapes and structural maps are the package's own.
"""

from __future__ import annotations

from typing import Any

from pstt.surface import print_context
from pstt.syntax import Context, CtxEntry, Judgement, shift_context
from pstt.typecheck import Derivation
from pstt.semantics.model import (
    Model,
    ModelError,
    Shape,
    ShapeLeaf,
    ShapeNode,
    ShapeUnit,
    comb_obj,
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
    rest_whole = comb_obj(m, rest)
    step = m.tensor_mor(m.identity(m.act_obj(d, objs[0])), _dist_chain(m, d, rest))
    return m.compose(m.dist_tensor(d, objs[0], rest_whole), step)


def _interp(d: Derivation, m: Model) -> tuple[Any, Context]:
    """``d``'s morphism and its domain's context, built from its premises'."""
    match d.rule:
        case "var":
            a = m.type_obj(d.type)
            mor = m.compose(m.unitor_inv(a), m.lunit(m.act_obj(0, a)))
            return mor, (CtxEntry(d.term.name, 0, d.type),)

        case "unit-intro":
            return m.identity(m.unit()), ()

        case "pair-intro":
            (left, lctx), (right, rctx) = (_interp(p, m) for p in d.premises)
            ctx = lctx + rctx
            split = structural(
                m,
                context_shape(m, ctx),
                ShapeNode(context_shape(m, lctx), context_shape(m, rctx)),
            )
            return m.compose(m.tensor_mor(left, right), split), ctx

        case "gate":
            dur = d.params[0]
            mors, ctxs = zip(*(_interp(p, m) for p in d.premises))
            shifted = [shift_context(-dur, c) for c in ctxs]
            ctx = tuple(e for c in shifted for e in c)
            groups = [context_shape(m, c) for c in shifted]
            split = structural(m, context_shape(m, ctx), _rc_shape(groups))
            absorbed = _tensor_chain(m, [_absorb(m, -dur, c) for c in ctxs])
            gathered = _dist_chain(m, -dur, [context_obj(m, c) for c in ctxs])
            body = m.act_mor(-dur, _tensor_chain(m, list(mors)))
            return m.compose_all([split, absorbed, gathered, body, m.gate_mor(d.term.gate)]), ctx

        case "unit-elim":
            shift = d.params[0]
            (scrut, sctx), (body, delta) = (_interp(p, m) for p in d.premises)
            shifted = shift_context(shift, sctx)
            ctx = shifted + delta
            delta_obj = context_obj(m, delta)
            split = structural(
                m,
                context_shape(m, ctx),
                ShapeNode(context_shape(m, shifted), context_shape(m, delta)),
            )
            mor = m.compose_all(
                [
                    split,
                    m.tensor_mor(_absorb(m, shift, sctx), m.identity(delta_obj)),
                    m.tensor_mor(m.act_mor(shift, scrut), m.identity(delta_obj)),
                    m.tensor_mor(m.dist_unit(shift), m.identity(delta_obj)),
                    m.lunit(delta_obj),
                    body,
                ]
            )
            return mor, ctx

        case "pair-elim":
            shift = d.params[0]
            (scrut, sctx), (body, bctx) = (_interp(p, m) for p in d.premises)
            x, y = d.term.x, d.term.y
            tensor_ty = d.premises[0].type
            a_obj = m.type_obj(tensor_ty.left)
            b_obj = m.type_obj(tensor_ty.right)
            shifted = shift_context(shift, sctx)
            delta = tuple(e for e in bctx if e.name not in (x, y))
            ctx = shifted + delta
            delta_obj = context_obj(m, delta)
            split = structural(
                m,
                context_shape(m, ctx),
                ShapeNode(context_shape(m, shifted), context_shape(m, delta)),
            )
            binder_shape = ShapeNode(
                ShapeNode(
                    ShapeLeaf(m.act_obj(shift, a_obj), x),
                    ShapeLeaf(m.act_obj(shift, b_obj), y),
                ),
                context_shape(m, delta),
            )
            reorder = structural(m, binder_shape, context_shape(m, bctx))
            mor = m.compose_all(
                [
                    split,
                    m.tensor_mor(_absorb(m, shift, sctx), m.identity(delta_obj)),
                    m.tensor_mor(m.act_mor(shift, scrut), m.identity(delta_obj)),
                    m.tensor_mor(m.dist_tensor_inv(shift, a_obj, b_obj), m.identity(delta_obj)),
                    reorder,
                    body,
                ]
            )
            return mor, ctx

        case "box-intro":
            grade = d.params[0]
            body, bctx = _interp(d.premises[0], m)
            mor = m.compose(m.act_mor(grade, body), _absorb(m, grade, bctx))
            return mor, shift_context(grade, bctx)

        case "box-elim":
            grade, binder_grade = d.params
            shift = binder_grade - grade
            (scrut, sctx), (body, bctx) = (_interp(p, m) for p in d.premises)
            x = d.term.x
            a_obj = m.type_obj(d.premises[0].type.body)
            shifted = shift_context(shift, sctx)
            delta = tuple(e for e in bctx if e.name != x)
            ctx = shifted + delta
            delta_obj = context_obj(m, delta)
            split = structural(
                m,
                context_shape(m, ctx),
                ShapeNode(context_shape(m, shifted), context_shape(m, delta)),
            )
            binder_shape = ShapeNode(
                ShapeLeaf(m.act_obj(binder_grade, a_obj), x), context_shape(m, delta)
            )
            reorder = structural(m, binder_shape, context_shape(m, bctx))
            mor = m.compose_all(
                [
                    split,
                    m.tensor_mor(_absorb(m, shift, sctx), m.identity(delta_obj)),
                    m.tensor_mor(m.act_mor(shift, scrut), m.identity(delta_obj)),
                    m.tensor_mor(
                        m.multiplicator(shift, grade, a_obj), m.identity(delta_obj)
                    ),
                    reorder,
                    body,
                ]
            )
            return mor, ctx

    raise ModelError(f"unknown derivation rule {d.rule!r}")


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
