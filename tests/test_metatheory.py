"""Executable metatheory: functionality and commuting-substitution suites."""

import random

from pstt import (
    Box,
    EqKind,
    Judgement,
    LetBox,
    LetPair,
    LetStar,
    Tensor,
    Unit,
    Var,
    alpha_eq,
    check,
    judgementally_equal,
    make_context,
    normalize,
    shift_context,
)
from pstt.semantics import PulseModel, context_obj, interpret
from pstt.syntax import substitute
from pstt.testkit import GenConfig, all_moves, gen_judgement


def _disjoint(*ctxs):
    seen = set()
    for ctx in ctxs:
        names = {e.name for e in ctx}
        if names & seen:
            return False
        seen |= names
    return True


def test_functionality_one_step_rewrites(chip0):
    # If s rewrites to s' (a judgemental equality), then t[x:=s] and
    # t[x:=s'] share a normal form.
    rng = random.Random(41)
    cfg = GenConfig(chip=chip0, seed=41)
    done = 0
    while done < 60:
        outer = gen_judgement(cfg, rng=rng)
        if not outer.ctx:
            continue
        entry = rng.choice(list(outer.ctx))
        inner = gen_judgement(cfg, goal=entry.type, rng=rng)
        if not _disjoint(inner.ctx, outer.ctx):
            continue
        moves = all_moves(inner, chip0)
        if not moves:
            continue
        inner2 = rng.choice(moves).result
        ctx = shift_context(entry.grade, inner.ctx) + tuple(
            e for e in outer.ctx if e.name != entry.name
        )
        a = substitute(outer.term, entry.name, inner.term)
        b = substitute(outer.term, entry.name, inner2)
        nf_a = normalize(Judgement(ctx, a, outer.type), chip0)
        nf_b = normalize(Judgement(ctx, b, outer.type), chip0)
        assert alpha_eq(nf_a.term, nf_b.term), (a, b)
        done += 1


def _pick_entry(rng, j):
    return rng.choice(list(j.ctx)) if j.ctx else None


def test_commuting_substitution_unit(chip0):
    # u[y := let * = s in t]  =  let * = s in u[y := t]
    # at context d+e+Gamma, e+Delta, Theta.
    rng = random.Random(43)
    cfg = GenConfig(chip=chip0, seed=43)
    done = 0
    while done < 25:
        ju = gen_judgement(cfg, rng=rng)
        entry = _pick_entry(rng, ju)
        if entry is None:
            continue
        jt = gen_judgement(cfg, goal=entry.type, rng=rng)
        js = gen_judgement(cfg, goal=Unit(), rng=rng)
        if not _disjoint(js.ctx, jt.ctx, ju.ctx):
            continue
        d = rng.randint(-40, 40)
        e = entry.grade
        ctx = (
            shift_context(d + e, js.ctx)
            + shift_context(e, jt.ctx)
            + tuple(x for x in ju.ctx if x.name != entry.name)
        )
        lhs = substitute(ju.term, entry.name, LetStar(js.term, jt.term))
        rhs = LetStar(js.term, substitute(ju.term, entry.name, jt.term))
        verdict = judgementally_equal(ctx, lhs, rhs, ju.type, chip0)
        assert verdict.kind is EqKind.EQUAL
        done += 1


def test_commuting_substitution_pair(chip0):
    # u[z := let (x,y) = s in t]  =  let (x,y) = s in u[z := t]
    # with t = let * = x in let * = y in t0, so the unit binders take any
    # common grade d (both sides absorb it in their let-* shifts).
    rng = random.Random(44)
    cfg = GenConfig(chip=chip0, seed=44)
    done = 0
    while done < 25:
        ju = gen_judgement(cfg, rng=rng)
        entry = _pick_entry(rng, ju)
        if entry is None:
            continue
        jt0 = gen_judgement(cfg, goal=entry.type, rng=rng)
        js = gen_judgement(cfg, goal=Tensor(Unit(), Unit()), rng=rng)
        if not _disjoint(js.ctx, jt0.ctx, ju.ctx):
            continue
        if {"px", "py"} & {x.name for x in js.ctx + jt0.ctx + ju.ctx}:
            continue
        d = rng.randint(-30, 30)
        e = entry.grade
        t_term = LetStar(Var("px"), LetStar(Var("py"), jt0.term))
        lhs = substitute(ju.term, entry.name, LetPair("px", "py", js.term, t_term))
        rhs = LetPair("px", "py", js.term, substitute(ju.term, entry.name, t_term))
        ctx = (
            shift_context(d + e, js.ctx)
            + shift_context(e, jt0.ctx)
            + tuple(x for x in ju.ctx if x.name != entry.name)
        )
        verdict = judgementally_equal(ctx, lhs, rhs, ju.type, chip0)
        assert verdict.kind is EqKind.EQUAL
        done += 1


def test_commuting_substitution_box(chip0):
    # u[y := let box[d] x = s in t]  =  let box[d] x = s in u[y := t].
    rng = random.Random(45)
    cfg = GenConfig(chip=chip0, seed=45)
    done = 0
    while done < 25:
        ju = gen_judgement(cfg, rng=rng)
        entry = _pick_entry(rng, ju)
        if entry is None:
            continue
        jt = gen_judgement(cfg, goal=entry.type, rng=rng)
        x_entry = _pick_entry(rng, jt)
        if x_entry is None:
            continue
        d = rng.randint(-40, 40)
        js = gen_judgement(cfg, goal=Box(d, x_entry.type), rng=rng)
        if not _disjoint(js.ctx, jt.ctx, ju.ctx):
            continue
        e = x_entry.grade
        f = entry.grade
        ctx = (
            shift_context(e - d + f, js.ctx)
            + shift_context(f, tuple(xx for xx in jt.ctx if xx.name != x_entry.name))
            + tuple(xx for xx in ju.ctx if xx.name != entry.name)
        )
        inner = LetBox(d, x_entry.name, js.term, jt.term)
        lhs = substitute(ju.term, entry.name, inner)
        rhs = LetBox(d, x_entry.name, js.term, substitute(ju.term, entry.name, jt.term))
        verdict = judgementally_equal(ctx, lhs, rhs, ju.type, chip0)
        assert verdict.kind is EqKind.EQUAL
        done += 1


def test_semantic_substitution_pulse(chip0):
    # [[t[x:=s]]]  =  [[t]] . ((d . [[s]]) (x) id) in the strict pulse model.
    rng = random.Random(46)
    cfg = GenConfig(chip=chip0, seed=46, distinct_qubits=True)
    model = PulseModel(chip0)
    done = 0
    while done < 40:
        outer = gen_judgement(cfg, rng=rng)
        if not outer.ctx:
            continue
        entry = rng.choice(list(outer.ctx))
        inner = gen_judgement(cfg, goal=entry.type, rng=rng)
        if not _disjoint(inner.ctx, outer.ctx):
            continue
        from pstt.semantics import ModelError

        try:
            whole_ctx = shift_context(entry.grade, inner.ctx) + tuple(
                e for e in outer.ctx if e.name != entry.name
            )
            j_sub = Judgement(
                whole_ctx, substitute(outer.term, entry.name, inner.term), outer.type
            )
            lhs = interpret(j_sub, check(j_sub, chip0), model)

            delta = tuple(e for e in outer.ctx if e.name != entry.name)
            # [[t]] read off a context ordered (x, Delta).
            j_t = Judgement((entry,) + delta, outer.term, outer.type)
            t_mor = interpret(j_t, check(j_t, chip0), model)
            s_mor = interpret(inner, check(inner, chip0), model)
            boxed_s = model.act_mor(entry.grade, s_mor)
            rhs = model.compose(
                t_mor, model.tensor_mor(boxed_s, model.identity(context_obj(model, delta)))
            )
        except ModelError:
            continue
        assert model.mor_eq(lhs, rhs)
        done += 1


def test_context_concatenation_strict(chip0):
    model = PulseModel(chip0)
    gamma = make_context([("x", -20, Box(5, Unit())), ("y", 3, Unit())])
    delta = make_context([("z", 7, Box(0, Unit()))])
    joined = context_obj(model, gamma + delta)
    split = model.tensor_obj(context_obj(model, gamma), context_obj(model, delta))
    assert model.obj_eq(joined, split)
