"""The proof-search oracle as it was before it was written over the syntax table.

Kept as the reference for ``pstt.testkit``:

* ``_local_moves`` spells out each hoist and push-in per constructor: a
  pair side, a gate argument, a box and a let's scrutinee each have their
  own ``match`` block;
* ``all_moves`` lists every position with ``positions`` and recovers each
  node's path from its place with ``_path``;
* ``search_equal`` rebuilds the two halves of a found proof with two loops,
  and computes a frontier term's ``alpha_key`` once per move it yields.

The move records, rule sets, subterm typing and syntax utilities are the
package's own.
"""

from __future__ import annotations

from pstt.chip import ChipSpec
from pstt.syntax import (
    LETS,
    Box,
    BoxIntro,
    Context,
    GateApp,
    Judgement,
    LetBox,
    LetPair,
    LetStar,
    Pair,
    Place,
    Star,
    Tensor,
    TermExpr,
    TypeExpr,
    Unit,
    Var,
    alpha_key,
    binders,
    children,
    free_vars,
    fresh_name,
    plug,
    positions,
    rebuild,
    subst_parallel,
    substitute,
)
from pstt.testkit import (
    _MAX_NODES,
    GRADE_SENSITIVE,
    NOISE_MOVES,
    Move,
    ProofSearchResult,
    ProofStep,
    node_types,
)
from pstt.typecheck import TypingError, check


def _path(up: Place | None) -> tuple[int, ...]:
    """Child indices from the root down to a place."""
    path = []
    while up is not None:
        _, i, up = up
        path.append(i)
    return tuple(reversed(path))


def _local_moves(node: TermExpr, ty: TypeExpr | None) -> list[tuple[str, str, TermExpr]]:
    """(rule, direction, new subterm) candidates at one node."""
    out: list[tuple[str, str, TermExpr]] = []
    taken = set(free_vars(node))

    # Contractions.
    match node:
        case LetStar(Star(), u):
            out.append(("beta-unit", "fwd", u))
        case LetPair(x, y, Pair(a, b), u):
            out.append(("beta-pair", "fwd", subst_parallel(u, {x: a, y: b})))
        case LetBox(d, x, BoxIntro(d2, s), u) if d == d2:
            out.append(("beta-box", "fwd", substitute(u, x, s)))
    match node:
        case LetStar(s, Star()):
            out.append(("eta-unit", "fwd", s))
        case LetPair(x, y, s, Pair(Var(a), Var(b))) if a == x and b == y:
            out.append(("eta-pair", "fwd", s))
        case LetBox(d, x, s, BoxIntro(d2, Var(a))) if d == d2 and a == x:
            out.append(("eta-box", "fwd", s))

    # Expansions (reverse beta-unit / eta rules; the pair and box beta
    # expansions need a nondeterministic decomposition and are omitted,
    # the forward direction from the other search side covers them).
    out.append(("beta-unit", "bwd", LetStar(Star(), node)))
    if ty == Unit():
        out.append(("eta-unit", "bwd", LetStar(node, Star())))
    if isinstance(ty, Tensor):
        x = fresh_name("o", taken)
        y = fresh_name("o", taken | {x})
        out.append(("eta-pair", "bwd", LetPair(x, y, node, Pair(Var(x), Var(y)))))
    if isinstance(ty, Box):
        x = fresh_name("o", taken)
        out.append(("eta-box", "bwd", LetBox(ty.grade, x, node, BoxIntro(ty.grade, Var(x)))))

    # Commuting conversions: hoist out (fwd) and push in (bwd), plus swaps.
    kind = {LetStar: "unit", LetPair: "pair", LetBox: "box"}

    match node:
        case Pair(inner, r) if isinstance(inner, LETS):
            s, b = children(inner)
            if not set(binders(inner)) & set(free_vars(r)):
                out.append(
                    (f"hoist-{kind[type(inner)]}-from-pair-left", "fwd", rebuild(inner, (s, Pair(b, r))))
                )
        case _:
            pass
    match node:
        case Pair(l, inner) if isinstance(inner, LETS):
            s, b = children(inner)
            if not set(binders(inner)) & set(free_vars(l)):
                out.append(
                    (f"hoist-{kind[type(inner)]}-from-pair-right", "fwd", rebuild(inner, (s, Pair(l, b))))
                )
        case _:
            pass
    match node:
        case GateApp(g, args):
            for i, a in enumerate(args):
                if isinstance(a, LETS):
                    s, b = children(a)
                    others = set()
                    for j, other in enumerate(args):
                        if j != i:
                            others |= set(free_vars(other))
                    if not set(binders(a)) & others:
                        new_args = args[:i] + (b,) + args[i + 1 :]
                        out.append(
                            (f"hoist-{kind[type(a)]}-from-gate", "fwd", rebuild(a, (s, GateApp(g, new_args))))
                        )
        case _:
            pass
    match node:
        case BoxIntro(d, inner) if isinstance(inner, LETS):
            s, b = children(inner)
            out.append(
                (f"hoist-{kind[type(inner)]}-from-box", "fwd", rebuild(inner, (s, BoxIntro(d, b))))
            )
        case _:
            pass
    if isinstance(node, LETS):
        binders_o = binders(node)
        s_o, b_o = children(node)
        if isinstance(s_o, LETS):
            binders_i = binders(s_o)
            s_i, b_i = children(s_o)
            if not set(binders_i) & set(free_vars(b_o)):
                out.append(
                    (
                        f"hoist-{kind[type(s_o)]}-from-{kind[type(node)]}-scrutinee",
                        "fwd",
                        rebuild(s_o, (s_i, rebuild(node, (b_i, b_o)))),
                    )
                )
        # Push the outer let into the inner scrutinee (reverse hoist).
        if isinstance(b_o, LETS):
            binders_i = binders(b_o)
            s_i, b_i = children(b_o)
            if not set(binders_o) & set(free_vars(b_i)) and not set(binders_i) & set(
                free_vars(s_o)
            ):
                out.append(
                    (
                        f"hoist-{kind[type(node)]}-from-{kind[type(b_o)]}-scrutinee",
                        "bwd",
                        rebuild(b_o, (rebuild(node, (s_o, s_i)), b_i)),
                    )
                )
            # Swap adjacent independent lets (self-inverse family).
            if not set(binders_o) & set(free_vars(s_i)) and not set(binders_i) & set(
                free_vars(s_o)
            ):
                out.append(
                    (
                        f"swap-{kind[type(node)]}-{kind[type(b_o)]}",
                        "fwd",
                        rebuild(b_o, (s_i, rebuild(node, (s_o, b_i)))),
                    )
                )

    # Push-in moves for constructors (reverse of hoist-out).
    if isinstance(node, LETS):
        binders_o = binders(node)
        s_o, b_o = children(node)
        free_binders = set(binders_o)
        match b_o:
            case Pair(l, r):
                if not free_binders & set(free_vars(r)):
                    out.append(
                        (f"hoist-{kind[type(node)]}-from-pair-left", "bwd", Pair(rebuild(node, (s_o, l)), r))
                    )
                if not free_binders & set(free_vars(l)):
                    out.append(
                        (f"hoist-{kind[type(node)]}-from-pair-right", "bwd", Pair(l, rebuild(node, (s_o, r))))
                    )
            case GateApp(g, args):
                for i, a in enumerate(args):
                    others = set()
                    for j, other in enumerate(args):
                        if j != i:
                            others |= set(free_vars(other))
                    if not free_binders & others:
                        new_args = args[:i] + (rebuild(node, (s_o, a)),) + args[i + 1 :]
                        out.append((f"hoist-{kind[type(node)]}-from-gate", "bwd", GateApp(g, new_args)))
            case BoxIntro(d, b):
                out.append((f"hoist-{kind[type(node)]}-from-box", "bwd", BoxIntro(d, rebuild(node, (s_o, b)))))
            case _:
                pass

    return out


def all_moves(
    j: Judgement,
    chip: ChipSpec,
    *,
    fast: bool = False,
    skip_noise: bool = False,
) -> list[Move]:
    """Every valid single-rule rewrite of the judgement's term.

    ``fast`` re-checks only the grade-sensitive moves instead of every
    candidate (safe when the input judgement is known to be accepted);
    ``skip_noise`` drops the beta-unit expansion, which inserts
    ``let * = * in -`` detours no shortest proof needs.
    """
    env = {e.name: e.type for e in j.ctx}
    try:
        types = node_types(j.term, env, chip)
    except (TypingError, KeyError):
        types = {}
    moves: list[Move] = []
    for node, up in positions(j.term):
        path = _path(up)
        for rule, direction, new_node in _local_moves(node, types.get(path)):
            if skip_noise and (rule, direction) in NOISE_MOVES:
                continue
            candidate = plug(new_node, up)
            if not fast or (rule, direction) in GRADE_SENSITIVE:
                try:
                    check(Judgement(j.ctx, candidate, j.type), chip)
                except (TypingError, ValueError):
                    continue
            moves.append(Move(rule, direction, path, candidate))
    return moves


def search_equal(
    ctx: Context,
    s: TermExpr,
    t: TermExpr,
    type_: TypeExpr,
    chip: ChipSpec,
    depth: int = 6,
) -> ProofSearchResult:
    """Bidirectional BFS over rule rewrites; found implies equality."""
    check(Judgement(ctx, s, type_), chip)
    check(Judgement(ctx, t, type_), chip)

    start_s, start_t = alpha_key(s), alpha_key(t)
    if start_s == start_t:
        return ProofSearchResult(True, (), 0, (s,))

    # visited: key -> (term, parent key, step) per side
    sides = {
        "s": {start_s: (s, None, None)},
        "t": {start_t: (t, None, None)},
    }
    frontiers = {"s": [s], "t": [t]}
    explored = 0

    def build_proof(meet: str) -> tuple[tuple[ProofStep, ...], tuple[TermExpr, ...]]:
        forward: list[ProofStep] = []
        fwd_terms: list[TermExpr] = []
        key = meet
        while True:
            term, parent, step = sides["s"][key]
            fwd_terms.append(term)
            if parent is None:
                break
            forward.append(step)
            key = parent
        forward.reverse()
        fwd_terms.reverse()
        backward: list[ProofStep] = []
        bwd_terms: list[TermExpr] = []
        key = meet
        while True:
            term, parent, step = sides["t"][key]
            if parent is None:
                break
            flipped = ProofStep(step.rule, "bwd" if step.direction == "fwd" else "fwd", step.path)
            backward.append(flipped)
            bwd_terms.append(sides["t"][parent][0])
            key = parent
        return tuple(forward + backward), tuple(fwd_terms + bwd_terms)

    for round_no in range(1, depth + 1):
        for side in ("s", "t"):
            new_frontier: list[TermExpr] = []
            for term in frontiers[side]:
                j = Judgement(ctx, term, type_)
                for move in all_moves(j, chip):
                    key = alpha_key(move.result)
                    if key in sides[side]:
                        continue
                    sides[side][key] = (
                        move.result,
                        alpha_key(term),
                        ProofStep(move.rule, move.direction, move.path),
                    )
                    new_frontier.append(move.result)
                    if key in sides["t" if side == "s" else "s"]:
                        proof, path = build_proof(key)
                        return ProofSearchResult(True, proof, round_no, path)
                    if len(sides["s"]) + len(sides["t"]) > _MAX_NODES:
                        return ProofSearchResult(False, (), round_no)
            frontiers[side] = new_frontier
        explored = round_no
        if not frontiers["s"] and not frontiers["t"]:
            break
    return ProofSearchResult(False, (), explored)
