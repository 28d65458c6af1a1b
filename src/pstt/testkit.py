"""Random well-typed judgement generation and a bounded equality oracle.

The generator works top-down from a goal type, inventing free variables at
leaves and re-validating everything through the checker, so every produced
judgement is accepted by construction.  The oracle is an independent
breadth-first proof search over single equality-rule rewrites applied in
both directions; it shares no code with the normalizer beyond the syntax
utilities, so the two can cross-check each other.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .chip import ChipSpec
from .syntax import (
    Box,
    BoxIntro,
    Context,
    CtxEntry,
    GateApp,
    Judgement,
    LETS,
    LetBox,
    LetPair,
    LetStar,
    Pair,
    Place,
    Qubit,
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
    qubits_of_type,
    rebuild,
    subst_parallel,
    substitute,
)
from .typecheck import TypingError, _synth, check, infer

_GRADES = (-120, 120)  # range of generated grades and slack values
_ATTEMPTS = 60  # generation attempts before falling back
_MAX_NODES = 4000  # terms visited by one search_equal


@dataclass(frozen=True)
class GenConfig:
    chip: ChipSpec
    seed: int = 0
    max_depth: int = 4
    distinct_qubits: bool = False


class _GenFail(Exception):
    pass


class _Gen:
    def __init__(self, cfg: GenConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.chip = cfg.chip
        self.counter = 0
        self.pool: set[str] | None = set(cfg.chip.qubits) if cfg.distinct_qubits else None
        self.allow_fresh = True
        self.var_types: dict[str, TypeExpr] = {}

    def fresh(self, base: str = "v") -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def grade(self) -> int:
        return self.rng.randint(*_GRADES)

    # -------------------------------------------------------------- types

    def random_type(self, size: int, pool: list[str]) -> TypeExpr:
        """Random goal type whose qubits are drawn without replacement."""
        choices = ["unit", "box"]
        if pool:
            choices += ["qubit", "qubit"]
        if size > 1:
            choices.append("tensor")
        match self.rng.choice(choices):
            case "unit":
                return Unit()
            case "qubit":
                q = pool.pop(self.rng.randrange(len(pool)))
                return Qubit(q)
            case "box":
                return Box(self.grade(), self.random_type(size - 1, pool))
            case "tensor":
                return Tensor(
                    self.random_type(size // 2, pool), self.random_type(size // 2, pool)
                )
        raise AssertionError

    # -------------------------------------------------------------- terms

    def take_qubits(self, ty: TypeExpr) -> None:
        if self.pool is None:
            return
        qubits = qubits_of_type(ty)
        if len(set(qubits)) != len(qubits) or not set(qubits) <= self.pool:
            raise _GenFail
        self.pool -= set(qubits)

    def leaf(self, goal: TypeExpr, must_use: list[tuple[str, TypeExpr]]) -> TermExpr:
        if len(must_use) == 1 and must_use[0][1] == goal:
            return Var(must_use[0][0])
        if must_use:
            raise _GenFail
        if goal == Unit() and self.rng.random() < 0.5:
            return Star()
        if not self.allow_fresh:
            raise _GenFail
        self.take_qubits(goal)
        name = self.fresh("x")
        self.var_types[name] = goal
        return Var(name)

    def split_uses(
        self, must_use: list[tuple[str, TypeExpr]], n: int
    ) -> list[list[tuple[str, TypeExpr]]]:
        out: list[list[tuple[str, TypeExpr]]] = [[] for _ in range(n)]
        for item in must_use:
            out[self.rng.randrange(n)].append(item)
        return out

    def gates_for(self, goal: TypeExpr) -> list:
        return [g for g in self.chip.gates if g.type == goal]

    def gen(self, goal: TypeExpr, depth: int, must_use: list[tuple[str, TypeExpr]]) -> TermExpr:
        if depth <= 1:
            return self.leaf(goal, must_use)

        options: list[str] = ["leaf", "letstar", "letbox"]
        match goal:
            case Unit():
                options += ["star"]
            case Tensor(_, _):
                options += ["pair", "pair", "letpair-eta"]
            case Box(_, _):
                options += ["boxintro", "boxintro"]
            case Qubit(_):
                pass
        if self.gates_for(goal):
            options += ["gate", "gate"]
        if (
            isinstance(goal, Qubit)
            and self.chip.delay_gates_enabled
            and self.chip.find_gate(goal.name) is None  # qubit name is not a gate
        ):
            options += ["delay"]
        options += ["letpair-unit"]

        for _ in range(8):
            kind = self.rng.choice(options)
            try:
                return self.gen_with(kind, goal, depth, list(must_use))
            except _GenFail:
                continue
        return self.leaf(goal, must_use)

    def gen_with(
        self, kind: str, goal: TypeExpr, depth: int, must_use: list[tuple[str, TypeExpr]]
    ) -> TermExpr:
        match kind:
            case "leaf":
                return self.leaf(goal, must_use)
            case "star":
                if must_use:
                    raise _GenFail
                return Star()
            case "pair":
                assert isinstance(goal, Tensor)
                left_use, right_use = self.split_uses(must_use, 2)
                return Pair(
                    self.gen(goal.left, depth - 1, left_use),
                    self.gen(goal.right, depth - 1, right_use),
                )
            case "boxintro":
                assert isinstance(goal, Box)
                return BoxIntro(goal.grade, self.gen(goal.body, depth - 1, must_use))
            case "gate":
                decls = self.gates_for(goal)
                if not decls:
                    raise _GenFail
                decl = self.rng.choice(decls)
                uses = self.split_uses(must_use, len(decl.qubits))
                args = tuple(
                    self.gen(ty, depth - 1, u) for ty, u in zip(decl.arg_types, uses)
                )
                return GateApp(decl.name, args)
            case "delay":
                assert isinstance(goal, Qubit)
                d = self.rng.randint(1, 40)
                return GateApp(
                    f"delay[{goal.name},{d}]", (self.gen(goal, depth - 1, must_use),)
                )
            case "letstar":
                s_use, b_use = self.split_uses(must_use, 2)
                scrutinee = self.gen(Unit(), depth - 1, s_use)
                body = self.gen(goal, depth - 1, b_use)
                return LetStar(scrutinee, body)
            case "letbox":
                d = self.grade()
                x = self.fresh("b")
                s_use, b_use = self.split_uses(must_use, 2)
                scrutinee = self.gen(Box(d, goal), depth - 1, s_use)
                body = self.gen(goal, depth - 1, b_use + [(x, goal)])
                return LetBox(d, x, scrutinee, body)
            case "letpair-unit":
                x, y = self.fresh("p"), self.fresh("p")
                s_use, b_use = self.split_uses(must_use, 2)
                scrutinee = self.gen(Tensor(Unit(), Unit()), depth - 1, s_use)
                inner = self.gen(goal, depth - 2 if depth > 2 else 1, b_use)
                body = LetStar(Var(x), LetStar(Var(y), inner))
                return LetPair(x, y, scrutinee, body)
            case "letpair-eta":
                assert isinstance(goal, Tensor)
                x, y = self.fresh("p"), self.fresh("p")
                scrutinee = self.gen(goal, depth - 1, must_use)
                return LetPair(x, y, scrutinee, Pair(Var(x), Var(y)))
        raise AssertionError(kind)


def gen_judgement(
    cfg: GenConfig,
    goal: TypeExpr | None = None,
    *,
    rng: random.Random | None = None,
) -> Judgement:
    """A random judgement accepted by ``check``; deterministic per seed."""
    rng = rng or random.Random(cfg.seed)
    for _ in range(_ATTEMPTS):
        gen = _Gen(cfg, rng)
        try:
            pool = list(cfg.chip.qubits)
            this_goal = goal if goal is not None else gen.random_type(3, pool)
            term = gen.gen(this_goal, cfg.max_depth, [])
            derivation, _, synth = _synth(term, gen.var_types, cfg.chip)
        except (TypingError, _GenFail):
            continue
        synth.settle({sid: rng.randint(*_GRADES) for sid in synth.slacks})
        j = Judgement(derivation.ctx, term, derivation.type)
        check(j, cfg.chip)  # decided afresh: the judgement keeps no evidence yet
        return j
    fallback = Judgement((), Star(), Unit())
    check(fallback, cfg.chip)
    return fallback


def gen_single_var_judgement(
    cfg: GenConfig,
    *,
    rng: random.Random | None = None,
) -> Judgement | None:
    """A judgement of shape ``x :^0 A |- t : B``, or None if unlucky."""
    rng = rng or random.Random(cfg.seed)
    for _ in range(_ATTEMPTS):
        gen = _Gen(cfg, rng)
        gen.allow_fresh = False
        pool = list(cfg.chip.qubits)
        var_type = gen.random_type(2, pool)
        goal = gen.random_type(2, pool) if var_type == Unit() else var_type
        if isinstance(goal, Tensor) and gen.rng.random() < 0.5:
            goal = Box(gen.grade(), goal)
        try:
            term = gen.gen(goal, cfg.max_depth, [("z0", var_type)])
            j = Judgement((CtxEntry("z0", 0, var_type),), term, goal)
            check(j, cfg.chip)
        except (TypingError, _GenFail):
            continue
        return j
    return None


# --------------------------------------------------------------- subterm types


def node_types(
    term: TermExpr, env: dict[str, TypeExpr], chip: ChipSpec
) -> dict[tuple[int, ...], TypeExpr]:
    """Type of every subterm by path, read off the checker's derivation.

    A derivation's premises follow the term's children.  Context grades are
    ignored; a term the synthesis rejects (a non-linear one, say) raises its
    TypingError.
    """
    root, _, _ = _synth(term, env, chip)
    out: dict[tuple[int, ...], TypeExpr] = {}
    stack = [((), root)]
    while stack:
        path, d = stack.pop()
        out[path] = d.type
        stack.extend((path + (i,), p) for i, p in enumerate(d.premises))
    return out


def _path(up: Place | None) -> tuple[int, ...]:
    """Child indices from the root down to a place."""
    path = []
    while up is not None:
        _, i, up = up
        path.append(i)
    return tuple(reversed(path))

# ------------------------------------------------------------------ oracle
#
# Single-step equality moves, enumerated syntactically in both directions
# and filtered by re-checking the whole judgement.  This keeps every step a
# genuine rule instance (grade side conditions included) without sharing
# any strategy with the normalizer.


@dataclass(frozen=True)
class Move:
    rule: str
    direction: str  # "fwd" | "bwd"
    path: tuple[int, ...]
    result: TermExpr


@dataclass(frozen=True)
class ProofStep:
    rule: str
    direction: str
    path: tuple[int, ...]


@dataclass(frozen=True)
class ProofSearchResult:
    """Outcome of the bounded proof search.

    ``proof`` lists the rule instances transforming s into t (steps found
    from the t side carry flipped directions); ``path_terms`` holds every
    intermediate term including both endpoints, so the proof replays.
    """

    found: bool
    proof: tuple[ProofStep, ...] = ()
    depth_explored: int = 0
    path_terms: tuple[TermExpr, ...] = ()


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


#: Rules whose whole-judgement validity needs a grade re-check; all other
#: moves re-solve their slack parameters and preserve derivability as-is.
GRADE_SENSITIVE = frozenset({("eta-unit", "fwd")})

#: Expansions that mostly add search noise; excluded from closure searches.
NOISE_MOVES = frozenset({("beta-unit", "bwd")})


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


# ------------------------------------------------------------ enumeration


def verify_proof(
    ctx: Context, type_: TypeExpr, chip: ChipSpec, result: ProofSearchResult
) -> bool:
    """Replay a found proof: every hop must be a validated rule instance."""
    if not result.found:
        return False
    terms = result.path_terms
    for i, step in enumerate(result.proof):
        cur, nxt = terms[i], terms[i + 1]
        forward = any(
            mv.rule == step.rule and alpha_key(mv.result) == alpha_key(nxt)
            for mv in all_moves(Judgement(ctx, cur, type_), chip)
        )
        backward = any(
            mv.rule == step.rule and alpha_key(mv.result) == alpha_key(cur)
            for mv in all_moves(Judgement(ctx, nxt, type_), chip)
        )
        if not (forward or backward):
            return False
    return True


def enumerate_well_typed(
    signature: dict[str, TypeExpr],
    chip: ChipSpec,
    max_size: int,
    *,
    gates: tuple[str, ...] = (),
    box_grades: tuple[int, ...] = (0,),
):
    """All well-typed terms up to ``max_size`` over exactly-used variables.

    Yields (term, its inferred judgement) pairs; binder names are canonical
    so no two yields are alpha-equivalent.
    """
    gate_decls = [chip.find_gate(g) for g in gates]
    if any(d is None for d in gate_decls):
        raise ValueError("enumeration gate not on chip")
    memo: dict = {}

    def enum(size: int, avail: frozenset, binders: int) -> list[tuple[TermExpr, TypeExpr]]:
        key = (size, avail, binders)
        if key in memo:
            return memo[key]
        out: list[tuple[TermExpr, TypeExpr]] = []
        if size == 1:
            if not avail:
                out.append((Star(), Unit()))
            if len(avail) == 1:
                ((name, ty),) = avail
                out.append((Var(name), ty))
            memo[key] = out
            return out

        inner = size - 1
        # Unary constructors.
        for sub, ty in enum(inner, avail, binders):
            for d in box_grades:
                out.append((BoxIntro(d, sub), Box(d, ty)))
        for decl in gate_decls:
            if len(decl.qubits) == 1:
                for sub, ty in enum(inner, avail, binders):
                    if ty == decl.type:
                        out.append((GateApp(decl.name, (sub,)), decl.type))

        # Binary constructors over exact context splits.
        items = sorted(avail)
        for left_size in range(1, inner):
            right_size = inner - left_size
            for r in range(len(items) + 1):
                for left_items in itertools.combinations(items, r):
                    left_set = frozenset(left_items)
                    right_set = avail - left_set
                    lefts = enum(left_size, left_set, binders)
                    if not lefts:
                        continue
                    rights = enum(right_size, right_set, binders)
                    rights_all = rights
                    for ls, lty in lefts:
                        for rs, rty in rights_all:
                            out.append((Pair(ls, rs), Tensor(lty, rty)))
                        if lty == Unit():
                            for rs, rty in rights_all:
                                out.append((LetStar(ls, rs), rty))
                    # Two-qubit gates.
                    for decl in gate_decls:
                        if len(decl.qubits) == 2:
                            w1, w2 = decl.arg_types
                            for ls, lty in lefts:
                                if lty != w1:
                                    continue
                                for rs, rty in rights_all:
                                    if rty == w2:
                                        out.append((GateApp(decl.name, (ls, rs)), decl.type))
                    # let-pair / let-box with scrutinee on the left split.
                    x, y = f"u{binders}", f"u{binders + 1}"
                    for ls, lty in lefts:
                        if isinstance(lty, Tensor):
                            body_avail = right_set | {(x, lty.left), (y, lty.right)}
                            for bs, bty in enum(right_size, body_avail, binders + 2):
                                if x in free_vars(bs) and y in free_vars(bs):
                                    out.append((LetPair(x, y, ls, bs), bty))
                        if isinstance(lty, Box):
                            body_avail = right_set | {(x, lty.body)}
                            for bs, bty in enum(right_size, body_avail, binders + 1):
                                if x in free_vars(bs):
                                    out.append((LetBox(lty.grade, x, ls, bs), bty))
        memo[key] = out
        return out

    sig_items = sorted(signature.items())
    results = []
    for size in range(1, max_size + 1):
        for r in range(len(sig_items) + 1):
            for used in itertools.combinations(sig_items, r):
                for term, _ty in enum(size, frozenset(used), 0):
                    try:
                        results.append((term, infer(term, dict(signature), chip)))
                    except TypingError:
                        continue
    return results
