"""Judgemental equality decided by rewriting to a canonical form.

Orientation: beta rules and the pair/box eta rules contract; the commuting
conversions hoist every let-binder outward (out of gate arguments, pair
components, boxes and scrutinee positions) until all lets form one prefix,
which is then sorted in one pass by the printed scrutinee, keeping every
let below the lets it depends on.

The unit eta rule is oriented as an *expansion* ``z -> let * = z in *`` on
unit-typed variables.  Contraction is grade-sensitive (the let's context
shift must re-solve to zero) and chooses among several unit positions,
which destroys confluence; expansion is valid at every variable occurrence
(the variable axiom pins the grade to 0) and parks all unit material in
scrutinee position, where sorting canonicalizes it.  Typing the variables
requires the judgement's context, so bare-term normalization skips the
expansion and canonicalizes less.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

from . import schedule, typecheck
from .chip import ChipSpec
from .surface import print_term
from .syntax import (
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
    alpha_eq,
    binders,
    children,
    free_vars,
    fresh_name,
    freshen_binders,
    plug,
    positions,
    rebuild,
    subst_parallel,
    substitute,
)
from .typecheck import TypingError, synthesize

DEFAULT_BUDGET = 10_000

BETA_RULES = ("beta-unit", "beta-pair", "beta-box")
ETA_RULES = ("eta-unit", "eta-pair", "eta-box")
_KINDS = ("unit", "pair", "box")
HOIST_RULES = tuple(
    f"hoist-{k}-from-{pos}"
    for k in _KINDS
    for pos in ("gate", "pair-left", "pair-right", "box")
) + tuple(f"hoist-{k1}-from-{k2}-scrutinee" for k1 in _KINDS for k2 in _KINDS)
SWAP_RULES = tuple(f"swap-{k1}-{k2}" for k1 in _KINDS for k2 in _KINDS)
ALL_RULES = BETA_RULES + ETA_RULES + HOIST_RULES + SWAP_RULES


class BudgetExceeded(Exception):
    def __init__(self, partial: TermExpr, steps: int):
        super().__init__(f"normalization did not finish within {steps} steps")
        self.partial = partial
        self.steps = steps


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    result: TermExpr


@dataclass(frozen=True)
class NormalForm:
    """A normal form and the rewrites that reached it.

    ``steps`` keeps each sort pass as one record.  ``rules`` and ``trace``
    list its adjacent swaps one by one; ``trace`` builds the term after
    each swap only when it is first read.
    """

    term: TermExpr
    steps: tuple[RewriteStep | SortPass, ...]

    @cached_property
    def rules(self) -> tuple[str, ...]:
        out: list[str] = []
        for step in self.steps:
            if type(step) is RewriteStep:
                out.append(step.rule)
            else:
                out.extend(rule for rule, _ in step.swaps())
        return tuple(out)

    @cached_property
    def trace(self) -> tuple[RewriteStep, ...]:
        out: list[RewriteStep] = []
        for step in self.steps:
            if type(step) is RewriteStep:
                out.append(step)
            else:
                for rule, order in step.swaps():
                    out.append(RewriteStep(rule, _wrap([step.lets[i] for i in order], step.core)))
        return tuple(out)


# --------------------------------------------------------------- let spine

_KIND = {LetStar: "unit", LetPair: "pair", LetBox: "box"}


def _rename_binders(t: TermExpr, avoid: set[str]) -> TermExpr:
    """Alpha-rename a let node's binders away from ``avoid``."""
    names = binders(t)
    if avoid.isdisjoint(names):
        return t
    s, b = children(t)
    taken = set(avoid) | set(free_vars(b)) | set(names)
    ren: dict[str, TermExpr] = {}
    new = list(names)
    for i, x in enumerate(names):
        if x in avoid:
            nx = fresh_name(x, taken)
            taken.add(nx)
            ren[x] = Var(nx)
            new[i] = nx
    return rebuild(t, (s, subst_parallel(b, ren)), tuple(new))


# ------------------------------------------------------------ single steps


def _beta(t: TermExpr) -> tuple[str, TermExpr] | None:
    match t:
        case LetStar(Star(), body):
            return "beta-unit", body
        case LetPair(x, y, Pair(l, r), body):
            return "beta-pair", subst_parallel(body, {x: l, y: r})
        case LetBox(d, x, BoxIntro(d2, s), body) if d == d2:
            return "beta-box", substitute(body, x, s)
    return None


def _eta(t: TermExpr) -> tuple[str, TermExpr] | None:
    match t:
        case LetPair(x, y, s, Pair(Var(a), Var(b))) if a == x and b == y:
            return "eta-pair", s
        case LetBox(d, x, s, BoxIntro(d2, Var(a))) if d == d2 and a == x:
            return "eta-box", s
    return None


def _lift(inner: TermExpr, avoid: set[str], outer: TermExpr, i: int, pos: str) -> tuple[str, TermExpr]:
    """Hoist the let ``inner``, child ``i`` of ``outer``, above ``outer``."""
    inner = _rename_binders(inner, avoid)
    s, b = children(inner)
    kids = list(children(outer))
    kids[i] = b
    return f"hoist-{_KIND[type(inner)]}-from-{pos}", rebuild(inner, (s, rebuild(outer, kids)))


def _hoist(t: TermExpr) -> tuple[str, TermExpr] | None:
    match t:
        case Pair(inner, r) if type(inner) in _KIND:
            return _lift(inner, set(free_vars(r)), t, 0, "pair-left")
        case Pair(l, inner) if type(inner) in _KIND:
            return _lift(inner, set(free_vars(l)), t, 1, "pair-right")
        case GateApp(_, args):
            for i, a in enumerate(args):
                if type(a) in _KIND:
                    others: set[str] = set()
                    for j, other in enumerate(args):
                        if j != i:
                            others.update(free_vars(other))
                    return _lift(a, others, t, i, "gate")
        case BoxIntro(_, inner) if type(inner) in _KIND:
            return _lift(inner, set(), t, 0, "box")
        case LetStar(inner, u) | LetPair(_, _, inner, u) | LetBox(_, _, inner, u) if type(inner) in _KIND:
            return _lift(inner, set(free_vars(u)), t, 0, f"{_KIND[type(t)]}-scrutinee")
    return None


def _spine(t: TermExpr) -> tuple[list[TermExpr], TermExpr]:
    """Maximal chain of let nodes from the root, plus the core body."""
    lets: list[TermExpr] = []
    while type(t) in _KIND:
        lets.append(t)
        t = t.body
    return lets, t


def _wrap(lets: list[TermExpr], core: TermExpr) -> TermExpr:
    """``core`` under the given spine lets, the first outermost."""
    for node in reversed(lets):
        core = rebuild(node, (node.scrutinee, core))
    return core


def _spine_keys(lets: list[TermExpr]) -> tuple[list[str], list[set[int]]]:
    """Alpha-stable sort keys for a let prefix, and the lets each one uses.

    A scrutinee variable bound by an earlier spine let is rendered as a
    token built from that let's own key and the binder slot, so renaming
    binders cannot change the ordering.  Every binder must differ from
    every other binder and from every name free in a scrutinee at or above
    it (``freshen_binders`` makes it so and the rules keep it so); then any
    order that respects the dependencies rebuilds without capture.
    """
    owner: dict[str, tuple[int, int]] = {}
    outer: set[str] = set()  # free names of scrutinees that no spine let binds
    keys: list[str] = []
    deps: list[set[int]] = []
    for i, node in enumerate(lets):
        scrut = node.scrutinee
        used = []
        for b in free_vars(scrut):
            if b in owner:
                used.append(b)
            else:
                outer.add(b)
        ren = {b: Var(f"<{keys[owner[b][0]]}#{owner[b][1]}>") for b in used}
        rendered = print_term(subst_parallel(scrut, ren)) if ren else print_term(scrut)
        prefix = f"box[{node.grade}]:" if type(node) is LetBox else f"{_KIND[type(node)]}:"
        keys.append(prefix + rendered)
        deps.append({owner[b][0] for b in used})
        for slot, b in enumerate(binders(node)):
            if b in owner or b in outer:
                raise AssertionError(f"spine binder {b!r} is not fresh")
            owner[b] = (i, slot)
    return keys, deps


def _sorted_spine_order(lets: list[TermExpr]) -> list[int]:
    """Canonical order: the least topological order by (key, position).

    Kahn's algorithm with a heap; it picks what a greedy scan for the
    least ready let would pick.
    """
    keys, deps = _spine_keys(lets)
    users: list[list[int]] = [[] for _ in lets]
    for j, used in enumerate(deps):
        for i in used:
            users[i].append(j)
    waiting = [len(used) for used in deps]
    ready = [(keys[i], i) for i, w in enumerate(waiting) if not w]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for j in users[i]:
            waiting[j] -= 1
            if not waiting[j]:
                heapq.heappush(ready, (keys[j], j))
    return order


@dataclass(frozen=True)
class SortPass:
    """One sort of the let prefix into canonical order.

    It stands for the adjacent swaps that bubble each let, in canonical
    order, up to its place, which is what sorting one swap per step did.
    """

    lets: tuple[TermExpr, ...]
    core: TermExpr
    order: tuple[int, ...]
    result: TermExpr

    def swaps(self) -> Iterator[tuple[str, list[int]]]:
        """Each adjacent swap's rule, with the spine order just after it."""
        kinds = [_KINDS.index(_KIND[type(node)]) for node in self.lets]
        current = list(range(len(self.lets)))
        for place, want in enumerate(self.order):
            for k in range(current.index(want, place), place, -1):
                current[k - 1], current[k] = want, current[k - 1]
                yield SWAP_RULES[3 * kinds[current[k]] + kinds[want]], current


def _sort_pass(t: TermExpr) -> SortPass | None:
    """Sort the let prefix in one pass; None if it is already sorted."""
    lets, core = _spine(t)
    if len(lets) < 2:
        return None
    order = _sorted_spine_order(lets)
    if order == list(range(len(lets))):
        return None
    return SortPass(tuple(lets), core, tuple(order), _wrap([lets[i] for i in order], core))


def _count_pattern(t: TermExpr, pattern: TermExpr, names: set[str]) -> tuple[int, int]:
    """(pattern occurrences, stray occurrences of the names) in ``t``.

    Rebinding one of the names counts as a stray so the caller backs off;
    normalize works on freshened terms where this cannot happen.
    """
    hits = strays = 0
    cls = type(pattern)
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is cls and node == pattern:
            hits += 1
        elif type(node) is Var:
            strays += node.name in names
        else:
            if not names.isdisjoint(binders(node)):
                strays += 2
            stack.extend(children(node))
    return hits, strays


def _eta_spine(
    t: TermExpr, recheck: Callable[[TermExpr], bool] | None
) -> tuple[str, TermExpr] | None:
    """Pair/box eta across the let prefix.

    Two shapes are recognized for a prefix let ``L = let (x,y) = t in ...``
    (and the box analogue):

    * deep exact repack: the binders occur exactly once, together, as the
      literal repack pattern ``(x, y)`` / ``box[d] x`` anywhere below; the
      rewrite pushes L to that position (reverse commuting conversions) and
      contracts.  Valid unconditionally: the pattern pins the binder grades
      to each other / leaves the box binder grade free.
    * parked repack at the core: unit-typed binders may sit parked as
      ``let * = x in ...`` with ``*`` in their core slot.  Un-parking fixes
      the parking shifts to the slot's grade, so this form is taken only
      when the contracted term still checks (``recheck``).
    """
    lets, core = _spine(t)
    for i, node in enumerate(lets):
        if not isinstance(node, (LetPair, LetBox)):
            continue
        names = set(binders(node))
        scrut = node.scrutinee

        # Deep exact repack over the remainder of the term.
        match node:
            case LetPair(x, y, _, _):
                pattern: TermExpr = Pair(Var(x), Var(y))
                rule = "eta-pair"
            case LetBox(d, x, _, _):
                pattern = BoxIntro(d, Var(x))
                rule = "eta-box"
        remainder = node.body
        hits, strays = _count_pattern(remainder, pattern, names)
        if hits == 1 and strays == 0:
            # The pattern holds no subterm like itself, so its one hit is
            # also the first in pre-order.
            spot = next(up for sub, up in positions(remainder) if sub == pattern)
            return rule, _wrap(lets[:i], plug(scrut, spot))

        # Parked repack at the core position.
        if recheck is None:
            continue
        parked: dict[str, int] = {}
        blocked = False
        for j in range(i + 1, len(lets)):
            inner = lets[j]
            sc = inner.scrutinee
            if not names & set(free_vars(sc)):
                continue
            if (
                isinstance(inner, LetStar)
                and isinstance(sc, Var)
                and sc.name in names
                and sc.name not in parked
            ):
                parked[sc.name] = j
            else:
                blocked = True
                break
        if blocked or not parked:
            continue

        def slot_ok(slot: TermExpr, name: str) -> bool:
            if name in parked:
                return slot == Star()
            return slot == Var(name)

        match node, core:
            case (LetPair(x, y, _, _), Pair(cl, cr)) if slot_ok(cl, x) and slot_ok(cr, y):
                pass
            case (LetBox(d, x, _, _), BoxIntro(d2, inner_slot)) if d == d2 and slot_ok(
                inner_slot, x
            ):
                pass
            case _:
                continue
        drop = {i} | set(parked.values())
        new = _wrap([keep for j, keep in enumerate(lets) if j not in drop], scrut)
        if recheck(new):
            return rule, new
    return None


# -------------------------------------------------- unit-variable expansion


def _expand_unit_var(
    t: TermExpr, env: dict[str, TypeExpr], chip: ChipSpec
) -> TermExpr | None:
    """Expand the leftmost unit-typed variable not already a let-* scrutinee.

    The variable axiom types every variable at grade 0 in its own node, so
    this instance of the unit eta rule is valid in any enclosing judgement.
    A let's binders take their types from the checker's synthesis of the
    scrutinee, once the scrutinee holds no candidate.
    """
    # Entries are (subterm, env, place, False), or (let, env, place, True)
    # for a let whose body waits for the types of the let's binders.
    stack: list[tuple[TermExpr, dict[str, TypeExpr], Place | None, bool]] = [(t, env, None, False)]
    while stack:
        node, env, up, is_body = stack.pop()
        if is_body:  # node is the let; bind its binders, then visit its body
            try:
                sty = synthesize(node.scrutinee, env, chip).result_type
            except TypingError:
                sty = None
            if type(node) is LetPair and isinstance(sty, Tensor):
                env = {**env, node.x: sty.left, node.y: sty.right}
            elif type(node) is LetBox and isinstance(sty, Box):
                env = {**env, node.x: sty.body}
            stack.append((node.body, env, (node, 1, up), False))
            continue
        cls = type(node)
        if cls is Var:
            if env.get(node.name) == Unit():
                return plug(LetStar(node, Star()), up)
            continue
        kids = children(node)
        last = len(kids) - 1
        if binders(node):
            stack.append((node, env, up, True))
            last -= 1
        for i in range(last, -1, -1):
            # A variable directly in scrutinee position is already parked.
            if i == 0 and cls is LetStar and type(kids[0]) is Var:
                continue
            stack.append((kids[i], env, (node, i, up), False))
    return None


# ------------------------------------------------------------- normalize


def _find_rewrite(
    t: TermExpr,
    env: dict[str, TypeExpr] | None,
    chip: ChipSpec | None,
    recheck: Callable[[TermExpr], bool] | None,
) -> RewriteStep | None:
    """The next rewrite: the outermost-leftmost hit of the first rule family that has one."""
    spots = positions(t)
    for local in (_beta, _eta):
        for node, up in spots:
            hit = local(node)
            if hit is not None:
                return RewriteStep(hit[0], plug(hit[1], up))
    hit = _eta_spine(t, recheck)
    if hit is not None:
        return RewriteStep(*hit)
    if env is not None and chip is not None:
        expanded = _expand_unit_var(t, env, chip)
        if expanded is not None:
            return RewriteStep("eta-unit", expanded)
    for node, up in spots:
        hit = _hoist(node)
        if hit is not None:
            return RewriteStep(hit[0], plug(hit[1], up))
    return None


def normalize(
    term: TermExpr,
    *,
    budget: int = DEFAULT_BUDGET,
    context: Context | None = None,
    result_type: TypeExpr | None = None,
    chip: ChipSpec | None = None,
) -> NormalForm:
    """Rewrite to the canonical form; raises BudgetExceeded if it runs long.

    ``budget`` bounds the rewrites: one beta, eta or hoist step spends one,
    and so does one pass that sorts the let prefix, however many lets it
    moves.  Pass the judgement's context, result type and chip to enable
    the grade-aware rules (unit-variable expansion and parked eta
    contraction); without them those rules stay off and fewer equalities
    are recognized.
    """
    env = {e.name: e.type for e in context} if context is not None else None
    recheck = None
    if context is not None and result_type is not None and chip is not None:
        def recheck(t2: TermExpr) -> bool:
            try:
                typecheck.check(Judgement(context, t2, result_type), chip)
                return True
            except TypingError:
                return False

    def find_step(t: TermExpr) -> RewriteStep | SortPass | None:
        # The let prefix is sorted only when no other rule applies.
        return _find_rewrite(t, env, chip, recheck) or _sort_pass(t)

    t = freshen_binders(term)
    steps: list[RewriteStep | SortPass] = []
    for _ in range(budget):
        found = find_step(t)
        if found is None:
            return NormalForm(t, tuple(steps))
        steps.append(found)
        t = found.result
    if find_step(t) is None:
        return NormalForm(t, tuple(steps))
    raise BudgetExceeded(t, budget)


# ---------------------------------------------------------------- verdict


class EqKind(enum.Enum):
    EQUAL = "Equal"
    NOT_EQUAL_SEMANTICS = "NotEqualBySemantics"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class EqVerdict:
    """Outcome of an equality query.

    A normal-form mismatch alone never proves inequality (the oriented
    system is not known complete), so the engine reports semantically
    refuted pairs as NOT_EQUAL_SEMANTICS and everything else unresolved as
    UNKNOWN with a reason.  A refutation's ``witness`` is the two sides'
    emitted ``Schedule``s; their provenance locates the gates behind the
    first differing sample.
    """

    kind: EqKind
    trace: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())
    witness: object = None
    reason: str = ""

    @property
    def is_equal(self) -> bool:
        return self.kind is EqKind.EQUAL


def judgementally_equal(
    ctx: Context,
    s: TermExpr,
    t: TermExpr,
    type_: TypeExpr,
    chip: ChipSpec,
    *,
    budget: int = DEFAULT_BUDGET,
) -> EqVerdict:
    """Decide ``ctx |- s = t : type``; both sides must already check.

    Alpha-equal normal forms answer EQUAL.  Otherwise both sides are
    emitted: they share the context and the type, hence every channel's
    interval, so different channels refute the equation.  A side with no
    schedule on ``chip`` answers UNKNOWN (semantics unavailable).
    """
    js, jt = Judgement(ctx, s, type_), Judgement(ctx, t, type_)
    typecheck.check(js, chip)
    typecheck.check(jt, chip)

    try:
        nf_s = normalize(s, budget=budget, context=ctx, result_type=type_, chip=chip)
        nf_t = normalize(t, budget=budget, context=ctx, result_type=type_, chip=chip)
    except BudgetExceeded:
        return EqVerdict(EqKind.UNKNOWN, reason="budget exhausted")

    traces = (nf_s.rules, nf_t.rules)
    if alpha_eq(nf_s.term, nf_t.term):
        return EqVerdict(EqKind.EQUAL, trace=traces)

    try:
        f = schedule.emit(js, chip)
        g = schedule.emit(jt, chip)
    except schedule.Unschedulable:
        return EqVerdict(EqKind.UNKNOWN, trace=traces, reason="semantics unavailable")
    if f.channels != g.channels:
        return EqVerdict(EqKind.NOT_EQUAL_SEMANTICS, trace=traces, witness=(f, g))
    return EqVerdict(
        EqKind.UNKNOWN, trace=traces, reason="normal forms differ, semantics agree"
    )
