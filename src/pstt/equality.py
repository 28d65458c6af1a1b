"""Judgemental equality decided by rewriting to a canonical form.

Orientation: beta rules and the pair/box eta rules contract; the commuting
conversions hoist every let-binder outward (out of gate arguments, pair
components, boxes and scrutinee positions) until all lets form one prefix,
which is then sorted in one pass by the printed scrutinee, keeping every
let below the lets it depends on.  A sort key holds the keys of those lets
by reference, so keys stay linear in the spine's size.  The sort ends
normalization: it only permutes independent lets, and no rule's
applicability depends on their order.

The unit eta rule is oriented as an *expansion* ``z -> let * = z in *`` on
unit-typed variables.  Contraction is grade-sensitive (the let's context
shift must re-solve to zero) and chooses among several unit positions,
which destroys confluence; expansion is valid at every variable occurrence
(the variable axiom pins the grade to 0) and parks all unit material in
scrutinee position, where sorting canonicalizes it.  The variables' types
come from the checker's derivation of the judgement being normalized, read
once before the first step.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Container, Iterator

from . import schedule, typecheck
from .chip import ChipSpec
from .surface import term_parts
from .syntax import (
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
    TermExpr,
    TypeExpr,
    Unit,
    Var,
    alpha_eq,
    binders,
    children,
    free_vars,  # unused: bench/tracer.py counts calls to it through this module
    freshen_binders,
    plug,
    rebuild,
    subst_parallel,
    substitute,
)
from .typecheck import TypingError

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


# ------------------------------------------------------------ single steps

_KIND = {LetStar: "unit", LetPair: "pair", LetBox: "box"}


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


def _lift(outer: TermExpr, i: int) -> tuple[str, TermExpr]:
    """Hoist the let that is child ``i`` of ``outer`` above ``outer``.

    ``normalize`` rewrites a checked, freshened term: it is linear and every
    binder differs from every other name in it, so no sibling of the let
    uses one of its binders and the hoist captures nothing.
    """
    kids = list(children(outer))
    inner = kids[i]
    s, kids[i] = children(inner)
    if type(outer) in _KIND:
        pos = f"{_KIND[type(outer)]}-scrutinee"
    else:
        pos = {GateApp: "gate", BoxIntro: "box", Pair: "pair-right" if i else "pair-left"}[type(outer)]
    return f"hoist-{_KIND[type(inner)]}-from-{pos}", rebuild(inner, (s, rebuild(outer, kids)))


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


def _spine_keys(lets: list[TermExpr]) -> tuple[list[tuple], list[set[int]]]:
    """Alpha-stable sort keys for a let prefix, and the lets each one uses.

    A key is a tuple of text pieces with, between them, the keys of the
    earlier spine lets whose binders the scrutinee uses, held by reference:
    ``(prefix + t0 + "<", K_a, f"#{slot}>" + t1 + ...)``.  Joined up, it is
    the scrutinee with each such binder printed as its owner's key and slot,
    so renaming binders cannot change the ordering.  Tuple order is the
    joined texts' order: ``<``, ``#`` and ``>`` appear only as delimiters; a
    piece before a reference ends in ``<``, so it is never a proper prefix
    of the piece it meets; and where one printed let-free scrutinee is a
    proper prefix of another, the next character (an identifier character,
    ``(`` or ``[``) is above ``#``.  Each scrutinee is printed once over
    ``term_parts``, with no scopes, so every binder must differ from every
    other binder and from every name in a scrutinee at or above it
    (``freshen_binders`` makes it so, and on a checked term no rule copies
    or captures a binder; this raises AssertionError if one did); then any
    order that respects the dependencies rebuilds without capture.
    """
    owner: dict[str, tuple[int, int]] = {}
    outer: set[str] = set()  # names in scrutinees that no spine let binds
    keys: list[tuple] = []
    deps: list[set[int]] = []
    for i, node in enumerate(lets):
        pieces, used, stack = [], set(), [node.scrutinee]
        text = [f"box[{node.grade}]:" if type(node) is LetBox else f"{_KIND[type(node)]}:"]
        while stack:
            item = stack.pop()
            if type(item) is str:
                text.append(item)
            elif type(item) is not Var:
                for b in binders(item):  # a let in the scrutinee
                    if b in owner:
                        raise AssertionError(f"spine binder {b!r} is not fresh")
                stack += term_parts(item)
            elif item.name in owner:
                j, slot = owner[item.name]
                pieces += ("".join(text) + "<", keys[j])
                text = [f"#{slot}>"]
                used.add(j)
            else:
                text.append(item.name)
                outer.add(item.name)
        keys.append((*pieces, "".join(text)))
        deps.append(used)
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


def _repacks(node: TermExpr, t: TermExpr, parked: Container[str] = ()) -> bool:
    """Whether ``t`` is pair or box let ``node``'s ``(x, y)`` / ``box[d] x``, ``*`` if parked."""
    slots = [Star() if b in parked else Var(b) for b in binders(node)]
    return t == (Pair(*slots) if type(node) is LetPair else BoxIntro(node.grade, *slots))


def _census(lets: list[TermExpr], core: TermExpr, top: int) -> dict[str, list[tuple[Place | None, int]]]:
    """Below spine let ``top``: the uses of the names bound from ``top`` on.

    One walk of each later scrutinee and of the core.  Spine let ``j`` owns
    its scrutinee, and ``len(lets)`` owns the core.  Each name maps to
    ``(place within the owner's part, owner)`` for each of its occurrences.
    """
    uses: dict[str, list[tuple[Place | None, int]]] = {b: [] for n in lets[top:] for b in binders(n)}
    for owner in range(top + 1, len(lets) + 1):
        part = core if owner == len(lets) else lets[owner].scrutinee
        stack: list[tuple[TermExpr, Place | None]] = [(part, None)]
        while stack:
            node, up = stack.pop()
            if type(node) is Var:
                if node.name in uses:
                    uses[node.name].append((up, owner))
                continue
            for i, kid in enumerate(children(node)):
                stack.append((kid, (node, i, up)))
    return uses


def _eta_spine(t: TermExpr, recheck: Callable[[TermExpr], bool]) -> tuple[str, TermExpr] | None:
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

    Both read the uses below L off one census of the spine below its first
    pair or box let, taken when the scan meets that let.  Binders are fresh,
    so no name is bound twice and every use below L of L's binders is L's.
    """
    lets, core = _spine(t)
    uses = None
    for i, node in enumerate(lets):
        if type(node) is LetStar:
            continue
        if uses is None:
            uses = _census(lets, core, i)
        names = binders(node)
        below = [[use for use in uses[b] if use[1] > i] for b in names]
        rule = f"eta-{_KIND[type(node)]}"
        scrut = node.scrutinee

        # Deep exact repack: each binder's one use below is a child of the pattern.
        if all(len(found) == 1 for found in below):
            up, owner = below[0][0]
            if up is not None and _repacks(node, up[0]):
                hole = plug(scrut, up[2])
                if owner < len(lets):
                    lets[owner] = rebuild(lets[owner], (hole, lets[owner].body))
                    hole = core
                return rule, _wrap(lets[:i] + lets[i + 1 :], hole)

        # Parked repack at the core: each use in a scrutinee is a whole
        # ``let * = x`` scrutinee, and the core is the pattern with ``*``
        # in the parked slots.
        held = [(b, up, j) for b, found in zip(names, below) for up, j in found if j < len(lets)]
        parked = {b: j for b, up, j in held if up is None and type(lets[j]) is LetStar}
        if held and len(parked) == len(held) and _repacks(node, core, parked):
            drop = {i, *parked.values()}
            new = _wrap([keep for j, keep in enumerate(lets) if j not in drop], scrut)
            if recheck(new):
                return rule, new
    return None


# ------------------------------------------------------------- normalize


def _unit_vars(d: typecheck.Derivation, t: TermExpr) -> set[str]:
    """The names of ``t``'s unit-typed variables, read off ``d``.

    ``t`` is ``d``'s term with its binders renamed (``freshen_binders``).
    A derivation's premises follow the term's children, so each variable
    of ``t`` meets the var node that types it, renamed binders too.
    """
    units: set[str] = set()
    stack = [(d, t)]
    while stack:
        d, t = stack.pop()
        if d.rule == "var":
            if type(d.type) is Unit:
                units.add(t.name)
        else:
            stack.extend(zip(d.premises, children(t)))
    return units


def _find_rewrite(t: TermExpr, units: set[str], recheck: Callable[[TermExpr], bool]) -> RewriteStep | None:
    """The next rewrite: the outermost-leftmost hit of the first rule family that has one.

    One pre-order walk returns at the first beta redex and notes on its way
    the first eta redex, the first variable named in ``units`` that is not
    already a let-* scrutinee, and the first hoist site with its let
    child's index, for use when it finds no beta redex.
    """
    eta = unit = site = None
    stack: list[tuple[TermExpr, Place | None]] = [(t, None)]
    while stack:
        node, up = stack.pop()
        if type(node) is Var:
            parked = up is not None and up[1] == 0 and type(up[0]) is LetStar  # let * = z in ...
            if unit is None and node.name in units and not parked:
                unit = node, up
            continue
        kids = children(node)
        if type(node) in _KIND:
            hit = _beta(node)
            if hit is not None:
                return RewriteStep(hit[0], plug(hit[1], up))
            if eta is None and (hit := _eta(node)) is not None:
                eta = hit, up
            if site is None and type(kids[0]) in _KIND:  # a let hoists from its scrutinee only
                site = node, 0, up
        elif site is None:
            site = next(((node, i, up) for i, k in enumerate(kids) if type(k) in _KIND), None)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], (node, i, up)))
    if eta is not None:
        (rule, new), up = eta
        return RewriteStep(rule, plug(new, up))
    hit = _eta_spine(t, recheck)
    if hit is not None:
        return RewriteStep(*hit)
    if unit is not None:
        var, up = unit
        return RewriteStep("eta-unit", plug(LetStar(var, Star()), up))
    if site is not None:
        node, i, up = site
        rule, new = _lift(node, i)
        return RewriteStep(rule, plug(new, up))
    return None


def normalize(j: Judgement, chip: ChipSpec, *, budget: int = DEFAULT_BUDGET) -> NormalForm:
    """Rewrite ``j``'s term to the canonical form; raises BudgetExceeded if it runs long.

    ``normalize`` takes a checked judgement: ``j`` is checked on ``chip``
    (raising TypingError if it does not check), so its term is linear.  The
    grade-aware rules use the check: the unit-typed variables are read off
    the checker's derivation, which ``check`` keeps on the judgement, and a
    parked eta contraction is kept only if the contracted judgement checks.

    ``budget`` bounds the rewrites: one beta, eta or hoist step spends one,
    and so does one pass that sorts the let prefix, however many lets it
    moves.

    A sort pass is the last step.  It runs only when no other rule applies
    and only permutes independent lets: scrutinees, the core and each let's
    dependants below it stay as they were, binders are fresh, and keys are
    alpha-stable with ties kept in order, so nothing applies after it.
    """
    if not isinstance(j, Judgement):
        raise TypeError(f"normalize takes a Judgement, not {type(j).__name__}")
    derivation = typecheck.check(j, chip)
    t = freshen_binders(j.term)
    # Binders stay fresh and no rule renames one, so each name keeps its type.
    units = _unit_vars(derivation, t)

    def recheck(t2: TermExpr) -> bool:
        try:
            typecheck.check(Judgement(j.ctx, t2, j.type), chip)
            return True
        except TypingError:
            return False

    steps: list[RewriteStep | SortPass] = []
    while True:
        # The let prefix is sorted only when no other rule applies.
        found = _find_rewrite(t, units, recheck) or _sort_pass(t)
        if found is None:
            return NormalForm(t, tuple(steps))
        if len(steps) >= budget:
            raise BudgetExceeded(t, budget)
        steps.append(found)
        t = found.result
        if type(found) is SortPass:  # a sorted prefix is normal (see above)
            return NormalForm(t, tuple(steps))


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
    first differing sample.  ``forms`` holds the two sides' normal forms
    when both normalizations finished.
    """

    kind: EqKind
    forms: tuple[NormalForm, NormalForm] | None = None
    witness: object = None
    reason: str = ""

    @property
    def is_equal(self) -> bool:
        return self.kind is EqKind.EQUAL

    @property
    def trace(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Each side's rule names, listed only when read."""
        if self.forms is None:
            return (), ()
        return self.forms[0].rules, self.forms[1].rules


def judgementally_equal(
    ctx: Context,
    s: TermExpr,
    t: TermExpr,
    type_: TypeExpr,
    chip: ChipSpec,
    *,
    budget: int = DEFAULT_BUDGET,
) -> EqVerdict:
    """Decide ``ctx |- s = t : type``.

    Both sides are checked first, and a side that does not check raises
    TypingError.  Their derivations then serve ``normalize`` and ``emit``.
    Alpha-equal normal forms answer EQUAL.  Otherwise both sides are
    emitted: they share the context and the type, hence every channel's
    interval, so different channels refute the equation.  A side with no
    schedule on ``chip`` answers UNKNOWN (semantics unavailable).
    """
    js, jt = Judgement(ctx, s, type_), Judgement(ctx, t, type_)
    typecheck.check(js, chip)
    typecheck.check(jt, chip)

    try:
        nf_s = normalize(js, chip, budget=budget)
        nf_t = normalize(jt, chip, budget=budget)
    except BudgetExceeded:
        return EqVerdict(EqKind.UNKNOWN, reason="budget exhausted")

    forms = (nf_s, nf_t)
    if alpha_eq(nf_s.term, nf_t.term):
        return EqVerdict(EqKind.EQUAL, forms)

    try:
        f = schedule.emit(js, chip)
        g = schedule.emit(jt, chip)
    except schedule.Unschedulable:
        return EqVerdict(EqKind.UNKNOWN, forms, reason="semantics unavailable")
    if f.channels != g.channels:
        return EqVerdict(EqKind.NOT_EQUAL_SEMANTICS, forms, witness=(f, g))
    return EqVerdict(
        EqKind.UNKNOWN, forms, reason="normal forms differ, semantics agree"
    )
