"""Linear type checking with grade arithmetic.

Grades of free variables are synthesised as affine expressions
``constant + sum(slack variables)``: every unit-elimination node contributes one
slack because its typing rule shifts the scrutinee's context by an arbitrary
integer.  One pass builds the derivation and collects the grade equations;
checking a judgement then solves them against the declared grades, and
inference reports the slack-zero instance.  Only a let's grades can depend
on a slack: those lets are given their grades once the solver is done.

Inside the pass a node's offsets are a pair ``(map, base)``: variable ``x``
is at ``map[x].shift(base)``.  A gate or a box moves every free variable
by the same amount, so it moves only the base, in O(1); a merge rebases
only the entries it moves, and a let reads its binders through the base.
The root's pair is returned as it is: ``check`` reads it through its base.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from .chip import ChipSpec
from .surface import print_term, print_type
from .syntax import (
    Box,
    BoxIntro,
    Context,
    CtxEntry,
    GateApp,
    Judgement,
    LETS,
    LetPair,
    LetStar,
    Pair,
    Star,
    Tensor,
    TermExpr,
    TypeExpr,
    Unit,
    Var,
    binders,
    children,
    free_occurrences,
)


class ErrorKind(enum.Enum):
    UNBOUND_VARIABLE = "unbound variable"
    DUPLICATE_USE = "duplicate use"
    UNUSED_CONTEXT_ENTRY = "unused context entry"
    GRADE_MISMATCH = "grade mismatch"
    TYPE_MISMATCH = "type mismatch"
    GATE_MISMATCH = "gate arity/qubit mismatch"
    UNKNOWN_GATE = "unknown gate"


class TypingError(Exception):
    def __init__(
        self,
        kind: ErrorKind,
        message: str,
        *,
        location: TermExpr | None = None,
        expected: object = None,
        actual: object = None,
    ):
        at = f" at `{print_term(location)}`" if location is not None else ""
        super().__init__(f"{kind.value}: {message}{at}")
        self.kind = kind
        self.location = location
        self.expected = expected
        self.actual = actual


class SolverStuck(Exception):
    """Internal invariant breach: a grade equation resisted elimination."""


# ------------------------------------------------------- affine arithmetic


# ``object.__setattr__`` bound once.  The frozen dataclasses that synthesis
# builds in bulk, ``Affine`` and ``Derivation``, write their fields with it
# in a written-out ``__init__``; the generated one looks it up per field.
_set = object.__setattr__


@dataclass(frozen=True)
class Affine:
    """Integer-affine expression: ``const + sum(coeff * slack)``.

    Frozen; its ``__init__`` is written out (see ``_set``).
    """

    const: int
    coeffs: tuple[tuple[int, int], ...] = ()  # (slack id, nonzero coeff), sorted

    def __init__(self, const, coeffs=()):
        _set(self, "const", const)
        _set(self, "coeffs", coeffs)

    @staticmethod
    def of(const: int) -> "Affine":
        return Affine(const)

    @staticmethod
    def slack(sid: int) -> "Affine":
        return Affine(0, ((sid, 1),))

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def shift(self, d: int) -> "Affine":
        return Affine(self.const + d, self.coeffs)

    def add(self, other: "Affine") -> "Affine":
        if not other.coeffs:
            return Affine(self.const + other.const, self.coeffs)
        if not self.coeffs:
            return Affine(self.const + other.const, other.coeffs)
        out = dict(self.coeffs)
        for sid, c in other.coeffs:
            out[sid] = out.get(sid, 0) + c
        coeffs = tuple(sorted((s, c) for s, c in out.items() if c != 0))
        return Affine(self.const + other.const, coeffs)

    def sub(self, other: "Affine") -> "Affine":
        return self.add(other.scale(-1))

    def scale(self, k: int) -> "Affine":
        if k == 0:
            return Affine(0)
        return Affine(self.const * k, tuple((s, c * k) for s, c in self.coeffs))

    def eval(self, assignment: dict[int, int]) -> int:
        return self.const + sum(c * assignment.get(s, 0) for s, c in self.coeffs)

    def render(self) -> str:
        parts = [str(self.const)] if self.const or not self.coeffs else []
        for sid, c in self.coeffs:
            sign = "+" if c > 0 else "-"
            mag = "" if abs(c) == 1 else str(abs(c))
            parts.append(f"{sign} {mag}s{sid}")
        return " ".join(parts).lstrip("+ ").strip() or "0"


class _Solver:
    """Incremental integer Gaussian elimination over slack variables."""

    def __init__(self) -> None:
        self.solution: dict[int, Affine] = {}
        self._users: dict[int, set[int]] = {}  # free slack -> solved slacks using it
        self._next = 0

    def fresh_slack(self) -> int:
        self._next += 1
        return self._next

    def resolve(self, a: Affine) -> Affine:
        if len(a.coeffs) == 1:
            ((sid, c),) = a.coeffs
            sol = self.solution.get(sid)
            return a if sol is None else sol.scale(c).shift(a.const)
        if all(sid not in self.solution for sid, _ in a.coeffs):
            return a  # no solved slack: already resolved
        out = Affine(a.const)
        for sid, c in a.coeffs:
            sol = self.solution.get(sid)
            if sol is None:
                out = out.add(Affine(0, ((sid, c),)))
            else:
                out = out.add(sol.scale(c))
        return out

    def equate(self, a: Affine, b: Affine) -> bool:
        """Require a == b.  Returns False on contradiction."""
        a, b = self.resolve(a), self.resolve(b)
        if len(a.coeffs) + len(b.coeffs) == 1:
            # A constant against one unsolved slack: ``k * s + c == n`` for ``k`` in {1, -1}.
            if a.coeffs:
                a, b = b, a
            ((sid, k),) = b.coeffs
            if k == 1 or k == -1:
                self.solve(sid, Affine(k * (a.const - b.const)))
                return True
        diff = a.sub(b)
        if diff.is_const:
            return diff.const == 0
        g = 0
        for _, c in diff.coeffs:
            g = gcd(g, abs(c))
        if g > 1:
            if diff.const % g:
                return False
            diff = Affine(diff.const // g, tuple((s, c // g) for s, c in diff.coeffs))
        pivot = next(((s, c) for s, c in diff.coeffs if abs(c) == 1), None)
        if pivot is None:
            raise SolverStuck(f"no unit coefficient in {diff.render()}")
        sid, c = pivot
        rest = Affine(diff.const, tuple((s, k) for s, k in diff.coeffs if s != sid))
        self.solve(sid, rest.scale(-c))  # c in {1,-1}: sid = -rest/c
        return True

    def solve(self, sid: int, value: Affine) -> None:
        """Record ``sid = value`` and substitute it where ``sid`` was used."""
        self.solution[sid] = value
        users = self._users.pop(sid, set())
        for k in users:
            self.solution[k] = self.resolve(self.solution[k])
        for s, _ in value.coeffs:
            self._users.setdefault(s, set()).update(users | {sid})


# ------------------------------------------------------------- synthesis


_ZERO = Affine(0)


class _Synth:
    def __init__(self, chip: ChipSpec):
        self.chip = chip
        self.solver = _Solver()
        self.slacks: list[int] = []
        self.unsettled: list[Derivation] = []  # lets whose params still hold an Affine

    def merge(self, a: tuple, b: tuple, loc: TermExpr) -> tuple:
        """Union of two ``(map, base)`` offsets, made by moving the smaller map
        into the larger; the moved entries are rebased onto the larger's base."""
        (small, small_base), (large, large_base) = a, b
        if len(small) > len(large):
            small, small_base, large, large_base = large, large_base, small, small_base
        if not large.keys().isdisjoint(small):
            # Name the variable whose second use comes first in the term.
            seen: set[str] = set()
            for name in free_occurrences(loc):
                if name in seen:
                    break
                seen.add(name)
            raise TypingError(
                ErrorKind.DUPLICATE_USE,
                f"variable {name!r} is used more than once",
                location=loc,
            )
        if small_base == large_base:
            large.update(small)
        else:
            delta = small_base - large_base
            for name, offset in small.items():
                large[name] = offset.shift(delta)
        return large, large_base

    def visit(self, t: TermExpr, env: dict[str, TypeExpr]) -> tuple[Derivation, tuple]:
        """Synthesise ``t``'s derivation and its free variables' ``(map, base)`` offsets.

        An explicit stack holds the unfinished nodes.  Checks run in term
        order: a gate's name and arity before its arguments, a scrutinee's
        type before the body.  ``env`` gains a let's binders once its
        scrutinee is typed and loses them when the let is done.  A node's
        offsets are a pair ``(map, base)``, variable ``x`` being at
        ``map[x].shift(base)``; the map may be handed on to the parent and
        grown in place.
        """
        frames: list[list] = []  # [term, kids, their derivations and offsets, gate or shadowed env]
        while True:
            cls = type(t)
            if cls is Var:
                ty = env.get(t.name)
                if ty is None:
                    raise TypingError(
                        ErrorKind.UNBOUND_VARIABLE, f"variable {t.name!r} is not in scope", location=t
                    )
                d, offsets = Derivation(t, ty, "var", (), ()), ({t.name: _ZERO}, 0)
            elif cls is Star:
                d, offsets = Derivation(t, Unit(), "unit-intro", (), ()), ({}, 0)
            else:
                extra = None
                if cls is GateApp:
                    extra = self.chip.find_gate(t.gate)
                    if extra is None:
                        raise TypingError(
                            ErrorKind.UNKNOWN_GATE, f"gate {t.gate!r} is not declared", location=t
                        )
                    arity = len(extra.qubits)
                    if len(t.args) != arity:
                        raise TypingError(
                            ErrorKind.GATE_MISMATCH,
                            f"gate {t.gate!r} takes {arity} argument(s), got {len(t.args)}",
                            location=t,
                        )
                kids = children(t)
                frames.append([t, kids, [], [], extra])
                t = kids[0]
                continue
            # Hand the finished node to its parent until one needs another child.
            while frames:
                parent, kids, done, offs, extra = frame = frames[-1]
                done.append(d)
                offs.append(offsets)
                if len(done) < len(kids):
                    if len(done) == 1 and isinstance(parent, LETS):
                        frame[4] = self.open_scope(parent, d.type, env)
                    t = kids[len(done)]
                    break
                frames.pop()
                d, offsets = self.finish(parent, done, offs, extra, env)
            else:
                return d, offsets

    def open_scope(self, t: TermExpr, ty: TypeExpr, env: dict[str, TypeExpr]) -> list:
        """Check a let's scrutinee type ``ty`` and bind its binders in ``env``.

        Returns the entries the binders shadow, for ``finish`` to put back.
        """
        if type(t) is LetStar:
            if ty != Unit():
                raise TypingError(
                    ErrorKind.TYPE_MISMATCH,
                    f"scrutinee of let * must have type 1, got {print_type(ty)}",
                    location=t,
                    expected=Unit(),
                    actual=ty,
                )
            return []
        if type(t) is LetPair:
            if not isinstance(ty, Tensor):
                raise TypingError(
                    ErrorKind.TYPE_MISMATCH,
                    f"scrutinee of let (x, y) must have a tensor type, got {print_type(ty)}",
                    location=t,
                    actual=ty,
                )
            bound = ((t.x, ty.left), (t.y, ty.right))
        else:
            if not isinstance(ty, Box) or ty.grade != t.grade:
                raise TypingError(
                    ErrorKind.TYPE_MISMATCH,
                    f"scrutinee of let box[{t.grade}] must have type [{t.grade}] A,"
                    f" got {print_type(ty)}",
                    location=t,
                    expected=Box(t.grade, Unit()),
                    actual=ty,
                )
            bound = ((t.x, ty.body),)
        shadowed = [(x, env.get(x)) for x, _ in bound]
        env.update(bound)
        return shadowed

    def finish(self, t: TermExpr, ds: list[Derivation], offs: list, extra, env: dict) -> tuple:
        """The derivation and ``(map, base)`` offsets of ``t`` from its children's."""
        cls = type(t)
        if cls is GateApp:
            decl = extra
            for d, q, arg in zip(ds, decl.qubits, decl.arg_types):
                if d.type != arg:
                    raise TypingError(
                        ErrorKind.GATE_MISMATCH,
                        f"gate {t.gate!r} expects an argument of type {q},"
                        f" got {print_type(d.type)}",
                        location=t,
                        expected=arg,
                        actual=d.type,
                    )
            offsets = offs[0]
            for o in offs[1:]:
                offsets = self.merge(offsets, o, t)
            m, base = offsets
            d = Derivation(t, decl.type, "gate", (decl.duration,), tuple(ds))
            return d, (m, base - decl.duration)

        if cls is Pair:
            dl, dr = ds
            offsets = self.merge(offs[0], offs[1], t)
            return Derivation(t, Tensor(dl.type, dr.type), "pair-intro", (), (dl, dr)), offsets

        if cls is BoxIntro:
            (db,) = ds
            m, base = offs[0]
            d = Derivation(t, Box(t.grade, db.type), "box-intro", (t.grade,), (db,))
            return d, (m, base + t.grade)

        dsc, db = ds
        (osc, osc_base), (ob, ob_base) = offs
        for x, old in extra:
            if old is None:
                del env[x]
            else:
                env[x] = old

        if cls is LetStar:
            sid = self.solver.fresh_slack()
            self.slacks.append(sid)
            slack = Affine.slack(sid)
            shifted = {name: a.add(slack) for name, a in osc.items()}
            offsets = self.merge((shifted, osc_base), offs[1], t)
            return self.let(t, db.type, "unit-elim", (slack,), (dsc, db)), offsets

        names = binders(t)
        for binder in names:
            if binder not in ob:
                raise TypingError(
                    ErrorKind.UNUSED_CONTEXT_ENTRY,
                    f"binder {binder!r} is not used in the body",
                    location=t,
                )
        if cls is LetPair:
            x, y = names
            ex, ey = ob.pop(x).shift(ob_base), ob.pop(y).shift(ob_base)
            if not self.solver.equate(ex, ey):
                raise TypingError(
                    ErrorKind.GRADE_MISMATCH,
                    f"pair binders {x!r} and {y!r} are used at different grades"
                    f" ({self.solver.resolve(ex).render()} vs"
                    f" {self.solver.resolve(ey).render()})",
                    location=t,
                )
            e = self.solver.resolve(ex)
            shifted = {n: a.add(e) for n, a in osc.items()}
            offsets = self.merge((shifted, osc_base), offs[1], t)
            return self.let(t, db.type, "pair-elim", (e,), (dsc, db)), offsets

        e = self.solver.resolve(ob.pop(t.x).shift(ob_base))
        by = e.shift(-t.grade)
        shifted = {n: a.add(by) for n, a in osc.items()}
        offsets = self.merge((shifted, osc_base), offs[1], t)
        return self.let(t, db.type, "box-elim", (t.grade, e), (dsc, db)), offsets

    def let(self, t: TermExpr, ty: TypeExpr, rule: str, params: tuple, premises: tuple):
        """A let's derivation: constant grades become ints, the rest wait for ``settle``."""
        params = tuple(p.const if type(p) is Affine and p.is_const else p for p in params)
        d = Derivation(t, ty, rule, params, premises)
        if any(type(p) is Affine for p in params):
            self.unsettled.append(d)
        return d

    def settle(self, assignment: dict[int, int]) -> None:
        """Give the recorded lets their grades, free slacks at ``assignment`` or 0.

        The derivation is not visible to anyone yet, so params are written in place.
        """
        resolve = self.solver.resolve
        for d in self.unsettled:
            params = tuple(p if type(p) is int else resolve(p).eval(assignment) for p in d.params)
            _set(d, "params", params)


def _synth(term: TermExpr, env: dict[str, TypeExpr], chip: ChipSpec) -> tuple:
    """``term``'s derivation with its lets unsettled, its ``(map, base)`` offsets,
    and the synthesiser."""
    synth = _Synth(chip)
    derivation, offsets = synth.visit(term, dict(env))
    return derivation, offsets, synth


# ------------------------------------------------------------ derivations



@dataclass(frozen=True)
class Derivation:
    """Checked derivation node: term, type, rule and solved grades.

    ``params`` holds the rule's grade data: unit-elim ``(d,)``, gate
    ``(duration,)``, pair-elim ``(d,)``, box-intro ``(d,)``, box-elim
    ``(d, e)``; empty otherwise.  ``ctx``, the node's context, is derived
    from these when read.  Synthesis builds the whole tree in one pass;
    a let's grades, which may depend on slacks, are settled once the grade
    equations are solved, before ``check`` or ``infer`` returns.

    ``__init__`` is written out because synthesis builds one node per
    subterm: it calls ``object.__setattr__`` bound once (``_set``), where
    the generated frozen ``__init__`` looks it up again for every field.
    It does not write into ``self.__dict__``: that would give each node a
    dict of its own, a second object for the collector to track.
    Instances stay frozen: assigning a field raises ``FrozenInstanceError``,
    and ``settle`` writes a let's params with ``_set``.
    """

    term: TermExpr
    type: TypeExpr
    rule: str
    params: tuple[int, ...]
    premises: tuple["Derivation", ...]

    def __init__(self, term, type, rule, params, premises):
        _set(self, "term", term)
        _set(self, "type", type)
        _set(self, "rule", rule)
        _set(self, "params", params)
        _set(self, "premises", premises)

    @property
    def ctx(self) -> Context:
        """The subtree's free variables, left to right (see ``_free_uses``)."""
        return tuple(CtxEntry(*use) for use in _free_uses(self))


def premise_shifts(d: Derivation) -> tuple[int, ...]:
    """How far after ``d``'s result each premise's result lies in time.

    A premise's context grades are its node's plus this shift, and a
    premise of a node finishing at ``o`` finishes at ``o`` plus it.
    """
    rule, params = d.rule, d.params
    if rule == "gate":
        return (-params[0],) * len(d.premises)
    if rule == "unit-elim" or rule == "pair-elim":
        return (params[0], 0)
    if rule == "box-elim":
        return (params[1] - params[0], 0)
    if rule == "box-intro":
        return (params[0],)
    if rule in ("pair-intro", "var", "unit-intro"):
        return (0,) * len(d.premises)
    raise ValueError(f"unknown derivation rule {rule!r}")


def _free_uses(root: Derivation) -> list[tuple[str, int, TypeExpr]]:
    """Name, grade and type of each free variable of ``root``, left to right:
    each is at the sum of the premise shifts on its path (``premise_shifts``).
    Names bound by a let inside ``root`` are dropped."""
    uses: list[tuple[str, int, TypeExpr]] = []
    bound: dict[str, int] = {}  # name -> lets binding it around the current node
    stack: list[tuple] = [(root, 0)]  # (node, grade), or (+1/-1, names) around a let body
    while stack:
        d, o = stack.pop()
        if type(d) is int:
            for x in o:
                bound[x] = bound.get(x, 0) + d
        elif d.rule == "var":
            if not bound.get(d.term.name):
                uses.append((d.term.name, o, d.type))
        else:
            shifts = premise_shifts(d)
            i = len(shifts) - 1  # premises are pushed last first, to be walked left to right
            if d.rule == "pair-elim" or d.rule == "box-elim":  # its binders scope over the body
                names = binders(d.term)
                stack += [(-1, names), (d.premises[1], o), (1, names)]
                i = 0
            while i >= 0:
                stack.append((d.premises[i], o + shifts[i]))
                i -= 1
    return uses


def check(j: Judgement, chip: ChipSpec) -> Derivation:
    """Decide derivability of the judgement; returns evidence or raises.

    A judgement keeps its evidence for the chip it was checked against: a
    later ``check`` of the same ``Judgement`` object with the same
    ``ChipSpec`` object returns that derivation without deciding again.
    Both are frozen, and checking reads no calibration, so the evidence
    cannot go stale; it lives as long as the judgement.  A failed check
    keeps nothing.  A judgement that ``infer`` returns keeps the derivation
    it was inferred with, for the chip it was inferred on.
    """
    memo = j.__dict__.get("_evidence")
    if memo is not None and memo[0] is chip:
        return memo[1]
    env = {e.name: e.type for e in j.ctx}
    if len(env) != len(j.ctx):
        raise TypingError(ErrorKind.DUPLICATE_USE, "context repeats a variable name")
    derivation, (offsets, base), synth = _synth(j.term, env, chip)

    if derivation.type != j.type:
        raise TypingError(
            ErrorKind.TYPE_MISMATCH,
            f"term has type {print_type(derivation.type)}, declared {print_type(j.type)}",
            location=j.term,
            expected=j.type,
            actual=derivation.type,
        )
    for entry in j.ctx:
        if entry.name not in offsets:
            raise TypingError(
                ErrorKind.UNUSED_CONTEXT_ENTRY,
                f"context variable {entry.name!r} does not occur in the term",
            )
    for entry in j.ctx:
        offset = offsets[entry.name]
        if not synth.solver.equate(Affine.of(entry.grade - base), offset):
            required = synth.solver.resolve(offset).shift(base)
            raise TypingError(
                ErrorKind.GRADE_MISMATCH,
                f"variable {entry.name!r} declared at grade {entry.grade},"
                f" term requires {required.render()}",
                expected=required.const if required.is_const else required.render(),
                actual=entry.grade,
            )

    synth.settle({})
    assert {(name, grade) for name, grade, _ in _free_uses(derivation)} == {
        (e.name, e.grade) for e in j.ctx
    }, "elaborated context disagrees with the declared one"
    j.__dict__["_evidence"] = (chip, derivation)
    return derivation


def infer(term: TermExpr, env: dict[str, TypeExpr], chip: ChipSpec) -> Judgement:
    """Infer a judgement for a bare term.

    Free slack variables are reported at 0: that instance is a reporting
    convention, not the only derivable context.  The judgement keeps its
    derivation as evidence for ``chip`` (see ``check``).
    """
    derivation, _, synth = _synth(term, env, chip)
    synth.settle({})
    judgement = Judgement(derivation.ctx, term, derivation.type)
    judgement.__dict__["_evidence"] = (chip, derivation)
    return judgement
