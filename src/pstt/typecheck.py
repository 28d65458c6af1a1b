"""Linear type checking with grade arithmetic.

Grades of free variables are synthesised as affine expressions
``rigid + sum(slack variables)``: every unit-elimination node contributes one
slack because its typing rule shifts the scrutinee's context by an arbitrary
integer.  Checking a judgement then solves the resulting linear system
against the declared grades; inference reports the slack-zero instance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .chip import ChipSpec, GateDecl
from .surface import print_term, print_type
from .syntax import (
    Box,
    BoxIntro,
    Context,
    CtxEntry,
    GateApp,
    Judgement,
    LetBox,
    LetPair,
    LetStar,
    Pair,
    Qubit,
    Star,
    Tensor,
    TermExpr,
    TypeExpr,
    Unit,
    Var,
    tensor_of,
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


@dataclass(frozen=True)
class Affine:
    """Integer-affine expression: ``const + sum(coeff * slack)``."""

    const: int
    coeffs: tuple[tuple[int, int], ...] = ()  # (slack id, nonzero coeff), sorted

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
        diff = self.resolve(a).sub(self.resolve(b))
        if diff.is_const:
            return diff.const == 0
        from math import gcd

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
        value = rest.scale(-c)  # c in {1,-1}: sid = -rest/c
        self.solution[sid] = value
        users = self._users.pop(sid, set())
        for k in users:
            self.solution[k] = self.resolve(self.solution[k])
        for s, _ in value.coeffs:
            self._users.setdefault(s, set()).update(users | {sid})
        return True


# ------------------------------------------------------------- synthesis


@dataclass
class _Node:
    """Per-subterm synthesis record mirroring the term tree."""

    term: TermExpr
    type: TypeExpr
    rule: str
    offsets: dict[str, Affine]
    var_types: dict[str, TypeExpr]
    params: tuple = ()
    children: list["_Node"] = field(default_factory=list)
    binders: tuple[str, ...] = ()


@dataclass(frozen=True)
class OffsetReport:
    """Result of synthesising a bare term.

    ``offsets`` maps each free variable to the affine expression its grade
    must satisfy; ``rigid`` is the constant part of that expression and
    ``slack_scopes`` lists, per slack variable, the free variables whose
    grade it shifts (empty for a slack over a closed scrutinee).
    """

    result_type: TypeExpr
    offsets: dict[str, Affine]
    slack_ids: tuple[int, ...]

    @property
    def rigid(self) -> dict[str, int]:
        return {name: a.const for name, a in self.offsets.items()}

    @property
    def slack_scopes(self) -> dict[int, frozenset[str]]:
        scopes: dict[int, set[str]] = {sid: set() for sid in self.slack_ids}
        for name, a in self.offsets.items():
            for sid, c in a.coeffs:
                if c != 0:
                    scopes.setdefault(sid, set()).add(name)
        return {sid: frozenset(vs) for sid, vs in scopes.items()}


class _Synth:
    def __init__(self, chip: ChipSpec):
        self.chip = chip
        self.solver = _Solver()
        self.slacks: list[int] = []

    def gate_decl(self, name: str, loc: TermExpr) -> GateDecl:
        decl = self.chip.find_gate(name)
        if decl is None:
            raise TypingError(ErrorKind.UNKNOWN_GATE, f"gate {name!r} is not declared", location=loc)
        return decl

    def merge(self, parts: list[dict[str, Affine]], loc: TermExpr) -> dict[str, Affine]:
        out: dict[str, Affine] = {}
        for part in parts:
            for name, a in part.items():
                if name in out:
                    raise TypingError(
                        ErrorKind.DUPLICATE_USE,
                        f"variable {name!r} is used more than once",
                        location=loc,
                    )
                out[name] = a
        return out

    def visit(self, t: TermExpr, env: dict[str, TypeExpr]) -> _Node:
        match t:
            case Var(name):
                ty = env.get(name)
                if ty is None:
                    raise TypingError(
                        ErrorKind.UNBOUND_VARIABLE, f"variable {name!r} is not in scope", location=t
                    )
                return _Node(t, ty, "var", {name: Affine.of(0)}, {name: ty})

            case Star():
                return _Node(t, Unit(), "unit-intro", {}, {})

            case LetStar(s, b):
                ns = self.visit(s, env)
                if ns.type != Unit():
                    raise TypingError(
                        ErrorKind.TYPE_MISMATCH,
                        f"scrutinee of let * must have type 1, got {print_type(ns.type)}",
                        location=t,
                        expected=Unit(),
                        actual=ns.type,
                    )
                nb = self.visit(b, env)
                sid = self.solver.fresh_slack()
                self.slacks.append(sid)
                slack = Affine.slack(sid)
                shifted = {name: a.add(slack) for name, a in ns.offsets.items()}
                offsets = self.merge([shifted, nb.offsets], t)
                var_types = {**ns.var_types, **nb.var_types}
                return _Node(t, nb.type, "unit-elim", offsets, var_types, (slack,), [ns, nb])

            case GateApp(g, args):
                decl = self.gate_decl(g, t)
                if len(args) != len(decl.qubits):
                    raise TypingError(
                        ErrorKind.GATE_MISMATCH,
                        f"gate {g!r} takes {len(decl.qubits)} argument(s), got {len(args)}",
                        location=t,
                    )
                nodes = [self.visit(a, env) for a in args]
                for node, q in zip(nodes, decl.qubits):
                    if node.type != Qubit(q):
                        raise TypingError(
                            ErrorKind.GATE_MISMATCH,
                            f"gate {g!r} expects an argument of type {q},"
                            f" got {print_type(node.type)}",
                            location=t,
                            expected=Qubit(q),
                            actual=node.type,
                        )
                offsets = self.merge([n.offsets for n in nodes], t)
                offsets = {name: a.shift(-decl.duration) for name, a in offsets.items()}
                var_types: dict[str, TypeExpr] = {}
                for n in nodes:
                    var_types.update(n.var_types)
                ty = tensor_of([Qubit(q) for q in decl.qubits])
                return _Node(t, ty, "gate", offsets, var_types, (decl.duration,), nodes)

            case Pair(l, r):
                nl = self.visit(l, env)
                nr = self.visit(r, env)
                offsets = self.merge([nl.offsets, nr.offsets], t)
                return _Node(
                    t,
                    Tensor(nl.type, nr.type),
                    "pair-intro",
                    offsets,
                    {**nl.var_types, **nr.var_types},
                    (),
                    [nl, nr],
                )

            case LetPair(x, y, s, b):
                ns = self.visit(s, env)
                if not isinstance(ns.type, Tensor):
                    raise TypingError(
                        ErrorKind.TYPE_MISMATCH,
                        f"scrutinee of let (x, y) must have a tensor type,"
                        f" got {print_type(ns.type)}",
                        location=t,
                        actual=ns.type,
                    )
                benv = {**env, x: ns.type.left, y: ns.type.right}
                nb = self.visit(b, benv)
                for binder in (x, y):
                    if binder not in nb.offsets:
                        raise TypingError(
                            ErrorKind.UNUSED_CONTEXT_ENTRY,
                            f"binder {binder!r} is not used in the body",
                            location=t,
                        )
                ex, ey = nb.offsets[x], nb.offsets[y]
                if not self.solver.equate(ex, ey):
                    raise TypingError(
                        ErrorKind.GRADE_MISMATCH,
                        f"pair binders {x!r} and {y!r} are used at different grades"
                        f" ({self.solver.resolve(ex).render()} vs"
                        f" {self.solver.resolve(ey).render()})",
                        location=t,
                    )
                e = self.solver.resolve(ex)
                body_offsets = {n: a for n, a in nb.offsets.items() if n not in (x, y)}
                shifted = {n: a.add(e) for n, a in ns.offsets.items()}
                offsets = self.merge([shifted, body_offsets], t)
                var_types = {**ns.var_types}
                var_types.update({n: ty for n, ty in nb.var_types.items() if n not in (x, y)})
                return _Node(t, nb.type, "pair-elim", offsets, var_types, (e,), [ns, nb], (x, y))

            case BoxIntro(d, b):
                nb = self.visit(b, env)
                offsets = {n: a.shift(d) for n, a in nb.offsets.items()}
                return _Node(t, Box(d, nb.type), "box-intro", offsets, dict(nb.var_types), (d,), [nb])

            case LetBox(d, x, s, b):
                ns = self.visit(s, env)
                if not isinstance(ns.type, Box) or ns.type.grade != d:
                    raise TypingError(
                        ErrorKind.TYPE_MISMATCH,
                        f"scrutinee of let box[{d}] must have type [{d}] A,"
                        f" got {print_type(ns.type)}",
                        location=t,
                        expected=Box(d, Unit()),
                        actual=ns.type,
                    )
                benv = {**env, x: ns.type.body}
                nb = self.visit(b, benv)
                if x not in nb.offsets:
                    raise TypingError(
                        ErrorKind.UNUSED_CONTEXT_ENTRY,
                        f"binder {x!r} is not used in the body",
                        location=t,
                    )
                e = self.solver.resolve(nb.offsets[x])
                body_offsets = {n: a for n, a in nb.offsets.items() if n != x}
                shifted = {n: a.add(e.shift(-d)) for n, a in ns.offsets.items()}
                offsets = self.merge([shifted, body_offsets], t)
                var_types = {**ns.var_types}
                var_types.update({n: ty for n, ty in nb.var_types.items() if n != x})
                return _Node(t, nb.type, "box-elim", offsets, var_types, (d, e), [ns, nb], (x,))

        raise TypeError(f"not a term: {t!r}")


def _synth(term: TermExpr, env: dict[str, TypeExpr], chip: ChipSpec) -> tuple[_Node, _Synth]:
    synth = _Synth(chip)
    node = synth.visit(term, dict(env))
    return node, synth


def synthesize(term: TermExpr, env: dict[str, TypeExpr], chip: ChipSpec) -> OffsetReport:
    """Infer the type and per-variable grade offsets of a bare term."""
    node, synth = _synth(term, env, chip)
    offsets = {name: synth.solver.resolve(a) for name, a in node.offsets.items()}
    return OffsetReport(node.type, offsets, tuple(synth.slacks))


# ------------------------------------------------------------ derivations


@dataclass(frozen=True)
class Derivation:
    """Checked derivation node: term, type, context and solved grades.

    ``params`` holds the rule's grade data: unit-elim ``(d,)``, gate
    ``(duration,)``, pair-elim ``(d,)``, box-intro ``(d,)``, box-elim
    ``(d, e)``; empty otherwise.
    """

    term: TermExpr
    type: TypeExpr
    ctx: Context
    rule: str
    params: tuple[int, ...]
    premises: tuple["Derivation", ...]


def _elaborate(node: _Node, solver: _Solver, assignment: dict[int, int]) -> Derivation:
    def grade_of(a: Affine) -> int:
        return solver.resolve(a).eval(assignment)

    premises = tuple(_elaborate(c, solver, assignment) for c in node.children)
    params = tuple(
        grade_of(p) if isinstance(p, Affine) else p for p in node.params
    )

    match node.rule:
        case "var":
            name = next(iter(node.offsets))
            ctx: tuple[CtxEntry, ...] = (CtxEntry(name, 0, node.var_types[name]),)
        case "unit-intro":
            ctx = ()
        case "pair-intro" | "gate":
            ctx = tuple(e for p in premises for e in p.ctx)
            if node.rule == "gate":
                d = params[0]
                ctx = tuple(CtxEntry(e.name, e.grade - d, e.type) for e in ctx)
        case "unit-elim":
            d = params[0]
            scrut, body = premises
            ctx = tuple(CtxEntry(e.name, e.grade + d, e.type) for e in scrut.ctx) + body.ctx
        case "pair-elim":
            e_grade = params[0]
            scrut, body = premises
            ctx = tuple(
                CtxEntry(e.name, e.grade + e_grade, e.type) for e in scrut.ctx
            ) + tuple(en for en in body.ctx if en.name not in node.binders)
        case "box-intro":
            d = params[0]
            (body,) = premises
            ctx = tuple(CtxEntry(e.name, e.grade + d, e.type) for e in body.ctx)
        case "box-elim":
            d, e_grade = params
            scrut, body = premises
            ctx = tuple(
                CtxEntry(en.name, en.grade + e_grade - d, en.type) for en in scrut.ctx
            ) + tuple(en for en in body.ctx if en.name != node.binders[0])
        case _:
            raise AssertionError(node.rule)

    return Derivation(node.term, node.type, ctx, node.rule, params, premises)


def check(j: Judgement, chip: ChipSpec) -> Derivation:
    """Decide derivability of the judgement; returns evidence or raises."""
    env = {e.name: e.type for e in j.ctx}
    if len(env) != len(j.ctx):
        raise TypingError(ErrorKind.DUPLICATE_USE, "context repeats a variable name")
    node, synth = _synth(j.term, env, chip)

    if node.type != j.type:
        raise TypingError(
            ErrorKind.TYPE_MISMATCH,
            f"term has type {print_type(node.type)}, declared {print_type(j.type)}",
            location=j.term,
            expected=j.type,
            actual=node.type,
        )
    for entry in j.ctx:
        if entry.name not in node.offsets:
            raise TypingError(
                ErrorKind.UNUSED_CONTEXT_ENTRY,
                f"context variable {entry.name!r} does not occur in the term",
            )
    for entry in j.ctx:
        offset = node.offsets[entry.name]
        if not synth.solver.equate(Affine.of(entry.grade), offset):
            required = synth.solver.resolve(offset)
            raise TypingError(
                ErrorKind.GRADE_MISMATCH,
                f"variable {entry.name!r} declared at grade {entry.grade},"
                f" term requires {required.render()}",
                expected=required.const if required.is_const else required.render(),
                actual=entry.grade,
            )

    derivation = _elaborate(node, synth.solver, {})
    assert {(e.name, e.grade) for e in derivation.ctx} == {
        (e.name, e.grade) for e in j.ctx
    }, "elaborated context disagrees with the declared one"
    return derivation


def infer(
    term: TermExpr,
    env: dict[str, TypeExpr],
    chip: ChipSpec,
    slack_values: dict[int, int] | None = None,
    pin_grades: dict[str, int] | None = None,
) -> tuple[Judgement, Derivation, OffsetReport]:
    """Infer a judgement for a bare term.

    Free slack variables default to 0 (pass ``slack_values`` to choose a
    different derivable instance); that instance is a reporting convention,
    not the only derivable context.  ``pin_grades`` forces chosen variables
    to specific grades, failing if the term cannot support them.
    """
    node, synth = _synth(term, env, chip)
    for name, grade in (pin_grades or {}).items():
        if name not in node.offsets:
            raise TypingError(
                ErrorKind.UNBOUND_VARIABLE, f"cannot pin absent variable {name!r}"
            )
        if not synth.solver.equate(Affine.of(grade), node.offsets[name]):
            raise TypingError(
                ErrorKind.GRADE_MISMATCH,
                f"variable {name!r} cannot be used at grade {grade}",
            )
    assignment = dict(slack_values or {})
    derivation = _elaborate(node, synth.solver, assignment)
    offsets = {name: synth.solver.resolve(a) for name, a in node.offsets.items()}
    report = OffsetReport(node.type, offsets, tuple(synth.slacks))
    return Judgement(derivation.ctx, term, derivation.type), derivation, report
