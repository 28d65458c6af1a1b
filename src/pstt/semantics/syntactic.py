"""The syntactic model: types as objects, terms-in-one-variable as morphisms.

A morphism A -> B is a pair (x, t) with ``x :^0 A |- t : B``, considered up
to alpha-conversion and judgemental equality; composition is substitution.
Morphism equality is delegated to the equality engine and may come back
undecided, in which case ``mor_eq`` returns ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chip import ChipSpec
from ..equality import EqKind, judgementally_equal
from ..syntax import (
    Box,
    BoxIntro,
    CtxEntry,
    GateApp,
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
    fresh_name,
    free_vars,
    substitute,
)
from .model import Model, ModelError


@dataclass(frozen=True)
class SynMorphism:
    src: TypeExpr
    tgt: TypeExpr
    var: str
    term: TermExpr


class SyntacticModel(Model):
    def __init__(self, chip: ChipSpec):
        self.chip = chip

    # category ----------------------------------------------------------
    def obj_eq(self, a: TypeExpr, b: TypeExpr) -> bool:
        return a == b

    def mor_eq(self, f: SynMorphism, g: SynMorphism) -> bool | None:
        if f.src != g.src or f.tgt != g.tgt:
            return False
        z = fresh_name("z", set(free_vars(f.term)) | set(free_vars(g.term)))
        ctx = (CtxEntry(z, 0, f.src),)
        verdict = judgementally_equal(
            ctx,
            substitute(f.term, f.var, Var(z)),
            substitute(g.term, g.var, Var(z)),
            f.tgt,
            self.chip,
        )
        if verdict.kind is EqKind.EQUAL:
            return True
        if verdict.kind is EqKind.UNKNOWN:
            return None
        return False

    def dom(self, f: SynMorphism) -> TypeExpr:
        return f.src

    def cod(self, f: SynMorphism) -> TypeExpr:
        return f.tgt

    def identity(self, a: TypeExpr) -> SynMorphism:
        return SynMorphism(a, a, "x", Var("x"))

    def compose(self, g: SynMorphism, f: SynMorphism) -> SynMorphism:
        if f.tgt != g.src:
            raise ModelError("cannot compose: middle types differ")
        return SynMorphism(f.src, g.tgt, f.var, substitute(g.term, g.var, f.term))

    # monoidal ----------------------------------------------------------
    def unit(self) -> TypeExpr:
        return Unit()

    def tensor_obj(self, a: TypeExpr, b: TypeExpr) -> TypeExpr:
        return Tensor(a, b)

    def tensor_mor(self, f: SynMorphism, g: SynMorphism) -> SynMorphism:
        a = f.var
        b = g.var
        g_term = g.term
        if b == a:
            b = fresh_name(b, {a} | set(free_vars(f.term)) | set(free_vars(g.term)))
            g_term = substitute(g.term, g.var, Var(b))
        z = fresh_name("z", {a, b} | set(free_vars(f.term)) | set(free_vars(g_term)))
        return SynMorphism(
            Tensor(f.src, g.src),
            Tensor(f.tgt, g.tgt),
            z,
            LetPair(a, b, Var(z), Pair(f.term, g_term)),
        )

    def braid(self, a: TypeExpr, b: TypeExpr) -> SynMorphism:
        return SynMorphism(
            Tensor(a, b), Tensor(b, a), "z", LetPair("a", "b", Var("z"), Pair(Var("b"), Var("a")))
        )

    def assoc(self, a, b, c) -> SynMorphism:
        # ((A (x) B) (x) C) -> (A (x) (B (x) C))
        term = LetPair(
            "p", "c", Var("z"), LetPair("a", "b", Var("p"), Pair(Var("a"), Pair(Var("b"), Var("c"))))
        )
        return SynMorphism(Tensor(Tensor(a, b), c), Tensor(a, Tensor(b, c)), "z", term)

    def assoc_inv(self, a, b, c) -> SynMorphism:
        term = LetPair(
            "a", "r", Var("z"), LetPair("b", "c", Var("r"), Pair(Pair(Var("a"), Var("b")), Var("c")))
        )
        return SynMorphism(Tensor(a, Tensor(b, c)), Tensor(Tensor(a, b), c), "z", term)

    def lunit(self, a: TypeExpr) -> SynMorphism:
        term = LetPair("u", "a", Var("z"), LetStar(Var("u"), Var("a")))
        return SynMorphism(Tensor(Unit(), a), a, "z", term)

    def lunit_inv(self, a: TypeExpr) -> SynMorphism:
        return SynMorphism(a, Tensor(Unit(), a), "x", Pair(Star(), Var("x")))

    def runit(self, a: TypeExpr) -> SynMorphism:
        term = LetPair("a", "u", Var("z"), LetStar(Var("u"), Var("a")))
        return SynMorphism(Tensor(a, Unit()), a, "z", term)

    def runit_inv(self, a: TypeExpr) -> SynMorphism:
        return SynMorphism(a, Tensor(a, Unit()), "x", Pair(Var("x"), Star()))

    # action -------------------------------------------------------------
    def act_obj(self, d: int, a: TypeExpr) -> TypeExpr:
        return Box(d, a)

    def act_mor(self, d: int, f: SynMorphism) -> SynMorphism:
        y = fresh_name("y", {f.var} | set(free_vars(f.term)))
        return SynMorphism(
            Box(d, f.src),
            Box(d, f.tgt),
            y,
            LetBox(d, f.var, Var(y), BoxIntro(d, f.term)),
        )

    def unitor(self, a: TypeExpr) -> SynMorphism:
        return SynMorphism(a, Box(0, a), "x", BoxIntro(0, Var("x")))

    def unitor_inv(self, a: TypeExpr) -> SynMorphism:
        return SynMorphism(Box(0, a), a, "x", LetBox(0, "y", Var("x"), Var("y")))

    def multiplicator(self, c: int, d: int, a: TypeExpr) -> SynMorphism:
        term = LetBox(c, "y", Var("x"), LetBox(d, "z", Var("y"), BoxIntro(c + d, Var("z"))))
        return SynMorphism(Box(c, Box(d, a)), Box(c + d, a), "x", term)

    def multiplicator_inv(self, c: int, d: int, a: TypeExpr) -> SynMorphism:
        term = LetBox(c + d, "y", Var("x"), BoxIntro(c, BoxIntro(d, Var("y"))))
        return SynMorphism(Box(c + d, a), Box(c, Box(d, a)), "x", term)

    def dist_unit(self, d: int) -> SynMorphism:
        term = LetBox(d, "y", Var("x"), LetStar(Var("y"), Star()))
        return SynMorphism(Box(d, Unit()), Unit(), "x", term)

    def dist_unit_inv(self, d: int) -> SynMorphism:
        # box[d] x alone would need x at grade d; eliminating the unit first
        # leaves the shift on the let, keeping the variable at grade 0.
        term = LetStar(Var("x"), BoxIntro(d, Star()))
        return SynMorphism(Unit(), Box(d, Unit()), "x", term)

    def dist_tensor(self, d: int, a: TypeExpr, b: TypeExpr) -> SynMorphism:
        term = LetPair(
            "y",
            "z",
            Var("x"),
            LetBox(d, "a", Var("y"), LetBox(d, "b", Var("z"), BoxIntro(d, Pair(Var("a"), Var("b"))))),
        )
        return SynMorphism(Tensor(Box(d, a), Box(d, b)), Box(d, Tensor(a, b)), "x", term)

    def dist_tensor_inv(self, d: int, a: TypeExpr, b: TypeExpr) -> SynMorphism:
        term = LetBox(
            d,
            "y",
            Var("x"),
            LetPair("a", "b", Var("y"), Pair(BoxIntro(d, Var("a")), BoxIntro(d, Var("b")))),
        )
        return SynMorphism(Box(d, Tensor(a, b)), Tensor(Box(d, a), Box(d, b)), "x", term)

    # chip ----------------------------------------------------------------
    def qubit_obj(self, qubit: str) -> TypeExpr:
        return Qubit(qubit)

    def gate_mor(self, gate: str) -> SynMorphism:
        decl = self.chip.find_gate(gate)
        if decl is None:
            raise ModelError(f"unknown gate {gate!r}")
        n = len(decl.qubits)
        src = Box(-decl.duration, decl.type)
        names = [f"w{i}" for i in range(n)]
        if n == 1:
            body: TermExpr = GateApp(gate, (Var("y"),))
        else:
            # Unpack the right-nested tensor: let (w0, r0) = y in ...
            body = GateApp(gate, tuple(Var(n) for n in names))
            rests = [f"r{i}" for i in range(n - 2)] + [names[-1]]
            for i in range(n - 2, -1, -1):
                source = Var("y") if i == 0 else Var(f"r{i - 1}")
                body = LetPair(names[i], rests[i], source, body)
        term = LetBox(-decl.duration, "y", Var("x"), body)
        return SynMorphism(src, decl.type, "x", term)
