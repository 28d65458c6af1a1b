"""The one-pass checker against the two-pass synthesis it replaced.

``check`` and ``infer`` build each ``Derivation`` node as they synthesise
it, and settle a let's slack-dependent grades once the solver is done;
``gen_judgement`` settles free slacks at chosen values through the same
``_synth`` and ``settle``.  The reference is the replaced code, kept here:
synthesis built a tree of ``_Node`` records carrying ``Affine`` grades, and
``_elaborate`` walked it again to copy it into a ``Derivation`` tree.
Both must give the same derivations node for node, the same offsets and
slack variables, and the same errors.

The reference also keeps its own copy of the grade arithmetic and the
solver as they were before ``equate`` and ``resolve`` gained fast paths,
and of ``Derivation.ctx`` as it was before ``check``'s closing cross-check
read grades from a walk that builds no entries.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, dataclass, field, replace
from math import gcd

import pytest

from pstt import (
    CtxEntry,
    GateApp,
    Judgement,
    LetBox,
    LetPair,
    LetStar,
    Pair,
    Star,
    TypingError,
    Var,
    parse,
)
from pstt import typecheck
from pstt.chip import ChipSpec, GateDecl
from pstt.surface import print_type
from pstt.syntax import (
    Box,
    BoxIntro,
    LETS,
    Qubit,
    Tensor,
    TermExpr,
    TypeExpr,
    Unit,
    binders,
    children,
    free_occurrences,
    plug,
    positions,
    tensor_of,
)
from pstt.testkit import GenConfig, gen_judgement
from pstt.typecheck import (
    Derivation,
    ErrorKind,
    SolverStuck,
    _free_uses,
    premise_shifts,
    _synth as live_synth,
    check,
    infer,
)
from test_compile_path import under_unit_spine
from test_strict_fast_path import layer_chip, layer_judgement
from test_traversal import chain_source, units_source

# -------------------------------------------------------------- reference


@dataclass(frozen=True)
class RefAffine:
    """Integer-affine expression: ``const + sum(coeff * slack)``, as ``typecheck.Affine`` was."""

    const: int
    coeffs: tuple[tuple[int, int], ...] = ()  # (slack id, nonzero coeff), sorted

    @staticmethod
    def of(const: int) -> "RefAffine":
        return RefAffine(const)

    @staticmethod
    def slack(sid: int) -> "RefAffine":
        return RefAffine(0, ((sid, 1),))

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def shift(self, d: int) -> "RefAffine":
        return RefAffine(self.const + d, self.coeffs)

    def add(self, other: "RefAffine") -> "RefAffine":
        out = dict(self.coeffs)
        for sid, c in other.coeffs:
            out[sid] = out.get(sid, 0) + c
        coeffs = tuple(sorted((s, c) for s, c in out.items() if c != 0))
        return RefAffine(self.const + other.const, coeffs)

    def sub(self, other: "RefAffine") -> "RefAffine":
        return self.add(other.scale(-1))

    def scale(self, k: int) -> "RefAffine":
        if k == 0:
            return RefAffine(0)
        return RefAffine(self.const * k, tuple((s, c * k) for s, c in self.coeffs))

    def eval(self, assignment: dict[int, int]) -> int:
        return self.const + sum(c * assignment.get(s, 0) for s, c in self.coeffs)

    def render(self) -> str:
        parts = [str(self.const)] if self.const or not self.coeffs else []
        for sid, c in self.coeffs:
            sign = "+" if c > 0 else "-"
            mag = "" if abs(c) == 1 else str(abs(c))
            parts.append(f"{sign} {mag}s{sid}")
        return " ".join(parts).lstrip("+ ").strip() or "0"


class RefSolver:
    """Incremental integer Gaussian elimination over slack variables, as
    ``typecheck._Solver`` was before its fast paths."""

    def __init__(self) -> None:
        self.solution: dict[int, RefAffine] = {}
        self._users: dict[int, set[int]] = {}  # free slack -> solved slacks using it
        self._next = 0

    def fresh_slack(self) -> int:
        self._next += 1
        return self._next

    def resolve(self, a: RefAffine) -> RefAffine:
        out = RefAffine(a.const)
        for sid, c in a.coeffs:
            sol = self.solution.get(sid)
            if sol is None:
                out = out.add(RefAffine(0, ((sid, c),)))
            else:
                out = out.add(sol.scale(c))
        return out

    def equate(self, a: RefAffine, b: RefAffine) -> bool:
        """Require a == b.  Returns False on contradiction."""
        diff = self.resolve(a).sub(self.resolve(b))
        if diff.is_const:
            return diff.const == 0
        g = 0
        for _, c in diff.coeffs:
            g = gcd(g, abs(c))
        if g > 1:
            if diff.const % g:
                return False
            diff = RefAffine(diff.const // g, tuple((s, c // g) for s, c in diff.coeffs))
        pivot = next(((s, c) for s, c in diff.coeffs if abs(c) == 1), None)
        if pivot is None:
            raise SolverStuck(f"no unit coefficient in {diff.render()}")
        sid, c = pivot
        rest = RefAffine(diff.const, tuple((s, k) for s, k in diff.coeffs if s != sid))
        value = rest.scale(-c)  # c in {1,-1}: sid = -rest/c
        self.solution[sid] = value
        users = self._users.pop(sid, set())
        for k in users:
            self.solution[k] = self.resolve(self.solution[k])
        for s, _ in value.coeffs:
            self._users.setdefault(s, set()).update(users | {sid})
        return True


@dataclass
class _Node:
    """Per-subterm synthesis record mirroring the term tree.

    ``children`` follow ``syntax.children`` of ``term``.  A node's
    ``offsets`` map may be handed on to its parent and grown in place.
    """

    term: TermExpr
    type: TypeExpr
    rule: str
    offsets: dict[str, RefAffine]
    params: tuple = ()
    children: list["_Node"] = field(default_factory=list)


class _Synth:
    def __init__(self, chip: ChipSpec):
        self.chip = chip
        self.solver = RefSolver()
        self.slacks: list[int] = []

    def gate_decl(self, name: str, loc: TermExpr) -> GateDecl:
        decl = self.chip.find_gate(name)
        if decl is None:
            raise TypingError(ErrorKind.UNKNOWN_GATE, f"gate {name!r} is not declared", location=loc)
        return decl

    def merge(self, a: dict[str, RefAffine], b: dict[str, RefAffine], loc: TermExpr) -> dict[str, RefAffine]:
        """Union of two offset maps, made by moving the smaller into the larger."""
        if len(a) > len(b):
            a, b = b, a
        if not b.keys().isdisjoint(a):
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
        b.update(a)
        return b

    def visit(self, t: TermExpr, env: dict[str, TypeExpr]) -> _Node:
        """Synthesise ``t`` with an explicit stack of unfinished nodes.

        Checks run in term order: a gate's name and arity before its
        arguments, a scrutinee's type before the body.  ``env`` gains a
        let's binders once its scrutinee is typed and loses them when the
        let is done.
        """
        frames: list[list] = []  # [term, its children, their nodes so far, gate decl or shadowed env]
        while True:
            cls = type(t)
            if cls is Var:
                ty = env.get(t.name)
                if ty is None:
                    raise TypingError(
                        ErrorKind.UNBOUND_VARIABLE, f"variable {t.name!r} is not in scope", location=t
                    )
                node = _Node(t, ty, "var", {t.name: RefAffine.of(0)})
            elif cls is Star:
                node = _Node(t, Unit(), "unit-intro", {})
            else:
                decl = None
                if cls is GateApp:
                    decl = self.gate_decl(t.gate, t)
                    if len(t.args) != len(decl.qubits):
                        raise TypingError(
                            ErrorKind.GATE_MISMATCH,
                            f"gate {t.gate!r} takes {len(decl.qubits)} argument(s), got {len(t.args)}",
                            location=t,
                        )
                kids = children(t)
                frames.append([t, kids, [], decl])
                t = kids[0]
                continue
            # Hand the finished node to its parent until one needs another child.
            while frames:
                parent, kids, done, extra = frame = frames[-1]
                done.append(node)
                if len(done) < len(kids):
                    if len(done) == 1 and isinstance(parent, LETS):
                        frame[3] = self.open_scope(parent, node.type, env)
                    t = kids[len(done)]
                    break
                frames.pop()
                node = self.finish(parent, done, extra, env)
            else:
                return node

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

    def finish(self, t: TermExpr, nodes: list[_Node], extra, env: dict[str, TypeExpr]) -> _Node:
        """The node of ``t`` from its children's nodes."""
        cls = type(t)
        if cls is GateApp:
            decl: GateDecl = extra
            for node, q in zip(nodes, decl.qubits):
                if node.type != Qubit(q):
                    raise TypingError(
                        ErrorKind.GATE_MISMATCH,
                        f"gate {t.gate!r} expects an argument of type {q},"
                        f" got {print_type(node.type)}",
                        location=t,
                        expected=Qubit(q),
                        actual=node.type,
                    )
            offsets = nodes[0].offsets
            for node in nodes[1:]:
                offsets = self.merge(offsets, node.offsets, t)
            offsets = {name: a.shift(-decl.duration) for name, a in offsets.items()}
            ty = tensor_of([Qubit(q) for q in decl.qubits])
            return _Node(t, ty, "gate", offsets, (decl.duration,), nodes)

        if cls is Pair:
            nl, nr = nodes
            offsets = self.merge(nl.offsets, nr.offsets, t)
            return _Node(t, Tensor(nl.type, nr.type), "pair-intro", offsets, (), nodes)

        if cls is BoxIntro:
            (nb,) = nodes
            offsets = {n: a.shift(t.grade) for n, a in nb.offsets.items()}
            return _Node(t, Box(t.grade, nb.type), "box-intro", offsets, (t.grade,), nodes)

        ns, nb = nodes
        for x, old in extra:
            if old is None:
                del env[x]
            else:
                env[x] = old

        if cls is LetStar:
            sid = self.solver.fresh_slack()
            self.slacks.append(sid)
            slack = RefAffine.slack(sid)
            shifted = {name: a.add(slack) for name, a in ns.offsets.items()}
            offsets = self.merge(shifted, nb.offsets, t)
            return _Node(t, nb.type, "unit-elim", offsets, (slack,), nodes)

        names = binders(t)
        for binder in names:
            if binder not in nb.offsets:
                raise TypingError(
                    ErrorKind.UNUSED_CONTEXT_ENTRY,
                    f"binder {binder!r} is not used in the body",
                    location=t,
                )
        if cls is LetPair:
            x, y = names
            ex, ey = nb.offsets.pop(x), nb.offsets.pop(y)
            if not self.solver.equate(ex, ey):
                raise TypingError(
                    ErrorKind.GRADE_MISMATCH,
                    f"pair binders {x!r} and {y!r} are used at different grades"
                    f" ({self.solver.resolve(ex).render()} vs"
                    f" {self.solver.resolve(ey).render()})",
                    location=t,
                )
            e = self.solver.resolve(ex)
            shifted = {n: a.add(e) for n, a in ns.offsets.items()}
            offsets = self.merge(shifted, nb.offsets, t)
            return _Node(t, nb.type, "pair-elim", offsets, (e,), nodes)

        e = self.solver.resolve(nb.offsets.pop(t.x))
        shifted = {n: a.add(e.shift(-t.grade)) for n, a in ns.offsets.items()}
        offsets = self.merge(shifted, nb.offsets, t)
        return _Node(t, nb.type, "box-elim", offsets, (t.grade, e), nodes)

def _synth(term: TermExpr, env: dict[str, TypeExpr], chip: ChipSpec) -> tuple[_Node, _Synth]:
    synth = _Synth(chip)
    node = synth.visit(term, dict(env))
    return node, synth


def _elaborate(root: _Node, solver: RefSolver, assignment: dict[int, int]) -> Derivation:
    """The derivation of a synthesis tree, built bottom-up with an explicit stack."""

    def grade_of(a: RefAffine) -> int:
        return solver.resolve(a).eval(assignment)

    done: list[Derivation] = []
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children))
            continue
        n = len(node.children)
        premises = tuple(done[len(done) - n :])
        del done[len(done) - n :]
        params = tuple(grade_of(p) if isinstance(p, RefAffine) else p for p in node.params)
        done.append(Derivation(node.term, node.type, node.rule, params, premises))
    return done[0]


def ref_ctx(root: Derivation) -> tuple[CtxEntry, ...]:
    """``Derivation.ctx`` as it was, from ``premise_shifts``: the subtree's
    free variables, left to right."""
    entries: list[CtxEntry] = []
    bound: dict[str, int] = {}  # name -> lets binding it around the current node
    stack: list[tuple] = [(root, 0)]  # (node, grade), or (+1/-1, names) around a let body
    while stack:
        d, o = stack.pop()
        if type(d) is int:
            for x in o:
                bound[x] = bound.get(x, 0) + d
        elif d.rule == "var":
            if not bound.get(d.term.name):
                entries.append(CtxEntry(d.term.name, o, d.type))
        elif d.premises:
            shifted = [(p, o + s) for p, s in zip(d.premises, premise_shifts(d))]
            names = binders(d.term)
            if names:  # bound over the last premise, the let's body
                shifted[-1:] = [(1, names), shifted[-1], (-1, names)]
            stack += reversed(shifted)
    return tuple(entries)


def ref_check(j: Judgement, chip: ChipSpec) -> Derivation:
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
        if not synth.solver.equate(RefAffine.of(entry.grade), offset):
            required = synth.solver.resolve(offset)
            raise TypingError(
                ErrorKind.GRADE_MISMATCH,
                f"variable {entry.name!r} declared at grade {entry.grade},"
                f" term requires {required.render()}",
                expected=required.const if required.is_const else required.render(),
                actual=entry.grade,
            )

    derivation = _elaborate(node, synth.solver, {})
    assert {(e.name, e.grade) for e in ref_ctx(derivation)} == {
        (e.name, e.grade) for e in j.ctx
    }, "elaborated context disagrees with the declared one"
    return derivation


def ref_infer(
    term: TermExpr, env: dict[str, TypeExpr], chip: ChipSpec
) -> tuple[Judgement, Derivation]:
    """Infer a judgement for a bare term, free slack variables at 0."""
    node, synth = _synth(term, env, chip)
    derivation = _elaborate(node, synth.solver, {})
    return Judgement(ref_ctx(derivation), term, derivation.type), derivation


# ------------------------------------------------------------- comparison


def outcome(f, *args):
    """``f(*args)``, or the kind, message and data of the TypingError it raises."""
    try:
        return f(*args)
    except TypingError as e:
        return TypingError, e.kind, str(e), e.location, e.expected, e.actual


def is_error(result) -> bool:
    return type(result) is tuple and result[0] is TypingError


def assert_same_error(new, ref) -> None:
    assert new[:3] == ref[:3]
    assert new[3] is ref[3]  # the same located subterm
    assert new[4:] == ref[4:]


def assert_same_derivation(new: Derivation, ref: Derivation) -> None:
    """Node for node: the same term object, type, rule and int params."""
    stack = [(new, ref)]
    while stack:
        a, b = stack.pop()
        assert a.term is b.term
        assert (a.rule, a.params) == (b.rule, b.params)
        assert all(type(p) is int for p in a.params), a.params
        assert a.type == b.type
        assert len(a.premises) == len(b.premises)
        stack += zip(a.premises, b.premises)


def assert_same_check(j: Judgement, chip: ChipSpec):
    new, ref = outcome(check, j, chip), outcome(ref_check, j, chip)
    assert is_error(new) == is_error(ref)
    if is_error(ref):
        assert_same_error(new, ref)
    else:
        assert_same_derivation(new, ref)
    return new


def assert_same_infer(term, env, chip):
    new, ref = outcome(infer, term, env, chip), outcome(ref_infer, term, env, chip)
    assert is_error(new) == is_error(ref)
    if is_error(ref):
        assert_same_error(new, ref)
        return
    jr, dr = ref
    assert new.ctx == jr.ctx and new.term is jr.term and new.type == jr.type
    assert_same_derivation(check(new, chip), dr)


def offsets_key(offsets: dict, solver) -> dict:
    """Each resolved grade as ``(const, coeffs)``, whichever class holds it."""
    resolved = {name: solver.resolve(a) for name, a in offsets.items()}
    return {name: (a.const, a.coeffs) for name, a in resolved.items()}


def assert_same_settled(term, env, chip, rng: random.Random) -> None:
    """Synthesis with free slacks settled at random values, as ``gen_judgement``
    settles them: the same derivation, context, offsets and slack variables."""
    new, ref = outcome(live_synth, term, env, chip), outcome(_synth, term, env, chip)
    assert is_error(new) == is_error(ref)
    if is_error(ref):
        assert_same_error(new, ref)
        return
    (dn, (m, base), synth), (node, rsynth) = new, ref
    assert synth.slacks == rsynth.slacks
    slacks = {sid: rng.randint(-90, 90) for sid in rsynth.slacks}
    synth.settle(slacks)
    dr = _elaborate(node, rsynth.solver, slacks)
    assert_same_derivation(dn, dr)
    assert dn.ctx == ref_ctx(dr)
    offsets = {name: a.shift(base) for name, a in m.items()}
    assert offsets_key(offsets, synth.solver) == offsets_key(node.offsets, rsynth.solver)


def assert_same_everywhere(j: Judgement, chip: ChipSpec, rng: random.Random) -> None:
    """``check`` of ``j``, ``infer`` of its term, and its synthesis settled at
    random slack values."""
    assert_same_check(j, chip)
    env = {e.name: e.type for e in j.ctx}
    assert_same_infer(j.term, env, chip)
    assert_same_settled(j.term, env, chip, rng)


def generated(chip: ChipSpec, seed: int, per_depth: int):
    rng = random.Random(seed)
    for depth in range(4, 11):
        cfg = GenConfig(chip=chip, seed=seed, max_depth=depth)
        for _ in range(per_depth):
            yield gen_judgement(cfg, rng=rng), rng


# ------------------------------------------------------------------ tests


def test_corpus_matches_the_two_pass_checker(chip0, corpus):
    rng = random.Random(0)
    for d in corpus.declarations:
        assert_same_everywhere(d.judgement, chip0, rng)
        assert_same_everywhere(under_unit_spine(d.judgement, rng), chip0, rng)


@pytest.mark.parametrize("seed", [7, 2025])
def test_generated_judgements_match_the_two_pass_checker(chip0, seed):
    rules = set()
    for j, rng in generated(chip0, seed, 8):
        assert_same_everywhere(j, chip0, rng)
        spined = under_unit_spine(j, rng)
        assert_same_everywhere(spined, chip0, rng)
        # The bare term, with no declared context to check against.
        closed = Judgement((), j.term, j.type)
        assert_same_check(closed, chip0)
        assert_same_infer(j.term, {}, chip0)
        rules |= {d.rule for d in iter_derivation(check(spined, chip0))}
    assert {"unit-elim", "pair-elim", "box-elim", "box-intro", "gate"} <= rules


def iter_derivation(root: Derivation):
    stack = [root]
    while stack:
        d = stack.pop()
        yield d
        stack.extend(d.premises)


@pytest.mark.parametrize("source", [units_source, chain_source])
def test_long_inputs_match_the_two_pass_checker(chip0, source):
    j = parse(source(2_000)).declarations[0].judgement
    assert_same_everywhere(j, chip0, random.Random(1))


def test_layer_matches_the_two_pass_checker():
    chip, j = layer_chip(64), layer_judgement(64)
    assert_same_everywhere(j, chip, random.Random(2))


# -------------------------------------------------------------- mutations


def swap_gate(j: Judgement, chip: ChipSpec, rng: random.Random) -> Judgement | None:
    """``j`` with one gate replaced by a gate on other qubits."""
    apps = [(t, up) for t, up in positions(j.term) if type(t) is GateApp]
    if not apps:
        return None
    t, up = rng.choice(apps)
    decl = chip.find_gate(t.gate)
    others = [g.name for g in chip.gates if g.qubits != decl.qubits]
    return Judgement(j.ctx, plug(GateApp(rng.choice(others), t.args), up), j.type)


def unused_binder(j: Judgement, rng: random.Random) -> Judgement:
    """``j`` with a subterm under a let whose binder its body never uses."""
    t, up = rng.choice(positions(j.term))
    let = LetBox(0, "unused", BoxIntro(0, Star()), t)
    return Judgement(j.ctx, plug(let, up), j.type)


def used_twice(j: Judgement, rng: random.Random) -> Judgement | None:
    """``j`` with a pair's right side replaced by its left side."""
    pairs = [(t, up) for t, up in positions(j.term) if type(t) is Pair and free_occurrences(t.left)]
    if not pairs:
        return None
    t, up = rng.choice(pairs)
    return Judgement(j.ctx, plug(Pair(t.left, t.left), up), j.type)


def grade_off_by_one(j: Judgement, rng: random.Random) -> Judgement | None:
    if not j.ctx:
        return None
    i = rng.randrange(len(j.ctx))
    e = j.ctx[i]
    ctx = j.ctx[:i] + (CtxEntry(e.name, e.grade + 1, e.type),) + j.ctx[i + 1 :]
    return Judgement(ctx, j.term, j.type)


def test_ill_typed_mutations_raise_the_same_errors(chip0, corpus):
    mutate = {
        "swapped gate": lambda j, rng: swap_gate(j, chip0, rng),
        "unused binder": unused_binder,
        "used twice": used_twice,
        "grade off by one": grade_off_by_one,
    }
    expected = {
        "swapped gate": ErrorKind.GATE_MISMATCH,
        "unused binder": ErrorKind.UNUSED_CONTEXT_ENTRY,
        "used twice": ErrorKind.DUPLICATE_USE,
        "grade off by one": ErrorKind.GRADE_MISMATCH,
    }
    seen = {name: 0 for name in mutate}
    sources = [(d.judgement, random.Random(i)) for i, d in enumerate(corpus.declarations)]
    sources += list(generated(chip0, 11, 6))
    for j, rng in sources:
        for spined in (j, under_unit_spine(j, rng)):
            for name, f in mutate.items():
                bad = f(spined, rng)
                if bad is None:
                    continue
                result = assert_same_check(bad, chip0)
                if is_error(result) and result[1] is expected[name]:
                    seen[name] += 1
    assert all(count >= 20 for count in seen.values()), seen


# ------------------------------------------------------------ equiv spines


def equiv_spined(core: Judgement, n: int, rng: random.Random) -> tuple[Judgement, Judgement]:
    """``core`` under a spine of ``n`` unit lets in reverse and in sorted order."""
    units = [f"u{i:02d}" for i in range(n)]
    ctx = core.ctx + tuple(CtxEntry(u, rng.randint(-60, 60), Unit()) for u in units)
    sides = []
    for order in (units[::-1], units):
        term = core.term
        for u in reversed(order):
            term = LetStar(Var(u), term)
        sides.append(Judgement(ctx, term, core.type))
    return sides[0], sides[1]


def test_reversed_equiv_spines_match_the_reference_solver(chip0):
    rng = random.Random(41)
    for depth in (4, 5, 6):
        cfg = GenConfig(chip=chip0, seed=depth, max_depth=depth)
        for n in range(4, 21, 2):
            for side in equiv_spined(gen_judgement(cfg, rng=rng), n, rng):
                assert_same_everywhere(side, chip0, rng)
                assert_same_check(grade_off_by_one(side, rng), chip0)


# ----------------------------------------------------- the context cross-check


def context_grades_by_entries(d: Derivation) -> set[tuple[str, int]]:
    return {(e.name, e.grade) for e in ref_ctx(d)}


def cross_check_grades(d: Derivation) -> set[tuple[str, int]]:
    """The set ``check``'s closing assertion compares with the declared grades."""
    return {(name, grade) for name, grade, _ in _free_uses(d)}


def checked_judgements(chip0, corpus):
    rng = random.Random(5)
    for d in corpus.declarations:
        yield d.judgement
        yield under_unit_spine(d.judgement, rng)
    for j, rng in generated(chip0, 23, 5):
        yield j
        yield under_unit_spine(j, rng)
        yield from equiv_spined(j, rng.randint(4, 12), rng)


def test_the_cross_check_reads_the_grades_of_the_derivation_context(chip0, corpus):
    rng = random.Random(9)
    binders_seen = 0
    for j in checked_judgements(chip0, corpus):
        env = {e.name: e.type for e in j.ctx}
        settled, _, synth = live_synth(j.term, env, chip0)
        synth.settle({sid: rng.randint(-90, 90) for sid in synth.slacks})
        for d in (check(j, chip0), settled):
            # Every subtree, so that names its lets bind are free below them.
            for node in iter_derivation(d):
                assert cross_check_grades(node) == context_grades_by_entries(node)
                assert node.ctx == ref_ctx(node)
                binders_seen += bool(binders(node.term))
    assert binders_seen > 100
    for source in (units_source, chain_source):
        d = check(parse(source(2_000)).declarations[0].judgement, chip0)
        assert cross_check_grades(d) == context_grades_by_entries(d)
        assert d.ctx == ref_ctx(d)


def bump(d: Derivation, index: int) -> Derivation:
    """Raise the first param of ``d``'s ``index``-th node by one, in place."""
    node = list(iter_derivation(d))[index]
    object.__setattr__(node, "params", (node.params[0] + 1, *node.params[1:]))
    return node


def test_a_param_off_by_one_trips_the_context_assertion(chip0, corpus, monkeypatch):
    tripped = 0
    for j in checked_judgements(chip0, corpus):
        fresh = Judgement(j.ctx, j.term, j.type)
        declared = {(e.name, e.grade) for e in j.ctx}
        d = check(fresh, chip0)
        # The first gate or box whose param moves a declared grade.
        for index, node in enumerate(iter_derivation(d)):
            if node.rule in ("gate", "box-intro"):
                bump(d, index)
                if context_grades_by_entries(d) != declared:
                    break
                object.__setattr__(node, "params", (node.params[0] - 1, *node.params[1:]))
        else:
            continue

        def off_by_one(*args, index=index):
            derivation, offsets, synth = live_synth(*args)
            bump(derivation, index)
            return derivation, offsets, synth

        with monkeypatch.context() as m:
            m.setattr(typecheck, "_synth", off_by_one)
            with pytest.raises(AssertionError, match="elaborated context disagrees"):
                check(Judgement(j.ctx, j.term, j.type), chip0)
        tripped += 1
    assert tripped >= 100


# --------------------------------------------------- lazily shifted offsets

# Inside synthesis a gate or box moves only its offset map's base, and a
# merge rebases the entries it moves.  Each judgement below merges maps that
# sit at different bases, or reads a let's binders through a moved base; it
# is paired with the start of the error it must raise, or None.

DEEP_4 = """schedule deep4 (x:^-781 q1, y:^-781 q2) : [-21] (q1 * q2) = box[-21] (
  let (a0, b0) = CX(
    delay[q1,20](H1(delay[q1,40](K1(x)))),
    let box[41] r0 = box[41] H2(delay[q2,7](y)) in delay[q2,45](H2(r0))) in
  let (a1, b1) = CX(
    let box[-25] r1 = box[-25] K1(delay[q1,15](a0)) in H1(delay[q1,45](r1)),
    H2(delay[q2,52](H2(b0)))) in
  let (a2, b2) = CX(
    K1(K1(delay[q1,60](a1))),
    let box[7] r2 = box[7] delay[q2,76](b1) in H2(r2)) in
  (let box[-60] r3 = box[-60] H1(a2) in delay[q1,80](r3),
   H2(H2(delay[q2,14](H2(delay[q2,14](b2)))))))
"""

REBASED = {
    "CX over chains of unequal duration": (
        "schedule s (x:^-160 q1, y:^-144 q2) : q1 * q2 = CX(H1(K1(x)), H2(y))",
        None,
    ),
    "CX whose larger map is the longer chain": (
        "schedule s (u:^3 1, x:^-153 q1, y:^-144 q2) : q1 * q2"
        " = CX(H1(delay[q1,13](let * = u in x)), H2(y))",
        None,
    ),
    "CX whose larger map is the shorter chain": (
        "schedule s (x:^-177 q1, u:^-9 1, y:^-144 q2) : q1 * q2"
        " = CX(K1(delay[q1,17](H1(x))), H2(let * = u in y))",
        None,
    ),
    "box around a pair": (
        "schedule s (x:^10 q1, y:^-18 q2) : [30] (q1 * q2) = box[30] (H1(x), H2(H2(y)))",
        None,
    ),
    "box around a pair of boxes": (
        "schedule s (x:^-25 q1, y:^21 q2) : [5] ([-10] q1 * [40] q2)"
        " = box[5] (box[-10] H1(x), box[40] H2(y))",
        None,
    ),
    "pair let over binders from chains of unequal duration": (
        "schedule s (x:^-160 q1, y:^-164 q2) : q1 * q2"
        " = let (a, b) = (H1(x), H2(y)) in CX(H1(a), delay[q2,20](b))",
        None,
    ),
    "pair let whose binders are used at unequal grades": (
        "schedule s (x:^-160 q1, y:^-164 q2) : q1 * q2"
        " = let (a, b) = (H1(x), H2(y)) in CX(H1(a), H2(b))",
        "grade mismatch: pair binders 'a' and 'b' are used at different grades (-140 vs -144)",
    ),
    "pair let with a declared grade off by one": (
        "schedule s (x:^-159 q1, y:^-164 q2) : q1 * q2"
        " = let (a, b) = (H1(x), H2(y)) in CX(H1(a), delay[q2,20](b))",
        "grade mismatch: variable 'x' declared at grade -159, term requires -160",
    ),
    "box let read through a moved base": (
        "schedule s (x:^-3 [20] q1, y:^-8 q2) : [40] (q1 * q2)"
        " = box[40] (let box[20] z = x in H1(delay[q1,3](z)), H2(H2(y)))",
        None,
    ),
    "variable in both arguments of CX under different chains": (
        "schedule s (u:^0 1, v:^0 1, x:^0 q1, y:^0 q2) : q1 * q2 = CX("
        "H1(let * = u in let * = v in K1(x)), H2(H2(let * = v in let * = u in y)))",
        "duplicate use: variable 'v' is used more than once",
    ),
    "variable in both sides of a pair under different chains": (
        "schedule s (u:^0 1, x:^0 q1, y:^0 q2) : q1 * q2"
        " = (H1(K1(let * = u in x)), H2(let * = u in y))",
        "duplicate use: variable 'u' is used more than once",
    ),
    "deep-shaped program of four segments": (DEEP_4, None),
}


@pytest.mark.parametrize("name", REBASED)
def test_rebased_merges_match_the_per_gate_rebuild(chip0, name):
    source, error = REBASED[name]
    j = parse(source + "\n").declarations[0].judgement
    rng = random.Random(name)
    result = assert_same_check(j, chip0)
    if error is None:
        assert not is_error(result), result
    else:
        assert is_error(result) and result[2].startswith(error), result
    env = {e.name: e.type for e in j.ctx}
    assert_same_infer(j.term, env, chip0)
    assert_same_settled(j.term, env, chip0, rng)
    for i in range(len(j.ctx)):  # every declared grade off by one, both ways
        for by in (-1, 1):
            e = j.ctx[i]
            ctx = j.ctx[:i] + (CtxEntry(e.name, e.grade + by, e.type),) + j.ctx[i + 1 :]
            assert_same_check(Judgement(ctx, j.term, j.type), chip0)


@pytest.mark.parametrize("n", [2_000, 8_000])
def test_a_gate_chain_shifts_no_offset_per_gate(chip0, monkeypatch, n):
    """Each gate moves its map's base: checking an ``n``-gate chain builds
    a bounded number of ``Affine`` values, whatever ``n`` is."""
    j = parse(chain_source(n)).declarations[0].judgement
    calls = {"shift": 0, "add": 0, "__init__": 0}
    for method in calls:
        original = getattr(typecheck.Affine, method)

        def counted(*args, original=original, method=method):
            calls[method] += 1
            return original(*args)

        monkeypatch.setattr(typecheck.Affine, method, counted)
    check(j, chip0)
    assert sum(calls.values()) <= 8, calls


def test_derivation_nodes_stay_frozen_dataclasses(chip0):
    """The written-out ``__init__`` of ``Derivation`` and ``Affine`` keeps
    what the generated one gave."""
    d = check(parse(DEEP_4).declarations[0].judgement, chip0)
    with pytest.raises(FrozenInstanceError):
        d.rule = "var"
    copy = replace(d)
    assert copy == d and hash(copy) == hash(d) and repr(copy) == repr(d)
    assert repr(d).startswith(f"Derivation(term={d.term!r}, type={d.type!r}, rule='box-intro'")
    assert vars(d) == {"term": d.term, "type": d.type, "rule": d.rule, "params": d.params, "premises": d.premises}
    a = typecheck.Affine(-3, ((1, 2),))
    with pytest.raises(FrozenInstanceError):
        a.const = 0
    assert a == typecheck.Affine(-3, ((1, 2),)) and hash(a) == hash(replace(a))
    assert repr(a) == "Affine(const=-3, coeffs=((1, 2),))"
    assert typecheck.Affine(5) == typecheck.Affine(5, ()) != typecheck.Affine(5, ((1, 1),))
