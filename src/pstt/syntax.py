"""Term, type and context syntax for the pulse-schedule language.

Terms form a linear calculus: unit, tensor pairs, gate applications, and a
time-shift modality indexed by an integer grade (nanoseconds).  Contexts
annotate every variable with a grade.  Everything here is immutable value
data; binding, capture-avoiding substitution and alpha-equivalence live in
this module so every other layer can rely on them.

One walk per syntax sort decides equality.  Two types are equal when their
``_type_tokens`` are, and two terms are alpha-equivalent when their
``_alpha_pieces`` are, with bound variables as de Bruijn levels;
``alpha_key`` spells those pieces as a string.
"""

from __future__ import annotations

from dataclasses import dataclass

Grade = int


# ------------------------------------------------------------------ types


@dataclass(frozen=True)
class Unit:
    """The unit type, written ``1``."""


@dataclass(frozen=True)
class Qubit:
    name: str


class _Compound:
    """Equality and hash of a compound type, both through ``_type_tokens``."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or _type_tokens(self) == _type_tokens(other)

    def __hash__(self) -> int:
        return hash(_type_tokens(self))


@dataclass(frozen=True, eq=False)
class Tensor(_Compound):
    left: "TypeExpr"
    right: "TypeExpr"


@dataclass(frozen=True, eq=False)
class Box(_Compound):
    """Time-shifted type ``[d] A``: an A displaced d nanoseconds."""

    grade: Grade
    body: "TypeExpr"


TypeExpr = Unit | Qubit | Tensor | Box


# Types are compared and hashed by one walk, ``_type_tokens``, on an explicit
# stack, so a type's depth (a register's width) has no recursion limit.


def _type_tokens(ty: TypeExpr) -> tuple:
    """A type in pre-order, one token per node and one per box grade.

    Every constructor has a fixed arity, so the tokens decode to one type:
    two types are equal exactly when their tokens are.
    """
    out: list = []
    stack = [ty]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is Tensor:
            out.append(Tensor)
            stack.append(t.right)
            stack.append(t.left)
        elif cls is Box:
            out.append(Box)
            out.append(t.grade)
            stack.append(t.body)
        else:
            out.append(t)
    return tuple(out)


def tensor_of(types: list[TypeExpr] | tuple[TypeExpr, ...]) -> TypeExpr:
    """Right-nested tensor of one or more types."""
    if not types:
        raise ValueError("tensor_of needs at least one type")
    result = types[-1]
    for ty in reversed(types[:-1]):
        result = Tensor(ty, result)
    return result


def qubits_of_type(ty: TypeExpr) -> list[str]:
    """Qubit labels occurring in a type, left to right (with duplicates)."""
    out: list[str] = []
    stack = [ty]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is Tensor:
            stack.append(t.right)
            stack.append(t.left)
        elif cls is Box:
            stack.append(t.body)
        elif cls is Qubit:
            out.append(t.name)
        elif cls is not Unit:
            raise TypeError(f"not a type: {t!r}")
    return out


# ------------------------------------------------------------------ terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Star:
    """The unit value ``*``."""


@dataclass(frozen=True)
class LetStar:
    scrutinee: "TermExpr"
    body: "TermExpr"


@dataclass(frozen=True)
class GateApp:
    gate: str
    args: tuple["TermExpr", ...]


@dataclass(frozen=True)
class Pair:
    left: "TermExpr"
    right: "TermExpr"


@dataclass(frozen=True)
class LetPair:
    x: str
    y: str
    scrutinee: "TermExpr"
    body: "TermExpr"

    def __post_init__(self) -> None:
        if self.x == self.y:
            raise ValueError(f"pair binders must be distinct, got {self.x!r} twice")


@dataclass(frozen=True)
class BoxIntro:
    grade: Grade
    body: "TermExpr"


@dataclass(frozen=True)
class LetBox:
    grade: Grade
    x: str
    scrutinee: "TermExpr"
    body: "TermExpr"


TermExpr = Var | Star | LetStar | GateApp | Pair | LetPair | BoxIntro | LetBox


# ------------------------------------------------------------- contexts


@dataclass(frozen=True)
class CtxEntry:
    name: str
    grade: Grade
    type: TypeExpr


Context = tuple[CtxEntry, ...]


def make_context(entries: list[tuple[str, Grade, TypeExpr]] | Context) -> Context:
    """Build a context, checking that variable names are pairwise distinct."""
    ctx = tuple(
        e if isinstance(e, CtxEntry) else CtxEntry(e[0], e[1], e[2]) for e in entries
    )
    names = [e.name for e in ctx]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ValueError(f"duplicate context variable {dup!r}")
    return ctx


def shift_context(d: Grade, ctx: Context) -> Context:
    """Increase every grade in the context by ``d``; order and types kept."""
    return tuple(CtxEntry(e.name, e.grade + d, e.type) for e in ctx)


@dataclass(frozen=True)
class Judgement:
    ctx: Context
    term: TermExpr
    type: TypeExpr


# --------------------------------------------------------- term structure
#
# The one place that knows the shape of the term constructors: which fields
# are subterms, and which names a let binds over its last subterm (its
# body).  Every term walk goes through this table with an explicit stack,
# so no walk is limited by Python's recursion depth.

_CHILDREN = {
    Var: lambda t: (),
    Star: lambda t: (),
    LetStar: lambda t: (t.scrutinee, t.body),
    GateApp: lambda t: t.args,
    Pair: lambda t: (t.left, t.right),
    LetPair: lambda t: (t.scrutinee, t.body),
    BoxIntro: lambda t: (t.body,),
    LetBox: lambda t: (t.scrutinee, t.body),
}

_REBUILD = {
    Var: lambda t, kids, names: t,
    Star: lambda t, kids, names: t,
    LetStar: lambda t, kids, names: LetStar(kids[0], kids[1]),
    GateApp: lambda t, kids, names: GateApp(t.gate, tuple(kids)),
    Pair: lambda t, kids, names: Pair(kids[0], kids[1]),
    LetPair: lambda t, kids, names: LetPair(*(names or (t.x, t.y)), kids[0], kids[1]),
    BoxIntro: lambda t, kids, names: BoxIntro(t.grade, kids[0]),
    LetBox: lambda t, kids, names: LetBox(t.grade, *(names or (t.x,)), kids[0], kids[1]),
}

LETS = (LetStar, LetPair, LetBox)


def children(t: TermExpr) -> tuple[TermExpr, ...]:
    """Immediate subterms, left to right; a let's are (scrutinee, body)."""
    try:
        return _CHILDREN[type(t)](t)
    except KeyError:
        raise TypeError(f"not a term: {t!r}") from None


def binders(t: TermExpr) -> tuple[str, ...]:
    """Names ``t`` binds over its last child (a let's body)."""
    cls = type(t)
    if cls is LetPair:
        return (t.x, t.y)
    if cls is LetBox:
        return (t.x,)
    return ()


def rebuild(
    t: TermExpr, kids: list[TermExpr] | tuple[TermExpr, ...], names: tuple[str, ...] | None = None
) -> TermExpr:
    """``t`` with its children replaced, and its binders too if ``names`` is given."""
    return _REBUILD[type(t)](t, kids, names)


Place = tuple  # (parent, child index, parent's place), or None at the root


def positions(t: TermExpr) -> list[tuple[TermExpr, Place | None]]:
    """Every subterm of ``t`` in pre-order, each with its place in ``t``."""
    out: list[tuple[TermExpr, Place | None]] = []
    stack: list[tuple[TermExpr, Place | None]] = [(t, None)]
    while stack:
        entry = stack.pop()
        out.append(entry)
        node, up = entry
        kids = _CHILDREN[type(node)](node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], (node, i, up)))
    return out


def plug(new: TermExpr, up: Place | None) -> TermExpr:
    """The whole term with ``new`` put at the place ``up``."""
    while up is not None:
        parent, i, up = up
        kids = list(_CHILDREN[type(parent)](parent))
        kids[i] = new
        new = _REBUILD[type(parent)](parent, kids, None)
    return new


# ----------------------------------------------------- binding machinery
#
# Walks that track binder scopes push markers around a let's body: the
# scope opens once the scrutinee is done and closes after the body.


def free_occurrences(t: TermExpr) -> list[str]:
    """Free variable occurrences of ``t`` in left-to-right order.

    Repeated uses show up repeatedly; linearity checking counts on that.
    """
    out: list[str] = []
    bound: dict[str, int] = {}
    stack: list = [t]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Var:
            if not bound.get(node.name):
                out.append(node.name)
        elif cls is tuple:  # (+1 or -1, names): a scope opens or closes
            step, names = node
            for name in names:
                bound[name] = bound.get(name, 0) + step
        else:
            names = binders(node)
            if names:
                s, b = children(node)
                stack += ((-1, names), b, (1, names), s)
            else:
                stack.extend(reversed(children(node)))
    return out


def free_vars(t: TermExpr) -> list[str]:
    """Free variable names in first-occurrence order, each listed once."""
    seen: dict[str, None] = {}
    for name in free_occurrences(t):
        seen.setdefault(name)
    return list(seen)


def fresh_name(base: str, avoid: set[str]) -> str:
    """Deterministic fresh name: suffix counter on the original name."""
    return _fresh_name(base, avoid, {})


def _fresh_name(base: str, avoid: set[str], resume: dict[str, int]) -> str:
    """``fresh_name``, probing each stem from where the last call sharing ``resume`` stopped.

    That skips only taken names while ``avoid`` only grows between the calls.
    """
    if base not in avoid:
        return base
    stem = base.split("_")[0] or base
    i = resume.get(stem, 1)
    while f"{stem}_{i}" in avoid:
        i += 1
    resume[stem] = i
    return f"{stem}_{i}"


# Frame tags of the rebuilding walks below: visit a subterm, build a node
# from its children's values, or name a let's binders once its scrutinee is
# done (``freshen_binders`` only).
_VISIT, _BUILD, _BODY = range(3)


def _build(vals: list[TermExpr], node: TermExpr, n: int, names: tuple[str, ...] | None) -> None:
    kids = vals[-n:]
    del vals[-n:]
    vals.append(_REBUILD[type(node)](node, kids, names))


def subst_parallel(t: TermExpr, mapping: dict[str, TermExpr]) -> TermExpr:
    """Simultaneous capture-avoiding substitution of free variables, in one walk.

    A binder ``x`` that would capture a free name of a value still pending
    below it is renamed to a fresh ``nx`` by adding ``x ↦ Var(nx)`` to its
    body's pending map: that is renaming and then substituting at once, as
    ``x`` is no key of that map and ``nx`` avoids every key.  Each value's
    free names are found once per call.  Binder names in the result are
    guaranteed only up to alpha.
    """
    if not mapping:
        return t
    # id(v) -> (v, its free names).  Holding v keeps its id from being reused
    # by a later object, such as a renaming's ``Var``, while the walk goes on.
    free: dict[int, tuple[TermExpr, set[str]]] = {}
    vals: list[TermExpr] = []
    stack: list[tuple] = [(_VISIT, t, mapping)]
    while stack:
        frame = stack.pop()
        if frame[0] == _BUILD:
            _build(vals, frame[1], frame[2], frame[3])
            continue
        _, node, sub = frame
        if not sub:
            vals.append(node)
            continue
        if type(node) is Var:
            vals.append(sub.get(node.name, node))
            continue
        kids = children(node)
        names = binders(node)
        if not names:
            if kids:
                stack.append((_BUILD, node, len(kids), None))
                stack.extend((_VISIT, k, sub) for k in reversed(kids))
            else:
                vals.append(node)
            continue
        s, b = kids
        body_sub = {k: v for k, v in sub.items() if k not in names}
        danger: set[str] = set()
        for v in body_sub.values():
            hit = free.get(id(v))
            if hit is None:
                hit = free[id(v)] = (v, set(free_occurrences(v)))
            danger |= hit[1]
        new = names
        if not danger.isdisjoint(names):
            taken = danger | set(body_sub) | set(free_occurrences(b)) | set(names)
            for x in names:
                if x in danger:
                    taken.add(nx := fresh_name(x, taken))
                    body_sub[x] = Var(nx)
            new = tuple(body_sub[x].name if x in body_sub else x for x in names)
        stack += ((_BUILD, node, 2, new), (_VISIT, b, body_sub), (_VISIT, s, sub))
    return vals[0]


def substitute(t: TermExpr, x: str, s: TermExpr) -> TermExpr:
    """Replace the free occurrence of ``x`` in ``t`` by ``s``, capture-free."""
    return subst_parallel(t, {x: s})


def _alpha_pieces(t: TermExpr) -> list:
    """``t`` in pre-order: a piece per node head, free variable and bound use.

    A head is the node's class, then its gate name and arity or its grade.
    A free variable is its ``Var``; a bound one is its binder's de Bruijn
    level, the number of binders already in scope where that binder binds,
    a pair's ``x`` before its ``y``.  Each head fixes how many extras and
    children follow it, so the pieces decode to one term up to the names
    of its binders.
    """
    out: list = []
    env: dict[str, int | None] = {}  # name -> level of its innermost binder
    depth = 0
    stack: list = [t]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Var:
            level = env.get(node.name)
            out.append(node if level is None else level)
        elif cls is tuple:  # a let's body begins: its binders come in scope
            for x in node:
                env[x] = depth
                depth += 1
        elif cls is dict:  # a let's body ends: put back the levels it shadowed
            env.update(node)
            depth -= len(node)
        else:
            out.append(cls)
            if cls is GateApp:
                out += (node.gate, len(node.args))
            elif cls is BoxIntro or cls is LetBox:
                out.append(node.grade)
            names = binders(node)
            if names:
                stack += ({x: env.get(x) for x in names}, node.body, names, node.scrutinee)
            else:
                stack.extend(reversed(children(node)))
    return out


def alpha_eq(s: TermExpr, t: TermExpr) -> bool:
    """Structural equality up to consistent renaming of bound variables.

    That is equal pieces: they name no binder and decode to one term.
    """
    return s is t or _alpha_pieces(s) == _alpha_pieces(t)


# A constructor's key word and number of children.  A gate's word is its
# name, marked with a backtick if it is one of these words.
_KEY_WORDS = {
    LetStar: ("ls", 2), Pair: ("p", 2), LetPair: ("lp", 2), BoxIntro: ("b", 1), LetBox: ("lb", 2)
}
_MARKED = {word for word, _ in _KEY_WORDS.values()}


def alpha_key(t: TermExpr) -> str:
    """Canonical string key: alpha-equivalent terms, and only they, share one.

    It spells ``_alpha_pieces(t)``: ``*``, a free variable's name, ``!i``
    for a bound one of level ``i``, and ``(word extras children)`` for a
    node, one blank between parts.  When no name holds a blank, parenthesis
    or backtick or starts with ``!``, the key reads back to the pieces, so
    it is injective up to alpha.  That covers every parsed term: its
    variables are identifiers, and its gates identifiers or ``g[q,n]``.
    """
    out: list[str] = []
    todo: list[int] = []  # parts each open node has still to print: its head, its children
    pieces = iter(_alpha_pieces(t))
    for p in pieces:
        if p is GateApp:
            word, n = next(pieces), next(pieces)
            out.append(f"(`{word}" if word in _MARKED else f"({word}")
            todo.append(1 + n)
        elif p in _KEY_WORDS:
            word, n = _KEY_WORDS[p]
            out.append(f"({word} {next(pieces)}" if p is BoxIntro or p is LetBox else f"({word}")
            todo.append(1 + n)
        else:
            out.append("*" if p is Star else f"!{p}" if type(p) is int else p.name)
        while todo:  # a part is done: a blank before the next one, or close the node
            todo[-1] -= 1
            if todo[-1]:
                out.append(" ")
                break
            todo.pop()
            out.append(")")
    return "".join(out)


def freshen_binders(t: TermExpr, extra_avoid: set[str] | None = None) -> TermExpr:
    """Rename binders so all binders and free variables are pairwise distinct.

    Deterministic; a term already satisfying the convention (no binder
    repeats or is free in ``t`` or in ``extra_avoid``) is returned itself,
    the same object.  Otherwise one walk with pending renamings takes names
    in the order it reaches binders, a let's after its scrutinee's.
    """
    taken = set(free_vars(t)) | (extra_avoid or set())
    bound: list[str] = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        bound += binders(node)
        stack += children(node)
    if taken.isdisjoint(bound) and len(set(bound)) == len(bound):
        return t
    resume: dict[str, int] = {}
    vals: list[TermExpr] = []
    stack = [(_VISIT, t, {})]
    while stack:
        tag, node, arg = stack.pop()  # arg: a build's (arity, names), else the pending renamings
        if tag == _BUILD:
            _build(vals, node, *arg)
        elif tag == _BODY:  # the scrutinee is done: name the binders, then the body
            names = binders(node)
            new = []
            for x in names:
                taken.add(nx := _fresh_name(x, taken, resume))
                new.append(nx)
            sub = {k: v for k, v in arg.items() if k not in names}
            sub.update((x, Var(nx)) for x, nx in zip(names, new) if nx != x)
            stack += ((_BUILD, node, (2, tuple(new))), (_VISIT, node.body, sub))
        else:
            kids = children(node)
            if not kids:
                vals.append(arg.get(node.name, node) if type(node) is Var else node)
            elif binders(node):
                stack += ((_BODY, node, arg), (_VISIT, node.scrutinee, arg))
            else:
                stack.append((_BUILD, node, (len(kids), None)))
                stack.extend((_VISIT, k, arg) for k in reversed(kids))
    return vals[0]


def term_size(t: TermExpr) -> int:
    """Number of constructors in the term."""
    size = 0
    stack = [t]
    while stack:
        size += 1
        stack.extend(children(stack.pop()))
    return size
