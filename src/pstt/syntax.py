"""Term, type and context syntax for the pulse-schedule language.

Terms form a linear calculus: unit, tensor pairs, gate applications, and a
time-shift modality indexed by an integer grade (nanoseconds).  Contexts
annotate every variable with a grade.  Everything here is immutable value
data; binding, capture-avoiding substitution and alpha-equivalence live in
this module so every other layer can rely on them.
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


@dataclass(frozen=True, eq=False)
class Tensor:
    left: "TypeExpr"
    right: "TypeExpr"

    def __eq__(self, other: object) -> bool:
        if type(other) is not Tensor:
            return NotImplemented
        return _types_equal(self, other)

    def __hash__(self) -> int:
        return hash(_type_tokens(self))


@dataclass(frozen=True, eq=False)
class Box:
    """Time-shifted type ``[d] A``: an A displaced d nanoseconds."""

    grade: Grade
    body: "TypeExpr"

    def __eq__(self, other: object) -> bool:
        if type(other) is not Box:
            return NotImplemented
        return _types_equal(self, other)

    def __hash__(self) -> int:
        return hash(_type_tokens(self))


TypeExpr = Unit | Qubit | Tensor | Box


# Type equality and hashing walk explicit stacks, so a type's depth (a
# register's width) is not bounded by the recursion limit.


def _types_equal(a: TypeExpr, b: TypeExpr) -> bool:
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        cls = type(x)
        if cls is not type(y):
            return False
        if cls is Tensor:
            stack.append((x.right, y.right))
            stack.append((x.left, y.left))
        elif cls is Qubit:
            if x.name != y.name:
                return False
        elif cls is Box:
            if x.grade != y.grade:
                return False
            stack.append((x.body, y.body))
        elif cls is not Unit and not x == y:
            return False
    return True


def _type_tokens(ty: TypeExpr) -> tuple:
    """A type in pre-order, one token per node and one per box grade.

    Every constructor has a fixed arity, so equal types give equal tokens.
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
    if base not in avoid:
        return base
    stem = base.split("_")[0] or base
    i = 1
    while f"{stem}_{i}" in avoid:
        i += 1
    return f"{stem}_{i}"


# Frame tags of the rebuilding walks below.
_VISIT, _BUILD, _THEN, _BODY = range(4)


def _build(vals: list[TermExpr], node: TermExpr, n: int, names: tuple[str, ...] | None) -> None:
    kids = vals[-n:]
    del vals[-n:]
    vals.append(_REBUILD[type(node)](node, kids, names))


def subst_parallel(t: TermExpr, mapping: dict[str, TermExpr]) -> TermExpr:
    """Simultaneous capture-avoiding substitution of free variables."""
    if not mapping:
        return t
    vals: list[TermExpr] = []
    stack: list[tuple] = [(_VISIT, t, dict(mapping))]
    while stack:
        frame = stack.pop()
        tag = frame[0]
        if tag == _BUILD:
            _build(vals, frame[1], frame[2], frame[3])
            continue
        if tag == _THEN:  # substitute into the value just computed
            stack.append((_VISIT, vals.pop(), frame[1]))
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
            danger.update(free_vars(v))
        new = names
        if not danger.isdisjoint(names):
            # A fresh binder must not collide with pending substitution
            # keys either, or the later pass would rewrite it.
            taken = danger | set(body_sub) | set(free_vars(b)) | set(names)
            renamed = []
            for x in names:
                if x in danger:
                    x = fresh_name(x, taken)
                    taken.add(x)
                renamed.append(x)
            new = tuple(renamed)
        stack.append((_BUILD, node, 2, new))
        if new != names:
            stack.append((_THEN, body_sub))
            ren: dict[str, TermExpr] = {x: Var(nx) for x, nx in zip(names, new) if nx != x}
            stack.append((_VISIT, b, ren))
        else:
            stack.append((_VISIT, b, body_sub))
        stack.append((_VISIT, s, sub))
    return vals[0]


def substitute(t: TermExpr, x: str, s: TermExpr) -> TermExpr:
    """Replace the free occurrence of ``x`` in ``t`` by ``s``, capture-free."""
    return subst_parallel(t, {x: s})


def _open(env: dict[str, int], names: tuple[str, ...], depth: int) -> None:
    """Bind ``names`` to the binder levels ``depth``, ``depth + 1``, ..."""
    for i, x in enumerate(names):
        env[x] = depth + i


def _close(env: dict[str, int], saved: list[tuple[str, int | None]]) -> None:
    """Put back the levels ``_open`` shadowed."""
    for x, old in saved:
        if old is None:
            del env[x]
        else:
            env[x] = old


def alpha_eq(s: TermExpr, t: TermExpr) -> bool:
    """Structural equality up to consistent renaming of bound variables."""
    env_s: dict[str, int] = {}
    env_t: dict[str, int] = {}
    depth = 0
    stack: list = [(s, t)]
    while stack:
        a, b = stack.pop()
        cls = type(a)
        if cls is str:  # a binder scope opens or closes
            if a == "open":
                _open(env_s, b[0], depth)
                _open(env_t, b[1], depth)
                depth += len(b[0])
            else:
                _close(env_s, b[0])
                _close(env_t, b[1])
                depth -= len(b[0])
            continue
        if cls is not type(b):
            return False
        if cls is Var:
            da, db = env_s.get(a.name), env_t.get(b.name)
            if da != db or (da is None and a.name != b.name):
                return False
            continue
        if cls is GateApp:
            if a.gate != b.gate or len(a.args) != len(b.args):
                return False
        elif cls is BoxIntro or cls is LetBox:
            if a.grade != b.grade:
                return False
        names_a = binders(a)
        if names_a:
            names_b = binders(b)
            saved = ([(x, env_s.get(x)) for x in names_a], [(y, env_t.get(y)) for y in names_b])
            stack += (
                ("close", saved),
                (a.body, b.body),
                ("open", (names_a, names_b)),
                (a.scrutinee, b.scrutinee),
            )
        else:
            stack.extend(zip(reversed(children(a)), reversed(children(b))))
    return True


_KEY_HEAD = {
    LetStar: lambda t: "(ls ",
    GateApp: lambda t: f"({t.gate} ",
    Pair: lambda t: "(p ",
    LetPair: lambda t: "(lp ",
    BoxIntro: lambda t: f"(b {t.grade} ",
    LetBox: lambda t: f"(lb {t.grade} ",
}


def alpha_key(t: TermExpr) -> str:
    """Canonical string key: alpha-equivalent terms get identical keys."""
    env: dict[str, int] = {}
    depth = 0
    out: list[str] = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        cls = type(item)
        if cls is str:
            out.append(item)
        elif cls is Var:
            i = env.get(item.name)
            out.append(item.name if i is None else f"!{i}")
        elif cls is Star:
            out.append("*")
        elif cls is tuple:  # ("open", names) or ("close", saved): a binder scope
            if item[0] == "open":
                _open(env, item[1], depth)
                depth += len(item[1])
            else:
                _close(env, item[1])
                depth -= len(item[1])
        else:
            out.append(_KEY_HEAD[cls](item))
            stack.append(")")
            names = binders(item)
            if names:
                saved = [(x, env.get(x)) for x in names]
                stack += (("close", saved), item.body, ("open", names), " ", item.scrutinee)
            else:
                kids = children(item)
                for i in range(len(kids) - 1, 0, -1):
                    stack += (kids[i], " ")
                stack.append(kids[0])
    return "".join(out)


def freshen_binders(t: TermExpr, extra_avoid: set[str] | None = None) -> TermExpr:
    """Rename binders so all binders and free variables are pairwise distinct.

    Deterministic; a term already satisfying the convention (no binder
    repeats or is free in ``t`` or in ``extra_avoid``) is returned itself,
    the same object.  Names are taken in the order the binders are reached,
    a let's after its scrutinee's.
    """
    taken = set(free_vars(t)) | (extra_avoid or set())
    bound = [x for node, _ in positions(t) for x in binders(node)]
    if taken.isdisjoint(bound) and len(set(bound)) == len(bound):
        return t
    vals: list[TermExpr] = []
    stack: list[tuple] = [(_VISIT, t)]
    while stack:
        frame = stack.pop()
        tag, node = frame[0], frame[1]
        if tag == _BUILD:
            _build(vals, node, frame[2], frame[3])
        elif tag == _BODY:  # the scrutinee is done: name the binders, then the body
            names = binders(node)
            new = []
            for x in names:
                nx = fresh_name(x, taken)
                taken.add(nx)
                new.append(nx)
            ren: dict[str, TermExpr] = {x: Var(nx) for x, nx in zip(names, new) if nx != x}
            stack.append((_BUILD, node, 2, tuple(new)))
            stack.append((_VISIT, subst_parallel(node.body, ren)))
        else:
            kids = children(node)
            if not kids:
                vals.append(node)
            elif binders(node):
                stack += ((_BODY, node), (_VISIT, node.scrutinee))
            else:
                stack.append((_BUILD, node, len(kids), None))
                stack.extend((_VISIT, k) for k in reversed(kids))
    return vals[0]


def term_size(t: TermExpr) -> int:
    """Number of constructors in the term."""
    size = 0
    stack = [t]
    while stack:
        size += 1
        stack.extend(children(stack.pop()))
    return size
