"""Alpha-equivalence, alpha keys and type equality as they were decided twice.

Kept as the reference for ``pstt.syntax``:

* ``alpha_eq`` walks both terms side by side, with one binder-level map per
  side, and stops at the first mismatch;
* ``alpha_key`` prints a term in its own walk, with its own binder levels;
* ``types_equal`` walks two types side by side, while hashing used a
  token list;
* ``subst_parallel`` renames a capturing binder in one walk of the body and
  substitutes into the renamed body in a second, and finds every pending
  value's free names again at every binder it passes.

The package now decides each of the first three with one token walk per
term or type, and substitutes in one walk that reads each value once.
"""

from pstt.syntax import (
    Box,
    BoxIntro,
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
    binders,
    children,
    free_vars,
    fresh_name,
    rebuild,
)


def types_equal(a: TypeExpr, b: TypeExpr) -> bool:
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


_VISIT, _BUILD, _THEN = range(3)


def subst_parallel(t: TermExpr, mapping: dict[str, TermExpr]) -> TermExpr:
    """Simultaneous capture-avoiding substitution: rename, then substitute.

    Looks up ``fresh_name`` in this module's globals once per renamed binder.
    """
    if not mapping:
        return t
    vals: list[TermExpr] = []
    stack: list[tuple] = [(_VISIT, t, dict(mapping))]
    while stack:
        frame = stack.pop()
        tag = frame[0]
        if tag == _BUILD:
            _, node, n, names = frame
            kids = vals[-n:]
            del vals[-n:]
            vals.append(rebuild(node, kids, names))
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
