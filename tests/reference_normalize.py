"""The normalizer as it was before each rewrite step took one walk.

Kept as the reference for ``pstt.equality.normalize``:

* ``find_rewrite`` lists every position of the term, then scans that list
  once for a beta redex, once for an eta redex and, after the eta-spine
  and unit-expansion rules, once more for a hoist site;
* ``normalize`` looks for another step after a sort pass, a whole-term
  scan and a second sort that confirm the term is normal;
* ``freshen_binders`` rebuilds every node, also when it renames nothing;
* ``expand_unit_var`` types the variables as it goes: it synthesises the
  type of every let scrutinee it passes, on every step that reaches it;
* ``eta_spine`` rescans the rest of the term for every pair or box let of
  the spine: ``count_pattern`` counts the let's repack patterns and stray
  uses of its binders, a ``positions`` scan finds the one hit, and the
  parked half calls ``free_vars`` on each later scrutinee;
* ``hoist`` renames the hoisted let's binders away from the free names of
  its siblings (``rename_binders``), as a rewriter of bare, possibly
  non-linear terms must.

``normalize`` keeps its old keywords: the judgement's context, result type
and chip, which turn on unit-variable expansion and parked eta.

The beta and eta rules and the sort pass are the package's own.
"""

from pstt import typecheck
from pstt.equality import (
    BudgetExceeded,
    NormalForm,
    RewriteStep,
    _KIND,
    _beta,
    _eta,
    _sort_pass,
    _spine,
    _wrap,
)
from pstt.syntax import (
    _BODY,
    _BUILD,
    _CHILDREN,
    _VISIT,
    Box,
    BoxIntro,
    GateApp,
    Judgement,
    LetBox,
    LetPair,
    LetStar,
    Pair,
    Star,
    Tensor,
    Unit,
    Var,
    _build,
    binders,
    children,
    free_vars,
    fresh_name,
    plug,
    rebuild,
    subst_parallel,
)
from pstt.typecheck import TypingError, infer


def positions(t):
    """Every subterm of ``t`` in pre-order, each with its place in ``t``."""
    out = []
    stack = [(t, None)]
    while stack:
        entry = stack.pop()
        out.append(entry)
        node, up = entry
        kids = _CHILDREN[type(node)](node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], (node, i, up)))
    return out


def rename_binders(t, avoid):
    """Alpha-rename a let node's binders away from ``avoid``."""
    names = binders(t)
    if avoid.isdisjoint(names):
        return t
    s, b = children(t)
    taken = set(avoid) | set(free_vars(b)) | set(names)
    ren = {}
    new = list(names)
    for i, x in enumerate(names):
        if x in avoid:
            nx = fresh_name(x, taken)
            taken.add(nx)
            ren[x] = Var(nx)
            new[i] = nx
    return rebuild(t, (s, subst_parallel(b, ren)), tuple(new))


def lift(inner, avoid, outer, i, pos):
    """Hoist the let ``inner``, child ``i`` of ``outer``, above ``outer``, renaming away from ``avoid``."""
    inner = rename_binders(inner, avoid)
    s, b = children(inner)
    kids = list(children(outer))
    kids[i] = b
    return f"hoist-{_KIND[type(inner)]}-from-{pos}", rebuild(inner, (s, rebuild(outer, kids)))


def hoist(t):
    match t:
        case Pair(inner, r) if type(inner) in _KIND:
            return lift(inner, set(free_vars(r)), t, 0, "pair-left")
        case Pair(l, inner) if type(inner) in _KIND:
            return lift(inner, set(free_vars(l)), t, 1, "pair-right")
        case GateApp(_, args):
            for i, a in enumerate(args):
                if type(a) in _KIND:
                    others = set()
                    for j, other in enumerate(args):
                        if j != i:
                            others.update(free_vars(other))
                    return lift(a, others, t, i, "gate")
        case BoxIntro(_, inner) if type(inner) in _KIND:
            return lift(inner, set(), t, 0, "box")
        case LetStar(inner, u) | LetPair(_, _, inner, u) | LetBox(_, _, inner, u) if type(inner) in _KIND:
            return lift(inner, set(free_vars(u)), t, 0, f"{_KIND[type(t)]}-scrutinee")
    return None


def expand_unit_var(t, env, chip):
    """Expand the leftmost unit-typed variable not already a let-* scrutinee.

    The variable axiom types every variable at grade 0 in its own node, so
    this instance of the unit eta rule is valid in any enclosing judgement.
    A let's binders take their types from the checker's synthesis of the
    scrutinee, once the scrutinee holds no candidate.
    """
    # Entries are (subterm, env, place, False), or (let, env, place, True)
    # for a let whose body waits for the types of the let's binders.
    stack = [(t, env, None, False)]
    while stack:
        node, env, up, is_body = stack.pop()
        if is_body:  # node is the let; bind its binders, then visit its body
            try:
                sty = infer(node.scrutinee, env, chip).type
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


def count_pattern(t, pattern, names):
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


def eta_spine(t, recheck):
    """Pair/box eta across the let prefix: a deep exact repack, or a parked repack at the core."""
    lets, core = _spine(t)
    for i, node in enumerate(lets):
        if not isinstance(node, (LetPair, LetBox)):
            continue
        names = set(binders(node))
        scrut = node.scrutinee

        # Deep exact repack over the remainder of the term.
        match node:
            case LetPair(x, y, _, _):
                pattern = Pair(Var(x), Var(y))
                rule = "eta-pair"
            case LetBox(d, x, _, _):
                pattern = BoxIntro(d, Var(x))
                rule = "eta-box"
        remainder = node.body
        hits, strays = count_pattern(remainder, pattern, names)
        if hits == 1 and strays == 0:
            spot = next(up for sub, up in positions(remainder) if sub == pattern)
            return rule, _wrap(lets[:i], plug(scrut, spot))

        # Parked repack at the core position.
        if recheck is None:
            continue
        parked = {}
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

        def slot_ok(slot, name):
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


def find_rewrite(t, env, chip, recheck):
    """The next rewrite: the outermost-leftmost hit of the first rule family that has one."""
    spots = positions(t)
    for local in (_beta, _eta):
        for node, up in spots:
            hit = local(node)
            if hit is not None:
                return RewriteStep(hit[0], plug(hit[1], up))
    hit = eta_spine(t, recheck)
    if hit is not None:
        return RewriteStep(*hit)
    if env is not None and chip is not None:
        expanded = expand_unit_var(t, env, chip)
        if expanded is not None:
            return RewriteStep("eta-unit", expanded)
    for node, up in spots:
        hit = hoist(node)
        if hit is not None:
            return RewriteStep(hit[0], plug(hit[1], up))
    return None


def freshen_binders(t, extra_avoid=None):
    """Rename binders so all binders and free variables are pairwise distinct."""
    taken = set(free_vars(t)) | (extra_avoid or set())
    vals = []
    stack = [(_VISIT, t)]
    while stack:
        frame = stack.pop()
        tag, node = frame[0], frame[1]
        if tag == _BUILD:
            _build(vals, node, frame[2], frame[3])
        elif tag == _BODY:
            names = binders(node)
            new = []
            for x in names:
                nx = fresh_name(x, taken)
                taken.add(nx)
                new.append(nx)
            ren = {x: Var(nx) for x, nx in zip(names, new) if nx != x}
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


def rule_env(context, result_type, chip):
    """The unit-expansion environment and the parked-eta recheck ``normalize`` derives."""
    env = {e.name: e.type for e in context} if context is not None else None
    recheck = None
    if context is not None and result_type is not None and chip is not None:

        def recheck(t2):
            try:
                typecheck.check(Judgement(context, t2, result_type), chip)
                return True
            except TypingError:
                return False

    return env, recheck


def normalize(term, *, budget=10_000, context=None, result_type=None, chip=None):
    """Rewrite to the canonical form; raises BudgetExceeded if it runs long."""
    env, recheck = rule_env(context, result_type, chip)

    def find_step(t):
        return find_rewrite(t, env, chip, recheck) or _sort_pass(t)

    t = freshen_binders(term)
    steps = []
    for _ in range(budget):
        found = find_step(t)
        if found is None:
            return NormalForm(t, tuple(steps))
        steps.append(found)
        t = found.result
    if find_step(t) is None:
        return NormalForm(t, tuple(steps))
    raise BudgetExceeded(t, budget)
