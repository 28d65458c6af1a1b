"""Abstract model interface: symmetric monoidal category with a Z-action.

A model supplies objects and morphisms, a tensor, a braiding, an integer
action ``d . A`` with unitor and multiplicator isomorphisms, and per-grade
distributors witnessing that each ``d . -`` is strong monoidal.  The
interpreter drives any implementation through this interface.

Its operations raise ``ModelError``, which the compiler's ``schedule``
module owns so that it can raise it without importing this package.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from ..schedule import ModelError
from ..syntax import Box, Qubit, Tensor, TypeExpr, Unit


class Model(ABC):
    """Interface every model implements; objects/morphisms are opaque."""

    # category ----------------------------------------------------------
    @abstractmethod
    def obj_eq(self, a: Any, b: Any) -> bool: ...

    @abstractmethod
    def mor_eq(self, f: Any, g: Any) -> bool | None:
        """Morphism equality; None when the model cannot decide."""

    @abstractmethod
    def identity(self, a: Any) -> Any: ...

    @abstractmethod
    def compose(self, g: Any, f: Any) -> Any:
        """g after f."""

    @abstractmethod
    def dom(self, f: Any) -> Any: ...

    @abstractmethod
    def cod(self, f: Any) -> Any: ...

    # monoidal ----------------------------------------------------------
    @abstractmethod
    def unit(self) -> Any: ...

    @abstractmethod
    def tensor_obj(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def tensor_mor(self, f: Any, g: Any) -> Any: ...

    @abstractmethod
    def braid(self, a: Any, b: Any) -> Any:
        """A (x) B -> B (x) A."""

    @abstractmethod
    def assoc(self, a: Any, b: Any, c: Any) -> Any:
        """(A (x) B) (x) C -> A (x) (B (x) C)."""

    @abstractmethod
    def assoc_inv(self, a: Any, b: Any, c: Any) -> Any: ...

    @abstractmethod
    def lunit(self, a: Any) -> Any:
        """I (x) A -> A."""

    @abstractmethod
    def lunit_inv(self, a: Any) -> Any: ...

    @abstractmethod
    def runit(self, a: Any) -> Any:
        """A (x) I -> A."""

    @abstractmethod
    def runit_inv(self, a: Any) -> Any: ...

    # integer action ----------------------------------------------------
    @abstractmethod
    def act_obj(self, d: int, a: Any) -> Any: ...

    @abstractmethod
    def act_mor(self, d: int, f: Any) -> Any: ...

    @abstractmethod
    def unitor(self, a: Any) -> Any:
        """lambda_A : A -> 0 . A."""

    @abstractmethod
    def unitor_inv(self, a: Any) -> Any: ...

    @abstractmethod
    def multiplicator(self, c: int, d: int, a: Any) -> Any:
        """mu_{c,d,A} : c . (d . A) -> (c+d) . A."""

    @abstractmethod
    def multiplicator_inv(self, c: int, d: int, a: Any) -> Any: ...

    @abstractmethod
    def dist_unit(self, d: int) -> Any:
        """d . I -> I."""

    @abstractmethod
    def dist_unit_inv(self, d: int) -> Any: ...

    @abstractmethod
    def dist_tensor(self, d: int, a: Any, b: Any) -> Any:
        """(d . A) (x) (d . B) -> d . (A (x) B)."""

    @abstractmethod
    def dist_tensor_inv(self, d: int, a: Any, b: Any) -> Any: ...

    # chip assignment ---------------------------------------------------
    @abstractmethod
    def qubit_obj(self, qubit: str) -> Any: ...

    @abstractmethod
    def gate_mor(self, gate: str) -> Any:
        """[[G]] : -d . (q1 (x) ... (x) qn) -> q1 (x) ... (x) qn."""

    # derived helpers ---------------------------------------------------
    def reorder(self, src: "Shape", dst: "Shape") -> Any:
        """Structural isomorphism between two shapes over the same leaves.

        The default is the coherence construction: associators and unitors
        to right-nested combs, braids to permute them.  A strict model may
        override it with a direct map, keeping the leaf checks of
        ``leaf_permutation``.
        """
        f_src, _, src_objs = _to_comb(self, src)
        _, b_dst, _ = _to_comb(self, dst)
        perm = leaf_permutation(self, shape_leaves(src), shape_leaves(dst))
        return self.compose_all([f_src, _perm_comb(self, src_objs, perm), b_dst])

    def compose_all(self, morphisms: list[Any]) -> Any:
        """Compose a pipeline given first-to-last."""
        if not morphisms:
            raise ModelError("cannot compose an empty pipeline")
        out = morphisms[0]
        for f in morphisms[1:]:
            out = self.compose(f, out)
        return out

    def type_obj(self, ty: TypeExpr) -> Any:
        """The object a type denotes, built bottom-up, left before right."""
        vals: list[Any] = []
        stack: list[tuple[TypeExpr, bool]] = [(ty, False)]  # (type, sides done)
        while stack:
            t, done = stack.pop()
            cls = type(t)
            if done and cls is Tensor:
                right = vals.pop()
                vals.append(self.tensor_obj(vals.pop(), right))
            elif done:
                vals.append(self.act_obj(t.grade, vals.pop()))
            elif cls is Unit:
                vals.append(self.unit())
            elif cls is Qubit:
                vals.append(self.qubit_obj(t.name))
            elif cls is Tensor:
                stack += [(t, True), (t.right, False), (t.left, False)]
            elif cls is Box:
                stack += [(t, True), (t.body, False)]
            else:
                raise ModelError(f"not a type: {t!r}")
        return vals[0]


# ---------------------------------------------------------------- shapes
#
# A shape is the parenthesis tree of a tensor expression with named leaves;
# structural() produces the canonical isomorphism between any two shapes
# over the same leaves through the model's reorder() hook.


@dataclass(frozen=True)
class ShapeUnit:
    pass


@dataclass(frozen=True)
class ShapeLeaf:
    obj: Any
    name: str


@dataclass(frozen=True)
class ShapeNode:
    left: "Shape"
    right: "Shape"


Shape = ShapeUnit | ShapeLeaf | ShapeNode


def shape_leaves(sh: Shape) -> list[ShapeLeaf]:
    """The leaves of a shape, left to right."""
    out: list[ShapeLeaf] = []
    stack = [sh]
    while stack:
        node = stack.pop()
        if isinstance(node, ShapeNode):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, ShapeLeaf):
            out.append(node)
        elif not isinstance(node, ShapeUnit):
            raise ModelError(f"not a shape: {node!r}")
    return out


def shapes_equal(a: Shape, b: Shape) -> bool:
    """Structural equality of two shapes, without recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, ShapeNode) and isinstance(y, ShapeNode):
            stack.append((x.right, y.right))
            stack.append((x.left, y.left))
        elif isinstance(x, ShapeNode) or isinstance(y, ShapeNode) or x != y:
            return False
    return True


def shape_obj(m: Model, sh: Shape) -> Any:
    """The object a shape denotes: its leaves tensored along its tree."""
    values: list[Any] = []
    stack: list[tuple[Shape, bool]] = [(sh, False)]
    while stack:
        node, children_done = stack.pop()
        match node:
            case ShapeUnit():
                values.append(m.unit())
            case ShapeLeaf(obj, _):
                values.append(obj)
            case ShapeNode(l, r):
                if children_done:
                    right = values.pop()
                    values.append(m.tensor_obj(values.pop(), right))
                else:
                    stack += [(node, True), (r, False), (l, False)]
            case _:
                raise ModelError(f"not a shape: {node!r}")
    return values[0]


def leaf_permutation(m: Model, src: list[ShapeLeaf], dst: list[ShapeLeaf]) -> list[int]:
    """perm[j] = index in ``src`` of the leaf named as ``dst[j]``.

    Raises ModelError unless the leaves carry the same names, each once,
    with the same object on both sides.
    """
    src_names = [leaf.name for leaf in src]
    dst_names = [leaf.name for leaf in dst]
    if sorted(src_names) != sorted(dst_names):
        raise ModelError(f"leaf mismatch: {src_names} vs {dst_names}")
    index = {name: i for i, name in enumerate(src_names)}
    if len(index) != len(src_names):
        raise ModelError(f"duplicate leaf names in {src_names}")
    perm = [index[name] for name in dst_names]
    for j, i in enumerate(perm):
        if not m.obj_eq(src[i].obj, dst[j].obj):
            raise ModelError(f"leaf {dst_names[j]!r} changes object across shapes")
    return perm


def comb_obj(m: Model, objs: list[Any]) -> Any:
    if not objs:
        return m.unit()
    out = objs[-1]
    for o in reversed(objs[:-1]):
        out = m.tensor_obj(o, out)
    return out


def _merge_combs(m: Model, left: list[Any], right: list[Any]) -> tuple[Any, Any]:
    """comb(L) (x) comb(R) <-> comb(L + R), (forward, backward)."""
    if not left:
        return m.lunit(comb_obj(m, right)), m.lunit_inv(comb_obj(m, right))
    if not right:
        return m.runit(comb_obj(m, left)), m.runit_inv(comb_obj(m, left))
    if len(left) == 1:
        obj = m.tensor_obj(left[0], comb_obj(m, right))
        return m.identity(obj), m.identity(obj)
    head, rest = left[0], left[1:]
    sub_f, sub_b = _merge_combs(m, rest, right)
    rest_obj = comb_obj(m, rest)
    right_obj = comb_obj(m, right)
    fwd = m.compose(
        m.tensor_mor(m.identity(head), sub_f), m.assoc(head, rest_obj, right_obj)
    )
    bwd = m.compose(
        m.assoc_inv(head, rest_obj, right_obj), m.tensor_mor(m.identity(head), sub_b)
    )
    return fwd, bwd


def _to_comb(m: Model, sh: Shape) -> tuple[Any, Any, list[Any]]:
    """shape <-> right-nested comb of its leaves: (fwd, bwd, objs)."""
    match sh:
        case ShapeUnit():
            i = m.identity(m.unit())
            return i, i, []
        case ShapeLeaf(obj, _):
            i = m.identity(obj)
            return i, i, [obj]
        case ShapeNode(l, r):
            fl, bl, ol = _to_comb(m, l)
            fr, br, orr = _to_comb(m, r)
            mf, mb = _merge_combs(m, ol, orr)
            fwd = m.compose(mf, m.tensor_mor(fl, fr))
            bwd = m.compose(m.tensor_mor(bl, br), mb)
            return fwd, bwd, ol + orr
    raise ModelError(f"not a shape: {sh!r}")


def _swap_at(m: Model, objs: list[Any], i: int) -> Any:
    """Braid positions i and i+1 of a right-nested comb."""
    if i == 0:
        if len(objs) == 2:
            return m.braid(objs[0], objs[1])
        a, b, rest = objs[0], objs[1], objs[2:]
        rest_obj = comb_obj(m, rest)
        return m.compose_all(
            [
                m.assoc_inv(a, b, rest_obj),
                m.tensor_mor(m.braid(a, b), m.identity(rest_obj)),
                m.assoc(b, a, rest_obj),
            ]
        )
    return m.tensor_mor(m.identity(objs[0]), _swap_at(m, objs[1:], i - 1))


def _perm_comb(m: Model, objs: list[Any], perm: list[int]) -> Any:
    """comb(objs) -> comb(objs permuted); perm[j] = source index at slot j."""
    current = list(range(len(objs)))
    mor = m.identity(comb_obj(m, objs))
    for j in range(len(perm)):
        k = current.index(perm[j])
        while k > j:
            order = [objs[i] for i in current]
            mor = m.compose(_swap_at(m, order, k - 1), mor)
            current[k - 1], current[k] = current[k], current[k - 1]
            k -= 1
    return mor


def structural(m: Model, src: Shape, dst: Shape) -> Any:
    """Canonical structural isomorphism between shapes with matching leaves."""
    if shapes_equal(src, dst):
        return m.identity(shape_obj(m, src))
    return m.reorder(src, dst)
