"""The pulse-input model: integer-sampled signals on per-qubit channels.

Objects are sequences of (grade, qubit) pairs with distinct qubits; a
morphism matches source and target entries by qubit name and carries one
integer sample array per qubit covering the half-open interval between the
source and target grades.  Composition concatenates signals; the integer
action shifts every grade.  All structural isomorphisms are identities: the
model is strict.

Morphisms also carry provenance (which gate wrote which interval); it is
schedule metadata and takes no part in morphism equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chip import ChipSpec
from ..schedule import MissingCalibration, ModelError, channel_layout
from ..syntax import TypeExpr
from .model import Model, Shape, leaf_permutation, shape_leaves


@dataclass(frozen=True)
class PulseObject:
    entries: tuple[tuple[int, str], ...]  # (grade ns, qubit), qubits distinct
    qubits: frozenset[str] = field(init=False, repr=False, compare=False)
    _grades: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        grades = {q: g for g, q in self.entries}
        if len(grades) != len(self.entries):
            raise ModelError(f"object repeats a qubit: {self.entries}")
        object.__setattr__(self, "_grades", grades)
        object.__setattr__(self, "qubits", frozenset(grades))

    def grade_of(self, qubit: str) -> int:
        return self._grades[qubit]


@dataclass(frozen=True)
class Provenance:
    gate: str
    qubit: str
    start: int
    end: int


@dataclass(frozen=True)
class PulseMorphism:
    src: PulseObject
    tgt: PulseObject
    signals: tuple[tuple[str, tuple[int, ...]], ...]  # sorted by qubit
    provenance: tuple[Provenance, ...] = field(default=(), compare=False)
    _signal: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.src.qubits != self.tgt.qubits:
            raise ModelError(
                f"source and target qubits differ: {self.src} vs {self.tgt}"
            )
        sig = dict(self.signals)
        if sig.keys() != self.src.qubits:
            raise ModelError("signals must cover exactly the object qubits")
        for q, samples in sig.items():
            lo, hi = self.src.grade_of(q), self.tgt.grade_of(q)
            if lo > hi:
                raise ModelError(f"channel {q} runs backwards: [{lo}, {hi})")
            if len(samples) != hi - lo:
                raise ModelError(
                    f"channel {q} has {len(samples)} samples for [{lo}, {hi})"
                )
        object.__setattr__(self, "_signal", sig)

    def signal(self, qubit: str) -> tuple[int, ...]:
        return self._signal[qubit]


_UNIT = PulseObject(())


def _morphism(
    src: PulseObject,
    tgt: PulseObject,
    signals: dict[str, tuple[int, ...]],
    provenance: tuple[Provenance, ...] = (),
) -> PulseMorphism:
    return PulseMorphism(src, tgt, tuple(sorted(signals.items())), provenance)


class PulseModel(Model):
    """Signals-to-a-chip model; strict, with decidable bit-exact equality."""

    def __init__(self, chip: ChipSpec):
        self.chip = chip

    # category ----------------------------------------------------------
    def obj_eq(self, a: PulseObject, b: PulseObject) -> bool:
        return a == b

    def mor_eq(self, f: PulseMorphism, g: PulseMorphism) -> bool:
        return f.src == g.src and f.tgt == g.tgt and f.signals == g.signals

    def identity(self, a: PulseObject) -> PulseMorphism:
        return _morphism(a, a, {q: () for q in a.qubits})

    def dom(self, f: PulseMorphism) -> PulseObject:
        return f.src

    def cod(self, f: PulseMorphism) -> PulseObject:
        return f.tgt

    def compose(self, g: PulseMorphism, f: PulseMorphism) -> PulseMorphism:
        if f.tgt != g.src:
            raise ModelError(f"cannot compose: {f.tgt} then {g.src}")
        signals = {q: f.signal(q) + g.signal(q) for q in f.src.qubits}
        return _morphism(f.src, g.tgt, signals, f.provenance + g.provenance)

    # monoidal ----------------------------------------------------------
    def unit(self) -> PulseObject:
        return _UNIT

    def tensor_obj(self, a: PulseObject, b: PulseObject) -> PulseObject:
        if a.qubits & b.qubits:
            raise ModelError(f"qubit collision in tensor: {sorted(a.qubits & b.qubits)}")
        return PulseObject(a.entries + b.entries)

    def tensor_mor(self, f: PulseMorphism, g: PulseMorphism) -> PulseMorphism:
        src = self.tensor_obj(f.src, g.src)
        tgt = self.tensor_obj(f.tgt, g.tgt)
        signals = dict(f.signals) | dict(g.signals)
        return _morphism(src, tgt, signals, f.provenance + g.provenance)

    def braid(self, a: PulseObject, b: PulseObject) -> PulseMorphism:
        src = self.tensor_obj(a, b)
        tgt = self.tensor_obj(b, a)
        return _morphism(src, tgt, {q: () for q in src.qubits})

    def reorder(self, src: Shape, dst: Shape) -> PulseMorphism:
        """Strictness: every structural map is an identity on signals.

        One morphism from ``src``'s object to ``dst``'s, after the same
        leaf checks the coherence construction makes.
        """
        src_leaves, dst_leaves = shape_leaves(src), shape_leaves(dst)
        leaf_permutation(self, src_leaves, dst_leaves)
        a = PulseObject(tuple(e for leaf in src_leaves for e in leaf.obj.entries))
        b = PulseObject(tuple(e for leaf in dst_leaves for e in leaf.obj.entries))
        return _morphism(a, b, {q: () for q in a.qubits})

    def assoc(self, a, b, c) -> PulseMorphism:
        return self.identity(self.tensor_obj(self.tensor_obj(a, b), c))

    def assoc_inv(self, a, b, c) -> PulseMorphism:
        return self.assoc(a, b, c)

    def lunit(self, a: PulseObject) -> PulseMorphism:
        return self.identity(a)

    def lunit_inv(self, a: PulseObject) -> PulseMorphism:
        return self.identity(a)

    def runit(self, a: PulseObject) -> PulseMorphism:
        return self.identity(a)

    def runit_inv(self, a: PulseObject) -> PulseMorphism:
        return self.identity(a)

    # action -------------------------------------------------------------
    def act_obj(self, d: int, a: PulseObject) -> PulseObject:
        if d == 0 or not a.entries:
            return a
        return PulseObject(tuple((g + d, q) for g, q in a.entries))

    def act_mor(self, d: int, f: PulseMorphism) -> PulseMorphism:
        return _morphism(
            self.act_obj(d, f.src),
            self.act_obj(d, f.tgt),
            dict(f.signals),
            tuple(
                Provenance(p.gate, p.qubit, p.start + d, p.end + d)
                for p in f.provenance
            ),
        )

    def unitor(self, a: PulseObject) -> PulseMorphism:
        return self.identity(a)

    def unitor_inv(self, a: PulseObject) -> PulseMorphism:
        return self.identity(a)

    def multiplicator(self, c: int, d: int, a: PulseObject) -> PulseMorphism:
        return self.identity(self.act_obj(c + d, a))

    def multiplicator_inv(self, c: int, d: int, a: PulseObject) -> PulseMorphism:
        return self.identity(self.act_obj(c + d, a))

    def dist_unit(self, d: int) -> PulseMorphism:
        return self.identity(self.unit())

    def dist_unit_inv(self, d: int) -> PulseMorphism:
        return self.identity(self.unit())

    def dist_tensor(self, d: int, a: PulseObject, b: PulseObject) -> PulseMorphism:
        return self.identity(self.act_obj(d, self.tensor_obj(a, b)))

    def dist_tensor_inv(self, d: int, a: PulseObject, b: PulseObject) -> PulseMorphism:
        return self.identity(self.act_obj(d, self.tensor_obj(a, b)))

    # chip ----------------------------------------------------------------
    def qubit_obj(self, qubit: str) -> PulseObject:
        if not self.chip.has_qubit(qubit):
            raise ModelError(f"unknown qubit {qubit!r}")
        return PulseObject(((0, qubit),))

    def gate_mor(self, gate: str) -> PulseMorphism:
        decl = self.chip.find_gate(gate)
        if decl is None:
            raise ModelError(f"unknown gate {gate!r}")
        cal = self.chip.find_calibration(gate)
        if cal is None:
            raise MissingCalibration(gate)
        src = PulseObject(tuple((-decl.duration, q) for q in decl.qubits))
        tgt = PulseObject(tuple((0, q) for q in decl.qubits))
        provenance = tuple(
            Provenance(gate, q, -decl.duration, 0) for q in decl.qubits
        )
        return _morphism(src, tgt, dict(cal.samples), provenance)


def type_pulse_object(ty: TypeExpr) -> PulseObject:
    """The channel layout a type denotes, without needing a chip."""
    return PulseObject(channel_layout(ty))
