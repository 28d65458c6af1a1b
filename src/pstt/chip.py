"""Quantum-chip descriptions: qubits, gates, durations and calibrations.

A chip file is a JSON object::

    {
      "qubits": ["q1", "q2"],
      "gates": [{"name": "H1", "qubits": ["q1"], "duration_ns": 20}],
      "calibrations": {"H1": {"q1": [1, 2, ...]}},
      "delay_gates_enabled": true            # optional, defaults to true
    }

Calibration samples are signed 32-bit integers, one per nanosecond, ordered
from relative time ``-duration`` to ``-1`` (the gate finishes at time 0).
Amplitudes are fixed-point: a sample of 1_000_000 means 1.0 hardware unit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property

from .syntax import Qubit, TypeExpr, tensor_of

QubitId = str

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1
_DELAY = re.compile(r"delay\[([A-Za-z_][A-Za-z0-9_]*),([0-9]+)\]\Z")


class ChipError(ValueError):
    """Raised for malformed chip files or invalid chip data."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class GateDecl:
    name: str
    qubits: tuple[QubitId, ...]
    duration: int

    def __post_init__(self) -> None:
        if not self.qubits:
            raise ChipError(f"gate {self.name!r} must act on at least one qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise ChipError(f"gate {self.name!r} repeats a qubit in its tuple")
        if self.duration < 0:
            raise ChipError(f"gate {self.name!r} has negative duration")

    @cached_property
    def arg_types(self) -> tuple[Qubit, ...]:
        """The type of each argument: one ``Qubit`` per qubit, in order."""
        return tuple(Qubit(q) for q in self.qubits)

    @cached_property
    def type(self) -> TypeExpr:
        """The result type: the tensor of the argument types."""
        return tensor_of(self.arg_types)


@dataclass(frozen=True)
class Calibration:
    gate: str
    samples: dict[QubitId, tuple[int, ...]] = field(compare=True)


@dataclass(frozen=True)
class ChipSpec:
    qubits: tuple[QubitId, ...]
    gates: tuple[GateDecl, ...]
    calibrations: dict[str, Calibration]
    delay_gates_enabled: bool = True
    _gate_index: dict[str, GateDecl] = field(init=False, repr=False, compare=False)
    _qubit_set: frozenset[QubitId] = field(init=False, repr=False, compare=False)
    # delay gates synthesised so far, by name
    _delays: dict[str, GateDecl] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.qubits)) != len(self.qubits):
            raise ChipError("duplicate qubit name")
        for q in self.qubits:
            if not _IDENT.match(q):
                raise ChipError(f"invalid qubit name {q!r}")
        names = [g.name for g in self.gates]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ChipError(f"duplicate gate name {dup!r}")
        qubit_set = frozenset(self.qubits)
        for g in self.gates:
            if not _IDENT.match(g.name):
                raise ChipError(f"invalid gate name {g.name!r}")
            for q in g.qubits:
                if q not in qubit_set:
                    raise ChipError(f"gate {g.name!r} references undeclared qubit {q!r}")
        by_name = {g.name: g for g in self.gates}
        for name, cal in self.calibrations.items():
            if name != cal.gate:
                raise ChipError(f"calibration keyed {name!r} describes gate {cal.gate!r}")
            decl = by_name.get(name)
            if decl is None:
                raise ChipError(f"calibration for undeclared gate {name!r}")
            if set(cal.samples) != set(decl.qubits):
                raise ChipError(
                    f"calibration for {name!r} must cover exactly qubits {list(decl.qubits)}"
                )
            for q, arr in cal.samples.items():
                if len(arr) != decl.duration:
                    raise ChipError(
                        f"calibration for {name!r} on {q!r} has {len(arr)} samples,"
                        f" expected {decl.duration}"
                    )
                for v in arr:
                    if not (_I32_MIN <= v <= _I32_MAX):
                        raise ChipError(f"calibration sample {v} out of 32-bit range")
        object.__setattr__(self, "_gate_index", by_name)
        object.__setattr__(self, "_qubit_set", qubit_set)
        object.__setattr__(self, "_delays", {})

    # ---------------------------------------------------------- lookups

    def has_qubit(self, q: QubitId) -> bool:
        return q in self._qubit_set

    def _delay(self, name: str) -> GateDecl | None:
        """The delay gate ``name`` names, synthesised on its first lookup."""
        decl = self._delays.get(name)
        if decl is None and self.delay_gates_enabled and (parsed := parse_delay_name(name)):
            q, d = parsed
            if self.has_qubit(q) and d >= 1:
                decl = self._delays[name] = GateDecl(name, (q,), d)
        return decl

    def find_gate(self, name: str) -> GateDecl | None:
        """Resolve a gate name, synthesising delay gates on demand."""
        decl = self._gate_index.get(name)
        return self._delay(name) if decl is None else decl

    def find_calibration(self, name: str) -> Calibration | None:
        cal = self.calibrations.get(name)
        if cal is None and (decl := self._delay(name)) is not None:
            cal = Calibration(name, {decl.qubits[0]: (0,) * decl.duration})
        return cal


def parse_delay_name(name: str) -> tuple[QubitId, int] | None:
    """Split a synthetic delay gate name ``delay[q,d]`` into its pieces."""
    m = _DELAY.match(name)
    if m is None:
        return None
    return m.group(1), int(m.group(2))


def delay_gate(chip: ChipSpec, qubit: QubitId, duration: int) -> tuple[GateDecl, Calibration]:
    """Synthesise the all-zero delay gate ``delay[qubit,duration]``."""
    if not chip.delay_gates_enabled:
        raise ChipError("delay gates are disabled for this chip")
    if not chip.has_qubit(qubit):
        raise ChipError(f"unknown qubit {qubit!r}")
    if duration < 1:
        raise ChipError(f"delay duration must be >= 1, got {duration}")
    name = f"delay[{qubit},{duration}]"
    return chip.find_gate(name), chip.find_calibration(name)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ChipError(message)


def parse_chip_spec(text: str) -> ChipSpec:
    """Parse and validate a chip-spec JSON document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChipError(exc.msg, line=exc.lineno, col=exc.colno) from exc

    _expect(isinstance(raw, dict), "chip spec must be a JSON object")
    _expect(isinstance(raw.get("qubits"), list), '"qubits" must be a list of strings')
    qubits = raw["qubits"]
    _expect(all(isinstance(q, str) for q in qubits), "qubit names must be strings")

    gates_raw = raw.get("gates", [])
    _expect(isinstance(gates_raw, list), '"gates" must be a list')
    gates = []
    for g in gates_raw:
        _expect(isinstance(g, dict), "each gate must be an object")
        _expect(isinstance(g.get("name"), str), "gate name must be a string")
        _expect(
            isinstance(g.get("qubits"), list)
            and all(isinstance(q, str) for q in g["qubits"]),
            f'gate {g.get("name")!r}: "qubits" must be a list of strings',
        )
        _expect(
            isinstance(g.get("duration_ns"), int) and not isinstance(g["duration_ns"], bool),
            f'gate {g.get("name")!r}: "duration_ns" must be an integer',
        )
        gates.append(GateDecl(g["name"], tuple(g["qubits"]), g["duration_ns"]))

    cals_raw = raw.get("calibrations", {})
    _expect(isinstance(cals_raw, dict), '"calibrations" must be an object')
    calibrations: dict[str, Calibration] = {}
    for name, per_qubit in cals_raw.items():
        _expect(isinstance(per_qubit, dict), f"calibration {name!r} must be an object")
        samples = {}
        for q, arr in per_qubit.items():
            _expect(
                isinstance(arr, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in arr),
                f"calibration {name!r} on {q!r} must be a list of integers",
            )
            samples[q] = tuple(arr)
        calibrations[name] = Calibration(gate=name, samples=samples)

    enabled = raw.get("delay_gates_enabled", True)
    _expect(isinstance(enabled, bool), '"delay_gates_enabled" must be a boolean')

    return ChipSpec(
        qubits=tuple(qubits),
        gates=tuple(gates),
        calibrations=calibrations,
        delay_gates_enabled=enabled,
    )
