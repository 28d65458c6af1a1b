"""Schedule emission, completeness validation, and JSON serialization.

Relative-time convention: the result of a qubit-typed judgement finishes at
time 0; context grades are the (usually negative) start times, and box
grades in the result type move that channel's end time.  A schedule is
complete when every channel's samples tile exactly the interval its
judgement dictates: no gaps, no overlaps.

This module owns ``ModelError`` and ``channel_layout``, the channels a
type lays out.  ``pstt.semantics`` re-exports the first and builds its
pulse objects on the second; the compiler never imports that package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

from .chip import ChipSpec
from .syntax import Box, Judgement, Qubit, Tensor, TypeExpr, Unit
from .typecheck import check, premise_shifts


class ModelError(Exception):
    """Raised when a model operation is applied to incompatible data."""


class Unschedulable(ModelError):
    """A judgement that checks but has no schedule on this chip.

    Its context or type names a qubit twice, it names a qubit the chip
    lacks, or one of its gates has no calibration.  These are user errors;
    a plain ``ModelError`` is an internal invariant breach.
    """


class MissingCalibration(Unschedulable):
    def __init__(self, gate: str):
        super().__init__(f"gate {gate!r} has no calibration")
        self.gate = gate


@dataclass(frozen=True)
class Channel:
    qubit: str
    start: int
    end: int
    samples: tuple[int, ...]


@dataclass(frozen=True)
class Schedule:
    channels: tuple[Channel, ...]  # sorted by qubit
    provenance: tuple[tuple[str, str, int, int], ...] = ()  # (gate, qubit, start, end)

    def channel(self, qubit: str) -> Channel | None:
        for ch in self.channels:
            if ch.qubit == qubit:
                return ch
        return None


@dataclass(frozen=True)
class ChannelReport:
    qubit: str
    expected_start: int | None
    expected_end: int | None
    gaps: tuple[tuple[int, int], ...]
    overlaps: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.gaps and not self.overlaps


@dataclass(frozen=True)
class ValidationReport:
    channels: tuple[ChannelReport, ...]

    @property
    def passed(self) -> bool:
        return all(ch.ok for ch in self.channels)

    def summary(self) -> str:
        bad = [ch for ch in self.channels if not ch.ok]
        if not bad:
            return f"complete ({len(self.channels)} channel(s))"
        parts = []
        for ch in bad:
            if ch.gaps:
                parts.append(f"{ch.qubit}: gaps {list(ch.gaps)}")
            if ch.overlaps:
                parts.append(f"{ch.qubit}: overlaps {list(ch.overlaps)}")
        return "; ".join(parts)


def emit(j: Judgement, chip: ChipSpec) -> Schedule:
    """Place every gate's calibration of a judgement on its channels.

    ``emit`` reuses the evidence ``j`` keeps from an earlier ``check``
    against ``chip``, or checks ``j`` itself.  It raises ``TypingError``
    when ``j`` does not check, and ``Unschedulable`` when it checks but has
    no schedule on ``chip``.  It is the package's only pulse evaluator at
    run time: ``judgementally_equal`` refutes by comparing emitted
    schedules.

    One walk over the derivation carries the absolute time ``o`` at which
    the current subterm finishes; a gate finishing at ``o`` writes its
    calibration at ``[o - duration, o)``, where its arguments finish.  Each
    gate is resolved on the chip once; a gate with no calibration is a
    delay exactly when that lookup synthesised it.  These are the offsets the
    pulse model's action gives the generic interpreter, which remains the
    reference: ``interpret`` in ``PulseModel`` yields the same channels.
    """
    evidence = check(j, chip)
    starts, ends = _channel_grades(j)
    if starts.keys() != ends.keys():
        raise ModelError(f"context qubits {sorted(starts)} differ from type qubits {sorted(ends)}")
    for q in starts:
        if not chip.has_qubit(q):
            raise Unschedulable(f"unknown qubit {q!r}")

    # per qubit: (start, end, samples) written; None samples are a delay
    writes: dict[str, list[tuple[int, int, tuple[int, ...] | None]]] = {q: [] for q in starts}
    provenance: list[tuple[str, str, int, int]] = []
    stack = [(evidence, 0)]
    delays = chip._delays  # every delay gate that checking resolved
    while stack:
        d, o = stack.pop()
        if d.rule == "gate":
            name = d.term.gate
            decl = chip.find_gate(name)
            if decl is None:
                raise ModelError(f"unknown gate {name!r}")
            cal = chip.calibrations.get(name)
            if cal is None and delays.get(name) is not decl:
                raise MissingCalibration(name)
            lo = o - decl.duration
            for q in decl.qubits:
                if q not in writes:
                    raise ModelError(f"gate {name!r} acts on {q!r}, which has no channel")
                writes[q].append((lo, o, None if cal is None else cal.samples[q]))
                provenance.append((name, q, lo, o))
            for p in d.premises:
                stack.append((p, lo))
            continue
        try:
            shifts = premise_shifts(d)
        except ValueError as exc:
            raise ModelError(str(exc)) from None
        stack += [(p, o + s) for p, s in zip(d.premises, shifts)]

    channels = tuple(
        Channel(q, starts[q], ends[q], _tile(q, starts[q], ends[q], writes[q]))
        for q in sorted(starts)
    )
    provenance.sort(key=lambda p: (p[1], p[2], p[0]))
    return Schedule(channels, tuple(provenance))


def _tile(
    qubit: str, start: int, end: int, writes: list[tuple[int, int, tuple[int, ...] | None]]
) -> tuple[int, ...]:
    """Samples of ``[start, end)`` from writes that must tile it exactly."""
    buf = [0] * (end - start)
    at = start
    for lo, hi, samples in sorted(writes, key=lambda w: (w[0], w[1])):
        if lo != at:
            kind = "gap" if lo > at else "overlap"
            raise ModelError(f"channel {qubit}: {kind} at {min(lo, at)} in [{start}, {end})")
        if samples is not None:
            buf[lo - start : hi - start] = samples
        at = hi
    if at != end:
        raise ModelError(f"channel {qubit}: writes end at {at}, not at {end}")
    return tuple(buf)


def _channel_grades(j: Judgement) -> tuple[dict[str, int], dict[str, int]]:
    """Per-qubit start grades from the context, end grades from the type."""
    starts: dict[str, int] = {}
    owners: dict[str, str] = {}
    for entry in j.ctx:
        for g, q in _layout(entry.type, f"context entry {entry.name}"):
            if q in starts:
                raise Unschedulable(
                    f"qubit {q} is named twice in the context: by {owners[q]} and by {entry.name}"
                )
            starts[q] = g + entry.grade
            owners[q] = entry.name
    ends = {q: g for g, q in _layout(j.type, "type")}
    return starts, ends


def _layout(ty: TypeExpr, where: str) -> tuple[tuple[int, str], ...]:
    """``channel_layout``, blaming ``where`` when the type has none."""
    try:
        return channel_layout(ty)
    except ModelError as exc:
        raise Unschedulable(f"{where}: {exc}") from None


def channel_layout(ty: TypeExpr) -> tuple[tuple[int, str], ...]:
    """The (grade, qubit) channels a type denotes, leaves left to right.

    Raises ``ModelError`` when the type names a qubit twice.
    """
    entries: list[tuple[int, str]] = []
    sides: list[set[str]] = []  # qubits of each finished subtree
    stack: list[tuple[TypeExpr, int, bool]] = [(ty, 0, False)]  # (type, shift, sides done)
    while stack:
        t, shift, done = stack.pop()
        cls = type(t)
        if done:
            r, l = sides.pop(), sides.pop()
            if l & r:
                raise ModelError(f"qubit collision in tensor: {sorted(l & r)}")
            small, big = sorted((l, r), key=len)
            big |= small
            sides.append(big)
        elif cls is Unit:
            sides.append(set())
        elif cls is Qubit:
            entries.append((shift, t.name))
            sides.append({t.name})
        elif cls is Tensor:
            stack += [(t, shift, True), (t.right, shift, False), (t.left, shift, False)]
        elif cls is Box:
            stack.append((t.body, shift + t.grade, False))
        else:
            raise ModelError(f"not a type: {t!r}")
    return tuple(entries)


def _expected_spans(j: Judgement) -> dict[str, tuple[int, int]]:
    """Per-qubit (start, end) the judgement dictates for its channels."""
    starts, ends = _channel_grades(j)
    spans: dict[str, tuple[int, int]] = {}
    for q in sorted(set(starts) | set(ends)):
        start = starts.get(q, ends.get(q, 0))
        end = ends.get(q, starts.get(q, 0))
        spans[q] = (start, end)
    return spans


def _interval_minus(a: tuple[int, int], b: tuple[int, int]) -> list[tuple[int, int]]:
    """Positions of half-open interval ``a`` not in ``b``."""
    out = []
    lo, hi = a
    if lo >= hi:
        return out
    if b[0] > lo:
        out.append((lo, min(hi, b[0])))
    if b[1] < hi:
        out.append((max(lo, b[1]), hi))
    return [(x, y) for x, y in out if x < y]


def validate(s: Schedule, j: Judgement) -> ValidationReport:
    """Check that the schedule tiles exactly the intervals ``j`` dictates.

    A channel certainly covers ``[start, start + min(len(samples), end -
    start-claim))`` and at most ``[start, max(...))``; nanoseconds the
    judgement demands but the channel cannot certainly supply are gaps,
    nanoseconds the channel may write outside its demanded interval are
    overlaps.
    """
    spans = _expected_spans(j)
    reports: list[ChannelReport] = []
    by_qubit: dict[str, Channel] = {}
    for ch in s.channels:
        by_qubit.setdefault(ch.qubit, ch)

    for qubit, (start, end) in spans.items():
        ch = by_qubit.get(qubit)
        if ch is None:
            gaps = [(start, end)] if end > start else []
            reports.append(ChannelReport(qubit, start, end, tuple(gaps), ()))
            continue
        sample_end = ch.start + len(ch.samples)
        certain = (ch.start, min(sample_end, ch.end))
        claimed = (ch.start, max(sample_end, ch.end))
        gaps = _interval_minus((start, end), certain)
        overlaps = _interval_minus(claimed, (start, end))
        reports.append(ChannelReport(qubit, start, end, tuple(gaps), tuple(overlaps)))

    for ch in s.channels:
        if ch.qubit not in spans and (ch.samples or ch.end > ch.start):
            hi = max(ch.end, ch.start + len(ch.samples))
            reports.append(ChannelReport(ch.qubit, None, None, (), ((ch.start, hi),)))
    return ValidationReport(tuple(reports))


# --------------------------------------------------------------- JSON I/O


# The C encoder, which ``json.dumps`` skips when asked to indent, writes
# each channel's samples one per line at their depth in the document.
_SAMPLES = json.JSONEncoder(separators=(",\n" + " " * 8, ": "))
_int = int.__repr__  # as json writes an int


def to_json(s: Schedule) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` of the schedule.

    ``doc`` maps each qubit (the last channel wins) to its ``start_ns``,
    ``end_ns`` and ``samples``, and lists the provenance records.  Its
    two-level layout is written directly.
    """
    by_qubit = {ch.qubit: ch for ch in s.channels}
    channels = []
    for q in sorted(by_qubit):
        ch = by_qubit[q]
        samples = _SAMPLES.encode(ch.samples)
        if ch.samples:
            samples = f"[\n        {samples[1:-1]}\n      ]"
        channels.append(
            f"    {_string(q)}: {{\n"
            f'      "end_ns": {_int(ch.end)},\n'
            f'      "samples": {samples},\n'
            f'      "start_ns": {_int(ch.start)}\n'
            "    }"
        )
    provenance = [
        "    {\n"
        f'      "end_ns": {_int(end)},\n'
        f'      "gate": {_string(gate)},\n'
        f'      "qubit": {_string(qubit)},\n'
        f'      "start_ns": {_int(start)}\n'
        "    }"
        for gate, qubit, start, end in s.provenance
    ]
    return (
        f'{{\n  "channels": {_block(channels, "{", "}")},\n'
        f'  "provenance": {_block(provenance, "[", "]")}\n}}\n'
    )


def _block(items: list[str], open_: str, close: str) -> str:
    """A second-level JSON object or array of already indented items."""
    if not items:
        return open_ + close
    return f"{open_}\n" + ",\n".join(items) + f"\n  {close}"


def from_json(text: str) -> Schedule:
    doc = json.loads(text)
    channels = tuple(
        Channel(
            qubit=q,
            start=rec["start_ns"],
            end=rec["end_ns"],
            samples=tuple(rec["samples"]),
        )
        for q, rec in sorted(doc.get("channels", {}).items())
    )
    provenance = tuple(
        (rec["gate"], rec["qubit"], rec["start_ns"], rec["end_ns"])
        for rec in doc.get("provenance", [])
    )
    return Schedule(channels, provenance)
