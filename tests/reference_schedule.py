"""``schedule.emit`` as it was before each gate was resolved once.

Kept as the reference for ``pstt.schedule.emit``: every gate is resolved
with ``find_gate`` and, when it has no calibration, again with
``find_calibration``; every node's premises, a gate's included, are pushed at the
times ``premise_shifts`` gives.  The helpers that lay out and tile the
channels are the package's own.
"""

from pstt.schedule import (
    Channel,
    MissingCalibration,
    ModelError,
    Schedule,
    Unschedulable,
    _channel_grades,
    _tile,
)
from pstt.typecheck import check, premise_shifts


def emit(j, chip) -> Schedule:
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
    while stack:
        d, o = stack.pop()
        if d.rule == "gate":
            name = d.term.gate
            decl = chip.find_gate(name)
            if decl is None:
                raise ModelError(f"unknown gate {name!r}")
            cal = chip.calibrations.get(name)
            if cal is None and chip.find_calibration(name) is None:
                raise MissingCalibration(name)
            lo = o - decl.duration
            for q in decl.qubits:
                if q not in writes:
                    raise ModelError(f"gate {name!r} acts on {q!r}, which has no channel")
                writes[q].append((lo, o, None if cal is None else cal.samples[q]))
                provenance.append((name, q, lo, o))
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
