"""Seeded request generators for the pstt benchmark, and their references.

A workload is a chip description (a JSON-ready dict) plus a pool of
requests.  pstt only ever sees the chip's JSON text and each request's
``.pstt`` source text.  Every schedule request also records, per channel,
the gate sequence the generator wrote, so the expected schedule can be
rebuilt from the chip's calibration arrays without calling pstt.  Every
equality request records its answer, known by construction.

Only the ``equiv`` pool touches pstt (its cores come from
``pstt.testkit.gen_judgement``), and only while the pool is generated.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

FIXTURE_CHIP = Path(__file__).with_name("fixture_chip.json")

WORKLOADS = ("wide", "deep", "equiv")

# wide: a synthetic chip with one single-qubit gate per qubit.
WIDE_QUBITS = 16
WIDE_WIDTHS = tuple(range(4, 13))
WIDE_UNITS = tuple(range(0, 4))

# deep: segments per program, gates per chain, and the time every chain of
# a segment is padded to.  The nesting depth of a program is about
# max(DEEP_SEGMENTS) + DEEP_CHAIN + 3 terms, far below the ~300 nested gates
# at which the recursive parser fails under Python's default recursion
# limit.  Sizes vary so that request times spread over a range: with one
# size for all, the median only tells which of the host's fast and slow
# spells filled more of the run.
DEEP_SEGMENTS = tuple(range(4, 13))
DEEP_CHAIN = 10
DEEP_MAX_DELAY = 30
DEEP_SEGMENT_NS = DEEP_CHAIN * DEEP_MAX_DELAY + 20

# equiv: testkit core depths and unit-let spine lengths.
EQUIV_DEPTHS = (4, 5, 6)
EQUIV_SPINES = tuple(range(4, 21))
# Refuted pairs are interpreted, which grows steeply with the unit entries
# in the context; they take short spines so that they do not form a
# separate slow class that p90 would straddle.
EQUIV_REFUTED_EVERY = 8
EQUIV_REFUTED_SPINES = tuple(range(4, 9))
# Cores with more lets are drawn again: each core let is hoisted into the
# spine and sorted with it, and without a cap the largest depth-6 cores
# under a 20-let spine take seconds per query.
EQUIV_CORE_MAX_LETS = 3

EQUAL = "Equal"
REFUTED = "NotEqualBySemantics"
UNKNOWN = "Unknown"

_DELAY = re.compile(r"delay\[[A-Za-z_][A-Za-z0-9_]*,([0-9]+)\]\Z")


@dataclass(frozen=True)
class ChannelPlan:
    """What the generator wrote on one qubit: gates in time order."""

    qubit: str
    end: int
    gates: tuple[str, ...]


@dataclass(frozen=True)
class Request:
    text: str
    channels: tuple[ChannelPlan, ...] = ()  # schedule requests, sorted by qubit
    verdict: str = ""  # equality requests: the known answer


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"pstt-bench/{name}/{seed}")


# ----------------------------------------------------------------- reference


def gate_samples(chip_doc: dict, gate: str, qubit: str) -> list[int]:
    """One gate's samples on one qubit, read from the chip document."""
    m = _DELAY.match(gate)
    if m is not None:
        return [0] * int(m.group(1))
    return chip_doc["calibrations"][gate][qubit]


def expected_schedule(
    req: Request, chip_doc: dict
) -> tuple[list[tuple[str, int, int, tuple[int, ...]]], list[tuple[str, str, int, int]]]:
    """Channels ``(qubit, start, end, samples)`` and sorted provenance.

    A channel's samples are its gates' calibration arrays laid end to end,
    finishing at the channel's declared end time.
    """
    channels = []
    provenance = []
    for plan in req.channels:
        samples: list[int] = []
        for gate in plan.gates:
            samples.extend(gate_samples(chip_doc, gate, plan.qubit))
        start = plan.end - len(samples)
        t = start
        for gate in plan.gates:
            n = len(gate_samples(chip_doc, gate, plan.qubit))
            provenance.append((gate, plan.qubit, t, t + n))
            t += n
        channels.append((plan.qubit, start, plan.end, tuple(samples)))
    provenance.sort(key=lambda p: (p[1], p[2], p[0]))
    return channels, provenance


# ---------------------------------------------------------------------- wide


def wide_chip(rng: random.Random) -> dict:
    qubits = [f"q{i}" for i in range(WIDE_QUBITS)]
    gates, cals = [], {}
    for i, q in enumerate(qubits):
        duration = rng.randint(8, 40)
        gates.append({"name": f"X{i}", "qubits": [q], "duration_ns": duration})
        cals[f"X{i}"] = {q: [rng.randint(-32768, 32767) for _ in range(duration)]}
    return {"qubits": qubits, "gates": gates, "calibrations": cals}


def wide_request(rng: random.Random, k: int, chip_doc: dict) -> Request:
    """A parallel layer ``(X_a(x_a), (X_b(x_b), ...))`` under unit lets.

    Width and unit count cycle through every combination, so any run of
    consecutive requests holds nearly the same mix; the qubits, their pair
    order and the context order are drawn at random.
    """
    width = WIDE_WIDTHS[k % len(WIDE_WIDTHS)]
    units = WIDE_UNITS[(k // len(WIDE_WIDTHS)) % len(WIDE_UNITS)]
    duration = {g["qubits"][0]: g["duration_ns"] for g in chip_doc["gates"]}
    picked = rng.sample(range(WIDE_QUBITS), width)
    entries = [f"x{i}:^{-duration[f'q{i}']} q{i}" for i in picked]
    rng.shuffle(entries)
    for u in range(units):
        entries.insert(rng.randrange(len(entries) + 1), f"u{u}:^{rng.randint(-60, 60)} 1")
    term = f"X{picked[-1]}(x{picked[-1]})"
    for i in reversed(picked[:-1]):
        term = f"(X{i}(x{i}), {term})"
    term = "".join(f"let * = u{u} in " for u in range(units)) + term
    type_ = " * ".join(f"q{i}" for i in picked)
    text = f"schedule wide{k} ({', '.join(entries)}) : {type_} = {term}\n"
    channels = tuple(
        ChannelPlan(f"q{i}", 0, (f"X{i}",)) for i in sorted(picked, key=lambda i: f"q{i}")
    )
    return Request(text, channels)


# ---------------------------------------------------------------------- deep


def _chain(
    rng: random.Random, qubit: str, arg: str, binder: str | None, gates_out: list[str]
) -> str:
    """DEEP_CHAIN random gates on ``qubit`` padded to DEEP_SEGMENT_NS.

    With a ``binder`` the chain is split by a box re-timing,
    ``let box[d] r = box[d] INNER in OUTER(r)``, which leaves absolute
    times unchanged.
    """
    singles = {"q1": (("H1", 20), ("K1", 20)), "q2": (("H2", 24),)}[qubit]
    gates: list[tuple[str, int]] = []
    for _ in range(DEEP_CHAIN):
        if rng.random() < 0.25:
            d = rng.randint(1, DEEP_MAX_DELAY)
            gates.append((f"delay[{qubit},{d}]", d))
        else:
            gates.append(rng.choice(singles))
    pad = DEEP_SEGMENT_NS - sum(d for _, d in gates)
    gates.insert(rng.randrange(len(gates) + 1), (f"delay[{qubit},{pad}]", pad))
    gates_out.extend(g for g, _ in gates)

    def apply(names: list[str], inner: str) -> str:
        for g in names:
            inner = f"{g}({inner})"
        return inner

    names = [g for g, _ in gates]
    if binder is not None:
        cut = rng.randrange(1, len(names))
        d = rng.randint(-60, 60)
        return f"let box[{d}] {binder} = box[{d}] {apply(names[:cut], arg)} in {apply(names[cut:], binder)}"
    return apply(names, arg)


def deep_request(rng: random.Random, k: int) -> Request:
    """Segments of H1/K1/H2 chains joined by ``let (a, b) = CX(...) in``.

    The segment count cycles with ``k``.  One chain per segment is
    re-timed, and the whole result is boxed.
    """
    segments = DEEP_SEGMENTS[k % len(DEEP_SEGMENTS)]
    seq: dict[str, list[str]] = {"q1": [], "q2": []}
    x, y = "x", "y"
    parts = []
    for s in range(segments):
        retimed = rng.choice(("q1", "q2"))
        c1 = _chain(rng, "q1", x, f"r{s}" if retimed == "q1" else None, seq["q1"])
        c2 = _chain(rng, "q2", y, f"r{s}" if retimed == "q2" else None, seq["q2"])
        if s == segments - 1:
            parts.append(f"({c1}, {c2})")
        else:
            parts.append(f"let (a{s}, b{s}) = CX({c1}, {c2}) in ")
            seq["q1"].append("CX")
            seq["q2"].append("CX")
            x, y = f"a{s}", f"b{s}"
    total = segments * DEEP_SEGMENT_NS + (segments - 1) * 120
    end = rng.randint(-80, 80)
    type_, term = f"[{end}] (q1 * q2)", f"box[{end}] ({''.join(parts)})"
    start = end - total
    text = f"schedule deep{k} (x:^{start} q1, y:^{start} q2) : {type_} = {term}\n"
    channels = (ChannelPlan("q1", end, tuple(seq["q1"])), ChannelPlan("q2", end, tuple(seq["q2"])))
    return Request(text, channels)


# --------------------------------------------------------------------- equiv


def equiv_request(rng: random.Random, k: int, chip, testkit, surface) -> Request:
    """A testkit core under a unit-let spine, reversed against sorted.

    The spine binds context units ``u00 .. uNN``; permuting independent
    unit lets is a judgemental equality, so the pair is ``Equal``.  Every
    EQUIV_REFUTED_EVERY-th pair also turns one ``H1`` of the sorted side
    into ``K1``: both gates take 20 ns on q1 but have different
    calibrations, so the pair is ``NotEqualBySemantics``.
    """
    spine = EQUIV_SPINES[k % len(EQUIV_SPINES)]
    depth = EQUIV_DEPTHS[(k // len(EQUIV_SPINES)) % len(EQUIV_DEPTHS)]
    refuted = k % EQUIV_REFUTED_EVERY == EQUIV_REFUTED_EVERY - 1
    if refuted:
        spine = EQUIV_REFUTED_SPINES[(k // EQUIV_REFUTED_EVERY) % len(EQUIV_REFUTED_SPINES)]
    cfg = testkit.GenConfig(chip=chip, max_depth=depth)
    for _ in range(500):
        core = testkit.gen_judgement(cfg, rng=rng)
        core_text = surface.print_term(core.term)
        if core_text.count("let ") <= EQUIV_CORE_MAX_LETS and (not refuted or "H1(" in core_text):
            break
    else:
        raise RuntimeError("no small generated core contains H1")
    other = core_text
    if refuted:
        hits = [m.start() for m in re.finditer(r"H1\(", core_text)]
        at = rng.choice(hits)
        other = core_text[:at] + "K1(" + core_text[at + 3 :]
    units = [f"u{i:02d}" for i in range(spine)]
    entries = [surface.print_context(core.ctx)] if core.ctx else []
    entries += [f"{u}:^{rng.randint(-60, 60)} 1" for u in units]
    ctx = ", ".join(entries)
    type_ = surface.print_type(core.type)
    lhs = "".join(f"let * = {u} in " for u in reversed(units)) + core_text
    rhs = "".join(f"let * = {u} in " for u in units) + other
    text = (
        f"schedule lhs{k} ({ctx}) : {type_} = {lhs}\n"
        f"schedule rhs{k} ({ctx}) : {type_} = {rhs}\n"
    )
    return Request(text, verdict=REFUTED if refuted else EQUAL)


# --------------------------------------------------------------------- pools


def chip_doc(workload: str, seed: int) -> dict:
    """The chip description for ``workload``: synthetic for wide."""
    if workload == "wide":
        return wide_chip(_rng(seed, "wide-chip"))
    return json.loads(FIXTURE_CHIP.read_text())


def make_requests(
    workload: str, seed: int, size: int, doc: dict, chip=None, testkit=None, surface=None
) -> tuple[Request, ...]:
    """The first ``size`` requests of the seeded pool.

    ``equiv`` also needs the parsed chip and the pstt ``testkit`` and
    ``surface`` modules, which generate and print its cores.
    """
    rng = _rng(seed, workload)
    if workload == "wide":
        return tuple(wide_request(rng, k, doc) for k in range(size))
    if workload == "deep":
        return tuple(deep_request(rng, k) for k in range(size))
    if workload == "equiv":
        return tuple(equiv_request(rng, k, chip, testkit, surface) for k in range(size))
    raise ValueError(f"unknown workload {workload!r}")
