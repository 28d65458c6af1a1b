"""Executable law checks for model implementations.

Runs the category, monoidal, symmetry and integer-action laws over sampled
objects and morphisms.  An undecided morphism comparison (syntactic model)
counts as a skip, never a pass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any

from ..chip import ChipSpec
from .model import Model, ModelError
from .pulse import PulseModel, PulseMorphism, PulseObject

_MAX_PAIRS = 2000  # composable pairs sampled for the composition laws
_PER_OBJECT = 2  # morphisms sampled out of each object
_MAX_DURATION = 4  # longest sampled channel signal, in ns


@dataclass(frozen=True)
class LawCheckConfig:
    objects: tuple[Any, ...]
    morphisms: tuple[Any, ...]
    grades: tuple[int, ...] = (-2, -1, 0, 1, 3)
    seed: int = 0


@dataclass
class LawReport:
    checks: int = 0
    skipped: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        return f"{self.checks} checks, {self.skipped} skipped: {status}"


class _Checker:
    def __init__(self, m: Model, report: LawReport):
        self.m = m
        self.report = report

    def expect(self, law: str, f: Any, g: Any, witness: str = "") -> None:
        verdict = self.m.mor_eq(f, g)
        self.report.checks += 1
        if verdict is None:
            self.report.skipped += 1
        elif not verdict:
            self.report.failures.append((law, witness))


def check_model_laws(m: Model, config: LawCheckConfig) -> LawReport:
    report = LawReport()
    c = _Checker(m, report)
    rng = random.Random(config.seed)
    objects = list(config.objects)
    morphisms = list(config.morphisms)

    def composable_pairs() -> list[tuple[Any, Any]]:
        out = []
        for f, g in itertools.product(morphisms, morphisms):
            if m.obj_eq(m.cod(f), m.dom(g)):
                out.append((f, g))
        rng.shuffle(out)
        return out[:_MAX_PAIRS]

    pairs = composable_pairs()

    # Identity and associativity of composition.
    for f in morphisms:
        c.expect("compose-id-left", m.compose(m.identity(m.cod(f)), f), f)
        c.expect("compose-id-right", m.compose(f, m.identity(m.dom(f))), f)
    for f, g in pairs:
        for h in morphisms:
            if m.obj_eq(m.cod(g), m.dom(h)):
                c.expect(
                    "compose-assoc",
                    m.compose(h, m.compose(g, f)),
                    m.compose(m.compose(h, g), f),
                )
                break

    # Tensor bifunctoriality.
    for a, b in itertools.islice(itertools.product(objects, objects), 200):
        try:
            ab = m.tensor_obj(a, b)
        except ModelError:
            continue
        c.expect("tensor-id", m.tensor_mor(m.identity(a), m.identity(b)), m.identity(ab))
    for (f, g) in pairs[:60]:
        for (f2, g2) in pairs[:60]:
            try:
                lhs = m.compose(m.tensor_mor(g, g2), m.tensor_mor(f, f2))
            except ModelError:
                continue
            rhs = m.tensor_mor(m.compose(g, f), m.compose(g2, f2))
            c.expect("tensor-compose", lhs, rhs)
            break

    # Symmetry: involution, naturality, hexagon.
    for a, b in itertools.islice(itertools.product(objects, objects), 200):
        try:
            ab = m.tensor_obj(a, b)
        except ModelError:
            continue
        c.expect(
            "braid-involution",
            m.compose(m.braid(b, a), m.braid(a, b)),
            m.identity(ab),
        )
    for f, g in pairs[:80]:
        try:
            lhs = m.compose(m.braid(m.cod(f), m.cod(g)), m.tensor_mor(f, g))
            rhs = m.compose(m.tensor_mor(g, f), m.braid(m.dom(f), m.dom(g)))
        except ModelError:
            continue
        c.expect("braid-natural", lhs, rhs)
    for a, b, cc in itertools.islice(itertools.product(objects, objects, objects), 200):
        try:
            bc = m.tensor_obj(b, cc)
            lhs = m.compose(m.assoc(b, cc, a), m.braid(a, bc))
            rhs = m.compose_all(
                [
                    m.assoc_inv(a, b, cc),
                    m.tensor_mor(m.braid(a, b), m.identity(cc)),
                    m.assoc(b, a, cc),
                    m.tensor_mor(m.identity(b), m.braid(a, cc)),
                ]
            )
        except ModelError:
            continue
        c.expect("braid-hexagon", lhs, rhs)

    # Coherence of assoc and unitors (strictness makes these identities in
    # the pulse model, but they are laws of the interface).
    for a, b in itertools.islice(itertools.product(objects, objects), 100):
        try:
            lhs = m.compose(m.tensor_mor(m.identity(a), m.lunit(b)), m.assoc(a, m.unit(), b))
            rhs = m.tensor_mor(m.runit(a), m.identity(b))
        except ModelError:
            continue
        c.expect("triangle", lhs, rhs)

    # Action functoriality and bifunctoriality in the grade.
    for d in config.grades:
        for a in objects[:20]:
            c.expect("action-id", m.act_mor(d, m.identity(a)), m.identity(m.act_obj(d, a)))
        for f, g in pairs[:40]:
            c.expect(
                "action-compose",
                m.act_mor(d, m.compose(g, f)),
                m.compose(m.act_mor(d, g), m.act_mor(d, f)),
            )

    # Unitor / multiplicator naturality.
    for f in morphisms[:40]:
        c.expect(
            "unitor-natural",
            m.compose(m.unitor(m.cod(f)), f),
            m.compose(m.act_mor(0, f), m.unitor(m.dom(f))),
        )
        c.expect(
            "unitor-iso",
            m.compose(m.unitor_inv(m.dom(f)), m.unitor(m.dom(f))),
            m.identity(m.dom(f)),
        )
    for cgrade, dgrade in itertools.product(config.grades, config.grades):
        for f in morphisms[:10]:
            a, b = m.dom(f), m.cod(f)
            c.expect(
                "multiplicator-natural",
                m.compose(m.multiplicator(cgrade, dgrade, b), m.act_mor(cgrade, m.act_mor(dgrade, f))),
                m.compose(m.act_mor(cgrade + dgrade, f), m.multiplicator(cgrade, dgrade, a)),
            )

    # The two unit equations on the multiplicator.
    for d in config.grades:
        for a in objects[:20]:
            c.expect(
                "mult-zero-left",
                m.multiplicator(0, d, a),
                m.unitor_inv(m.act_obj(d, a)),
            )
            c.expect(
                "mult-zero-right",
                m.multiplicator(d, 0, a),
                m.act_mor(d, m.unitor_inv(a)),
            )

    # Multiplicator coherence square, exhaustive over the grade range.
    for mm, nn, pp in itertools.product(config.grades, config.grades, config.grades):
        for a in objects[:3]:
            top = m.compose(m.multiplicator(mm + nn, pp, a), m.multiplicator(mm, nn, m.act_obj(pp, a)))
            left = m.compose(m.multiplicator(mm, nn + pp, a), m.act_mor(mm, m.multiplicator(nn, pp, a)))
            c.expect("mult-square", top, left, witness=f"(m,n,p)=({mm},{nn},{pp})")

    # Strong monoidality of each d . -: distributor naturality and units.
    for d in config.grades:
        for f, g in pairs[:40]:
            try:
                lhs = m.compose(
                    m.dist_tensor(d, m.cod(f), m.cod(g)),
                    m.tensor_mor(m.act_mor(d, f), m.act_mor(d, g)),
                )
                rhs = m.compose(
                    m.act_mor(d, m.tensor_mor(f, g)), m.dist_tensor(d, m.dom(f), m.dom(g))
                )
            except ModelError:
                continue
            c.expect("dist-tensor-natural", lhs, rhs)
        for a in objects[:10]:
            da = m.act_obj(d, a)
            lhs = m.compose_all(
                [
                    m.lunit_inv(da),
                    m.tensor_mor(m.dist_unit_inv(d), m.identity(da)),
                    m.dist_tensor(d, m.unit(), a),
                ]
            )
            c.expect("dist-unit-coherence", lhs, m.act_mor(d, m.lunit_inv(a)))
        for a, b in itertools.islice(itertools.product(objects, objects), 60):
            da, db = m.act_obj(d, a), m.act_obj(d, b)
            if not _tensorable(m, da, db):
                continue
            c.expect(
                "dist-tensor-iso",
                m.compose(m.dist_tensor_inv(d, a, b), m.dist_tensor(d, a, b)),
                m.identity(m.tensor_obj(da, db)),
            )

    return report


def _tensorable(m: Model, a: Any, b: Any) -> bool:
    try:
        m.tensor_obj(a, b)
        return True
    except ModelError:
        return False


def sample_pulse_objects(
    chip: ChipSpec, grades: tuple[int, ...], max_qubits: int
) -> list[PulseObject]:
    """All channel layouts over up to ``max_qubits`` chip qubits."""
    out = [PulseObject(())]
    qubits = list(chip.qubits)[:]
    for n in range(1, max_qubits + 1):
        for combo in itertools.permutations(qubits, n):
            for gs in itertools.product(grades, repeat=n):
                out.append(PulseObject(tuple(zip(gs, combo))))
    return out


def sample_pulse_morphisms(
    model: PulseModel,
    objects: list[PulseObject],
    rng: random.Random,
):
    """Random forward-in-time morphisms out of each sampled object."""
    out = []
    for src in objects:
        for _ in range(_PER_OBJECT):
            entries = []
            signals = {}
            for g, q in src.entries:
                dur = rng.randrange(0, _MAX_DURATION + 1)
                entries.append((g + dur, q))
                signals[q] = tuple(rng.randrange(-9, 10) for _ in range(dur))
            tgt = PulseObject(tuple(entries))
            out.append(PulseMorphism(src, tgt, tuple(sorted(signals.items()))))
    return out
