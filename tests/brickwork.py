"""Seeded circuits of realistic size for the normalizer's scale tests.

* ``brickwork_chip(n, seed)``: qubits ``q0 … q{n-1}`` on a line, a 20-ns
  ``X{i}`` on each qubit and a 40-ns ``CZ{i}`` on ``q{i}, q{i+1}``, with
  calibrations drawn from the seed.
* ``brickwork_judgement(chip, layers)``: each layer is a run of
  ``let (a, b) = CZ{i}(X{i}(…), X{i+1}(…)) in …`` over alternating pairs,
  and a qubit left idle by a layer gets ``delay[q,60]``.  ``reverse=True``
  lists each layer's lets in reverse order, an equal program.
  ``refuted=True`` also replaces the first ``X3(…)`` by ``delay[q3,20](…)``,
  which lasts as long: the refuted pair's two sides differ only on ``q3``'s
  channel.  The judgement comes from ``infer``.
* ``cx_chain_term(n)``: ``let (a1, b1) = CX(a0, b0) in …`` on chip0, where
  every let uses both binders of the one before.
* ``pair_beta_judgement(chip, n)``: the ``n``-layer pair-beta chain
  ``let (a1, b1) = (H1(a0), delay[q2,20](b0)) in … (an, bn)`` on chip0,
  each layer one ``beta-pair`` redex, and its let-free twin
  ``(H1(…H1(a0)), delay[q2,20](…(b0)))``, both from ``infer``.
* ``twin_chains_term(n)``: two such chains, one on each half of a pair of
  registers, whose keys agree down to the chains' first lets, so that
  comparing the keys of their last lets descends through both chains.
"""

from __future__ import annotations

import json
import random

from pstt import (
    GateApp,
    Judgement,
    LetPair,
    Pair,
    Qubit,
    Tensor,
    Var,
    infer,
    parse_chip_spec,
    parse_term,
)
from pstt.chip import ChipSpec


def brickwork_chip(n: int, seed: int = 0) -> ChipSpec:
    rng = random.Random(seed)
    gates, calibrations = [], {}
    for i in range(n):
        gates.append({"name": f"X{i}", "qubits": [f"q{i}"], "duration_ns": 20})
        calibrations[f"X{i}"] = {f"q{i}": [rng.randint(-999, 999) for _ in range(20)]}
    for i in range(n - 1):
        pair = [f"q{i}", f"q{i + 1}"]
        gates.append({"name": f"CZ{i}", "qubits": pair, "duration_ns": 40})
        calibrations[f"CZ{i}"] = {q: [rng.randint(-999, 999) for _ in range(40)] for q in pair}
    doc = {"qubits": [f"q{i}" for i in range(n)], "gates": gates, "calibrations": calibrations}
    return parse_chip_spec(json.dumps(doc))


def brickwork_judgement(
    chip: ChipSpec, layers: int, *, reverse: bool = False, refuted: bool = False
) -> Judgement:
    n = len(chip.qubits)
    wires = [Var(f"x{i}") for i in range(n)]
    lets = []
    for layer in range(layers):
        starts = list(range(layer % 2, n - 1, 2))
        for i in reversed(starts) if reverse else starts:
            a, b = f"a{layer}_{i}", f"b{layer}_{i}"
            gate = GateApp(f"CZ{i}", (GateApp(f"X{i}", (wires[i],)), GateApp(f"X{i + 1}", (wires[i + 1],))))
            lets.append((a, b, gate))
            wires[i], wires[i + 1] = Var(a), Var(b)
        busy = {q for i in starts for q in (i, i + 1)}
        for q in range(n):
            if q not in busy:
                wires[q] = GateApp(f"delay[q{q},60]", (wires[q],))
    if refuted:
        k = next(k for k, (_, _, gate) in enumerate(lets) if gate.args[1].gate == "X3")
        a, b, gate = lets[k]
        lets[k] = (a, b, GateApp(gate.gate, (gate.args[0], GateApp("delay[q3,20]", gate.args[1].args))))
    term = wires[-1]
    for wire in reversed(wires[:-1]):
        term = Pair(wire, term)
    for a, b, gate in reversed(lets):
        term = LetPair(a, b, gate, term)
    return infer(term, {f"x{i}": Qubit(f"q{i}") for i in range(n)}, chip)


def pair_beta_judgement(chip: ChipSpec, n: int) -> tuple[Judgement, Judgement]:
    """The ``n``-layer pair-beta chain on chip0 and its let-free twin."""
    a, b = Var("a0"), Var("b0")
    term = Pair(Var(f"a{n}"), Var(f"b{n}"))
    for k in range(n, 0, -1):
        step = Pair(GateApp("H1", (Var(f"a{k - 1}"),)), GateApp("delay[q2,20]", (Var(f"b{k - 1}"),)))
        term = LetPair(f"a{k}", f"b{k}", step, term)
    for _ in range(n):
        a, b = GateApp("H1", (a,)), GateApp("delay[q2,20]", (b,))
    env = {"a0": Qubit("q1"), "b0": Qubit("q2")}
    return infer(term, env, chip), infer(Pair(a, b), env, chip)


def _lets(n: int, a: str, b: str) -> str:
    return "".join(f"let ({a}{k}, {b}{k}) = CX({a}{k - 1}, {b}{k - 1}) in " for k in range(1, n + 1))


def cx_chain_term(n: int) -> str:
    """The source text of an ``n``-let chain over ``a0 : q1``, ``b0 : q2``."""
    return _lets(n, "a", "b") + f"(K1(delay[q1,4](a{n})), H2(b{n}))"


def twin_chains_term(n: int) -> str:
    """Two ``n``-let chains over ``p : (q1 * q2) * (q1 * q2)``, ended with ``w : q2 * q2``.

    Chain ``c`` starts once chain ``a`` is sorted, since the key of ``c0``'s
    let, ``pair:CX(K1(…``, sorts after every ``pair:CX(<…`` key of chain
    ``a``.  The late ``let (u, v) = w`` then releases one more let on each
    chain, and those two lets' keys meet once.
    """
    return (
        "let (m, k) = p in let (m1, m2) = m in let (k1, k2) = k in "
        "let (a0, b0) = CX(K1(delay[q1,4](m1)), H2(m2)) in "
        "let (c0, d0) = CX(K1(delay[q1,4](k1)), H2(k2)) in "
        + _lets(n, "a", "b")
        + _lets(n, "c", "d")
        + f"let (u, v) = w in let (e, f) = CX(a{n}, u) in let (g, h) = CX(c{n}, v) in "
        + f"(((K1(delay[q1,4](e)), H2(f)), H2(delay[q2,120](b{n}))), "
        + f"((K1(delay[q1,4](g)), H2(h)), H2(delay[q2,120](d{n}))))"
    )


def chain_judgement(text: str, chip: ChipSpec) -> Judgement:
    """The judgement ``infer`` gives ``text`` on chip0."""
    q1, q2 = Qubit("q1"), Qubit("q2")
    env = {"a0": q1, "b0": q2, "p": Tensor(Tensor(q1, q2), Tensor(q1, q2)), "w": Tensor(q2, q2)}
    return infer(parse_term(text), env, chip)
