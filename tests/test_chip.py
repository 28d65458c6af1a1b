import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstt import ChipError, GateDecl, delay_gate, parse_chip_spec

CHIP_MIN = json.dumps(
    {
        "qubits": ["q1", "q2"],
        "gates": [{"name": "H1", "qubits": ["q1"], "duration_ns": 20}],
        "calibrations": {"H1": {"q1": [7] * 20}},
    }
)


def test_parse_minimal_chip():
    chip = parse_chip_spec(CHIP_MIN)
    assert chip.qubits == ("q1", "q2")
    assert len(chip.gates) == 1
    assert chip.gates[0].duration == 20
    assert chip.delay_gates_enabled


def test_repeated_qubit_in_gate_rejected():
    bad = json.dumps(
        {
            "qubits": ["q1"],
            "gates": [{"name": "G", "qubits": ["q1", "q1"], "duration_ns": 5}],
        }
    )
    with pytest.raises(ChipError, match="repeats a qubit"):
        parse_chip_spec(bad)


def test_empty_gate_list_is_valid():
    chip = parse_chip_spec(json.dumps({"qubits": ["q1"]}))
    assert chip.gates == ()
    assert chip.calibrations == {}


def test_duplicate_names_rejected():
    with pytest.raises(ChipError, match="duplicate qubit"):
        parse_chip_spec(json.dumps({"qubits": ["q1", "q1"]}))
    two = {
        "qubits": ["q1"],
        "gates": [
            {"name": "G", "qubits": ["q1"], "duration_ns": 1},
            {"name": "G", "qubits": ["q1"], "duration_ns": 2},
        ],
    }
    with pytest.raises(ChipError, match="duplicate gate"):
        parse_chip_spec(json.dumps(two))


def test_undeclared_qubit_rejected():
    bad = {
        "qubits": ["q1"],
        "gates": [{"name": "G", "qubits": ["q9"], "duration_ns": 1}],
    }
    with pytest.raises(ChipError, match="undeclared qubit"):
        parse_chip_spec(json.dumps(bad))


def test_calibration_length_mismatch_rejected():
    bad = {
        "qubits": ["q1"],
        "gates": [{"name": "G", "qubits": ["q1"], "duration_ns": 3}],
        "calibrations": {"G": {"q1": [1, 2]}},
    }
    with pytest.raises(ChipError, match="samples"):
        parse_chip_spec(json.dumps(bad))


def test_syntax_error_reports_position():
    with pytest.raises(ChipError) as exc:
        parse_chip_spec('{"qubits": [}')
    assert exc.value.line == 1
    assert exc.value.col is not None


def test_delay_gate_zero_samples(chip0):
    decl, cal = delay_gate(chip0, "q1", 30)
    assert decl.name == "delay[q1,30]"
    assert decl.duration == 30
    assert decl.qubits == ("q1",)
    assert cal.samples["q1"] == (0,) * 30


def test_delay_gate_duration_one(chip0):
    decl, cal = delay_gate(chip0, "q1", 1)
    assert decl.duration == 1
    assert cal.samples["q1"] == (0,)


def test_delay_gate_unknown_qubit(chip0):
    with pytest.raises(ChipError, match="unknown qubit"):
        delay_gate(chip0, "q9", 5)


def test_delay_gate_nonpositive_duration(chip0):
    with pytest.raises(ChipError):
        delay_gate(chip0, "q1", 0)


def test_delay_names_resolve_transparently(chip0):
    decl = chip0.find_gate("delay[q2,7]")
    assert decl is not None and decl.duration == 7
    cal = chip0.find_calibration("delay[q2,7]")
    assert cal.samples["q2"] == (0,) * 7
    assert chip0.find_gate("delay[q9,7]") is None


@st.composite
def chip_docs(draw):
    qubits = draw(
        st.lists(
            st.sampled_from(["q1", "q2", "q3", "q4"]), min_size=1, max_size=4, unique=True
        )
    )
    gates = []
    cals = {}
    for i in range(draw(st.integers(0, 3))):
        acting = draw(
            st.lists(st.sampled_from(qubits), min_size=1, max_size=len(qubits), unique=True)
        )
        dur = draw(st.integers(0, 6))
        name = f"G{i}"
        gates.append({"name": name, "qubits": acting, "duration_ns": dur})
        if draw(st.booleans()):
            cals[name] = {q: [draw(st.integers(-99, 99)) for _ in range(dur)] for q in acting}
    return json.dumps({"qubits": qubits, "gates": gates, "calibrations": cals})


@given(chip_docs())
@settings(max_examples=60, deadline=None)
def test_accepted_chips_satisfy_invariants(doc):
    chip = parse_chip_spec(doc)
    for g in chip.gates:
        assert len(set(g.qubits)) == len(g.qubits)
        assert g.duration >= 0
    for name, cal in chip.calibrations.items():
        decl = chip.find_gate(name)
        for q, arr in cal.samples.items():
            assert len(arr) == decl.duration


@given(chip_docs())
@settings(max_examples=30, deadline=None)
def test_parse_is_deterministic(doc):
    assert parse_chip_spec(doc) == parse_chip_spec(doc)


def test_delay_gates_can_be_disabled():
    doc = json.dumps({"qubits": ["q1"], "delay_gates_enabled": False})
    chip = parse_chip_spec(doc)
    assert chip.find_gate("delay[q1,5]") is None
    with pytest.raises(ChipError, match="disabled"):
        delay_gate(chip, "q1", 5)


def test_delay_gate_lookups_return_one_object_per_name(chip0):
    decl = chip0.find_gate("delay[q1,13]")
    cal = chip0.find_calibration("delay[q1,13]")
    assert chip0.find_gate("delay[q1,13]") is decl
    # calibrations are built afresh, so no caller can change another's samples
    assert chip0.find_calibration("delay[q1,13]") is not cal
    assert decl == GateDecl("delay[q1,13]", ("q1",), 13)
    assert cal.samples == {"q1": (0,) * 13}
    assert chip0.find_gate("delay[q1,14]") is not decl


def test_invalid_delays_still_resolve_to_nothing(chip0):
    for name in ("delay[q9,5]", "delay[q1,0]", "delay[q1,-3]", "delay[q1,5", "Delay[q1,5]"):
        for _ in range(2):
            assert chip0.find_gate(name) is None
            assert chip0.find_calibration(name) is None
    disabled = parse_chip_spec(json.dumps({"qubits": ["q1"], "delay_gates_enabled": False}))
    for _ in range(2):
        assert disabled.find_gate("delay[q1,5]") is None
        assert disabled.find_calibration("delay[q1,5]") is None
