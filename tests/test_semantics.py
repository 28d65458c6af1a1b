import random

import pytest

from pstt import (
    ChipSpec,
    EqKind,
    Judgement,
    Qubit,
    Unit,
    check,
    judgementally_equal,
    make_context,
    parse_term,
    parse_type,
)
from pstt.semantics import (
    LawCheckConfig,
    ModelError,
    PulseModel,
    PulseMorphism,
    PulseObject,
    SyntacticModel,
    check_model_laws,
    interpret,
    sample_pulse_morphisms,
    sample_pulse_objects,
)
from pstt.semantics.interpret import interpret_single_var
from pstt.syntax import Var, substitute


def mor(src, tgt, signals):
    return PulseMorphism(
        PulseObject(tuple(src)), PulseObject(tuple(tgt)), tuple(sorted(signals.items()))
    )


MODEL = PulseModel(ChipSpec(qubits=("q1", "q2"), gates=(), calibrations={}))


def test_pulse_compose_concatenates():
    f = mor([(-40, "q1")], [(-20, "q1")], {"q1": tuple(range(20))})
    g = mor([(-20, "q1")], [(0, "q1")], {"q1": tuple(range(100, 120))})
    out = MODEL.compose(g, f)
    assert out.src.entries == ((-40, "q1"),)
    assert out.tgt.entries == ((0, "q1"),)
    assert out.signal("q1") == tuple(range(20)) + tuple(range(100, 120))


def test_pulse_compose_identity():
    f = mor([(-40, "q1")], [(-20, "q1")], {"q1": (9,) * 20})
    ident = mor([(-20, "q1")], [(-20, "q1")], {"q1": ()})
    assert MODEL.compose(ident, f) == f


def test_pulse_compose_boundary_mismatch():
    f = mor([(-40, "q1")], [(-20, "q1")], {"q1": (1,) * 20})
    g = mor([(-10, "q1")], [(0, "q1")], {"q1": (2,) * 10})
    with pytest.raises(ModelError):
        MODEL.compose(g, f)


def test_pulse_action_on_objects():
    obj = PulseObject(((0, "q1"), (5, "q2")))
    assert MODEL.act_obj(7, obj).entries == ((7, "q1"), (12, "q2"))


def test_pulse_action_zero_is_identity():
    f = mor([(-3, "q1")], [(2, "q1")], {"q1": (1, 2, 3, 4, 5)})
    assert MODEL.act_mor(0, f) == f
    assert MODEL.act_obj(0, f.src) == f.src


def test_pulse_action_preserves_composition():
    rng = random.Random(0)
    for _ in range(40):
        d = rng.randint(-9, 9)
        a, b, c = sorted(rng.randint(-30, 30) for _ in range(3))
        f = mor([(a, "q1")], [(b, "q1")], {"q1": tuple(rng.randrange(5) for _ in range(b - a))})
        g = mor([(b, "q1")], [(c, "q1")], {"q1": tuple(rng.randrange(5) for _ in range(c - b))})
        lhs = MODEL.act_mor(d, MODEL.compose(g, f))
        rhs = MODEL.compose(MODEL.act_mor(d, g), MODEL.act_mor(d, f))
        assert lhs == rhs


def test_tensor_rejects_shared_qubit(chip0):
    model = PulseModel(chip0)
    a = PulseObject(((0, "q1"),))
    with pytest.raises(ModelError, match="collision"):
        model.tensor_obj(a, a)


def test_interpret_unit(chip0):
    j = Judgement((), parse_term("*"), Unit())
    model = PulseModel(chip0)
    out = interpret(j, check(j, chip0), model)
    assert model.mor_eq(out, model.identity(model.unit()))


def test_interpret_single_gate_is_calibration(chip0):
    j = Judgement(
        make_context([("x", -20, Qubit("q1"))]), parse_term("H1(x)"), Qubit("q1")
    )
    model = PulseModel(chip0)
    out = interpret(j, check(j, chip0), model)
    assert out.src.entries == ((-20, "q1"),)
    assert out.tgt.entries == ((0, "q1"),)
    assert out.signal("q1") == chip0.calibrations["H1"].samples["q1"]


def test_interpret_respects_declared_context_order(chip0):
    j1 = Judgement(
        make_context([("x", -20, Qubit("q1")), ("y", -24, Qubit("q2"))]),
        parse_term("(H1(x), H2(y))"),
        parse_type("q1 * q2"),
    )
    model = PulseModel(chip0)
    out = interpret(j1, check(j1, chip0), model)
    assert out.src.entries == ((-20, "q1"), (-24, "q2"))


def test_pulse_model_is_strict(chip0):
    model = PulseModel(chip0)
    a = PulseObject(((3, "q1"), (-2, "q2")))
    assert model.mor_eq(model.unitor(a), model.identity(a))
    for c, d in [(1, 2), (0, 5), (-3, 3)]:
        assert model.mor_eq(
            model.multiplicator(c, d, a), model.identity(model.act_obj(c + d, a))
        )


def law_chip():
    return ChipSpec(qubits=("q1", "q2", "q3"), gates=(), calibrations={})


def test_pulse_model_laws_small():
    chip = law_chip()
    model = PulseModel(chip)
    rng = random.Random(1)
    objects = sample_pulse_objects(chip, grades=(-2, 0, 3), max_qubits=2)
    morphisms = sample_pulse_morphisms(model, objects[:30], rng)
    report = check_model_laws(
        model,
        LawCheckConfig(objects=tuple(objects[:30]), morphisms=tuple(morphisms[:40])),
    )
    assert report.ok, report.failures[:3]
    assert report.skipped == 0


def test_mu_square_strict_example():
    model = PulseModel(law_chip())
    a = PulseObject(((0, "q1"),))
    top = model.compose(
        model.multiplicator(1 + 2, 3, a), model.multiplicator(1, 2, model.act_obj(3, a))
    )
    left = model.compose(
        model.multiplicator(1, 2 + 3, a), model.act_mor(1, model.multiplicator(2, 3, a))
    )
    assert model.mor_eq(top, left)


# ------------------------------------------------------- syntactic model


def test_syntactic_multiplicator_iso(chip0):
    syn = SyntacticModel(chip0)
    a = Qubit("q1")
    mu = syn.multiplicator(3, 4, a)
    mu_inv = syn.multiplicator_inv(3, 4, a)
    assert syn.mor_eq(syn.compose(mu, mu_inv), syn.identity(syn.act_obj(7, a))) is True
    assert syn.mor_eq(syn.compose(mu_inv, mu), syn.identity(syn.act_obj(3, syn.act_obj(4, a)))) is True


def test_syntactic_dist_unit_iso(chip0):
    syn = SyntacticModel(chip0)
    forward = syn.dist_unit(5)
    backward = syn.dist_unit_inv(5)
    assert syn.mor_eq(syn.compose(forward, backward), syn.identity(Unit())) is True


def test_syntactic_braid_involution(chip0):
    syn = SyntacticModel(chip0)
    a, b = Qubit("q1"), Qubit("q2")
    braided = syn.compose(syn.braid(b, a), syn.braid(a, b))
    assert syn.mor_eq(braided, syn.identity(syn.tensor_obj(a, b))) is True


def test_syntax_interprets_itself_samples(chip0):
    syn = SyntacticModel(chip0)
    cases = [
        ("q1", "x", "q1"),
        ("q1", "box[20] H1(x)", "[20] q1"),
        ("[20] q1", "let box[20] y = x in box[40] H1(y)", "[40] q1"),
        ("q1 * 1", "let (a, u) = x in (u, a)", "1 * q1"),
        ("1", "let * = x in *", "1"),
        ("q1 * q2", "let (a, b) = x in box[120] CX(a, b)", "[120] (q1 * q2)"),
    ]
    for var_ty, src, ty in cases:
        j = Judgement(
            make_context([("x", 0, parse_type(var_ty))]), parse_term(src), parse_type(ty)
        )
        ev = check(j, chip0)
        m = interpret_single_var(j, ev, syn)
        verdict = judgementally_equal(
            make_context([("zq", 0, j.ctx[0].type)]),
            substitute(m.term, m.var, Var("zq")),
            substitute(j.term, "x", Var("zq")),
            j.type,
            chip0,
        )
        assert verdict.kind is EqKind.EQUAL, (src, verdict)


def test_soundness_pulse_vs_engine(chip0):
    # Engine-equal terms must have bit-identical pulse interpretations.
    ctx = make_context([("x", -40, Qubit("q1"))])
    s = parse_term("H1(let box[20] b = box[20] H1(x) in b)")
    t = parse_term("H1(H1(x))")
    v = judgementally_equal(ctx, s, t, Qubit("q1"), chip0)
    assert v.kind is EqKind.EQUAL
    model = PulseModel(chip0)
    js = Judgement(ctx, s, Qubit("q1"))
    jt = Judgement(ctx, t, Qubit("q1"))
    assert model.mor_eq(
        interpret(js, check(js, chip0), model), interpret(jt, check(jt, chip0), model)
    )
