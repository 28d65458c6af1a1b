import hashlib
import random

from pstt import Judgement, Qubit, Unit, check, make_context, parse_term, parse_type
from pstt.surface import print_context, print_judgement, print_term, print_type
from pstt.syntax import alpha_key, free_occurrences, term_size
from pstt.testkit import (
    GenConfig,
    Move,
    all_moves,
    enumerate_well_typed,
    gen_judgement,
    gen_single_var_judgement,
    node_types,
    search_equal,
)


def test_gen_depth_one_is_star(chip0):
    j = gen_judgement(GenConfig(chip=chip0, seed=0, max_depth=1), goal=Unit())
    assert j.type == Unit()
    check(j, chip0)


def test_gen_qubit_goal(chip0):
    rng = random.Random(2)
    j = gen_judgement(GenConfig(chip=chip0, seed=2, max_depth=3), goal=Qubit("q1"), rng=rng)
    assert j.type == Qubit("q1")
    check(j, chip0)


def test_generated_judgements_all_check(chip0):
    rng = random.Random(17)
    cfg = GenConfig(chip=chip0, seed=17)
    for _ in range(300):
        j = gen_judgement(cfg, rng=rng)
        check(j, chip0)


def test_generation_deterministic_per_seed(chip0):
    a = [gen_judgement(GenConfig(chip=chip0, seed=5), rng=random.Random(5)) for _ in range(5)]
    b = [gen_judgement(GenConfig(chip=chip0, seed=5), rng=random.Random(5)) for _ in range(5)]
    assert a == b


def test_distinct_qubit_generation(chip0):
    rng = random.Random(23)
    cfg = GenConfig(chip=chip0, seed=23, distinct_qubits=True)
    from pstt.syntax import qubits_of_type

    for _ in range(100):
        j = gen_judgement(cfg, rng=rng)
        qubits = []
        for e in j.ctx:
            qubits.extend(qubits_of_type(e.type))
        assert len(set(qubits)) == len(qubits)


def test_single_var_judgements(chip0):
    for i in range(40):
        j = gen_single_var_judgement(GenConfig(chip=chip0, seed=i, max_depth=3))
        assert j is not None
        assert len(j.ctx) == 1 and j.ctx[0].grade == 0
        check(j, chip0)


def test_node_types(chip0):
    types = node_types(
        parse_term("box[3] (H1(x), u)"), {"x": Qubit("q1"), "u": Unit()}, chip0
    )
    assert types[()] == parse_type("[3] (q1 * 1)")
    assert types[(0, 0)] == Qubit("q1")
    assert types[(0, 1)] == Unit()


def test_all_moves_are_checked(chip0):
    j = Judgement(
        make_context([("u", 4, Unit()), ("x", -20, Qubit("q1"))]),
        parse_term("let * = u in H1(x)"),
        Qubit("q1"),
    )
    moves = all_moves(j, chip0)
    assert moves
    for mv in moves:
        assert isinstance(mv, Move)
        check(Judgement(j.ctx, mv.result, j.type), chip0)


def test_search_unit_eta_found_at_depth_one(chip0):
    ctx = make_context([("x", 0, Unit())])
    r = search_equal(ctx, parse_term("let * = x in *"), parse_term("x"), Unit(), chip0, depth=1)
    assert r.found
    assert len(r.proof) == 1
    assert r.proof[0].rule == "eta-unit"


def test_search_alpha_variants_found_at_depth_zero(chip0):
    ctx = make_context([("p", -120, parse_type("q1 * q2"))])
    r = search_equal(
        ctx,
        parse_term("let (a, b) = p in CX(a, b)"),
        parse_term("let (c, d) = p in CX(c, d)"),
        parse_type("q1 * q2"),
        chip0,
        depth=0,
    )
    assert r.found and r.depth_explored == 0


def test_search_distinct_gates_not_found(chip0):
    ctx = make_context([("x", -20, Qubit("q1"))])
    r = search_equal(ctx, parse_term("H1(x)"), parse_term("K1(x)"), Qubit("q1"), chip0, depth=4)
    assert not r.found


def test_search_commutation_proof(chip0):
    ctx = make_context([("x", 0, Unit()), ("y", 0, Unit())])
    r = search_equal(
        ctx,
        parse_term("let * = x in let * = y in *"),
        parse_term("let * = y in let * = x in *"),
        Unit(),
        chip0,
        depth=3,
    )
    assert r.found
    assert any(s.rule.startswith("swap") for s in r.proof)


def test_enumeration_is_exact_use_and_alpha_distinct(chip0):
    sig = {"a": Qubit("q1"), "c": Unit()}
    out = enumerate_well_typed(sig, chip0, 4, gates=("H1",), box_grades=(0,))
    keys = set()
    for term, j in out:
        assert term_size(term) <= 4 and j.term is term
        occ = free_occurrences(term)
        assert len(occ) == len(set(occ))
        assert [e.name for e in j.ctx] == occ
        k = alpha_key(term)
        assert k not in keys
        keys.add(k)
    assert len(out) > 50


def test_found_proofs_replay(chip0):
    from pstt.testkit import verify_proof

    ctx = make_context([("x", 0, Unit()), ("y", 0, Unit())])
    r = search_equal(
        ctx,
        parse_term("let * = x in let * = y in *"),
        parse_term("let * = y in let * = x in *"),
        Unit(),
        chip0,
        depth=3,
    )
    assert r.found
    assert len(r.path_terms) == len(r.proof) + 1
    assert verify_proof(ctx, Unit(), chip0, r)

    ctx2 = make_context([("x", -20, Qubit("q1"))])
    r2 = search_equal(
        ctx2,
        parse_term("let * = * in H1(x)"),
        parse_term("H1(x)"),
        Qubit("q1"),
        chip0,
        depth=2,
    )
    assert r2.found and verify_proof(ctx2, Qubit("q1"), chip0, r2)


# The digest of ``generator_lines``.  The benchmark's ``equiv`` pool is
# drawn from ``gen_judgement``, so a silent change to any generator would
# change that workload.
GENERATORS = "ea13b1181b46b9dd55c7519a793d788ab7d7bb8e630a73e1e484ad98aeec3cf2"


def generator_lines(chip):
    for distinct in (False, True):
        for depth in (2, 4, 6, 8):
            for seed in range(10):
                cfg = GenConfig(chip=chip, seed=seed, max_depth=depth, distinct_qubits=distinct)
                yield print_judgement(gen_judgement(cfg))
    for depth in (3, 5):
        for seed in range(5001, 5041):
            j = gen_single_var_judgement(GenConfig(chip=chip, seed=seed, max_depth=depth))
            yield "none" if j is None else print_judgement(j)
    sig = {"a": Qubit("q1"), "b": Qubit("q2"), "c": Unit()}
    for t, j in enumerate_well_typed(sig, chip, 5, gates=("H1", "H2", "CX"), box_grades=(0, 20)):
        ctx = tuple(sorted(j.ctx, key=lambda e: e.name))
        yield f"{print_term(t)} | {print_context(ctx)} | {print_type(j.type)}"


def test_generators_are_pinned(chip0):
    h = hashlib.sha256()
    for line in generator_lines(chip0):
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == GENERATORS
