"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every tolerance is pinned here; the suite is deterministic (fixed seeds).
"""

import random

from pstt import (
    ChipSpec,
    EqKind,
    Judgement,
    Qubit,
    TypingError,
    Unit,
    alpha_eq,
    check,
    emit,
    from_json,
    judgementally_equal,
    make_context,
    normalize,
    parse_term,
    parse_type,
    print_term,
    print_type,
    shift_context,
    to_json,
    validate,
)
from pstt.equality import BudgetExceeded
from pstt.semantics import (
    LawCheckConfig,
    PulseModel,
    SyntacticModel,
    check_model_laws,
    interpret,
    sample_pulse_morphisms,
    sample_pulse_objects,
)
from pstt.semantics.interpret import interpret_single_var
from pstt.syntax import CtxEntry, alpha_key, free_occurrences, substitute, term_size
from pstt.testkit import (
    GenConfig,
    all_moves,
    enumerate_well_typed,
    gen_judgement,
    gen_single_var_judgement,
    search_equal,
)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def test_c01_linearity(chip0):
    rng = random.Random(101)
    cfg = GenConfig(chip=chip0, seed=101)
    failures = 0
    for _ in range(1000):
        j = gen_judgement(cfg, rng=rng)
        if sorted(free_occurrences(j.term)) != sorted(e.name for e in j.ctx):
            failures += 1
    assert failures == 0
    _report(1, "linearity", "1000 judgements, 0 failures")


def test_c02_substitution(chip0):
    rng = random.Random(102)
    cfg = GenConfig(chip=chip0, seed=102)
    done = failures = attempts = 0
    while done < 500 and attempts < 20000:
        attempts += 1
        outer = gen_judgement(cfg, rng=rng)
        if not outer.ctx:
            continue
        entry = rng.choice(list(outer.ctx))
        inner = gen_judgement(cfg, goal=entry.type, rng=rng)
        if {e.name for e in inner.ctx} & {e.name for e in outer.ctx}:
            continue
        ctx = shift_context(entry.grade, inner.ctx) + tuple(
            e for e in outer.ctx if e.name != entry.name
        )
        term = substitute(outer.term, entry.name, inner.term)
        try:
            check(Judgement(ctx, term, outer.type), chip0)
        except TypingError:
            failures += 1
        done += 1
    assert done == 500
    assert failures == 0
    _report(2, "substitution admissibility", "500 composable pairs, 0 failures")


def test_c03_typing_preservation(chip0):
    rng = random.Random(103)
    cfg = GenConfig(chip=chip0, seed=103)
    steps = failures = 0
    for _ in range(300):
        j = gen_judgement(cfg, rng=rng)
        nf = normalize(j, chip0)
        for step in nf.trace:
            steps += 1
            try:
                check(Judgement(j.ctx, step.result, j.type), chip0)
            except TypingError:
                failures += 1
    assert failures == 0
    _report(3, "typing preserved per rewrite step", f"300 normalizations, {steps} steps, 0 failures")


def test_c04_pulse_soundness_under_rewrites(chip0):
    rng = random.Random(104)
    cfg = GenConfig(chip=chip0, seed=104, distinct_qubits=True)
    model = PulseModel(chip0)
    failures = rewrites = 0
    for _ in range(300):
        j = gen_judgement(cfg, rng=rng)
        base = interpret(j, check(j, chip0), model)
        term = j.term
        for _ in range(rng.randint(0, 5)):
            moves = all_moves(Judgement(j.ctx, term, j.type), chip0)
            if not moves:
                break
            term = rng.choice(moves).result
            rewrites += 1
        j2 = Judgement(j.ctx, term, j.type)
        out = interpret(j2, check(j2, chip0), model)
        if not model.mor_eq(base, out):
            failures += 1
    assert failures == 0
    _report(4, "pulse soundness", f"300 judgements, {rewrites} rewrites, bit-identical")


def test_c05_syntax_interprets_itself(chip0):
    syn = SyntacticModel(chip0)
    equal = unknown = not_equal = 0
    produced = 0
    seed = 0
    while produced < 200:
        seed += 1
        j = gen_single_var_judgement(GenConfig(chip=chip0, seed=5000 + seed, max_depth=4))
        if j is None:
            continue
        produced += 1
        mor = interpret_single_var(j, check(j, chip0), syn)
        try:
            verdict = judgementally_equal(
                make_context([("zq", 0, j.ctx[0].type)]),
                substitute(mor.term, mor.var, parse_term("zq")),
                substitute(j.term, j.ctx[0].name, parse_term("zq")),
                j.type,
                chip0,
            )
        except BudgetExceeded:
            unknown += 1
            continue
        if verdict.kind is EqKind.EQUAL:
            equal += 1
        elif verdict.kind is EqKind.UNKNOWN:
            unknown += 1
        else:
            not_equal += 1
    assert not_equal == 0
    assert equal >= 190  # >= 95% of 200
    _report(5, "syntax interprets itself", f"{equal}/200 Equal, {unknown} unknown, 0 not-equal")


def test_c06_model_laws_exhaustive_grades():
    chip = ChipSpec(qubits=("q1", "q2", "q3"), gates=(), calibrations={})
    model = PulseModel(chip)
    rng = random.Random(106)
    objects = sample_pulse_objects(chip, grades=(-5, -1, 0, 2, 5), max_qubits=3)
    rng.shuffle(objects)
    objects = objects[:60]
    morphisms = sample_pulse_morphisms(model, objects[:30], rng)
    report = check_model_laws(
        model,
        LawCheckConfig(
            objects=tuple(objects),
            morphisms=tuple(morphisms[:60]),
            grades=tuple(range(-5, 6)),
            seed=106,
        ),
    )
    assert report.ok, report.failures[:5]
    assert report.skipped == 0
    # Strictness spot checks: unitor and multiplicator are identities.
    a = objects[0]
    assert model.mor_eq(model.unitor(a), model.identity(a))
    assert model.mor_eq(
        model.multiplicator(4, -2, a), model.identity(model.act_obj(2, a))
    )
    _report(6, "pulse model laws", f"{report.checks} checks over grades [-5,5], 0 failures")


def test_c07_schedule_completeness(chip0, corpus):
    import dataclasses

    assert len(corpus.declarations) == 20
    for d in corpus.declarations:
        report = validate(emit(d.judgement, chip0), d.judgement)
        assert report.passed, (d.name, report.summary())

    caught = total = 0
    for i, d in enumerate(corpus.declarations):
        s = emit(d.judgement, chip0)
        target = next((k for k, ch in enumerate(s.channels) if ch.samples), None)
        if target is None:
            # No samples anywhere: fabricate an overlapping channel instead.
            mutated = dataclasses.replace(
                s, channels=s.channels + (type(s.channels)([]) if False else ())
            )
            from pstt.schedule import Channel, Schedule

            mutated = Schedule(s.channels + (Channel("q1", 0, 3, (1, 2, 3)),), s.provenance)
        else:
            ch = s.channels[target]
            if i % 2 == 0:
                new = dataclasses.replace(ch, samples=ch.samples[:-1])
            else:
                new = dataclasses.replace(ch, samples=ch.samples + ch.samples[:2])
            channels = list(s.channels)
            channels[target] = new
            from pstt.schedule import Schedule

            mutated = Schedule(tuple(channels), s.provenance)
        total += 1
        if not validate(mutated, d.judgement).passed:
            caught += 1
    assert caught == total == 20
    _report(7, "schedule completeness", "20 judgements pass, 20/20 mutations caught")


def test_c08_equality_engine_vs_oracle(chip0):
    sig = {"a": Qubit("q1"), "c": Unit()}
    types = dict(sig)
    terms = enumerate_well_typed(sig, chip0, 7, gates=("H1", "K1"), box_grades=(0, 20))

    from collections import defaultdict

    groups = defaultdict(list)
    for t, j in terms:
        key = (tuple(sorted((e.name, e.grade) for e in j.ctx)), repr(j.type))
        groups[key].append((t, j))

    total_pairs = unknown_with_proof = contradictions = 0
    equal_pairs_sample = []
    rng = random.Random(108)

    for key, members in groups.items():
        if len(members) < 2:
            continue
        ctx = tuple(CtxEntry(v, g, types[v]) for v, g in key[0])
        ty = members[0][1].type
        nf_of = {}
        nf_terms = {}
        for t, rep in members:
            nf = normalize(Judgement(ctx, t, ty), chip0, budget=3000)
            k = alpha_key(nf.term)
            nf_of[alpha_key(t)] = k
            nf_terms.setdefault(k, nf.term)
        cls = {k: k for k in nf_terms}
        if len(nf_terms) > 1:
            # Bounded oracle: breadth-first to depth 6 from the distinct
            # normal forms, union-finding every validated rewrite.
            parent = {k: k for k in nf_terms}

            def find(k):
                while parent[k] != k:
                    parent[k] = parent[parent[k]]
                    k = parent[k]
                return k

            frontier = list(nf_terms.items())
            explored = 0
            for _round in range(6):
                nxt = []
                for k, t in frontier:
                    if explored >= 900:
                        break
                    explored += 1
                    for mv in all_moves(
                        Judgement(ctx, t, ty), chip0, fast=True, skip_noise=True
                    ):
                        k2 = alpha_key(mv.result)
                        if k2 not in parent:
                            parent[k2] = k2
                            if term_size(mv.result) <= 9:
                                nxt.append((k2, mv.result))
                        ra, rb = find(k), find(k2)
                        if ra != rb:
                            parent[ra] = rb
                frontier = nxt
                if explored >= 900:
                    break
            cls = {k: find(k) for k in nf_terms}

        keys = [alpha_key(t) for t, _ in members]
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                total_pairs += 1
                engine_equal = nf_of[keys[i]] == nf_of[keys[j]]
                oracle_equal = cls[nf_of[keys[i]]] == cls[nf_of[keys[j]]]
                if engine_equal:
                    if rng.random() < 0.002:
                        equal_pairs_sample.append((ctx, members[i][0], members[j][0], ty))
                elif oracle_equal:
                    # Oracle certifies an equality the engine missed; check
                    # the engine at least never refutes it semantically.
                    verdict = judgementally_equal(
                        ctx, members[i][0], members[j][0], ty, chip0
                    )
                    if verdict.kind is EqKind.NOT_EQUAL_SEMANTICS:
                        contradictions += 1
                    else:
                        unknown_with_proof += 1

    assert total_pairs > 100_000
    assert contradictions == 0
    assert unknown_with_proof <= 0.02 * total_pairs
    # Engine-equal pairs are oracle-provable: every engine step is a single
    # oracle move or a bounded composite of them; verify on a sample.
    verified = 0
    for ctx, s, t, ty in equal_pairs_sample[:40]:
        result = search_equal(tuple(ctx), s, t, ty, chip0, depth=6)
        assert result.found, (print_term(s), print_term(t))
        verified += 1
    _report(
        8,
        "engine vs oracle",
        f"{total_pairs} pairs, {unknown_with_proof} unknown-with-proof "
        f"({100 * unknown_with_proof / total_pairs:.2f}%), 0 contradictions, "
        f"{verified} equal-pairs replayed",
    )


def test_c09_paper_anchored_point_checks(chip0):
    q1 = Qubit("q1")

    # Unit beta: let * = * in t  =  t.
    ctx = make_context([("x", -20, q1)])
    v = judgementally_equal(ctx, parse_term("let * = * in H1(x)"), parse_term("H1(x)"), q1, chip0)
    assert v.kind is EqKind.EQUAL

    # Unit eta (stated at a grade where both sides check).
    ctx = make_context([("x", 0, Unit())])
    v = judgementally_equal(ctx, parse_term("let * = x in *"), parse_term("x"), Unit(), chip0)
    assert v.kind is EqKind.EQUAL

    # Pair eta.
    ctx = make_context([("p", 0, parse_type("q1 * q2"))])
    v = judgementally_equal(
        ctx, parse_term("let (a, b) = p in (a, b)"), parse_term("p"), parse_type("q1 * q2"), chip0
    )
    assert v.kind is EqKind.EQUAL

    # Box eta.
    ctx = make_context([("b", 0, parse_type("[30] q1"))])
    v = judgementally_equal(
        ctx,
        parse_term("let box[30] y = b in box[30] y"),
        parse_term("b"),
        parse_type("[30] q1"),
        chip0,
    )
    assert v.kind is EqKind.EQUAL

    # Reordering of independent unit eliminations.
    ctx = make_context([("x", 0, Unit()), ("y", 0, Unit())])
    v = judgementally_equal(
        ctx,
        parse_term("let * = x in let * = y in *"),
        parse_term("let * = y in let * = x in *"),
        Unit(),
        chip0,
    )
    assert v.kind is EqKind.EQUAL

    # Distinct calibrations refuted semantically.
    ctx = make_context([("x", -20, q1)])
    v = judgementally_equal(ctx, parse_term("H1(x)"), parse_term("K1(x)"), q1, chip0)
    assert v.kind is EqKind.NOT_EQUAL_SEMANTICS

    # The grade-shift example: 100 + (x:^50 q1, y:^75 q2).
    ctx = make_context([("x", 50, Qubit("q1")), ("y", 75, Qubit("q2"))])
    shifted = shift_context(100, ctx)
    assert [(e.name, e.grade) for e in shifted] == [("x", 150), ("y", 175)]
    assert [print_type(e.type) for e in shifted] == ["q1", "q2"]

    _report(9, "paper-anchored point checks", "beta/eta/reorder/semantic/grade-shift all verified")


def test_c10_round_trip(chip0):
    from pstt.surface import parse_term as _pt, print_term as _print

    rng = random.Random(110)
    cfg = GenConfig(chip=chip0, seed=110)
    failures = 0
    for _ in range(500):
        j = gen_judgement(cfg, rng=rng)
        if not alpha_eq(_pt(_print(j.term)), j.term):
            failures += 1
        if parse_type(print_type(j.type)) != j.type:
            failures += 1
    assert failures == 0

    # Schedule JSON: serialize/deserialize byte-stable.
    j = Judgement(
        make_context([("x", -144, Qubit("q1")), ("y", -144, Qubit("q2"))]),
        parse_term("let (a, b) = CX(x, y) in (H1(delay[q1,4](a)), H2(b))"),
        parse_type("q1 * q2"),
    )
    schedule = emit(j, chip0)
    text = to_json(schedule)
    assert to_json(from_json(text)) == text
    assert from_json(text) == schedule
    _report(10, "round-trip", "500 terms parse(print) alpha-equal; schedule JSON byte-stable")
