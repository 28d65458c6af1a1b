"""The grade solver's fast paths against the methods they shortcut.

``Affine.add`` returns at once when either operand has no slack, and
``_Solver.resolve`` substitutes a lone solved slack directly.  The
references below are both methods as they were before: random affines
and random equation systems must give identical values, with
coefficients sorted and nonzero.
"""

import random

from pstt.typecheck import Affine, SolverStuck, _Solver


def reference_add(a, b):
    out = dict(a.coeffs)
    for sid, c in b.coeffs:
        out[sid] = out.get(sid, 0) + c
    coeffs = tuple(sorted((s, c) for s, c in out.items() if c != 0))
    return Affine(a.const + b.const, coeffs)


class ReferenceSolver(_Solver):
    """``_Solver`` with ``resolve`` and the arithmetic as they were."""

    def resolve(self, a):
        if all(sid not in self.solution for sid, _ in a.coeffs):
            return a
        out = Affine(a.const)
        for sid, c in a.coeffs:
            sol = self.solution.get(sid)
            if sol is None:
                out = reference_add(out, Affine(0, ((sid, c),)))
            else:
                out = reference_add(out, sol.scale(c))
        return out


def random_affine(rng, slacks=12):
    sids = sorted(rng.sample(range(1, slacks + 1), rng.choice((0, 0, 1, 1, 2, 3))))
    return Affine(rng.randint(-80, 80), tuple((s, rng.choice((-2, -1, 1, 1, 3))) for s in sids))


def equated(solver, a, b):
    try:
        return solver.equate(a, b)
    except SolverStuck:
        return "stuck"


def test_add_matches_the_reference():
    rng = random.Random(14)
    for _ in range(5000):
        a, b = random_affine(rng), random_affine(rng)
        assert a.add(b) == reference_add(a, b)
        assert a.sub(b) == reference_add(a, b.scale(-1))


def test_resolve_matches_the_reference_on_random_systems():
    rng = random.Random(15)
    single_solved = 0
    for _ in range(400):
        live, want = _Solver(), ReferenceSolver()
        for _ in range(rng.randint(1, 10)):
            a, b = random_affine(rng), random_affine(rng)
            assert equated(live, a, b) == equated(want, a, b)
            assert live.solution == want.solution
            for _ in range(5):
                c = random_affine(rng)
                got = live.resolve(c)
                assert got == want.resolve(c)
                assert list(got.coeffs) == sorted(got.coeffs) and all(k for _, k in got.coeffs)
                single_solved += len(c.coeffs) == 1 and c.coeffs[0][0] in live.solution
    assert single_solved > 500
