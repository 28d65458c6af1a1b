"""The benchmark's own tests: its checks catch wrong outputs, and smoke.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import dataclasses

import pytest

import run
import workloads

PSTT = run.import_pstt()


def _bench(workload: str, size: int) -> run.Bench:
    return run.setup(workload, seed=3, pstt=PSTT, size=size, warmup=0)


def _failures(bench: run.Bench) -> list[str]:
    return [p for p in (bench.attempt(req)[1].problem for req in bench.requests) if p]


@pytest.mark.parametrize("workload", ["wide", "deep"])
def test_unmodified_outputs_pass(workload):
    assert _failures(_bench(workload, 4)) == []


@pytest.mark.parametrize("workload", ["wide", "deep"])
def test_one_flipped_sample_is_a_failure(workload, monkeypatch):
    emit = PSTT.schedule.emit

    def flipped(j, chip):
        s = emit(j, chip)
        ch = s.channels[-1]
        samples = list(ch.samples)
        samples[len(samples) // 2] ^= 1
        changed = dataclasses.replace(ch, samples=tuple(samples))
        return dataclasses.replace(s, channels=s.channels[:-1] + (changed,))

    monkeypatch.setattr(PSTT.schedule, "emit", flipped)
    bench = _bench(workload, 4)
    failures = _failures(bench)
    assert len(failures) == len(bench.requests)
    assert all("samples differ" in p for p in failures)


@pytest.mark.parametrize("workload", ["wide", "deep"])
def test_one_dropped_channel_is_a_failure(workload, monkeypatch):
    emit = PSTT.schedule.emit

    def dropped(j, chip):
        s = emit(j, chip)
        return dataclasses.replace(s, channels=s.channels[1:])

    monkeypatch.setattr(PSTT.schedule, "emit", dropped)
    bench = _bench(workload, 4)
    assert len(_failures(bench)) == len(bench.requests)


def test_equal_on_a_refuted_pair_is_a_failure(monkeypatch):
    eq = PSTT.equality
    monkeypatch.setattr(eq, "judgementally_equal", lambda *args, **kwargs: eq.EqVerdict(eq.EqKind.EQUAL))
    bench = _bench("equiv", 2 * workloads.EQUIV_REFUTED_EVERY)
    refuted = [req for req in bench.requests if req.verdict == workloads.REFUTED]
    assert len(refuted) == 2
    assert len(_failures(bench)) == len(refuted)


def test_timed_phase_counts_failures(monkeypatch):
    monkeypatch.setattr(PSTT.schedule, "to_json", lambda s: "{}")
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    tally = run.timed_phase(_bench("wide", 3), seconds=0)
    assert tally.attempted == 3 and tally.failed == 3


def test_smoke():
    assert run.smoke() == []
