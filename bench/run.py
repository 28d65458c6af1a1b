"""pstt benchmark: compile and equivalence latency on wide, deep and equiv.

Run from the repository root; it imports pstt from ``src/``:

    python3 bench/run.py --workload wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20   # every metric, one table
    python3 bench/run.py --smoke                       # correctness and determinism

One process runs one workload with one closed-loop client: each request
is sent after the previous one returns, as a compiler invocation would.
A ``wide``/``deep`` request is parse, check, emit, validate and to_json of
one declaration; an ``equiv`` request is parse of two declarations and one
``judgementally_equal`` query.  Every output is compared with a reference
built without pstt (see workloads.py).  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` reports per-layer metrics from
spans the benchmark records around calls into pstt (see tracer.py).  The
last line of standard output is one JSON object; a fuller report and the
spans go to ``.bench_out/``.  NOTES.md maps the metrics to layers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Requests generated per setup.  The timed phase serves the pool in rounds,
# so each request is served several times in a run; each pool holds whole
# cycles of its workload's size strata (workloads.py).
POOL = {"wide": 108, "deep": 108, "equiv": 204}
TRACE_POOL = {"wide": 36, "deep": 18, "equiv": 34}  # requests per traced pass
SMOKE_POOL = {"wide": 9, "deep": 3, "equiv": 8}
WARMUP = 9  # requests served (untimed) at the end of each setup: one per size on wide and deep
SETUP_REPEATS = 3  # before the measured phase, and again after it untraced
MIN_ROUNDS = 3  # passes over the pool in the timed phase, at least
DIGESTED = 100  # outputs per run that enter the output digest; every run serves this many
MIN_TRACED_PASSES = 2

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# Per-layer metrics.  SETUP_LAYER (metric, unit, tracer key) come from the
# traced set-ups; PASS_LAYER (metric, unit) from traced passes over the
# first TRACE_POOL requests.
SETUP_LAYER = (
    ("chip.parse_chip_spec.s", "s", "chip.parse_chip_spec.total_s"),
    ("testkit.gen_judgement.s", "s", "testkit.gen_judgement.total_s"),
)
PASS_LAYER = (
    ("surface.parse.calls", "count"),
    ("surface.parse.self_s", "s"),
    ("typecheck.check.calls", "count"),
    ("typecheck.check.raised", "count"),
    ("typecheck.check.self_s", "s"),
    ("syntax.free_vars.calls", "count"),
    ("syntax.alpha_eq.calls", "count"),
    ("equality.judgementally_equal.self_s", "s"),
    ("equality.normalize.calls", "count"),
    ("equality.normalize.self_s", "s"),
    ("equality.rewrite_steps", "count"),
    ("equality.rules.swap", "count"),
    ("equality.rules.hoist", "count"),
    ("equality.rules.beta", "count"),
    ("equality.rules.eta", "count"),
    ("equality.budget_used_max", "ratio"),
    ("equality.normalize.budget_exceeded", "count"),
    ("equality.eq_unknown_ratio", "ratio"),
    ("semantics.interpret.calls", "count"),
    ("semantics.interpret.self_s", "s"),
    ("semantics.model.structural_calls", "count"),
    ("semantics.model.compose_calls", "count"),
    ("semantics.model.tensor_calls", "count"),
    ("semantics.model.action_calls", "count"),
    ("schedule.emit.self_s", "s"),
    ("schedule.validate.self_s", "s"),
    ("schedule.to_json.self_s", "s"),
    ("schedule.samples_written", "count"),
    ("schedule.json_bytes", "bytes"),
    ("trace.request_s", "s"),
    ("trace.overhead_s", "s"),
)


# --------------------------------------------------------------------- set-up


def import_pstt() -> SimpleNamespace:
    """Import pstt from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("chip", "surface", "syntax", "typecheck", "equality", "semantics", "schedule", "testkit")
    try:
        mods = {name: importlib.import_module(f"pstt.{name}") for name in names}
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import pstt from {SRC}: {exc}") from exc
    if not Path(mods["chip"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"pstt was imported from {mods['chip'].__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


@dataclass
class Outcome:
    problem: str | None = None  # why the request failed; None if it passed
    unknown: bool = False  # an eq query answered Unknown
    digest: str = ""  # of the output, for determinism checks


@dataclass
class Bench:
    workload: str
    pstt: SimpleNamespace
    doc: dict
    chip: object
    requests: tuple[workloads.Request, ...]
    text_digest: str = field(init=False)

    def __post_init__(self) -> None:
        h = hashlib.sha256()
        for req in self.requests:
            h.update(req.text.encode())
        self.text_digest = h.hexdigest()

    def serve(self, req: workloads.Request):
        p = self.pstt
        if self.workload == "equiv":
            lhs, rhs = p.surface.parse(req.text).declarations
            return p.equality.judgementally_equal(lhs.ctx, lhs.term, rhs.term, lhs.type, self.chip)
        j = p.surface.parse(req.text).declarations[0].judgement
        p.typecheck.check(j, self.chip)
        s = p.schedule.emit(j, self.chip)
        report = p.schedule.validate(s, j)
        return s, report, p.schedule.to_json(s)

    def judge(self, req: workloads.Request, out) -> Outcome:
        if self.workload == "equiv":
            kind = out.kind.value
            problem = None
            if kind not in (req.verdict, workloads.UNKNOWN):
                problem = f"eq answered {kind}, known answer {req.verdict}"
            return Outcome(problem, kind == workloads.UNKNOWN, kind)
        s, report, text = out
        return Outcome(self._schedule_problem(req, s, report, text), digest=text)

    def _schedule_problem(self, req, s, report, text) -> str | None:
        if not report.passed:
            return f"validate: {report.summary()}"
        if self.pstt.schedule.from_json(text) != s:
            return "from_json(to_json(s)) != s"
        channels, provenance = workloads.expected_schedule(req, self.doc)
        got = [(ch.qubit, ch.start, ch.end, ch.samples) for ch in s.channels]
        if [c[0] for c in got] != [c[0] for c in channels]:
            return f"channels {[c[0] for c in got]}, expected {[c[0] for c in channels]}"
        for g, e in zip(got, channels):
            if g[1:3] != e[1:3]:
                return f"channel {g[0]} spans [{g[1]}, {g[2]}), expected [{e[1]}, {e[2]})"
            if g[3] != e[3]:
                at = next((i for i, (a, b) in enumerate(zip(g[3], e[3])) if a != b), min(len(g[3]), len(e[3])))
                return f"channel {g[0]} samples differ from the reference at index {at}"
        if list(s.provenance) != provenance:
            return "provenance differs from the reference"
        return None

    def attempt(self, req: workloads.Request) -> tuple[float, Outcome]:
        """Serve one request; returns its time in pstt and the checked outcome."""
        t0 = time.perf_counter()
        try:
            out = self.serve(req)
        except Exception as exc:  # a request that raises is a failed request
            return time.perf_counter() - t0, Outcome(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        return elapsed, self.judge(req, out)


def setup(workload: str, seed: int, pstt: SimpleNamespace, size: int, warmup: int = WARMUP) -> Bench:
    """Chip parse, request generation and warm-up.

    Warm-up outcomes are not judged: the same requests are served again,
    and judged, in the measured phase.
    """
    doc = workloads.chip_doc(workload, seed)
    chip = pstt.chip.parse_chip_spec(json.dumps(doc, sort_keys=True))
    requests = workloads.make_requests(
        workload, seed, size, doc, chip=chip, testkit=pstt.testkit, surface=pstt.surface
    )
    bench = Bench(workload, pstt, doc, chip, requests)
    for req in requests[:warmup]:
        bench.attempt(req)
    return bench


# ------------------------------------------------------------------- phases


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    unknown: int = 0
    problems: list[str] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def add(self, elapsed: float, outcome: Outcome) -> None:
        self.latencies.append(elapsed)
        if len(self.latencies) <= DIGESTED:
            self.digest.update(outcome.digest.encode())
        self.unknown += outcome.unknown
        if outcome.problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(outcome.problem)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def eq_unknown_ratio(self) -> float:
        return self.unknown / self.attempted


def timed_phase(bench: Bench, seconds: float) -> Tally:
    """Closed loop over the pool until ``seconds`` pass and MIN_ROUNDS ran.

    Request ``k`` of the phase is pool request ``k % len(pool)``, so the
    latencies come in rounds of the pool in pool order.

    Set-up objects are frozen out of the collector and a collection runs
    before each request, outside its timing, so one request's latency does
    not include collecting garbage from the set-up or earlier requests.
    """
    tally = Tally()
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_ROUNDS * len(bench.requests) or time.perf_counter() < deadline:
        gc.collect()
        tally.add(*bench.attempt(bench.requests[k % len(bench.requests)]))
        k += 1
    return tally


def one_pass(bench: Bench, requests, tr: tracing.Tracer | None = None, label: str = "") -> Tally:
    tally = Tally()
    for k, req in enumerate(requests):
        gc.collect()
        if tr is not None:
            tr.request = f"{label}{k}"
        tally.add(*bench.attempt(req))
    return tally


def e2e_metrics(tally: Tally, pool: int) -> dict[str, float]:
    """Every end-to-end metric but ``setup_s``, from a timed phase's rounds.

    A request's time is the median of its times over the rounds, so a slow
    spell of the host that covers fewer than half of a request's rounds
    does not move it; p50 and p90 are taken over the pool's requests.
    Throughput is the median over complete rounds.
    """
    lat = tally.latencies
    per_request = [statistics.median(lat[i::pool]) for i in range(pool)]
    rounds = [lat[r : r + pool] for r in range(0, len(lat) - pool + 1, pool)]
    return {
        "latency_p50_ms": statistics.median(per_request) * 1000,
        "latency_p90_ms": statistics.quantiles(per_request, n=10)[8] * 1000,
        "throughput_rps": statistics.median(pool / sum(r) for r in rounds),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# --------------------------------------------------------------------- runs


def repeated_setups(workload: str, seed: int, pstt, tr: tracing.Tracer | None = None):
    """SETUP_REPEATS set-ups: the last bench, their times, traced values."""
    times, values = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        bench = setup(workload, seed, pstt, POOL[workload])
        times.append(time.perf_counter() - t0)
        if tr is not None:
            values.append(tr.take())
    return bench, times, values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = time.perf_counter()
    pstt = import_pstt()
    import_s = time.perf_counter() - t0
    tr = tracing.Tracer() if trace else None
    if tr is not None:
        tr.install()
    bench, setup_times, setup_values = repeated_setups(workload, seed, pstt, tr)
    report = {"workload": workload, "seed": seed, "trace": int(trace), "request_digest": bench.text_digest}

    if tr is None:
        tally = timed_phase(bench, seconds)
        values = e2e_metrics(tally, len(bench.requests))
        # Set-ups after the measured phase too, so that the median samples
        # the host over the whole run, not only the state it started in.
        setup_times += repeated_setups(workload, seed, pstt)[1]
        values["setup_s"] = import_s + statistics.median(setup_times)
        units = dict(END_TO_END)
        ok = True
    else:
        tally, values, ok = traced_phase(bench, tr, seconds, setup_values)
        units = {name: unit for name, unit, _ in SETUP_LAYER} | dict(PASS_LAYER)
        tr.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_ratio=tally.failed / tally.attempted,
        eq_unknown_ratio=tally.eq_unknown_ratio,
        output_digest=tally.digest.hexdigest(),
        problems=tally.problems,
        metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2) + "\n")
    for problem in tally.problems:
        print(f"{workload}: failed request: {problem}", file=sys.stderr)
    return {
        "correct": ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def traced_phase(bench: Bench, tr: tracing.Tracer, seconds: float, setup_values: list[dict]):
    """Per-layer metrics over rounds on the first TRACE_POOL requests.

    Each round is one untraced and one traced pass.  Counts must repeat
    exactly from pass to pass; times are medians over rounds, and the
    tracing overhead is the difference of the two passes' median times.
    """
    requests = bench.requests[: TRACE_POOL[bench.workload]]
    tr.uninstall()
    gc.collect()
    gc.freeze()
    passes, tallies, untraced = [], [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        untraced.append(sum(one_pass(bench, requests).latencies))
        tr.install()
        tally = one_pass(bench, requests, tr, f"pass{len(passes)}/")
        tr.uninstall()
        values = tr.take()
        values["trace.request_s"] = sum(tally.latencies)
        values["equality.eq_unknown_ratio"] = tally.eq_unknown_ratio
        passes.append(values)
        tallies.append(tally)
    for values in passes:
        values["trace.overhead_s"] = values["trace.request_s"] - statistics.median(untraced)

    out: dict[str, float] = {}
    for name, _, key in SETUP_LAYER:
        out[name] = statistics.median(v.get(key, 0.0) for v in setup_values)
    deterministic = len({t.digest.hexdigest() for t in tallies}) == 1
    for name, unit in PASS_LAYER:
        series = [v.get(name, 0.0) for v in passes]
        if unit == "s":
            out[name] = statistics.median(series)
        else:
            out[name] = series[0]
            if len(set(series)) != 1:
                deterministic = False
                print(f"{name} differs between traced passes: {series}", file=sys.stderr)
    total = Tally(
        latencies=[x for t in tallies for x in t.latencies],
        failed=sum(t.failed for t in tallies),
        unknown=sum(t.unknown for t in tallies),
        problems=[p for t in tallies for p in t.problems][:5],
        digest=tallies[0].digest,
    )
    return total, out, deterministic


# -------------------------------------------------------------------- smoke


def smoke(seeds=(0, 1)) -> list[str]:
    """Every workload on small pools: correct outputs, equal digests.

    For each seed the pool is generated twice and served three times, the
    last time traced; texts, outputs and traced counts must repeat.
    """
    pstt = import_pstt()
    errors = []
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            size = SMOKE_POOL[workload]
            first = setup(workload, seed, pstt, size, warmup=0)
            second = setup(workload, seed, pstt, size, warmup=0)
            if first.text_digest != second.text_digest:
                errors.append(f"{workload} seed {seed}: request texts differ between generations")
            tr = tracing.Tracer()
            runs = [one_pass(first, first.requests), one_pass(second, second.requests)]
            counts = []
            for _ in range(2):
                tr.install()
                runs.append(one_pass(first, first.requests, tr))
                tr.uninstall()
                counts.append({k: v for k, v in tr.take().items() if not k.endswith("_s")})
            for tally in runs:
                errors += [f"{workload} seed {seed}: {p}" for p in tally.problems]
            if len({t.digest.hexdigest() for t in runs}) != 1:
                errors.append(f"{workload} seed {seed}: outputs differ between runs")
            if counts[0] != counts[1]:
                errors.append(f"{workload} seed {seed}: traced counts differ between runs")
    return errors


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; prints every metric by name."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads((OUT / f"report-{workload}-seed{seed}-trace{trace}.json").read_text())
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows += [("failed_ratio", report["failed_ratio"], "ratio"),
                 ("eq_unknown_ratio", report["eq_unknown_ratio"], "ratio")]
        for name, value, unit in rows:
            print(f"  {name:40s} {value:14.6g} {unit}")
        status |= not result["correct"]
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="check correctness and determinism only")
    args = ap.parse_args(argv)
    if args.smoke:
        errors = smoke()
        for e in errors:
            print(e)
        print("smoke: " + ("FAILED" if errors else "ok"))
        return 1 if errors else 0
    if args.workload is None:
        ap.error("--workload or --smoke is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
