"""Command-line front end.

Exit codes: 0 success, 1 user error (parse/type/validation failure, a
judgement with no schedule on the chip, or an input too large for the
available stack or memory), 2 internal invariant breach.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

from . import __version__
from .chip import ChipError, ChipSpec, parse_chip_spec
from .equality import DEFAULT_BUDGET, BudgetExceeded, EqKind, judgementally_equal, normalize
from .schedule import Unschedulable, emit, to_json, validate
from .surface import (
    ParseError,
    SourceFile,
    parse,
    print_context,
    print_term,
    print_type,
)
from .syntax import free_occurrences
from .typecheck import TypingError, check, infer


class _Fail(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _color_enabled() -> bool:
    return os.environ.get("PSTT_COLOR", "0") == "1"


def _error_text(message: str) -> str:
    if _color_enabled():
        return f"\x1b[31merror:\x1b[0m {message}"
    return f"error: {message}"


def _load_chip(path: str) -> ChipSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Fail(f"cannot read chip file {path}: {exc}") from exc
    try:
        return parse_chip_spec(text)
    except ChipError as exc:
        raise _Fail(f"{path}: {exc}") from exc


def _load_source(path: str) -> SourceFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Fail(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except ParseError as exc:
        raise _Fail(f"{path}:{exc.diagnostic.line}:{exc.diagnostic.column}:"
                    f" {exc.diagnostic.message}") from exc


def _cmd_check(args, out) -> int:
    chip = _load_chip(args.chip)
    source = _load_source(args.file)
    failures = 0
    for decl in source.declarations:
        try:
            check(decl.judgement, chip)
            print(f"{decl.name}: ok", file=out)
        except TypingError as exc:
            failures += 1
            print(f"{decl.name}: {_error_text(str(exc))}", file=out)
    return 1 if failures else 0


def _cmd_infer(args, out) -> int:
    chip = _load_chip(args.chip)
    source = _load_source(args.file)
    failures = 0
    for decl in source.declarations:
        env = {e.name: e.type for e in decl.ctx}
        try:
            judgement, _, report = infer(decl.term, env, chip)
        except TypingError as exc:
            failures += 1
            print(f"{decl.name}: {_error_text(str(exc))}", file=out)
            continue
        note = ""
        if report.slack_ids:
            note = "   # free let-* shifts reported at 0 (convention)"
        print(
            f"{decl.name}: ({print_context(judgement.ctx)}) :"
            f" {print_type(judgement.type)}{note}",
            file=out,
        )
    return 1 if failures else 0


def _cmd_normalize(args, out) -> int:
    chip = _load_chip(args.chip)
    source = _load_source(args.file)
    failures = 0
    for decl in source.declarations:
        try:
            check(decl.judgement, chip)
            nf = normalize(
                decl.term,
                context=decl.ctx,
                result_type=decl.type,
                chip=chip,
                budget=args.budget,
            )
            print(f"{decl.name}: {print_term(nf.term)}", file=out)
        except TypingError as exc:
            failures += 1
            print(f"{decl.name}: {_error_text(str(exc))}", file=out)
        except BudgetExceeded as exc:
            failures += 1
            print(f"{decl.name}: {_error_text(str(exc))}", file=out)
    return 1 if failures else 0


def _cmd_eq(args, out) -> int:
    if len(args.name) != 2:
        raise _Fail("eq needs exactly two --name declarations")
    chip = _load_chip(args.chip)
    source = _load_source(args.file)
    try:
        a = source.declaration(args.name[0])
        b = source.declaration(args.name[1])
    except KeyError as exc:
        raise _Fail(f"no declaration named {exc.args[0]!r}") from exc
    if a.ctx != b.ctx or a.type != b.type:
        raise _Fail("declarations must share the same context and type")
    try:
        verdict = judgementally_equal(
            a.ctx, a.term, b.term, a.type, chip, budget=args.budget
        )
    except TypingError as exc:
        raise _Fail(str(exc)) from exc
    if verdict.kind is EqKind.UNKNOWN and verdict.reason:
        print(f"{a.name} = {b.name}: {verdict.kind.value} ({verdict.reason})", file=out)
    else:
        print(f"{a.name} = {b.name}: {verdict.kind.value}", file=out)
    return 0


def _cmd_emit(args, out) -> int:
    chip = _load_chip(args.chip)
    source = _load_source(args.file)
    try:
        decl = source.declaration(args.name)
    except KeyError as exc:
        raise _Fail(f"no declaration named {exc.args[0]!r}") from exc
    try:
        schedule = emit(decl.judgement, chip)
    except (TypingError, Unschedulable) as exc:
        raise _Fail(str(exc)) from exc
    report = validate(schedule, decl.judgement)
    if not report.passed:
        # emit guarantees completeness; a failure here is a bug, not misuse.
        raise _Fail(f"emitted schedule failed validation: {report.summary()}", code=2)
    text = to_json(schedule)
    Path(args.output).write_text(text, encoding="utf-8")
    print(
        f"wrote {args.output} ({len(schedule.channels)} channel(s), validated)",
        file=out,
    )
    return 0


def _cmd_selfcheck(args, out) -> int:
    # The oracle and the generator are test tools; no other command loads them.
    from .semantics import (
        LawCheckConfig,
        PulseModel,
        check_model_laws,
        sample_pulse_morphisms,
        sample_pulse_objects,
    )
    from .testkit import GenConfig, gen_judgement

    chip = _load_chip(args.chip)
    rng = random.Random(args.seed)
    failures = 0

    model = PulseModel(chip)
    objects = sample_pulse_objects(chip, grades=(-2, 0, 3), max_qubits=2)
    morphisms = sample_pulse_morphisms(model, objects[:40], rng)
    law_report = check_model_laws(
        model,
        LawCheckConfig(
            objects=tuple(objects[:40]), morphisms=tuple(morphisms[:60]), seed=args.seed
        ),
    )
    print(f"selfcheck: pulse-model laws: {law_report.summary()}", file=out)
    failures += len(law_report.failures)

    cfg = GenConfig(chip=chip, seed=args.seed, distinct_qubits=True)
    linear_bad = 0
    preserve_bad = 0
    for case in range(args.cases):
        j = gen_judgement(cfg, rng=rng)
        names = sorted(e.name for e in j.ctx)
        occurrences = sorted(free_occurrences(j.term))
        if names != occurrences:
            linear_bad += 1
            continue
        nf = normalize(j.term, context=j.ctx, result_type=j.type, chip=chip)
        for step in nf.trace:
            try:
                check(type(j)(j.ctx, step.result, j.type), chip)
            except TypingError:
                preserve_bad += 1
                break
    print(
        f"selfcheck: linearity: {args.cases - linear_bad}/{args.cases} ok",
        file=out,
    )
    print(
        f"selfcheck: rewrite typing preservation: {args.cases - preserve_bad}/{args.cases} ok",
        file=out,
    )
    failures += linear_bad + preserve_bad
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstt",
        description="Type-check, normalize and schedule graded pulse programs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_common(p, file_arg=True):
        if file_arg:
            p.add_argument("file", help="a .pstt source file")
        p.add_argument("--chip", required=True, help="chip spec JSON file")
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BUDGET,
            help="rewrite budget: one per beta, eta or hoist step and one per sort of a let prefix",
        )

    with_common(sub.add_parser("check", help="type-check all declarations"))
    with_common(sub.add_parser("infer", help="infer context and type per declaration"))
    with_common(sub.add_parser("normalize", help="print normal forms"))

    eq = sub.add_parser("eq", help="decide judgemental equality of two declarations")
    with_common(eq)
    eq.add_argument("--name", action="append", default=[], help="declaration (twice)")

    emit_p = sub.add_parser("emit", help="emit a schedule JSON for one declaration")
    with_common(emit_p)
    emit_p.add_argument("--name", required=True, help="declaration to emit")
    emit_p.add_argument("-o", "--output", required=True, help="output JSON path")

    selfcheck = sub.add_parser("selfcheck", help="run law and metatheory suites")
    with_common(selfcheck, file_arg=False)
    selfcheck.add_argument("--seed", type=int, default=0)
    selfcheck.add_argument("--cases", type=int, default=50)
    return parser


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "check": _cmd_check,
        "infer": _cmd_infer,
        "normalize": _cmd_normalize,
        "eq": _cmd_eq,
        "emit": _cmd_emit,
        "selfcheck": _cmd_selfcheck,
    }
    try:
        return handlers[args.command](args, out)
    except _Fail as exc:
        print(_error_text(str(exc)), file=err)
        return exc.code
    except (RecursionError, MemoryError) as exc:
        print(_error_text(f"resource limit exceeded: {type(exc).__name__}"), file=err)
        return 1
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(_error_text(f"internal error: {exc!r}"), file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
