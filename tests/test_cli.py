import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pstt.cli
import reference_normalize
from pstt import from_json, parse, print_term, validate
from pstt.cli import run
from pstt.equality import DEFAULT_BUDGET


def invoke(*argv, env=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if env is not None:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_check_ok(chip0_path, corpus_path):
    code, out, err = invoke("check", str(corpus_path), "--chip", str(chip0_path))
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 20
    assert all(line.endswith(": ok") for line in lines)


def test_check_reports_type_errors(tmp_path, chip0_path):
    src = tmp_path / "bad.pstt"
    src.write_text("schedule bad (x:^0 q1) : [30] q1 = box[30] x\n")
    code, out, err = invoke("check", str(src), "--chip", str(chip0_path))
    assert code == 1
    assert "grade mismatch" in out


def test_parse_error_exit_code(tmp_path, chip0_path):
    src = tmp_path / "syntax.pstt"
    src.write_text("schedule s () : 1 = let * in x\n")
    code, out, err = invoke("check", str(src), "--chip", str(chip0_path))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["check", "infer", "normalize", "emit"])
def test_a_source_that_is_not_utf8_is_a_user_error(tmp_path, chip0_path, corpus_path, command):
    src = tmp_path / "latin1.pstt"
    src.write_bytes(corpus_path.read_bytes() + b"# caf\xe9\n\xff")
    extra = ("--name", "single_h1", "-o", str(tmp_path / "out.json")) if command == "emit" else ()
    code, out, err = invoke(command, str(src), "--chip", str(chip0_path), *extra)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {src}: ")
    assert "can't decode byte" in err
    assert "internal error" not in err


def test_a_chip_file_that_is_not_utf8_is_a_user_error(tmp_path, chip0_path, corpus_path):
    chip = tmp_path / "chip.json"
    chip.write_bytes(chip0_path.read_bytes().replace(b'"q1"', b'"q\xb9"', 1))
    for argv in (("check", str(corpus_path)), ("selfcheck",)):
        code, out, err = invoke(*argv, "--chip", str(chip))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read chip file {chip}: ")
        assert "can't decode byte" in err
        assert "internal error" not in err


@pytest.mark.parametrize(
    "text, col",
    [("schedule s (x:^² q1) : q1 = x\n", 16), ("schedule s (x:^0 q1) : [0] q1 = box[²] x\n", 37)],
)
def test_a_digit_that_is_not_decimal_is_a_parse_error(tmp_path, chip0_path, text, col):
    src = tmp_path / "digit.pstt"
    src.write_text(text, encoding="utf-8")
    code, out, err = invoke("check", str(src), "--chip", str(chip0_path))
    assert (code, out, err) == (1, "", f"error: {src}:1:{col}: expected integer, found '²'\n")


def test_infer_flags_slack_convention(tmp_path, chip0_path):
    src = tmp_path / "s.pstt"
    src.write_text(
        "schedule a (u:^0 1, x:^-20 q1) : q1 = let * = u in H1(x)\n"
        "schedule b (x:^-20 q1) : q1 = H1(x)\n"
        # The slack is solved (``a`` and ``b`` share a grade), yet a let * is there.
        "schedule c (p:^0 1 * q1) : q1 = let (a, b) = p in let * = a in b\n"
    )
    code, out, _ = invoke("infer", str(src), "--chip", str(chip0_path))
    assert code == 0
    a_line, b_line, c_line = out.strip().splitlines()
    assert "convention" in a_line
    assert "convention" not in b_line
    assert "x:^-20 q1" in b_line
    assert c_line == "c: (p:^0 1 * q1) : q1   # free let-* shifts reported at 0 (convention)"


def test_normalize_output(tmp_path, chip0_path):
    src = tmp_path / "s.pstt"
    src.write_text(
        "schedule r (x:^-20 q1) : q1 = let box[30] b = box[30] H1(x) in b\n"
    )
    code, out, _ = invoke("normalize", str(src), "--chip", str(chip0_path))
    assert code == 0
    assert out.strip() == "r: H1(x)"


# Declarations that rewrite, after the fixture corpus, which is normal already.
REWRITING = """\
schedule beta_box (x:^-20 q1) : q1 = let box[30] b = box[30] H1(x) in b
schedule unit_left (c:^0 1) : 1 * 1 = (c, *)
schedule parked (p:^0 1 * q1) : 1 * q1 = let (a, b) = p in let * = a in (*, b)
schedule shadowing (x:^0 1, p:^0 1 * 1) : 1 * 1 = let * = x in let (x, y) = p in (y, x)
"""


def test_normalize_prints_the_reference_normal_forms(tmp_path, chip0, chip0_path, corpus_path):
    src = tmp_path / "s.pstt"
    src.write_text(corpus_path.read_text() + REWRITING)
    code, out, err = invoke("normalize", str(src), "--chip", str(chip0_path))
    assert (code, err) == (0, "")
    want, rewritten = [], 0
    for decl in parse(src.read_text()).declarations:
        nf = reference_normalize.normalize(decl.term, context=decl.ctx, result_type=decl.type, chip=chip0)
        want.append(f"{decl.name}: {print_term(nf.term)}")
        rewritten += bool(nf.rules)
    assert out.splitlines() == want
    assert rewritten == 4


def test_eq_subcommand(tmp_path, chip0_path):
    src = tmp_path / "s.pstt"
    src.write_text(
        "schedule lhs (x:^-20 q1) : q1 = let * = * in H1(x)\n"
        "schedule rhs (x:^-20 q1) : q1 = H1(x)\n"
        "schedule other (x:^-20 q1) : q1 = K1(x)\n"
    )
    code, out, _ = invoke(
        "eq", str(src), "--chip", str(chip0_path), "--name", "lhs", "--name", "rhs"
    )
    assert code == 0
    assert out.strip() == "lhs = rhs: Equal"
    code, out, _ = invoke(
        "eq", str(src), "--chip", str(chip0_path), "--name", "lhs", "--name", "other"
    )
    assert code == 0
    assert "NotEqualBySemantics" in out


def test_eq_reports_a_resource_limit_as_a_user_error(tmp_path, chip0_path, monkeypatch):
    # Both chains parse, check and normalize; their different normal forms
    # are then refuted by comparing emitted schedules, with no deep stack.
    n = 1200
    other = "H1(" * (n // 2) + "K1(" + "H1(" * (n // 2 - 1) + "x" + ")" * n
    src = tmp_path / "chains.pstt"
    src.write_text(
        f"schedule a (x:^{-20 * n} q1) : q1 = {'H1(' * n}x{')' * n}\n"
        f"schedule b (x:^{-20 * n} q1) : q1 = {other}\n"
    )
    argv = ("eq", str(src), "--chip", str(chip0_path), "--name", "a", "--name", "b")
    code, out, err = invoke(*argv)
    assert (code, out, err) == (0, "a = b: NotEqualBySemantics\n", "")

    # Running out of stack or memory inside eq is still a user error.
    for exc in (RecursionError, MemoryError):

        def exhausted(*args, exc=exc, **kwargs):
            raise exc()

        monkeypatch.setattr(pstt.cli, "judgementally_equal", exhausted)
        code, out, err = invoke(*argv)
        assert code == 1
        assert f"resource limit exceeded: {exc.__name__}" in err


UNCALIBRATED_CHIP = {
    "qubits": ["q1"],
    "gates": [
        {"name": "G", "qubits": ["q1"], "duration_ns": 20},
        {"name": "H1", "qubits": ["q1"], "duration_ns": 20},
    ],
    "calibrations": {"H1": {"q1": list(range(20))}},
}


@pytest.mark.parametrize(
    "source, chip_doc, message",
    [
        (
            "schedule a (x:^-20 q1, y:^-20 q1) : q1 * q1 = (H1(x), H1(y))\n"
            "schedule b (x:^-20 q1, y:^-20 q1) : q1 * q1 = (H1(x), K1(y))\n",
            None,
            "qubit q1 is named twice in the context: by x and by y",
        ),
        (
            "schedule a (x:^-20 q1, y:^0 q9) : q1 * q9 = (H1(x), y)\n"
            "schedule b (x:^-20 q1, y:^0 q9) : q1 * q9 = (K1(x), y)\n",
            None,
            "unknown qubit 'q9'",
        ),
        (
            "schedule a (x:^-20 q1) : q1 = G(x)\n"
            "schedule b (x:^-20 q1) : q1 = H1(x)\n",
            UNCALIBRATED_CHIP,
            "gate 'G' has no calibration",
        ),
    ],
    ids=["repeated-qubit", "unknown-qubit", "missing-calibration"],
)
def test_a_judgement_without_a_schedule_is_a_user_error(
    tmp_path, chip0_path, source, chip_doc, message
):
    src = tmp_path / "s.pstt"
    src.write_text(source)
    chip = chip0_path
    if chip_doc is not None:
        chip = tmp_path / "chip.json"
        chip.write_text(json.dumps(chip_doc))
    code, out, _ = invoke("check", str(src), "--chip", str(chip))
    assert (code, out) == (0, "a: ok\nb: ok\n")

    code, out, err = invoke(
        "emit", str(src), "--chip", str(chip), "--name", "a", "-o", str(tmp_path / "a.json")
    )
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
    assert not (tmp_path / "a.json").exists()

    code, out, err = invoke("eq", str(src), "--chip", str(chip), "--name", "a", "--name", "b")
    assert (code, out, err) == (0, "a = b: Unknown (semantics unavailable)\n", "")


def test_no_command_reaches_the_generic_interpreter(
    tmp_path, chip0_path, corpus_path, corpus, forbid_interpreter
):
    pair = tmp_path / "pair.pstt"
    pair.write_text(
        "schedule h (x:^-20 q1) : q1 = H1(x)\nschedule k (x:^-20 q1) : q1 = K1(x)\n"
    )
    schedule = tmp_path / "s.json"
    commands = [
        (cmd, str(corpus_path), "--chip", str(chip0_path))
        for cmd in ("check", "infer", "normalize")
    ]
    commands += [
        ("emit", str(corpus_path), "--chip", str(chip0_path), "--name", d.name, "-o", str(schedule))
        for d in corpus.declarations
    ]
    commands.append(("eq", str(pair), "--chip", str(chip0_path), "--name", "h", "--name", "k"))

    def outputs():
        for argv in commands:
            schedule.unlink(missing_ok=True)
            code, out, _ = invoke(*argv)
            yield code, out, schedule.read_bytes() if schedule.exists() else None

    expected = list(outputs())
    assert expected[-1][:2] == (0, "h = k: NotEqualBySemantics\n")

    forbid_interpreter()
    assert list(outputs()) == expected


def test_eq_requires_two_names(chip0_path, corpus_path):
    code, _, err = invoke(
        "eq", str(corpus_path), "--chip", str(chip0_path), "--name", "single_h1"
    )
    assert code == 1
    assert "two" in err


def test_emit_writes_validated_json(tmp_path, chip0_path, corpus_path, chip0):
    out_path = tmp_path / "sched.json"
    code, out, _ = invoke(
        "emit",
        str(corpus_path),
        "--chip",
        str(chip0_path),
        "--name",
        "delayed_h1",
        "-o",
        str(out_path),
    )
    assert code == 0
    assert "validated" in out
    schedule = from_json(out_path.read_text())
    decl = parse(corpus_path.read_text()).declaration("delayed_h1")
    assert validate(schedule, decl.judgement).passed
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"channels", "provenance"}


def test_emit_byte_determinism(tmp_path, chip0_path, corpus_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = invoke(
            "emit", str(corpus_path), "--chip", str(chip0_path),
            "--name", "cx_then_gates", "-o", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_unknown_declaration(chip0_path, corpus_path, tmp_path):
    code, _, err = invoke(
        "emit", str(corpus_path), "--chip", str(chip0_path),
        "--name", "nope", "-o", str(tmp_path / "x.json"),
    )
    assert code == 1
    assert "nope" in err


def test_selfcheck_runs_green(chip0_path):
    code, out, _ = invoke("selfcheck", "--chip", str(chip0_path), "--seed", "0", "--cases", "12")
    assert code == 0
    assert "pulse-model laws" in out
    assert "linearity: 12/12 ok" in out


def test_selfcheck_deterministic(chip0_path):
    runs = [
        invoke("selfcheck", "--chip", str(chip0_path), "--seed", "3", "--cases", "8")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_color_env_toggles_styling(tmp_path, chip0_path, monkeypatch):
    src = tmp_path / "bad.pstt"
    src.write_text("schedule bad (x:^0 q1) : [30] q1 = box[30] x\n")
    code, out, _ = invoke(
        "check", str(src), "--chip", str(chip0_path),
        env={"PSTT_COLOR": "1"}, monkeypatch=monkeypatch,
    )
    assert code == 1
    assert "\x1b[31m" in out
    monkeypatch.setenv("PSTT_COLOR", "0")
    code, out, _ = invoke("check", str(src), "--chip", str(chip0_path))
    assert "\x1b[" not in out


def test_usage_error_for_unknown_flags(chip0_path, corpus_path):
    code, _, _ = invoke("check", str(corpus_path), "--chip", str(chip0_path), "--bogus")
    assert code != 0


@pytest.mark.parametrize("command", ["normalize", "eq"])
def test_budget_default_is_the_library_default(command):
    args = pstt.cli.build_parser().parse_args([command, "f.pstt", "--chip", "chip.json"])
    assert args.budget == DEFAULT_BUDGET


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "f.pstt"),
        ("infer", "f.pstt"),
        ("emit", "f.pstt", "--name", "a", "-o", "out.json"),
        ("selfcheck",),
    ],
)
def test_budget_is_a_usage_error_where_nothing_reads_it(chip0_path, capsys, argv):
    code, out, _ = invoke(*argv, "--chip", str(chip0_path), "--budget", "5")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_emit_reports_an_output_it_cannot_write(tmp_path, chip0_path, corpus_path):
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        code, out, err = invoke(
            "emit", str(corpus_path), "--chip", str(chip0_path),
            "--name", "single_h1", "-o", str(target),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert "internal error" not in err
    assert not (tmp_path / "missing").exists()


def test_the_module_runs_as_a_script(tmp_path, chip0_path, corpus_path):
    path = [str(Path(pstt.cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def script(*argv):
        return subprocess.run(
            [sys.executable, "-m", "pstt.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    proc = script("check", str(corpus_path), "--chip", str(chip0_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.strip().splitlines()) == 20
    bad = tmp_path / "bad.pstt"
    bad.write_text("schedule bad (x:^0 q1) : [30] q1 = box[30] x\n")
    proc = script("check", str(bad), "--chip", str(chip0_path))
    assert proc.returncode == 1
    assert "grade mismatch" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("selfcheck", "--cases", "-3"),
        ("selfcheck", "--cases", "two"),
        ("normalize", "f.pstt", "--budget", "-1"),
        ("eq", "f.pstt", "--budget", "-1", "--name", "a", "--name", "b"),
    ],
)
def test_counts_must_not_be_negative(chip0_path, capsys, argv):
    code, out, _ = invoke(*argv, "--chip", str(chip0_path))
    assert (code, out) == (1, "")
    assert "expected a non-negative integer" in capsys.readouterr().err


def test_zero_counts_are_valid(chip0_path, corpus_path):
    code, out, err = invoke("selfcheck", "--chip", str(chip0_path), "--cases", "0")
    assert (code, err) == (0, "")
    assert "linearity: 0/0 ok" in out
    code, out, err = invoke("normalize", str(corpus_path), "--chip", str(chip0_path), "--budget", "0")
    assert err == ""
    assert len(out.splitlines()) == 20


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("--help",), 0),
        (("check", "--help"), 0),
        (("--version",), 0),
        ((), 1),
        (("bogus",), 1),
        (("check", "f.pstt"), 1),
        (("check", "f.pstt", "--chip", "c.json", "--bogus"), 1),
    ],
)
def test_usage_errors_exit_1_and_help_exits_0(capsys, argv, expected):
    assert invoke(*argv)[0] == expected
    captured = capsys.readouterr()
    assert ("usage:" in captured.err) == bool(expected)
