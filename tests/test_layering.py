"""The compiler is usable without the semantic oracle and the test kit.

``pstt.semantics`` (models, interpreter, law checker) and ``pstt.testkit``
(generators, proof search) sit above the compiler modules and are used
only by tests and by ``pstt selfcheck``.  Every other import in the
package sits at the top of its module, so the order in which modules use
each other is visible there and has no loop.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pstt

PACKAGE = Path(pstt.__file__).resolve().parent

# The one function allowed to import: selfcheck runs the oracle's suites.
DEFERRED = {("cli.py", "_cmd_selfcheck"): {"semantics", "testkit"}}


def _loaded_after(statement: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.split()


def test_compiler_imports_load_no_oracle_and_no_testkit():
    for statement in ("import pstt", "import pstt.cli"):
        loaded = _loaded_after(statement)
        assert "pstt" in loaded
        above = [m for m in loaded if m.startswith("pstt.semantics") or m == "pstt.testkit"]
        assert above == [], f"{statement!r} loads {above}"


def _function_imports(tree: ast.AST):
    """(function name, import node) for every import inside a function body."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield fn.name, node


def test_no_function_level_imports():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    found = []
    for path in sources:
        rel = path.relative_to(PACKAGE).as_posix()
        for fn, node in _function_imports(ast.parse(path.read_text(), filename=str(path))):
            allowed = DEFERRED.get((rel, fn), set())
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in allowed:
                continue
            found.append(f"{rel}:{node.lineno} in {fn}")
    assert found == []


# Functions whose body calls themselves, with why their depth is bounded.
SELF_RECURSIVE = {
    ("semantics/model.py", "_merge_combs"): "coherence construction; depth is the context length",
    ("semantics/model.py", "_to_comb"): "coherence construction; depth is the context length",
    ("semantics/model.py", "_swap_at"): "coherence construction; depth is the context length",
    ("testkit.py", "random_type"): "generator; depth bounded by the requested size",
    ("testkit.py", "enum"): "enumerator; depth bounded by the requested size",
}


def _calls_itself(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if isinstance(f, ast.Attribute) and f.attr == fn.name:
                if isinstance(f.value, ast.Name) and f.value.id == "self":
                    return True
    return False


def test_only_the_listed_functions_call_themselves():
    """Every function that calls its own name, or ``self.<name>`` for a method.

    The coherence construction is reached only through the syntactic
    model's default ``reorder``; everything that walks a judgement's term or
    derivation does so on an explicit stack.  Mutual recursion, such as
    ``testkit``'s ``_Gen.gen`` and ``gen_with``, is not seen here.
    """
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(fn):
                found.add((rel, fn.name))
    assert found == set(SELF_RECURSIVE)
