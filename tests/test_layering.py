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
