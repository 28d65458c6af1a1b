"""Every module of the package parses as the oldest Python it declares.

``pyproject.toml`` declares ``requires-python``; syntax newer than that
version (a ``match`` statement on 3.9, say) would break ``import pstt``
there.  This checks syntax only, not newer library features.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_the_oldest_supported_python():
    declared = re.search(
        r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M
    )
    assert declared, "pyproject.toml declares no minimum Python"
    oldest = (int(declared[1]), int(declared[2]))
    assert oldest == (3, 10)
    sources = sorted((ROOT / "src" / "pstt").rglob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=oldest)
