"""The package, its tests and its benchmark parse as the oldest Python declared.

``pyproject.toml`` declares ``requires-python``; syntax newer than that
version (a ``match`` statement on 3.9, say) would break ``import pstt``
there, and tier-1 collects ``tests`` and ``bench`` on it too.  This
checks syntax only, not newer library features.
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
    sources += sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=oldest)
