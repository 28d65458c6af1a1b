import importlib
from pathlib import Path

import pytest

from pstt import parse, parse_chip_spec

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def chip0():
    return parse_chip_spec((FIXTURES / "chip0.json").read_text())


@pytest.fixture(scope="session")
def chip0_path():
    return FIXTURES / "chip0.json"


@pytest.fixture(scope="session")
def corpus():
    return parse((FIXTURES / "corpus.pstt").read_text())


@pytest.fixture(scope="session")
def corpus_path():
    return FIXTURES / "corpus.pstt"


@pytest.fixture
def forbid_interpreter(monkeypatch):
    """Call it to make ``interpret`` and ``PulseModel`` raise wherever reached."""

    def unreachable(*args, **kwargs):
        raise AssertionError("the generic interpreter was reached")

    def install():
        semantics = importlib.import_module("pstt.semantics")
        monkeypatch.setattr(semantics, "interpret", unreachable)
        module = importlib.import_module("pstt.semantics.interpret")
        monkeypatch.setattr(module, "interpret", unreachable)
        monkeypatch.setattr(semantics.PulseModel, "__init__", unreachable)

    return install
