import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from classmix.characters import dixon_character_table, structure_constants
from classmix.groups import GroupSpec, conj_classes, group_build

_cache: dict[str, tuple] = {}


def built(label: str):
    """Session-wide cache of (table, classes, constants, chartable) per group."""
    if label not in _cache:
        table = group_build(GroupSpec.parse(label))
        classes = conj_classes(table)
        chartable = dixon_character_table(table, classes)
        constants = structure_constants(chartable)
        _cache[label] = (table, classes, constants, chartable)
    return _cache[label]


@pytest.fixture(scope="session")
def group_cache():
    return built


@pytest.fixture
def perfbench(monkeypatch):
    """Loader of perfbench/<name>.py as a module, registered for the test only (its dataclasses look it up)."""

    def load(name: str):
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    return load
