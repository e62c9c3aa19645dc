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
        constants = structure_constants(chartable, classes)
        _cache[label] = (table, classes, constants, chartable)
    return _cache[label]


@pytest.fixture(scope="session")
def group_cache():
    return built
