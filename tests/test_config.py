import numpy as np
import pytest

from classmix import config
from classmix.errors import CapExceeded, LoopBudgetExceeded
from classmix.groups import GroupSpec, conj_classes, group_build
from classmix.mixing import p_brute


def test_defaults():
    assert config.DEFAULT_MAX_ORDER == 2_000_000
    assert config.loop_budget() == 10**9
    with pytest.raises(CapExceeded, match="above the cap 2000000"):
        group_build(GroupSpec.alt(11))  # 19,958,400 elements, refused before the closure starts


def test_env_override_loop_budget(monkeypatch):
    table = group_build(GroupSpec.alt(5))
    classes = conj_classes(table)
    monkeypatch.setenv("MIXER_LOOP_BUDGET", "10")
    with pytest.raises(LoopBudgetExceeded):
        p_brute(1, 1, table, classes)


def test_canonical_encoding_idempotent():
    # engine canonicalization: re-canonicalizing every stored element changes nothing
    table = group_build(GroupSpec.psl2(7))
    rows = table.rows_of(slice(None))
    assert np.array_equal(table.engine.canonical(rows), rows)
    assert [table.index_of(key) for key in table.elements] == list(range(table.order))
