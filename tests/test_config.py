import numpy as np
import pytest

from classmix import config
from classmix.errors import CapExceeded, LoopBudgetExceeded, SpecSyntax
from classmix.groups import GroupSpec, conj_classes, group_build
from classmix.mixing import p_brute


def test_defaults():
    assert config.max_order() == 2_000_000
    assert config.loop_budget() == 10**9


def test_env_override_max_order(monkeypatch):
    monkeypatch.setenv("MIXER_MAX_ORDER", "50")
    assert config.max_order() == 50
    with pytest.raises(CapExceeded):
        group_build(GroupSpec.alt(5))


def test_env_override_loop_budget(monkeypatch):
    table = group_build(GroupSpec.alt(5))
    classes = conj_classes(table)
    monkeypatch.setenv("MIXER_LOOP_BUDGET", "10")
    with pytest.raises(LoopBudgetExceeded):
        p_brute(1, 1, table, classes)


def test_explicit_override_beats_env(monkeypatch):
    monkeypatch.setenv("MIXER_MAX_ORDER", "50")
    assert config.max_order(1000) == 1000


def test_bad_env_value(monkeypatch):
    monkeypatch.setenv("MIXER_MAX_ORDER", "many")
    with pytest.raises(SpecSyntax):
        config.max_order()
    monkeypatch.setenv("MIXER_MAX_ORDER", "-3")
    with pytest.raises(SpecSyntax):
        config.max_order()


def test_canonical_encoding_idempotent():
    # engine canonicalization: re-canonicalizing every stored element changes nothing
    table = group_build(GroupSpec.psl2(7))
    assert np.array_equal(table.engine.canonical(table.rows), table.rows)
    assert [table.index_of(key) for key in table.elements] == list(range(table.order))
