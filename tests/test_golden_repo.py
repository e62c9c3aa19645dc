"""Regression against the golden files committed under goldens/v1.

A golden is a report recorded as ``classmix <argv> > goldens/v1/<name>.json``.  A fresh report
matches it when the benchmark's own comparator, ``first_drift`` in perfbench/checks.py, finds
no difference: keys, lengths, JSON types, integers and strings exactly, floats within 1e-12
relative.  Both sides must be finite JSON first, since ``first_drift`` passes a float that
turned into NaN or Infinity.
"""

import json
from pathlib import Path

import pytest

from classmix.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens" / "v1"

CASES = [
    ("chartable__A5__seed0", ["chartable", "A:5"]),
    ("chartable__PSL27__seed0", ["chartable", "PSL2:7"]),
    ("zeta__A5__seed0", ["zeta", "A:5", "--s", "0", "1", "2"]),
    ("thompson__PSL27__seed0", ["thompson", "PSL2:7"]),
    ("survey__A5__seed0", ["survey", "A:5", "--coupling", "independent"]),
    # 7A/7B are inverse to each other, so this pins the l* column of the structure constants
    ("survey__PSL27__seed0", ["survey", "PSL2:7", "--coupling", "independent"]),
    ("interleave__A5__seed2024", ["interleave", "A:5", "--t", "2", "--alpha", "0.5", "--seed", "2024"]),
    # all of G^2 on both sides: the exactly uniform distribution, with no draw
    ("interleave__S3__alpha1__seed0", ["interleave", "S:3", "--t", "2", "--alpha", "1"]),
    ("chartable__PSL29__seed0", ["chartable", "PSL2:9"]),
    ("thompson__SL28__seed0", ["thompson", "SL2:8"]),
    # keys all 360 elements by canonical hex, so it pins element order and multiplication
    ("interleave__PSL29__seed0", ["interleave", "PSL2:9", "--t", "2", "--mc", "100000"]),
    # A:8 splits by 11 of its 13 non-identity class matrices, the deepest split of these goldens
    ("chartable__A8__seed0", ["chartable", "A:8"]),
    # 7A . 7B, a class pair and its inverse pair, by both methods
    ("mixpair__PSL27__x3y5_char__seed0", ["mixpair", "PSL2:7", "--x", "3", "--y", "5", "--method", "char"]),
    ("mixpair__PSL27__x3y5_brute__seed0", ["mixpair", "PSL2:7", "--x", "3", "--y", "5", "--method", "brute"]),
    ("survey__A5__diagonal__seed0", ["survey", "A:5", "--coupling", "diagonal"]),
    ("survey__A5__transinv7__seed0", ["survey", "A:5", "--coupling", "transinv:7"]),
    # the report echoes --protocol, so the case runs in GOLDEN_DIR and names the file relative to it
    (
        "advantage__S3__seed0",
        ["advantage", "S:3", "--protocol", "advantage_S3.protocol", "--g", "0", "--h", "1", "--samples", "20000"],
    ),
]


def test_every_golden_has_a_case():
    """Each goldens/v1/*.json report is compared by exactly one CASES entry, and each entry has its file."""
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.json")) == sorted(name for name, _ in CASES)


def _refuse_constant(name):
    raise ValueError(f"report holds {name}")


def golden_drift(checks, golden_text: str, fresh_text: str):
    """First difference between a golden and a fresh report, or None when the fresh one matches."""
    try:
        golden = json.loads(golden_text, parse_constant=_refuse_constant)
        fresh = json.loads(fresh_text, parse_constant=_refuse_constant)
    except ValueError as exc:
        return str(exc)
    return checks.first_drift(golden, fresh)


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_compare(name, argv, perfbench, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert main(argv) == 0
    assert golden_drift(perfbench("checks"), golden, capsys.readouterr().out) is None


def test_golden_survey_csv_is_byte_identical(tmp_path):
    """The survey CSV of ``classmix survey A:5 --out <dir>`` is compared with ``cmp``, not within tolerance."""
    assert main(["survey", "A:5", "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "survey__A5__seed0.csv").read_bytes() == (GOLDEN_DIR / "survey__A5__seed0.csv").read_bytes()


def _first_l1(report, value):
    report["pairs"][0]["l1"] = value(report["pairs"][0]["l1"])


# Each edit turns the parsed survey__A5__seed0 golden into a fresh report written with json.dumps(indent=...).
EDITS = {
    "reindented": (4, lambda r: None, True),
    "float-1e-15-relative": (2, lambda r: _first_l1(r, lambda x: x * (1 + 1e-15)), True),
    "float-1e-3-relative": (2, lambda r: _first_l1(r, lambda x: x * (1 + 1e-3)), False),
    "false-to-0": (2, lambda r: r.update(sampled=0), False),
    "1-to-1.0": (2, lambda r: r.update(schema=1.0), False),
    "missing-key": (2, lambda r: r.pop("normalization_note"), False),
    "nan": (2, lambda r: _first_l1(r, lambda x: float("nan")), False),
    "infinity": (2, lambda r: _first_l1(r, lambda x: float("inf")), False),
}


@pytest.mark.parametrize("indent,edit,matches", EDITS.values(), ids=EDITS.keys())
def test_golden_check_tolerance(indent, edit, matches, perfbench):
    golden = (GOLDEN_DIR / "survey__A5__seed0.json").read_text(encoding="utf-8")
    report = json.loads(golden)
    edit(report)
    fresh = json.dumps(report, sort_keys=True, indent=indent) + "\n"
    assert fresh != golden
    assert (golden_drift(perfbench("checks"), golden, fresh) is None) == matches
