"""Regression against the golden files committed under goldens/v1."""

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
    ("chartable__PSL29__seed0", ["chartable", "PSL2:9"]),
    ("thompson__SL28__seed0", ["thompson", "SL2:8"]),
    # keys all 360 elements by canonical hex, so it pins element order and multiplication
    ("interleave__PSL29__seed0", ["interleave", "PSL2:9", "--t", "2", "--mc", "100000"]),
    # A:8 splits by 11 of its 13 non-identity class matrices, the deepest split of these goldens
    ("chartable__A8__seed0", ["chartable", "A:8"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_compare(name, argv):
    assert (GOLDEN_DIR / f"{name}.json").exists(), "golden file missing from repo"
    code = main(argv + ["--golden", "compare", "--golden-dir", str(GOLDEN_DIR), "--quiet"])
    assert code == 0
