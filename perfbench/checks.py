"""Correctness checks for classmix reports.

A report is checked two ways:

* against the reference recorded at ``REFERENCE_SEED`` (``perfbench/reference/<job>.json``):
  integers and strings exactly, floats within the 1e-12 relative tolerance of golden mode;
  on other seeds only jobs whose report ignores the seed are compared, with ``seed`` replaced;
* against seed-independent invariants of its subcommand, on every seed.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_TOL = 1e-12
SUM_TOL = 1e-9


def first_drift(old, new, path="$"):
    """First difference between two parsed reports, or None (golden-mode float rule).

    Kept apart from the program's own golden comparison so that a change to the
    program cannot loosen the check applied to it.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key not in old or key not in new:
                return f"{path}.{key} present on one side only"
            hit = first_drift(old[key], new[key], f"{path}.{key}")
            if hit:
                return hit
        return None
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return f"{path} length {len(old)} != {len(new)}"
        for i, (a, b) in enumerate(zip(old, new)):
            hit = first_drift(a, b, f"{path}[{i}]")
            if hit:
                return hit
        return None
    if isinstance(old, float) and isinstance(new, float):
        if abs(old - new) > FLOAT_TOL * max(abs(old), abs(new), 1.0):
            return f"{path}: {old!r} -> {new!r}"
        return None
    if type(old) is not type(new) or old != new:
        return f"{path}: {old!r} -> {new!r}"
    return None


def _near(value: float, target: float, what: str) -> list[str]:
    return [] if abs(value - target) <= SUM_TOL else [f"{what} is {value!r}, expected {target!r}"]


def _chartable(r: dict) -> list[str]:
    problems = []
    if r["orthogonality"]["passed"] is not True:
        problems.append("orthogonality check did not pass")
    squares = sum(d * d for d in r["degrees"])
    if squares != r["order"]:
        problems.append(f"squared degrees sum to {squares}, order is {r['order']}")
    return problems


def _mixpair(r: dict) -> list[str]:
    total = sum(p * s for p, s in zip(r["probs_per_class"], r["class_sizes"]))
    return _near(total, 1.0, "sum of probs_per_class * class_sizes")


def _survey(r: dict) -> list[str]:
    return _near(sum(p["weight"] for p in r["pairs"]), 1.0, "sum of survey weights")


def _thompson(r: dict) -> list[str]:
    order = sum(r["class_sizes"])
    problems = [] if 0 < r["support"] <= order else [f"support {r['support']} outside (0, {order}]"]
    return problems + _near(r["fraction"], r["support"] / order, "thompson fraction")


def _interleave(r: dict) -> list[str]:
    return _near(sum(r["probs"].values()), 1.0, "sum of interleave probs")


def _advantage(r: dict) -> list[str]:
    return _near(r["advantage"], abs(r["p_g"] - r["p_h"]), "advantage")


INVARIANTS = {
    "chartable": _chartable,
    "mixpair": _mixpair,
    "survey": _survey,
    "thompson": _thompson,
    "interleave": _interleave,
    "advantage": _advantage,
}


def load_reference(job_id: str):
    path = REFERENCE_DIR / f"{job_id}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def check_report(job, report_text: str, seed: int) -> list[str]:
    """Problems found in one job's stdout report; an empty list means the report is correct."""
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(report, dict) or report.get("subcommand") != job.argv[0]:
        return [f"report is not a {job.argv[0]} report"]
    try:
        problems = INVARIANTS[job.argv[0]](report)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"report lacks an expected field: {exc!r}"]
    if report.get("seed") != seed:
        problems.append(f"report seed {report.get('seed')!r}, expected {seed}")
    if seed == REFERENCE_SEED or job.seed_free:
        reference = load_reference(job.id)
        if reference is None:
            problems.append(f"no reference report for {job.id}")
        else:
            reference["seed"] = seed
            drift = first_drift(reference, report)
            if drift:
                problems.append(f"differs from reference: {drift}")
    return problems
