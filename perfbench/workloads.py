"""The two benchmark workloads: fixed lists of classmix CLI jobs, plus their seeded inputs.

Each workload stresses different layers (see BENCHMARK.json for the why-sentences):

* chartable -- group closure, class sweeps, structure constants and character tables,
  through the permutation engine and the 2x2 matrix engine, plus field tables;
* products  -- exact class-product pair loops, the dense multiplication table, and the
  Monte Carlo, exact and fiber-sampling uses of the interleave layer.

Each is two job lists run as one, so that a run measures many jobs and a few slow
seconds of the machine move its total less.

The workload seed only changes the generated inputs and the ``--seed`` passed to every
job; it never changes how much work a job does, so runs on different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Monte Carlo draws per interleave MC job and fiber samples per advantage evaluation.
MC_SAMPLES = 10_000_000
ADVANTAGE_SAMPLES = 2_000_000

# Generators of SL2(2) ~ S3 inside GL2(512): the job costs the GF(512) tables, not the group.
MATGEN_ROWS = ("1,1,0,1", "0,1,1,0")

A5_ORDER = 60
S8_DEGREE = 8


@dataclass(frozen=True)
class Job:
    """One classmix invocation: ``classmix <argv> --seed <seed>`` run in the inputs directory.

    ``seed_free`` marks jobs whose report depends on the seed only through its ``seed``
    field, so they are compared with the recorded reference on every seed.
    """

    id: str
    argv: tuple[str, ...]
    seed_free: bool


def _chartable_perm(seed: int, inputs: Path) -> list[Job]:
    return [
        Job("chartable_S9", ("chartable", "S:9"), True),
        Job("survey_A9_independent", ("survey", "A:9", "--coupling", "independent"), True),
        Job("thompson_S8", ("thompson", "S:8"), True),
    ]


def _chartable_matrix(seed: int, inputs: Path) -> list[Job]:
    rows = list(MATGEN_ROWS)
    random.Random(seed).shuffle(rows)
    (inputs / "gens512.txt").write_text(f"# generators of SL2(2) in GL2(512), seed {seed}\n" + "\n".join(rows) + "\n")
    return [
        Job("chartable_PSL2_31", ("chartable", "PSL2:31"), True),
        Job("survey_PSL2_27", ("survey", "PSL2:27"), True),
        Job("thompson_SL2_16", ("thompson", "SL2:16"), True),
        Job("thompson_matgen_q512", ("thompson", "matgen:gens512.txt,q=512"), True),
    ]


def random_full_cycle(rng: random.Random, n: int) -> bytes:
    """A uniformly chosen n-cycle as canonical permutation bytes (0-based images)."""
    points = list(range(n))
    rng.shuffle(points)
    image = [0] * n
    for i, p in enumerate(points):
        image[p] = points[(i + 1) % n]
    return bytes(image)


def _mixing_exact(seed: int, inputs: Path) -> list[Job]:
    # The translate is drawn from the class of 8-cycles so every seed sweeps the same pairs.
    a = random_full_cycle(random.Random(seed), S8_DEGREE)
    return [
        # |C_14| * |C_15| = 5760 * 105 = 604,800 pairs (7-cycles times (12)(34)(56)(78)).
        Job("mixpair_S8_brute", ("mixpair", "S:8", "--x", "14", "--y", "15", "--method", "brute"), True),
        # |C_7| * |C_2| = 2880 * 210 = 604,800 pairs (7-cycles times (56)(78)).
        Job("mixpair_A8_brute", ("mixpair", "A:8", "--x", "7", "--y", "2", "--method", "brute"), True),
        # Order 660 <= 4096, so p_brute takes the dense multiplication-table path.
        Job("mixpair_PSL2_11_brute", ("mixpair", "PSL2:11", "--x", "4", "--y", "5", "--method", "brute"), True),
        Job("survey_S8_transinv", ("survey", "S:8", "--coupling", f"transinv:hex:{a.hex()}"), False),
    ]


def write_rectangle_protocol(rng: random.Random, inputs: Path) -> None:
    """A two-rectangle protocol on A:5 with t=2: (A_1 x G^2, bit 1) and (A_0 x G^2, bit 0).

    A_1 is a seeded half of G^2 and A_0 its complement, so the rectangles partition
    G^2 x G^2 as the protocol file format requires.
    """
    rows = [(i, j) for j in range(A5_ORDER) for i in range(A5_ORDER)]
    rng.shuffle(rows)
    half = len(rows) // 2
    for name, part in (("proto_a1.txt", rows[:half]), ("proto_a0.txt", rows[half:]), ("proto_b.txt", rows)):
        body = "".join(f"{i},{j}\n" for i, j in sorted(part))
        (inputs / name).write_text("t=2 group=A:5\n" + body)
    (inputs / "protocol.txt").write_text("1,proto_a1.txt,proto_b.txt\n0,proto_a0.txt,proto_b.txt\n")


def _interleave(seed: int, inputs: Path) -> list[Job]:
    rng = random.Random(seed)
    write_rectangle_protocol(rng, inputs)
    h = rng.randrange(1, A5_ORDER)
    mc = str(MC_SAMPLES)
    return [
        Job("interleave_A5_t3_mc", ("interleave", "A:5", "--t", "3", "--mc", mc), False),
        Job("interleave_A5_t4_mc", ("interleave", "A:5", "--t", "4", "--mc", mc), False),
        Job("interleave_PSL2_7_exact", ("interleave", "PSL2:7", "--t", "2", "--alpha", "0.5"), False),
        Job(
            "advantage_A5",
            ("advantage", "A:5", "--protocol", "protocol.txt", "--g", "0", "--h", str(h),
             "--samples", str(ADVANTAGE_SAMPLES)),
            False,
        ),
    ]


WORKLOADS = {
    "chartable": lambda seed, inputs: _chartable_perm(seed, inputs) + _chartable_matrix(seed, inputs),
    "products": lambda seed, inputs: _mixing_exact(seed, inputs) + _interleave(seed, inputs),
}


def make_jobs(workload: str, seed: int, inputs: Path) -> list[Job]:
    """Write the workload's input files for ``seed`` into ``inputs`` and return its jobs."""
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, inputs)
