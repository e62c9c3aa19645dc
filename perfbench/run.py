#!/usr/bin/env python3
"""classmix benchmark: run one workload of classmix CLI jobs, check every report, print metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  Every job runs cold in its own interpreter
(``python3 -m classmix.cli ...`` with ``PYTHONPATH=src``), one at a time, with
OpenMP/BLAS pinned to one thread, and its stdout report is checked afterwards
(see checks.py).  Inputs are generated from ``--seed`` under ``.bench_build/``.

``--trace 0`` cycles through the workload's jobs, each at least once, and then
runs again every job whose last wall time still fits within ``--seconds``; after
every job it repeats the set-up (input generation plus a cold ``import classmix.cli``)
and runs a probe, a fixed process that uses no classmix code.  The shared host runs
everything faster or slower in phases lasting tens of seconds to minutes, so each
job's wall time and each set-up time is scaled to the speed at which the probe takes
PROBE_REFERENCE_S, using the probes next to it.  It prints the end-to-end metrics:
the median scaled set-up time, the sum of the jobs' median scaled wall times and the
largest median max-RSS; the unscaled times are printed on a comment line and kept in
the result file.

``--trace 1`` runs every job once untraced and once traced (tracer.py) and prints
the per-layer metrics, all unscaled.  Metric names and units come from BENCHMARK.json.  The last stdout line is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when any job failed and 2 when the classmix sources are missing.

``--write-reference`` records the seed-0 reports that checks.py compares against.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import REFERENCE_DIR, REFERENCE_SEED, check_report
from workloads import WORKLOADS, make_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

JOB_TIMEOUT_S = 60
# The speed probe: a fresh interpreter that imports numpy and spins a pure-Python loop,
# so it starts, imports and computes as a classmix job does, but runs no classmix code.
# Timings are reported at the host speed where it takes PROBE_REFERENCE_S, about its
# median on the 2-vCPU Xeon VM of baseline.json.
PROBE = "import numpy\ns = 0\nfor i in range(400_000):\n    s += i * i % 7\n"
PROBE_REFERENCE_S = 0.3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Span counts turned into per-layer metrics: (span name, count key, metric, combine).
# Work counts add up over a workload's calls; sizes and ratios keep their largest value.
COUNTERS = (
    ("groups.group_build", "closure_products", "groups.closure_products", sum),
    ("groups.GroupTable.full_mul_table", "bytes", "groups.full_mul_table.bytes", max),
    ("characters.structure_constants", "bytes", "characters.structure_constants.bytes", max),
    ("characters.dixon_character_table", "prime", "characters.dixon_prime", max),
    ("characters.verify_orthogonality", "residual_over_tol", "characters.residual_over_tol", max),
    ("mixing.p_brute", "pairs", "mixing.p_brute.pairs", sum),
    ("mixing.p_brute", "budget_share", "mixing.p_brute.budget_share", max),
    ("interleave.mc_distribution", "samples", "interleave.mc_distribution.samples", sum),
    ("interleave.exact_distribution", "pairs", "interleave.exact_distribution.pairs", sum),
)
SIZE_KEYS = ("order", "classes", "exponent")
# Throughputs of the workloads that run Monte Carlo or exact-enumeration jobs.  They are
# per-layer metrics because BENCHMARK.json's end-to-end metrics must exist on every workload.
RATES = {"mc_samples_per_s": "mc_samples", "exact_pairs_per_s": "exact_pairs"}


def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_1m": os.getloadavg()[0],
    }


def run_process(cmd: list[str], cwd: Path, stdout_path: Path, stderr_path: Path) -> tuple[float, float, int]:
    """Run cmd to completion; return (wall seconds from spawn to exit, max RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=job_env(), stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.alarm(JOB_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def work_done(report: dict) -> dict:
    """Monte Carlo draws or exactly enumerated pairs that a passing report accounts for."""
    if report["subcommand"] == "interleave":
        key = "mc_samples" if report["mode"] == "montecarlo" else "exact_pairs"
        return {key: report["total"]}
    if report["subcommand"] == "mixpair" and report["method"] == "brute":
        sizes = report["class_sizes"]
        return {"exact_pairs": sizes[report["x_class"]] * sizes[report["y_class"]]}
    return {}


def run_job(job, seed: int, inputs: Path, outdir: Path, traced: bool = False, check: bool = True) -> dict:
    """Run one job in a fresh process and check its report; return its record."""
    outdir.mkdir(parents=True, exist_ok=True)
    stem = outdir / job.id
    argv = [*job.argv, "--seed", str(seed)]
    if traced:
        cmd = [sys.executable, str(TRACER), f"{stem}.spans.json", job.id, *argv]
    else:
        cmd = [sys.executable, "-m", "classmix.cli", *argv]
    wall, rss_mb, code = run_process(cmd, inputs, stem.with_suffix(".out"), stem.with_suffix(".err"))
    stdout = stem.with_suffix(".out").read_text(errors="replace")
    stderr = stem.with_suffix(".err").read_text(errors="replace")
    last_line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    problems = [] if code == 0 else [f"exit code {code}: {last_line}"]
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if code == 0 and check:
        problems += check_report(job, stdout, seed)
    record = {"job": job.id, "wall_s": wall, "rss_mb": rss_mb, "exit": code, "problems": problems, "work": {}}
    if check and not problems:
        record["work"] = work_done(json.loads(stdout))
    if traced:
        record["spans"] = json.loads(Path(f"{stem}.spans.json").read_text()) if code == 0 else []
    return record


def probe_s(cwd: Path) -> float:
    """Wall seconds of one probe process; it gets the jobs' environment without classmix on its path."""
    env = {k: v for k, v in job_env().items() if k != "PYTHONPATH"}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE], cwd=cwd, env=env, check=True)
    return time.perf_counter() - start


def set_up(workload: str, seed: int, inputs: Path):
    """Generate the workload's inputs, then import classmix.cli in a fresh interpreter; return (jobs, seconds)."""
    start = time.perf_counter()
    shutil.rmtree(inputs, ignore_errors=True)
    jobs = make_jobs(workload, seed, inputs)
    subprocess.run([sys.executable, "-c", "import classmix.cli"], cwd=inputs, env=job_env(), check=True)
    return jobs, time.perf_counter() - start


def summarize(records: list[dict], time_key: str = "wall_s") -> dict:
    """Whole-workload metrics from untraced job records, using each job's median over its runs.

    total_s sums the medians of ``time_key``; the throughputs always use wall time.
    """
    runs: dict[str, list[dict]] = {}
    for record in records:
        runs.setdefault(record["job"], []).append(record)
    wall = {job: statistics.median(r["wall_s"] for r in rows) for job, rows in runs.items()}
    timed = {job: statistics.median(r[time_key] for r in rows) for job, rows in runs.items()}
    summary = {
        "total_s": sum(timed.values()),
        "peak_rss_mb": max(statistics.median(r["rss_mb"] for r in rows) for rows in runs.values()),
    }
    for name, key in RATES.items():
        jobs = [job for job, rows in runs.items() if key in rows[0]["work"]]
        seconds = sum(wall[job] for job in jobs)
        summary[name] = sum(runs[job][0]["work"][key] for job in jobs) / seconds if seconds else 0.0
    return summary


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the durations of its direct children (calls nest, never overlap)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [(s["end"] - s["start"]) - c for s, c in zip(spans, child)]


def layer_metrics(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[dict]]:
    """Per-layer metrics of a traced pass, and the group sizes of each job."""
    metrics = {m["name"]: 0.0 if m["unit"] == "s" else 0 for m in SPEC["per_layer"]}
    gathered: dict[str, list] = {}
    sizes = []
    main_s = 0.0
    for record in traced:
        job_sizes = {"job": record["job"]}
        for span, self_s in zip(record["spans"], self_times(record["spans"])):
            name = span["name"]
            metrics[f"{name}.self_s"] += self_s
            metrics[f"{name}.calls"] += 1
            for key, value in span.get("counts", {}).items():
                gathered.setdefault(f"{name}/{key}", []).append(value)
                if key in SIZE_KEYS:
                    job_sizes[f"groups.{key}"] = value
            if span["parent"] is None:
                main_s += span["end"] - span["start"]
        sizes.append(job_sizes)
    for span_name, key, metric, combine in COUNTERS:
        values = gathered.get(f"{span_name}/{key}")
        if values:
            metrics[metric] = combine(values)
    traced_wall = sum(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = traced_wall - sum(r["wall_s"] for r in untraced)
    metrics["trace.self_share"] = main_s / traced_wall
    summary = summarize(untraced)
    metrics.update({name: summary[name] for name in RATES})
    unknown = set(metrics) ^ {m["name"] for m in SPEC["per_layer"]}
    if unknown:
        raise RuntimeError(f"per-layer metrics and BENCHMARK.json disagree on {sorted(unknown)}")
    return metrics, sizes


def describe(record: dict) -> str:
    status = "ok" if not record["problems"] else "FAILED: " + "; ".join(record["problems"])
    return f"{record['job']:<26} {record['wall_s']:8.3f} s {record['rss_mb']:8.1f} MB  {status}"


def measure(workload: str, seed: int, seconds: int, base: Path) -> tuple[dict, dict]:
    """Untraced run: cycle through the jobs, skipping any whose last run would not end within ``seconds``.

    A probe runs before the first job and after every set-up; each job's wall time is
    scaled by PROBE_REFERENCE_S over the mean of the probes on either side of it, and
    each set-up time by the probe right after it.
    """
    inputs = base / "inputs"
    jobs, setup_s = set_up(workload, seed, inputs)
    probe = probe_s(inputs)
    setups, probes, records, last_wall = [setup_s], [probe], [], {}
    start = time.perf_counter()
    turn = skipped = 0
    while skipped < len(jobs):
        job = jobs[turn % len(jobs)]
        turn += 1
        if job.id in last_wall and time.perf_counter() - start + last_wall[job.id] > seconds:
            skipped += 1
            continue
        skipped = 0
        record = run_job(job, seed, inputs, base / "untraced")
        print(f"# run {describe(record)}")
        records.append(record)
        last_wall[job.id] = record["wall_s"]
        # Repeating the set-up between jobs spreads its samples over the whole run.
        setups.append(set_up(workload, seed, inputs)[1])
        after = probe_s(inputs)
        record["scaled_s"] = record["wall_s"] * 2 * PROBE_REFERENCE_S / (probe + after)
        probes.append(after)
        probe = after
    raw = {"setup_s": statistics.median(setups), **summarize(records)}
    metrics = {
        **raw,
        "setup_s": statistics.median(s * PROBE_REFERENCE_S / p for s, p in zip(setups, probes)),
        "total_s": summarize(records, "scaled_s")["total_s"],
    }
    print(f"# probe {statistics.median(probes):.4f} s  unscaled: setup_s {raw['setup_s']:.6g} s  total_s {raw['total_s']:.6g} s")
    for m in SPEC["end_to_end"]:
        print(f"{m['name']:<24} {metrics[m['name']]:.6g} {m['unit']}")
    for name in RATES:
        print(f"{name:<24} {metrics[name]:.6g} 1/s" if metrics[name] else f"{name:<24} n/a")
    return metrics, {"unscaled": raw, "setup_samples": setups, "probe_samples": probes, "records": records}


def measure_traced(workload: str, seed: int, base: Path) -> tuple[dict, dict]:
    """Every job once untraced, then once traced; per-layer metrics from the pair."""
    inputs = base / "inputs"
    jobs, _ = set_up(workload, seed, inputs)
    untraced = [run_job(job, seed, inputs, base / "untraced") for job in jobs]
    traced = [run_job(job, seed, inputs, base / "traced", traced=True) for job in jobs]
    for kind, record in [("run", r) for r in untraced] + [("traced", r) for r in traced]:
        print(f"# {kind} {describe(record)}")
    metrics, sizes = layer_metrics(untraced, traced)
    for row in sizes:
        print("# sizes " + " ".join(f"{k}={v}" for k, v in row.items()))
    return metrics, {"records": untraced + traced, "sizes": sizes}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    base = WORK / workload / f"seed{seed}"
    env = environment()
    print(f"# workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if trace:
        metrics, detail = measure_traced(workload, seed, base)
        spec_metrics = SPEC["per_layer"]
    else:
        metrics, detail = measure(workload, seed, seconds, base)
        spec_metrics = SPEC["end_to_end"]
    failed = sum(1 for r in detail["records"] if r["problems"])
    attempted = len(detail["records"])
    print(f"{'jobs_attempted':<24} {attempted}")
    print(f"{'jobs_failed':<24} {failed}")
    result = {"workload": workload, "seed": seed, "env": env, "metrics": metrics, **detail}
    (base / f"result_trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }


def write_reference(workload: str) -> None:
    inputs = WORK / workload / "reference" / "inputs"
    outdir = WORK / workload / "reference" / "out"
    jobs, _ = set_up(workload, REFERENCE_SEED, inputs)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for job in jobs:
        record = run_job(job, REFERENCE_SEED, inputs, outdir, check=False)
        if record["problems"]:
            raise SystemExit(f"{job.id}: {record['problems']}")
        shutil.copyfile(outdir / f"{job.id}.out", REFERENCE_DIR / f"{job.id}.json")
        print(f"wrote reference for {job.id}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="record the seed-0 reference reports")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "classmix" / "cli.py").is_file():
        print(f"error: classmix sources not found under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once, as an installed package would be, so jobs do not recompile sources.
    if not compileall.compile_dir(str(SRC / "classmix"), quiet=1):
        print("error: classmix sources do not compile", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        for name in names:
            write_reference(name)
        return 0
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
