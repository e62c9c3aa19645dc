import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest

import classmix
from classmix import characters, cli, errors, interleave, mixing
from classmix.cli import main
from classmix.errors import SpecSyntax, UnsupportedParameters
from classmix.groups import ClassData, GroupSpec, GroupTable
from classmix.interleave import MIN_MC_SAMPLES
from classmix.mixing import DEFAULT_THRESHOLDS, survey
from classmix.rng import make_stream

from _oracles import MATGEN_FILE, PERMGEN_FILE, full_tuple_set, save_tuple_set


def run_cli(*argv):
    return main(list(argv))


def test_parse_spec_examples():
    assert GroupSpec.parse("A:5").kind == "alt"
    assert GroupSpec.parse("A:5").base == 5
    assert GroupSpec.parse("PSL2:11").kind == "psl2"
    assert GroupSpec.parse("PSL2:11").base == 11
    assert GroupSpec.parse("S:4").kind == "sym"
    assert GroupSpec.parse("SL2:7").kind == "sl2"


def test_parse_spec_rejects_non_prime_power():
    with pytest.raises(UnsupportedParameters):
        GroupSpec.parse("PSL2:6")


def test_matgen_small_field_names_matrix_groups(tmp_path):
    (tmp_path / "m.txt").write_text("1,1,0,1\n")
    with pytest.raises(UnsupportedParameters, match="matrix groups need q >= 4"):
        GroupSpec.parse(f"matgen:{tmp_path}/m.txt,q=3")


def test_parse_spec_rejects_small_degree():
    with pytest.raises(UnsupportedParameters):
        GroupSpec.parse("A:2")


def test_parse_spec_syntax_errors():
    with pytest.raises(SpecSyntax):
        GroupSpec.parse("A5")
    with pytest.raises(SpecSyntax):
        GroupSpec.parse("Q:5")
    with pytest.raises(SpecSyntax):
        GroupSpec.parse("A:x")


def test_permgen_file(tmp_path):
    gen = tmp_path / "gens.txt"
    gen.write_text("n=5\n(1 2 3)\n(1 2 3 4 5)\n")
    spec = GroupSpec.parse(f"permgen:{gen}")
    assert spec.kind == "permgen"
    assert spec.base == 5
    from classmix.groups import group_build

    assert group_build(spec).order == 60  # generates A_5


def test_matgen_file(tmp_path):
    gen = tmp_path / "mats.txt"
    gen.write_text("1,1,0,1\n0,1,4,0\n")
    spec = GroupSpec.parse(f"matgen:{gen},q=5")
    from classmix.groups import group_build

    assert group_build(spec).order == 120  # generates SL2(5)


def test_chartable_a5(tmp_path, capsys):
    code = run_cli("chartable", "A:5", "--out", str(tmp_path), "--quiet")
    assert code == 0
    payload = json.loads((tmp_path / "chartable__A5__seed0.json").read_text())
    assert payload["degrees"] == [1, 3, 3, 4, 5]
    assert payload["orthogonality"]["passed"] is True


def test_chartable_leaves_numpy_ma_unimported(tmp_path):
    """A Dixon run never imports numpy.ma, which np.unique does under numpy 2.4 (about 15 ms and 1.5 MB)."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = "import sys; from classmix.cli import main; print(main(['chartable', 'A:5', '--quiet']), 'numpy.ma' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.stdout.split() == ["0", "False"], done.stderr


def test_interleave_pool_starts_with_the_first_kernel(tmp_path):
    """Importing the CLI and a chartable run start no thread and import no executor; an MC run imports the
    executor, and each of its pipelines joins its own threads, so none is left once the run returns."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = """
import sys, threading
from classmix.cli import main
state = lambda: ("concurrent.futures" in sys.modules, threading.active_count())
print(*state())
main(["chartable", "A:5", "--quiet"])
print(*state())
main(["interleave", "A:5", "--t", "3", "--mc", "100000", "--quiet"])
print(*state())
"""
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.stdout.split() == ["False", "1", "False", "1", "True", "1"], done.stderr


def test_chartable_exits_13_on_orthogonality_residual(monkeypatch):
    """The documented tolerance is applied: A:5's residuals (about 2.4e-14) reach 1e-30 * |G|."""
    monkeypatch.setattr(characters, "ORTHOGONALITY_TOL", 1e-30)
    assert run_cli("chartable", "A:5", "--quiet") == 13


def test_zeta_at_zero_is_class_count(tmp_path):
    code = run_cli("zeta", "A:5", "--s", "0", "--out", str(tmp_path), "--quiet")
    assert code == 0
    payload = json.loads((tmp_path / "zeta__A5__seed0.json").read_text())
    assert payload["zeta"]["0.0"] == 5.0


def test_thompson_psl2_7(tmp_path):
    code = run_cli("thompson", "PSL2:7", "--out", str(tmp_path), "--quiet")
    assert code == 0
    payload = json.loads((tmp_path / "thompson__PSL27__seed0.json").read_text())
    assert payload["witness"] is True


def test_mixpair_methods_agree(tmp_path):
    for method in ("char", "brute"):
        run_cli(
            "mixpair", "A:5", "--x", "4", "--y", "4", "--method", method,
            "--out", str(tmp_path / method), "--quiet",
        )
    a = json.loads((tmp_path / "char" / "mixpair__A5__seed0.json").read_text())
    b = json.loads((tmp_path / "brute" / "mixpair__A5__seed0.json").read_text())
    assert a["l2_sq"] == pytest.approx(b["l2_sq"], abs=1e-9)
    assert a["coverage"]["support"] == b["coverage"]["support"]


def test_end_to_end_determinism(tmp_path):
    run_cli("survey", "A:5", "--coupling", "independent", "--out", str(tmp_path / "r1"), "--quiet")
    run_cli("survey", "A:5", "--coupling", "independent", "--out", str(tmp_path / "r2"), "--quiet")
    b1 = (tmp_path / "r1" / "survey__A5__seed0.json").read_bytes()
    b2 = (tmp_path / "r2" / "survey__A5__seed0.json").read_bytes()
    assert b1 == b2
    c1 = (tmp_path / "r1" / "survey__A5__seed0.csv").read_bytes()
    c2 = (tmp_path / "r2" / "survey__A5__seed0.csv").read_bytes()
    assert c1 == c2


def test_error_exit_codes():
    assert run_cli("chartable", "PSL2:6", "--quiet") == 3  # not a prime power
    assert run_cli("chartable", "A:99", "--quiet") == 3
    assert run_cli("chartable", "bogus", "--quiet") == 2  # spec syntax
    assert run_cli("chartable", "A:10", "--max-order", "100", "--quiet") == 4  # cap


@pytest.mark.parametrize("case", ["existing-file", "under-a-file", "report-is-a-directory"])
def test_out_path_errors_exit_2(tmp_path, case):
    """An --out that cannot be made a directory, or a report that cannot be written in it, exits 2 with one
    error line and no traceback."""
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "zeta__A5__seed0.json").mkdir(parents=True)
    out = {"existing-file": "file", "under-a-file": "file/sub", "report-is-a-directory": "dir"}[case]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-m", "classmix.cli", "zeta", "A:5", "--s", "1", "--out", str(tmp_path / out)]
    done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error[2] SpecSyntax: "), done.stderr
    assert "Traceback" not in done.stderr


def test_out_directory_is_made_before_the_run(tmp_path, monkeypatch):
    """A path that cannot be the --out directory is refused before the group is built."""
    monkeypatch.setattr(cli, "group_build", lambda *args: pytest.fail("the group was built"))
    (tmp_path / "file").write_text("")
    assert run_cli("zeta", "A:5", "--s", "1", "--out", str(tmp_path / "file")) == 2


def test_interleave_exact_full_density(tmp_path):
    code = run_cli(
        "interleave", "S:3", "--t", "2", "--alpha", "1.0", "--out", str(tmp_path), "--quiet"
    )
    assert code == 0
    payload = json.loads((tmp_path / "interleave__S3__seed0.json").read_text())
    assert payload["linf_dev"] == 0.0
    assert payload["deviation"]["implied_exponent"] == "inf"


@pytest.mark.parametrize(
    "group,family,base",
    [("S:3", "sym", 3.0), ("SL2:4", "sl2", 4.0), ("permgen", "permgen", 7.0), ("matgen", "matgen", 9.0)],
)
def test_interleave_deviation_family_and_base(group, family, base, tmp_path, capsys):
    """The deviation report's family is the spec's kind and its base the degree n or field size q."""
    if group == "permgen":
        (tmp_path / "g.txt").write_text(PERMGEN_FILE)
        group = f"permgen:{tmp_path / 'g.txt'}"
    elif group == "matgen":
        (tmp_path / "m.txt").write_text(MATGEN_FILE)
        group = f"matgen:{tmp_path / 'm.txt'},q=9"
    assert run_cli("interleave", group) == 0
    deviation = json.loads(capsys.readouterr().out)["deviation"]
    assert (deviation["family"], deviation["base"]) == (family, base)


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == "classmix 0.1.0\n"


def test_interleave_meta_records_work(tmp_path):
    argv = ["interleave", "A:5", "--alpha", "0.5", "--quiet"]
    assert run_cli(*argv, "--t", "2", "--out", str(tmp_path / "exact")) == 0
    meta = json.loads((tmp_path / "exact" / "interleave__A5__seed0.meta.json").read_text())
    assert meta["mode"] == "exact"
    assert meta["pairs"] == 1800 * 1800
    assert meta["loop_budget"] == 10**9
    assert meta["suffixes"] == 60  # the 1800 tuples of A hit all 60 second coordinates
    assert meta["fold_lookups"] == 60 * 1800 * 3
    assert meta["tail_products"] == 1  # the 60 suffix rows fit one product of ROW_CHUNK // 60 rows
    assert meta["kernel_s"] > 0 and meta["total_per_s"] > 0
    assert meta["tuple_set_bytes"] == 2 * 60**2 // 8  # two sets' bits, one bit per tuple of G^2
    assert meta["peak_rss_mb"] > 0
    report = json.loads((tmp_path / "exact" / "interleave__A5__seed0.json").read_text())
    assert not {"pairs", "suffixes", "kernel_s", "tuple_set_bytes", "peak_rss_mb"} & set(report)
    assert run_cli(*argv, "--t", "3", "--mc", "20000", "--out", str(tmp_path / "mc")) == 0
    meta = json.loads((tmp_path / "mc" / "interleave__A5__seed0.meta.json").read_text())
    assert meta["mode"] == "montecarlo"
    assert meta["samples"] == 20000
    assert meta["total_per_s"] == pytest.approx(20000 / meta["kernel_s"])
    assert meta["tuple_set_bytes"] == 2 * 60**3 // 8


def test_interleave_mc_frees_both_masks_before_the_kernel(monkeypatch):
    """Monte Carlo reads only member columns: neither set's bits are alive once mc_distribution is entered."""
    masks, draw, kernel = [], cli.seeded_tuple_set, cli.mc_distribution

    def recording_draw(*args):
        tset = draw(*args)
        masks.append(weakref.ref(tset.bits))
        return tset

    def checking_kernel(*args):
        assert len(masks) == 2 and all(ref() is None for ref in masks)
        return kernel(*args)

    monkeypatch.setattr(cli, "seeded_tuple_set", recording_draw)
    monkeypatch.setattr(cli, "mc_distribution", checking_kernel)
    assert run_cli("interleave", "A:5", "--t", "3", "--alpha", "0.5", "--mc", "20000", "--quiet") == 0


def test_interleave_mc_peaks_in_the_second_draw(monkeypatch):
    """A t=4 Monte Carlo run holds at most what drawing B holds, 4 1/4 bytes per tuple of G^t (A's bits, B's `first`
    and bits), the bound of test_seeded_tuple_set_memory; decoding B holds as much (both sets' bits and columns, 2
    bytes per tuple each at density 1/2).  Two workers fix the O(ROW_CHUNK) transients in flight."""
    monkeypatch.setattr(interleave, "_workers", lambda: 2)
    tracemalloc.start()
    try:
        assert run_cli("interleave", "A:5", "--t", "4", "--mc", "20000", "--quiet") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 60**4 + 60**4 // 4 + (4 << 20)


def test_every_meta_records_peak_rss(tmp_path):
    """_emit writes the process's max RSS into each subcommand's .meta.json, never into the report."""
    assert run_cli("chartable", "A:5", "--quiet", "--out", str(tmp_path)) == 0
    meta = json.loads((tmp_path / "chartable__A5__seed0.meta.json").read_text())
    assert meta["peak_rss_mb"] > 0
    report = json.loads((tmp_path / "chartable__A5__seed0.json").read_text())
    assert "peak_rss_mb" not in report


def test_dixon_meta_records_work(tmp_path):
    """Every subcommand's Dixon split reads its pivot rows from the group."""
    assert run_cli("chartable", "S:9", "--quiet", "--out", str(tmp_path)) == 0
    meta = json.loads((tmp_path / "chartable__S9__seed0.meta.json").read_text())
    # 30 rows of the transposition matrix (36 products each), then 4 rows of the 3-cycle matrix (168 each)
    assert meta["dixon"] == {"prime": 2521, "class_matrices": 2, "rows": 34, "products": 1752, "max_block": 2}
    report = json.loads((tmp_path / "chartable__S9__seed0.json").read_text())
    assert "dixon" not in report and "work" not in report
    for argv in (["zeta", "A:5", "--s", "1"], ["mixpair", "A:5", "--x", "1", "--y", "2"], ["survey", "A:5"]):
        assert run_cli(*argv, "--quiet", "--out", str(tmp_path)) == 0
        meta = json.loads((tmp_path / f"{argv[0]}__A5__seed0.meta.json").read_text())
        assert meta["dixon"]["prime"] == 31 and meta["dixon"]["class_matrices"] == 3
        assert meta["dixon"]["products"] > 0


def test_advantage_cli(tmp_path):
    from classmix.groups import group_build

    table = group_build(GroupSpec.sym(3))
    full = full_tuple_set(table, 2)
    save_tuple_set(tmp_path / "full.tuples", full, "S:3")
    (tmp_path / "proto.txt").write_text("1,full.tuples,full.tuples\n")
    code = run_cli(
        "advantage", "S:3", "--protocol", str(tmp_path / "proto.txt"),
        "--g", "0", "--h", "1", "--samples", "20000",
        "--out", str(tmp_path), "--quiet",
    )
    assert code == 0
    payload = json.loads((tmp_path / "advantage__S3__seed0.json").read_text())
    assert payload["advantage"] == 0.0
    assert payload["bit_budget"] == 0


def test_advantage_checks_targets_before_the_protocol(tmp_path, capsys):
    """A bad --h is reported before the protocol is opened: the tuple-set file it names does not exist."""
    (tmp_path / "p.txt").write_text("1,missing.txt,missing.txt\n")
    argv = ["advantage", "S:3", "--protocol", str(tmp_path / "p.txt"), "--g", "0", "--h", "999", "--quiet"]
    assert run_cli(*argv) == 2
    assert "element index 999 out of range" in capsys.readouterr().err


def test_seed_changes_sampled_reports(tmp_path):
    for seed in ("1", "2"):
        run_cli(
            "interleave", "S:3", "--t", "2", "--alpha", "0.5", "--mc", "20000",
            "--seed", seed, "--out", str(tmp_path), "--quiet",
        )
    a = json.loads((tmp_path / "interleave__S3__seed1.json").read_text())
    b = json.loads((tmp_path / "interleave__S3__seed2.json").read_text())
    assert a["probs"] != b["probs"]


def test_survey_transinv_above_old_sweep_limit_is_exact(tmp_path):
    """A transinv survey of A:9, with more than 10^5 elements, is exact and says so."""
    assert run_cli("survey", "A:9", "--coupling", "transinv:12345", "--out", str(tmp_path), "--quiet") == 0
    report = json.loads((tmp_path / "survey__A9__seed0.json").read_text())
    assert report["sampled"] is False
    assert report["sample_count"] == 0


def test_bijfile_coupling_is_exact_on_a9(tmp_path, group_cache):
    """A seeded permutation of A:9, read back as bijfile:, weighs each class pair by its exact count."""
    table, classes, _, chartable = group_cache("A:9")
    perm = make_stream(31).permutation(table.order)
    path = tmp_path / "bij.txt"
    path.write_text("\n".join(map(str, perm.tolist())) + "\n")
    rep = survey(chartable, cli._parse_coupling(table, classes, f"bijfile:{path}")[1])
    class_of = table.class_map[1]
    counts = Counter(zip(class_of.tolist(), class_of[perm].tolist()))
    assert {(p.x_class, p.y_class): p.weight for p in rep.pairs} == {
        pair: count / table.order for pair, count in counts.items()
    }


PROTOCOL_ARGS = ["advantage", "S:3", "--protocol", "{d}/p.txt", "--g", "0", "--h", "1", "--samples", "10"]
A5_PROTOCOL_ARGS = ["advantage", "A:5", *PROTOCOL_ARGS[2:]]
EXACT_ARGS = ["interleave", "S:3", "--t", "1", "--alpha", "1.0"]
FULL_S3_PROTOCOL = {"a.txt": "t=1 group=S:3\n" + "".join(f"{i}\n" for i in range(6)), "p.txt": "1,a.txt,a.txt\n"}

# (id, files (text or bytes) written to the temporary directory {d}, argv, documented exit code[, environment])
BAD_INPUTS = [
    ("singular-matgen", {"m.txt": "1,1,0,0\n"}, ["thompson", "matgen:{d}/m.txt,q=5"], 3),
    ("matgen-q-not-int", {"m.txt": "1,1,0,1\n"}, ["thompson", "matgen:{d}/m.txt,q=abc"], 2),
    ("matgen-entry-not-int", {"m.txt": "1,x,0,1\n"}, ["thompson", "matgen:{d}/m.txt,q=5"], 2),
    ("matgen-q4-overflows-int64", {"m.txt": "1,1,0,1\n"}, ["thompson", "matgen:{d}/m.txt,q=65536"], 3),
    ("sl2-q4-overflows-int64", {}, ["thompson", "SL2:65536"], 3),
    ("matgen-q-below-4", {"m.txt": "1,1,0,1\n"}, ["thompson", "matgen:{d}/m.txt,q=3"], 3),
    ("permgen-n-not-int", {"g.txt": "n=x\n(1 2 3)\n"}, ["thompson", "permgen:{d}/g.txt"], 2),
    ("bijfile-entry-not-int", {"b.txt": "0\n1\n2\n3\n4\nx\n"}, ["survey", "S:3", "--coupling", "bijfile:{d}/b.txt"], 2),
    ("transinv-bad-hex", {}, ["survey", "S:3", "--coupling", "transinv:hex:zz"], 2),
    # input paths that name a directory, or files that are not UTF-8 text
    ("bijfile-directory", {}, ["survey", "S:3", "--coupling", "bijfile:{d}"], 2),
    ("permgen-directory", {}, ["thompson", "permgen:{d}"], 2),
    ("matgen-directory", {}, ["thompson", "matgen:{d},q=5"], 2),
    ("bijfile-not-utf8", {"b.txt": b"0\n1\n2\n3\n4\n\xff\n"}, ["survey", "S:3", "--coupling", "bijfile:{d}/b.txt"], 2),
    ("permgen-not-utf8", {"g.txt": b"(1 2 3)\xff\n"}, ["thompson", "permgen:{d}/g.txt"], 2),
    ("matgen-not-utf8", {"m.txt": b"1,1,0,1\xff\n"}, ["thompson", "matgen:{d}/m.txt,q=5"], 2),
    ("protocol-not-utf8", {"a.txt": "t=1 group=S:3\n0\n", "p.txt": b"1,a.txt,a.txt\xff\n"}, PROTOCOL_ARGS, 2),
    ("tuple-file-not-utf8", {"a.txt": b"t=1 group=S:3\n\xff\n", "p.txt": "1,a.txt,a.txt\n"}, PROTOCOL_ARGS, 2),
    ("tuple-arity-not-int", {"a.txt": "t=x group=S:3\n0,1\n", "p.txt": "1,a.txt,a.txt\n"}, PROTOCOL_ARGS, 2),
    ("tuple-entry-not-int", {"a.txt": "t=2 group=S:3\n0,x\n", "p.txt": "1,a.txt,a.txt\n"}, PROTOCOL_ARGS, 2),
    ("protocol-bit-not-int", {"a.txt": "t=1 group=S:3\n0\n", "p.txt": "x,a.txt,a.txt\n"}, PROTOCOL_ARGS, 2),
    ("protocol-file-missing", {}, PROTOCOL_ARGS, 2),
    ("tuple-file-missing", {"p.txt": "1,a.txt,a.txt\n"}, PROTOCOL_ARGS, 2),
    # S:7 is above groups.MUL_TABLE_LIMIT: refused before the protocol's (missing) tuple-set file is opened
    ("advantage-group-above-table-limit", {"p.txt": "1,a.txt,a.txt\n"}, ["advantage", "S:7", *PROTOCOL_ARGS[2:]], 4),
    # a malformed file named by both rectangles, parsed once
    (
        "shared-tuple-file-malformed",
        {"a.txt": "t=1 group=S:3\n0\n", "b.txt": "t=1 group=S:3\n0,1\n", "p.txt": "1,a.txt,b.txt\n0,b.txt,b.txt\n"},
        PROTOCOL_ARGS,
        2,
    ),
    # 60^10 fits in int64 but is above interleave.MAX_MATERIALIZED, so the mask is never allocated
    (
        "explicit-tuple-set-above-cap",
        {"a.txt": "t=10 group=A:5\n" + ",".join("0" * 10) + "\n", "p.txt": "1,a.txt,a.txt\n"},
        A5_PROTOCOL_ARGS,
        5,
    ),
    # 60^11 > 2^63: refused by the same cap, before any tuple code could wrap to a negative int64
    (
        "explicit-tuple-set-past-int64",
        {"a.txt": "t=11 group=A:5\n" + ",".join("0" * 11) + "\n", "p.txt": "1,a.txt,a.txt\n"},
        A5_PROTOCOL_ARGS,
        5,
    ),
    ("advantage-samples-zero", FULL_S3_PROTOCOL, [*PROTOCOL_ARGS[:-1], "0"], 2),
    ("advantage-samples-negative", FULL_S3_PROTOCOL, [*PROTOCOL_ARGS[:-1], "-5"], 2),
    # 2^60 draws of arity 1 exceed MAX_MATERIALIZED; numpy could not even size such an array
    ("advantage-samples-above-cap", FULL_S3_PROTOCOL, [*PROTOCOL_ARGS[:-1], str(2**60)], 5),
    ("permgen-degree-zero", {"g.txt": "n=0\n()\n"}, ["thompson", "permgen:{d}/g.txt"], 3),
    (
        "protocol-arity-mismatch",
        {"a.txt": "t=2 group=S:3\n0,1\n", "b.txt": "t=3 group=S:3\n0,1,2\n", "p.txt": "1,a.txt,b.txt\n"},
        PROTOCOL_ARGS,
        11,
    ),
    ("survey-threshold-nan", {}, ["survey", "S:3", "--thresholds", "1", "nan"], 2),
    ("zeta-overflows-float", {}, ["zeta", "S:3", "--s", "-1024"], 3),
    ("zeta-s-minus-inf", {}, ["zeta", "A:5", "--s=-inf"], 3),
    ("zeta-s-nan", {}, ["zeta", "S:3", "--s", "2", "nan"], 2),
    ("interleave-arity-zero", {}, [*EXACT_ARGS[:3], "0", *EXACT_ARGS[4:]], 11),
    ("interleave-alpha-above-one", {}, [*EXACT_ARGS[:5], "5"], 2),
    # 6^t above interleave.MAX_MATERIALIZED: refused before 6^t, which has more digits than int() prints, is taken
    ("interleave-arity-1e5", {}, [*EXACT_ARGS[:3], "100000", *EXACT_ARGS[4:]], 5),
    ("interleave-arity-1e8", {}, [*EXACT_ARGS[:3], "100000000", *EXACT_ARGS[4:]], 5),
    ("interleave-mc-zero", {}, ["interleave", "S:3", "--mc", "0"], 2),
    ("loop-budget-not-int", {}, EXACT_ARGS, 2, {"MIXER_LOOP_BUDGET": "abc"}),
    ("loop-budget-not-positive", {}, EXACT_ARGS, 2, {"MIXER_LOOP_BUDGET": "0"}),
    ("max-order-flag-zero", {}, ["thompson", "S:3", "--max-order", "0"], 2),
    ("max-order-flag-negative", {}, ["thompson", "S:3", "--max-order", "-5"], 2),
    ("seed-negative-interleave", {}, ["interleave", "S:3", "--seed", "-1"], 2),
    ("seed-negative-survey", {}, ["survey", "S:3", "--seed", "-3"], 2),
    ("seed-negative-advantage", FULL_S3_PROTOCOL, [*PROTOCOL_ARGS, "--seed", "-1"], 2),
]


@pytest.mark.parametrize("case", BAD_INPUTS, ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_exit_codes(tmp_path, monkeypatch, case):
    _, files, argv, code, *env = case
    for name, value in (env[0] if env else {}).items():
        monkeypatch.setenv(name, value)
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    assert run_cli(*[a.format(d=tmp_path) for a in argv], "--quiet") == code


@pytest.mark.parametrize(
    "argv,needs_group",
    [
        (["survey", "S:3", "--thresholds", "nan"], False),
        (["survey", "S:3", "--coupling", "transinv:bogus"], True),
        (["survey", "S:3", "--coupling", "bijfile:{d}/b.txt"], True),
        (["zeta", "A:10", "--s", "2", "nan"], False),
    ],
    ids=["threshold-nan", "coupling-unknown-element", "coupling-not-a-bijection", "zeta-s-nan"],
)
def test_survey_rejects_bad_input_before_character_table(tmp_path, monkeypatch, argv, needs_group):
    """Bad survey and zeta flags exit 2 before Dixon runs; all but the couplings before the group is even built."""
    (tmp_path / "b.txt").write_text("0 0 2 3 4 5\n")  # S:3 has six elements; 0 appears twice

    def unreachable(*args, **kwargs):
        raise AssertionError("bad input reached a later stage")

    monkeypatch.setattr(cli, "dixon_character_table", unreachable)
    if not needs_group:
        monkeypatch.setattr(cli, "group_build", unreachable)
    assert run_cli(*[a.format(d=tmp_path) for a in argv], "--quiet") == 2


def test_interleave_rejects_large_group_before_tuple_sets(monkeypatch):
    """S:7 (5040 > MUL_TABLE_LIMIT) exits 4 before two 25M-tuple sets are drawn."""

    def unreachable(*args, **kwargs):
        raise AssertionError("tuple sets drawn before the table cap was checked")

    monkeypatch.setattr(cli, "seeded_tuple_set", unreachable)
    assert run_cli("interleave", "S:7", "--t", "2", "--mc", "100000", "--quiet") == 4


def test_interleave_rejects_few_samples_before_tuple_sets(monkeypatch):
    """--mc below interleave.MIN_MC_SAMPLES exits 2 before two 6.5M-tuple sets of A:5 at t = 4 are drawn."""

    def unreachable(*args, **kwargs):
        raise AssertionError("tuple sets drawn before --mc was checked")

    monkeypatch.setattr(cli, "seeded_tuple_set", unreachable)
    assert run_cli("interleave", "A:5", "--t", "4", "--mc", "0", "--quiet") == 2
    assert run_cli("interleave", "A:5", "--t", "4", "--mc", str(MIN_MC_SAMPLES - 1), "--quiet") == 2


def test_survey_thresholds_default_is_the_library_default():
    args = cli.build_parser().parse_args(["survey", "A:5"])
    assert tuple(args.thresholds) == DEFAULT_THRESHOLDS


def test_benchmark_tracer_names_resolve(perfbench):
    """perfbench/tracer.py wraps these names from outside; each must still exist for `run.py --trace`."""
    tracer = perfbench("tracer")
    for module, name, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"classmix.{module}"), name, None)), f"{module}.{name}"
    for method in tracer.METHODS:
        assert callable(getattr(GroupTable, method, None)), f"GroupTable.{method}"


def test_no_module_builds_dataclasses():
    """Records are NamedTuples or plain classes: dataclass code generation cost about 25 ms of every cold start."""
    for info in pkgutil.iter_modules(classmix.__path__):
        for name, value in vars(importlib.import_module(f"classmix.{info.name}")).items():
            assert value is not dataclasses and getattr(value, "__module__", None) != "dataclasses", f"{info.name}.{name}"
            assert not hasattr(value, "__dataclass_fields__"), f"{info.name}.{name} is a dataclass"


def test_every_public_definition_has_a_caller():
    """Each public top-level function or class of classmix, and each public method or property of its classes, is
    named by classmix code outside its own definition or by perfbench/tracer.py, which wraps layers and GroupTable
    methods by name; code that only tests call belongs in tests/_oracles.py."""
    root = Path(__file__).resolve().parents[1]
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted((root / "src" / "classmix").glob("*.py"))}
    tracer = ast.parse((root / "perfbench" / "tracer.py").read_text())
    traced = {n.value for n in ast.walk(tracer) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    definitions = []  # (label, name, owner): the owner's own code does not count as a caller
    callers = {}  # name -> the (module, top-level definition, method or None) triples whose code names it
    for module, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            definitions.append((f"{module}.{stmt.name}", stmt.name, (module, stmt.name)))
            methods = [m for m in stmt.body if isinstance(m, ast.FunctionDef)] if isinstance(stmt, ast.ClassDef) else []
            definitions += [(f"{module}.{stmt.name}.{m.name}", m.name, (module, stmt.name, m.name)) for m in methods]
            method_of = {id(n): m.name for m in methods for n in ast.walk(m)}
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    callers.setdefault(name, set()).add((module, stmt.name, method_of.get(id(node))))
    uncalled = [
        label
        for label, name, owner in definitions
        if not name.startswith("_") and name not in traced
        and all(caller[: len(owner)] == owner for caller in callers.get(name, ()))
    ]
    assert not uncalled, uncalled


def test_class_level_functions_read_class_data_only():
    """ClassData is the class algebra alone, and the class-level functions name no element data (no class map, no
    GroupTable, no element rows), so they run on class data for groups that are never enumerated.  survey dispatches
    on no coupling type: it calls the coupling's weight function."""
    assert ClassData._fields == ("sizes", "orders", "power_map")
    functions = (characters.class_products, characters.structure_constants, characters.witten_zeta)
    for fn in (*functions, mixing.p_char, mixing.pair_stats, mixing.survey):
        source = inspect.getsource(fn)
        assert not [name for name in ("class_of", "GroupTable", ".rows") if name in source], fn.__name__
    assert "isinstance" not in inspect.getsource(mixing.survey)  # a coupling is its weight function, not a record


def test_only_the_pipeline_hands_work_to_the_pool():
    """Worker threads have one entry point: no classmix code but `interleave._pipeline` names an executor class
    (ThreadPoolExecutor, say) or `.submit`, so only the pipeline makes a pool or hands it work, and every kernel
    takes the pipeline's window and order."""
    root = Path(__file__).resolve().parents[1]
    callers = set()
    for path in sorted((root / "src" / "classmix").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and (name.endswith("Executor") or name == "submit"):
                    callers.add((path.stem, getattr(stmt, "name", None), name))
    assert callers == {("interleave", "_pipeline", "ThreadPoolExecutor"), ("interleave", "_pipeline", "submit")}, callers


def test_no_module_holds_a_global_statement():
    """No classmix function rebinds a module name: the package holds no state that lives across calls."""
    root = Path(__file__).resolve().parents[1]
    found = [
        (path.stem, node.lineno)
        for path in sorted((root / "src" / "classmix").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert not found, found


def test_every_golden_report_key_is_named_by_the_cli():
    """Every key of every goldens/v1 report is a string literal of classmix/cli.py: the CLI names each report field,
    and no report field is the field name of a library record.  The data-keyed maps, interleave's `probs` (element
    hex -> probability) and zeta's `zeta` (s -> value), are exempt below their own key."""
    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "src" / "classmix" / "cli.py").read_text())
    literals = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}

    def keys(value):
        if isinstance(value, list):
            for item in value:
                yield from keys(item)
        elif isinstance(value, dict):
            for key, item in value.items():
                yield key
                if key not in ("probs", "zeta"):
                    yield from keys(item)

    reports = sorted((root / "goldens" / "v1").glob("*.json"))
    assert len(reports) == 17
    unnamed = {(p.name, key) for p in reports for key in keys(json.loads(p.read_text())) if key not in literals}
    assert not unnamed, sorted(unnamed)


def test_every_error_exit_code_has_a_readme_row():
    """Each exit code of a classmix.errors subclass has its own row in README's exit-code table."""
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("### Exit codes\n", 1)[1].split("\n#", 1)[0]
    documented = {int(code) for code in re.findall(r"^\| (\d+) \|", section, flags=re.M)}
    codes = {
        cls.__name__: cls.exit_code
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.ClassmixError) and cls is not errors.ClassmixError
    }
    assert len(codes) == 11
    assert not {name: code for name, code in codes.items() if code not in documented}


def test_benchmark_tracer_counters_run(tmp_path):
    """perfbench/tracer.py, unchanged, runs every counted layer's job kind on A:5 and counts its spans.

    Its counters read attributes of the returned records (`.tensor.nbytes`, `.modulus_prime`,
    the orthogonality residuals and tolerance, `.counts`, `.total`) and call
    `config.loop_budget()`, so a record change that drops one breaks `run.py --trace 1` here.
    It runs in a subprocess: `install` patches module attributes and GroupTable methods process-wide.
    """
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("MIXER_LOOP_BUDGET", None)
    jobs = {
        "survey": ["survey", "A:5"],
        "thompson": ["thompson", "A:5"],
        "mixpair": ["mixpair", "A:5", "--x", "1", "--y", "2"],
        "mixpair_brute": ["mixpair", "A:5", "--x", "1", "--y", "2", "--method", "brute"],
        "chartable": ["chartable", "A:5"],
        "interleave_mc": ["interleave", "A:5", "--t", "2", "--mc", "10000"],
        "interleave_exact": ["interleave", "A:5", "--t", "2"],
    }
    counted = ("mixing.p_brute", "interleave.mc_distribution", "interleave.exact_distribution")
    counts = {}
    for job, argv in jobs.items():
        spans_path = tmp_path / f"{job}.json"
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "tracer.py"), str(spans_path), job, *argv, "--quiet"],
            env=env, cwd=tmp_path, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        for span in json.loads(spans_path.read_text()):
            if span["name"].startswith("characters.") or span["name"] in counted:
                counts.setdefault(job, {})[span["name"]] = span["counts"]
    # A:5 has k = 5 classes and Dixon prime 31; only survey builds the 5 x 5 x 5 int64 tensor
    assert counts["survey"] == {
        "characters.dixon_character_table": {"prime": 31},
        "characters.structure_constants": {"bytes": 5**3 * 8},
    }
    assert counts["mixpair"] == {"characters.dixon_character_table": {"prime": 31}}
    # classes 1 and 2 of A:5 have 20 and 15 elements; the default budget is 10^9
    assert counts["mixpair_brute"] == {
        "characters.dixon_character_table": {"prime": 31},
        "mixing.p_brute": {"pairs": 20 * 15, "budget_share": 20 * 15 / 10**9},
    }
    assert "thompson" not in counts
    # A:5's residuals are about 1e-14, far below the tolerance 1e-8 * 60
    ratio = counts["chartable"]["characters.verify_orthogonality"]["residual_over_tol"]
    assert 0 <= ratio < 1e-3
    assert counts["interleave_mc"] == {"interleave.mc_distribution": {"samples": 10_000}}
    # alpha = 0.5 keeps 1800 of the 60^2 tuples on each side
    assert counts["interleave_exact"] == {"interleave.exact_distribution": {"pairs": 1800 * 1800}}


def test_benchmark_reports_pass_reference_check(tmp_path, monkeypatch, capsys, perfbench):
    """Every seed-0 perfbench job but the two 10^7-draw Monte Carlo ones passes perfbench/checks.py, unchanged.

    The reports are compared with perfbench/reference (floats within 1e-12) and checked
    against their subcommand's invariants, as the benchmark does after each run.
    """
    workloads, checks = perfbench("workloads"), perfbench("checks")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MIXER_LOOP_BUDGET", raising=False)
    skipped = {"interleave_A5_t3_mc", "interleave_A5_t4_mc"}
    jobs = [job for name in workloads.WORKLOADS for job in workloads.make_jobs(name, 0, tmp_path)]
    assert skipped < {job.id for job in jobs}
    for job in jobs:
        if job.id in skipped:
            continue
        assert main([*job.argv, "--seed", "0"]) == 0, job.id
        assert checks.check_report(job, capsys.readouterr().out, 0) == [], job.id
