"""Command-line front end.

Subcommands map one-to-one onto the library pipelines; every run is keyed by
an explicit seed (default 0, never wall clock) and writes canonical JSON so
identical configs produce identical bytes.  Timestamps go to a separate
.meta.json, never into the report.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .characters import dixon_character_table, verify_orthogonality, witten_zeta
from .errors import ClassmixError, SpecSyntax, UnsupportedParameters, parse_int, read_input_text
from .groups import GroupSpec, conj_classes, group_build
from .interleave import (
    MIN_MC_SAMPLES,
    advantage,
    exact_distribution,
    load_protocol,
    mc_distribution,
    seeded_tuple_set,
)
from .mixing import (
    DEFAULT_THRESHOLDS,
    check_survey_inputs,
    l2_sq_char,
    p_brute,
    p_char,
    pair_stats,
    survey,
    thompson_search,
)
from .rng import make_stream


def _parse_element(table, text: str) -> int:
    """Element reference: decimal index, or hex:<canonical bytes>."""
    if text.startswith("hex:"):
        try:
            key = bytes.fromhex(text[4:])
        except ValueError as exc:
            raise SpecSyntax(f"bad hex element reference: {text!r}") from exc
        return table.index_of(key)
    idx = parse_int(text, "element reference (an index or hex:<bytes>)")
    if not (0 <= idx < table.order):
        raise SpecSyntax(f"element index {idx} out of range [0, {table.order})")
    return idx


def _parse_coupling(table, classes, text: str):
    """(report name, coupling) of a --coupling value; transinv is named by the element index.

    The coupling is the function survey calls with the structure constants: it returns the (k, k)
    weights P[x in C_i, y in C_j].  Elements are resolved to classes here, before any character table.
    """
    order = classes.order
    w = np.asarray(classes.sizes, dtype=np.float64) / order
    if text == "independent":
        return "independent", lambda tensor: np.outer(w, w)
    if text == "diagonal":
        return "diagonal", lambda tensor: np.diag(w)
    reps, class_of = table.class_map
    if text.startswith("transinv:"):
        a = _parse_element(table, text.split(":", 1)[1])
        a_class = int(class_of[a])  # x in C_i with x^-1 a in C_j: a_ij,cl(a) of them
        return f"transinv:{a}", lambda tensor: tensor[:, :, a_class] / order
    if text.startswith("bijfile:"):
        entries = read_input_text(text.split(":", 1)[1], "bijection file").split()
        mapping = tuple(parse_int(e, "bijection entry") for e in entries)
        if len(mapping) != table.order:
            raise SpecSyntax(f"bijection file has {len(mapping)} entries, group order is {table.order}")
        if sorted(mapping) != list(range(table.order)):
            raise SpecSyntax("bijection table is not a permutation of element indices")
        k = len(reps)
        counts = np.bincount(class_of * k + class_of[np.asarray(mapping)], minlength=k * k).reshape(k, k)
        return "bijection", lambda tensor: counts / order
    raise SpecSyntax(f"unknown coupling {text!r}")


# ---------------------------------------------------------------------------
# report plumbing


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _report_name(args) -> str:
    spec_key = args.group.replace(":", "").replace("/", "_").replace(",", "_")
    return f"{args.command}__{spec_key}__seed{args.seed}"


def _emit(args, payload: dict, csv_text: str | None = None, meta: dict | None = None) -> int:
    payload = {**payload, "schema": 1, "subcommand": args.command, "group": args.group, "seed": args.seed}
    body = _canonical_json(payload)
    if args.out:
        name = _report_name(args)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{name}.json").write_text(body, encoding="utf-8")
        meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S"), "version": __version__, **(meta or {})}
        meta["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
        (outdir / f"{name}.meta.json").write_text(_canonical_json(meta), encoding="utf-8")
        if csv_text is not None:
            (outdir / f"{name}.csv").write_text(csv_text, encoding="utf-8")
    if not args.quiet:
        sys.stdout.write(body)
    return 0


def _build_table(args):
    return group_build(GroupSpec.parse(args.group), args.max_order)


def _build_all(args):
    table = _build_table(args)
    return table, conj_classes(table)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_chartable(args) -> int:
    table, classes = _build_all(args)
    chartable = dixon_character_table(table, classes)
    report = verify_orthogonality(chartable)
    payload = {
        "order": classes.order,
        "class_sizes": list(classes.sizes),
        "class_orders": list(classes.orders),
        "degrees": list(chartable.degrees),
        "values": [[[v.real, v.imag] for v in row] for row in chartable.values],
        "residuals": {"row": chartable.row_residual, "col": chartable.col_residual},
        "orthogonality": {
            "row_residual": report.max_row_residual,
            "col_residual": report.max_col_residual,
            "tolerance": report.tolerance,
            "passed": report.passed,
        },
        "modulus_prime": chartable.modulus_prime,
    }
    return _emit(args, payload, meta={"dixon": chartable.work})


def _cmd_zeta(args) -> int:
    if any(math.isnan(s) for s in args.s):
        raise SpecSyntax(f"zeta needs numbers s, got {args.s}")
    table, classes = _build_all(args)
    chartable = dixon_character_table(table, classes)
    values = {repr(s): witten_zeta(chartable, s) for s in args.s}
    payload = {
        "order": table.order,
        "class_count": classes.k,
        "degrees": list(chartable.degrees),
        "zeta": values,
    }
    return _emit(args, payload, meta={"dixon": chartable.work})


def _cmd_mixpair(args) -> int:
    table, classes = _build_all(args)
    if not (0 <= args.x < classes.k and 0 <= args.y < classes.k):
        raise UnsupportedParameters(f"class indices must lie in [0, {classes.k})")
    chartable = dixon_character_table(table, classes)
    dist = (
        p_brute(args.x, args.y, table, classes)
        if args.method == "brute"
        else p_char(args.x, args.y, chartable)
    )
    stats = pair_stats(dist.row[None], [args.x], [args.y], classes)
    support = int(stats.support[0])
    char_sq = l2_sq_char(args.x, args.y, chartable)
    payload = {
        "x_class": args.x,
        "y_class": args.y,
        "method": args.method,
        "probs_per_class": stats.probs[0].tolist(),
        "class_sizes": list(classes.sizes),
        "l2_sq": float(stats.l2_sq[0]),
        "l2_sq_char": char_sq,
        "n_stat": table.order * char_sq,
        "l1": float(stats.l1[0]),
        "l2_sq_dist": float(stats.l2_sq_dist[0]),
        "linf": float(stats.linf[0]),
        "coverage": {"support": support, "fraction": support / table.order, "exact": True},
    }
    return _emit(args, payload, meta={"dixon": chartable.work})


def _cmd_survey(args) -> int:
    check_survey_inputs(args.thresholds)
    table, classes = _build_all(args)
    name, coupling = _parse_coupling(table, classes, args.coupling)
    chartable = dixon_character_table(table, classes)
    rep = survey(chartable, coupling, thresholds=tuple(args.thresholds))
    payload = {
        "coupling": name,
        # a fixed note, and constants since every survey is exact;
        # goldens/v1 and perfbench/reference/survey_*.json keep the keys
        "normalization_note": "N = |G| * ||p_xy||_2^2; thresholds 1 + delta bound N",
        "sampled": False,
        "sample_count": 0,
        "pairs": [
            {
                "x_class": p.x_class,
                "y_class": p.y_class,
                "weight": p.weight,
                "N": p.n_stat,
                "l1": p.l1,
                "coverage": p.coverage_fraction,
            }
            for p in rep.pairs
        ],
        "thresholds": [{"delta": d, "prob": pr} for d, pr in rep.thresholds],
        "quantiles": [{"q": q, "N": v} for q, v in rep.quantiles],
    }
    csv_text = "xclass,yclass,weight,N,l1,coverage\n" + "".join(
        f"{p.x_class},{p.y_class},{p.weight!r},{p.n_stat!r},{p.l1!r},{p.coverage_fraction!r}\n" for p in rep.pairs
    )
    return _emit(args, payload, csv_text=csv_text, meta={"dixon": chartable.work})


def _cmd_thompson(args) -> int:
    table, classes = _build_all(args)
    supports = thompson_search(table, classes)
    best = supports.index(max(supports))  # the first class of largest support
    payload = {
        "best_class": best,
        "support": supports[best],
        "fraction": supports[best] / table.order,
        "witness": supports[best] == table.order,
        "per_class": [{"class": c, "support": s} for c, s in enumerate(supports)],
        "class_orders": list(classes.orders),
        "class_sizes": list(classes.sizes),
    }
    return _emit(args, payload)


def _cmd_interleave(args) -> int:
    if args.mc is not None and args.mc < MIN_MC_SAMPLES:  # before the group is built or any tuple set drawn
        raise SpecSyntax(f"--mc must be at least {MIN_MC_SAMPLES}, got {args.mc}")
    table = _build_table(args)
    table.full_mul_table()  # exits 4 above MUL_TABLE_LIMIT before any tuple set is drawn
    a_set = seeded_tuple_set(table, args.t, args.alpha, make_stream(args.seed, 1))
    b_set = seeded_tuple_set(table, args.t, args.alpha, make_stream(args.seed, 2))
    set_bytes, alpha, beta = a_set.bits.nbytes + b_set.bits.nbytes, float(a_set.density), float(b_set.density)
    start = time.perf_counter()
    if args.mc is not None:
        cols = a_set.columns, b_set.columns  # decoded after both draws, so B's draw holds A's bits, not its columns
        del a_set, b_set  # the kernel reads only columns: both sets' bits are freed before its index blocks
        mode, est = "montecarlo", mc_distribution(*cols, args.mc, make_stream(args.seed, 3), table)
    else:
        mode, est = "exact", exact_distribution(a_set, b_set, table)
    seconds = time.perf_counter() - start
    meta = {"mode": mode, "kernel_s": seconds, "total_per_s": est.total / seconds, **est.work}
    meta["tuple_set_bytes"] = set_bytes
    base = float(table.spec.base)
    # normalized = D alpha beta |G|; the implied exponent c solves normalized = base^(-c t), with base the
    # degree n or the field size q; c > 0 is the qualitative pass, and c is inf when D = 0
    normalized = est.linf_dev * alpha * beta * table.order
    exponent = -math.log(normalized) / (args.t * math.log(base)) if normalized > 0.0 else "inf"
    payload = {
        "mode": mode,
        "total": est.total,
        "linf_dev": est.linf_dev,
        "probs": {table.elements[i].hex(): float(p) for i, p in enumerate(est.probs)},
        "deviation": {
            "schema": 1,
            "linf_dev": est.linf_dev,
            "alpha": alpha,
            "beta": beta,
            "order": table.order,
            "arity": args.t,
            "family": table.spec.kind,
            "base": base,
            "normalized": normalized,
            "implied_exponent": exponent,
        },
        "alpha": alpha,
        "beta": beta,
        "t": args.t,
    }
    return _emit(args, payload, meta=meta)


def _cmd_advantage(args) -> int:
    table = _build_table(args)
    protocol = load_protocol(args.protocol, table)
    g = _parse_element(table, args.g)
    h = _parse_element(table, args.h)
    p_g, p_h = advantage(protocol, table, g, h, samples=args.samples, stream=make_stream(args.seed, 4))
    payload = {
        "p_g": p_g,
        "p_h": p_h,
        "advantage": abs(p_g - p_h),
        "stderr": math.sqrt((p_g * (1 - p_g) + p_h * (1 - p_h)) / args.samples),
        "bit_budget": protocol.bit_budget,
        "samples": args.samples,
        "g": g,
        "h": h,
        "protocol": str(args.protocol),
        "rectangles": len(protocol.rectangles),
    }
    return _emit(args, payload)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("group", help="group spec, e.g. A:5, PSL2:11, permgen:<file>, matgen:<file>,q=<q>")
    sub.add_argument("--seed", type=int, default=0, help="64-bit seed (fixed default, never wall clock)")
    sub.add_argument("--out", default=None, help="directory for JSON reports (and survey CSV)")
    sub.add_argument("--max-order", type=int, default=None, help="enumeration cap override")
    sub.add_argument("--quiet", action="store_true", help="suppress stdout report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="classmix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"classmix {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("chartable", help="character table with orthogonality report")
    _add_common(p)
    p.set_defaults(func=_cmd_chartable)

    p = subs.add_parser("zeta", help="Witten zeta values")
    _add_common(p)
    p.add_argument("--s", type=float, nargs="+", required=True)
    p.set_defaults(func=_cmd_zeta)

    p = subs.add_parser("mixpair", help="class-product distribution for one class pair")
    _add_common(p)
    p.add_argument("--x", type=int, required=True, help="x class index")
    p.add_argument("--y", type=int, required=True, help="y class index")
    p.add_argument("--method", choices=["char", "brute"], default="char")
    p.set_defaults(func=_cmd_mixpair)

    p = subs.add_parser("survey", help="coupling-weighted N statistic survey")
    _add_common(p)
    p.add_argument("--coupling", default="independent", help="independent|diagonal|transinv:<elt>|bijfile:<path>")
    p.add_argument("--thresholds", type=float, nargs="+", default=list(DEFAULT_THRESHOLDS))
    p.set_defaults(func=_cmd_survey)

    p = subs.add_parser("thompson", help="exact class-square coverage search")
    _add_common(p)
    p.set_defaults(func=_cmd_thompson)

    p = subs.add_parser("interleave", help="interleaved-product distribution over G^t")
    _add_common(p)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.5, help="tuple-set density (1.0 = full)")
    p.add_argument("--mc", type=int, default=None, help="Monte Carlo with this many samples (default: exact)")
    p.set_defaults(func=_cmd_interleave)

    p = subs.add_parser("advantage", help="rectangle-protocol distinguishing advantage")
    _add_common(p)
    p.add_argument("--protocol", required=True, help="protocol file: bit,<afile>,<bfile> per line")
    p.add_argument("--g", required=True, help="first promised product (index or hex:<bytes>)")
    p.add_argument("--h", required=True, help="second promised product")
    p.add_argument("--samples", type=int, default=10**5)
    p.set_defaults(func=_cmd_advantage)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:  # SeedSequence takes only non-negative seeds
            raise SpecSyntax(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except ClassmixError as exc:
        print(f"error[{exc.exit_code}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
