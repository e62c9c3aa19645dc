"""Run one classmix CLI job with spans around the calls into each layer.

    PYTHONPATH=src python3 perfbench/tracer.py <spans.json> <job id> <classmix argv...>

The program is not changed: this script replaces, from outside, the public functions
where ``classmix.cli`` and the layers look them up (module attributes, and two
``GroupTable`` methods) with wrappers that record a span per call, then calls
``classmix.cli.main(argv)``.  Spans stay in memory and are written to <spans.json>
when the job ends.  The wrappers return the wrapped function's result unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import classmix.cli
import classmix.config
import classmix.groups

# (module, function, counter) for each traced module-level function.  A counter maps
# (args, kwargs, result) to computed counts attached to the call's span.
FUNCTIONS = (
    ("fields", "field_for_size", None),
    ("groups", "group_build", lambda a, kw, t: {"order": t.order, "closure_products": t.order * len(t.generator_indices)}),
    ("groups", "conj_classes", lambda a, kw, c: {"classes": c.k, "exponent": c.exponent}),
    ("characters", "structure_constants", lambda a, kw, s: {"bytes": s.tensor.nbytes}),
    ("characters", "dixon_character_table", lambda a, kw, t: {"prime": t.modulus_prime}),
    (
        "characters",
        "verify_orthogonality",
        lambda a, kw, r: {"residual_over_tol": max(r.max_row_residual, r.max_col_residual) / r.tolerance},
    ),
    ("mixing", "p_brute", lambda a, kw, d: {"pairs": sum(d.counts), "budget_share": sum(d.counts) / classmix.config.loop_budget()}),
    ("mixing", "p_char", None),
    ("mixing", "survey", None),
    ("mixing", "thompson_search", None),
    ("interleave", "seeded_tuple_set", None),
    ("interleave", "mc_distribution", lambda a, kw, e: {"samples": e.total}),
    ("interleave", "exact_distribution", lambda a, kw, e: {"pairs": e.total}),
    ("interleave", "advantage", None),
    ("interleave", "fiber_sample", None),
    ("interleave", "load_protocol", None),
    ("cli", "main", None),
)
METHODS = ("right_mul_indices", "full_mul_table")


class SpanRecorder:
    """Spans (name, start, end, parent, job, counts) of the wrapped calls of one job."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._tables_counted: set[int] = set()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None, "job": self.job}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced

    def table_bytes(self, args, kwargs, table) -> dict:
        """Bytes of each dense multiplication table, counted once per table built."""
        if id(table) in self._tables_counted:
            return {}
        self._tables_counted.add(id(table))
        return {"bytes": table.nbytes}


def install(recorder: SpanRecorder):
    """Wrap every traced function wherever a classmix module holds it; return the wrapped main."""
    modules = [m for n, m in sys.modules.items() if n == "classmix" or n.startswith("classmix.")]
    for module_name, fn_name, counter in FUNCTIONS:
        original = getattr(sys.modules[f"classmix.{module_name}"], fn_name)
        wrapped = recorder.wrap(f"{module_name}.{fn_name}", original, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    table_cls = classmix.groups.GroupTable
    for method in METHODS:
        counter = recorder.table_bytes if method == "full_mul_table" else None
        setattr(table_cls, method, recorder.wrap(f"groups.GroupTable.{method}", getattr(table_cls, method), counter))
    return classmix.cli.main


def run(spans_path: str, job: str, argv: list[str]) -> int:
    recorder = SpanRecorder(job)
    main = install(recorder)
    try:
        return main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
