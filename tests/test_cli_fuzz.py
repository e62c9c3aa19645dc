"""Fuzz the CLI with malformed specs, input files and numeric flags.

Every run must end in a documented exit code: either a ClassmixError caught by
``main`` or argparse's usage error (SystemExit(2)).  Any other exception is a
raw traceback reaching the user and fails the test.  Groups stay tiny (S:3,
A:5, and a 200-element enumeration cap) so the whole module takes a few seconds.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from classmix.cli import main

EXIT_CODES = {0, *range(2, 7), *range(8, 14)}
CAP = ["--max-order", "200", "--quiet"]
FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

small_ints = st.integers(min_value=-3, max_value=70)
numbers = st.one_of(
    small_ints.map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "1e3", "0x10", "nan", "-inf", "2**3", " 7"]),
)
junk = st.text(alphabet="AS:LP2mgenatrix,=q()- 0123456789hx.\n#", max_size=20)


def _run(argv, files=None):
    """Run the CLI in a scratch directory holding `files`; return its exit code."""
    with tempfile.TemporaryDirectory() as d:
        for name, text in (files or {}).items():
            Path(d, name).write_text(text)
        argv = [a.format(d=d) for a in argv]
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            assert exc.code == 2, argv
            return 2


@FUZZ
@given(
    kind=st.sampled_from(["A", "S", "SL2", "PSL2", "permgen", "matgen", "Q", ""]),
    param=st.one_of(numbers, junk),
    sep=st.sampled_from([":", "", "::", ": "]),
)
def test_fuzz_group_specs(kind, param, sep):
    code = _run(["thompson", f"{kind}{sep}{param}", *CAP])
    assert code in EXIT_CODES


cycle = st.lists(st.integers(min_value=-1, max_value=9), max_size=5).map(
    lambda pts: "(" + " ".join(str(p) for p in pts) + ")"
)
perm_line = st.one_of(st.lists(cycle, min_size=0, max_size=3).map("".join), junk, st.sampled_from(["()", "e", "id"]))


@FUZZ
@given(
    header=st.one_of(st.none(), numbers.map(lambda n: f"n={n}")),
    lines=st.lists(perm_line, max_size=4),
    command=st.sampled_from(["thompson", "chartable"]),
)
def test_fuzz_permgen_files(header, lines, command):
    text = "\n".join(([header] if header is not None else []) + lines) + "\n"
    assert _run([command, "permgen:{d}/g.txt", *CAP], {"g.txt": text}) in EXIT_CODES


mat_line = st.one_of(
    st.lists(st.integers(min_value=-2, max_value=9), min_size=3, max_size=5).map(
        lambda es: ",".join(map(str, es))
    ),
    junk,
)


@FUZZ
@given(lines=st.lists(mat_line, max_size=3), q=numbers)
def test_fuzz_matgen_files(lines, q):
    text = "\n".join(lines) + "\n"
    assert _run(["thompson", f"matgen:{{d}}/m.txt,q={q}", *CAP], {"m.txt": text}) in EXIT_CODES


def _tuple_file(header, rows):
    return header + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)


tuple_header = st.one_of(
    st.tuples(st.integers(min_value=-1, max_value=4), st.sampled_from(["S:3", "A:5", "S:4"])).map(
        lambda tg: f"t={tg[0]} group={tg[1]}"
    ),
    junk,
)
tuple_rows = st.lists(st.lists(st.integers(min_value=-2, max_value=8), max_size=4), max_size=6)


@FUZZ
@given(
    a=st.tuples(tuple_header, tuple_rows),
    b=st.tuples(tuple_header, tuple_rows),
    bits=st.lists(st.sampled_from(["0", "1", "2", "x", ""]), min_size=0, max_size=3),
    g=st.one_of(numbers, st.sampled_from(["hex:000102", "hex:zz", "hex:"])),
    samples=numbers,
)
def test_fuzz_protocol_files(a, b, bits, g, samples):
    files = {
        "a.txt": _tuple_file(*a),
        "b.txt": _tuple_file(*b),
        "p.txt": "".join(f"{bit},a.txt,b.txt\n" for bit in bits),
    }
    argv = ["advantage", "S:3", "--protocol", "{d}/p.txt", "--g", g, "--h", "1", "--samples", samples, *CAP]
    assert _run(argv, files) in EXIT_CODES


@FUZZ
@given(
    command=st.sampled_from(["survey", "mixpair", "interleave", "zeta"]),
    group=st.sampled_from(["S:3", "A:5"]),
    values=st.lists(numbers, min_size=1, max_size=3),
    # t <= 3 keeps G^t tiny; from t = 11 on 6^t is past interleave.MAX_MATERIALIZED, up to t = 10^8
    arity=st.one_of(st.integers(min_value=-1, max_value=3), st.integers(min_value=11, max_value=10**8)),
    coupling=st.one_of(
        st.sampled_from(["independent", "diagonal", "bijfile:{d}/missing.txt", "transinv:hex:0102"]),
        numbers.map(lambda n: f"transinv:{n}"),
        junk,
    ),
)
def test_fuzz_numeric_flags(command, group, values, coupling, arity):
    first, *rest = values
    if command == "survey":
        flags = ["--coupling", coupling, "--thresholds", *values]
    elif command == "mixpair":
        flags = ["--x", first, "--y", rest[0] if rest else "1", "--method", "brute" if rest else "char"]
    elif command == "interleave":  # S:3 and t <= 3 keep G^t tiny
        mc = ["--mc", rest[1]] if len(rest) > 1 else []
        flags = ["--t", str(arity), "--alpha", first, *mc]
        group = "S:3"
    else:
        flags = ["--s", *values]
    assert _run([command, group, *flags, *CAP]) in EXIT_CODES
