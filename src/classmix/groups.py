"""Explicit finite group engines and conjugacy-class machinery.

Supported engines: permutation groups on up to 12 points (alternating,
symmetric, or generator-defined) and 2x2 matrix groups over GF(q) (SL2, PSL2,
or generator-defined).  Groups are fully enumerated up to a configurable cap;
elements are fixed-width integer rows whose bytes are canonical keys, so that
tables, reports, and golden files are reproducible byte for byte.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import config
from .errors import (
    CapExceeded, InvariantViolation, MixedGroups, SpecSyntax, UnsupportedParameters, parse_int, read_input_text
)
from .fields import Field, field_for_size

MAX_PERM_DEGREE = 12
MAX_MATRIX_Q = 55_108  # largest q with q^4 < 2^63, so a matrix's rank code fits int64
MUL_TABLE_LIMIT = 4096  # largest order given a dense multiplication table
ROW_CHUNK = 1 << 16  # items per chunk of a sweep: element products, tuple codes or root-search residues


# ---------------------------------------------------------------------------
# engines
#
# An element is a fixed-width row of small ints in the engine's dtype; the row's
# bytes are its canonical key.  Engines multiply and invert batches of rows:
# arrays whose last axis is the row and whose leading axes broadcast (both
# operands have the same number of axes).  The sweeps multiply by a fixed
# factor: right(rows, gs)[n, g] = rows[n] * gs[g] and left(h, rows) = h * rows.


class PermEngine:
    """Permutations of {0..n-1}: one uint8 point image per column."""

    def __init__(self, n: int):
        self.base = n
        self.dtype = np.dtype(np.uint8)
        self.code_dtype = _code_dtype(n, n)
        self.identity = np.arange(n, dtype=self.dtype)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # (a*b)(x) = a(b(x)): apply b first
        return np.take_along_axis(a, b, axis=-1)  # indexing with the uint8 rows, not an intp copy

    def right(self, rows: np.ndarray, gs: np.ndarray) -> np.ndarray:
        return rows[:, gs]  # a column gather: (row * g)(x) = row(g(x))

    def left(self, h: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return h[rows]  # fancy indexing; h.take(rows) would make an intp copy of rows

    def inv(self, a: np.ndarray) -> np.ndarray:
        return np.argsort(a, axis=-1).astype(self.dtype)


class Mat2Engine:
    """2x2 matrices over GF(q): row-major entries, big-endian 1- or 2-byte columns.

    With projective=True elements are the cosets {M, -M}: the canonical
    representative is the lift whose first nonzero entry (row-major) has the
    smaller integer encoding.  In characteristic 2 the lifts coincide, which
    is the deterministic tie rule.
    """

    def __init__(self, gf: Field, projective: bool = False):
        self.field = gf
        self.projective = projective
        self.base = gf.q
        self.dtype = np.dtype(np.uint8 if gf.q <= 256 else ">u2")
        self.code_dtype = _code_dtype(gf.q, 4)
        self.identity = self.canonical(np.array([1, 0, 0, 1]))

    def canonical(self, entries) -> np.ndarray:
        """Stored rows for matrices given by their entries (the sign choice for PSL2)."""
        entries = np.asarray(entries, dtype=np.int64)
        if self.projective:
            lead = np.take_along_axis(entries, np.argmax(entries != 0, axis=-1)[..., None], axis=-1)
            entries = np.where(self.field.neg(lead) < lead, self.field.neg(entries), entries)
        return entries.astype(self.dtype)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        f = self.field
        a11, a12, a21, a22 = np.moveaxis(a, -1, 0)
        b11, b12, b21, b22 = np.moveaxis(b, -1, 0)
        prod = (
            f.add(f.mul(a11, b11), f.mul(a12, b21)),
            f.add(f.mul(a11, b12), f.mul(a12, b22)),
            f.add(f.mul(a21, b11), f.mul(a22, b21)),
            f.add(f.mul(a21, b12), f.mul(a22, b22)),
        )
        return self.canonical(np.stack(prod, axis=-1))

    def right(self, rows: np.ndarray, gs: np.ndarray) -> np.ndarray:
        return self.mul(rows[:, None], gs[None])

    def left(self, h: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self.mul(h, rows)

    def inv(self, a: np.ndarray) -> np.ndarray:
        f = self.field
        a11, a12, a21, a22 = np.moveaxis(a, -1, 0)
        d = f.inv(f.sub(f.mul(a11, a22), f.mul(a12, a21)))
        entries = (f.mul(d, a22), f.mul(d, f.neg(a12)), f.mul(d, f.neg(a21)), f.mul(d, a11))
        return self.canonical(np.stack(entries, axis=-1))


def _code_dtype(base: int, width: int) -> np.dtype:
    """int32 when every rank code of a row of `width` entries below `base` fits it, else int64."""
    return np.dtype(np.int32 if base**width <= 2**31 else np.int64)


def pack_digits(rows: np.ndarray, base: int, dtype) -> np.ndarray:
    """Codes in `dtype` of rows of digits below `base`, digit i (weight base**i) in column i of the last axis.

    The caller's view sets the order: a big-endian row is packed as `rows[..., ::-1]`.
    """
    codes = rows[..., -1].astype(dtype)  # Horner's rule, seeded with the most significant digit
    for i in reversed(range(rows.shape[-1] - 1)):
        codes *= base
        codes += rows[..., i]
    return codes


def unpack_digits(codes: np.ndarray, base: int, out: np.ndarray) -> np.ndarray:
    """Fill column i of the 2-D `out` with digit i (weight base**i) of each code, and return it.

    The caller's view sets the order: big-endian rows are unpacked into `rows[lo:hi, ::-1]`.
    """
    rest = codes.astype(np.min_scalar_type(base ** out.shape[1]))  # holds every code and the base
    quot = np.empty_like(rest)
    for i in range(out.shape[1] - 1):  # a floor division by a scalar and a subtract: faster than divmod
        np.floor_divide(rest, base, out=quot)
        rest -= quot * base
        out[:, i] = rest
        rest, quot = quot, rest
    if out.shape[1]:  # no digits: the empty suffixes of 1-tuples
        out[:, -1] = rest  # below base once the lower digits are gone
    return out


def _codes(rows: np.ndarray, engine) -> np.ndarray:
    """Rank codes in the engine's code dtype: each row read as a big-endian number in base `engine.base`.

    Every entry is below the base, so code order is the canonical byte order.
    """
    return pack_digits(rows[..., ::-1], engine.base, engine.code_dtype)


def _decode(codes: np.ndarray, engine) -> np.ndarray:
    rows = np.empty((len(codes), len(engine.identity)), dtype=engine.dtype)
    for lo in range(0, len(codes), ROW_CHUNK):  # O(ROW_CHUNK) transients
        unpack_digits(codes[lo : lo + ROW_CHUNK], engine.base, rows[lo : lo + ROW_CHUNK, ::-1])
    return rows


# ---------------------------------------------------------------------------
# specs


class GroupSpec(NamedTuple):
    """A group to build: its family, base, generators, label and known order.

    `base` is the engine's base: the degree n for alt/sym/permgen, the field
    size q for sl2/psl2/matgen.  `generators` are point images (n entries) or
    row-major matrix entries (four).  `order` is None for generator files.
    """

    kind: str  # alt | sym | sl2 | psl2 | permgen | matgen
    base: int
    generators: tuple[tuple[int, ...], ...]
    label: str
    order: int | None = None

    @staticmethod
    def parse(text: str) -> "GroupSpec":
        """Grammar: A:<n> | S:<n> | SL2:<q> | PSL2:<q> | permgen:<file> | matgen:<file>,q=<q>."""
        text = text.strip()
        head, sep, rest = text.partition(":")
        if not sep:
            raise SpecSyntax(f"group spec needs a ':': {text!r}")
        families = {"A": GroupSpec.alt, "S": GroupSpec.sym, "SL2": GroupSpec.sl2, "PSL2": GroupSpec.psl2}
        if head in families:
            return families[head](parse_int(rest, f"parameter of {text!r}"))
        if head == "permgen":
            return _permgen_spec(rest)
        if head == "matgen":
            return _matgen_spec(rest)
        raise SpecSyntax(f"unknown group kind {head!r} in {text!r}")

    @staticmethod
    def alt(n: int) -> "GroupSpec":
        """A 3-cycle and the long cycle: of all n points for odd n, of 1..n-1 for even n."""
        _check_degree(n)
        gens = (_cycle_to_image([(0, 1, 2)], n), _cycle_to_image([tuple(range(1 - n % 2, n))], n))
        return GroupSpec("alt", n, gens, f"A:{n}", math.factorial(n) // 2)

    @staticmethod
    def sym(n: int) -> "GroupSpec":
        """A transposition and the n-cycle."""
        _check_degree(n)
        gens = (_cycle_to_image([(0, 1)], n), _cycle_to_image([tuple(range(n))], n))
        return GroupSpec("sym", n, gens, f"S:{n}", math.factorial(n))

    @staticmethod
    def sl2(q: int) -> "GroupSpec":
        """Upper transvections for an additive basis of GF(q), then the Weyl element."""
        gf = _check_field_size(q)
        gens = tuple((1, gf.p**i, 0, 1) for i in range(gf.k)) + ((0, 1, int(gf.neg(1)), 0),)
        return GroupSpec("sl2", q, gens, f"SL2:{q}", q * (q**2 - 1))

    @staticmethod
    def psl2(q: int) -> "GroupSpec":
        """The images of the SL2 generators, modulo the centre {1, -1}."""
        sl2 = GroupSpec.sl2(q)
        return GroupSpec("psl2", q, sl2.generators, f"PSL2:{q}", sl2.order // math.gcd(2, q - 1))

    @staticmethod
    def from_perm_generators(gens: list[tuple[int, ...]], label: str = "permgen") -> "GroupSpec":
        if not gens:
            raise UnsupportedParameters("at least one permutation generator required")
        degree = len(gens[0])
        if not (1 <= degree <= MAX_PERM_DEGREE):
            raise UnsupportedParameters(f"permutation degree must be in [1, {MAX_PERM_DEGREE}], got {degree}")
        for g in gens:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise SpecSyntax(f"not a permutation of 0..{degree - 1}: {g}")
        return GroupSpec("permgen", degree, tuple(tuple(g) for g in gens), label)

    @staticmethod
    def from_matrix_generators(gens: list[tuple[int, int, int, int]], q: int, label: str = "matgen") -> "GroupSpec":
        gf = _check_field_size(q)
        if not gens:
            raise UnsupportedParameters("at least one matrix generator required")
        for g in gens:
            if len(g) != 4 or any(not (0 <= e < q) for e in g):
                raise SpecSyntax(f"matrix entries must lie in [0, {q}): {g}")
            if gf.sub(gf.mul(g[0], g[3]), gf.mul(g[1], g[2])) == 0:
                raise UnsupportedParameters(f"matrix generator {g} is singular over GF({q})")
        return GroupSpec("matgen", q, tuple(tuple(g) for g in gens), label)


def _check_degree(n):
    if not (3 <= n <= MAX_PERM_DEGREE):
        raise UnsupportedParameters(f"degree must be in [3, {MAX_PERM_DEGREE}], got {n}")


def _check_field_size(q) -> Field:
    if q < 4:
        raise UnsupportedParameters(f"matrix groups need q >= 4, got {q}")
    if q > MAX_MATRIX_Q:
        raise UnsupportedParameters(f"matrix groups need q <= {MAX_MATRIX_Q} (q^4 < 2^63), got {q}")
    return field_for_size(q)  # raises UnsupportedParameters unless q is a prime power


def _read_lines(path: Path) -> list[str]:
    lines = [ln.strip() for ln in read_input_text(path, "generator file").splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise SpecSyntax(f"no generators in {path}")
    return lines


def _permgen_spec(path_text: str) -> GroupSpec:
    path = Path(path_text)
    lines = _read_lines(path)
    degree = None
    if lines[0].startswith("n="):
        degree = parse_int(lines[0][2:], "permgen degree n=")
        lines = lines[1:]
    if not lines:
        raise SpecSyntax(f"no generators in {path}")
    gens = [parse_cycles(ln, degree) for ln in lines]
    if degree is None:
        degree = max(len(g) for g in gens)
        gens = [g + tuple(range(len(g), degree)) for g in gens]
    return GroupSpec.from_perm_generators(gens, label=f"permgen:{path.name}")


def _matgen_spec(rest: str) -> GroupSpec:
    path_text, _, qpart = rest.partition(",")
    if not qpart.startswith("q="):
        raise SpecSyntax("matgen spec must look like matgen:<file>,q=<q>")
    q = parse_int(qpart[2:], "matgen field size q=")
    path = Path(path_text)
    gens = []
    for ln in _read_lines(path):
        parts = ln.split(",")
        if len(parts) != 4:
            raise SpecSyntax(f"matrix generator needs four entries: {ln!r}")
        gens.append(tuple(parse_int(p, "matrix entry") for p in parts))
    return GroupSpec.from_matrix_generators(gens, q=q, label=f"matgen:{path.name}")


# ---------------------------------------------------------------------------
# group tables


class GroupTable:
    """Fully enumerated group: rank codes, generator indices, and element maps built on first use.

    Codes are the only per-element array held: rows_of decodes rows where they are read.  Elements are sorted by
    rank code, which is canonical byte order, except that the identity is pinned to index 0; so one searchsorted
    over codes[1:] maps rows to indices.  Immutable after construction and safe to share.
    """

    def __init__(self, spec: GroupSpec, engine, codes: np.ndarray, generators: np.ndarray):
        self.spec = spec
        self.engine = engine
        self.codes = codes
        self.order = len(codes)
        self.generator_indices = tuple(dict.fromkeys(self.lookup(generators).tolist()))
        self._mul_table: np.ndarray | None = None

    @cached_property
    def elements(self) -> list[bytes]:
        """Canonical byte keys in index order."""
        return [row.tobytes() for row in self.rows_of(slice(None))]

    @cached_property
    def inverses(self) -> np.ndarray:
        """Array with inverses[g] = index(g^-1)."""
        return self._sweep(self.engine.inv)[0]

    @cached_property
    def class_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(reps, class_of): the conjugacy class representatives and the int32 class of each element index.

        Min-label propagation: each round lowers every label to its conjugates' labels under each
        generator, then to its label's label.  Labels only decrease and always name an element of the
        same orbit; at the fixpoint they are constant along every generator cycle, so each orbit is
        labelled by its smallest index.  That index is the class representative, and classes are
        numbered by it (identity class first).
        """
        engine, hs = self.engine, self.rows_of(list(self.generator_indices))
        conj_perms = self._sweep(  # c[g] = index(h g h^-1) for each generator h, each chunk decoded once for all
            *(lambda rows, h=h: engine.left(h, engine.right(rows, engine.inv(h[None]))[:, 0]) for h in hs)
        )
        labels = np.arange(self.order, dtype=np.int32)
        fell = True
        while fell:
            before = labels.sum(dtype=np.int64)
            # a label is at most its element, so labels[labels] is the minimum with the label's label
            for perm in (*conj_perms, labels):
                np.minimum(labels, labels[perm], out=labels)
            fell = labels.sum(dtype=np.int64) < before  # labels never rise
        del conj_perms
        is_rep = np.zeros(self.order, dtype=bool)
        is_rep[labels] = True  # exactly the orbit minima
        number = is_rep.astype(np.int32)
        np.cumsum(number, out=number)  # in place: cumsum(is_rep, dtype=np.int32) casts a copy first
        number -= 1  # number[r] = the class of representative r, classes numbered by representative
        return np.flatnonzero(is_rep), number[labels]

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Indices of rows of group elements (any leading shape; one row gives a 0-d index)."""
        return self._search(_codes(rows, self.engine))

    def _search(self, codes: np.ndarray) -> np.ndarray:
        """Indices of the codes of group elements, in their shape and dtype: searched in ascending order, which
        keeps searchsorted's probes in cache, and scattered back into the code buffer."""
        flat = codes.ravel()
        order = flat.argsort()
        flat.sort()
        idx = np.searchsorted(self.codes[1:], flat)
        idx += 1
        idx *= flat != self.codes[0]  # the identity, pinned to index 0
        flat[order] = idx
        return flat.reshape(codes.shape)

    def rows_of(self, idx) -> np.ndarray:
        """Engine rows of an index, index array or slice, decoded from their codes: shape idx's shape + (row width,)."""
        codes = self.codes[idx]
        return _decode(np.ravel(codes), self.engine).reshape(*np.shape(codes), -1)

    def _sweep(self, *images) -> np.ndarray:
        """int32 r with r[i, g] = index(images[i](rows)[g]), each ROW_CHUNK rows decoded once for every image."""
        out = np.empty((len(images), self.order), dtype=np.int32)
        for lo in range(0, self.order, ROW_CHUNK):
            rows = self.rows_of(slice(lo, lo + ROW_CHUNK))
            for r, image in zip(out, images):
                r[lo : lo + ROW_CHUNK] = self._search(_codes(image(rows), self.engine))  # image freed before the search
        return out

    # -- element-level ops ---------------------------------------------------

    def index_of(self, key: bytes) -> int:
        if len(key) == self.engine.identity.nbytes:
            row = np.frombuffer(key, dtype=self.engine.dtype)
            i = int(self.lookup(row)) if row.max() < self.engine.base else self.order  # entries >= base alias codes
            if i < self.order and self.codes[i] == _codes(row, self.engine):
                return i
        raise MixedGroups(f"element {key.hex()} does not belong to group {self.spec.label}")

    # -- bulk helpers ----------------------------------------------------------

    def right_mul_indices(self, g: int) -> np.ndarray:
        """Array r with r[h] = index(h * g) for every element h."""
        return self._sweep(lambda rows: self.engine.right(rows, self.rows_of([g]))[:, 0])[0]

    def full_mul_table(self) -> np.ndarray:
        """Dense index multiplication table, for groups of order at most MUL_TABLE_LIMIT.

        Only the generators' rows are engine sweeps.  Every other row is one gather,
        row(s x) = row_s[row(x)], found breadth-first from the identity by left
        multiplication with the generators s, which reaches all of a finite group.
        """
        if self.order > MUL_TABLE_LIMIT:
            raise CapExceeded(f"multiplication table of order {self.order} exceeds limit {MUL_TABLE_LIMIT}")
        if self._mul_table is None:
            lefts = self._sweep(*(partial(self.engine.left, s) for s in self.rows_of(list(self.generator_indices))))
            table = np.empty((self.order, self.order), dtype=np.int32)
            table[0] = np.arange(self.order)
            reached = [0]
            found = np.zeros(self.order, dtype=bool)
            found[0] = True
            for x in reached:  # grows while it is walked: a breadth-first queue
                for left in lefts:
                    y = left[x]
                    if not found[y]:
                        found[y] = True
                        table[y] = left[table[x]]
                        reached.append(y)
            if len(reached) != self.order:
                raise InvariantViolation(f"{self.spec.label}: generators reach {len(reached)} of {self.order} elements")
            self._mul_table = table
        return self._mul_table

    def __repr__(self) -> str:
        return f"GroupTable({self.spec.label}, order={self.order})"


def group_build(spec: GroupSpec, max_order: int | None = None) -> GroupTable:
    """Breadth-first closure over the spec's generators, one level per step.

    Raises CapExceeded when the (known or discovered) order exceeds the cap:
    max_order if given (it must be positive), else config.DEFAULT_MAX_ORDER.
    A generator set producing the trivial group is allowed.
    """
    cap = config.DEFAULT_MAX_ORDER if max_order is None else config.positive(int(max_order), "max order")
    cap = min(cap, np.iinfo(np.int32).max)  # element indices are int32
    if spec.order is not None and spec.order > cap:
        raise CapExceeded(f"{spec.label} has order {spec.order}, above the cap {cap}")

    engine, generators = _make_engine(spec)
    identity = _codes(engine.identity, engine)
    seen = identity[None]  # sorted codes of every element found so far
    frontier = engine.identity[None]
    per = max(1, ROW_CHUNK // len(generators))
    while len(frontier):
        products = (engine.right(frontier[lo : lo + per], generators) for lo in range(0, len(frontier), per))
        codes = np.concatenate([_codes(block, engine).ravel() for block in products])
        codes.sort()
        fresh = np.r_[True, codes[1:] != codes[:-1]]  # the first of each run of equal codes
        new = codes[fresh & (seen[np.minimum(np.searchsorted(seen, codes), len(seen) - 1)] != codes)]
        seen = np.concatenate([seen, new])
        seen.sort(kind="stable")  # merges two sorted runs
        if len(seen) > cap:
            raise CapExceeded(f"{spec.label} enumeration passed the cap {cap}")
        frontier = _decode(new, engine)

    if spec.order is not None and len(seen) != spec.order:
        raise InvariantViolation(f"{spec.label}: enumerated order {len(seen)} != known order {spec.order}")
    at = int(np.searchsorted(seen, identity)) + 1
    seen[:at] = np.roll(seen[:at], 1)  # pins the identity to index 0
    return GroupTable(spec, engine, seen, generators)


def _make_engine(spec: GroupSpec):
    """The engine of the spec's kind, and the spec's generators as its rows."""
    if spec.kind in ("alt", "sym", "permgen"):
        engine = PermEngine(spec.base)
        return engine, np.array(spec.generators, dtype=engine.dtype)
    engine = Mat2Engine(field_for_size(spec.base), projective=spec.kind == "psl2")
    return engine, engine.canonical(spec.generators)


def _cycle_to_image(cycles: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    img = list(range(n))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            img[a] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


# ---------------------------------------------------------------------------
# cycle-notation parsing (generator files)

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int | None = None) -> tuple[int, ...]:
    """Parse 1-based cycle notation like ``(1 2 3)(4 5)`` into a 0-based image tuple.

    Points may be separated by spaces or commas.  ``()`` or ``e`` denotes the
    identity (degree must then be supplied).
    """
    text = text.strip()
    if text in ("()", "e", "id"):
        if degree is None:
            raise SpecSyntax("identity permutation needs an explicit degree")
        return tuple(range(degree))
    chunks = _CYCLE_RE.findall(text)
    if not chunks or _CYCLE_RE.sub("", text).strip():
        raise SpecSyntax(f"cannot parse cycle notation: {text!r}")
    cycles = []
    seen: set[int] = set()
    maxpt = 0
    for chunk in chunks:
        pts = [p for p in re.split(r"[,\s]+", chunk.strip()) if p]
        try:
            cyc = tuple(int(p) - 1 for p in pts)
        except ValueError as exc:
            raise SpecSyntax(f"bad cycle {chunk!r}") from exc
        if any(p < 0 for p in cyc):
            raise SpecSyntax(f"points are 1-based: {chunk!r}")
        if len(set(cyc)) != len(cyc) or seen & set(cyc):
            raise SpecSyntax(f"repeated point in {text!r}")
        seen |= set(cyc)
        maxpt = max(maxpt, max(cyc, default=-1) + 1)
        if len(cyc) > 1:
            cycles.append(cyc)
    n = degree if degree is not None else maxpt
    if maxpt > n:
        raise SpecSyntax(f"point {maxpt} exceeds declared degree {n}")
    return _cycle_to_image(cycles, n)


# ---------------------------------------------------------------------------
# conjugacy classes


class ClassData(NamedTuple):
    """The class algebra, identity class first; it holds no element map, so it needs no GroupTable.

    power_map has one row per power m up to the largest representative order,
    not up to the exponent: rep^m for larger m is row m % orders[c], and Dixon's
    lift reads only rows below each class's order.  (PSL2:127 has exponent
    512,064 but largest order 127.)
    """

    sizes: tuple[int, ...]
    orders: tuple[int, ...]  # order of each class representative
    power_map: np.ndarray  # int32 (max(orders) + 1, k); row m = class of rep^m

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def order(self) -> int:
        return int(sum(self.sizes))

    @property
    def exponent(self) -> int:
        return math.lcm(*self.orders)

    @property
    def inverse_class(self) -> tuple[int, ...]:
        """The class of the inverses of each class: rep^(n-1) = rep^-1 for a representative of order n."""
        return tuple(self.power_map[np.asarray(self.orders) - 1, np.arange(self.k)].tolist())


def conj_classes(table: GroupTable) -> ClassData:
    """The class algebra of the table's conjugacy classes, numbered as its `class_map` numbers them."""
    reps, class_of = table.class_map
    sizes = np.bincount(class_of)
    k = len(reps)
    # powers[m, j] = index of reps[j]^m, up to the largest representative order
    rep_rows = table.rows_of(reps)
    powers = [np.zeros(k, dtype=np.int64)]
    orders = np.zeros(k, dtype=np.int64)
    cur = rep_rows
    while not orders.all():
        idx = table.lookup(cur)
        orders[(idx == 0) & (orders == 0)] = len(powers)
        powers.append(idx)
        cur = table.engine.mul(cur, rep_rows)
    return ClassData(sizes=tuple(sizes.tolist()), orders=tuple(orders.tolist()), power_map=class_of[np.array(powers)])
