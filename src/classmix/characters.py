"""Class-algebra structure constants, character tables, and the Witten zeta function.

The character table is computed by the Burnside-Dixon-Schneider method: the
class-sum matrices are simultaneously diagonalized over a prime field GF(P)
with P = 1 (mod exponent), degrees are recovered exactly, and character values
are lifted to complex doubles by discrete Fourier inversion over the power
maps.  Everything up to the final lift is exact integer arithmetic.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import EigensplitFailure, InvariantViolation, NoSuitablePrime, SpecSyntax, UnsupportedParameters
from .fields import is_prime, prime_factors
from .groups import ROW_CHUNK, ClassData, GroupTable

PRIME_SEARCH_BOUND = 2**31
ORTHOGONALITY_TOL = 1e-8
IMAG_TOL = 1e-8  # largest imaginary part of a class-product probability


class StructureConstants(NamedTuple):
    """tensor[i, j, k] = number of pairs (u, v) in C_i x C_j with u*v = rep(C_k)."""

    tensor: np.ndarray


def class_rows(table: GroupTable, classes: ClassData, j: int, pivots: np.ndarray) -> np.ndarray:
    """tensor[j, i, :] for every i in pivots: rows of the class matrices computed from the group, without the tensor.

    |C_l| tensor[j, i, l] counts the pairs (v, w) in C_j x C_i with v w in C_l,
    that is w^-1 v^-1 in C_l*.  Conjugating a pair so that w^-1 becomes the
    representative z_i* of C_i* is |C_i|-to-one, and x = v^-1 runs over C_j*, so
    |C_l| tensor[j, i, l] = |C_i| h[l*] with h[c] = #{x in C_j* : z_i* x in C_c}.
    x z_i* = z_i*^-1 (z_i* x) z_i* lies in the same class, so h counts the
    products x z_i*: one column gather per representative for permutations.
    Row (j, i) costs |C_j| products and lookups; a call decodes the rows of C_j* once.
    """
    sizes = np.asarray(classes.sizes, dtype=np.int64)
    inv = np.asarray(classes.inverse_class, dtype=np.intp)
    k = len(sizes)
    reps, class_of = table.class_map
    ws = table.rows_of(np.flatnonzero(class_of == inv[j]))
    zs = table.rows_of(reps[inv[pivots]])
    per = max(1, ROW_CHUNK // len(ws))
    h = np.empty((len(pivots), k), dtype=np.int64)
    for s in range(0, len(pivots), per):
        c = class_of[table.lookup(table.engine.right(ws, zs[s : s + per]))]
        n = c.shape[1]
        h[s : s + n] = np.bincount((c + k * np.arange(n)).ravel(), minlength=n * k).reshape(n, k)
    rows, rem = np.divmod(sizes[pivots, None] * h[:, inv], sizes)
    if rem.any():
        raise InvariantViolation("a class-matrix entry is not divisible by its class size")
    return rows


class CharacterTable(NamedTuple):
    """k x k complex character values; row i is the i-th irreducible character.

    Rows are sorted by (degree, descending lexicographic value order), which
    pins the trivial character to row 0.  Columns follow the class order of
    the ClassData the table carries in `classes`.  `residues` holds the same
    values mod the Dixon prime P, rows in the same order.
    """

    values: np.ndarray  # complex128 (k, k)
    residues: np.ndarray  # int64 (k, k), in [0, P)
    degrees: tuple[int, ...]
    classes: ClassData
    modulus_prime: int
    row_residual: float
    col_residual: float
    work: dict | None = None  # run metadata from Dixon, not in reports

    @property
    def k(self) -> int:
        return len(self.degrees)


class OrthogonalityReport(NamedTuple):
    max_row_residual: float
    max_col_residual: float
    tolerance: float
    passed: bool


# ---------------------------------------------------------------------------
# exact linear algebra mod P on int64 arrays (entries in [0, P), P < 2^31)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p.  b is split into 16-bit halves, so that every partial sum of
    a @ half stays below 2^63 while the inner dimension is below 2^16."""
    lo = (a @ (b & 0xFFFF)) % p
    hi = (a @ (b >> 16)) % p
    return (hi * 0x10000 + lo) % p


def _nullspace(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Right nullspace N of a square matrix and its free columns F, with N[F] = I."""
    rows = m % p
    d = len(rows)
    pivots: list[int] = []
    for c in range(d):
        r = len(pivots)
        nz = np.flatnonzero(rows[r:, c])
        if not len(nz):
            continue
        rows[[r, r + nz[0]]] = rows[[r + nz[0], r]]
        pivot = rows[r] * pow(int(rows[r, c]), p - 2, p) % p
        rows = (rows - rows[:, c, None] * pivot) % p
        rows[r] = pivot
        pivots.append(c)
    free = [c for c in range(d) if c not in pivots]
    basis = np.zeros((d, len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[pivots] = -rows[: len(pivots)][:, free] % p
    return basis, free


def _char_poly(m: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of det(xI - M) mod p, little-endian, by Faddeev-LeVerrier (exact while p > d)."""
    d = len(m)
    coeffs = np.zeros(d + 1, dtype=np.int64)
    coeffs[d] = 1
    acc = np.zeros_like(m)
    for j in range(1, d + 1):
        acc = _matmul_mod(m, acc + coeffs[d - j + 1] * np.eye(d, dtype=np.int64), p)
        coeffs[d - j] = -int(acc.trace()) * pow(j, p - 2, p) % p
    return coeffs


def _roots_mod(coeffs: np.ndarray, p: int) -> np.ndarray:
    """All roots in GF(p) of a little-endian polynomial, ascending.

    Horner over every residue, ROW_CHUNK at a time; acc and x stay below
    p < 2^31, so acc * x + c < 2^63.
    """
    found = []
    for start in range(0, p, ROW_CHUNK):
        xs = np.arange(start, min(start + ROW_CHUNK, p), dtype=np.int64)
        acc = np.full_like(xs, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= xs
            acc += c
            acc %= p
        found.append(xs[acc == 0])
    return np.concatenate(found)


def _least_dixon_prime(exponent: int, order: int) -> int:
    """The least prime P = 1 (mod exponent) with P^2 > 4 |G|."""
    lower = 2 * math.isqrt(order)  # lower^2 <= 4 |G|, so P > lower; lower + 1 may already do
    for p in range(lower // exponent * exponent + 1, PRIME_SEARCH_BOUND + 1, exponent):
        if p * p > 4 * order and is_prime(p):
            return p
    raise NoSuitablePrime(f"no prime = 1 (mod {exponent}) above {lower} found below {PRIME_SEARCH_BOUND}")


def _primitive_root_of_order(e: int, p: int) -> int:
    """Element of multiplicative order exactly e in GF(p); requires e | p - 1."""
    prime_divs = prime_factors(e)
    for a in range(2, p):
        theta = pow(a, (p - 1) // e, p)
        if theta != 1 and all(pow(theta, e // r, p) != 1 for r in prime_divs):
            return theta
    raise EigensplitFailure(f"no element of order {e} in GF({p})")  # unreachable for prime p


def _split(table: GroupTable, classes: ClassData, p: int, work: dict) -> np.ndarray:
    """Common one-dimensional eigenspaces of the class matrices over GF(p), one per row.

    A block is a basis B (k x d) of a common eigenspace of the matrices used so
    far, column-reduced: B[P] = I on its pivot rows P.  The class matrices
    commute, so M_j B = B R, and the rows P give R = M_j[P, :] B.  The classes
    split the blocks in index order, each into the eigenspaces of R by ascending
    eigenvalue: the nullspace N of R - lambda, with N[F] = I on its free rows F,
    gives the block B N with pivot rows P[F].
    """
    k = classes.k
    blocks = [(np.eye(k, dtype=np.int64), np.arange(k))]
    for j in range(1, k):
        live = [blk for blk in blocks if len(blk[1]) > 1]
        if not live:
            break
        need = np.flatnonzero(np.bincount(np.concatenate([piv for _, piv in live]), minlength=k))
        rows = np.zeros((k, k), dtype=np.int64)
        rows[need] = class_rows(table, classes, j, need) % p
        work["class_matrices"] += 1
        work["rows"] += len(need)
        work["products"] += len(need) * classes.sizes[j]  # row (j, i) costs |C_j| products
        new_blocks = []
        for basis, piv in blocks:
            if len(piv) == 1:
                new_blocks.append((basis, piv))
                continue
            d = len(piv)
            r = _matmul_mod(rows[piv], basis, p)
            split_dim = 0
            for lam in _roots_mod(_char_poly(r, p), p).tolist():
                vectors, free = _nullspace(r - lam * np.eye(d, dtype=np.int64), p)
                if free:
                    new_blocks.append((_matmul_mod(basis, vectors, p), piv[free]))
                    split_dim += len(free)
                    work["max_block"] = max(work["max_block"], len(free))
            if split_dim != d:
                raise EigensplitFailure(f"block of dimension {d} split into {split_dim} dimensions")
        blocks = new_blocks
    if any(len(piv) != 1 for _, piv in blocks):
        raise EigensplitFailure("splitting exhausted all class matrices with a block unresolved")
    return np.array([basis[:, 0] for basis, _ in blocks], dtype=np.int64)


def _inv_mod(values: np.ndarray, p: int) -> np.ndarray:
    return np.array([pow(int(v), p - 2, p) for v in values], dtype=np.int64)


def dixon_character_table(table: GroupTable, classes: ClassData) -> CharacterTable:
    """Full complex character table via Burnside-Dixon-Schneider.

    Stages: (1) least prime P = 1 (mod exponent), P > 2 sqrt(|G|);
    (2) common eigenvectors by iterative eigenspace splitting, computing from
    the group (class_rows) only the class-matrix rows the split needs; (3) exact
    degree recovery; (4) complex lift by Fourier inversion over the power maps;
    (5) deterministic row order.  A row or column orthogonality residual of at
    least ORTHOGONALITY_TOL * |G| raises InvariantViolation.  The table's `work`
    records P, the class matrices used, the rows read, the element products
    spent on them (|C_j| per row of M_j) and the largest block a split left.
    """
    k = classes.k
    order = classes.order
    e = classes.exponent
    p = _least_dixon_prime(e, order)
    work = {"prime": p, "class_matrices": 0, "rows": 0, "max_block": 1, "products": 0}
    vectors = _split(table, classes, p, work)

    if not vectors[:, 0].all():
        raise EigensplitFailure("eigenvector vanishes at the identity class")
    omega = vectors * _inv_mod(vectors[:, 0], p)[:, None] % p
    size_inv = _inv_mod(np.asarray(classes.sizes), p)
    inv_class = np.asarray(classes.inverse_class, dtype=np.intp)
    denom = (omega * omega[:, inv_class] % p * size_inv % p).sum(axis=1) % p
    if not denom.all():
        raise EigensplitFailure("degree denominator vanished mod P")
    target = order * _inv_mod(denom, p) % p
    candidates = np.arange(1, math.isqrt(order) + 1, dtype=np.int64)
    hits = (candidates * candidates % p)[None, :] == target[:, None]
    if not hits.any(axis=1).all():
        raise EigensplitFailure("no integer degree matches the recovered square")
    degrees = candidates[hits.argmax(axis=1)]
    # character values mod P per class
    s = degrees[:, None] * omega % p * size_inv % p

    theta = _primitive_root_of_order(e, p) if e > 1 else 1
    values = np.empty((k, k), dtype=np.complex128)
    root_powers: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # per element order
    for j in range(k):
        nj = classes.orders[j]
        if nj == 1:
            values[:, j] = degrees
            continue
        if nj not in root_powers:  # W[l, m] = theta_j^(-l m) mod P, and exp(2 pi i m / nj)
            theta_inv = pow(theta, e - e // nj, p)
            exponents = np.outer(np.arange(nj), np.arange(nj)) % nj
            root_powers[nj] = (
                np.array([pow(theta_inv, t, p) for t in range(nj)], dtype=np.int64)[exponents],
                np.array([cmath.exp(2j * cmath.pi * mm / nj) for mm in range(nj)]),
            )
        powers, roots = root_powers[nj]
        # mu[chi, mm]: multiplicity of the root exp(2 pi i mm / nj) in chi at the class
        mu = _matmul_mod(s[:, classes.power_map[:nj, j]], powers, p) * pow(nj, p - 2, p) % p
        if (mu.sum(axis=1) != degrees).any():
            raise EigensplitFailure(f"root-of-unity multiplicities at class {j} do not sum to the degrees")
        # summed left to right from 0j, as a loop over mm would; zero terms leave the sums unchanged
        terms = np.concatenate([np.zeros((k, 1), dtype=np.complex128), mu * roots], axis=1)
        values[:, j] = np.cumsum(terms, axis=1)[:, -1]

    rounded = [tuple((-round(v.real, 10), -round(v.imag, 10)) for v in row) for row in values.tolist()]
    perm = sorted(range(k), key=lambda r: (degrees[r], rounded[r]))
    values = values[perm]
    degrees = tuple(degrees[perm].tolist())

    if sum(d * d for d in degrees) != order:
        raise EigensplitFailure(f"degree squares sum to {sum(d * d for d in degrees)}, expected {order}")

    row_res, col_res = _residuals(values, classes.sizes, order)
    residual = max(row_res, col_res)
    if residual >= ORTHOGONALITY_TOL * order:
        raise InvariantViolation(f"orthogonality residual {residual:.2e} reaches {ORTHOGONALITY_TOL:g} * |G|")
    return CharacterTable(
        values=values,
        residues=s[perm],
        degrees=degrees,
        classes=classes,
        modulus_prime=p,
        row_residual=row_res,
        col_residual=col_res,
        work=work,
    )


def _residuals(values: np.ndarray, sizes, order) -> tuple[float, float]:
    k = values.shape[0]
    w = np.asarray(sizes, dtype=np.float64)
    gram_rows = (values * w) @ values.conj().T
    row_res = float(np.abs(gram_rows - order * np.eye(k)).max())
    gram_cols = values.conj().T @ values
    expected = np.diag([order / s for s in sizes])
    col_res = float(np.abs(gram_cols - expected).max())
    return row_res, col_res


def class_products(chartable: CharacterTable, xs, ys) -> np.ndarray:
    """Class-algebra constants a_xyl for the class pairs (xs[m], ys[m]), one row per pair.

    a_xyl = |C_x| |C_y| / |G| sum_chi chi(x) chi(y) chi(l*) / chi(1) (Frobenius), with l*
    the inverse class, is taken in float64 and rounded.  Each rounded entry must equal
    the same sum taken exactly mod the Dixon prime P over the table's residues (P = 1 mod
    exponent does not divide |G|; a wrong rounding would be off by a multiple of
    P > 2 sqrt(|G|)), and each probability a_xyl / (|C_x| |C_y|) must be real within IMAG_TOL.
    """
    p, classes = chartable.modulus_prime, chartable.classes
    sizes = np.asarray(classes.sizes, dtype=np.int64)
    inv = np.asarray(classes.inverse_class, dtype=np.intp)
    pairs = sizes[xs] * sizes[ys]
    chi, res = chartable.values, chartable.residues
    probs = (chi[:, xs] * chi[:, ys] / np.asarray(chartable.degrees)[:, None]).T @ chi[:, inv] / classes.order
    consts = np.rint(probs.real * pairs[:, None]).astype(np.int64)
    weights = res[:, xs] * res[:, ys] % p * _inv_mod(chartable.degrees, p)[:, None] % p
    scale = pairs % p * pow(classes.order, p - 2, p) % p
    if (consts % p != _matmul_mod(weights.T, res[:, inv], p) * scale[:, None] % p).any():
        raise InvariantViolation("a structure constant read off the character table disagrees with its residue mod P")
    if np.abs(probs.imag).max() > IMAG_TOL:
        raise InvariantViolation(f"character sum has imaginary part {np.abs(probs.imag).max():.2e}")
    return consts


def structure_constants(chartable: CharacterTable) -> StructureConstants:
    """All k^3 constants a_ijl by class_products, which must also satisfy the marginals
    sum_j a_ijl = |C_i|, sum_i a_ijl = |C_j| and the identity column a_ij1 = |C_i| [i = j*];
    that column is what a wrong inverse-class map breaks.
    """
    classes = chartable.classes
    k = classes.k
    sizes = np.asarray(classes.sizes, dtype=np.int64)
    tensor = class_products(chartable, *np.divmod(np.arange(k * k), k)).reshape(k, k, k)
    marginal = sizes[:, None]  # sum_j a_ijl = |C_i| and sum_i a_ijl = |C_j|, for every l
    if (tensor.sum(axis=1) != marginal).any() or (tensor.sum(axis=0) != marginal).any():
        raise InvariantViolation("structure constants do not sum to the class sizes")
    if (tensor[:, :, 0] != np.diag(sizes)[:, classes.inverse_class]).any():  # class 0 is the identity
        raise InvariantViolation("structure constants at the identity disagree with the inverse classes")
    return StructureConstants(tensor=tensor)


def verify_orthogonality(table: CharacterTable) -> OrthogonalityReport:
    """The row and column orthogonality residuals Dixon measured, against tolerance ORTHOGONALITY_TOL * |G|."""
    row_res, col_res = table.row_residual, table.col_residual
    tol = ORTHOGONALITY_TOL * table.classes.order
    return OrthogonalityReport(
        max_row_residual=row_res,
        max_col_residual=col_res,
        tolerance=tol,
        passed=bool(row_res < tol and col_res < tol),
    )


# ---------------------------------------------------------------------------
# Witten zeta


def witten_zeta(table: CharacterTable, s: float) -> float:
    """Sum over irreducible degrees of degree^(-s)."""
    if math.isnan(s):
        raise SpecSyntax("zeta needs a number s, got nan")
    try:
        zeta = float(sum(float(d) ** (-s) for d in table.degrees))
    except OverflowError:
        zeta = math.inf
    if not math.isfinite(zeta):
        raise UnsupportedParameters(f"zeta at s = {s} is not a finite float")
    return zeta

