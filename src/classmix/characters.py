"""Class-algebra structure constants, character tables, and the Witten zeta function.

The character table is computed by the Burnside-Dixon-Schneider method: the
class-sum matrices are simultaneously diagonalized over a prime field GF(P)
with P = 1 (mod exponent), degrees are recovered exactly, and character values
are lifted to complex doubles by discrete Fourier inversion over the power
maps.  Everything up to the final lift is exact integer arithmetic.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensplitFailure, InvariantViolation, NoSuitablePrime, SpecSyntax, UnsupportedParameters
from .fields import is_prime
from .groups import ClassData, GroupTable

PRIME_SEARCH_BOUND = 2**31
ORTHOGONALITY_TOL = 1e-8


@dataclass(frozen=True)
class StructureConstants:
    """tensor[i, j, k] = number of pairs (u, v) in C_i x C_j with u*v = rep(C_k)."""

    tensor: np.ndarray


def structure_constants(table: GroupTable, classes: ClassData) -> StructureConstants:
    """Exact class-algebra constants from a symmetric sweep.

    eta[a, b, c] = #{(x, y, w) in C_a x C_b x C_c : x y w = 1} is symmetric in
    (a, b, c), and tensor[i, j, l] = eta[i, j, l*] / |C_l| with l* the inverse
    class.  Classes are ranked by size, largest first.  For each representative
    z_l, x runs over the elements whose inverse u = x^-1 lies in a class ranked
    at least as low as l*; each gives u * (x z_l) = z_l, so the sweep fills
    eta[i, j, l*] for rank(i) >= rank(l*), and eta[a, b, c] with rank(a) <
    rank(c) is then eta[c, b, a].  That costs sum_a |C_a| (rank(a) + 1)
    products and lookups instead of k |G|.  x is visited in index order, which
    keeps the lookup's searchsorted queries nearly sorted.
    """
    k = classes.k
    sizes = np.asarray(classes.sizes, dtype=np.int64)
    inv = np.asarray(classes.inverse_class, dtype=np.intp)
    rank = np.empty(k, dtype=np.intp)
    rank[np.argsort(-sizes, kind="stable")] = np.arange(k)
    class_of = classes.class_of
    u_class = inv[class_of]  # class of x^-1, for every element x
    u_rank = rank[u_class]
    eta = np.zeros((k, k, k), dtype=np.int64)
    for l, rep in enumerate(classes.reps):
        xs = np.flatnonzero(u_rank >= rank[inv[l]])
        v_class = class_of[table.lookup(table.engine.mul(table.rows[xs], table.rows[[rep]]))]
        pairs = np.bincount(u_class[xs] * k + v_class, minlength=k * k).reshape(k, k)
        eta[:, :, inv[l]] = pairs * sizes[l]
    unswept = rank[:, None] < rank[None, :]  # (a, c) with rank(a) < rank(c)
    eta = np.where(unswept[:, None, :], eta.transpose(2, 1, 0), eta)
    tensor, rem = np.divmod(eta[:, :, inv], sizes)
    if rem.any():
        raise InvariantViolation("a class-triple count is not divisible by its class size")
    marginal = sizes[:, None]  # sum_j a_ijl = |C_i| and sum_i a_ijl = |C_j|, for every l
    if (tensor.sum(axis=1) != marginal).any() or (tensor.sum(axis=0) != marginal).any():
        raise InvariantViolation("structure constants do not sum to the class sizes")
    return StructureConstants(tensor=tensor)


@dataclass(frozen=True)
class CharacterTable:
    """k x k complex character values; row i is the i-th irreducible character.

    Rows are sorted by (degree, descending lexicographic value order), which
    pins the trivial character to row 0.  Columns follow the class order of
    the ClassData the table was built from.
    """

    values: np.ndarray  # complex128 (k, k)
    degrees: tuple[int, ...]
    class_sizes: tuple[int, ...]
    order: int
    modulus_prime: int
    row_residual: float
    col_residual: float

    @property
    def k(self) -> int:
        return len(self.degrees)

    def to_json_dict(self, group_label: str = "") -> dict:
        return {
            "schema": 1,
            "group": group_label,
            "order": self.order,
            "class_sizes": list(self.class_sizes),
            "degrees": list(self.degrees),
            "values": [[[v.real, v.imag] for v in row] for row in self.values],
            "residuals": {"row": self.row_residual, "col": self.col_residual},
        }

    def to_json(self, group_label: str = "") -> str:
        return json.dumps(self.to_json_dict(group_label), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class OrthogonalityReport:
    max_row_residual: float
    max_col_residual: float
    tolerance: float
    passed: bool


# ---------------------------------------------------------------------------
# exact linear algebra mod P (lists of python ints; k is tiny)


def _mat_vec(m, v, p):
    return [sum(mij * vj for mij, vj in zip(row, v)) % p for row in m]


def _rref(rows, p, ncols):
    """Row-reduce in place; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _nullspace(m, p):
    """Basis of the right nullspace of a d x d matrix, echelon order."""
    d = len(m)
    rows = [list(r) for r in m]
    pivots = _rref(rows, p, d)
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * d
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % p
        basis.append(v)
    return basis


def _solve_in_span(basis_cols, targets, p):
    """Solve B X = Y for X, where B's columns span an invariant subspace.

    basis_cols: list of d column vectors of length n; targets: list of column
    vectors known to lie in the span.  Returns the d x len(targets) coefficient
    matrix, or raises EigensplitFailure if a target leaves the span.
    """
    n = len(basis_cols[0])
    d = len(basis_cols)
    t = len(targets)
    rows = [[basis_cols[j][i] for j in range(d)] + [targets[m][i] for m in range(t)] for i in range(n)]
    pivots = _rref(rows, p, d)
    if len(pivots) != d:
        raise EigensplitFailure("restriction basis is rank deficient")
    for i in range(d, n):
        if any(x % p for x in rows[i]):
            raise EigensplitFailure("subspace is not invariant under the class matrix")
    return [[rows[r][d + m] for m in range(t)] for r in range(d)]  # d x t


def _char_poly_mod(m, p):
    """Characteristic polynomial of a d x d matrix mod p by Faddeev-LeVerrier.

    Returns coefficients [c_0, ..., c_d] of det(xI - M), little-endian.
    Valid because p is prime and p > d.
    """
    d = len(m)
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    acc = [[0] * d for _ in range(d)]
    for j in range(1, d + 1):
        # acc <- M (acc + c_{d-j+1} I)
        work = [row[:] for row in acc]
        for i in range(d):
            work[i][i] = (work[i][i] + coeffs[d - j + 1]) % p
        acc = [[sum(m[i][t] * work[t][l] for t in range(d)) % p for l in range(d)] for i in range(d)]
        trace = sum(acc[i][i] for i in range(d)) % p
        coeffs[d - j] = (-trace * pow(j, p - 2, p)) % p
    return coeffs


def _poly_roots_mod(coeffs, p):
    """All roots in GF(p) of a little-endian polynomial, ascending."""
    if p < 2**24:
        xs = np.arange(p, dtype=np.int64)
        acc = np.zeros(p, dtype=np.int64)
        for c in reversed(coeffs):
            acc = (acc * xs + c) % p
        return [int(x) for x in np.nonzero(acc == 0)[0]]
    return [x for x in range(p) if _horner(coeffs, x, p) == 0]


def _horner(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _least_dixon_prime(exponent: int, order: int) -> int:
    lower = 2 * math.isqrt(order)
    m = lower // exponent + 1
    while True:
        p = m * exponent + 1
        if p > PRIME_SEARCH_BOUND:
            raise NoSuitablePrime(
                f"no prime = 1 (mod {exponent}) above {lower} found below {PRIME_SEARCH_BOUND}"
            )
        if p > lower and is_prime(p):
            return p
        m += 1


def _primitive_root_of_order(e: int, p: int) -> int:
    """Element of multiplicative order exactly e in GF(p); requires e | p - 1."""
    prime_divs = []
    m = e
    d = 2
    while d * d <= m:
        if m % d == 0:
            prime_divs.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        prime_divs.append(m)
    for a in range(2, p):
        theta = pow(a, (p - 1) // e, p)
        if theta != 1 and all(pow(theta, e // r, p) != 1 for r in prime_divs):
            return theta
    raise EigensplitFailure(f"no element of order {e} in GF({p})")  # unreachable for prime p


def _simultaneous_eigenvectors(tensor: np.ndarray, p: int) -> list[list[int]]:
    """One-dimensional common eigenspaces of the class-sum matrices over GF(p).

    Blocks are split by each class matrix in turn; every block is invariant
    under all later matrices because the family commutes.
    """
    k = tensor.shape[0]
    blocks: list[list[list[int]]] = [[[1 if i == j else 0 for i in range(k)] for j in range(k)]]
    # each block is a list of column vectors (length k)
    for idx in range(1, k):
        if all(len(b) == 1 for b in blocks):
            break
        m = [[int(tensor[idx, j, l]) % p for l in range(k)] for j in range(k)]
        new_blocks = []
        for basis in blocks:
            if len(basis) == 1:
                new_blocks.append(basis)
                continue
            images = [_mat_vec(m, v, p) for v in basis]
            r = _solve_in_span(basis, images, p)  # d x d; column j = coordinates of image of basis[j]
            d = len(basis)
            roots = _poly_roots_mod(_char_poly_mod(r, p), p)
            split_dim = 0
            for lam in roots:
                shifted = [[(r[i][j] - (lam if i == j else 0)) % p for j in range(d)] for i in range(d)]
                eigvecs = _nullspace(shifted, p)
                if not eigvecs:
                    continue
                # vectors sharing an eigenvalue stay in one block for later matrices
                sub = [
                    [sum(basis[t][i] * nv[t] for t in range(d)) % p for i in range(k)] for nv in eigvecs
                ]
                new_blocks.append(sub)
                split_dim += len(sub)
            if split_dim != d:
                raise EigensplitFailure(f"block of dimension {d} split into {split_dim} dimensions")
        blocks = new_blocks
    if any(len(b) != 1 for b in blocks):
        raise EigensplitFailure("splitting exhausted all class matrices with a block unresolved")
    return [b[0] for b in blocks]


def dixon_character_table(classes: ClassData, constants: StructureConstants) -> CharacterTable:
    """Full complex character table via Burnside-Dixon-Schneider.

    Stages: (1) least prime P = 1 (mod exponent), P > 2 sqrt(|G|);
    (2) class matrices mod P; (3) common eigenvectors by iterative eigenspace
    splitting; (4) exact degree recovery; (5) complex lift by Fourier
    inversion over the power maps; (6) deterministic row order.
    """
    k = classes.k
    order = classes.order
    e = classes.exponent
    p = _least_dixon_prime(e, order)
    tensor = constants.tensor

    vectors = _simultaneous_eigenvectors(tensor, p)

    sizes = classes.sizes
    inv_class = classes.inverse_class
    size_inv = [pow(s % p, p - 2, p) for s in sizes]
    theta = _primitive_root_of_order(e, p) if e > 1 else 1

    rows = []
    for vec in vectors:
        if vec[0] % p == 0:
            raise EigensplitFailure("eigenvector vanishes at the identity class")
        norm = pow(vec[0], p - 2, p)
        omega = [v * norm % p for v in vec]
        denom = sum(omega[i] * omega[inv_class[i]] * size_inv[i] for i in range(k)) % p
        if denom == 0:
            raise EigensplitFailure("degree denominator vanished mod P")
        target = order * pow(denom, p - 2, p) % p
        degree = next((d for d in range(1, math.isqrt(order) + 1) if d * d % p == target), None)
        if degree is None:
            raise EigensplitFailure("no integer degree matches the recovered square")
        # character values mod P per class
        s = [degree * omega[j] * size_inv[j] % p for j in range(k)]
        inv_nj_cache: dict[int, int] = {}
        values = []
        for j in range(k):
            nj = classes.orders[j]
            if nj == 1:
                values.append(complex(degree, 0.0))
                continue
            theta_j = pow(theta, e // nj, p)
            theta_j_inv = pow(theta_j, p - 2, p)
            inv_nj = inv_nj_cache.setdefault(nj, pow(nj, p - 2, p))
            powers = [pow(theta_j_inv, t, p) for t in range(nj)]
            s_pow = [s[classes.power_map[l, j]] for l in range(nj)]
            val = 0j
            total_mult = 0
            for mm in range(nj):
                mu = sum(s_pow[l] * powers[l * mm % nj] for l in range(nj)) * inv_nj % p
                if mu:
                    total_mult += mu
                    val += mu * cmath.exp(2j * cmath.pi * mm / nj)
            if total_mult != degree:
                raise EigensplitFailure(
                    f"root-of-unity multiplicities sum to {total_mult}, expected degree {degree}"
                )
            values.append(val)
        rows.append((degree, values))

    rows.sort(key=lambda r: (r[0], tuple((-round(v.real, 10), -round(v.imag, 10)) for v in r[1])))
    values = np.array([r[1] for r in rows], dtype=np.complex128)
    degrees = tuple(r[0] for r in rows)

    if sum(d * d for d in degrees) != order:
        raise EigensplitFailure(f"degree squares sum to {sum(d * d for d in degrees)}, expected {order}")

    row_res, col_res = _residuals(values, sizes, order)
    return CharacterTable(
        values=values,
        degrees=degrees,
        class_sizes=tuple(sizes),
        order=order,
        modulus_prime=p,
        row_residual=row_res,
        col_residual=col_res,
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


def verify_orthogonality(table: CharacterTable, classes: ClassData | None = None) -> OrthogonalityReport:
    """Row and column orthogonality residuals against tolerance 1e-8 * |G|."""
    sizes = classes.sizes if classes is not None else table.class_sizes
    row_res, col_res = _residuals(table.values, sizes, table.order)
    tol = ORTHOGONALITY_TOL * table.order
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
        return float(sum(float(d) ** (-s) for d in table.degrees))
    except OverflowError:
        raise UnsupportedParameters(f"zeta at s = {s} overflows a float") from None


@dataclass(frozen=True)
class ZetaTrendRow:
    label: str
    order: int
    class_count: int
    s: float
    zeta: float
    excess: float
    normalizer: float
    normalized_excess: float


def zeta_trend(groups: list[tuple[str, CharacterTable, int | None]], s: float) -> list[ZetaTrendRow]:
    """Normalized zeta excess per group: (zeta - 1) * n^s or q^s.

    `groups` holds (label, character table, family parameter); the parameter
    is n for alternating/symmetric, q for SL2/PSL2, or None (normalizer 1).
    """
    rows = []
    for label, table, param in groups:
        z = witten_zeta(table, s)
        normalizer = float(param) ** s if param else 1.0
        rows.append(
            ZetaTrendRow(
                label=label,
                order=table.order,
                class_count=table.k,
                s=s,
                zeta=z,
                excess=z - 1.0,
                normalizer=normalizer,
                normalized_excess=(z - 1.0) * normalizer,
            )
        )
    return rows
