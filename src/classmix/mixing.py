"""Class-product distributions and their mixing statistics.

The central object is the distribution of x'y' where x' and y' are uniform
random conjugates of x and y.  It is a class function of the product, so it is
stored per conjugacy class as the exact pair counts |C_k| a_xyk.  Two independent
routes compute the row a_xy: the character formula, checked mod the Dixon prime
(p_char), and one class-matrix row from the group (p_brute); their agreement is
a standing acceptance criterion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import config
from .characters import CharacterTable, ClassRows, class_products, structure_constants
from .errors import LoopBudgetExceeded, SpecSyntax
from .groups import ClassData, GroupTable


class PairDistribution(NamedTuple):
    """Per-class values of the product distribution for one class pair.

    probs[k] is the probability of each single element of class k, and
    counts[k] the exact number of pairs in C_x x C_y with product in class k;
    both routes set them.
    """

    x_class: int
    y_class: int
    probs: np.ndarray
    order: int
    source: str  # "char" | "brute"
    counts: tuple[int, ...] = ()


def _from_constants(xc: int, yc: int, row: np.ndarray, classes: ClassData, source: str) -> PairDistribution:
    """The distribution of one class pair from its row a_xy of class-algebra constants."""
    sizes = np.asarray(classes.sizes, dtype=np.int64)
    counts = row * sizes
    probs = counts / (float(sizes[xc] * sizes[yc]) * sizes.astype(np.float64))
    return PairDistribution(xc, yc, probs, classes.order, source, counts=tuple(counts.tolist()))


def p_char(xc: int, yc: int, table: CharacterTable, classes: ClassData) -> PairDistribution:
    """Distribution via the character sum: one row of constants, checked mod P."""
    return _from_constants(xc, yc, class_products(table, classes, [xc], [yc])[0], classes, "char")


def p_brute(xc: int, yc: int, table: GroupTable, classes: ClassData) -> PairDistribution:
    """Definitional oracle: one class-matrix row from the group, |C_x| element products."""
    products = classes.sizes[xc]
    if products > config.loop_budget():
        raise LoopBudgetExceeded(f"{products} products exceed the loop budget")
    return _from_constants(xc, yc, ClassRows(table, classes).rows(xc, np.array([yc]))[0], classes, "brute")


def l2_sq(dist: PairDistribution, classes: ClassData) -> float:
    """Squared l2 norm: sum over g of p(g)^2, via class sizes."""
    sizes = np.asarray(classes.sizes, dtype=np.float64)
    return float(sizes @ (dist.probs * dist.probs))


def l2_sq_char(xc, yc, table: CharacterTable):
    """Closed form |G|^-1 sum over characters of |chi(x)|^2 |chi(y)|^2 / chi(1)^2.

    xc and yc are class indices or index arrays of many pairs; characters run
    along the last axis, so one pair or many give bit-identical values.
    """
    sq = np.abs(table.values.T) ** 2
    return (sq[xc] * sq[yc] / np.asarray(table.degrees, dtype=np.float64) ** 2).sum(axis=-1) / table.order


class DistanceReport(NamedTuple):
    l1: float
    l2_sq: float  # squared l2 distance to uniform, computed directly
    linf: float


def dist_to_uniform(dist: PairDistribution, classes: ClassData) -> DistanceReport:
    sizes = np.asarray(classes.sizes, dtype=np.float64)
    u = 1.0 / dist.order
    diff = dist.probs - u
    return DistanceReport(
        l1=float(sizes @ np.abs(diff)),
        l2_sq=float(sizes @ (diff * diff)),
        linf=float(np.abs(diff).max()),
    )


class CoverageReport(NamedTuple):
    support: int  # |x^G y^G| in elements
    fraction: float


def coverage(dist: PairDistribution, classes: ClassData) -> CoverageReport:
    """Support of the product set from the distribution's exact pair counts."""
    sizes = np.asarray(classes.sizes, dtype=np.int64)
    support = int(sizes[np.asarray(dist.counts) > 0].sum())
    return CoverageReport(support=support, fraction=support / dist.order)


# ---------------------------------------------------------------------------
# Thompson-type search


class ThompsonResult(NamedTuple):
    best_class: int
    support: int
    fraction: float
    witness: bool
    per_class: tuple[tuple[int, int], ...]  # (class index, support size)


def thompson_search(table: GroupTable, classes: ClassData) -> ThompsonResult:
    """Exact search for a class whose square covers the group.

    Reads |C_i^2| from the k diagonal class-matrix rows, |G| products in all;
    the best class is the first one of largest support.
    """
    class_rows = ClassRows(table, classes)
    supports = [class_rows.support(i, i) for i in range(classes.k)]
    best_class = int(np.argmax(supports))
    best_support = supports[best_class]
    return ThompsonResult(
        best_class=best_class,
        support=best_support,
        fraction=best_support / table.order,
        witness=best_support == table.order,
        per_class=tuple(enumerate(supports)),
    )


# ---------------------------------------------------------------------------
# couplings and surveys


class Independent(NamedTuple):
    """x and y independent and uniform."""


class Diagonal(NamedTuple):
    """x uniform, y = x."""


class TranslatedInverse(NamedTuple):
    """x uniform, y = x^-1 a for a fixed element a."""

    a_index: int


class BijectionCoupling(NamedTuple):
    """x uniform, y = f(x) for an arbitrary permutation f of element indices (checked where f is read)."""

    mapping: tuple[int, ...]


Coupling = Independent | Diagonal | TranslatedInverse | BijectionCoupling


class SurveyPair(NamedTuple):
    x_class: int
    y_class: int
    weight: float
    n_stat: float  # |G| * l2_sq, 1 for the uniform distribution
    l1: float
    coverage_fraction: float


class SurveyReport(NamedTuple):
    pairs: tuple[SurveyPair, ...]
    thresholds: tuple[tuple[float, float], ...]  # (delta, weighted P[N <= 1 + delta])
    quantiles: tuple[tuple[float, float], ...]


DEFAULT_THRESHOLDS = (0.0, 0.01, 0.1, 0.5, 1.0, 2.0)
_QUANTILE_POINTS = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


def check_survey_inputs(thresholds):
    """Reject NaN thresholds; needs no group, so callers can check first."""
    if np.isnan(thresholds).any():
        raise SpecSyntax(f"survey thresholds must be numbers, got {list(thresholds)}")


def survey(
    table: GroupTable,
    classes: ClassData,
    chartable: CharacterTable,
    coupling: Coupling,
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
) -> SurveyReport:
    """Coupling-weighted sweep of the normalized collision statistic N.

    Every coupling is exact.  Independent and Diagonal couplings are class
    sweeps.  For TranslatedInverse(a) the number of x in C_i with x^-1 a in
    C_j is a_ij,cl(a), so the weights are one slice of the structure
    constants; a BijectionCoupling sweeps every x in G.  Probabilities,
    coverage and threshold membership are exact, from the structure
    constants: p_ij(k) = a_ijk / (|C_i| |C_j|), class k
    lies in C_i C_j exactly when a_ijk > 0, and N <= 1 + delta exactly when
    |G| sum_k |C_k| a_ijk^2 <= (1 + delta) (|C_i| |C_j|)^2.
    """
    check_survey_inputs(thresholds)
    tensor = structure_constants(chartable, classes).tensor
    k = classes.k
    sizes = classes.sizes
    order = table.order

    if isinstance(coupling, Independent):
        w = np.asarray(sizes, dtype=np.float64) / order
        weights = np.outer(w, w)
    elif isinstance(coupling, Diagonal):
        weights = np.diag(np.asarray(sizes, dtype=np.float64) / order)
    elif isinstance(coupling, TranslatedInverse):
        weights = tensor[:, :, classes.class_of[coupling.a_index]] / order
    elif isinstance(coupling, BijectionCoupling):
        pair_class = classes.class_of * k + classes.class_of[np.asarray(coupling.mapping, dtype=np.int64)]
        weights = np.bincount(pair_class, minlength=k * k).reshape(k, k) / order
    else:
        raise SpecSyntax(f"unknown coupling {coupling!r}")

    xs, ys = np.nonzero(weights)  # row-major: pairs in (x_class, y_class) order
    w_arr = weights[xs, ys]
    rows = tensor[xs, ys]  # a_ij of every surveyed pair
    size_int = np.asarray(sizes, dtype=np.int64)
    probs = rows / (size_int[xs] * size_int[ys])[:, None]
    l1 = np.abs(probs - 1.0 / order) @ np.asarray(sizes, dtype=np.float64)
    n_arr = order * l2_sq_char(xs, ys, chartable)
    cover = ((rows > 0) @ size_int) / order
    pair_rows = tuple(map(SurveyPair, *(c.tolist() for c in (xs, ys, w_arr, n_arr, l1, cover))))

    # exact N - 1 per pair from Python ints, which unlike int64 cannot overflow here
    a = rows.astype(object)
    size_obj = np.array(sizes, dtype=object)
    collisions = order * ((a * a) @ size_obj)  # |G| sum_k |C_k| a_ijk^2
    excess = np.frompyfunc(Fraction, 2, 1)(collisions, (size_obj[xs] * size_obj[ys]) ** 2) - 1
    exact = (Fraction(d) if np.isfinite(d) else d for d in map(float, thresholds))  # Fraction(inf) raises
    thr = tuple((float(d), float(w_arr[(excess <= d).astype(bool)].sum())) for d in exact)
    quant = _weighted_quantiles(n_arr, w_arr, _QUANTILE_POINTS)
    return SurveyReport(pairs=pair_rows, thresholds=thr, quantiles=quant)


def _weighted_quantiles(values, weights, points) -> tuple[tuple[float, float], ...]:
    order = np.argsort(values, kind="stable")
    cw = np.cumsum(weights[order])
    idx = np.minimum(np.searchsorted(cw, np.asarray(points) * cw[-1], side="left"), len(cw) - 1)
    return tuple(zip(map(float, points), values[order][idx].tolist()))
