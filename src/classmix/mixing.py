"""Class-product distributions and their mixing statistics.

The central object is the distribution of x'y' where x' and y' are uniform
random conjugates of x and y.  It is a class function of the product, so it is
stored per conjugacy class as the row a_xy of class-algebra constants.  Two independent
routes compute the row a_xy: the character formula, checked mod the Dixon prime
(p_char), and one class-matrix row from the group (p_brute); their agreement is
a standing acceptance criterion.  pair_stats maps the rows of many pairs at once to
their probabilities, distances to uniform and supports; mixpair, survey and
thompson all read it.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import config
from .characters import CharacterTable, class_products, class_rows, structure_constants
from .errors import LoopBudgetExceeded, SpecSyntax
from .groups import ClassData, GroupTable


class PairDistribution(NamedTuple):
    """One class pair's row a_xy of class-algebra constants, from either route.

    counts[k] = |C_k| a_xyk is the exact number of pairs in C_x x C_y with
    product in class k.
    """

    row: np.ndarray  # int64 (k,)
    counts: tuple[int, ...]


def _from_constants(row: np.ndarray, classes: ClassData) -> PairDistribution:
    return PairDistribution(row, tuple((row * np.asarray(classes.sizes, dtype=np.int64)).tolist()))


def p_char(xc: int, yc: int, table: CharacterTable) -> PairDistribution:
    """Distribution via the character sum: one row of constants, checked mod P."""
    return _from_constants(class_products(table, [xc], [yc])[0], table.classes)


def p_brute(xc: int, yc: int, table: GroupTable, classes: ClassData) -> PairDistribution:
    """Definitional oracle: one class-matrix row from the group, |C_x| element products."""
    products = classes.sizes[xc]
    if products > config.loop_budget():
        raise LoopBudgetExceeded(f"{products} products exceed the loop budget")
    return _from_constants(class_rows(table, classes, xc, np.array([yc]))[0], classes)


class PairStats(NamedTuple):
    """Statistics of the product distributions of m class pairs, entry i for pair i."""

    probs: np.ndarray  # (m, k): probability of each single element of class k
    l1: np.ndarray  # ||p - U||_1
    l2_sq: np.ndarray  # ||p||_2^2, the sum over g of p(g)^2
    l2_sq_dist: np.ndarray  # ||p - U||_2^2, computed directly
    linf: np.ndarray  # ||p - U||_inf
    support: np.ndarray  # int64 |C_x C_y| in elements


def pair_stats(rows: np.ndarray, xs, ys, classes: ClassData) -> PairStats:
    """Statistics of the pairs (xs[i], ys[i]) from their (m, k) int64 rows a_xy.

    p(g) = a_xyk / (|C_x| |C_y|) for g in class k, and class k lies in C_x C_y
    exactly when a_xyk > 0.  Sums over G are sums over classes weighted by
    |C_k|, one dot product per pair, so a pair's values do not depend on the
    other pairs of the call (an (m, k) @ (k,) product rounds some rows differently).
    """
    sizes = np.asarray(classes.sizes, dtype=np.int64)
    weights = sizes.astype(np.float64)[:, None]
    probs = rows / (sizes[xs] * sizes[ys])[:, None]
    diff = probs - 1.0 / classes.order

    def weighted(x):  # x @ weights, one (1, k) @ (k, 1) product per row
        return np.matmul(x[:, None, :], weights)[:, 0, 0]

    return PairStats(
        probs=probs,
        l1=weighted(np.abs(diff)),
        l2_sq=weighted(probs * probs),
        l2_sq_dist=weighted(diff * diff),
        linf=np.abs(diff).max(axis=1),
        support=(rows > 0) @ sizes,
    )


def l2_sq_char(xc, yc, table: CharacterTable):
    """Closed form |G|^-1 sum over characters of |chi(x)|^2 |chi(y)|^2 / chi(1)^2.

    xc and yc are class indices or index arrays of many pairs; characters run
    along the last axis, so one pair or many give bit-identical values.
    """
    sq = np.abs(table.values.T) ** 2
    return (sq[xc] * sq[yc] / np.asarray(table.degrees, dtype=np.float64) ** 2).sum(axis=-1) / table.classes.order


# ---------------------------------------------------------------------------
# Thompson-type search


def thompson_search(table: GroupTable, classes: ClassData) -> list[int]:
    """The supports |C_i^2| of the k class squares, in elements; C_i^2 covers G when |C_i^2| = |G|.

    Reads them from the k diagonal class-matrix rows, |G| products in all.
    """
    rows = np.concatenate([class_rows(table, classes, i, np.array([i])) for i in range(classes.k)])
    diag = np.arange(classes.k)
    return pair_stats(rows, diag, diag, classes).support.tolist()


# ---------------------------------------------------------------------------
# surveys


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
    chartable: CharacterTable,
    coupling: Callable[[np.ndarray], np.ndarray],
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
) -> SurveyReport:
    """Coupling-weighted sweep of the normalized collision statistic N.

    A coupling of (x, y) is given by its class-pair weights: coupling(tensor) is
    the (k, k) float64 array of P[x in C_i, y in C_j], from the structure
    constants tensor[i, j, l] that the survey computes once.  (The translated
    inverse y = x^-1 a needs them: the number of x in C_i with x^-1 a in C_j is
    a_ij,cl(a).)  Probabilities, coverage and threshold membership are exact,
    from the structure constants: p_ij(k) = a_ijk / (|C_i| |C_j|), class k lies
    in C_i C_j exactly when a_ijk > 0, and N <= 1 + delta exactly when
    |G| sum_k |C_k| a_ijk^2 <= (1 + delta) (|C_i| |C_j|)^2.
    """
    check_survey_inputs(thresholds)
    tensor = structure_constants(chartable).tensor
    sizes, order = chartable.classes.sizes, chartable.classes.order
    weights = coupling(tensor)

    xs, ys = np.nonzero(weights)  # row-major: pairs in (x_class, y_class) order
    w_arr = weights[xs, ys]
    rows = tensor[xs, ys]  # a_ij of every surveyed pair
    stats = pair_stats(rows, xs, ys, chartable.classes)
    n_arr = order * l2_sq_char(xs, ys, chartable)
    cover = stats.support / order
    pair_rows = tuple(map(SurveyPair, *(c.tolist() for c in (xs, ys, w_arr, n_arr, stats.l1, cover))))

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
