"""Correctness checks run on each op's outputs, outside the timed region.

Each check returns a list of failure messages; an empty list means the op's
outputs are correct. The level-set oracle is independent of the program's
grid and union-find: candidate pairs come from ``cKDTree.query_pairs`` with a
slightly inflated radius and are then decided by the program's own rule
(``d2 < delta**2`` for level sets, ``d2 <= eps**2`` for DBSCAN*), with d2
computed the same way, so boundary pairs agree bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import ballet

REL_TOL = 1e-9


def _pairs_within(points: np.ndarray, radius: float, closed: bool) -> np.ndarray:
    """(m, 2) index pairs i < j whose squared distance passes the radius rule."""
    pairs = cKDTree(points).query_pairs(radius * (1.0 + 1e-9), output_type="ndarray")
    diff = points[pairs[:, 1]] - points[pairs[:, 0]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    r2 = radius * radius
    return pairs[d2 <= r2] if closed else pairs[d2 < r2]


def oracle_components(points: np.ndarray, active: np.ndarray, radius: float, closed: bool) -> np.ndarray:
    """Full-length labels: 0 off ``active``, else 1 + connected-component id."""
    labels = np.zeros(points.shape[0], dtype=np.int64)
    m = active.size
    if m == 0:
        return labels
    pairs = _pairs_within(points[active], radius, closed)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(m, m))
    _, comp = connected_components(graph, directed=False)
    labels[active] = comp + 1
    return labels


def oracle_dbscan_star(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN* labels: core points have >= min_pts points (themselves included)
    in their closed eps-ball; clusters are closed-eps components of the cores."""
    pairs = _pairs_within(points, eps, closed=True)
    counts = 1 + np.bincount(pairs.ravel(), minlength=points.shape[0])
    return oracle_components(points, np.flatnonzero(counts >= min_pts), eps, closed=True)


def oracle_dbscan_eps(points: np.ndarray, nu: float, min_pts: int) -> float:
    """The ceil((1 - nu) n)-th smallest distance to the min_pts-th nearest
    point, a point counting as its own first neighbour."""
    dist, _ = cKDTree(points).query(points, k=min_pts)
    radii = np.sort(dist[:, -1] if min_pts > 1 else dist.ravel())
    m = math.ceil((1 - Fraction(str(nu))) * len(radii))
    return float(radii[max(m, 1) - 1])


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal noise sets and a one-to-one map between the cluster labels."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or not np.array_equal(a == 0, b == 0):
        return False
    act = a != 0
    joint = np.unique(np.stack([a[act], b[act]]), axis=1).shape[1]
    return joint == np.unique(a[act]).size == np.unique(b[act]).size


def mean_loss(c, draws) -> float:
    """Monte-Carlo posterior expected IA-Binder loss of ``c``."""
    return math.fsum(ballet.ia_binder_loss(c, d) for d in draws) / len(draws)


def _no_worse(x: float, ref: float) -> bool:
    return x <= ref + REL_TOL * abs(ref)


def best_draw_risk(draws) -> float:
    """Lowest posterior expected loss among the draw clusterings themselves."""
    return min(mean_loss(d, draws) for d in dict.fromkeys(draws))


def check_estimate_and_ball(result, ball, alpha: float) -> tuple[list[str], float]:
    """The point estimate's risk and the credible ball against their definitions.

    Returns the failures and the estimate's risk over the best draw's risk.
    """
    errors = []
    draws = list(result.clusterings)
    S = len(draws)
    center = result.estimate
    risk = mean_loss(center, draws)
    if not abs(risk - result.risk) <= REL_TOL * max(abs(risk), 1e-300):
        errors.append(f"risk {result.risk!r} != mean draw loss {risk!r}")
    noise_risk = mean_loss(ballet.SubPartition.all_noise(center.n), draws)
    if not _no_worse(risk, noise_risk):
        errors.append(f"risk {risk!r} worse than all-noise {noise_risk!r}")
    best = best_draw_risk(draws)
    if not _no_worse(risk, best):
        errors.append(f"risk {risk!r} worse than a draw clustering ({best!r})")

    losses = np.sort([ballet.ia_binder_loss(center, d) for d in draws])
    m = math.ceil((1 - Fraction(str(alpha))) * S)
    if ball.radius != losses[m - 1]:
        errors.append(f"radius {ball.radius!r} != order statistic {m} of {S} ({losses[m - 1]!r})")
    coverage = np.count_nonzero(losses <= ball.radius) / S
    if coverage < 1 - alpha or coverage != ball.coverage:
        errors.append(f"coverage {ball.coverage!r}, recomputed {coverage!r}, need >= {1 - alpha}")

    for name, bound in (("lower", ball.lower), ("upper", ball.upper)):
        dist = ballet.ia_binder_loss(center, bound)
        if not dist <= ball.radius:
            errors.append(f"{name} bound at loss {dist!r} outside radius {ball.radius!r}")
    lo, c, up = (x.labels_array != 0 for x in (ball.lower, center, ball.upper))
    if (lo & ~c).any() or (c & ~up).any():
        errors.append("active sets do not nest: lower <= center <= upper")
    return errors, risk / best


def walk_steps(ball) -> int:
    """Toggles the two greedy walks tried, read off the bounds: every accepted
    toggle changes one point's activity, and each walk ends with one rejected
    toggle unless it ran out of points."""
    lo, c, up = (np.count_nonzero(x.labels_array) for x in (ball.lower, ball.center, ball.upper))
    n = ball.center.n
    return int((c - lo) + (up - c) + (lo > 0) + (up < n))
