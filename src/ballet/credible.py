"""Credible-ball radius and greedy lattice bounds around a point estimate.

The radius is an order statistic of the losses from the center to the draw
clusterings. The bounds walk the activity lattice greedily: the upper bound
activates inactive points by decreasing posterior activity probability, the
lower bound deactivates active points by increasing activity probability,
relabelling the delta-graph components after each toggle and stopping just
before the state would leave the ball. Each walk builds its graph's pair list
once; a toggle only changes which points the labelling masks in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .levelset import PointSet, _component_labels, _delta_pairs
from .risk import CoClusteringStats, precompute_stats
from .subpartition import DEFAULT_LOSS_PARAMS, LossParams, SubPartition, ia_binder_loss
from .util import canonical_json, order_statistic_ceil

__all__ = [
    "BoundStep",
    "CredibleBall",
    "credible_radius",
    "greedy_upper_bound",
    "greedy_lower_bound",
    "compute_credible_ball",
]


@dataclass(frozen=True)
class BoundStep:
    """One greedy toggle: which point, its activity probability, where the
    resulting state landed relative to the ball."""

    index: int
    alpha: float
    distance: float
    accepted: bool


def credible_radius(
    center: SubPartition,
    clusterings: Sequence[SubPartition],
    p: LossParams = DEFAULT_LOSS_PARAMS,
    alpha: float = 0.05,
) -> float:
    """Smallest radius whose Monte-Carlo coverage reaches 1 - alpha.

    This is the ceil((1 - alpha) * S)-th smallest loss from the center to the
    draw clusterings.
    """
    return _radius_and_losses(center, clusterings, p, alpha)[0]


def _radius_and_losses(
    center: SubPartition,
    clusterings: Sequence[SubPartition],
    p: LossParams,
    alpha: float,
) -> tuple[float, np.ndarray]:
    """The credible radius and the losses from the center to each draw."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if len(clusterings) == 0:
        raise ValueError("need at least one draw clustering")
    dists = np.asarray([ia_binder_loss(center, c, p) for c in clusterings])
    return float(order_statistic_ceil(dists, 1.0 - alpha)), dists


def _activation_order(alpha_hat: np.ndarray, candidates: np.ndarray, largest_first: bool) -> np.ndarray:
    """Candidates sorted by activity probability, ties by smallest index."""
    key = -alpha_hat[candidates] if largest_first else alpha_hat[candidates]
    return candidates[np.lexsort((candidates, key))]


def greedy_upper_bound(
    center: SubPartition,
    ps: PointSet,
    delta: float,
    stats: CoClusteringStats,
    radius: float,
    p: LossParams = DEFAULT_LOSS_PARAMS,
    closed_edges: bool = False,
    trace: Optional[list] = None,
) -> SubPartition:
    """Last in-ball state of the greedy activation walk from the center.

    Activates the inactive point with the largest alpha-hat, relabels the
    delta-graph components of the enlarged active set, and stops as soon as a
    state falls outside the ball.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    _check_bound_inputs(center, ps, stats)
    active = center.labels_array != 0
    order = _activation_order(stats.alpha, np.flatnonzero(~active), largest_first=True)
    pairs = _delta_pairs(ps.points, delta, closed_edges)
    best = center
    for idx in order.tolist():
        active[idx] = True
        cand = SubPartition(_component_labels(ps.n, pairs, active))
        dist = ia_binder_loss(center, cand, p)
        accepted = dist <= radius
        if trace is not None:
            trace.append(BoundStep(int(idx), float(stats.alpha[idx]), dist, accepted))
        if not accepted:
            break
        best = cand
    return best


def greedy_lower_bound(
    center: SubPartition,
    ps: PointSet,
    delta: float,
    stats: CoClusteringStats,
    radius: float,
    p: LossParams = DEFAULT_LOSS_PARAMS,
    closed_edges: bool = False,
    trace: Optional[list] = None,
) -> SubPartition:
    """Last in-ball state of the greedy deactivation walk from the center.

    Symmetric to the upper bound: removes the active point with the smallest
    alpha-hat. The states stay inside the center's active set, so the walk's
    graph is built over that set only.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    _check_bound_inputs(center, ps, stats)
    act = center.active_indices
    active = center.labels_array != 0
    pairs = act[_delta_pairs(ps.points[act], delta, closed_edges)]
    order = _activation_order(stats.alpha, act, largest_first=False)
    best = center
    for idx in order.tolist():
        active[idx] = False
        cand = SubPartition(_component_labels(ps.n, pairs, active))
        dist = ia_binder_loss(center, cand, p)
        accepted = dist <= radius
        if trace is not None:
            trace.append(BoundStep(int(idx), float(stats.alpha[idx]), dist, accepted))
        if not accepted:
            break
        best = cand
    return best


def _check_bound_inputs(center: SubPartition, ps: PointSet, stats: CoClusteringStats) -> None:
    if center.n != ps.n:
        raise ValueError(f"center has n={center.n} but point set has n={ps.n}")
    if stats.n != ps.n:
        raise ValueError(f"stats have n={stats.n} but point set has n={ps.n}")


@dataclass(frozen=True)
class CredibleBall:
    """Ball summary: radius, achieved coverage, and the two greedy bounds."""

    center: SubPartition
    radius: float
    alpha: float
    coverage: float
    lower: SubPartition
    upper: SubPartition

    def to_json_dict(self) -> dict:
        return {
            "epsilon_star": self.radius,
            "alpha": self.alpha,
            "coverage": self.coverage,
            "lower": self.lower.to_json_dict(),
            "upper": self.upper.to_json_dict(),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def compute_credible_ball(
    center: SubPartition,
    ps: PointSet,
    delta: float,
    clusterings: Sequence[SubPartition],
    alpha: float = 0.05,
    p: LossParams = DEFAULT_LOSS_PARAMS,
    stats: Optional[CoClusteringStats] = None,
    closed_edges: bool = False,
) -> CredibleBall:
    """Radius, coverage, and both greedy bounds in one pass."""
    radius, dists = _radius_and_losses(center, clusterings, p, alpha)
    if stats is None:
        stats = precompute_stats(clusterings)
    coverage = float(np.count_nonzero(dists <= radius)) / len(clusterings)
    lower = greedy_lower_bound(center, ps, delta, stats, radius, p, closed_edges)
    upper = greedy_upper_bound(center, ps, delta, stats, radius, p, closed_edges)
    return CredibleBall(
        center=center, radius=radius, alpha=alpha, coverage=coverage, lower=lower, upper=upper
    )
