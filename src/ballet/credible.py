"""Credible-ball radius and greedy lattice bounds around a point estimate.

The radius is an order statistic of the losses from the center to the draw
clusterings. The bounds walk the activity lattice greedily: the upper bound
activates inactive points by decreasing posterior activity probability, the
lower bound deactivates active points by increasing activity probability,
and each stops just before the state would leave the ball. A state is the
delta-graph components of its active set. One pair list of the graph and
one union-find, which also tracks the loss's integer counts, count both
walks, so a toggle costs its merges, not a relabelling of the graph. The
lower walk only removes points, so it is counted first and backwards, as
insertions from the empty state (Tarjan's offline treatment of deletions);
its last insertion restores the center, where the upper walk starts. Both
walks end in one scan that prices each state and stops at the first outside
the ball; only the returned state is labelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .levelset import PointSet, _component_labels, _delta_pairs
from .risk import CoClusteringStats
from .subpartition import DEFAULT_LOSS_PARAMS, LossParams, SubPartition, _weighted_loss, ia_binder_loss
from .util import order_statistic_ceil

__all__ = [
    "BoundStep",
    "CredibleBall",
    "credible_radius",
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


class _Walk:
    """Union-find over the points a walk has activated, tracking the integer
    counts of the IA-Binder loss from the center to their delta-components.

    Every root keeps a table: center cluster -> number of its points under the
    root (points inactive in the center have no entry). A union links the
    smaller tree under the larger and merges the smaller table into the
    larger one, so it counts the pairs it joins at the cost of the smaller
    table. Pair counts over the points active in both the center and the
    state: s1 together in the center, s2 together in the state, s12 both.
    """

    def __init__(self, center: SubPartition, pairs: np.ndarray):
        labels = center.labels_array
        n = labels.size
        self.cluster = labels.tolist()
        self.n_center = int(np.count_nonzero(labels))
        ends = pairs.T.ravel()
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n))))
        self.nbrs = pairs[:, ::-1].T.ravel()[np.argsort(ends, kind="stable")]
        self.active = bytearray(n)
        self.parent = list(range(n))
        self.size = [1] * n
        self.members = [0] * n  # center-active points under a root
        self.table: list = [None] * n
        self.cluster_kept = [0] * (center.k + 1)
        self.kept = self.extra = 0
        self.s1 = self.s2 = self.s12 = 0

    def counts(self) -> tuple[int, int, int, int]:
        """(active -> inactive, inactive -> active, split pairs, merged pairs)."""
        return self.n_center - self.kept, self.extra, self.s1 - self.s12, self.s2 - self.s12

    def counts_after(self, points: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
        """The counts after adding each point in turn, added when asked for."""
        for i in points:
            self.add(i)
            yield self.counts()

    def add(self, i: int) -> None:
        """Activate point i and merge it with its active delta-neighbours."""
        h = self.cluster[i]
        if h:
            self.s1 += self.cluster_kept[h]
            self.cluster_kept[h] += 1
            self.kept += 1
            self.members[i] = 1
            self.table[i] = {h: 1}
        else:
            self.extra += 1
            self.table[i] = {}
        self.active[i] = 1
        active, parent = self.active, self.parent
        r = i
        for j in self.nbrs[self.indptr[i] : self.indptr[i + 1]].tolist():
            if not active[j]:
                continue
            # both roots, with path halving
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if r != j:
                r = self._link(r, j)

    def _link(self, ri: int, rj: int) -> int:
        size, members, table = self.size, self.members, self.table
        if size[ri] < size[rj]:
            ri, rj = rj, ri
        big, small = table[ri], table[rj]
        if len(big) < len(small):
            big, small = small, big
            table[ri] = big
        for h, c in small.items():
            d = big.get(h)
            if d is None:
                big[h] = c
            else:
                self.s12 += c * d
                big[h] = c + d
        self.s2 += members[ri] * members[rj]
        members[ri] += members[rj]
        size[ri] += size[rj]
        table[rj] = None
        self.parent[rj] = ri
        return ri


def _bounds(
    center: SubPartition,
    ps: PointSet,
    delta: float,
    stats: CoClusteringStats,
    radius: float,
    p: LossParams = DEFAULT_LOSS_PARAMS,
    trace: Optional[tuple[list, list]] = None,
) -> tuple[SubPartition, SubPartition]:
    """Last in-ball states (lower, upper) of the two greedy walks from the
    center, counted on one union-find over one pair list.

    The lower walk removes the center's active points by increasing
    alpha-hat, the upper walk adds its inactive points by decreasing
    alpha-hat, and each stops at the first state outside the ball. The lower
    walk only removes points, so its states are counted in reverse: starting
    empty, the center's active points are added back from the last in its
    order to the first, and the counts after each addition are those of the
    state that keeps exactly the points added. The last addition restores the
    center, from which the upper walk adds a point only when its scan asks
    for that state. trace, if given, collects each walk's steps.
    """
    if not radius >= 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if center.n != ps.n:
        raise ValueError(f"center has n={center.n} but point set has n={ps.n}")
    if stats.n != ps.n:
        raise ValueError(f"stats have n={stats.n} but point set has n={ps.n}")
    active = center.labels_array != 0
    lower_order = _activation_order(stats.alpha, np.flatnonzero(active), largest_first=False)
    upper_order = _activation_order(stats.alpha, np.flatnonzero(~active), largest_first=True)
    pairs = _delta_pairs(ps.points, delta, closed=False)
    walk = _Walk(center, pairs)
    # the t-th lower state keeps exactly lower_order[t + 1:]; the center's own counts are dropped
    lower_counts = [walk.counts(), *walk.counts_after(lower_order[::-1].tolist())][-2::-1]
    lower_trace, upper_trace = trace or (None, None)
    lower = _scan(center, pairs, stats.alpha, radius, p, lower_trace, lower_order, lower_counts, switch_on=False)
    upper_counts = walk.counts_after(upper_order.tolist())
    upper = _scan(center, pairs, stats.alpha, radius, p, upper_trace, upper_order, upper_counts, switch_on=True)
    return lower, upper


def _scan(
    center: SubPartition, pairs: np.ndarray, alpha_hat: np.ndarray, radius: float, p: LossParams,
    trace: Optional[list], order: np.ndarray, counts: Iterable[tuple], switch_on: bool,
) -> SubPartition:
    """Last in-ball state of a walk toggling the points of order in turn, given
    the counts after each toggle, read no further than the first state outside
    the ball: the components of the center's active set with the accepted
    toggles switched on (or off)."""
    taken = 0
    for idx, step_counts in zip(order.tolist(), counts):
        dist = _weighted_loss(center.n, *step_counts, p)
        accepted = dist <= radius
        if trace is not None:
            trace.append(BoundStep(int(idx), float(alpha_hat[idx]), dist, accepted))
        if not accepted:
            break
        taken += 1
    if taken == 0:
        return center
    active = center.labels_array != 0
    active[order[:taken]] = switch_on
    return SubPartition(_component_labels(center.n, pairs, active))


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


def compute_credible_ball(
    center: SubPartition,
    ps: PointSet,
    delta: float,
    clusterings: Sequence[SubPartition],
    alpha: float = 0.05,
    p: LossParams = DEFAULT_LOSS_PARAMS,
    *,
    stats: CoClusteringStats,
) -> CredibleBall:
    """Radius, coverage, and both greedy bounds in one pass: one pair list
    and one union-find count both walks. stats are the clusterings'
    co-clustering stats (BalletResult.stats): their alpha-hat orders the
    walks."""
    radius, dists = _radius_and_losses(center, clusterings, p, alpha)
    coverage = float(np.count_nonzero(dists <= radius)) / len(clusterings)
    lower, upper = _bounds(center, ps, delta, stats, radius, p)
    return CredibleBall(
        center=center, radius=radius, alpha=alpha, coverage=coverage, lower=lower, upper=upper
    )
