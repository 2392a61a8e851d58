"""Point sets, the delta-neighborhood graph, level-set surrogate clustering, and DBSCAN*.

The surrogate clustering of a density at level lambda activates the points with
density >= lambda and groups them by connected components of the delta-
neighborhood graph, whose edges join points strictly closer than delta. DBSCAN*
is a level set of a k-NN or uniform-kernel density under the closed (<= eps)
graph, so surrogate_cluster and active_set_components also take that
convention, for the density equivalences.

One mask, or a stack of masks (the posterior draws at one level, or a
ladder of levels), goes to its components by one path, _mask_components:
one kd-tree pair list on the points some mask holds, then one call of the
engine, _component_labels. In a stack, the points active in every mask and
the pairs between two of them are a shared graph that one
connected_components call labels once; each of its components becomes one
node, active in every mask. The engine groups the other pairs by first
endpoint once, cuts the stack into chunks of rows, bounded by
_CHUNK_ENTRIES nodes plus candidate pairs of that contracted graph, and
labels each chunk with one connected_components call on a block-diagonal
CSR graph: each row's block holds the pairs whose two ends are active in
that row. No graph over all n points is built, a pair of the shared graph
is walked once, not once per mask, and the call's fixed cost is paid once
per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import ConfigError, InfeasibleError
from .subpartition import SubPartition
from .util import cpu_count, order_statistic_ceil

__all__ = [
    "PointSet",
    "AdaptiveDeltaConfig",
    "unit_ball_volume",
    "default_k_levelset",
    "default_k_dbscan",
    "adaptive_delta",
    "active_set_components",
    "surrogate_cluster",
    "dbscan_star",
]


def unit_ball_volume(d: int) -> float:
    """Volume of the unit Euclidean ball in d dimensions, pi^(d/2)/Gamma(d/2+1).

    Evaluated by the two-step recurrence v_d = v_{d-2} * 2 pi / d, which keeps
    the low-dimensional values exact (2, pi, 4 pi / 3) instead of round-tripping
    through gamma-function rounding.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    v = 1.0 if d % 2 == 0 else 2.0
    for i in range(2 + (d % 2), d + 1, 2):
        v *= 2.0 * math.pi / i
    return v


def default_k_levelset(n: int) -> int:
    """Default neighbor count for the adaptive delta: ceil(ln n)."""
    return max(1, math.ceil(math.log(n)))


def default_k_dbscan(n: int) -> int:
    """Default MinPts for the DBSCAN baseline: ceil(log2 n)."""
    return max(1, math.ceil(math.log2(n)))


@dataclass(frozen=True)
class PointSet:
    """n observations in R^d; row order is the canonical observation order."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a nonempty n x d matrix, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must have finite coordinates")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def to_csv(self, path) -> None:
        _write_rows(path, self.points)

    @classmethod
    def from_csv(cls, path) -> "PointSet":
        """Comma-separated rows, one per point, no header; blank lines are skipped."""
        return cls(_read_rows(path))


def _write_rows(path, rows: np.ndarray) -> None:
    """One comma-separated line per row of a float matrix, each value as its
    shortest round-trip repr, so _read_rows gives the same doubles back."""
    with open(path, "w", encoding="ascii") as fh:
        for row in rows:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _read_rows(path) -> np.ndarray:
    """The float matrix of a header-less comma-separated file; blank lines are
    skipped. A file without rows, a ragged row or a non-number is a ValueError."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line for line in fh if not line.isspace()]
    if not lines:
        raise ValueError(f"no data rows in {path}")
    return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)


def _delta_pairs(points: np.ndarray, delta: float, closed: bool) -> np.ndarray:
    """Edges (i < j) of the delta graph on the rows of `points`, as an (E, 2) array.

    The kd-tree proposes pairs within a slightly enlarged radius; each is kept
    by its squared difference, d2 < delta^2 (or <= when closed), so boundary
    pairs are decided by one exact rule in every dimension.
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if points.shape[0] < 2:
        return np.empty((0, 2), dtype=np.int64)
    pairs = cKDTree(points).query_pairs(delta * (1 + 1e-9), output_type="ndarray").astype(np.int64)
    diff = points[pairs[:, 1]] - points[pairs[:, 0]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    r2 = delta * delta
    return pairs[d2 <= r2 if closed else d2 < r2]


# _delta_pairs peaks at 49 + 8 d bytes per pair in d dimensions (peak RSS on
# 20 000 uniform points: 57, 65 and 73 bytes for d = 1, 2, 3)
_PAIR_BUDGET_BYTES = 1 << 30


def _check_pair_budget(tree: cKDTree, delta: float) -> None:
    """Raise InfeasibleError when _delta_pairs on the tree's points would pass
    the pair budget. The tree counts the pairs within that radius, storing none."""
    n, d = tree.data.shape
    # count_neighbors counts ordered pairs, each point with itself included
    pairs = (int(tree.count_neighbors(tree, delta * (1 + 1e-9))) - n) // 2
    if pairs * (49 + 8 * d) > _PAIR_BUDGET_BYTES:
        raise InfeasibleError(
            f"radius {delta} joins {pairs} of the {n * (n - 1) // 2} point pairs, "
            f"more than a {_PAIR_BUDGET_BYTES >> 20} MiB pair list holds"
        )


# One connected_components call labels a chunk of c rows with c * (m + E) <=
# _CHUNK_ENTRIES (m nodes, E candidate pairs of the contracted graph), or one
# row alone. A chunk's temporaries peak at 25-40 bytes per entry, 24 of them
# per kept pair (the graph and the transpose scipy builds), so about 0.5 MB
# here. On the 30 ladder_small stacks of seed 707 (30 masks, 2.1k-4.4k nodes
# plus pairs before the contraction, 2 CPUs) a stack took 2.60 ms at this
# bound, 2.19 ms at 2^15, 2.26 ms at 2^17 and 5.34 ms mask by mask; a call's
# tracemalloc peak was up to 0.41, 0.74, 2.05 and 0.18 MB.
_CHUNK_ENTRIES = 1 << 14


def _graph(first: np.ndarray, second: np.ndarray, size: int) -> csr_matrix:
    """The CSR graph on `size` nodes of the pairs (first, second), first ascending."""
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(first, minlength=size), out=indptr[1:])
    return csr_matrix((np.ones(first.size), second, indptr), shape=(size, size))


def _component_labels(n: int, pairs: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Labels of the shape of `active`, one mask (n,) or a stack of masks (S, n):
    in each row, 0 for inactive points, else 1 + the component id of the point
    in the graph of the pairs whose two ends are both active in that row.

    The shared graph (the points active in every row of a stack and the
    pairs between two of them) is labelled once, and each of its components
    becomes one node, active in every row; every other live point is a node
    of its own. The E pairs left, with an end not active in every row, are
    grouped by first endpoint once on the m node ids. A chunk of rows is one
    block-diagonal graph, row t's pairs on the node ids offset by t * m (in
    row order already the CSR layout), labelled by one connected_components
    call. A one-row stack, or one whose rows share no pair, is not
    contracted. Component ids are unique within a row, not numbered from 1.
    """
    active = np.asarray(active, dtype=bool)
    rows = active.reshape(-1, n)
    live = rows.any(axis=0)
    shared = rows.all(axis=0)
    inner = shared[pairs[:, 0]] & shared[pairs[:, 1]]
    node = np.zeros(n, dtype=np.int32)  # each live point's node in the contracted graph
    c = 0
    if len(rows) > 1 and inner.any():
        core = np.flatnonzero(shared)
        node[core] = np.arange(core.size, dtype=np.int32)
        first, second = node[pairs[inner, 0]], node[pairs[inner, 1]]
        order = np.argsort(first)
        c, node[core] = connected_components(_graph(first[order], second[order], core.size), directed=False)
    else:
        shared[:] = inner[:] = False
    solo = np.flatnonzero(live & ~shared)
    node[solo] = np.arange(c, c + solo.size, dtype=np.int32)
    m = c + solo.size
    on = np.ones((len(rows), m), dtype=bool)
    on[:, c:] = rows[:, solo]
    nodes = np.flatnonzero(live)
    at = node[nodes]
    rest = live[pairs[:, 0]] & live[pairs[:, 1]] & ~inner
    first, second = node[pairs[rest, 0]], node[pairs[rest, 1]]
    order = np.argsort(first)
    first, second = first[order], second[order]
    del shared, inner, node, solo, rest, order  # the chunks need only the nodes and the int32 ends
    labels = np.zeros(rows.shape, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // max(1, m + first.size))
    for lo in range(0, len(on), step):
        chunk = on[lo : lo + step]
        kept = chunk[:, first] & chunk[:, second]
        offset = (np.arange(len(chunk), dtype=np.int32) * np.int32(m))[:, None]
        graph = _graph((offset + first)[kept], (offset + second)[kept], len(chunk) * m)
        _, comp = connected_components(graph, directed=False)
        labels[lo : lo + len(chunk), nodes] = ((comp.reshape(chunk.shape) + 1) * chunk)[:, at]
    return labels.reshape(active.shape)


def _active_indices(active: Sequence[int], n: int) -> np.ndarray:
    """The distinct point indices in `active`, sorted. A boolean mask, a
    non-integer entry or an index outside [0, n) is a ValueError."""
    act = np.asarray(active)
    if act.size == 0:
        return np.empty(0, dtype=np.int64)
    if act.dtype == bool:
        raise ValueError("active must hold point indices, not a boolean mask (use np.flatnonzero)")
    if act.ndim != 1 or act.dtype.kind not in "iu":
        raise ValueError(
            f"active must be a flat sequence of integer point indices, got {act.dtype} of shape {act.shape}"
        )
    act = np.unique(act)
    if act[0] < 0 or act[-1] >= n:
        raise ValueError(f"active indices must lie in [0, {n}), got {act[0]}..{act[-1]}")
    return act.astype(np.int64, copy=False)


def _mask_components(ps: PointSet, masks: np.ndarray, delta: float, closed: bool = False) -> np.ndarray:
    """_component_labels of one mask (n,) or a stack of masks (S, n) under the
    strict (or closed) delta graph. Each row's graph is a subgraph of the one
    on the union of the rows' points, so that pair list is built once, and
    the engine labels the graph all rows share (on the points active in
    every row) once, then one connected_components call per chunk of rows."""
    union = np.flatnonzero(masks.reshape(-1, ps.n).any(axis=0))
    pairs = union[_delta_pairs(ps.points[union], delta, closed)]
    return _component_labels(ps.n, pairs, masks)


def active_set_components(
    ps: PointSet,
    active: Sequence[int],
    delta: float,
    closed_edges: bool = False,
) -> SubPartition:
    """Sub-partition whose clusters are the delta-graph components of `active`,
    a sequence of point indices, labelled by _mask_components."""
    mask = np.zeros(ps.n, dtype=bool)
    mask[_active_indices(active, ps.n)] = True
    return SubPartition(_mask_components(ps, mask, delta, closed_edges))


@dataclass(frozen=True)
class AdaptiveDeltaConfig:
    """k-NN order (default ceil(ln n)) and tail fraction gamma for delta-hat."""

    k: Optional[int] = None
    gamma: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be a positive int, got {self.k}")

    def resolve_k(self, n: int) -> int:
        k = default_k_levelset(n) if self.k is None else int(self.k)
        if k > n - 1:
            raise ValueError(f"k={k} out of range for n={n} (need k <= n-1)")
        return k


# Below this many query points a kd-tree query on a second thread only adds
# start-up: on 2 CPUs, 2 workers took 1.0-1.3x the time of 1 at 500 queries
# (n = 2000 to 40 000; 2-7x at n = 250) and 0.6-1.1x from 2000 queries up.
_THREADED_MIN_QUERIES = 2000


def _knn_distance_at(tree: cKDTree, at: np.ndarray, k: int) -> np.ndarray:
    """Distance from the points indexed by `at` to their k-th nearest other
    point of the kd-tree, 1 <= k <= n-1. From _THREADED_MIN_QUERIES points up the
    kd-tree query runs on every CPU of the process; each query point is
    answered alone, so the distances do not depend on the thread count."""
    if not 1 <= k <= tree.n - 1:
        raise ValueError(f"k={k} out of range for n={tree.n} (need 1 <= k <= n-1)")
    workers = cpu_count() if len(at) >= _THREADED_MIN_QUERIES else 1
    # column 0 is the point itself (distance 0); ties only shift equal values
    dist, _ = tree.query(tree.data[at], k=k + 1, workers=workers)
    return np.asarray(dist[:, k], dtype=np.float64)


def adaptive_delta(ps: PointSet, active: Sequence[int], cfg: AdaptiveDeltaConfig = AdaptiveDeltaConfig()) -> float:
    """Data-adaptive delta: upper (1-gamma)-quantile of active points' kNN distances.

    The kNN distances are measured in the full point set, but only at the
    active points; the quantile (m-th smallest with m = ceil((1-gamma) *
    |active|)) runs over them. `active` holds point indices, a repeated one
    counted once. A delta of 0, where that many active points have k others
    at their own coordinates, is a ConfigError.
    """
    act = _active_indices(active, ps.n)
    if act.size == 0:
        raise ValueError("active set must be nonempty")
    k = cfg.resolve_k(ps.n)
    delta = order_statistic_ceil(_knn_distance_at(cKDTree(ps.points), act, k), 1.0 - cfg.gamma)
    if not delta > 0:
        raise ConfigError(
            f"adaptive delta is {delta}: with k={k} and gamma={cfg.gamma}, at least a 1 - gamma share of the "
            f"active points have k other points at identical coordinates; use a larger --k or a fixed --delta"
        )
    return delta


def surrogate_cluster(
    ps: PointSet,
    density_at_points: Sequence[float],
    lam: float,
    delta: float,
    closed_edges: bool = False,
) -> SubPartition:
    """Level-set clustering of a density vector: components of G_delta on {f >= lambda}.

    closed_edges selects the <= delta graph of the DBSCAN* equivalences;
    everywhere else the graph is the strict < delta one.
    """
    dens = np.asarray(density_at_points, dtype=np.float64)
    if dens.shape != (ps.n,):
        raise ValueError(f"density vector has shape {dens.shape}, expected ({ps.n},)")
    if np.isnan(dens).any():
        raise ValueError("density values must not be NaN")
    return active_set_components(ps, np.flatnonzero(dens >= lam), delta, closed_edges)


def dbscan_star(ps: PointSet, eps: float, min_pts: int) -> SubPartition:
    """DBSCAN*: clusters are closed-eps components of the core points, rest is noise.

    Core points have at least min_pts dataset points, the point itself
    included, in their closed eps-ball.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be a positive int, got {min_pts}")
    pairs = _delta_pairs(ps.points, eps, closed=True)
    counts = np.bincount(pairs.ravel(), minlength=ps.n) + 1
    return SubPartition(_component_labels(ps.n, pairs, counts >= min_pts))
