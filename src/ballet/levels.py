"""Level selection and multi-level post-processing.

Three ways to pick the density threshold (direct, noise-fraction quantile,
scaled flat-density multiple), a knee detector over sorted log densities, and
the cluster tree across an increasing ladder of levels with the persistence
walk that extracts clusters stable below any split.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .density import DensityDrawEnsemble
from .errors import ConfigError, InfeasibleError
from .levelset import PointSet, _mask_components
from .risk import SearchConfig, _search_workers, ballet_estimate
from .subpartition import DEFAULT_LOSS_PARAMS, LossParams, SubPartition
from .util import _ceil_count, cpu_count, fork_map, order_statistic_ceil

__all__ = [
    "LevelSpec",
    "ElbowResult",
    "LevelSelectionWarning",
    "TreeEdge",
    "ClusterTree",
    "resolve_level",
    "elbow_level",
    "build_cluster_tree",
    "tree_from_clusterings",
    "persistent_clusters",
]

LEVEL_KINDS = ("lambda", "noise_fraction", "cosmo_c")


class LevelSelectionWarning(UserWarning):
    """Raised when the knee detector degrades to the default noise fraction."""


@dataclass(frozen=True)
class LevelSpec:
    """A level choice: a direct lambda, a target noise fraction nu, or a
    multiple (1 + c) of the flat density over the domain."""

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in LEVEL_KINDS:
            raise ValueError(f"kind must be one of {LEVEL_KINDS}, got {self.kind!r}")
        if not np.isfinite(self.value):
            raise ValueError(f"level value must be finite, got {self.value}")
        if self.kind == "lambda" and self.value < 0:
            raise ValueError("lambda must be nonnegative")
        if self.kind == "noise_fraction" and not (0.0 <= self.value < 1.0):
            raise ValueError(f"noise fraction must be in [0, 1), got {self.value}")
        if self.kind == "cosmo_c" and self.value < -1.0:
            raise ValueError("c must be >= -1 so the level stays nonnegative")


def resolve_level(
    spec: LevelSpec,
    density_at_points: Optional[np.ndarray] = None,
    domain_volume: Optional[float] = None,
) -> float:
    """Concrete lambda for a level spec.

    noise_fraction nu maps to the ceil((1 - nu) * n)-th largest of the
    reference densities (nu = 0 gives the minimum: nothing is noise);
    cosmo_c maps to (1 + c) / Vol with Vol the domain volume.
    """
    if spec.kind == "lambda":
        return float(spec.value)
    if spec.kind == "noise_fraction":
        if density_at_points is None:
            raise ConfigError("noise_fraction level needs reference densities")
        vals = np.asarray(density_at_points, dtype=np.float64)
        return -order_statistic_ceil(-vals, 1.0 - spec.value)  # the m-th largest
    if domain_volume is None:
        raise ConfigError("cosmo_c level needs the domain volume")
    if not (domain_volume > 0 and np.isfinite(domain_volume)):
        raise ConfigError(f"domain volume must be positive and finite, got {domain_volume}")
    return float((1.0 + spec.value) / domain_volume)


@dataclass(frozen=True)
class ElbowResult:
    """Detected level: the density at the knee rank of the sorted log-density
    curve, the implied noise fraction, and whether the default kicked in."""

    lam: float
    nu: float
    rank: int
    fallback: bool


def _kneedle_knee_index(y: np.ndarray) -> Optional[int]:
    """First knee of a concave increasing series, None when no knee confirms.

    Normalized difference curve d = y_norm - x_norm; a local maximum of d is a
    knee once d drops below (max - mean_step) before the next local maximum
    (Kneedle at sensitivity 1).
    """
    n = y.size
    if n < 3:
        return None
    span = float(y[-1] - y[0])
    if span <= 0:
        return None
    y_norm = (y - y[0]) / span
    x_norm = np.linspace(0.0, 1.0, n)
    d = y_norm - x_norm
    maxima = [
        i for i in range(1, n - 1)
        if d[i] > d[i - 1] and d[i] >= d[i + 1]
    ]
    step = 1.0 / (n - 1)
    for pos, i in enumerate(maxima):
        threshold = d[i] - step
        stop = maxima[pos + 1] if pos + 1 < len(maxima) else n
        for j in range(i + 1, stop):
            if d[j] < threshold:
                return i
    return None


def elbow_level(density_at_points: np.ndarray) -> ElbowResult:
    """Knee of the ascending sorted log densities; the level at that rank.

    A curve with no confirmed knee (a straight line, for instance) falls back
    to a 0.1 noise fraction with a warning.
    """
    f = np.asarray(density_at_points, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("density_at_points must be a nonempty vector")
    if not np.all(np.isfinite(f)) or (f <= 0).any():
        raise ValueError("all densities must be positive and finite")
    order = np.argsort(f, kind="stable")
    sorted_vals = f[order]
    knee = _kneedle_knee_index(np.log(sorted_vals))
    n = f.size
    if knee is None:
        warnings.warn(
            "no knee found in the sorted log densities; using noise fraction 0.1",
            LevelSelectionWarning,
        )
        nu = 0.1
        rank = n - _ceil_count(1.0 - nu, n)
        return ElbowResult(lam=float(sorted_vals[rank]), nu=nu, rank=rank, fallback=True)
    return ElbowResult(lam=float(sorted_vals[knee]), nu=knee / n, rank=int(knee), fallback=False)


# -- cluster tree ---------------------------------------------------------------


@dataclass(frozen=True)
class TreeEdge:
    """Overlap between a cluster at row level-1 (parent) and row level (child)."""

    level: int
    parent: int
    child: int
    weight: int


@dataclass(frozen=True)
class ClusterTree:
    """One clustering per level, rows ordered by increasing level value.

    The top row is the smallest level (largest active set); edges join
    clusters in adjacent rows that share at least one observation.
    """

    levels: tuple[float, ...]
    clusterings: tuple[SubPartition, ...]
    edges: tuple[TreeEdge, ...]

    def __post_init__(self) -> None:
        if len(self.levels) != len(self.clusterings):
            raise ValueError("one clustering per level required")
        if len(self.levels) < 2:
            raise ValueError("a cluster tree needs at least two levels")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")
        n = self.clusterings[0].n
        if any(c.n != n for c in self.clusterings):
            raise ValueError("clusterings disagree on n")
        for e in self.edges:
            if not (1 <= e.level < len(self.levels)):
                raise ValueError(f"edge row {e.level} out of range")
            if not (1 <= e.parent <= self.clusterings[e.level - 1].k):
                raise ValueError(f"edge parent {e.parent} not a cluster of row {e.level - 1}")
            if not (1 <= e.child <= self.clusterings[e.level].k):
                raise ValueError(f"edge child {e.child} not a cluster of row {e.level}")

    def nodes(self) -> list[tuple[int, int]]:
        return [
            (i, cid)
            for i, sp in enumerate(self.clusterings)
            for cid in range(1, sp.k + 1)
        ]

    def parents(self, level: int, cid: int) -> list[tuple[int, int]]:
        """(cluster id, overlap) pairs one row above (smaller level)."""
        return [(e.parent, e.weight) for e in self.edges if e.level == level and e.child == cid]

    def children(self, level: int, cid: int) -> list[tuple[int, int]]:
        """(cluster id, overlap) pairs one row below (larger level)."""
        return [(e.child, e.weight) for e in self.edges if e.level == level + 1 and e.parent == cid]

    def to_json_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "clusterings": [c.labels_array.tolist() for c in self.clusterings],
            "nodes": [[i, cid] for i, cid in self.nodes()],
            "edges": [
                {"level": e.level, "parent": e.parent, "child": e.child, "weight": e.weight}
                for e in self.edges
            ],
        }

    def to_dot(self) -> str:
        """Graphviz text, one rank row per level, edges labeled by overlap."""
        lines = ["digraph clustertree {", "  rankdir=TB;", '  node [shape=box];']
        for i, (lev, sp) in enumerate(zip(self.levels, self.clusterings)):
            sizes = np.bincount(sp.labels_array, minlength=sp.k + 1)
            row = []
            for cid in range(1, sp.k + 1):
                name = f"L{i}_C{cid}"
                lines.append(f'  {name} [label="level={lev:g} cluster={cid} size={int(sizes[cid])}"];')
                row.append(name)
            if row:
                lines.append("  { rank=same; " + "; ".join(row) + "; }")
        for e in self.edges:
            lines.append(f'  L{e.level - 1}_C{e.parent} -> L{e.level}_C{e.child} [label="{e.weight}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _overlap_edges(row: int, upper: SubPartition, lower: SubPartition) -> list[TreeEdge]:
    la = upper.labels_array
    lb = lower.labels_array
    mask = (la > 0) & (lb > 0)
    if not mask.any():
        return []
    base = lower.k + 1
    codes = la[mask] * base + lb[mask]
    uniq, counts = np.unique(codes, return_counts=True)
    return [
        TreeEdge(level=row, parent=int(code // base), child=int(code % base), weight=int(cnt))
        for code, cnt in zip(uniq.tolist(), counts.tolist())
    ]


def tree_from_clusterings(
    levels: Sequence[float],
    clusterings: Sequence[SubPartition],
) -> ClusterTree:
    """Assemble the tree for precomputed per-level clusterings."""
    edges: list[TreeEdge] = []
    for i in range(1, len(clusterings)):
        edges.extend(_overlap_edges(i, clusterings[i - 1], clusterings[i]))
    return ClusterTree(
        levels=tuple(float(v) for v in levels),
        clusterings=tuple(clusterings),
        edges=tuple(edges),
    )


# Below this many (point, draw) entries at or above the levels, summed over
# the levels, a tree estimates its levels serially: forking and reaping a
# worker costs more than the smaller trees save. On 2 CPUs, 3 levels (noise
# fractions 0.2, 0.4, 0.6 of two Gaussians, K = 30, M' = 14, 2 restarts),
# 10 alternating pairs a tree, three runs on fresh seeds: trees of 1.7k-3.6k
# entries took 0.96-1.22x the serial time pooled (pooled faster in 0-5 of
# 10), 4.5k-7.5k entries 0.84-1.08x (0-10 of 10), 8.0k 0.70x and 0.73x (8
# and 9 of 10), and 8.2k-12.4k 0.68-0.91x (9-10 of 10). The ten
# ladder_small trees (11.8k-12.6k entries) took 0.61-1.06x, median 0.78x.
_POOLED_MIN_LEVEL_ENTRIES = 8_000


def _level_estimate(state: tuple, lam: float) -> np.ndarray:
    """The labels of one level's ballet estimate."""
    ps, ensemble, delta, p, cfg = state
    return ballet_estimate(ps, ensemble, lam, delta, p=p, cfg=cfg).estimate.labels_array


def build_cluster_tree(
    ps: PointSet,
    ensemble: DensityDrawEnsemble,
    levels: Sequence[float],
    delta: float,
    estimator: str = "ballet",
    p: LossParams = DEFAULT_LOSS_PARAMS,
    cfg: SearchConfig = SearchConfig(),
) -> ClusterTree:
    """Estimate one clustering of the draw ensemble per level (estimator
    "ballet" or "plugin") and link overlaps across rows.

    With "plugin", the levels' masks of the posterior mean are labelled in
    one levelset._mask_components call: the levels are nested, so the pair
    list is the lowest level's and the highest level's active set is the
    graph every row shares. With "ballet", each level's ballet_estimate is
    one task on min(cpu_count(), levels) processes (util.fork_map): this one
    and workers it forks, once the levels' (point, draw) entries at or above
    their level, summed, reach _POOLED_MIN_LEVEL_ENTRIES. The workers
    inherit the points, the ensemble and the config at the fork, and the
    levels' searches run serially; only each level's labels and warnings
    come back, so the tree and its warnings do not depend on the worker
    count. The levels are estimated serially below that size, when some
    level's search would run on a pool of its own (see search), on one CPU,
    without the fork start method, and inside a child process. A worker that
    dies (killed by a signal or the OOM killer) raises InfeasibleError once
    every worker is reaped.
    """
    if estimator not in ("ballet", "plugin"):
        raise ValueError(f"estimator must be 'ballet' or 'plugin', got {estimator!r}")
    lams = [float(v) for v in levels]
    if len(lams) < 2:
        raise ValueError("need at least two levels")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("levels must be strictly increasing")
    if estimator == "plugin":
        if ensemble.n != ps.n:
            raise InfeasibleError(f"ensemble has n={ensemble.n} but point set has n={ps.n}")
        masks = ensemble.posterior_mean() >= np.array(lams)[:, None]
        return tree_from_clusterings(lams, [SubPartition(row) for row in _mask_components(ps, masks, delta)])
    entries = [int(np.count_nonzero(ensemble.values >= lam)) for lam in lams]
    # a level whose search pools its own restarts keeps every CPU busy, and
    # as one task it can outlast all the others: on two Gaussians (n = 2000,
    # S = 100, default SearchConfig) the lowest level's search took 9.3 s of
    # 14.2 s serially, and level tasks took 1.22x the serial tree's time
    if sum(entries) < _POOLED_MIN_LEVEL_ENTRIES or _search_workers(max(entries), cfg) > 1:
        workers = 1
    else:
        workers = min(cpu_count(), len(lams))
    state = (ps, ensemble, delta, p, cfg)
    estimates = fork_map(_level_estimate, state, [(lam,) for lam in lams], workers, "cluster tree")
    return tree_from_clusterings(lams, [SubPartition(labels) for labels in estimates])


def persistent_clusters(tree: ClusterTree, strict: bool = True) -> set[tuple[int, int]]:
    """Walk up from every bottom-row cluster; keep the node reached at the top
    row or just below the first split.

    A node with several parents makes the walk ambiguous: with strict=True
    that raises; otherwise the parent with maximal overlap (ties to the
    smallest id) is taken.
    """
    bottom = len(tree.levels) - 1
    out: set[tuple[int, int]] = set()
    for cid in range(1, tree.clusterings[bottom].k + 1):
        level, cur = bottom, cid
        while level > 0:
            parents = tree.parents(level, cur)
            if not parents:
                break
            if len(parents) > 1:
                if strict:
                    raise InfeasibleError(
                        f"cluster {cur} at row {level} has {len(parents)} parents; "
                        "the level ladder does not form a tree"
                    )
                parents.sort(key=lambda pw: (-pw[1], pw[0]))
            parent = parents[0][0]
            if len(tree.children(level - 1, parent)) > 1:
                break
            level, cur = level - 1, parent
        out.add((level, cur))
    return out
