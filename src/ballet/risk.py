"""Co-clustering statistics, the empirical IA-Binder risk, and the point-estimate search.

The empirical risk of a candidate sub-partition is its IA-Binder loss averaged
over S posterior draw clusterings. Every sum in that loss is a per-draw
contingency count: how many members of a candidate cluster fall in each
cluster of each draw. So the only pair data kept is the S x u matrix of draw
labels on the support {i : alpha_i > 0}. A never-active point pairs with
nothing, and it is noise-optimal in every candidate evaluation, which keeps
the search exact while skipping it.

Risks and search costs are computed in units of 1/S, as integer counts times
the loss weights. They are exact for dyadic weights (the defaults), so equal
risks compare equal and the search decides ties exactly. The search's count
table holds O(S u) entries whatever the draw and candidate cluster counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .density import DensityDrawEnsemble
from .errors import InfeasibleError
from .levelset import PointSet, _component_labels, _delta_pairs, surrogate_cluster
from .subpartition import DEFAULT_LOSS_PARAMS, LossParams, SubPartition
from .util import spawn_rngs

__all__ = [
    "CoClusteringStats",
    "SearchConfig",
    "draw_clusterings",
    "precompute_stats",
    "empirical_risk",
    "search",
    "plugin_estimate",
    "ballet_estimate",
    "BalletResult",
]


def draw_clusterings(
    ps: PointSet,
    ensemble: DensityDrawEnsemble,
    lam: float,
    delta: float,
    closed_edges: bool = False,
) -> list[SubPartition]:
    """Per-draw level-lambda surrogate clusterings of the ensemble.

    Every draw's delta graph is a subgraph of the one on the union of the
    draws' active sets, so that pair list is built once and masked per draw.
    """
    if ensemble.n != ps.n:
        raise InfeasibleError(f"ensemble has n={ensemble.n} but point set has n={ps.n}")
    active = ensemble.values >= lam
    union = np.flatnonzero(active.any(axis=0))
    pairs = union[_delta_pairs(ps.points[union], delta, closed_edges)]
    return [SubPartition(_component_labels(ps.n, pairs, mask)) for mask in active]


@dataclass(frozen=True, eq=False)
class CoClusteringStats:
    """S draw clusterings on the support.

    alpha[i] is the fraction of draws in which point i is active (all n
    points); support lists the points with alpha > 0; draw_labels is the
    S x u matrix of draw labels restricted to the support (0 inactive).
    """

    n: int
    S: int
    alpha: np.ndarray
    support: np.ndarray
    draw_labels: np.ndarray


def precompute_stats(clusterings: Sequence[SubPartition]) -> CoClusteringStats:
    """Active frequencies and the support-restricted label matrix of S draw clusterings."""
    if len(clusterings) == 0:
        raise ValueError("need at least one clustering")
    try:
        L = np.stack([c.labels_array for c in clusterings])
    except ValueError:
        raise ValueError(f"clusterings disagree on n: {sorted({c.n for c in clusterings})}") from None
    S, n = L.shape
    counts = np.count_nonzero(L, axis=0)
    support = np.flatnonzero(counts)
    return CoClusteringStats(
        n=n, S=S, alpha=counts / S, support=support, draw_labels=np.ascontiguousarray(L[:, support])
    )


# -- risk ---------------------------------------------------------------------


def _pairs(counts: np.ndarray) -> int:
    """Number of unordered pairs within groups of the given sizes."""
    return int((counts * (counts - 1) // 2).sum())


def _scaled_risk(stats: CoClusteringStats, labels: np.ndarray, p: LossParams) -> float:
    """S times the empirical risk of full-length labels: the loss summed over draws.

    Point term: draw-active points the candidate leaves as noise (m_ai), and
    candidate-active points counted in each draw where they are inactive
    (m_ia; an off-support point in all S). Pair term, over pairs active in
    both: together in the draw but apart in the candidate (a), and the
    reverse (b), from the (draw, draw cluster, candidate cluster) counts.
    """
    L = stats.draw_labels
    draw_active = np.count_nonzero(L, axis=0)
    cand = labels[stats.support]
    act = cand > 0
    missed = int(draw_active[~act].sum())
    extra = stats.S * int(np.count_nonzero(labels)) - int(draw_active[act].sum())
    cols = np.flatnonzero(act)
    _, h = np.unique(cand[cols], return_inverse=True)
    Lc = L[:, cols]
    s, j = np.nonzero(Lc)
    G = int(L.max(initial=0)) + 1
    H = int(h.max(initial=0)) + 1
    cell = s * G + Lc[s, j]
    hj = h[j]
    together_draw = _pairs(np.bincount(cell))
    together_cand = _pairs(np.bincount(s * H + hj))
    together_both = _pairs(np.unique(cell * H + hj, return_counts=True)[1])
    return (stats.n - 1) * (p.m_ai * missed + p.m_ia * extra) + (
        p.a * (together_draw - together_both) + p.b * (together_cand - together_both)
    )


def empirical_risk(c: SubPartition, stats: CoClusteringStats, p: LossParams = DEFAULT_LOSS_PARAMS) -> float:
    """Posterior expected IA-Binder loss of candidate c: the mean per-draw loss."""
    if c.n != stats.n:
        raise ValueError(f"candidate has n={c.n} but stats have n={stats.n}")
    return _scaled_risk(stats, c.labels_array, p) / stats.S


# -- search -------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Restart count, sweetening pass cap, zealous attempts, and the seed."""

    n_restarts: int = 16
    n_sweeten_passes: int = 50
    n_zealous_attempts: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_restarts < 1 or self.n_sweeten_passes < 1 or self.n_zealous_attempts < 0:
            raise ValueError("restarts and sweetening passes must be >= 1, zealous attempts >= 0")


_WIDE = 16  # a draw cell gets a row of N once _WIDE times its size reaches the table width


class _Engine:
    """Support-local labels with the count table that prices point moves.

    labels: -1 unassigned, 0 noise, >0 cluster ids (1..k after each rebuild).
    Pricing point i needs, for each id h below the table width W, n1[h], the
    members of h in i's cluster summed over draws (sum_s N[s, L_s(i), h]),
    and both[h], the members of h active in the draws where i is (the sum of
    A[s, h] over those draws). The int table T holds one row of N for each
    wide draw cell, one with at least W / _WIDE members, then the S rows of
    A, then a zero row. Each active draw of a point reads its cell's row, or
    the zero row if the cell is narrow or the point alone (the point priced
    is unassigned, so it counts nothing there); the members of its narrow
    cells are counted when it is priced. So T holds at most _WIDE S u +
    (S + 1) W entries with W <= 2(u + 1), a move updates the rows of i's
    wide cells and active draws, and pricing reads O(S W) counts. Costs are
    S times the restricted-risk increments (sums over assigned points, with
    the (n-1) prefactor of the full formula).
    """

    def __init__(self, stats: CoClusteringStats, p: LossParams):
        L = stats.draw_labels
        S, u = L.shape
        draw_active = np.count_nonzero(L, axis=0)
        self.p = p
        self.noise_cost = (stats.n - 1) * p.m_ai * draw_active
        self.active_base = (stats.n - 1) * p.m_ia * (S - draw_active)
        self._S = S
        # (point, draw) entries where the point is active, grouped by point
        self._point, self._draws = np.nonzero(L.T)
        self._ptr = np.concatenate([[0], np.cumsum(draw_active)])
        # cells of two or more points: the cell of each entry (-1 if alone),
        # and the members grouped by cell
        G = int(L.max(initial=0)) + 1
        key = self._draws * G + L[self._draws, self._point]
        _, cell, size = np.unique(key, return_inverse=True, return_counts=True)
        multi = size > 1
        self._cell = np.where(multi[cell], (np.cumsum(multi) - 1)[cell], -1)
        self._cell_size = size[multi]
        self._cell_start = np.cumsum(self._cell_size) - self._cell_size
        shared = self._cell >= 0
        self._members = self._point[shared][np.argsort(self._cell[shared], kind="stable")]
        self._n_wide = -1
        self.reset(np.full(u, -1))

    def _classify(self, W: int) -> None:
        """Give the wide cells rows of T and list each point's rows and narrow cells."""
        wide = _WIDE * self._cell_size >= W
        n_wide = int(np.count_nonzero(wide))
        if n_wide == self._n_wide:  # the wide cells are the n_wide largest, so unchanged
            return
        self._n_wide = n_wide
        u = self.labels.size
        zero = n_wide + self._S
        rowmap = np.append(np.where(wide, np.cumsum(wide) - 1, zero), zero)
        self._nrow = rowmap[self._cell]
        # point i prices from rows[2 ptr[i] : 2 ptr[i + 1]]: its N rows, then its A rows
        e = np.arange(self._point.size)
        self._price_rows = np.empty(2 * e.size, dtype=np.int64)
        self._price_rows[e + self._ptr[self._point]] = self._nrow
        self._price_rows[e + self._ptr[self._point + 1]] = n_wide + self._draws
        # point i updates rows[rptr[i] : rptr[i + 1]]: the same without the zero row
        real = self._price_rows != zero
        self._rows = self._price_rows[real]
        self._rptr = np.concatenate([[0], np.cumsum(real)])[2 * self._ptr]
        # point i gathers _members[repeat(shift, len) + arange(total)] over its narrow cells
        narrow = (self._cell >= 0) & (self._nrow == zero)
        owner = self._point[narrow]
        self._nlen = self._cell_size[self._cell[narrow]]
        self._nptr = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=u))])
        self._ntotal = np.bincount(owner, weights=self._nlen, minlength=u).astype(np.int64)
        first = np.cumsum(self._ntotal) - self._ntotal
        before = np.cumsum(self._nlen) - self._nlen
        self._nshift = self._cell_start[self._cell[narrow]] - before + first[owner]

    def reset(self, labels: np.ndarray) -> None:
        """Take labels as the state, ids renumbered 1..k in order, and rebuild T in O(S u)."""
        self.labels = np.array(labels, dtype=np.int64)
        pos = self.labels > 0
        ids, inv = np.unique(self.labels[pos], return_inverse=True)
        self.labels[pos] = inv + 1
        W = 2 * (ids.size + 1)
        self._classify(W)
        zero = self._n_wide + self._S
        h = self.labels[self._point]
        in_n = (h > 0) & (self._nrow != zero)
        in_a = h > 0
        rows = np.concatenate([self._nrow[in_n], self._n_wide + self._draws[in_a]])
        cols = np.concatenate([h[in_n], h[in_a]])
        self.T = np.bincount(rows * W + cols, minlength=(zero + 1) * W).reshape(zero + 1, W)
        self.sizes = np.bincount(self.labels[pos], minlength=W)

    def move(self, i: int, h: int) -> int:
        """Relabel point i to h (-1 unassigns it); returns its old label.

        An h past the table width must be a fresh id (above every live id).
        The ids are then renumbered 1..k in order and T rebuilt, so labels
        and ids read before the call no longer apply.
        """
        old = int(self.labels[i])
        if h >= self.sizes.size:
            self.labels[i] = h
            self.reset(self.labels)
            return old
        rows = self._rows[self._rptr[i] : self._rptr[i + 1]]
        if old > 0:
            self.T[rows, old] -= 1
            self.sizes[old] -= 1
        if h > 0:
            self.T[rows, h] += 1
            self.sizes[h] += 1
        self.labels[i] = h
        return old

    def live_ids(self) -> np.ndarray:
        return self.sizes.nonzero()[0]

    def fresh_id(self) -> int:
        """The largest live id plus one (1 if none)."""
        live = self.live_ids()
        return int(live[-1]) + 1 if live.size else 1

    def candidate_costs(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Costs of assigning unassigned point i: [noise, new cluster, each live id asc].

        Returns (ids, costs): costs[0] is noise, costs[1] a new singleton,
        costs[2 + t] joins ids[t]. With n1[h] the draws where i and a member
        of h share a cluster, and n2[h] those where both are active apart,
        joining h costs b n2[h] - a n1[h] over the new-singleton cost.
        """
        W = self.sizes.size
        rows = self._price_rows[2 * self._ptr[i] : 2 * self._ptr[i + 1]]
        n1, both = self.T.take(rows, axis=0).reshape(2, -1, W).sum(axis=1)
        total = self._ntotal[i]
        if total:
            a, b = self._nptr[i], self._nptr[i + 1]
            slots = np.repeat(self._nshift[a:b], self._nlen[a:b]) + np.arange(total)
            h = self.labels[self._members[slots]]
            n1 += np.bincount(h[h > 0], minlength=W)
        join = self.p.b * (both - n1) - self.p.a * n1
        ids = self.live_ids()
        base = self.active_base[i] + self.p.a * int(n1.sum())
        costs = np.empty(2 + ids.size)
        costs[0] = self.noise_cost[i]
        costs[1] = base
        costs[2:] = base + join[ids]
        return ids, costs

    def best_assignment(self, i: int) -> tuple[int, float]:
        """Risk-minimizing cell for unassigned point i; ties go noise > new > ids ascending.

        Returns (label, cost); label 0 for noise, a fresh id for a new cluster.
        """
        ids, costs = self.candidate_costs(i)
        pick = int(costs.argmin())
        return self.label_of(pick, ids), float(costs[pick])

    def label_of(self, pick: int, ids: np.ndarray) -> int:
        """Label of candidate_costs entry pick: 0 noise, a fresh id, or ids[pick - 2]."""
        if pick == 0:
            return 0
        if pick == 1:
            return self.fresh_id()
        return int(ids[pick - 2])


def _full_labels(stats: CoClusteringStats, labels_sup: np.ndarray) -> np.ndarray:
    full = np.zeros(stats.n, dtype=np.int64)
    full[stats.support] = labels_sup
    return full


def search(
    stats: CoClusteringStats,
    p: LossParams = DEFAULT_LOSS_PARAMS,
    cfg: SearchConfig = SearchConfig(),
    seeds: Optional[Sequence[SubPartition]] = None,
) -> SubPartition:
    """Best-risk sub-partition across restarts; deterministic given cfg.seed.

    Each restart builds a state (incremental assignment in random order, or a
    randomly chosen seed clustering on odd restarts when seeds are given), runs
    sweetening passes (single-point reassignments, strict improvement only)
    until a full pass makes no move, then zealous attempts (destroy one cell,
    noise included, reallocate its members incrementally, keep on strict
    improvement). The all-noise state and every seed are also evaluated
    directly, so the result never does worse than any of them.
    """
    engine = _Engine(stats, p)
    u = stats.support.size
    seed_list = list(seeds) if seeds is not None else []
    for s in seed_list:
        if s.n != stats.n:
            raise ValueError(f"seed clustering has n={s.n}, stats have n={stats.n}")

    best_sp = SubPartition.all_noise(stats.n)
    best_risk = _scaled_risk(stats, best_sp.labels_array, p)
    for s in seed_list:
        r = _scaled_risk(stats, s.labels_array, p)
        if r < best_risk:
            best_sp, best_risk = s, r

    rngs = spawn_rngs(cfg.seed, cfg.n_restarts)
    for restart, rng in enumerate(rngs):
        if restart % 2 == 1 and seed_list:
            sp0 = seed_list[int(rng.integers(len(seed_list)))]
            engine.reset(sp0.labels_array[stats.support])
        else:
            engine.reset(np.full(u, -1))
            for i in rng.permutation(u).tolist():
                engine.move(i, engine.best_assignment(i)[0])
        # sweetening
        for _ in range(cfg.n_sweeten_passes):
            # renumber so the table is 2(k + 1) wide for the k live clusters, not
            # as wide as a seed's or the last pass's; ids keep their order
            engine.reset(engine.labels)
            moved = False
            for i in rng.permutation(u).tolist():
                cur = engine.move(i, -1)
                ids, costs = engine.candidate_costs(i)
                if cur == 0:
                    cur_cost = float(costs[0])
                else:
                    where = np.flatnonzero(ids == cur)
                    cur_cost = float(costs[2 + int(where[0])]) if where.size else float(costs[1])
                pick = int(costs.argmin())
                label = cur
                if float(costs[pick]) < cur_cost:
                    label = engine.label_of(pick, ids)
                    moved = True
                engine.move(i, label)
            if not moved:
                break
        # zealous updates
        risk = _scaled_risk(stats, _full_labels(stats, engine.labels), p)
        for _ in range(cfg.n_zealous_attempts):
            cells = [0] + engine.live_ids().tolist()
            target = cells[int(rng.integers(len(cells)))]
            members = np.flatnonzero(engine.labels == target)
            if members.size == 0:
                continue
            snapshot = engine.labels.copy()
            engine.reset(np.where(snapshot == target, -1, snapshot))
            for i in rng.permutation(members).tolist():
                engine.move(i, engine.best_assignment(i)[0])
            new_risk = _scaled_risk(stats, _full_labels(stats, engine.labels), p)
            if new_risk < risk:
                risk = new_risk
            else:
                engine.reset(snapshot)
        if risk < best_risk:
            best_risk = risk
            best_sp = SubPartition(_full_labels(stats, engine.labels))
    return best_sp


def plugin_estimate(
    ps: PointSet,
    ensemble: DensityDrawEnsemble,
    lam: float,
    delta: float,
    closed_edges: bool = False,
) -> SubPartition:
    """Surrogate clustering of the pointwise posterior mean density."""
    if ensemble.n != ps.n:
        raise InfeasibleError(f"ensemble has n={ensemble.n} but point set has n={ps.n}")
    return surrogate_cluster(ps, ensemble.posterior_mean(), lam, delta, closed_edges=closed_edges)


@dataclass(frozen=True)
class BalletResult:
    """Point estimate with the artifacts needed downstream (bounds, reports)."""

    estimate: SubPartition
    risk: float
    clusterings: tuple[SubPartition, ...]
    stats: CoClusteringStats


def ballet_estimate(
    ps: PointSet,
    ensemble: DensityDrawEnsemble,
    lam: float,
    delta: float,
    p: LossParams = DEFAULT_LOSS_PARAMS,
    cfg: SearchConfig = SearchConfig(),
    closed_edges: bool = False,
) -> BalletResult:
    """Full point-estimate pipeline: draw clusterings, stats, risk search."""
    clusterings = draw_clusterings(ps, ensemble, lam, delta, closed_edges=closed_edges)
    stats = precompute_stats(clusterings)
    est = search(stats, p, cfg, seeds=clusterings)
    return BalletResult(
        estimate=est,
        risk=empirical_risk(est, stats, p),
        clusterings=tuple(clusterings),
        stats=stats,
    )
