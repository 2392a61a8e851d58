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

Most of the search's decisions keep its state: a point goes to noise, or
stays in its cell. Noise and unassigned points count nowhere in the table, so
such a run of decisions is priced against one state. The search therefore
prices the points of a walk a block at a time and moves only the first point
whose decision changes the state, which gives the same decisions, ties
included, as pricing one point at a time. It tracks each restart's risk from
the same costs instead of recounting it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .density import DensityDrawEnsemble
from .errors import InfeasibleError, SearchPassCapWarning
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


def _risk_counts(stats: CoClusteringStats, labels: np.ndarray) -> np.ndarray:
    """The counts the risk of full-length labels weighs, summed over draws.

    [missed, extra, split, joined]: draw-active points the candidate leaves
    as noise (weight m_ai); candidate-active points counted in each draw
    where they are inactive (m_ia; an off-support point in all S); and,
    over pairs active in both, pairs together in the draw but apart in the
    candidate (a) and the reverse (b), from the (draw, draw cluster,
    candidate cluster) counts.
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
    return np.array([missed, extra, together_draw - together_both, together_cand - together_both])


def _weigh(n: int, counts: np.ndarray, p: LossParams) -> float:
    """S times the risk with the given _risk_counts: the loss summed over draws."""
    missed, extra, split, joined = counts.tolist()
    return (n - 1) * (p.m_ai * missed + p.m_ia * extra) + (p.a * split + p.b * joined)


def _scaled_risk(stats: CoClusteringStats, labels: np.ndarray, p: LossParams) -> float:
    """S times the empirical risk of full-length labels: the loss summed over draws."""
    return _weigh(stats.n, _risk_counts(stats, labels), p)


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


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges starts[j] .. starts[j] + lens[j] - 1, concatenated."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if ends.size else 0)


class _Prices(NamedTuple):
    """A priced block (see _Engine.price)."""

    ids: np.ndarray
    costs: np.ndarray
    keep: np.ndarray
    n1: np.ndarray
    both: np.ndarray


class _Layout(NamedTuple):
    """Where the points of an order read their pricing inputs.

    order[j] sums the rows rows[bounds[2j] : bounds[2j + 1]] of T into n1
    and those up to bounds[2j + 2] into both, and adds to n1 the labels of
    the members of its narrow cells, members[mstart[j] : mstart[j + 1]].
    """

    order: np.ndarray
    rows: np.ndarray
    bounds: np.ndarray
    members: np.ndarray
    mstart: np.ndarray


_WIDE = 16  # a draw cell gets a row of N once _WIDE times its size reaches the table width
_BLOCK_ENTRIES = 1 << 16  # counts one block's pricing gathers from T (one point at least)


class _Engine:
    """Support-local labels with the count table that prices point moves.

    labels: -1 unassigned, 0 noise, >0 cluster ids (1..k after each rebuild).
    Pricing point i needs, for each id h below the table width W, n1[h], the
    members of h in i's cluster summed over draws (sum_s N[s, L_s(i), h]),
    and both[h], the members of h active in the draws where i is (the sum of
    A[s, h] over those draws). The int table T holds one row of N for each
    wide draw cell, one with at least W / _WIDE members, then the S rows of
    A, then a zero row. Point i reads the rows of its wide cells and of its
    active draws; the members of its narrow cells are counted when it is
    priced, and a cell it is alone in adds nothing. So T holds at most
    _WIDE S u + (S + 1) W entries with W <= 2(u + 1), a move updates the
    rows of i's wide cells and active draws, and pricing reads O(S W)
    counts. Costs are S times the restricted-risk increments (sums over
    assigned points, with the (n-1) prefactor of the full formula).

    Noise and unassigned points count nowhere in T or sizes, so sending a
    point to noise, or leaving it in its cell, keeps the state. A run of
    such decisions is priced against one state, so price() takes a block of
    points at once: one gather of their rows of T, one sum per point, one
    count of their narrow-cell members, and one cost matrix. An assigned
    point is priced as if unassigned, exactly: its own counts are taken off
    (one per multi-point cell from n1, one per active draw from both, in
    its own column).
    """

    def __init__(self, stats: CoClusteringStats, p: LossParams):
        L = stats.draw_labels
        S, u = L.shape
        draw_active = np.count_nonzero(L, axis=0)
        self.p = p
        self._n = stats.n
        self.noise_cost = (stats.n - 1) * p.m_ai * draw_active
        self.active_base = (stats.n - 1) * p.m_ia * (S - draw_active)
        self._S = S
        # (point, draw) entries where the point is active, grouped by point
        self._point, self._draws = np.nonzero(L.T)
        self._n_active = draw_active
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
        self._n_shared = np.bincount(self._point[shared], minlength=u)  # an assigned point's own n1 count
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
        # point i prices from rows[pptr[i] : pptr[i + 1]]: the zero row (so
        # its N rows are never empty), its wide cells' rows of N, then from
        # pmid[i] its rows of A. A move updates all of them but the zero row.
        in_n = self._nrow != zero
        n_rows = np.bincount(self._point[in_n], minlength=u)
        self._pmid = np.cumsum(1 + n_rows + self._n_active) - self._n_active
        self._pptr = np.concatenate([[0], self._pmid + self._n_active])
        rows = np.full(self._pptr[-1], zero)
        rows[_ranges(self._pptr[:-1] + 1, n_rows)] = self._nrow[in_n]
        rows[_ranges(self._pmid, self._n_active)] = n_wide + self._draws
        self._price_rows = rows
        # point i's narrow cells are entries nptr[i] : nptr[i + 1], each the
        # members[nstart : nstart + nlen] of one cell
        narrow = (self._cell >= 0) & ~in_n
        self._nptr = np.concatenate([[0], np.cumsum(np.bincount(self._point[narrow], minlength=u))])
        self._nlen = self._cell_size[self._cell[narrow]]
        self._nstart = self._cell_start[self._cell[narrow]]

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
        rows = self._price_rows[self._pptr[i] + 1 : self._pptr[i + 1]]
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

    def layout(self, order: np.ndarray) -> _Layout:
        """Where the points of order read their pricing inputs, for price().

        The layout changes only with the wide cells (_n_wide), so one serves
        a walk over order until a move changes them.
        """
        first = self._pptr[order]
        n_rows = self._pptr[order + 1] - first
        bounds = np.zeros(2 * order.size + 1, dtype=np.int64)
        bounds[2::2] = np.cumsum(n_rows)
        bounds[1::2] = bounds[:-1:2] + self._pmid[order] - first
        if self._nlen.size:
            n_cells = self._nptr[order + 1] - self._nptr[order]
            cells = _ranges(self._nptr[order], n_cells)
            lens = self._nlen[cells]
            members = self._members[_ranges(self._nstart[cells], lens)]
            mstart = np.concatenate([[0], np.cumsum(lens)])[np.concatenate([[0], np.cumsum(n_cells)])]
        else:  # no narrow cells
            members, mstart = np.zeros(0, dtype=np.int64), np.zeros(order.size + 1, dtype=np.int64)
        return _Layout(order, self._price_rows[_ranges(first, n_rows)], bounds, members, mstart)

    def price(self, lay: _Layout, j: int, end: int) -> _Prices:
        """Costs of lay.order[j:end], each priced as if unassigned, against the current state.

        Row r of costs is laid out as in candidate_costs, over the live ids;
        keep[r] is the cost of the point's own cell (noise if unassigned),
        and n1 and both are the counts priced. A cluster the point is alone
        in costs what a new cluster costs, and the new cluster comes first
        on ties, as if that cluster were gone.
        """
        W = self.sizes.size
        points = lay.order[j:end]
        lo = lay.bounds[2 * j]
        rows = lay.rows[lo : lay.bounds[2 * end]]
        sums = np.add.reduceat(self.T.take(rows, axis=0), lay.bounds[2 * j : 2 * end] - lo, axis=0)
        n1, both = sums[0::2], sums[1::2]
        if lay.mstart[end] > lay.mstart[j]:
            h = self.labels[lay.members[lay.mstart[j] : lay.mstart[end]]]
            owner = np.repeat(np.arange(points.size), np.diff(lay.mstart[j : end + 1]))
            hit = h > 0
            n1 += np.bincount(owner[hit] * W + h[hit], minlength=points.size * W).reshape(-1, W)
        cur = self.labels[points]
        own = (cur > 0).nonzero()[0]
        if own.size:
            n1[own, cur[own]] -= self._n_shared[points[own]]
            both[own, cur[own]] -= self._n_active[points[own]]
        ids = self.live_ids()
        base = self.active_base[points] + self.p.a * n1.sum(axis=1)
        n1_ids = n1[:, ids]
        costs = np.empty((points.size, 2 + ids.size))
        costs[:, 0] = self.noise_cost[points]
        costs[:, 1] = base
        costs[:, 2:] = base[:, None] + (self.p.b * (both[:, ids] - n1_ids) - self.p.a * n1_ids)
        keep = costs[:, 0]
        if own.size:
            keep = keep.copy()
            keep[own] = costs[own, 2 + np.searchsorted(ids, cur[own])]
        return _Prices(ids, costs, keep, n1, both)

    def candidate_costs(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Costs of assigning unassigned point i: [noise, new cluster, each live id asc].

        Returns (ids, costs): costs[0] is noise, costs[1] a new singleton,
        costs[2 + t] joins ids[t]. With n1[h] the draws where i and a member
        of h share a cluster, and n2[h] those where both are active apart,
        joining h costs b n2[h] - a n1[h] over the new-singleton cost.
        """
        priced = self.price(self.layout(np.array([i])), 0, 1)
        return priced.ids, priced.costs[0]

    def label_of(self, pick: int, ids: np.ndarray) -> int:
        """Label of candidate_costs entry pick: 0 noise, a fresh id, or ids[pick - 2]."""
        if pick == 0:
            return 0
        if pick == 1:
            return self.fresh_id()
        return int(ids[pick - 2])

    def risk(self, counts: np.ndarray) -> float:
        """S times the risk of a state with these _risk_counts."""
        return _weigh(self._n, counts, self.p)

    def point_counts(self, i: int, h: int, priced: _Prices, r: int) -> np.ndarray:
        """The _risk_counts that point i, row r of priced, adds with label h (0 noise)."""
        d = int(self._n_active[i])
        if h == 0:
            return np.array([d, 0, 0, 0])
        n1 = priced.n1[r]
        n1h, both = (int(n1[h]), int(priced.both[r, h])) if h < n1.size else (0, 0)  # a fresh id counts 0
        return np.array([0, self._S - d, int(n1.sum()) - n1h, both - n1h])

    def removal_counts(self, members: np.ndarray) -> np.ndarray:
        """The _risk_counts lost when members, the whole of one cell, are unassigned."""
        h = int(self.labels[members[0]])
        if h == 0:
            return np.array([int(self._n_active[members].sum()), 0, 0, 0])
        lab = self.labels[self._point]
        shared = self._cell >= 0
        in_h = np.bincount(self._cell[shared & (lab == h)], minlength=self._cell_size.size)
        in_any = np.bincount(self._cell[shared & (lab > 0)], minlength=self._cell_size.size)
        # pairs of a member and another active point together in a draw
        # (split), and pairs of members both active in a draw but apart (joined)
        split = int(in_h @ (in_any - in_h))
        joined = _pairs(self.T[self._n_wide : self._n_wide + self._S, h]) - _pairs(in_h)
        return np.array([0, int((self._S - self._n_active[members]).sum()), split, joined])


def _walk(engine: _Engine, order: np.ndarray) -> tuple[bool, np.ndarray]:
    """Decide each point of order in turn: an unassigned point takes its
    cheapest cell (ties noise > new > ids ascending), an assigned one moves
    only to a strictly cheaper cell than its own. The points are all
    unassigned or all assigned.

    Returns whether a point changed cell and the change in _risk_counts.
    Decisions that keep the state are taken a block at a time: the block is
    priced at once, and the first point whose decision changes the state is
    moved, ending the block; the next block starts after it. The block size
    doubles while blocks end without a move and halves after one.
    """
    unassigned = order.size > 0 and engine.labels[order[0]] < 0
    moved, delta = False, np.zeros(4, dtype=np.int64)
    pos, size, n_wide = 0, 1, None
    while pos < order.size:
        if engine._n_wide != n_wide:  # new wide cells move the pricing rows
            n_wide, first = engine._n_wide, pos
            lay = engine.layout(order[first:])
        # at most size points, gathering at most _BLOCK_ENTRIES counts (one point at least)
        j = pos - first
        end = min(lay.order.size, j + size)
        cap = lay.bounds[2 * j] + _BLOCK_ENTRIES // engine.sizes.size
        if lay.bounds[2 * end] > cap:
            end = j + max(1, int(np.searchsorted(lay.bounds[2 * j : 2 * end + 1 : 2], cap, side="right")) - 1)
        priced = engine.price(lay, j, end)
        change = (priced.costs.min(axis=1) < priced.keep).nonzero()[0]
        r = int(change[0]) if change.size else end - j
        if unassigned:  # the points before r go to noise
            run = lay.order[j : j + r]
            engine.labels[run] = 0
            delta[0] += int(engine._n_active[run].sum())
        if j + r == end:
            pos += r
            size *= 2
            continue
        i = int(lay.order[j + r])
        if not unassigned:
            delta -= engine.point_counts(i, engine.move(i, -1), priced, r)
        label = engine.label_of(int(priced.costs[r].argmin()), priced.ids)
        delta += engine.point_counts(i, label, priced, r)
        engine.move(i, label)
        moved = True
        pos += r + 1
        size = max(1, size // 2)
    return moved, delta


def _zealous(engine: _Engine, members: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Destroy the cell of members (all of it), reassign them in the given
    order, and keep the result if its risk is strictly lower.

    Takes and returns the _risk_counts of the state.
    """
    snapshot = engine.labels.copy()
    target = int(snapshot[members[0]])
    trial = counts - engine.removal_counts(members)
    if target == 0:  # noise counts nowhere, so unassigning it keeps the table
        engine.labels[members] = -1
    else:
        engine.reset(np.where(snapshot == target, -1, snapshot))
    moved, delta = _walk(engine, members)
    trial += delta
    if engine.risk(trial) < engine.risk(counts):
        return trial
    if moved or target:  # else every member is noise again: the snapshot's state
        engine.reset(snapshot)
    return counts


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
    directly, so the result never does worse than any of them. A restart
    whose last allowed sweetening pass still moved a point emits a
    SearchPassCapWarning.

    Each restart tracks the integer counts its risk weighs from the priced
    decisions: the incremental assignment (or the seed's counts), the
    sweetening moves, and each zealous attempt's removal and reassignment.
    So it compares the same risks as a recount would, for any weights.
    """
    engine = _Engine(stats, p)
    u = stats.support.size
    seed_list = list(seeds) if seeds is not None else []
    for s in seed_list:
        if s.n != stats.n:
            raise ValueError(f"seed clustering has n={s.n}, stats have n={stats.n}")

    best_sp = SubPartition.all_noise(stats.n)
    best_risk = _scaled_risk(stats, best_sp.labels_array, p)
    seed_starts, seed_counts = [], []
    for s in seed_list:
        counts = _risk_counts(stats, s.labels_array)
        if engine.risk(counts) < best_risk:
            best_sp, best_risk = s, engine.risk(counts)
        # a seed active off the support restarts from its support labels alone
        start = s.labels_array[stats.support]
        if np.count_nonzero(start) < np.count_nonzero(s.labels_array):
            counts = _risk_counts(stats, _full_labels(stats, start))
        seed_starts.append(start)
        seed_counts.append(counts)

    rngs = spawn_rngs(cfg.seed, cfg.n_restarts)
    for restart, rng in enumerate(rngs):
        if restart % 2 == 1 and seed_list:
            t = int(rng.integers(len(seed_list)))
            engine.reset(seed_starts[t])
            counts = seed_counts[t]
        else:
            engine.reset(np.full(u, -1))
            counts = _walk(engine, rng.permutation(u))[1]
        # sweetening; each pass renumbers so the table is 2(k + 1) wide for
        # the k live clusters, not as wide as a seed's or the last pass's;
        # ids keep their order
        for _ in range(cfg.n_sweeten_passes):
            engine.reset(engine.labels)
            moved, delta = _walk(engine, rng.permutation(u))
            counts = counts + delta  # a new array: counts may be a seed's
            if not moved:
                break
        else:
            warnings.warn(
                f"search restart {restart} still moved points in its last of "
                f"{cfg.n_sweeten_passes} sweetening passes",
                SearchPassCapWarning,
            )
        # zealous updates
        for _ in range(cfg.n_zealous_attempts):
            cells = [0] + engine.live_ids().tolist()
            target = cells[int(rng.integers(len(cells)))]
            members = np.flatnonzero(engine.labels == target)
            if members.size:
                counts = _zealous(engine, rng.permutation(members), counts)
        if engine.risk(counts) < best_risk:
            best_risk = engine.risk(counts)
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
