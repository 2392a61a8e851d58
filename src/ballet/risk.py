"""Co-clustering statistics, the empirical IA-Binder risk, and the point-estimate search.

The empirical risk of a candidate sub-partition is its IA-Binder loss averaged
over S posterior draw clusterings. Every sum in that loss is a per-draw
contingency count: how many members of a candidate cluster fall in each
cluster of each draw. So the only pair data kept is the draw cells:
precompute_stats builds the (point, draw) entries of the support
{i : alpha_i > 0}, grouped into draw cells, once, and CoClusteringStats holds
them, with no dense label matrix. Every count of a candidate against the
draws reads them: _risk_counts for a whole candidate, one row per draw (the
risk of an estimate, the draws the search's bound keeps, and the credible
ball's radius and coverage), and the search's engine for point moves. A
never-active point pairs with nothing, and it is noise-optimal in every
candidate evaluation, which keeps the search exact while skipping it.

Risks and search costs are computed in units of 1/S, as integer counts times
the loss weights. They are exact for dyadic weights (the defaults), so equal
risks compare equal and the search decides ties exactly. The search's count
table holds O(S u) entries whatever the draw and candidate cluster counts.

Most of the search's decisions keep its state: a point goes to noise, or
stays in its cell. Noise and unassigned points count nowhere in the table, so
such a run of decisions is priced against one state. The search therefore
prices the points of a walk a block at a time and moves only the first point
whose decision changes the state, which gives the same decisions, ties
included, as pricing one point at a time. Nearly every point of an
incremental assignment moves, though, so most blocks shrink to one point;
such a point is priced, decided and moved in one step, from the same costs.
It tracks each restart's risk from the same costs instead of recounting it.

Two more shortcuts leave every decision as it was:
- A point active in d draws costs (n-1) m_ai d in noise, and at least
  (n-1) m_ia (S-d) in any cluster. When noise is no dearer, it wins, ties
  included, in every state. Such a point goes to noise as soon as a walk
  finds it unassigned, and it never leaves noise. So the walks skip it;
  under the default weights that is every point active in at most half
  the draws. The test is exact under dyadic weights, and under other
  weights it leaves a margin for the rounding of the costs.
- A zealous attempt is first bounded from one priced block: each member in
  its cheapest cell against the state without the destroyed cell. A member
  placed earlier only raises the costs of the later ones (the loss weights
  are positive), so the walked attempt's risk is at least the bound's.
  When the bound's risk does not beat the state's, the attempt is rejected
  unwalked, and the destroyed cell's column of the count table is put
  back. This is used only when every risk is an exact float, as under
  dyadic weights; otherwise each attempt is walked. The risk an attempt
  removes is counted from the members' draw cells. A walked attempt that
  is rejected is undone by rebuilding the table in O(S u).

The search's restarts, its independent work, run on util.fork_map's
processes, one per CPU (at most one per restart), from _POOLED_MIN_ENTRIES
(point, draw) entries times restarts. The workers inherit the engine, the
draw cells and the restarts' generators at the fork; only counts, support
labels and pass-cap warnings come back. The draw clusterings are counted
after the pool, in the calling process, and only those whose two noise
counts alone (_draw_noise_counts), a lower bound on the risk, cost no more
than the all-noise state and every restart: the others cannot win.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .density import DensityDrawEnsemble
from .errors import InfeasibleError, SearchPassCapWarning
from .levelset import PointSet, _component_labels, _delta_pairs, surrogate_cluster
from .subpartition import DEFAULT_LOSS_PARAMS, LossParams, SubPartition, _pairs, _weighted_loss
from .util import cpu_count, fork_map, spawn_rngs

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
) -> list[SubPartition]:
    """Per-draw level-lambda surrogate clusterings of the ensemble.

    Every draw's delta graph is a subgraph of the one on the union of the
    draws' active sets, so that pair list is built once, and the S x n stack
    of active masks is labelled in one engine call. It labels the graph all
    draws share (on the points active in every draw) once, one node per
    component, then makes one connected_components call per chunk of draws.
    """
    if ensemble.n != ps.n:
        raise InfeasibleError(f"ensemble has n={ensemble.n} but point set has n={ps.n}")
    active = ensemble.values >= lam
    union = np.flatnonzero(active.any(axis=0))
    pairs = union[_delta_pairs(ps.points[union], delta, closed=False)]
    return [SubPartition(row) for row in _component_labels(ps.n, pairs, active)]


@dataclass(frozen=True, eq=False)
class CoClusteringStats:
    """S draw clusterings on the support, as (point, draw) entries and draw cells.

    alpha[i] is the fraction of draws in which point i is active (all n
    points); support lists the u points with alpha > 0. The other arrays
    index points by their position in support. point and draws list the
    entries where a point is active, grouped by point: point i's are
    ptr[i] : ptr[i + 1], n_active[i] of them, in draw order. cell is each
    entry's draw cell of two or more points (-1 if the point is alone in
    its draw cluster); a cell c, in draw cell_draw[c], has size[c] members,
    members[start[c] : start[c] + size[c]]. n_shared[i] counts point i's
    entries in such cells. Every risk count reads these arrays; they are
    read-only, so the search's engines and a fork pool's workers share them.
    """

    n: int
    S: int
    alpha: np.ndarray
    support: np.ndarray
    point: np.ndarray
    draws: np.ndarray
    n_active: np.ndarray
    ptr: np.ndarray
    cell: np.ndarray
    cell_draw: np.ndarray
    size: np.ndarray
    start: np.ndarray
    members: np.ndarray
    n_shared: np.ndarray


def precompute_stats(clusterings: Sequence[SubPartition]) -> CoClusteringStats:
    """Active frequencies and the draw cells of S draw clusterings on their support."""
    if len(clusterings) == 0:
        raise ValueError("need at least one clustering")
    try:
        L = np.stack([c.labels_array for c in clusterings])
    except ValueError:
        raise ValueError(f"clusterings disagree on n: {sorted({c.n for c in clusterings})}") from None
    S, n = L.shape
    counts = np.count_nonzero(L, axis=0)
    support = np.flatnonzero(counts)
    L = L[:, support]  # the S x u draw labels on the support, kept only here
    point, draws = np.nonzero(L.T)
    G = int(L.max(initial=0)) + 1
    keys, cell, size = np.unique(draws * G + L[draws, point], return_inverse=True, return_counts=True)
    multi = size > 1
    cell = np.where(multi[cell], (np.cumsum(multi) - 1)[cell], -1)
    size = size[multi]
    shared = cell >= 0
    n_active = counts[support]
    arrays = dict(
        alpha=counts / S,
        support=support,
        point=point,
        draws=draws,
        n_active=n_active,
        ptr=np.concatenate([[0], np.cumsum(n_active)]),
        cell=cell,
        cell_draw=keys[multi] // G,
        size=size,
        start=np.cumsum(size) - size,
        members=point[shared][np.argsort(cell[shared], kind="stable")],
        n_shared=np.bincount(point[shared], minlength=support.size),
    )
    for a in arrays.values():
        a.setflags(write=False)
    return CoClusteringStats(n=n, S=S, **arrays)


# -- risk ---------------------------------------------------------------------


def _risk_counts(stats: CoClusteringStats, labels: np.ndarray) -> np.ndarray:
    """The counts the loss from each draw to full-length labels weighs, one int64 row per draw.

    Row s is [missed, extra, split, joined]: points active in draw s that
    the candidate leaves as noise (weight m_ai); candidate-active points
    inactive in draw s (m_ia; an off-support point in every draw); and,
    over pairs active in both, pairs together in draw s but apart in the
    candidate (a) and the reverse (b). They come from the (point, draw)
    entries of the stats: only the entries of multi-point cells pair within
    a draw cell, so the pairs together in a draw, and together in both,
    count over those, booked to the cell's draw by float bincounts (exact:
    a draw's pairs are below 2^53). Every weight and float term of the loss
    is nonnegative, so the risk of [missed, extra, 0, 0] is at most the risk
    of the full counts: the search's bound on a draw (_draw_noise_counts).
    """
    S = stats.S
    cand = labels[stats.support]
    act = cand > 0
    ids, inv = np.unique(cand[act], return_inverse=True)
    H = ids.size + 1
    h = np.zeros(cand.size, dtype=np.int64)
    h[act] = inv + 1
    he = h[stats.point]
    hit = he > 0
    missed, on = np.bincount(stats.draws * 2 + hit, minlength=2 * S).reshape(S, 2).T
    shared = hit & (stats.cell >= 0)
    cell = stats.cell[shared]
    in_cell = np.bincount(cell, minlength=stats.size.size)
    together_draw = np.bincount(stats.cell_draw, weights=in_cell * (in_cell - 1) // 2, minlength=S)
    in_cand = np.bincount(stats.draws[hit] * H + he[hit], minlength=S * H).reshape(S, H)
    together_cand = (in_cand * (in_cand - 1) // 2).sum(axis=1)
    keys, in_both = np.unique(cell * H + he[shared], return_counts=True)
    together_both = np.bincount(stats.cell_draw[keys // H], weights=in_both * (in_both - 1) // 2, minlength=S)
    split = together_draw.astype(np.int64) - together_both.astype(np.int64)
    joined = together_cand - together_both.astype(np.int64)
    return np.stack([missed, int(np.count_nonzero(labels)) - on, split, joined], axis=1)


def _draw_noise_counts(stats: CoClusteringStats) -> tuple[np.ndarray, np.ndarray]:
    """The (missed, extra) columns of _risk_counts for each draw's own labels: draw s keeps
    active the points of its entries, whose n_active sum to on[s] (in floats, exact below 2^53)."""
    on = np.bincount(stats.draws, weights=stats.n_active[stats.point], minlength=stats.S).astype(np.int64)
    return stats.point.size - on, stats.S * np.bincount(stats.draws, minlength=stats.S) - on


def empirical_risk(c: SubPartition, stats: CoClusteringStats, p: LossParams = DEFAULT_LOSS_PARAMS) -> float:
    """Posterior expected IA-Binder loss of candidate c: the mean per-draw loss."""
    if c.n != stats.n:
        raise ValueError(f"candidate has n={c.n} but stats have n={stats.n}")
    return _weighted_loss(stats.n, *_risk_counts(stats, c.labels_array).sum(axis=0).tolist(), p) / stats.S


# -- search -------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Restart count, sweetening pass cap, zealous attempts, and the seed."""

    n_restarts: int = 16
    n_sweeten_passes: int = 50
    n_zealous_attempts: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("n_restarts", 1), ("n_sweeten_passes", 1), ("n_zealous_attempts", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"SearchConfig.{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"SearchConfig.{name} must be >= {low}, got {value}")


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges starts[j] .. starts[j] + lens[j] - 1, concatenated."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if ends.size else 0)


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

    def capped(self, j: int, end: int, width: int) -> int:
        """end, or less, so that order[j:end] gathers at most _BLOCK_ENTRIES
        counts from a table this wide (one point at least)."""
        cap = self.bounds[2 * j] + _BLOCK_ENTRIES // width
        if self.bounds[2 * end] > cap:
            end = j + max(1, int(np.searchsorted(self.bounds[2 * j : 2 * end + 1 : 2], cap, side="right")) - 1)
        return end


_WIDE = 16  # a draw cell gets a row of N once _WIDE times its size reaches the table width
_BLOCK_ENTRIES = 1 << 16  # counts one block's pricing gathers from T (one point at least)
_EPS = 2.0**-53  # unit roundoff of float64


def _always_noise(noise: np.ndarray, base: np.ndarray, q: int, reach: Fraction) -> np.ndarray:
    """The points whose noise cost no cluster cost undercuts, as price() computes them.

    Joining id h costs base + a (sum(n1) - n1[h]) + b (both[h] - n1[h])
    and a new cluster base + a sum(n1), with every term nonnegative. So
    noise <= base makes noise the cheapest cell; noise wins ties, so such
    a point goes to noise whenever a walk finds it unassigned and never
    leaves it. That holds for the float costs too:
    - Every float weight is a multiple of 1/q for some power of two q, and
      every term of a cost is below reach = (n-1) S max(m_ai, m_ia) +
      (2a + b) S u. When q reach < 2^53 every cost is an exact multiple of
      1/q, and noise <= base is the exact test.
    - Otherwise price()'s six roundings move a cost by less than
      4 eps reach. A cost of exactly base can then come out one ulp below
      it, so noise must win by 8 eps reach, which also covers the rounding
      of the test itself. A point left out here is priced as before.
    """
    slack = 0.0 if q * reach < 2**53 else 8 * _EPS * float(reach)
    return noise <= base - slack


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
    its own column). step() prices one point the same way, from the same
    cost formula (_costs), then decides and moves it.
    """

    def __init__(self, stats: CoClusteringStats, p: LossParams):
        S, u = stats.S, stats.support.size
        draw_active = stats.n_active
        self.p = p
        self._n = stats.n
        self.noise_cost = (stats.n - 1) * p.m_ai * draw_active
        self.active_base = (stats.n - 1) * p.m_ia * (S - draw_active)
        # every weight is a multiple of 1/q (a power of two), and every term
        # of a cost is below reach
        weights = [Fraction(w) for w in (p.a, p.b, p.m_ai, p.m_ia)]
        q = max(w.denominator for w in weights)
        reach = (stats.n - 1) * S * max(weights[2:]) + (2 * weights[0] + weights[1]) * S * u
        self.can_join = ~_always_noise(self.noise_cost, self.active_base, q, reach)
        # every risk is below u reach (its noise terms below u (n-1) S
        # max(m_ai, m_ia), its pair terms below u (2a + b) S u); when q times
        # (u + 1) reach is below 2^53, every risk, and every sum risk() forms
        # on the way, is an exact float
        self.exact_risks = q * (u + 1) * reach < 2**53
        self._S = S
        # the stats' (point, draw) entries and draw cells, read in place
        self._point, self._draws, self._n_active, self._ptr = stats.point, stats.draws, draw_active, stats.ptr
        self._cell, self._cell_size, self._cell_start = stats.cell, stats.size, stats.start
        self._members, self._n_shared = stats.members, stats.n_shared  # n_shared: an assigned point's own n1 count
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
        # the row of N of each cell (the zero row for a narrow one), and of
        # each entry (the zero row for one alone in its cell, at index -1)
        self._cell_row = np.append(np.where(wide, np.cumsum(wide) - 1, zero), zero)
        self._nrow = self._cell_row[self._cell]
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
            self.T[:, old][rows] -= 1
            self.sizes[old] -= 1
        if h > 0:
            self.T[:, h][rows] += 1
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
        n_cells = self._nptr[order + 1] - self._nptr[order]
        cells = _ranges(self._nptr[order], n_cells)
        lens = self._nlen[cells]
        members = self._members[_ranges(self._nstart[cells], lens)]
        mstart = np.concatenate([[0], np.cumsum(lens)])[np.concatenate([[0], np.cumsum(n_cells)])]
        return _Layout(order, self._price_rows[_ranges(first, n_rows)], bounds, members, mstart)

    def price(self, lay: _Layout, j: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Costs of lay.order[j:end], each priced as if unassigned, against the current state.

        Returns (costs, keep): row r of costs is the point's row of _costs,
        over the live ids, and keep[r] the cost of its own cell (noise if
        unassigned). A cluster the point is alone in costs what a new cluster
        costs, and the new cluster comes first on ties, as if it were gone.
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
        costs = self._costs(points, n1, both, ids, n1.sum(axis=1))
        keep = costs[:, 0]
        if own.size:
            keep = keep.copy()
            keep[own] = costs[own, 2 + np.searchsorted(ids, cur[own])]
        return costs, keep

    def _costs(
        self, points: np.ndarray | int, n1: np.ndarray, both: np.ndarray, ids: np.ndarray, total: np.ndarray | int
    ) -> np.ndarray:
        """Cost rows [noise, new cluster, each id of ids ascending] from the
        counts priced: one row per point, or one point's row from its n1 and
        both vectors; total is n1.sum(axis=-1).

        With n1[h] the draws where the point and a member of h share a
        cluster, and n2[h] = both[h] - n1[h] those where both are active
        apart, joining h costs b n2[h] - a n1[h] over the new-cluster cost.
        A row's first minimum is its pick, so ties go noise > new > ids
        ascending.
        """
        base = self.active_base[points] + self.p.a * total
        n1_ids = n1.take(ids, axis=-1)
        costs = np.empty(n1.shape[:-1] + (2 + ids.size,))
        costs[..., 0] = self.noise_cost[points]
        costs[..., 1] = base
        costs[..., 2:] = base[..., None] + (self.p.b * (both.take(ids, axis=-1) - n1_ids) - self.p.a * n1_ids)
        return costs

    def step(self, lay: _Layout, j: int, delta: np.ndarray) -> bool:
        """Decide lay.order[j] alone and apply the decision, adding its change
        in the summed _risk_counts to delta; returns whether the state changed.

        The point is priced as price() prices it (one take of its rows of T,
        summed into n1 and both, one count of its narrow-cell members, and
        the costs of _costs), so it decides as in a block of its own. An
        unassigned point takes its cheapest cell; one in noise or a cluster
        moves only to a strictly cheaper cell than its own. A move books the
        exit from the point's cell, noise included, before the entry; a new
        cluster takes its fresh id after the exit, a join the id priced.
        """
        lo, mid, hi = lay.bounds[2 * j : 2 * j + 3].tolist()
        n1, both = np.add.reduceat(self.T.take(lay.rows[lo:hi], axis=0), [0, mid - lo], axis=0)
        if lay.mstart[j + 1] > lay.mstart[j]:
            h = self.labels[lay.members[lay.mstart[j] : lay.mstart[j + 1]]]
            n1 += np.bincount(h[h > 0], minlength=n1.size)
        i = int(lay.order[j])
        cur = int(self.labels[i])
        if cur > 0:
            n1[cur] -= self._n_shared[i]
            both[cur] -= self._n_active[i]
        ids = self.live_ids()
        total = int(n1.sum())
        costs = self._costs(i, n1, both, ids, total)
        pick = int(costs.argmin())
        if cur >= 0:
            keep = costs[2 + int(ids.searchsorted(cur))] if cur > 0 else costs[0]
            if not costs[pick] < keep:
                return False
            delta -= self.point_counts(i, self.move(i, -1), n1, both, total)
        label = self.label_of(pick, ids)
        delta += self.point_counts(i, label, n1, both, total)
        self.move(i, label)
        return label != 0 or cur >= 0

    def label_of(self, pick: int, ids: np.ndarray) -> int:
        """Label of entry pick of a price() costs row: 0 noise, a fresh id, or ids[pick - 2]."""
        if pick == 0:
            return 0
        if pick == 1:
            return self.fresh_id()
        return int(ids[pick - 2])

    def risk(self, counts: np.ndarray) -> float:
        """S times the risk of a state whose _risk_counts sum to counts: the loss summed over draws."""
        return _weighted_loss(self._n, *counts.tolist(), self.p)

    def point_counts(self, i: int, h: int, n1: np.ndarray, both: np.ndarray, total: int) -> np.ndarray:
        """The summed _risk_counts that point i, priced with counts n1 (summing to
        total) and both, adds with label h (0 noise)."""
        d = int(self._n_active[i])
        if h == 0:
            return np.array([d, 0, 0, 0])
        n1h, both_h = (int(n1[h]), int(both[h])) if h < n1.size else (0, 0)  # a fresh id counts 0
        return np.array([0, self._S - d, total - n1h, both_h - n1h])

    def removal_counts(self, members: np.ndarray) -> np.ndarray:
        """The summed _risk_counts lost when members, the whole of one cell, are unassigned.

        Only the draw cells holding a member lose pairs, so they are counted
        from the members' own (point, draw) entries: the members in each
        such cell, and its active points (the row of N of a wide cell,
        summed; the labels of a narrow cell's members). The pairs of members
        active in a draw come from the rows of A in the cell's column.
        """
        d = self._n_active[members]
        h = int(self.labels[members[0]])
        if h == 0:
            return np.array([int(d.sum()), 0, 0, 0])
        cells = self._cell[_ranges(self._ptr[members], d)]
        in_h = np.bincount(cells[cells >= 0])
        cells = in_h.nonzero()[0]
        in_h = in_h[cells]
        rows = self._cell_row[cells]
        wide = rows != self._n_wide + self._S
        in_any = np.empty_like(in_h)
        in_any[wide] = self.T[rows[wide]].sum(axis=1)
        narrow = cells[~wide]
        if narrow.size:
            lens = self._cell_size[narrow]
            hit = (self.labels[self._members[_ranges(self._cell_start[narrow], lens)]] > 0).astype(np.int64)
            in_any[~wide] = np.add.reduceat(hit, np.cumsum(lens) - lens)
        # pairs of a member and another active point together in a draw
        # (split), and pairs of members both active in a draw but apart (joined)
        split = int(in_h @ (in_any - in_h))
        joined = _pairs(self.T[self._n_wide : self._n_wide + self._S, h]) - _pairs(in_h)
        return np.array([0, int((self._S - d).sum()), split, joined])


def _walk(engine: _Engine, order: np.ndarray) -> tuple[bool, np.ndarray]:
    """Decide each point of order in turn: an unassigned point takes its
    cheapest cell (ties noise > new > ids ascending), an assigned one moves
    only to a strictly cheaper cell than its own. The points are all
    unassigned or all assigned.

    Returns whether a point changed cell and the change in the summed _risk_counts.
    A point no cluster can take (not engine.can_join) decides noise in any
    state, and noise keeps the state, so it is not walked: an unassigned one
    goes to noise first, its noise counts added in one sum, and one already
    in noise stays there. One in a cluster is walked. Decisions that keep
    the state are taken a block at a time: the block is priced at once, and
    the first point whose decision changes the state ends the block; the
    next block starts after it. The block size doubles while blocks end
    without a move and halves after one. A block of one point, and the point
    that ends a longer one, is decided and moved by engine.step, which
    prices it alone and books its change in the summed _risk_counts.
    """
    unassigned = order.size > 0 and engine.labels[order[0]] < 0
    moved, delta = False, np.zeros(4, dtype=np.int64)
    walked = engine.can_join[order]
    if unassigned:
        idle = order[~walked]
        engine.labels[idle] = 0
        delta[0] = int(engine._n_active[idle].sum())
    else:
        walked |= engine.labels[order] > 0
    order = order[walked]
    pos, size, n_wide = 0, 1, None
    while pos < order.size:
        if engine._n_wide != n_wide:  # new wide cells move the pricing rows
            n_wide, first = engine._n_wide, pos
            lay = engine.layout(order[first:])
        j = pos - first
        end = j + 1 if size == 1 else lay.capped(j, min(lay.order.size, j + size), engine.sizes.size)
        if end > j + 1:
            costs, keep = engine.price(lay, j, end)
            change = (costs.min(axis=1) < keep).nonzero()[0]
            r = int(change[0]) if change.size else end - j
            if unassigned:  # the points before r go to noise
                run = lay.order[j : j + r]
                engine.labels[run] = 0
                delta[0] += int(engine._n_active[run].sum())
            pos += r
            if j + r == end:
                size *= 2
                continue
        # a block of one point, or the point that ends a block by changing the state
        if engine.step(lay, pos - first, delta):
            moved = True
            size = max(1, size // 2)
        else:
            size *= 2
        pos += 1
    return moved, delta


def _cheapest(engine: _Engine, members: np.ndarray) -> float:
    """S times the risk the unassigned members add, each in its cheapest
    cell against the current state, the members priced a block at a time.
    A member no cluster can take costs noise, unpriced.
    """
    join = engine.can_join[members]
    total = float(engine.noise_cost[members[~join]].sum())
    lay = engine.layout(members[join])
    j = 0
    while j < lay.order.size:
        end = lay.capped(j, lay.order.size, engine.sizes.size)
        total += float(engine.price(lay, j, end)[0].min(axis=1).sum())
        j = end
    return total


def _zealous(engine: _Engine, members: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Destroy the cell of members (all of it), reassign them in the given
    order, and keep the result if its risk is strictly lower.

    The attempt is first bounded without a walk: the risk of the state
    without the cell plus each member's cheapest cost against it
    (_cheapest). As earlier members join cells, a later member's costs only
    rise: joining an id h' that took a member sharing its cell in C draws,
    and both active in D >= C, costs b (D - C) more, any other id or a new
    cluster a C more (all weights positive), and noise the same. So each
    member's cost at its turn is at least its first-priced minimum, and the
    bound at most the walked attempt's risk. When every risk and cost is an
    exact float (engine.exact_risks) and the bound is not below the state's
    risk, the attempt is rejected unwalked: the cell's column of T, its size
    and its members' labels are put back. A walked attempt that is rejected
    is undone by rebuilding the state from its labels, which renumbers the
    ids in their order. Takes and returns the summed _risk_counts of the state.
    """
    snapshot = engine.labels.copy()
    target = int(snapshot[members[0]])
    trial = counts - engine.removal_counts(members)
    # column target of T counts exactly the members, and column 0 (noise)
    # counts nothing; the dead id keeps the ids' order
    column, size = engine.T[:, target].copy(), engine.sizes[target]
    engine.T[:, target] = 0
    engine.sizes[target] = 0
    engine.labels[members] = -1
    if engine.exact_risks and not engine.risk(trial) + _cheapest(engine, members) < engine.risk(counts):
        engine.T[:, target] = column
        engine.sizes[target] = size
        engine.labels[members] = target
        return counts
    trial += _walk(engine, members)[1]
    if engine.risk(trial) < engine.risk(counts):
        return trial
    engine.reset(snapshot)
    return counts


def _restart(work: _Work, i: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Restart i of search, drawing from rng only.

    It starts from an incremental assignment in random order, then runs the
    sweetening passes and the zealous attempts. Returns the restart's
    summed _risk_counts and its support labels, and emits a SearchPassCapWarning
    when its last allowed sweetening pass still moved a point.
    """
    engine, cfg = work.engine, work.cfg
    u = engine.labels.size
    engine.reset(np.full(u, -1))
    counts = _walk(engine, rng.permutation(u))[1]
    for _ in range(cfg.n_sweeten_passes):
        moved, delta = _walk(engine, rng.permutation(u))
        counts += delta
        if not moved:
            break
    # zealous updates
    for _ in range(cfg.n_zealous_attempts):
        cells = [0] + engine.live_ids().tolist()
        target = cells[int(rng.integers(len(cells)))]
        members = np.flatnonzero(engine.labels == target)
        if members.size:
            counts = _zealous(engine, rng.permutation(members), counts)
    if moved:  # in the last allowed pass
        warnings.warn(
            f"search restart {i} still moved points in its last of "
            f"{cfg.n_sweeten_passes} sweetening passes",
            SearchPassCapWarning,
        )
    return counts, engine.labels.copy()


class _Work(NamedTuple):
    """What a search's restarts read, the engine and the config: the state a
    fork pool's workers inherit. Each pool task is one restart (_restart)."""

    engine: _Engine
    cfg: SearchConfig


# Below this many (point, draw) entries times restarts a search runs its
# restarts serially; the pool runs only the restarts, never a seed's count.
# Set on a ProcessPoolExecutor, which took 10-20 ms to open and shut: on 2
# CPUs, 2 workers took 1.03-1.3x the serial time at 14k-27k entry-restarts
# and 0.93-0.97x at 34k-44k (sky surveys, n = 300-500, S = 100), 0.6-0.9x
# from 54k up. Re-measured on fork_map (6-10 ms to fork and reap two
# processes) with the one-point walk step, on 2 CPUs: 2 workers took
# 0.64-0.67x on the desk_bounds searches (0.5M-0.66M), but 0.9-1.9x on sky
# searches of 30k-120k (n = 300-1000, S = 100, 15-34 ms serially) and
# 1.4-1.9x on a ladder level's search (11k). Re-measured later, on the
# same 2 CPUs, 10 alternating pairs per sky search (S = 100),
# pooled/serial: 31k (n = 300, 4 restarts) 1.18x and 1.50x, pooled faster
# in 2/10 and 0/10; 50k (n = 500) 1.17x, 0/10; 67k (n = 700) 0.81x, 10/10;
# 73k (n = 800) 0.91x, 7/10; 89k (n = 1000) 0.84x, 10/10; 122k (n = 300,
# 16 restarts) 0.79x, 8/10; 177k (n = 1000, 8 restarts) 0.76x, 8/10; and
# 54k (n = 600) 1.09x, 3/10; 60k (n = 650) 1.04x, 0/10; 67k (n = 700)
# again 0.79x, 9/10; 68k (n = 850) 1.01x, 2/10. Pooling lost at every size
# up to 60k and won at every size from 89k, but between them, and above
# them, sizes did not all clear 9 of 10 pairs: entry-restarts only roughly
# predict a search's serial time, which is what must outweigh the fork.
_POOLED_MIN_ENTRIES = 60_000


def _search_workers(entries: int, cfg: SearchConfig) -> int:
    """Processes to run the work of a search of `entries` (point, draw)
    entries on; 1 runs it serially (see search)."""
    if entries * cfg.n_restarts < _POOLED_MIN_ENTRIES:
        return 1
    return min(cpu_count(), cfg.n_restarts)


def search(
    stats: CoClusteringStats,
    p: LossParams = DEFAULT_LOSS_PARAMS,
    cfg: SearchConfig = SearchConfig(),
) -> SubPartition:
    """Best-risk sub-partition across restarts; deterministic given cfg.seed.

    Each restart starts from an incremental assignment in random order (as
    SALSO's runs start from a sequential allocation), runs sweetening passes
    (single-point reassignments, strict improvement only) until a full pass
    makes no move, then zealous attempts (destroy one cell, noise included,
    reallocate its members incrementally, keep on strict improvement). A
    restart whose last allowed sweetening pass still moved a point emits a
    SearchPassCapWarning. The all-noise state and the draw clusterings of
    the stats are candidates too, so the result never does worse than any
    of them. The all-noise state misses every (point, draw) entry and
    counts nothing else, so its counts are read off the stats. A draw is
    counted, from its labels rebuilt from its entries, only when the risk
    of its two noise counts alone (_draw_noise_counts), a lower bound on its
    risk, does not exceed the lower of the all-noise risk and every
    restart's: a draw it skips cannot be the pick, and one that ties the
    best still wins by order. Each candidate is kept as its risk and
    support labels; only the pick is made a SubPartition.

    Each restart tracks the integer counts its risk weighs from the priced
    decisions: the incremental assignment, the sweetening moves, and each
    zealous attempt's removal and reassignment. So it compares the same
    risks as a recount would, for any weights.

    The walks price only the points a cluster can take, or that sit in a
    cluster: noise is the cheapest cell in every state for the others (see
    _always_noise), so they go to, and stay in, noise unpriced. A zealous
    attempt whose bound (each member in its cheapest cell, priced once)
    cannot beat the state's risk is rejected without a walk, when every risk
    is an exact float (see _zealous). A walked attempt that is rejected is
    undone by rebuilding the state from its labels. None of these changes a
    decision or a draw of the restarts' generators.

    The restarts alone run on min(cpu_count(), n_restarts) processes
    (util.fork_map): this one and workers it forks, once the restarts'
    (point, draw) entries reach _POOLED_MIN_ENTRIES. The draws the bound
    keeps are counted after the pool, in this process, so a search opens
    one pool at most. The restarts run serially below the gate, with one
    worker, without the fork start method, and inside a pool task or child
    process (such as a level of build_cluster_tree or a replicate of
    run_simulation_study), whose parent already uses the CPUs. Each restart
    draws from its own generator only, the best is picked here with a
    strict <, in the order all-noise, draws, restarts, and fork_map emits
    the restarts' warnings in restart order: the labels and warnings do not
    depend on the worker count. A worker that dies (killed by a signal or
    the OOM killer) raises InfeasibleError once every worker is reaped.
    """
    engine = _Engine(stats, p)  # reads the stats' cells in place, so a fork pool's workers inherit both
    rngs = spawn_rngs(cfg.seed, cfg.n_restarts)
    workers = _search_workers(stats.point.size, cfg)
    restarts = fork_map(_restart, _Work(engine, cfg), list(enumerate(rngs)), workers, "search")
    best_risk, best = engine.risk(np.array([stats.point.size, 0, 0, 0])), np.zeros(stats.support.size, np.int64)
    bound = min([best_risk] + [engine.risk(counts) for counts, _ in restarts])
    for s, noise in enumerate(zip(*_draw_noise_counts(stats))):
        if engine.risk(np.array([*noise, 0, 0])) > bound:
            continue  # its noise terms alone cost more than the all-noise state or a restart
        e = np.flatnonzero(stats.draws == s)
        cell = stats.cell[e]  # its labels: one id per draw cell, a fresh one per point alone in its cluster
        labels = np.zeros(stats.n, dtype=np.int64)
        labels[stats.support[stats.point[e]]] = np.where(cell < 0, stats.size.size + np.arange(e.size), cell) + 1
        risk = engine.risk(_risk_counts(stats, labels).sum(axis=0))
        if risk < best_risk:
            best_risk, best = risk, labels[stats.support]
    for counts, labels in restarts:
        if engine.risk(counts) < best_risk:
            best_risk, best = engine.risk(counts), labels
    full = np.zeros(stats.n, dtype=np.int64)
    full[stats.support] = best
    return SubPartition(full)


def plugin_estimate(
    ps: PointSet,
    ensemble: DensityDrawEnsemble,
    lam: float,
    delta: float,
) -> SubPartition:
    """Surrogate clustering of the pointwise posterior mean density."""
    if ensemble.n != ps.n:
        raise InfeasibleError(f"ensemble has n={ensemble.n} but point set has n={ps.n}")
    return surrogate_cluster(ps, ensemble.posterior_mean(), lam, delta)


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
) -> BalletResult:
    """Full point-estimate pipeline: draw clusterings, stats, risk search."""
    clusterings = draw_clusterings(ps, ensemble, lam, delta)
    stats = precompute_stats(clusterings)
    est = search(stats, p, cfg)
    return BalletResult(
        estimate=est,
        risk=empirical_risk(est, stats, p),
        clusterings=tuple(clusterings),
        stats=stats,
    )
