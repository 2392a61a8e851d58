"""Co-clustering statistics, the empirical IA-Binder risk, and the point-estimate search.

The risk of a candidate sub-partition against S posterior draw clusterings is
a linear statistic of per-point active frequencies (alpha) and per-pair
co-clustering frequencies (pi1 = both active and together, pi2 = both active
and apart), so it is precomputed once and every candidate evaluation is cheap.
Pairs are stored packed upper-triangular over the support {i : alpha_i > 0};
pairs involving a never-active point have pi1 = pi2 = 0 identically and any
such point is noise-optimal in every candidate evaluation, which keeps the
search exact while skipping them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataIOError, InfeasibleError, NumericError
from .levelset import PointSet, _component_labels, _delta_pairs, surrogate_cluster
from .subpartition import DEFAULT_LOSS_PARAMS, LossParams, SubPartition
from .util import canonical_json, spawn_rngs

__all__ = [
    "DensityDrawEnsemble",
    "CoClusteringStats",
    "SearchConfig",
    "draw_clusterings",
    "precompute_stats",
    "empirical_risk",
    "incremental_best_assignment",
    "search",
    "plugin_estimate",
    "ballet_estimate",
    "BalletResult",
]

ENSEMBLE_SCHEMA = "ballet/ensemble/v1"

# support sizes up to this get a dense square cache for fast row access
_DENSE_CACHE_LIMIT = 4608


class DensityDrawEnsemble:
    """S posterior density draws evaluated at the n observation points."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        vals = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError(f"ensemble must be a nonempty S x n matrix, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise NumericError("ensemble values must be finite")
        if (vals < 0).any():
            raise NumericError("ensemble values must be nonnegative")
        vals.setflags(write=False)
        self.values = vals

    @property
    def S(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def posterior_mean(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def save(self, path) -> None:
        """Binary: one JSON header line, then S*n row-major little-endian doubles.

        A .csv extension writes the plain-text alternative (one draw per row).
        """
        if str(path).endswith(".csv"):
            with open(path, "w", encoding="ascii") as fh:
                for row in self.values:
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
            return
        header = canonical_json({"S": self.S, "dtype": "<f8", "n": self.n, "schema": ENSEMBLE_SCHEMA})
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii") + b"\n")
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "DensityDrawEnsemble":
        try:
            if str(path).endswith(".csv"):
                rows = []
                with open(path, "r", encoding="ascii") as fh:
                    for line in fh:
                        line = line.strip()
                        if line:
                            rows.append([float(tok) for tok in line.split(",")])
                if not rows:
                    raise DataIOError(f"no rows in ensemble CSV {path}")
                return cls(np.asarray(rows, dtype=np.float64))
            with open(path, "rb") as fh:
                header_line = fh.readline()
                payload = fh.read()
            header = json.loads(header_line.decode("ascii"))
            if not isinstance(header, dict):
                raise DataIOError(f"ensemble header is not a JSON object: {header!r}")
            if header.get("schema") != ENSEMBLE_SCHEMA or header.get("dtype") != "<f8":
                raise DataIOError(
                    f"ensemble header needs schema {ENSEMBLE_SCHEMA!r} and dtype '<f8', "
                    f"got {header.get('schema')!r} and {header.get('dtype')!r}"
                )
            S, n = header.get("S"), header.get("n")
            if not all(type(v) is int and v >= 1 for v in (S, n)):
                raise DataIOError(f"ensemble header needs integers S, n >= 1, got S={S!r}, n={n!r}")
            expected = S * n * 8
            if len(payload) != expected:
                raise DataIOError(
                    f"ensemble payload is {len(payload)} bytes, expected {expected} for S={S}, n={n}"
                )
            vals = np.frombuffer(payload, dtype="<f8").reshape(S, n)
            return cls(vals)
        except (OSError, ValueError) as exc:
            raise DataIOError(f"cannot read ensemble from {path}: {exc}") from exc


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


def _tri_row_starts(u: int) -> np.ndarray:
    """Start offset of row i's j>i block in packed upper-triangular storage."""
    i = np.arange(u, dtype=np.int64)
    return i * (2 * u - i - 1) // 2


class CoClusteringStats:
    """Monte-Carlo frequencies: alpha (active), pi1 (together), pi2 (apart).

    alpha covers all n points; pair frequencies are stored packed over the
    support (alpha > 0) because all other pairs are identically zero.
    """

    def __init__(self, n: int, S: int, alpha: np.ndarray, support: np.ndarray,
                 pi1_packed: np.ndarray, pi2_packed: np.ndarray):
        self.n = int(n)
        self.S = int(S)
        self.alpha = alpha
        self.support = support
        self._pi1p = pi1_packed
        self._pi2p = pi2_packed
        u = support.size
        self._u = u
        self._row_starts = _tri_row_starts(u)
        self._pos_in_support = np.full(n, -1, dtype=np.int64)
        self._pos_in_support[support] = np.arange(u)
        if u <= _DENSE_CACHE_LIMIT:
            self._d1 = self._unpack(pi1_packed)
            self._d2 = self._unpack(pi2_packed)
        else:
            self._d1 = self._d2 = None

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        u = self._u
        out = np.zeros((u, u), dtype=np.float64)
        iu = np.triu_indices(u, 1)
        out[iu] = packed
        out[(iu[1], iu[0])] = packed
        return out

    def _packed_index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return int(self._row_starts[i]) + (j - i - 1)

    def _support_rows(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i (support-local) of pi1 and pi2 as dense length-u vectors."""
        if self._d1 is not None:
            return self._d1[i], self._d2[i]
        u = self._u
        r1 = np.zeros(u)
        r2 = np.zeros(u)
        if i + 1 < u:
            start = int(self._row_starts[i])
            r1[i + 1:] = self._pi1p[start: start + u - i - 1]
            r2[i + 1:] = self._pi2p[start: start + u - i - 1]
        if i > 0:
            j = np.arange(i, dtype=np.int64)
            pos = self._row_starts[j] + (i - j - 1)
            r1[:i] = self._pi1p[pos]
            r2[:i] = self._pi2p[pos]
        return r1, r2

    def pair_rows_full(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i of pi1 and pi2 over all n points (zeros off the support)."""
        r1 = np.zeros(self.n)
        r2 = np.zeros(self.n)
        pos = int(self._pos_in_support[i])
        if pos >= 0:
            s1, s2 = self._support_rows(pos)
            r1[self.support] = s1
            r2[self.support] = s2
        return r1, r2

    def pi1(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("diagonal pair frequencies are undefined")
        pi, pj = int(self._pos_in_support[i]), int(self._pos_in_support[j])
        if pi < 0 or pj < 0:
            return 0.0
        return float(self._pi1p[self._packed_index(pi, pj)])

    def pi2(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("diagonal pair frequencies are undefined")
        pi, pj = int(self._pos_in_support[i]), int(self._pos_in_support[j])
        if pi < 0 or pj < 0:
            return 0.0
        return float(self._pi2p[self._packed_index(pi, pj)])

    def pi1_matrix(self) -> np.ndarray:
        """Dense n x n pi1 (test/introspection helper; zero diagonal)."""
        out = np.zeros((self.n, self.n))
        sub = self._unpack(self._pi1p) if self._d1 is None else self._d1
        out[np.ix_(self.support, self.support)] = sub
        return out

    def pi2_matrix(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        sub = self._unpack(self._pi2p) if self._d2 is None else self._d2
        out[np.ix_(self.support, self.support)] = sub
        return out


def precompute_stats(clusterings: Sequence[SubPartition]) -> CoClusteringStats:
    """Exact Monte-Carlo co-clustering frequencies from S draw clusterings."""
    if len(clusterings) == 0:
        raise ValueError("need at least one clustering")
    n = clusterings[0].n
    for c in clusterings:
        if c.n != n:
            raise ValueError(f"clusterings disagree on n: {c.n} != {n}")
    S = len(clusterings)
    L = np.stack([c.labels_array for c in clusterings])  # (S, n)
    active = L > 0
    alpha = active.sum(axis=0).astype(np.float64) / S
    support = np.flatnonzero(alpha > 0)
    u = support.size
    pairs = u * (u - 1) // 2
    pi1p = np.zeros(pairs, dtype=np.float64)
    pi2p = np.zeros(pairs, dtype=np.float64)
    if u >= 2:
        Ls = np.ascontiguousarray(L[:, support])
        As = (Ls > 0).astype(np.float32)
        row_starts = _tri_row_starts(u)
        block = max(1, min(u, int(2**22 // max(u, 1)) or 1))
        for b0 in range(0, u, block):
            b1 = min(u, b0 + block)
            both = As[:, b0:b1].T @ As  # counts of jointly-active draws
            same = np.zeros_like(both)
            for s in range(S):
                row = Ls[s]
                seg = row[b0:b1]
                same += ((seg[:, None] == row[None, :]) & (seg[:, None] > 0)).astype(np.float32)
            for i in range(b0, b1):
                if i + 1 >= u:
                    continue
                start = int(row_starts[i])
                cnt_same = same[i - b0, i + 1:].astype(np.float64)
                cnt_both = both[i - b0, i + 1:].astype(np.float64)
                pi1p[start: start + u - i - 1] = cnt_same / S
                pi2p[start: start + u - i - 1] = (cnt_both - cnt_same) / S
    return CoClusteringStats(n=n, S=S, alpha=alpha, support=support, pi1_packed=pi1p, pi2_packed=pi2p)


# -- risk ---------------------------------------------------------------------


def _pair_risk_support(stats: CoClusteringStats, labels_sup: np.ndarray, p: LossParams) -> float:
    """Pair term of the risk for support-local labels (0 noise, >0 clusters)."""
    act = labels_sup > 0
    m = int(np.count_nonzero(act))
    if m < 2:
        return 0.0
    if stats._d1 is not None:
        # all quadratic forms live on the active rows/columns, so gather the
        # m x m active block (and per-cluster sub-blocks) instead of running
        # full u x u matrix-vector products per cluster id
        idx = np.flatnonzero(act)
        s1_act = 0.5 * float(stats._d1[np.ix_(idx, idx)].sum())
        labs = labels_sup[idx]
        s1_same = 0.0
        s2_same = 0.0
        for h in np.unique(labs):
            mem = idx[labs == h]
            if mem.size >= 2:
                block = np.ix_(mem, mem)
                s1_same += 0.5 * float(stats._d1[block].sum())
                s2_same += 0.5 * float(stats._d2[block].sum())
        return p.a * (s1_act - s1_same) + p.b * s2_same
    total = 0.0
    idx = np.flatnonzero(act)
    for pos_i in idx.tolist():
        r1, r2 = stats._support_rows(pos_i)
        mask = act.copy()
        mask[: pos_i + 1] = False  # j > i only
        same = mask & (labels_sup == labels_sup[pos_i])
        diff = mask & ~same
        total += p.a * float(r1[diff].sum()) + p.b * float(r2[same].sum())
    return total


def empirical_risk(c: SubPartition, stats: CoClusteringStats, p: LossParams = DEFAULT_LOSS_PARAMS) -> float:
    """Posterior expected IA-Binder loss of candidate c; equals the averaged
    per-draw loss exactly (both are the same linear statistic)."""
    if c.n != stats.n:
        raise ValueError(f"candidate has n={c.n} but stats have n={stats.n}")
    n = stats.n
    labels = c.labels_array
    act = labels != 0
    point = (n - 1) * (
        p.m_ai * float(stats.alpha[~act].sum()) + p.m_ia * float((1.0 - stats.alpha[act]).sum())
    )
    pair = _pair_risk_support(stats, labels[stats.support], p)
    return point + pair


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


class _Engine:
    """Candidate-cost evaluation on support-local label vectors.

    Labels: -1 unassigned, 0 noise, >0 cluster ids (not necessarily compact).
    Costs follow the restricted empirical risk: sums run over assigned points
    only, with the (n-1) prefactor of the full formula.
    """

    def __init__(self, stats: CoClusteringStats, p: LossParams):
        self.stats = stats
        self.p = p
        self.u = stats.support.size
        alpha_sup = stats.alpha[stats.support]
        n = stats.n
        self.noise_cost = (n - 1) * p.m_ai * alpha_sup
        self.active_base = (n - 1) * p.m_ia * (1.0 - alpha_sup)

    def candidate_costs(self, labels: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Costs of assigning point i: [noise, new cluster, each existing id asc].

        labels[i] must be -1 (point currently unassigned). Returns (ids, costs)
        where costs[0] is noise, costs[1] a new singleton, costs[2 + t] joins
        ids[t].
        """
        r1, r2 = self.stats._support_rows(i)
        act_idx = np.flatnonzero(labels > 0)
        ids = np.unique(labels[act_idx]) if act_idx.size else np.empty(0, dtype=labels.dtype)
        base = self.active_base[i] + self.p.a * float(r1[act_idx].sum())
        costs = np.empty(2 + ids.size)
        costs[0] = self.noise_cost[i]
        costs[1] = base
        if ids.size:
            w = self.p.b * r2[act_idx] - self.p.a * r1[act_idx]
            sums = np.bincount(labels[act_idx], weights=w, minlength=int(ids.max()) + 1)
            costs[2:] = base + sums[ids]
        return ids, costs

    def best_assignment(self, labels: np.ndarray, i: int) -> tuple[int, float]:
        """Risk-minimizing cell for point i; ties go noise > new > ids ascending.

        Returns (label, cost); label 0 for noise, a fresh id for a new cluster.
        """
        ids, costs = self.candidate_costs(labels, i)
        pick = int(np.argmin(costs))
        if pick == 0:
            return 0, float(costs[0])
        if pick == 1:
            fresh = int(labels.max(initial=0)) + 1
            return fresh, float(costs[1])
        return int(ids[pick - 2]), float(costs[pick])

    def support_risk(self, labels: np.ndarray) -> float:
        """Full empirical risk of a fully assigned support labeling."""
        stats, p, n = self.stats, self.p, self.stats.n
        alpha = stats.alpha
        sup = stats.support
        act = labels > 0
        # off-support points are noise with alpha = 0: zero contribution
        point = (n - 1) * (
            p.m_ai * float(alpha[sup[~act]].sum()) + p.m_ia * float((1.0 - alpha[sup[act]]).sum())
        )
        return point + _pair_risk_support(stats, labels, p)


def incremental_best_assignment(
    partial: SubPartition,
    next_index: int,
    stats: CoClusteringStats,
    p: LossParams = DEFAULT_LOSS_PARAMS,
) -> SubPartition:
    """Assign the next point (prefix order) to its restricted-risk minimizer.

    partial covers points 0..t-1 and next_index must equal t; the candidate
    cells are noise, a new cluster, and each existing cluster, with ties broken
    in that order (existing clusters by ascending id).
    """
    t = partial.n
    if next_index != t:
        raise ValueError(f"next_index must equal partial.n={t}, got {next_index}")
    if next_index >= stats.n:
        raise ValueError(f"next_index {next_index} out of range for stats over n={stats.n}")
    n = stats.n
    prefix = partial.labels_array
    act = prefix > 0
    r1, r2 = stats.pair_rows_full(next_index)
    r1 = r1[:t]
    r2 = r2[:t]
    costs = [(n - 1) * p.m_ai * float(stats.alpha[next_index])]
    base = (n - 1) * p.m_ia * (1.0 - float(stats.alpha[next_index])) + p.a * float(r1[act].sum())
    costs.append(base)
    k = partial.k
    for h in range(1, k + 1):
        inh = prefix == h
        costs.append(base + float((p.b * r2[inh] - p.a * r1[inh]).sum()))
    pick = int(np.argmin(costs))
    new_label = 0 if pick == 0 else (k + 1 if pick == 1 else pick - 1)
    return SubPartition(list(partial.labels) + [new_label])


def _labels_from_subpartition(sp: SubPartition, support: np.ndarray) -> np.ndarray:
    return sp.labels_array[support].copy()


def _full_subpartition(stats: CoClusteringStats, labels_sup: np.ndarray) -> SubPartition:
    full = np.zeros(stats.n, dtype=np.int64)
    full[stats.support] = labels_sup
    return SubPartition(full)


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
    u = engine.u
    seed_list = list(seeds) if seeds is not None else []
    for s in seed_list:
        if s.n != stats.n:
            raise ValueError(f"seed clustering has n={s.n}, stats have n={stats.n}")

    best_sp = SubPartition.all_noise(stats.n)
    best_risk = empirical_risk(best_sp, stats, p)
    for s in seed_list:
        r = empirical_risk(s, stats, p)
        if r < best_risk:
            best_sp, best_risk = s, r

    rngs = spawn_rngs(cfg.seed, cfg.n_restarts)
    for restart, rng in enumerate(rngs):
        labels = np.full(u, -1, dtype=np.int64)
        if restart % 2 == 1 and seed_list:
            sp0 = seed_list[int(rng.integers(len(seed_list)))]
            labels = _labels_from_subpartition(sp0, stats.support)
        else:
            for i in rng.permutation(u).tolist():
                labels[i], _ = engine.best_assignment(labels, i)
        # sweetening
        for _ in range(cfg.n_sweeten_passes):
            moved = False
            for i in rng.permutation(u).tolist():
                cur = int(labels[i])
                labels[i] = -1
                ids, costs = engine.candidate_costs(labels, i)
                if cur == 0:
                    cur_cost = float(costs[0])
                else:
                    where = np.flatnonzero(ids == cur)
                    cur_cost = float(costs[2 + int(where[0])]) if where.size else float(costs[1])
                pick = int(np.argmin(costs))
                new_cost = float(costs[pick])
                if new_cost < cur_cost:
                    if pick == 0:
                        labels[i] = 0
                    elif pick == 1:
                        labels[i] = int(labels.max(initial=0)) + 1
                    else:
                        labels[i] = int(ids[pick - 2])
                    moved = True
                else:
                    labels[i] = cur
            if not moved:
                break
        # zealous updates
        risk = engine.support_risk(labels)
        for _ in range(cfg.n_zealous_attempts):
            cells = [0] + sorted(int(h) for h in np.unique(labels[labels > 0]))
            target = cells[int(rng.integers(len(cells)))]
            members = np.flatnonzero(labels == target)
            if members.size == 0:
                continue
            snapshot = labels.copy()
            labels[members] = -1
            for i in rng.permutation(members).tolist():
                labels[i], _ = engine.best_assignment(labels, i)
            new_risk = engine.support_risk(labels)
            if new_risk < risk:
                risk = new_risk
            else:
                labels = snapshot
        if risk < best_risk:
            best_risk = risk
            best_sp = _full_subpartition(stats, labels)
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
