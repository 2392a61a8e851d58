"""Independent naive reference implementations used only by the tests.

Everything here is written directly from first definitions with plain loops,
deliberately sharing no code with the package, so agreement is meaningful.
"""

from __future__ import annotations

import numpy as np


def oracle_ia_binder_loss(labels1, labels2, a=1.0, b=1.0, m_ai=0.5, m_ia=0.5) -> float:
    """Direct per-definition loss: activity mismatches plus pair disagreements."""
    n = len(labels1)
    assert n == len(labels2)
    act1 = [i for i in range(n) if labels1[i] != 0]
    act2 = [i for i in range(n) if labels2[i] != 0]
    loss = (n - 1) * (
        m_ai * len([i for i in act1 if i not in act2])
        + m_ia * len([i for i in act2 if i not in act1])
    )
    for i in range(n):
        for j in range(i + 1, n):
            if labels1[i] != 0 and labels1[j] != 0 and labels2[i] != 0 and labels2[j] != 0:
                same1 = labels1[i] == labels1[j]
                same2 = labels2[i] == labels2[j]
                if same1 and not same2:
                    loss += a
                if (not same1) and same2:
                    loss += b
    return loss


def oracle_pair_frequencies(draws):
    """Active frequency alpha_i and pair frequencies of S draw clusterings.

    pi1[i, j]: draws where i and j are both active and together; pi2[i, j]:
    both active and apart. All are exact fractions of S (object arrays of
    Fraction), with a zero diagonal. Draws are label sequences or objects
    with a .labels sequence.
    """
    from fractions import Fraction

    labels = [list(getattr(d, "labels", d)) for d in draws]
    S, n = len(labels), len(labels[0])
    alpha = np.array([Fraction(sum(lab[i] != 0 for lab in labels), S) for i in range(n)], dtype=object)
    pi1 = np.full((n, n), Fraction(0), dtype=object)
    pi2 = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            together = sum(lab[i] != 0 and lab[j] != 0 and lab[i] == lab[j] for lab in labels)
            apart = sum(lab[i] != 0 and lab[j] != 0 and lab[i] != lab[j] for lab in labels)
            pi1[i, j] = Fraction(together, S)
            pi2[i, j] = Fraction(apart, S)
    return alpha, pi1, pi2


def oracle_knn_distance(points: np.ndarray, k: int) -> np.ndarray:
    """kth nearest OTHER point by full sorted distance matrix."""
    n = len(points)
    out = np.empty(n)
    for i in range(n):
        d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        out[i] = np.sort(d)[k - 1]
    return out


def oracle_components(points: np.ndarray, active: np.ndarray, delta: float, closed: bool = False):
    """Connected-component labels on the active subset via transitive closure.

    Returns full-length labels: 0 for inactive points, components numbered by
    first occurrence. O(m^3); for test sizes only.
    """
    n = len(points)
    active = np.asarray(active)
    m = len(active)
    labels = np.zeros(n, dtype=int)
    if m == 0:
        return labels
    pts = points[active]
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    adj = (dist <= delta) if closed else (dist < delta)
    np.fill_diagonal(adj, True)
    reach = adj.astype(np.uint8)
    while True:
        nxt = ((reach @ reach) > 0).astype(np.uint8)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    comp = np.full(m, -1, dtype=int)
    next_id = 0
    for i in range(m):
        if comp[i] == -1:
            members = np.flatnonzero(reach[i] > 0)
            comp[members] = next_id
            next_id += 1
    labels[active] = comp + 1
    return labels


def oracle_dbscan(points: np.ndarray, eps: float, min_pts: int, include_self: bool = True, classic: bool = False):
    """DBSCAN* (or DBSCAN with borders) from the full pairwise squared-distance matrix.

    Core: at least min_pts points within the closed eps-ball (self counted
    when include_self). Clusters: closed-eps components of the core points.
    With classic=True each non-core point within eps of a core point joins
    the nearest core's cluster, ties to the smallest core index.
    """
    n = len(points)
    d2 = np.array([[float(((points[j] - points[i]) ** 2).sum()) for j in range(n)] for i in range(n)])
    within = d2 <= eps * eps
    counts = within.sum(axis=1) - (0 if include_self else 1)
    core = [i for i in range(n) if counts[i] >= min_pts]
    labels = oracle_components(points, np.asarray(core, dtype=int), eps, closed=True)
    if classic:
        star = labels.copy()
        for i in range(n):
            if star[i] != 0:
                continue
            near = [(d2[i, j], j) for j in core if within[i, j]]
            if near:
                labels[i] = star[min(near)[1]]
    return labels


def oracle_greedy_walk(points, center_labels, alpha, delta, radius, upper: bool, closed: bool = False):
    """Greedy credible-bound walk, recomputing every state from first definitions.

    upper=True activates inactive points by decreasing alpha, upper=False
    deactivates active points by increasing alpha, ties to the smallest index.
    Each state is the delta-graph components of its active set; the walk stops
    at the first state whose loss from the center exceeds radius. Returns the
    last in-ball labels and the trace as (index, alpha, distance, accepted).
    """
    n = len(center_labels)
    active = {i for i in range(n) if center_labels[i] != 0}
    if upper:
        order = sorted((i for i in range(n) if i not in active), key=lambda i: (-alpha[i], i))
    else:
        order = sorted(active, key=lambda i: (alpha[i], i))
    best = list(center_labels)
    trace = []
    for idx in order:
        if upper:
            active.add(idx)
        else:
            active.discard(idx)
        labels = oracle_components(points, np.asarray(sorted(active), dtype=int), delta, closed=closed)
        dist = oracle_ia_binder_loss(center_labels, labels)
        accepted = dist <= radius
        trace.append((idx, float(alpha[idx]), float(dist), accepted))
        if not accepted:
            break
        best = labels
    return best, trace


def oracle_canonical_labels(labels) -> tuple:
    """Labels renumbered by first occurrence, one element at a time."""
    out = []
    remap = {}
    for raw in labels:
        v = int(raw)
        if v != raw:
            raise ValueError(f"labels must be integers, got {raw!r}")
        if v < 0:
            raise ValueError(f"labels must be >= 0 (0 = noise), got {v}")
        if v == 0:
            out.append(0)
        else:
            if v not in remap:
                remap[v] = len(remap) + 1
            out.append(remap[v])
    return tuple(out)


def oracle_quantile_ceil(values, q: float) -> float:
    """ceil(q * N)-th smallest value, N = len(values); q in (0, 1]."""
    import math

    vals = sorted(values)
    m = max(1, math.ceil(q * len(vals)))
    return vals[m - 1]


def random_subpartition(rng: np.random.Generator, n: int, max_k: int = 4):
    from ballet.subpartition import SubPartition

    return SubPartition(rng.integers(0, max_k + 1, size=n))


def planted_knee_curve(n, knee_rank, rise=4.0, tail_slope=0.2, rng=None):
    """Log densities, ascending: steep rise to the knee rank, shallow after."""
    x = np.arange(n, dtype=float)
    y = np.where(
        x <= knee_rank,
        rise * x / knee_rank,
        rise + tail_slope * (x - knee_rank) / (n - 1 - knee_rank),
    )
    if rng is not None:
        y = y + rng.normal(0.0, 0.002, n)
        y.sort()
    return np.exp(y)


def oracle_best_assignment(engine, i):
    """Cheapest cell for unassigned point i, ties noise > new > ids ascending: (label, cost)."""
    ids, costs = engine.candidate_costs(i)
    pick = int(costs.argmin())
    return engine.label_of(pick, ids), float(costs[pick])


def oracle_search(stats, p, cfg, seeds=None):
    """The risk search priced one point at a time: the reference for risk.search.

    Unlike the rest of this module it drives the package's search engine,
    through _Engine.candidate_costs and move only, and recounts the risk
    with _scaled_risk after every restart and zealous attempt. So it checks
    that block pricing and the tracked risk leave every decision unchanged.
    """
    from ballet.risk import _Engine, _full_labels, _scaled_risk
    from ballet.subpartition import SubPartition
    from ballet.util import spawn_rngs

    engine = _Engine(stats, p)
    u = stats.support.size
    seed_list = list(seeds) if seeds is not None else []
    best_sp = SubPartition.all_noise(stats.n)
    best_risk = _scaled_risk(stats, best_sp.labels_array, p)
    for s in seed_list:
        r = _scaled_risk(stats, s.labels_array, p)
        if r < best_risk:
            best_sp, best_risk = s, r
    for restart, rng in enumerate(spawn_rngs(cfg.seed, cfg.n_restarts)):
        if restart % 2 == 1 and seed_list:
            sp0 = seed_list[int(rng.integers(len(seed_list)))]
            engine.reset(sp0.labels_array[stats.support])
        else:
            engine.reset(np.full(u, -1))
            for i in rng.permutation(u).tolist():
                engine.move(i, oracle_best_assignment(engine, i)[0])
        for _ in range(cfg.n_sweeten_passes):
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
                engine.move(i, oracle_best_assignment(engine, i)[0])
            new_risk = _scaled_risk(stats, _full_labels(stats, engine.labels), p)
            if new_risk < risk:
                risk = new_risk
            else:
                engine.reset(snapshot)
        if risk < best_risk:
            best_risk = risk
            best_sp = SubPartition(_full_labels(stats, engine.labels))
    return best_sp
