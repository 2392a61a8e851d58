"""Independent naive reference implementations used only by the tests.

Most are written directly from first definitions with plain loops,
deliberately sharing no code with the package, so agreement is meaningful.
The few that drive package code (oracle_relabel_walk, oracle_search,
oracle_build_ensemble) say so, and say which part of it they check.
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


def oracle_pairwise_penalties(c1, c2, p=None) -> np.ndarray:
    """Per-pair penalty matrix phi, pair by pair (metric-mode weights a, m).

    phi[i, j] charges m for each endpoint whose activity differs between the
    two sub-partitions, plus a when both endpoints keep their activity but
    the together/apart relation flips (together: same cluster, or both
    noise). Symmetric with a zero diagonal; the sum over i < j is the loss.
    """
    a, m = (1.0, 0.5) if p is None else (p.a, p.m_ai)
    l1, l2 = c1.labels, c2.labels
    n = len(l1)
    phi = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            flips = [(l1[x] != 0) != (l2[x] != 0) for x in (i, j)]
            value = m * sum(flips)
            if not any(flips):
                same1 = l1[i] == l1[j] if l1[i] and l1[j] else not l1[i] and not l1[j]
                same2 = l2[i] == l2[j] if l2[i] and l2[j] else not l2[i] and not l2[j]
                value += a * (same1 != same2)
            phi[i, j] = value
    return phi


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


def oracle_coo_component_labels(n: int, pairs: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Reference for levelset._component_labels, one active mask (n,) at a
    time: an n x n COO graph of the pairs whose two ends are active, labelled
    by connected_components over all n points. Full-length labels: 0
    inactive, else 1 + the component id."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    keep = active[pairs[:, 0]] & active[pairs[:, 1]]
    edges = pairs[keep]
    graph = coo_matrix((np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    return np.where(active, comp + 1, 0)


def oracle_uncontracted_component_labels(n: int, pairs: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Reference for levelset._component_labels as it was before the shared
    graph was contracted: every row labels the whole graph of the points
    active in some row. Labels of the shape of `active`, one mask (n,) or a
    stack (S, n): 0 inactive, else 1 + a component id unique within the row.

    The graph is built on those m points, indexed locally, from the E pairs
    among them grouped by first endpoint once. A chunk of rows, of up to
    levelset._CHUNK_ENTRIES nodes plus pairs, is one block-diagonal CSR graph
    (row t's pairs on the local ids offset by t * m) labelled by one
    connected_components call.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    from ballet.levelset import _CHUNK_ENTRIES

    active = np.asarray(active, dtype=bool)
    rows = active.reshape(-1, n)
    live = rows.any(axis=0)
    nodes = np.flatnonzero(live)
    m = nodes.size
    local = np.zeros(n, dtype=np.int32)
    local[nodes] = np.arange(m, dtype=np.int32)
    both = live[pairs[:, 0]] & live[pairs[:, 1]]
    first, second = local[pairs[both, 0]], local[pairs[both, 1]]
    order = np.argsort(first)
    first, second = first[order], second[order]
    on = rows[:, nodes]
    labels = np.zeros(rows.shape, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // max(1, m + first.size))
    for lo in range(0, len(on), step):
        chunk = on[lo : lo + step]
        size = len(chunk) * m
        kept = chunk[:, first] & chunk[:, second]
        offset = (np.arange(len(chunk), dtype=np.int32) * np.int32(m))[:, None]
        indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(np.bincount((offset + first)[kept], minlength=size), out=indptr[1:])
        graph = csr_matrix((np.ones(indptr[-1]), (offset + second)[kept], indptr), shape=(size, size))
        _, comp = connected_components(graph, directed=False)
        labels[lo : lo + len(chunk), nodes] = (comp.reshape(chunk.shape) + 1) * chunk
    return labels.reshape(active.shape)


def oracle_dbscan(points: np.ndarray, eps: float, min_pts: int, include_self: bool = True):
    """DBSCAN* from the full pairwise squared-distance matrix.

    Core: at least min_pts points within the closed eps-ball (self counted
    when include_self). Clusters: closed-eps components of the core points.
    """
    n = len(points)
    d2 = np.array([[float(((points[j] - points[i]) ** 2).sum()) for j in range(n)] for i in range(n)])
    counts = (d2 <= eps * eps).sum(axis=1) - (0 if include_self else 1)
    core = [i for i in range(n) if counts[i] >= min_pts]
    return oracle_components(points, np.asarray(core, dtype=int), eps, closed=True)


def oracle_loss_counts(labels1, labels2) -> tuple:
    """The IA-Binder loss's four integer counts, pair by pair: (active ->
    inactive, inactive -> active, pairs split, pairs merged) from 1 to 2."""
    n = len(labels1)
    act1 = [labels1[i] != 0 for i in range(n)]
    act2 = [labels2[i] != 0 for i in range(n)]
    cnt_ai = sum(act1[i] and not act2[i] for i in range(n))
    cnt_ia = sum(act2[i] and not act1[i] for i in range(n))
    split = merge = 0
    for i in range(n):
        for j in range(i + 1, n):
            if act1[i] and act1[j] and act2[i] and act2[j]:
                same1 = labels1[i] == labels1[j]
                same2 = labels2[i] == labels2[j]
                split += same1 and not same2
                merge += same2 and not same1
    return cnt_ai, cnt_ia, split, merge


def oracle_greedy_walk(points, center_labels, alpha, delta, radius, upper: bool, closed: bool = False, p=None):
    """Greedy credible-bound walk, recomputing every state from first definitions.

    upper=True activates inactive points by decreasing alpha, upper=False
    deactivates active points by increasing alpha, ties to the smallest index.
    Each state is the delta-graph components of its active set; the walk stops
    at the first state whose loss from the center exceeds radius. The loss
    weighs oracle_loss_counts with the loss parameters p (default weights
    when None) by the package's float expression, written out here, so
    distances compare with == under any weights. Returns the last in-ball
    labels and the trace as (index, alpha, distance, accepted).
    """
    a, b, m_ai, m_ia = (1.0, 1.0, 0.5, 0.5) if p is None else (p.a, p.b, p.m_ai, p.m_ia)
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
        cnt_ai, cnt_ia, split, merge = oracle_loss_counts(center_labels, labels)
        if m_ai == m_ia and a == b:
            dist = m_ai * float((n - 1) * (cnt_ai + cnt_ia)) + a * float(split + merge)
        else:
            dist = m_ai * float((n - 1) * cnt_ai) + m_ia * float((n - 1) * cnt_ia) + a * float(split) + b * float(merge)
        accepted = dist <= radius
        trace.append((idx, float(alpha[idx]), float(dist), accepted))
        if not accepted:
            break
        best = labels
    return best, trace


def oracle_relabel_walk(center, ps, delta, stats, radius, upper: bool, p=None, closed_edges: bool = False):
    """The greedy bound walks as they were before the union-find: relabel the
    whole masked delta graph and recount the loss after every toggle.

    Like oracle_search it drives package code (pair list, labelling, loss),
    so it is fast enough for mid-size instances. Returns the last in-ball
    state and the trace as a list of BoundStep.
    """
    from ballet.credible import BoundStep, _activation_order
    from ballet.levelset import _component_labels, _delta_pairs
    from ballet.subpartition import DEFAULT_LOSS_PARAMS, SubPartition, ia_binder_loss

    p = p or DEFAULT_LOSS_PARAMS
    active = center.labels_array != 0
    if upper:
        order = _activation_order(stats.alpha, np.flatnonzero(~active), largest_first=True)
        pairs = _delta_pairs(ps.points, delta, closed_edges)
    else:
        act = np.flatnonzero(center.labels_array)
        pairs = act[_delta_pairs(ps.points[act], delta, closed_edges)]
        order = _activation_order(stats.alpha, act, largest_first=False)
    best = center
    trace = []
    for idx in order.tolist():
        active[idx] = upper
        cand = SubPartition(_component_labels(ps.n, pairs, active))
        dist = ia_binder_loss(center, cand, p)
        accepted = dist <= radius
        trace.append(BoundStep(int(idx), float(stats.alpha[idx]), dist, accepted))
        if not accepted:
            break
        best = cand
    return best, trace


def oracle_radius_and_losses(center, draws, p, alpha) -> tuple:
    """The credible radius and the losses from the center to each draw, as
    the ball counted them before the co-clustering stats: one full-length
    ia_binder_loss(center, draw) per draw. Like oracle_relabel_walk it
    drives package code (the loss); it checks the per-draw counts."""
    from ballet.subpartition import ia_binder_loss
    from ballet.util import order_statistic_ceil

    dists = np.asarray([ia_binder_loss(center, d, p) for d in draws])
    return float(order_statistic_ceil(dists, 1.0 - alpha)), dists


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


def oracle_candidate_costs(engine, i):
    """Costs of assigning unassigned point i, priced alone: (ids, costs).

    costs[0] is noise, costs[1] a new singleton, costs[2 + t] joins the live
    id ids[t]. Pricing one point per call is the reference for the block
    pricing risk.search does.
    """
    return engine.live_ids(), engine.price(engine.layout(np.array([i])), 0, 1)[0][0]


def oracle_best_assignment(engine, i):
    """Cheapest cell for unassigned point i, ties noise > new > ids ascending: (label, cost)."""
    ids, costs = oracle_candidate_costs(engine, i)
    pick = int(costs.argmin())
    return engine.label_of(pick, ids), float(costs[pick])


def oracle_label_matrix(draws) -> np.ndarray:
    """The dense S x n matrix of the draw clusterings' labels, one row per draw."""
    return np.array([list(d.labels) for d in draws], dtype=np.int64)


def oracle_draw_cells(draws):
    """The draw cells of risk.precompute_stats, point by point from the dense
    S x n label matrix: (support, n_active, ptr, n_shared, cells).

    support lists the points some draw activates, and the other values index
    points by their position in it. cells[s] maps each position active in
    draw s to its draw cluster's positions, ascending, or to -1 when the
    point is alone in it; n_shared counts a position's draws where it is not
    alone.
    """
    L = oracle_label_matrix(draws)
    S, n = L.shape
    support = [i for i in range(n) if any(L[s, i] != 0 for s in range(S))]
    n_active = [sum(int(L[s, i] != 0) for s in range(S)) for i in support]
    ptr = [0]
    for d in n_active:
        ptr.append(ptr[-1] + d)
    n_shared = [0] * len(support)
    cells = []
    for s in range(S):
        cells.append({})
        for pos, i in enumerate(support):
            if L[s, i] == 0:
                continue
            mates = tuple(q for q, j in enumerate(support) if L[s, j] == L[s, i])
            cells[s][pos] = mates if len(mates) > 1 else -1
            n_shared[pos] += len(mates) > 1
    return support, n_active, ptr, n_shared, cells


def oracle_risk_counts(draws, labels) -> np.ndarray:
    """The four counts risk._risk_counts returns for full-length labels,
    recounted from the dense S x n label matrix of the draw clusterings.

    [missed, extra, split, joined]: draw-active points the candidate leaves
    as noise; candidate-active points counted in each draw where they are
    inactive (an off-support point in all S); and, over pairs active in
    both, pairs together in the draw but apart in the candidate and the
    reverse, from the (draw, draw cluster, candidate cluster) counts.
    """

    def pairs(counts):
        return int((counts * (counts - 1) // 2).sum())

    L = oracle_label_matrix(draws)
    labels = np.asarray(labels)
    draw_active = np.count_nonzero(L, axis=0)
    act = labels > 0
    missed = int(draw_active[~act].sum())
    extra = L.shape[0] * int(np.count_nonzero(act)) - int(draw_active[act].sum())
    cols = np.flatnonzero(act)
    _, h = np.unique(labels[cols], return_inverse=True)
    Lc = L[:, cols]
    s, j = np.nonzero(Lc)
    G = int(L.max(initial=0)) + 1
    H = int(h.max(initial=0)) + 1
    cell = s * G + Lc[s, j]
    hj = h[j]
    together_draw = pairs(np.bincount(cell))
    together_cand = pairs(np.bincount(s * H + hj))
    together_both = pairs(np.unique(cell * H + hj, return_counts=True)[1])
    return np.array([missed, extra, together_draw - together_both, together_cand - together_both])


def oracle_search(draws, p, cfg):
    """The risk search priced one point at a time: the reference for risk.search.

    Unlike the rest of this module it drives the package's search engine,
    on the stats of the draws, through oracle_candidate_costs and move only,
    and recounts the risk from the draws by oracle_risk_counts after every
    restart and zealous attempt. It counts every draw exactly, with no
    bound, as a candidate after the all-noise one. It also renumbers the
    ids 1..k before each sweetening pass, which the search does not. So it
    checks that block pricing, the tracked risk, the ids' numbering and the
    bound on the draws leave every decision unchanged.
    """
    from ballet.risk import _Engine, precompute_stats
    from ballet.subpartition import SubPartition, _weighted_loss
    from ballet.util import spawn_rngs

    stats = precompute_stats(draws)

    def full_labels(labels_sup):
        full = np.zeros(stats.n, dtype=np.int64)
        full[stats.support] = labels_sup
        return full

    def scaled_risk(labels):
        return _weighted_loss(stats.n, *oracle_risk_counts(draws, labels).tolist(), p)

    engine = _Engine(stats, p)
    u = stats.support.size
    best_sp = SubPartition.all_noise(stats.n)
    best_risk = scaled_risk(best_sp.labels_array)
    for d in draws:
        r = scaled_risk(d.labels_array)
        if r < best_risk:
            best_sp, best_risk = d, r
    for rng in spawn_rngs(cfg.seed, cfg.n_restarts):
        engine.reset(np.full(u, -1))
        for i in rng.permutation(u).tolist():
            engine.move(i, oracle_best_assignment(engine, i)[0])
        for _ in range(cfg.n_sweeten_passes):
            engine.reset(engine.labels)
            moved = False
            for i in rng.permutation(u).tolist():
                cur = engine.move(i, -1)
                ids, costs = oracle_candidate_costs(engine, i)
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
        risk = scaled_risk(full_labels(engine.labels))
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
            new_risk = scaled_risk(full_labels(engine.labels))
            if new_risk < risk:
                risk = new_risk
            else:
                engine.reset(snapshot)
        if risk < best_risk:
            best_risk = risk
            best_sp = SubPartition(full_labels(engine.labels))
    return best_sp


def oracle_bin_indices(bins, X: np.ndarray) -> np.ndarray:
    """HistogramBins.bin_indices by one searchsorted per component and axis,
    flattened with ravel_multi_index."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty((bins.K, X.shape[0]), dtype=np.int64)
    dims = (bins.M_prime,) * bins.d
    for k in range(bins.K):
        per_axis = tuple(
            np.searchsorted(bins.cuts[k, a, 1:-1], X[:, a], side="left") for a in range(bins.d)
        )
        out[k] = np.ravel_multi_index(per_axis, dims)
    return out


def oracle_sample_at_data(post, points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """HistogramPosterior.sample_at_data by a Dirichlet draw of all M bin
    masses of each component, read at each point's bin (oracle_bin_indices)."""
    idx = oracle_bin_indices(post.bins, points)
    row = np.zeros(len(points))
    for k in range(post.bins.K):
        masses = rng.dirichlet(post.dirichlet_params[k])
        rho = masses / post.bins.areas[k]
        row += rho[idx[k]]
    return row / post.bins.K


def oracle_collapsed_sample_at_data(post, bin_indices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """HistogramPosterior.sample_at_data one component at a time: one
    rng.dirichlet call over the held bins' parameters and, last, the empty
    bins' summed parameter, divided by the held bins' areas and gathered at
    each point's held bin. bin_indices is the (K, n) array of the points' bins,
    as bins.bin_indices returns it."""
    row = np.zeros(bin_indices.shape[1])
    for k in range(post.bins.K):
        held = post.counts[k] > 0
        params = post.dirichlet_params[k, held]
        if not held.all():
            params = np.append(params, post.dirichlet_params[k, ~held].sum())
        masses = rng.dirichlet(params)
        rho = masses[:np.count_nonzero(held)] / post.bins.areas[k, held]
        row += rho[(np.cumsum(held) - 1)[bin_indices[k]]]
    return row / post.bins.K


def oracle_build_ensemble(data, cfg, S: int, seed: int) -> np.ndarray:
    """build_ensemble's values, the draws filled one after another on one thread.

    It calls the package's own binning, fit and sample_at_data, so it checks
    the threaded fill only; oracle_sample_at_data and
    oracle_collapsed_sample_at_data are the sampler's oracles.
    """
    from ballet.density import default_domain, fit_histogram_posterior, sample_bins
    from ballet.util import spawn_rngs

    rngs = spawn_rngs(seed, S + 1)
    domain = cfg.domain if cfg.domain is not None else default_domain(data)
    post = fit_histogram_posterior(data, sample_bins(cfg, domain, rngs[0]), cfg)
    values = np.empty((S, data.n))
    for s in range(S):
        values[s] = post.sample_at_data(rngs[1 + s])
    return values
