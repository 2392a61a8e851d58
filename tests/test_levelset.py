"""Tests for the levelset module: kNN, adaptive delta, surrogate, DBSCAN."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import ballet.levelset as levelset
from ballet.errors import ConfigError
from ballet.levelset import (
    AdaptiveDeltaConfig,
    PointSet,
    _component_labels,
    _delta_pairs,
    _knn_distance_at,
    _mask_components,
    active_set_components,
    adaptive_delta,
    dbscan_star,
    default_k_dbscan,
    default_k_levelset,
    surrogate_cluster,
    unit_ball_volume,
)
from ballet.subpartition import SubPartition
from oracles import (
    oracle_components,
    oracle_coo_component_labels,
    oracle_dbscan,
    oracle_knn_distance,
    oracle_uncontracted_component_labels,
)


def pts1d(*xs):
    return PointSet(np.asarray(xs, dtype=float)[:, None])


# -- PointSet ----------------------------------------------------------------


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        PointSet(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PointSet(np.zeros(5))  # 1-D array is not n x d


def test_pointset_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    ps = PointSet(rng.normal(size=(17, 3)))
    path = tmp_path / "pts.csv"
    ps.to_csv(path)
    back = PointSet.from_csv(path)
    assert np.array_equal(back.points, ps.points)
    # blank lines are skipped; one column reads as d = 1
    path.write_text("\n1.5,2\n  \n-3, 4e-1\n\n")
    assert PointSet.from_csv(path).points.tolist() == [[1.5, 2.0], [-3.0, 0.4]]
    path.write_text("7\n8\n")
    assert PointSet.from_csv(path).points.tolist() == [[7.0], [8.0]]


# -- delta-graph pairs ---------------------------------------------------------


def brute_pairs(pts, r, closed):
    n = len(pts)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            d2 = float(((pts[j] - pts[i]) ** 2).sum())
            if (d2 <= r * r) if closed else (d2 < r * r):
                out.add((i, j))
    return out


def lattice_points(rng, d, side, n_dup):
    """Distinct integer-lattice points plus n_dup exact duplicates of some of them."""
    grid = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    base = grid[rng.random(len(grid)) < 0.7].astype(float)
    pts = np.concatenate([base, base[rng.integers(0, len(base), n_dup)]])
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_delta_pairs_match_brute_force(d):
    rng = np.random.default_rng(d)
    pts = rng.uniform(size=(80, d))
    for r in (0.2, 0.5):
        for closed in (True, False):
            got = _delta_pairs(pts, r, closed)
            assert got.shape[1] == 2 and np.all(got[:, 0] < got[:, 1])
            assert set(map(tuple, got.tolist())) == brute_pairs(pts, r, closed)
    lattice = lattice_points(rng, d, 3 if d == 5 else 4, 6)
    for closed in (True, False):
        got = _delta_pairs(lattice, 1.0, closed)
        assert set(map(tuple, got.tolist())) == brute_pairs(lattice, 1.0, closed)


def test_delta_pairs_exact_boundary_closed_vs_open():
    pts = np.array([[0.0], [1.0], [1.0]])
    assert _delta_pairs(pts, 1.0, closed=True).tolist() == [[0, 1], [0, 2], [1, 2]]
    assert _delta_pairs(pts, 1.0, closed=False).tolist() == [[1, 2]]  # only the duplicate pair


def test_delta_pairs_rejects_bad_delta():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            _delta_pairs(np.zeros((3, 2)), bad, closed=True)


# -- kNN and adaptive delta ---------------------------------------------------


def test_knn_distance_hand_example():
    ps = pts1d(0, 1, 3, 7)
    assert _knn_distance_at(cKDTree(ps.points), np.arange(ps.n), 1).tolist() == [1, 1, 2, 4]


def test_knn_distance_farthest_and_duplicates():
    ps = pts1d(0, 1, 3, 7)
    assert _knn_distance_at(cKDTree(ps.points), np.arange(ps.n), 3).tolist() == [7, 6, 4, 7]  # farthest other point
    dup = pts1d(2, 2, 5)
    assert _knn_distance_at(cKDTree(dup.points), np.arange(dup.n), 1).tolist() == [0, 0, 3]


def test_knn_distance_matches_oracle():
    rng = np.random.default_rng(42)
    for d in (1, 2, 3):
        pts = rng.normal(size=(60, d))
        ps = PointSet(pts)
        for k in (1, 3, 59):
            assert np.array_equal(_knn_distance_at(cKDTree(ps.points), np.arange(ps.n), k), oracle_knn_distance(pts, k))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_knn_distance_same_on_any_thread_count(workers, monkeypatch):
    # the query runs on cpu_count() threads from _THREADED_MIN_QUERIES points up
    rng = np.random.default_rng(44)
    pts = rng.normal(size=(500, 2))
    pts[250:] = pts[:250]  # duplicates: ties at distance 0
    ps = PointSet(pts)
    at = rng.choice(ps.n, size=300, replace=False)
    serial = _knn_distance_at(cKDTree(ps.points), at, 7)
    monkeypatch.setattr(levelset, "cpu_count", lambda: workers)
    monkeypatch.setattr(levelset, "_THREADED_MIN_QUERIES", 1)
    assert np.array_equal(_knn_distance_at(cKDTree(ps.points), at, 7), serial)
    assert np.array_equal(serial, oracle_knn_distance(pts, 7)[at])


def test_knn_distance_range_errors():
    ps = pts1d(0, 1, 2)
    with pytest.raises(ValueError):
        _knn_distance_at(cKDTree(ps.points), np.arange(ps.n), 0)
    with pytest.raises(ValueError):
        _knn_distance_at(cKDTree(ps.points), np.arange(ps.n), 3)


def test_default_k_values():
    assert default_k_levelset(40000) == 11  # ceil(ln 40000)
    assert default_k_dbscan(40000) == 16  # ceil(log2 40000)
    assert default_k_levelset(2) == 1
    assert default_k_dbscan(2) == 1


def test_adaptive_delta_hand_example():
    ps = pts1d(0, 1, 3, 7)
    cfg = AdaptiveDeltaConfig(k=1, gamma=0.25)
    assert adaptive_delta(ps, [0, 1, 2, 3], cfg) == 2.0  # 3rd smallest of (1,1,2,4)


def test_adaptive_delta_gamma_zero_is_max():
    ps = pts1d(0, 1, 3, 7)
    assert adaptive_delta(ps, [0, 1, 2, 3], AdaptiveDeltaConfig(k=1, gamma=0.0)) == 4.0


def test_adaptive_delta_single_active_point():
    ps = pts1d(0, 1, 3, 7)
    assert adaptive_delta(ps, [3], AdaptiveDeltaConfig(k=1, gamma=0.25)) == 4.0


def test_adaptive_delta_of_zero_is_a_config_error():
    # points 0..2 share one coordinate, so each has k = 2 others at distance 0
    ps = pts1d(0, 0, 0, 5)
    with pytest.raises(ConfigError, match=r"k=2 and gamma=0\.25.*larger --k or a fixed --delta"):
        adaptive_delta(ps, [0, 1, 2, 3], AdaptiveDeltaConfig(k=2, gamma=0.25))
    # the 4th smallest of (0, 0, 0, 5) is positive
    assert adaptive_delta(ps, [0, 1, 2, 3], AdaptiveDeltaConfig(k=2, gamma=0.0)) == 5.0


def test_adaptive_delta_empty_active_errors():
    ps = pts1d(0, 1, 3)
    with pytest.raises(ValueError):
        adaptive_delta(ps, [], AdaptiveDeltaConfig(k=1))


@pytest.mark.parametrize("bad", [
    [-1],  # not the last point
    [2.5],  # not point 2
    [0, 4],  # one past the last point
    [True, False, True, True],  # a mask, not indices 1, 0, 1, 1
    np.array([[0, 1]]),
])
def test_bad_active_input_is_a_value_error(bad):
    ps = pts1d(0, 1, 3, 7)
    with pytest.raises(ValueError):
        adaptive_delta(ps, bad, AdaptiveDeltaConfig(k=1))
    with pytest.raises(ValueError):
        active_set_components(ps, bad, 1.5)


def test_active_duplicates_count_once():
    ps = pts1d(0, 1, 3, 7)
    cfg = AdaptiveDeltaConfig(k=1, gamma=0.5)
    # distances 1 and 4: the 1st smallest of two, not the 2nd of (1, 4, 4, 4)
    assert adaptive_delta(ps, [3, 3, 3, 0], cfg) == adaptive_delta(ps, [0, 3], cfg) == 1.0
    assert active_set_components(ps, [2, 0, 0, 1, 2], 1.5) == active_set_components(ps, [0, 1, 2], 1.5)


def test_adaptive_delta_config_validation():
    with pytest.raises(ValueError):
        AdaptiveDeltaConfig(gamma=1.0)
    with pytest.raises(ValueError):
        AdaptiveDeltaConfig(k=0)
    ps = pts1d(0, 1)
    with pytest.raises(ValueError):
        adaptive_delta(ps, [0], AdaptiveDeltaConfig(k=5))


# -- surrogate clustering ------------------------------------------------------


def test_surrogate_hand_example():
    ps = pts1d(0.0, 0.1, 1.0)
    got = surrogate_cluster(ps, [1.0, 1.0, 1.0], lam=0.5, delta=0.2)
    assert got == SubPartition([1, 1, 2])


def test_surrogate_lambda_above_max_all_noise():
    ps = pts1d(0.0, 0.1, 1.0)
    got = surrogate_cluster(ps, [1.0, 1.0, 1.0], lam=2.0, delta=0.2)
    assert not got.labels_array.any()


def test_surrogate_strict_edges_at_exact_delta():
    ps = pts1d(0.0, 1.0)
    open_sp = surrogate_cluster(ps, [1.0, 1.0], lam=0.0, delta=1.0)
    closed_sp = surrogate_cluster(ps, [1.0, 1.0], lam=0.0, delta=1.0, closed_edges=True)
    assert open_sp == SubPartition([1, 2])
    assert closed_sp == SubPartition([1, 1])


def test_surrogate_matches_closure_oracle():
    rng = np.random.default_rng(100)
    for d in (1, 2, 3, 5):
        for trial in range(6):
            n = int(rng.integers(20, 200))
            pts = rng.uniform(size=(n, d))
            ps = PointSet(pts)
            dens = rng.uniform(size=n)
            lam = float(rng.uniform(0.2, 0.8))
            delta = float(rng.uniform(0.5, 2.0)) * n ** (-1.0 / d)
            for closed in (False, True):
                got = surrogate_cluster(ps, dens, lam, delta, closed_edges=closed)
                active = np.flatnonzero(dens >= lam)
                expect = oracle_components(pts, active, delta, closed=closed)
                assert got == SubPartition(expect)


def test_components_at_exact_delta_ties():
    # integer lattice with delta = 1: every axis neighbour sits exactly on the
    # boundary, so open and closed edges give different graphs; duplicates
    # are at distance 0 and joined under both conventions
    rng = np.random.default_rng(103)
    for d in (1, 2, 3):
        for trial in range(4):
            pts = lattice_points(rng, d, {1: 12, 2: 6, 3: 4}[d], 5)
            ps = PointSet(pts)
            dens = rng.uniform(size=len(pts))
            for closed in (False, True):
                expect = oracle_components(pts, np.flatnonzero(dens >= 0.3), 1.0, closed=closed)
                assert surrogate_cluster(ps, dens, 0.3, 1.0, closed_edges=closed) == SubPartition(expect)
                active = rng.permutation(np.flatnonzero(dens >= 0.5))
                expect = oracle_components(pts, np.sort(active), 1.0, closed=closed)
                assert active_set_components(ps, active, 1.0, closed_edges=closed) == SubPartition(expect)


def test_surrogate_monotone_in_lambda_active_sets():
    rng = np.random.default_rng(101)
    pts = rng.uniform(size=(120, 2))
    ps = PointSet(pts)
    dens = rng.uniform(size=120)
    prev_active = None
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        active = set(np.flatnonzero(surrogate_cluster(ps, dens, lam, 0.1).labels_array).tolist())
        if prev_active is not None:
            assert active <= prev_active
        prev_active = active


def test_surrogate_cluster_count_nonincreasing_in_delta():
    rng = np.random.default_rng(102)
    pts = rng.uniform(size=(100, 2))
    ps = PointSet(pts)
    dens = rng.uniform(size=100)
    ks = [surrogate_cluster(ps, dens, 0.4, delta).k for delta in (0.02, 0.05, 0.1, 0.2, 0.4)]
    assert all(k2 <= k1 for k1, k2 in zip(ks, ks[1:]))


def test_surrogate_input_validation():
    ps = pts1d(0, 1)
    with pytest.raises(ValueError):
        surrogate_cluster(ps, [1.0], 0.5, 0.1)  # wrong length
    with pytest.raises(ValueError):
        surrogate_cluster(ps, [1.0, float("nan")], 0.5, 0.1)
    with pytest.raises(ValueError):
        surrogate_cluster(ps, [1.0, 1.0], 0.5, 0.0)


def test_neighborhood_graph_strict_and_components():
    ps = pts1d(0.0, 0.1, 0.2, 1.0)
    assert _delta_pairs(ps.points, 0.15, closed=False).tolist() == [[0, 1], [1, 2]]
    assert active_set_components(ps, [0, 1, 2, 3], delta=0.15) == SubPartition([1, 1, 1, 2])
    assert active_set_components(ps, [0, 2, 3], delta=0.15) == SubPartition([1, 0, 2, 3])


@st.composite
def mask_stacks(draw):
    """Integer-lattice points with exact duplicates, the delta = 1 pair list of
    every point under the open or the closed graph (so the lattice's axis
    neighbours sit exactly at delta), and a stack of up to 12 masks: each row
    empty, all active or random, over the points that are not always
    inactive, unioned with a random core of those points that is active in
    every row. So the shared graph the engine contracts has components of
    several nodes, exact-delta pairs and duplicate points among them."""
    d = draw(st.integers(1, 2))
    side = draw(st.integers(2, {1: 12, 2: 5}[d]))
    grid = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    keep = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    base = grid[np.asarray(keep, dtype=bool)].astype(float)
    if len(base) == 0:
        base = grid[:1].astype(float)
    dups = draw(st.lists(st.integers(0, len(base) - 1), max_size=4))
    pts = np.concatenate([base, base[dups]])
    pts = pts[np.asarray(draw(st.permutations(range(len(pts)))), dtype=int)]
    n = len(pts)
    closed = draw(st.booleans())
    dead = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    core = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool) & ~dead
    rows = []
    for kind in draw(st.lists(st.sampled_from(["empty", "all", "random"]), min_size=1, max_size=12)):
        if kind == "empty":
            rows.append(np.zeros(n, dtype=bool))
        elif kind == "all":
            rows.append(~dead)
        else:
            rows.append(np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool) & ~dead)
    return pts, closed, np.stack(rows) | core


@settings(max_examples=300, deadline=None)
@given(mask_stacks(), st.integers(2, 4))
def test_component_engine_matches_coo_engine_and_closure(instance, rows_per_chunk):
    """However the chunk bound splits a stack (one row a call, a few nodes, a
    few rows with a partial last chunk, or the default), each row is labelled
    as the closure, the per-mask COO engine and the uncontracted engine label
    it, and inactive points are exactly 0; so is a mask given alone, (n,) or
    as a one-row stack."""
    pts, closed, masks = instance
    n = len(pts)
    # the pairs of every point, so some touch points that no row activates
    pairs = _delta_pairs(pts, 1.0, closed)
    live = masks.any(axis=0)
    entries = int(live.sum()) + int(np.count_nonzero(live[pairs[:, 0]] & live[pairs[:, 1]]))
    expect = []
    for mask in masks:
        want = SubPartition(oracle_components(pts, np.flatnonzero(mask), 1.0, closed=closed))
        assert SubPartition(oracle_coo_component_labels(n, pairs, mask)) == want
        assert SubPartition(_component_labels(n, pairs, mask[None, :])[0]) == want
        expect.append(want)
    for limit in (1, 7, rows_per_chunk * entries, levelset._CHUNK_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(levelset, "_CHUNK_ENTRIES", limit)
            stacked = _component_labels(n, pairs, masks)
            alone = [_component_labels(n, pairs, mask) for mask in masks]
            uncontracted = oracle_uncontracted_component_labels(n, pairs, masks)
        assert stacked.shape == masks.shape
        for mask, got, one, old, want in zip(masks, stacked, alone, uncontracted, expect):
            assert np.array_equal(got != 0, mask)
            assert SubPartition(got) == SubPartition(old)
            assert SubPartition(got) == want
            assert one.shape == (n,)
            assert np.array_equal(one != 0, mask)
            assert SubPartition(one) == want


@settings(max_examples=300, deadline=None)
@given(mask_stacks(), st.booleans())
def test_mask_components_labels_each_row_as_the_closure(instance, ladder):
    """One pair list on the points some row holds and one engine call label
    every row of a stack as the closure labels that row alone, under the
    open and the closed graph; so is a mask given alone. As a ladder, the
    rows are the nested level sets of the stack's activation counts, lowest
    level first: the first row is the union and the last the shared set."""
    pts, closed, masks = instance
    if ladder:
        masks = masks.sum(axis=0) >= np.arange(1, len(masks) + 1)[:, None]
    ps = PointSet(pts)
    got = _mask_components(ps, masks, 1.0, closed)
    assert got.shape == masks.shape
    for mask, row in zip(masks, got):
        assert np.array_equal(row != 0, mask)
        assert SubPartition(row) == SubPartition(oracle_components(pts, np.flatnonzero(mask), 1.0, closed=closed))
    one = _mask_components(ps, masks[-1], 1.0, closed)
    assert one.shape == (len(pts),)
    assert SubPartition(one) == SubPartition(got[-1])


def _spy_calls(monkeypatch) -> list:
    """(nodes, stored pairs) of every connected_components call the engine makes."""
    graphs = []
    real = levelset.connected_components

    def spy(graph, directed):
        graphs.append((graph.shape[0], graph.nnz))
        return real(graph, directed=directed)

    monkeypatch.setattr(levelset, "connected_components", spy)
    return graphs


@pytest.mark.parametrize(
    "n, delta, limit",
    [
        (5000, 1e-9, None),  # rows that share no pair, chunked by their nodes
        (300, 0.08, None),  # the default bound, many rows a call
        (300, 0.08, 3000),  # two rows a call
        (300, 0.08, 1),  # one row alone passes the bound
    ],
)
def test_component_engine_graph_stays_within_chunk_bound(n, delta, limit, monkeypatch):
    """Each connected_components call that labels rows holds at most
    _CHUNK_ENTRIES nodes plus pairs of the contracted graph, unless it labels
    one row, and those calls cover every row once. At most one more call, the
    first, labels the shared graph: the points active in every row and the
    pairs between two of them."""
    rng = np.random.default_rng(31)
    pts = rng.uniform(size=(n, 2))
    # a core of points active in every row, so that the rows share a graph
    masks = (rng.uniform(size=(40, n)) < 0.6) | (rng.uniform(size=n) < 0.3)
    pairs = _delta_pairs(pts, delta, closed=False)
    if limit is not None:
        monkeypatch.setattr(levelset, "_CHUNK_ENTRIES", limit)
    limit = levelset._CHUNK_ENTRIES
    live, shared = masks.any(axis=0), masks.all(axis=0)
    inner = shared[pairs[:, 0]] & shared[pairs[:, 1]]
    rest = live[pairs[:, 0]] & live[pairs[:, 1]] & ~inner
    # one node per component of the shared graph, plus every other live point
    core = oracle_coo_component_labels(n, pairs, shared)
    m = np.unique(core[shared]).size + int(np.count_nonzero(live & ~shared))
    rows_per_call = max(1, limit // (m + int(rest.sum())))
    graphs = _spy_calls(monkeypatch)
    labels = _component_labels(n, pairs, masks)
    if inner.any():
        assert graphs.pop(0) == (int(shared.sum()), int(inner.sum()))
    assert sum(nodes for nodes, _ in graphs) == len(masks) * m
    for nodes, edges in graphs:
        assert nodes % m == 0
        assert nodes + edges <= limit or nodes == m
    assert len(graphs) == -(-len(masks) // rows_per_call)
    for mask, got in zip(masks, labels):
        assert SubPartition(got) == SubPartition(oracle_coo_component_labels(n, pairs, mask))


def _lattice_instance(rows: int, seed: int):
    """A 12 x 12 integer lattice, its delta = 1 closed pairs (axis neighbours
    at exactly delta) and `rows` random masks over it."""
    grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0), indexing="ij"), axis=-1).reshape(-1, 2)
    masks = np.random.default_rng(seed).uniform(size=(rows, len(grid))) < 0.7
    return len(grid), _delta_pairs(grid, 1.0, closed=True), masks


def test_component_engine_zero_row_stack(monkeypatch):
    """A stack of no rows, where every point is vacuously active in all of
    them, labels nothing and keeps its shape."""
    n, pairs, masks = _lattice_instance(0, 1)
    graphs = _spy_calls(monkeypatch)
    labels = _component_labels(n, pairs, masks)
    assert labels.shape == (0, n)
    assert graphs == []


def test_component_engine_contracts_identical_rows_whole(monkeypatch):
    """Identical rows are all shared graph: one call labels it, and the row
    calls see its components only, with no pair left."""
    n, pairs, masks = _lattice_instance(1, 2)
    masks = np.repeat(masks, 6, axis=0)
    within = masks[0][pairs[:, 0]] & masks[0][pairs[:, 1]]
    want = SubPartition(oracle_coo_component_labels(n, pairs, masks[0]))
    assert within.any() and want.k > 1
    graphs = _spy_calls(monkeypatch)
    labels = _component_labels(n, pairs, masks)
    assert graphs[0] == (int(masks[0].sum()), int(within.sum()))
    assert sum(nodes for nodes, _ in graphs[1:]) == len(masks) * want.k
    assert all(edges == 0 for _, edges in graphs[1:])
    for got in labels:
        assert SubPartition(got) == want


def test_component_engine_without_shared_points_makes_no_shared_call(monkeypatch):
    """When no point is active in every row, nothing is contracted: every
    call labels rows on all the live points."""
    n, pairs, masks = _lattice_instance(5, 3)
    masks[np.arange(n) % len(masks), np.arange(n)] = False
    live = masks.any(axis=0)
    assert not masks.all(axis=0).any()
    graphs = _spy_calls(monkeypatch)
    labels = _component_labels(n, pairs, masks)
    assert sum(nodes for nodes, _ in graphs) == len(masks) * int(live.sum())
    assert all(nodes % int(live.sum()) == 0 for nodes, _ in graphs)
    for got, old in zip(labels, oracle_uncontracted_component_labels(n, pairs, masks)):
        assert SubPartition(got) == SubPartition(old)


@pytest.mark.parametrize("stacked", [False, True])
def test_component_engine_labels_one_row_in_one_call(stacked, monkeypatch):
    """One mask, alone or as a one-row stack (DBSCAN*, the plugin, a level
    set, the ball's bounds), is labelled by exactly one call, although all of
    it is shared graph."""
    n, pairs, masks = _lattice_instance(1, 4)
    mask = masks[0]
    within = mask[pairs[:, 0]] & mask[pairs[:, 1]]
    assert within.any()
    graphs = _spy_calls(monkeypatch)
    got = _component_labels(n, pairs, masks if stacked else mask)
    assert graphs == [(int(mask.sum()), int(within.sum()))]
    assert got.shape == (masks.shape if stacked else (n,))
    assert SubPartition(got.reshape(n)) == SubPartition(oracle_coo_component_labels(n, pairs, mask))


# -- DBSCAN -------------------------------------------------------------------


def test_dbscan_star_single_cluster():
    rng = np.random.default_rng(7)
    ps = PointSet(rng.uniform(size=(20, 2)) * 0.1)
    got = dbscan_star(ps, eps=1.0, min_pts=1)
    assert got == SubPartition([1] * 20)


def test_dbscan_star_min_pts_above_n_all_noise():
    ps = pts1d(0, 1, 2)
    assert not dbscan_star(ps, eps=10.0, min_pts=4).labels_array.any()


def test_dbscan_matches_pairwise_oracle():
    rng = np.random.default_rng(10)
    for trial in range(12):
        if trial % 2:
            pts = lattice_points(rng, 2, 7, 6)
            eps = 1.0
        else:
            pts = rng.uniform(size=(int(rng.integers(30, 120)), 2))
            eps = float(rng.uniform(0.05, 0.2))
        ps = PointSet(pts)
        min_pts = int(rng.integers(1, 7))
        star = dbscan_star(ps, eps, min_pts)
        assert star == SubPartition(oracle_dbscan(pts, eps, min_pts))


def test_dbscan_param_validation():
    ps = pts1d(0, 1)
    with pytest.raises(ValueError):
        dbscan_star(ps, 0.0, 1)
    with pytest.raises(ValueError):
        dbscan_star(ps, 1.0, 0)


# -- constants ----------------------------------------------------------------


def test_unit_ball_volume():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)
    with pytest.raises(ValueError):
        unit_ball_volume(0)

