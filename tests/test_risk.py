import json
import math

import numpy as np
import pytest

import ballet.risk as risk_mod
from ballet.errors import DataIOError, InfeasibleError, NumericError
from ballet.levelset import PointSet
from ballet.risk import (
    BalletResult,
    CoClusteringStats,
    DensityDrawEnsemble,
    SearchConfig,
    ballet_estimate,
    draw_clusterings,
    empirical_risk,
    incremental_best_assignment,
    plugin_estimate,
    precompute_stats,
    search,
)
from ballet.subpartition import (
    LossParams,
    SubPartition,
    enumerate_subpartitions,
    ia_binder_loss,
)

from oracles import oracle_components, oracle_ia_binder_loss, random_subpartition


def random_draws(rng, n, S, max_k=3):
    return [random_subpartition(rng, n, max_k=max_k) for _ in range(S)]


def averaged_loss(c, clusterings, p=LossParams()):
    """Mean loss from each draw clustering to the candidate (draw first)."""
    return sum(
        oracle_ia_binder_loss(d.labels, c.labels, p.a, p.b, p.m_ai, p.m_ia)
        for d in clusterings
    ) / len(clusterings)


# -- ensemble container --------------------------------------------------------


def test_ensemble_basic_properties():
    e = DensityDrawEnsemble([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    assert e.S == 2 and e.n == 3
    assert np.array_equal(e.posterior_mean(), [2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        e.values[0, 0] = 5.0


def test_ensemble_rejects_bad_values():
    with pytest.raises(NumericError):
        DensityDrawEnsemble([[1.0, -0.5]])
    with pytest.raises(NumericError):
        DensityDrawEnsemble([[1.0, math.nan]])
    with pytest.raises(NumericError):
        DensityDrawEnsemble([[math.inf, 1.0]])
    with pytest.raises(ValueError):
        DensityDrawEnsemble([1.0, 2.0])
    with pytest.raises(ValueError):
        DensityDrawEnsemble(np.empty((0, 3)))


def test_ensemble_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    vals = rng.random((5, 11))
    e = DensityDrawEnsemble(vals)
    path = tmp_path / "draws.bin"
    e.save(path)
    back = DensityDrawEnsemble.load(path)
    assert back.values.dtype == np.float64
    assert np.array_equal(back.values, e.values)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["S"] == 5 and header["n"] == 11 and header["dtype"] == "<f8"


def test_ensemble_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    e = DensityDrawEnsemble(rng.random((3, 4)))
    path = tmp_path / "draws.csv"
    e.save(path)
    back = DensityDrawEnsemble.load(path)
    assert np.array_equal(back.values, e.values)


def test_ensemble_load_errors(tmp_path):
    path = tmp_path / "bad.bin"
    e = DensityDrawEnsemble([[1.0, 2.0], [3.0, 4.0]])
    e.save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(DataIOError):
        DensityDrawEnsemble.load(path)
    garbled = tmp_path / "garbled.bin"
    garbled.write_bytes(b"not json\x00\n1234")
    with pytest.raises(DataIOError):
        DensityDrawEnsemble.load(garbled)
    with pytest.raises(DataIOError):
        DensityDrawEnsemble.load(tmp_path / "missing.bin")
    empty_csv = tmp_path / "empty.csv"
    empty_csv.write_text("")
    with pytest.raises(DataIOError):
        DensityDrawEnsemble.load(empty_csv)


@pytest.mark.parametrize(
    "header",
    [
        b"[1,2]",
        b"null",
        b'{"S":2,"dtype":"<f8","n":2,"schema":"other/v1"}',
        b'{"S":2,"dtype":">f8","n":2,"schema":"ballet/ensemble/v1"}',
        b'{"S":2,"n":2,"schema":"ballet/ensemble/v1"}',
        b'{"S":0,"dtype":"<f8","n":0,"schema":"ballet/ensemble/v1"}',
        b'{"S":-2,"dtype":"<f8","n":-2,"schema":"ballet/ensemble/v1"}',
        b'{"S":null,"dtype":"<f8","n":2,"schema":"ballet/ensemble/v1"}',
        b'{"S":2.5,"dtype":"<f8","n":2,"schema":"ballet/ensemble/v1"}',
    ],
    ids=["list", "null", "schema", "big_endian", "no_dtype", "zero", "negative", "null_S", "float_S"],
)
def test_ensemble_load_rejects_bad_header(tmp_path, header):
    path = tmp_path / "bad.bin"
    path.write_bytes(header + b"\n" + np.ones(4, dtype="<f8").tobytes())
    with pytest.raises(DataIOError):
        DensityDrawEnsemble.load(path)


# -- draw clusterings ----------------------------------------------------------


def test_draw_clusterings_matches_per_draw_surrogate():
    ps = PointSet(np.array([[0.0], [1.0], [5.0], [6.0]]))
    vals = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 0.0, 0.0, 1.0],
    ])
    e = DensityDrawEnsemble(vals)
    cs = draw_clusterings(ps, e, lam=0.5, delta=1.5)
    assert cs[0].labels == (1, 1, 2, 2)
    assert cs[1].labels == (1, 0, 0, 2)


def test_draw_clusterings_match_oracle_draw_by_draw():
    rng = np.random.default_rng(12)
    for trial in range(8):
        if trial % 2:
            # lattice with duplicates at delta = 1: exact-delta ties
            pts = rng.integers(0, 6, size=(60, 2)).astype(float)
            delta = 1.0
        else:
            pts = rng.uniform(size=(int(rng.integers(20, 120)), 3))
            delta = float(rng.uniform(0.1, 0.3))
        ps = PointSet(pts)
        e = DensityDrawEnsemble(rng.uniform(size=(6, len(pts))))
        lam = float(rng.uniform(0.2, 0.8))
        for closed in (False, True):
            cs = draw_clusterings(ps, e, lam, delta, closed_edges=closed)
            assert len(cs) == e.S
            for s, c in enumerate(cs):
                expect = oracle_components(pts, np.flatnonzero(e.values[s] >= lam), delta, closed=closed)
                assert c == SubPartition(expect)
    # no point active in any draw: all noise, and delta is still validated
    e = DensityDrawEnsemble(np.zeros((2, 4)))
    ps = PointSet(np.zeros((4, 1)))
    assert all(c.is_all_noise for c in draw_clusterings(ps, e, 0.5, 1.0))
    with pytest.raises(ValueError):
        draw_clusterings(ps, e, 0.5, 0.0)


def test_draw_clusterings_alignment_error():
    ps = PointSet(np.array([[0.0], [1.0]]))
    e = DensityDrawEnsemble([[1.0, 1.0, 1.0]])
    with pytest.raises(InfeasibleError):
        draw_clusterings(ps, e, lam=0.5, delta=1.0)


# -- co-clustering statistics --------------------------------------------------


def two_draw_fixture():
    return [SubPartition([1, 1]), SubPartition([1, 0])]


def test_stats_two_draw_fixture():
    stats = precompute_stats(two_draw_fixture())
    assert stats.S == 2 and stats.n == 2
    assert np.array_equal(stats.alpha, [1.0, 0.5])
    assert stats.pi1(0, 1) == 0.5
    assert stats.pi1(1, 0) == 0.5
    assert stats.pi2(0, 1) == 0.0


def test_stats_diagonal_rejected():
    stats = precompute_stats(two_draw_fixture())
    with pytest.raises(ValueError):
        stats.pi1(1, 1)
    with pytest.raises(ValueError):
        stats.pi2(0, 0)


def test_stats_off_support_pairs_are_zero():
    draws = [SubPartition([1, 0, 1]), SubPartition([1, 0, 0])]
    stats = precompute_stats(draws)
    assert stats.alpha[1] == 0.0
    assert stats.pi1(0, 1) == 0.0
    assert stats.pi2(1, 2) == 0.0


def test_stats_input_validation():
    with pytest.raises(ValueError):
        precompute_stats([])
    with pytest.raises(ValueError):
        precompute_stats([SubPartition([1, 1]), SubPartition([1, 1, 0])])


def test_stats_matrices_match_accessors_and_invariants():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        S = int(rng.integers(1, 7))
        draws = random_draws(rng, n, S)
        stats = precompute_stats(draws)
        m1 = stats.pi1_matrix()
        m2 = stats.pi2_matrix()
        assert np.array_equal(m1, m1.T) and np.array_equal(m2, m2.T)
        assert np.all(np.diag(m1) == 0) and np.all(np.diag(m2) == 0)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                assert m1[i, j] == stats.pi1(i, j)
                assert m2[i, j] == stats.pi2(i, j)
                cap = min(stats.alpha[i], stats.alpha[j])
                assert m1[i, j] + m2[i, j] <= cap + 1e-15
        # frequencies are exact multiples of 1/S
        assert np.allclose((m1 * S) % 1.0, 0.0, atol=1e-12)
        assert np.allclose((m2 * S) % 1.0, 0.0, atol=1e-12)


def test_stats_direct_count_check():
    rng = np.random.default_rng(12)
    n, S = 7, 5
    draws = random_draws(rng, n, S)
    stats = precompute_stats(draws)
    for i in range(n):
        active = sum(d.labels[i] != 0 for d in draws)
        assert stats.alpha[i] == active / S
        for j in range(i + 1, n):
            together = sum(
                d.labels[i] != 0 and d.labels[j] != 0 and d.labels[i] == d.labels[j]
                for d in draws
            )
            apart = sum(
                d.labels[i] != 0 and d.labels[j] != 0 and d.labels[i] != d.labels[j]
                for d in draws
            )
            assert stats.pi1(i, j) == together / S
            assert stats.pi2(i, j) == apart / S


# -- empirical risk ------------------------------------------------------------


def test_risk_two_draw_fixture_value():
    stats = precompute_stats(two_draw_fixture())
    assert empirical_risk(SubPartition([1, 1]), stats) == 0.25
    assert empirical_risk(SubPartition([1, 0]), stats) == 0.25
    assert empirical_risk(SubPartition([0, 0]), stats) == 0.75
    assert empirical_risk(SubPartition([1, 2]), stats) == 0.75


def test_risk_equals_averaged_loss():
    rng = np.random.default_rng(13)
    params = [LossParams(), LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6)]
    for trial in range(60):
        n = int(rng.integers(2, 11))
        S = int(rng.integers(1, 8))
        draws = random_draws(rng, n, S, max_k=4)
        stats = precompute_stats(draws)
        c = random_subpartition(rng, n, max_k=4)
        p = params[trial % 2]
        assert empirical_risk(c, stats, p) == pytest.approx(averaged_loss(c, draws, p), abs=1e-12)


def test_risk_all_noise_closed_form():
    rng = np.random.default_rng(14)
    draws = random_draws(rng, 9, 6)
    stats = precompute_stats(draws)
    n = 9
    expect = (n - 1) * 0.5 * float(stats.alpha.sum())
    assert empirical_risk(SubPartition.all_noise(n), stats) == pytest.approx(expect, abs=1e-12)


def test_risk_size_mismatch():
    stats = precompute_stats(two_draw_fixture())
    with pytest.raises(ValueError):
        empirical_risk(SubPartition([1, 1, 0]), stats)


def test_risk_packed_path_matches_dense_cache(monkeypatch):
    rng = np.random.default_rng(15)
    draws = random_draws(rng, 12, 5)
    cands = [random_subpartition(rng, 12) for _ in range(10)]
    stats_dense = precompute_stats(draws)
    assert stats_dense._d1 is not None
    monkeypatch.setattr(risk_mod, "_DENSE_CACHE_LIMIT", 0)
    stats_packed = precompute_stats(draws)
    assert stats_packed._d1 is None
    for c in cands:
        a = empirical_risk(c, stats_dense)
        b = empirical_risk(c, stats_packed)
        assert a == pytest.approx(b, abs=1e-12)


# -- incremental assignment ----------------------------------------------------


def restricted_risk(labels, stats, p):
    """Risk of a prefix assignment, sums restricted to the assigned points."""
    t = len(labels)
    n = stats.n
    total = 0.0
    for i in range(t):
        if labels[i] == 0:
            total += (n - 1) * p.m_ai * stats.alpha[i]
        else:
            total += (n - 1) * p.m_ia * (1.0 - stats.alpha[i])
    for i in range(t):
        for j in range(i + 1, t):
            if labels[i] != 0 and labels[j] != 0:
                if labels[i] != labels[j]:
                    total += p.a * stats.pi1(i, j)
                else:
                    total += p.b * stats.pi2(i, j)
    return total


def test_incremental_first_point_noise_iff_alpha_at_most_half():
    # alpha for point 0 is 0.5: exact tie, broken towards noise
    draws = [SubPartition([1, 1, 0]), SubPartition([0, 1, 0])]
    stats = precompute_stats(draws)
    out = incremental_best_assignment(SubPartition([]), 0, stats)
    assert out.labels == (0,)
    # alpha 1.0: active singleton wins
    draws = [SubPartition([1, 1, 0]), SubPartition([1, 1, 0])]
    stats = precompute_stats(draws)
    out = incremental_best_assignment(SubPartition([]), 0, stats)
    assert out.labels == (1,)


def test_incremental_prefix_contract():
    stats = precompute_stats(two_draw_fixture())
    with pytest.raises(ValueError):
        incremental_best_assignment(SubPartition([1]), 0, stats)
    with pytest.raises(ValueError):
        incremental_best_assignment(SubPartition([1, 0]), 2, stats)


def test_incremental_minimizes_restricted_risk():
    rng = np.random.default_rng(16)
    p = LossParams()
    for _ in range(40):
        n = int(rng.integers(2, 8))
        draws = random_draws(rng, n, int(rng.integers(1, 6)))
        stats = precompute_stats(draws)
        t = int(rng.integers(0, n))
        partial = random_subpartition(rng, t) if t else SubPartition([])
        out = incremental_best_assignment(partial, t, stats, p)
        assert out.n == t + 1
        assert out.labels[:t] == partial.labels
        got = restricted_risk(list(out.labels), stats, p)
        k = partial.k
        best = math.inf
        best_label = None
        for cand in [0, k + 1] + list(range(1, k + 1)):
            r = restricted_risk(list(partial.labels) + [cand], stats, p)
            if r < best - 1e-15:
                best = r
                best_label = cand
        assert got == pytest.approx(best, abs=1e-12)
        # tie order: noise, then new cluster, then clusters by ascending id
        if best_label is not None:
            assert restricted_risk(list(partial.labels) + [best_label], stats, p) >= got - 1e-12


# -- search --------------------------------------------------------------------


def brute_force_min(draws, p=LossParams()):
    n = draws[0].n
    best = math.inf
    for cand in enumerate_subpartitions(n):
        r = averaged_loss(cand, draws, p)
        best = min(best, r)
    return best


def test_search_finds_brute_force_optimum_on_small_instances():
    rng = np.random.default_rng(17)
    cfg = SearchConfig(n_restarts=16, seed=3)
    hits = 0
    trials = 25
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        S = int(rng.integers(1, 7))
        draws = random_draws(rng, n, S)
        stats = precompute_stats(draws)
        est = search(stats, cfg=cfg, seeds=draws)
        r = empirical_risk(est, stats)
        target = brute_force_min(draws)
        assert r >= target - 1e-12
        if r <= target + 1e-12:
            hits += 1
    assert hits >= trials - 1


def test_search_never_above_draws_or_all_noise():
    rng = np.random.default_rng(18)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        draws = random_draws(rng, n, int(rng.integers(2, 9)))
        stats = precompute_stats(draws)
        est = search(stats, cfg=SearchConfig(n_restarts=4, seed=0), seeds=draws)
        r = empirical_risk(est, stats)
        baseline = min(
            [empirical_risk(SubPartition.all_noise(n), stats)]
            + [empirical_risk(d, stats) for d in draws]
        )
        assert r <= baseline + 1e-12


def test_search_two_draw_fixture():
    draws = two_draw_fixture()
    stats = precompute_stats(draws)
    est = search(stats, cfg=SearchConfig(seed=1), seeds=draws)
    assert empirical_risk(est, stats) == 0.25


def test_search_deterministic():
    rng = np.random.default_rng(19)
    draws = random_draws(rng, 10, 6)
    stats = precompute_stats(draws)
    cfg = SearchConfig(n_restarts=6, seed=42)
    a = search(stats, cfg=cfg, seeds=draws)
    b = search(stats, cfg=cfg, seeds=draws)
    assert a.labels == b.labels


def test_search_seed_size_mismatch():
    stats = precompute_stats(two_draw_fixture())
    with pytest.raises(ValueError):
        search(stats, seeds=[SubPartition([1, 0, 0])])


def test_search_all_noise_draws():
    stats = precompute_stats([SubPartition.all_noise(5) for _ in range(3)])
    est = search(stats, cfg=SearchConfig(seed=0))
    assert est.is_all_noise
    assert empirical_risk(est, stats) == 0.0


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n_restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(n_sweeten_passes=0)
    with pytest.raises(ValueError):
        SearchConfig(n_zealous_attempts=-1)


# -- plugin and pipeline -------------------------------------------------------


def test_plugin_estimate_uses_posterior_mean():
    ps = PointSet(np.array([[0.0], [1.0], [5.0]]))
    vals = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    e = DensityDrawEnsemble(vals)
    # mean density is 0.5 at points 0, 1 and 1.0 at point 2
    est = plugin_estimate(ps, e, lam=0.75, delta=2.0)
    assert est.labels == (0, 0, 1)
    est2 = plugin_estimate(ps, e, lam=0.5, delta=2.0)
    assert est2.labels == (1, 1, 2)
    with pytest.raises(InfeasibleError):
        plugin_estimate(PointSet(np.zeros((2, 1))), e, lam=0.5, delta=1.0)


def test_ballet_estimate_pipeline():
    rng = np.random.default_rng(20)
    pts = np.concatenate([rng.normal(0.0, 0.3, (20, 2)), rng.normal(4.0, 0.3, (20, 2))])
    ps = PointSet(pts)
    base = np.ones(40)
    vals = np.stack([base + 0.01 * rng.random(40) for _ in range(8)])
    e = DensityDrawEnsemble(vals)
    res = ballet_estimate(ps, e, lam=0.5, delta=1.0, cfg=SearchConfig(n_restarts=4, seed=0))
    assert isinstance(res, BalletResult)
    assert len(res.clusterings) == 8
    assert res.risk == pytest.approx(empirical_risk(res.estimate, res.stats), abs=1e-15)
    # two well-separated blobs, every draw clusters them identically
    assert res.estimate.k == 2
    assert res.risk == pytest.approx(0.0, abs=1e-12)
