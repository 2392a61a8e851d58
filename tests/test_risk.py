import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballet.risk as risk_mod
from ballet.errors import DataIOError, InfeasibleError, NumericError, SearchPassCapWarning
from ballet.levelset import PointSet
from ballet.risk import (
    BalletResult,
    CoClusteringStats,
    DensityDrawEnsemble,
    SearchConfig,
    ballet_estimate,
    draw_clusterings,
    empirical_risk,
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

from oracles import (
    oracle_best_assignment,
    oracle_components,
    oracle_ia_binder_loss,
    oracle_pair_frequencies,
    oracle_search,
    random_subpartition,
)


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


def as_float(x):
    return np.asarray(x, dtype=float)


def test_stats_two_draw_fixture():
    stats = precompute_stats(two_draw_fixture())
    assert stats.S == 2 and stats.n == 2
    assert np.array_equal(stats.alpha, [1.0, 0.5])
    assert np.array_equal(stats.support, [0, 1])
    assert np.array_equal(stats.draw_labels, [[1, 1], [1, 0]])
    alpha, pi1, pi2 = oracle_pair_frequencies(two_draw_fixture())
    assert np.array_equal(as_float(alpha), stats.alpha)
    assert pi1[0, 1] == pi1[1, 0] == Fraction(1, 2)
    assert pi2[0, 1] == 0


def test_stats_off_support_pairs_are_zero():
    draws = [SubPartition([1, 0, 1]), SubPartition([1, 0, 0])]
    stats = precompute_stats(draws)
    assert stats.alpha[1] == 0.0
    assert np.array_equal(stats.support, [0, 2])
    assert stats.draw_labels.shape == (2, 2)
    freqs = oracle_pair_frequencies(draws)
    _, pi1, pi2 = freqs
    assert not pi1[1].any() and not pi1[:, 1].any() and not pi2[1].any() and not pi2[:, 1].any()
    # an active off-support point costs m_ia (n - 1) and pairs with nothing
    for labels in ([1, 1, 1], [0, 2, 1], [1, 2, 0]):
        c = SubPartition(labels)
        assert empirical_risk(c, stats) == float(restricted_risk(labels, freqs, LossParams()))


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
        alpha, pi1, pi2 = oracle_pair_frequencies(draws)
        assert np.array_equal(as_float(alpha), stats.alpha)
        # the support-restricted label matrix carries every pair frequency
        L, sup = stats.draw_labels, stats.support
        both = (L[:, :, None] > 0) & (L[:, None, :] > 0)
        same = both & (L[:, :, None] == L[:, None, :])
        off_diag = ~np.eye(sup.size, dtype=bool)
        assert np.array_equal(same.sum(axis=0) / S * off_diag, as_float(pi1[np.ix_(sup, sup)]))
        assert np.array_equal((both & ~same).sum(axis=0) / S, as_float(pi2[np.ix_(sup, sup)]))
        off = np.setdiff1d(np.arange(n), sup)
        assert not pi1[off].any() and not pi2[off].any()


def test_stats_direct_count_check():
    rng = np.random.default_rng(12)
    n, S = 7, 5
    draws = random_draws(rng, n, S)
    stats = precompute_stats(draws)
    support = [i for i in range(n) if any(d.labels[i] != 0 for d in draws)]
    assert stats.support.tolist() == support
    for i in range(n):
        active = sum(d.labels[i] != 0 for d in draws)
        assert stats.alpha[i] == active / S
    for s, d in enumerate(draws):
        assert stats.draw_labels[s].tolist() == [d.labels[i] for i in support]


# -- empirical risk ------------------------------------------------------------


def restricted_risk(labels, freqs, p):
    """Exact risk of a partial assignment from oracle frequencies.

    labels: -1 unassigned, 0 noise, >0 clusters; the sums run over the
    assigned points only, with the (n - 1) prefactor of the full formula.
    """
    alpha, pi1, pi2 = freqs
    a, b, m_ai, m_ia = (Fraction(w) for w in (p.a, p.b, p.m_ai, p.m_ia))
    n = len(alpha)
    assigned = [i for i in range(len(labels)) if labels[i] >= 0]
    total = Fraction(0)
    for i in assigned:
        total += (n - 1) * (m_ai * alpha[i] if labels[i] == 0 else m_ia * (1 - alpha[i]))
    for i in assigned:
        for j in assigned:
            if i < j and labels[i] != 0 and labels[j] != 0:
                total += a * pi1[i, j] if labels[i] != labels[j] else b * pi2[i, j]
    return total


def test_risk_two_draw_fixture_value():
    stats = precompute_stats(two_draw_fixture())
    assert empirical_risk(SubPartition([1, 1]), stats) == 0.25
    assert empirical_risk(SubPartition([1, 0]), stats) == 0.25
    assert empirical_risk(SubPartition([0, 0]), stats) == 0.75
    assert empirical_risk(SubPartition([1, 2]), stats) == 0.75


def test_risk_equals_averaged_loss():
    rng = np.random.default_rng(13)
    params = [LossParams(), LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6)]
    off_support = 0
    for trial in range(60):
        n = int(rng.integers(2, 11))
        S = int(rng.integers(1, 8))
        draws = random_draws(rng, n, S, max_k=4)
        if trial % 3 == 0:
            # a point no draw activates, which the candidate may activate
            dead = int(rng.integers(n))
            draws = [SubPartition([0 if i == dead else v for i, v in enumerate(d.labels)]) for d in draws]
        stats = precompute_stats(draws)
        c = random_subpartition(rng, n, max_k=4)
        off_support += int(np.count_nonzero(c.labels_array[stats.alpha == 0]))
        p = params[trial % 2]
        risk = empirical_risk(c, stats, p)
        assert risk == pytest.approx(averaged_loss(c, draws, p), abs=1e-12)
        quad = restricted_risk(c.labels, oracle_pair_frequencies(draws), p)
        assert risk == pytest.approx(float(quad), abs=1e-12)
        if p == LossParams():
            assert risk == float(quad)  # dyadic weights: exact
    assert off_support >= 10


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


# -- incremental assignment (the search engine) --------------------------------


def engine_at(stats, labels_sup, p=LossParams()):
    engine = risk_mod._Engine(stats, p)
    engine.reset(np.asarray(labels_sup))
    return engine


def full_labels(stats, labels_sup):
    """Full-length labels with every off-support point unassigned."""
    out = [-1] * stats.n
    for pos, i in enumerate(stats.support):
        out[i] = int(labels_sup[pos])
    return out


def exact_cell_costs(stats, freqs, engine, i, ids, p):
    """S times the restricted-risk increment of each cell for point i."""
    before = full_labels(stats, engine.labels)
    base = restricted_risk(before, freqs, p)
    fresh = max([0] + [h for h in before if h > 0]) + 1
    out = []
    for h in [0, fresh] + [int(h) for h in ids]:
        after = list(before)
        after[stats.support[i]] = h
        out.append(stats.S * (restricted_risk(after, freqs, p) - base))
    return out


def test_incremental_first_point_noise_iff_alpha_at_most_half():
    # alpha for point 0 is 0.5: exact tie, broken towards noise
    draws = [SubPartition([1, 1, 0]), SubPartition([0, 1, 0])]
    engine = engine_at(precompute_stats(draws), [-1, -1])
    assert oracle_best_assignment(engine, 0) == (0, 1.0)
    # alpha 1.0: active singleton wins
    draws = [SubPartition([1, 1, 0]), SubPartition([1, 1, 0])]
    engine = engine_at(precompute_stats(draws), [-1, -1])
    assert oracle_best_assignment(engine, 0) == (1, 0.0)


def test_incremental_minimizes_restricted_risk():
    rng = np.random.default_rng(16)
    p = LossParams()
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 8))
        draws = random_draws(rng, n, int(rng.integers(1, 6)))
        stats = precompute_stats(draws)
        u = stats.support.size
        if u == 0:
            continue
        freqs = oracle_pair_frequencies(draws)
        labels = rng.integers(-1, 4, size=u)
        i = int(rng.integers(u))
        labels[i] = -1
        engine = engine_at(stats, labels, p)
        ids, _ = engine.candidate_costs(i)
        exact = exact_cell_costs(stats, freqs, engine, i, ids, p)
        # tie order: noise, then a new cluster, then clusters by ascending id
        want = exact.index(min(exact))
        label, cost = oracle_best_assignment(engine, i)
        assert cost == float(min(exact))
        others = set(engine.labels.tolist()) - {-1, 0}
        if want == 0:
            assert label == 0
        elif want == 1:
            assert label > 0 and label not in others
        else:
            assert label == ids[want - 2]
        checked += 1
    assert checked >= 30


def test_engine_costs_match_restricted_risk_differences(monkeypatch):
    # a low threshold, so these small instances price from both rows of N and counted members
    monkeypatch.setattr(risk_mod, "_WIDE", 2)
    rng = np.random.default_rng(21)
    params = [LossParams(), LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6)]
    wide = narrow = 0  # instances pricing from rows of N, and from counted members
    for trial in range(60):
        n = int(rng.integers(2, 10))
        draws = random_draws(rng, n, int(rng.integers(1, 7)))
        stats = precompute_stats(draws)
        u = stats.support.size
        if u == 0:
            continue
        p = params[trial % 2]
        freqs = oracle_pair_frequencies(draws)
        engine = engine_at(stats, rng.integers(-1, 4, size=u), p)
        # random moves, new clusters included, through the incremental updates
        for _ in range(3 * u):
            i = int(rng.integers(u))
            engine.move(i, -1)
            pick = int(rng.integers(3))
            live = engine.live_ids()
            label = [0, engine.fresh_id(), int(live[0]) if live.size else 0][pick]
            engine.move(i, label)
        assert engine.live_ids().tolist() == sorted(set(engine.labels.tolist()) - {-1, 0})
        wide += engine._n_wide > 0
        narrow += engine._nlen.size > 0
        for i in range(u):
            old = engine.move(i, -1)
            ids, costs = engine.candidate_costs(i)
            exact = exact_cell_costs(stats, freqs, engine, i, ids, p)
            assert costs / stats.S == pytest.approx([float(x) / stats.S for x in exact], abs=1e-12)
            if trial % 2 == 0:
                assert costs.tolist() == [float(x) for x in exact]  # dyadic weights: exact
            engine.move(i, old)
    assert wide >= 10 and narrow >= 10


def test_engine_fresh_ids_keep_order():
    """Renumbering when the table is full keeps the order of the ids."""
    rng = np.random.default_rng(22)
    draws = random_draws(rng, 30, 4)
    stats = precompute_stats(draws)
    u = stats.support.size
    engine = engine_at(stats, np.full(u, -1))
    mirror = np.full(u, -1)  # the same moves with fresh id = max + 1, never renumbered
    for _ in range(400):
        i = int(rng.integers(u))
        engine.move(i, -1)
        mirror[i] = -1
        live = engine.live_ids()
        live_m = np.unique(mirror[mirror > 0])
        assert live.size == live_m.size
        pick = int(rng.integers(3)) if live.size else int(rng.integers(2))
        if pick == 0:
            engine.move(i, 0)
            mirror[i] = 0
        elif pick == 1:
            engine.move(i, engine.fresh_id())
            mirror[i] = int(mirror.max(initial=0)) + 1
        else:
            t = int(rng.integers(live.size))
            engine.move(i, int(live[t]))
            mirror[i] = live_m[t]
        act = mirror > 0
        pairs = sorted(set(zip(mirror[act].tolist(), engine.labels[act].tolist())))
        assert [e for _, e in pairs] == sorted({e for _, e in pairs})
        assert len(pairs) == len({m for m, _ in pairs})
    assert mirror.max() >= engine.sizes.size  # ids were renumbered at least once
    # the incrementally updated tables price every point as a rebuild does
    for i in range(u):
        old = engine.move(i, -1)
        assert np.array_equal(engine.candidate_costs(i)[1], engine_at(stats, engine.labels).candidate_costs(i)[1])
        engine.move(i, old)


def test_engine_prices_exact_ties_with_S3():
    # with S = 3, 1/S is not a binary fraction. Joining cluster 1 or 2 costs
    # point 0 exactly 5/3 (risk units), the least of its cells; frequencies
    # rounded to floats price them 1.666666666666667 and 1.6666666666666667
    # and pick cluster 2 against the ascending-id tie rule.
    draws = [
        SubPartition([1, 1, 1, 2, 0, 1, 1, 2]),
        SubPartition([2, 0, 1, 2, 1, 2, 2, 0]),
        SubPartition([1, 0, 1, 2, 0, 1, 0, 1]),
    ]
    stats = precompute_stats(draws)
    assert stats.support.size == 8
    engine = engine_at(stats, [-1, 0, 0, 3, 2, 2, 1, 2])
    ids, costs = engine.candidate_costs(0)
    assert ids.tolist() == [1, 2, 3]
    exact = exact_cell_costs(stats, oracle_pair_frequencies(draws), engine, 0, ids, LossParams())
    assert exact == [Fraction(21, 2), 7, 5, 5, 8]
    assert costs.tolist() == [10.5, 7.0, 5.0, 5.0, 8.0]
    assert oracle_best_assignment(engine, 0) == (1, 5.0)


def test_engine_table_stays_linear_in_draw_entries(monkeypatch):
    """Fragmented draws and a candidate with ~u/2 clusters keep T at O(S u) entries."""
    m = 120
    pairs = np.repeat(np.arange(1, m + 1), 2)  # u = 240 points in 120 pairs
    alone = np.arange(1, 2 * m + 1)
    draws = [SubPartition(pairs), SubPartition(pairs), SubPartition(alone), SubPartition(pairs)]
    stats = precompute_stats(draws)
    S, u = stats.S, stats.support.size
    bound = risk_mod._WIDE * S * u + (S + 1) * 2 * (u + 1)
    sizes = []
    reset = risk_mod._Engine.reset

    def recording_reset(self, labels):
        reset(self, labels)
        sizes.append(self.T.size)

    monkeypatch.setattr(risk_mod._Engine, "reset", recording_reset)
    est = search(stats, cfg=SearchConfig(n_restarts=4, n_zealous_attempts=4), seeds=draws)
    assert est.k >= m // 2
    assert len(sizes) > 4 and max(sizes) <= bound
    engine = engine_at(stats, alone)  # u clusters: the widest table
    assert engine.T.shape[1] == 2 * (u + 1) and engine.T.size <= bound


def test_sweetening_passes_start_at_live_width(monkeypatch):
    """Each sweetening pass prices from a table 2(k + 1) wide for its k live
    clusters, ids 1..k, though seed restarts start wide and passes kill clusters."""
    engines, starts = [], []

    class RecordingEngine(risk_mod._Engine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    class Probe:
        """A restart's generator; a permutation of all u points starts an
        incremental assignment or a sweetening pass."""

        def __init__(self, rng):
            self.rng = rng

        def integers(self, *args):
            return self.rng.integers(*args)

        def permutation(self, x):
            if isinstance(x, int):
                e = engines[-1]
                starts.append((e.sizes.size, e.live_ids().tolist()))
            return self.rng.permutation(x)

    spawn = risk_mod.spawn_rngs
    monkeypatch.setattr(risk_mod, "_Engine", RecordingEngine)
    monkeypatch.setattr(risk_mod, "spawn_rngs", lambda seed, count: [Probe(r) for r in spawn(seed, count)])
    rng = np.random.default_rng(31)
    for _ in range(3):
        draws = random_draws(rng, 40, 6, max_k=8)
        search(precompute_stats(draws), cfg=SearchConfig(n_restarts=6, n_zealous_attempts=2), seeds=draws)
    assert len(starts) > 3 * 6 * 2
    for width, live in starts:
        assert live == list(range(1, len(live) + 1))
        assert width == 2 * (len(live) + 1)


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


@st.composite
def search_instances(draw):
    """Small draw sets (S in 1, 2, 3, 7; few labels, so exact ties abound),
    with or without seeds, under the default, a dyadic non-metric and a
    non-dyadic loss."""
    n = draw(st.integers(2, 24))
    S = draw(st.sampled_from([1, 2, 3, 7]))
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, k), min_size=n, max_size=n), min_size=S, max_size=S))
    draws = [SubPartition(r) for r in rows]
    p = draw(
        st.sampled_from(
            [LossParams(), LossParams(a=1.0, b=2.0, m_ai=0.25, m_ia=1.0), LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6)]
        )
    )
    cfg = SearchConfig(
        n_restarts=draw(st.integers(1, 4)),
        n_sweeten_passes=draw(st.integers(1, 3)),
        n_zealous_attempts=draw(st.integers(0, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return draws, p, cfg, draw(st.booleans())


@pytest.mark.filterwarnings("ignore::ballet.errors.SearchPassCapWarning")
def test_search_matches_per_point_oracle():
    """Block pricing and the tracked risk give the labels of the search that
    prices one point at a time and recounts the risk after every attempt."""
    blocks = []
    price = risk_mod._Engine.price

    def recording_price(self, lay, j, end):
        blocks.append(end - j)
        return price(self, lay, j, end)

    @settings(max_examples=150, deadline=None)
    @given(search_instances())
    def check(instance):
        draws, p, cfg, with_seeds = instance
        stats = precompute_stats(draws)
        seeds = draws if with_seeds else None
        assert search(stats, p, cfg, seeds).labels == oracle_search(stats, p, cfg, seeds).labels

    # a low threshold, so both rows of N and counted members price
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(risk_mod, "_WIDE", 2)
        mp.setattr(risk_mod._Engine, "price", recording_price)
        check()
    assert max(blocks) >= 2


@pytest.mark.filterwarnings("ignore::ballet.errors.SearchPassCapWarning")
def test_tracked_risk_equals_recount(monkeypatch):
    """The risk counts a restart tracks from the priced decisions equal the
    recounted ones before and after every zealous attempt, for any weights."""
    rng = np.random.default_rng(41)
    zealous = risk_mod._zealous
    params = [LossParams(), LossParams(a=1.0, b=2.0, m_ai=0.25, m_ia=1.0), LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6)]
    checks = []

    for trial in range(15):
        draws = random_draws(rng, int(rng.integers(6, 40)), int(rng.integers(1, 8)), max_k=5)
        stats = precompute_stats(draws)

        def recount(engine):
            return risk_mod._risk_counts(stats, risk_mod._full_labels(stats, engine.labels)).tolist()

        def checked(engine, members, counts):
            assert counts.tolist() == recount(engine)
            out = zealous(engine, members, counts)
            assert out.tolist() == recount(engine)
            checks.append(out)
            return out

        monkeypatch.setattr(risk_mod, "_zealous", checked)
        cfg = SearchConfig(n_restarts=4, n_sweeten_passes=2, n_zealous_attempts=6, seed=trial)
        search(stats, params[trial % 3], cfg, seeds=draws if trial % 2 else None)
    assert len(checks) >= 100


def test_pass_cap_warning():
    rng = np.random.default_rng(42)
    draws = random_draws(rng, 30, 5, max_k=4)
    stats = precompute_stats(draws)
    # one pass from a seed clustering moves points, so that restart stops at its cap
    cfg = SearchConfig(n_restarts=2, n_sweeten_passes=1, n_zealous_attempts=0, seed=1)
    with pytest.warns(SearchPassCapWarning) as caught:
        search(stats, cfg=cfg, seeds=draws)
    assert any("restart 1 " in str(w.message) for w in caught)


def test_no_pass_cap_warning_by_default():
    rng = np.random.default_rng(43)
    draws = random_draws(rng, 30, 5, max_k=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SearchPassCapWarning)
        search(precompute_stats(draws), seeds=draws)


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
