import copy
import inspect
import json
import math
import multiprocessing
import os
import sys
import threading
import time
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ballet.risk as risk_mod
import ballet.util as util_mod
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

from pools import TEST_PID, die_in_a_worker, no_child_left, record_pools
from oracles import (
    oracle_best_assignment,
    oracle_candidate_costs,
    oracle_components,
    oracle_draw_cells,
    oracle_ia_binder_loss,
    oracle_label_matrix,
    oracle_pair_frequencies,
    oracle_risk_counts,
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
        cs = draw_clusterings(ps, e, lam, delta)
        assert len(cs) == e.S
        for s, c in enumerate(cs):
            expect = oracle_components(pts, np.flatnonzero(e.values[s] >= lam), delta)
            assert c == SubPartition(expect)
    # no point active in any draw: all noise, and delta is still validated
    e = DensityDrawEnsemble(np.zeros((2, 4)))
    ps = PointSet(np.zeros((4, 1)))
    assert not any(c.labels_array.any() for c in draw_clusterings(ps, e, 0.5, 1.0))
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
    # point 0 is active in both draws, point 1 in draw 0, where it shares
    # point 0's cluster; point 0 is alone in draw 1
    assert stats.point.tolist() == [0, 0, 1] and stats.draws.tolist() == [0, 1, 0]
    assert stats.n_active.tolist() == [2, 1] and stats.ptr.tolist() == [0, 2, 3]
    assert stats.cell.tolist() == [0, -1, 0] and stats.size.tolist() == [2]
    assert stats.start.tolist() == [0] and stats.members.tolist() == [0, 1]
    assert stats.n_shared.tolist() == [1, 1]
    alpha, pi1, pi2 = oracle_pair_frequencies(two_draw_fixture())
    assert np.array_equal(as_float(alpha), stats.alpha)
    assert pi1[0, 1] == pi1[1, 0] == Fraction(1, 2)
    assert pi2[0, 1] == 0


def test_stats_off_support_pairs_are_zero():
    draws = [SubPartition([1, 0, 1]), SubPartition([1, 0, 0])]
    stats = precompute_stats(draws)
    assert stats.alpha[1] == 0.0
    assert np.array_equal(stats.support, [0, 2])
    # the entries and cells index the support: point 2 is position 1
    assert stats.point.tolist() == [0, 0, 1] and stats.n_active.tolist() == [2, 1]
    assert stats.members.tolist() == [0, 1] and stats.n_shared.size == 2
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
        # the draw cells carry every pair frequency: the pairs inside one
        # cell are together in a draw, and the other pairs of points active
        # in one draw are apart in it
        sup = stats.support
        same = np.zeros((sup.size, sup.size), dtype=np.int64)
        for c in range(stats.size.size):
            m = stats.members[stats.start[c] : stats.start[c] + stats.size[c]]
            same[np.ix_(m, m)] += 1
        both = np.zeros_like(same)
        for s in range(S):
            act = stats.point[stats.draws == s]
            both[np.ix_(act, act)] += 1
        off_diag = ~np.eye(sup.size, dtype=bool)
        assert np.array_equal(same / S * off_diag, as_float(pi1[np.ix_(sup, sup)]))
        assert np.array_equal((both - same) / S * off_diag, as_float(pi2[np.ix_(sup, sup)]))
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
    # each draw's cells, and the points alone in their draw cluster, are
    # that draw's clusters on the support (as positions in it)
    for s, d in enumerate(draws):
        clusters = {}
        for pos, i in enumerate(support):
            if d.labels[i] != 0:
                clusters.setdefault(d.labels[i], set()).add(pos)
        cells = []
        for e in np.flatnonzero(stats.draws == s):
            c = stats.cell[e]
            m = stats.members[stats.start[c] : stats.start[c] + stats.size[c]] if c >= 0 else [stats.point[e]]
            assert stats.point[e] in m
            cells.append(set(int(i) for i in m))
        assert sorted(map(sorted, cells)) == sorted(sorted(m) for m in clusters.values() for _ in m)


@st.composite
def cell_instances(draw):
    """Draws on n points (S in 1..6): rows with few labels, all-noise rows,
    rows made only of singletons, and repeats of earlier rows; some points
    no draw activates."""
    n = draw(st.integers(1, 12))
    S = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    rows = []
    for _ in range(S):
        kind = draw(st.sampled_from(["labels", "noise", "singletons", "repeat"]))
        if kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "noise":
            rows.append([0] * n)
        elif kind == "singletons":
            on = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            rows.append([i + 1 if a else 0 for i, a in enumerate(on)])
        else:
            rows.append(draw(st.lists(st.integers(0, k), min_size=n, max_size=n)))
    dead = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    return [SubPartition([0 if i in dead else v for i, v in enumerate(r)]) for r in rows]


@settings(max_examples=300, deadline=None)
@given(cell_instances())
@example([SubPartition([0, 0, 0])])  # S = 1, all noise
@example([SubPartition([1, 2, 3])])  # S = 1, singletons only
@example([SubPartition([1, 0, 1, 2]), SubPartition([1, 0, 1, 2]), SubPartition([0, 0, 0, 0])])
@example([SubPartition([0, 2, 1, 0, 2]), SubPartition([3, 0, 3, 0, 1]), SubPartition([1, 2, 3, 0, 4])])
def test_stats_cells_match_dense_oracle(draws):
    """precompute_stats's entries and draw cells equal the ones counted
    point by point from the dense S x n label matrix, per draw: each active
    position's cell as its members' positions (-1 alone), n_active, ptr and
    n_shared, and each cell's members[start : start + size]. Every array of
    the stats is 1-D and read-only, and no attribute is built after the
    fact, so a dense matrix cannot come back unnoticed."""
    stats = precompute_stats(draws)
    support, n_active, ptr, n_shared, cells = oracle_draw_cells(draws)
    assert stats.support.tolist() == support
    assert stats.n_active.tolist() == n_active
    assert stats.ptr.tolist() == ptr
    assert stats.n_shared.tolist() == n_shared
    got = [{} for _ in draws]
    for e in range(stats.point.size):
        c = int(stats.cell[e])
        m = -1 if c < 0 else tuple(stats.members[stats.start[c] : stats.start[c] + stats.size[c]].tolist())
        got[int(stats.draws[e])][int(stats.point[e])] = m
    assert got == cells
    # entries are grouped by point, draws ascending, as ptr says
    assert stats.point.tolist() == [i for i, d in enumerate(n_active) for _ in range(d)]
    for i in range(len(support)):
        assert stats.draws[ptr[i] : ptr[i + 1]].tolist() == [s for s in range(len(draws)) if i in cells[s]]
    assert stats.size.sum() == stats.members.size == sum(n_shared)
    empirical_risk(SubPartition.all_noise(stats.n), stats)
    search(stats, cfg=SearchConfig(n_restarts=2, n_zealous_attempts=2))
    names = {f.name for f in fields(stats)}
    assert set(vars(stats)) == names
    for name in names:
        value = getattr(stats, name)
        if isinstance(value, np.ndarray):
            assert value.ndim == 1 and not value.flags.writeable, name


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


def recount(draws, labels_sup):
    """The risk counts of support labels, recounted from the dense label
    matrix of the draws (the support is the points some draw activates)."""
    L = oracle_label_matrix(draws)
    full = np.zeros(L.shape[1], dtype=np.int64)
    full[L.any(axis=0)] = labels_sup
    return oracle_risk_counts(draws, full)


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
        ids, _ = oracle_candidate_costs(engine, i)
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
            ids, costs = oracle_candidate_costs(engine, i)
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
        rebuilt = engine_at(stats, engine.labels)
        assert np.array_equal(oracle_candidate_costs(engine, i)[1], oracle_candidate_costs(rebuilt, i)[1])
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
    ids, costs = oracle_candidate_costs(engine, 0)
    assert ids.tolist() == [1, 2, 3]
    exact = exact_cell_costs(stats, oracle_pair_frequencies(draws), engine, 0, ids, LossParams())
    assert exact == [Fraction(21, 2), 7, 5, 5, 8]
    assert costs.tolist() == [10.5, 7.0, 5.0, 5.0, 8.0]
    assert oracle_best_assignment(engine, 0) == (1, 5.0)


def test_always_noise_is_exact_or_walked():
    """Point 0 is active in 2 of 4 draws, so noise costs it exactly
    active_base. Under the default loss every cost is exact and it never
    joins a cluster. Under EQUAL_INEXACT joining cluster 1 prices one ulp
    below active_base, as the full walk would see it, so it is walked."""
    draws = [
        SubPartition([1, 1, 0, 1, 1]),
        SubPartition([0, 1, 1, 1, 1]),
        SubPartition([0, 1, 1, 0, 1]),
        SubPartition([1, 0, 2, 2, 0]),
    ]
    stats = precompute_stats(draws)
    state = [-1, 1, 0, 0, 0]
    exact = engine_at(stats, state)
    assert exact.noise_cost[0] == exact.active_base[0]
    assert not exact.can_join[0]
    assert oracle_best_assignment(exact, 0) == (0, 4.0)
    inexact = engine_at(stats, state, EQUAL_INEXACT)
    ids, costs = oracle_candidate_costs(inexact, 0)
    assert inexact.noise_cost[0] == inexact.active_base[0] == costs[0] == 2.4
    assert ids.tolist() == [1] and costs[2] == 2.3999999999999995 < costs[0]
    assert inexact.can_join[0]
    assert oracle_best_assignment(inexact, 0)[0] == 1
    # a point that noise costs strictly less is left out under either loss
    d = np.count_nonzero(oracle_label_matrix(draws), axis=0)  # every point is on the support
    assert (exact.can_join == (d > 2)).all() and (inexact.can_join == (d >= 2)).all()


@st.composite
def count_instances(draw):
    """Draws on n points (S in 1, 2, 3, 5, 8; few labels, one point no draw
    activates), a candidate on the same points with raw ids and gaps,
    active on and off the support, and a loss, dyadic or EQUAL_INEXACT."""
    n = draw(st.integers(1, 30))
    S = draw(st.sampled_from([1, 2, 3, 5, 8]))
    k = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, k), min_size=n, max_size=n), min_size=S, max_size=S))
    dead = draw(st.integers(0, n - 1))
    draws = [SubPartition([0 if i == dead else v for i, v in enumerate(r)]) for r in rows]
    ids = st.sampled_from([0, 0, 2, 3, 7, 40, 1000])
    labels = np.array(draw(st.lists(ids, min_size=n, max_size=n)), dtype=np.int64)
    p = draw(st.sampled_from([LossParams(), EQUAL_INEXACT]))
    return draws, labels, p


@settings(max_examples=300, deadline=None)
@given(count_instances())
def test_risk_counts_match_dense_recount(inst):
    """The risk counts from the draw cells equal the recount from the dense
    label matrix of the draws, draw by draw and in total, for the drawn
    candidate (raw ids with gaps, points active off the support) and the
    all-noise one; and the risk is the mean draw loss, bit for bit under
    the default loss."""
    draws, labels, p = inst
    stats = precompute_stats(draws)
    S, n = stats.S, stats.n
    for cand in (labels, np.zeros(n, dtype=np.int64)):
        rows = risk_mod._risk_counts(stats, cand)
        assert rows.shape == (S, 4) and rows.dtype == np.int64
        assert rows.tolist() == [oracle_risk_counts([d], cand).tolist() for d in draws]
        assert rows.sum(axis=0).tolist() == oracle_risk_counts(draws, cand).tolist()
        c = SubPartition(cand)
        mean_loss = math.fsum(ia_binder_loss(d, c, p) for d in draws) / S
        if p == LossParams():
            assert empirical_risk(c, stats, p) == mean_loss
        else:
            assert empirical_risk(c, stats, p) == pytest.approx(mean_loss, rel=1e-12, abs=1e-12)


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
    est = search(stats, cfg=SearchConfig(n_restarts=4, n_zealous_attempts=4))
    assert est.k >= m // 2
    assert len(sizes) > 4 and max(sizes) <= bound
    engine = engine_at(stats, alone)  # u clusters: the widest table
    assert engine.T.shape[1] == 2 * (u + 1) and engine.T.size <= bound


def test_sweetening_passes_start_within_the_table(monkeypatch):
    """Each sweetening pass starts without a renumbering: its live ids, with
    gaps where passes killed clusters, are all below the table width, and
    the table stays within the O(S u) bound of
    test_engine_table_stays_linear_in_draw_entries."""
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
                starts.append((e.sizes.size, e.T.size, e.live_ids().tolist(), x))
            return self.rng.permutation(x)

    spawn = risk_mod.spawn_rngs
    monkeypatch.setattr(risk_mod, "_Engine", RecordingEngine)
    monkeypatch.setattr(risk_mod, "spawn_rngs", lambda seed, count: [Probe(r) for r in spawn(seed, count)])
    rng = np.random.default_rng(31)
    S = 6
    for _ in range(3):
        draws = random_draws(rng, 40, S, max_k=8)
        search(precompute_stats(draws), cfg=SearchConfig(n_restarts=6, n_zealous_attempts=2))
    assert len(starts) > 3 * 6 * 2
    for width, t_size, live, u in starts:
        assert all(0 < h < width for h in live)
        assert t_size <= risk_mod._WIDE * S * u + (S + 1) * 2 * (u + 1)


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
        est = search(stats, cfg=cfg)
        r = empirical_risk(est, stats)
        target = brute_force_min(draws)
        assert r >= target - 1e-12
        if r <= target + 1e-12:
            hits += 1
    assert hits >= trials - 1


def restarts_alone(stats, p, cfg):
    """The search's restarts, run serially, without the all-noise and draw
    candidates: each restart's risk and full-length labels, in restart order."""
    engine = risk_mod._Engine(stats, p)
    work = risk_mod._Work(engine, cfg)
    rngs = risk_mod.spawn_rngs(cfg.seed, cfg.n_restarts)
    runs = [risk_mod._restart(work, i, rng) for i, rng in enumerate(rngs)]
    full = np.zeros((len(runs), stats.n), dtype=np.int64)
    full[:, stats.support] = [labels for _, labels in runs]
    return [(engine.risk(c) / stats.S, SubPartition(row)) for (c, _), row in zip(runs, full)]


def test_search_never_above_draws_or_all_noise():
    """The draws are candidates only: the search has the lower risk of its
    restarts alone and the best draw, and when the restarts alone are
    strictly lower, the first best restart's labels."""
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        draws = random_draws(rng, n, int(rng.integers(2, 9)))
        stats = precompute_stats(draws)
        cfg = SearchConfig(n_restarts=4, seed=0)
        est = search(stats, cfg=cfg)
        alone_risk, alone = min(restarts_alone(stats, LossParams(), cfg), key=lambda run: run[0])
        assert alone_risk == empirical_risk(alone, stats)
        r = empirical_risk(est, stats)
        best_draw = min(empirical_risk(d, stats) for d in draws)
        assert r == min(alone_risk, best_draw)
        assert r <= empirical_risk(SubPartition.all_noise(n), stats)
        if alone_risk < best_draw:
            assert est == alone


def test_search_two_draw_fixture():
    draws = two_draw_fixture()
    stats = precompute_stats(draws)
    est = search(stats, cfg=SearchConfig(seed=1))
    assert empirical_risk(est, stats) == 0.25


def test_search_deterministic():
    rng = np.random.default_rng(19)
    draws = random_draws(rng, 10, 6)
    stats = precompute_stats(draws)
    cfg = SearchConfig(n_restarts=6, seed=42)
    a = search(stats, cfg=cfg)
    b = search(stats, cfg=cfg)
    assert a.labels == b.labels


def test_risk_counts_a_candidate_active_off_the_support():
    # point 3 is noise in every draw; a candidate that clusters it pays m_ia
    # (n - 1) in each draw, so the draw itself (risk 0) is the estimate
    draw = SubPartition([1, 1, 2, 0])
    wide = SubPartition([1, 1, 2, 2])
    stats = precompute_stats([draw, draw])
    assert empirical_risk(wide, stats) == 1.5
    assert risk_mod._risk_counts(stats, wide.labels_array).tolist() == [[0, 1, 0, 0], [0, 1, 0, 0]]
    est = search(stats, cfg=SearchConfig(n_restarts=2, seed=0))
    assert est == draw and empirical_risk(est, stats) == 0.0


def test_search_all_noise_draws():
    stats = precompute_stats([SubPartition.all_noise(5) for _ in range(3)])
    est = search(stats, cfg=SearchConfig(seed=0))
    assert not est.labels_array.any()
    assert empirical_risk(est, stats) == 0.0


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n_restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(n_sweeten_passes=0)
    with pytest.raises(ValueError):
        SearchConfig(n_zealous_attempts=-1)
    assert SearchConfig(n_restarts=np.int64(2), seed=np.uint64(2**64 - 1), n_zealous_attempts=0).n_restarts == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_restarts", 2.5),
        ("n_sweeten_passes", 2.5),
        ("n_zealous_attempts", 1.5),
        ("seed", 3.0),
        ("n_restarts", True),
        ("n_zealous_attempts", False),
        ("n_restarts", "2"),
        ("seed", None),
        ("seed", -1),
    ],
)
def test_search_config_rejects_values_search_cannot_run(field, value):
    """Bools, non-integers and a negative seed fail at construction, naming
    the field, not later inside search."""
    with pytest.raises(ValueError, match=f"SearchConfig.{field} "):
        SearchConfig(**{field: value})


# a non-dyadic loss whose noise cost equals active_base for a point active in
# half the draws, while a * n1 is inexact
EQUAL_INEXACT = LossParams(a=0.7, b=0.3, m_ai=0.3, m_ia=0.3)


@st.composite
def search_instances(draw):
    """Small draw sets (S in 1, 2, 3, 4, 7, 8; few labels, so exact ties
    abound), under the default, a dyadic non-metric and two non-dyadic
    losses. With S even, a point active in S/2 draws costs as much in noise
    as active_base, under the default loss and under EQUAL_INEXACT."""
    n = draw(st.integers(2, 24))
    S = draw(st.sampled_from([1, 2, 3, 4, 7, 8]))
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, k), min_size=n, max_size=n), min_size=S, max_size=S))
    draws = [SubPartition(r) for r in rows]
    p = draw(
        st.sampled_from(
            [
                LossParams(),
                LossParams(a=1.0, b=2.0, m_ai=0.25, m_ia=1.0),
                LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6),
                EQUAL_INEXACT,
            ]
        )
    )
    cfg = SearchConfig(
        n_restarts=draw(st.integers(1, 4)),
        n_sweeten_passes=draw(st.integers(1, 3)),
        n_zealous_attempts=draw(st.integers(0, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return draws, p, cfg


def zealous_win():
    """A search (S = 3, n = 12, default loss) whose best state comes
    from an accepted zealous attempt. A bound that rejects too much, priced
    with the destroyed cell still counted or from each member's kept cost
    instead of its cheapest, rejects that attempt and returns other labels."""
    rows = [
        [0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 0, 0],
        [2, 1, 2, 0, 0, 2, 1, 1, 2, 1, 1, 2],
        [2, 2, 2, 1, 2, 0, 2, 1, 1, 0, 2, 1],
    ]
    cfg = SearchConfig(n_restarts=3, n_sweeten_passes=1, n_zealous_attempts=4, seed=3575949398)
    return [SubPartition(r) for r in rows], LossParams(), cfg


@pytest.mark.filterwarnings("ignore::ballet.errors.SearchPassCapWarning")
def test_accepted_zealous_attempt_wins_the_search():
    """The restarts' generators draw the same states up to the zealous
    attempts, so a lower risk with them than without is an accepted attempt's."""
    draws, p, cfg = zealous_win()
    stats = precompute_stats(draws)
    walked = search(stats, p, cfg)
    unwalked = search(stats, p, replace(cfg, n_zealous_attempts=0))
    assert empirical_risk(walked, stats, p) < empirical_risk(unwalked, stats, p)


@settings(max_examples=300, deadline=None)
@given(
    count_instances(),
    st.sampled_from(
        [
            LossParams(),
            EQUAL_INEXACT,
            LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6),
            LossParams(a=0.1, b=1.3, m_ai=0.9, m_ia=0.7),
        ]
    ),
    st.integers(-1, 7),
)
def test_noise_count_bound_never_exceeds_the_risk(inst, p, quiet):
    """The bound the search puts on each draw, the risk of its two noise
    counts alone, counted for all S draws at once, is at most the draw's
    risk, under dyadic and non-dyadic losses; and the two counts are
    the first two of _risk_counts summed for the draw's labels. The draws hold
    single-point clusters, S may be 1, and draw `quiet` (if any) is all
    noise, so a stack may be all noise."""
    draws, _, _ = inst
    draws = [SubPartition.all_noise(d.n) if s == quiet else d for s, d in enumerate(draws)]
    stats = precompute_stats(draws)
    engine = risk_mod._Engine(stats, p)
    missed, extra = risk_mod._draw_noise_counts(stats)
    assert missed.shape == extra.shape == (stats.S,)
    for s, d in enumerate(draws):
        counts = risk_mod._risk_counts(stats, d.labels_array).sum(axis=0)
        assert [missed[s], extra[s]] == counts[:2].tolist()
        assert engine.risk(np.array([missed[s], extra[s], 0, 0])) <= engine.risk(counts)


# draw 0 (risk 11 / S) beats the restarts (12 / S) and survives the bound
# (8), while draw 1 is cut (14 > 12): a draw that is counted and wins
SEED_WINS = (
    [SubPartition(r) for r in ([1, 1, 0, 1, 1], [1, 0, 2, 2, 0], [1, 1, 0, 0, 2])],
    LossParams(),
    SearchConfig(n_restarts=2, n_sweeten_passes=2, n_zealous_attempts=0, seed=965),
)
# draw 0 splits and joins no pair, so its bound is its risk, 1 / S, which ties
# the restarts' [1, 1, 0]: it is counted, and wins by coming first
SEED_TIES = ([SubPartition([1, 1, 2]), SubPartition([1, 1, 0])], LossParams(), SearchConfig(n_restarts=2, seed=0))


def test_search_picks_a_draw_that_beats_the_restarts():
    """search(stats) counts the draws of its stats with no more input: on
    SEED_WINS it returns draw 0 (risk 11 / S), which the restarts alone
    miss (12 / S)."""
    draws, p, cfg = SEED_WINS
    stats = precompute_stats(draws)
    assert search(stats, p, cfg) == draws[0]
    assert empirical_risk(draws[0], stats, p) == 11 / 3
    assert min(risk for risk, _ in restarts_alone(stats, p, cfg)) == 12 / 3


def test_search_prices_the_all_noise_state_as_missing_every_entry():
    """The all-noise candidate's counts are read off the stats: it misses
    each of the 4 (point, draw) entries, at m_ai (n - 1) = 2.7 each, so its
    risk is 5.4 over S = 2 draws. [1, 1, 2, 2] keeps both draws' clusters
    and is active at 4 points where a draw is not, at m_ia (n - 1) = 0.9
    each: risk 1.8, and it wins. Priced at m_ia, the all-noise state would
    tie it and win by coming first."""
    p = LossParams(a=1.0, b=0.7, m_ai=0.9, m_ia=0.3)
    stats = precompute_stats([SubPartition([1, 1, 0, 0]), SubPartition([0, 0, 1, 1])])
    est = search(stats, p, SearchConfig(n_restarts=1, seed=0))
    assert est == SubPartition([1, 1, 2, 2])
    assert empirical_risk(est, stats, p) == pytest.approx(1.8)
    assert empirical_risk(SubPartition.all_noise(4), stats, p) == pytest.approx(5.4)


def test_search_counts_each_draw_as_its_own_clustering(monkeypatch):
    """Each draw the bound keeps is counted from labels rebuilt from its
    entries, and those labels are the draw's clustering: each point alone
    in its cluster keeps an id of its own. Only draws are counted: the
    all-noise state's counts are read off the stats. With S = 1 the one
    draw is always counted (its bound is 0)."""
    counted = []
    risk_counts = risk_mod._risk_counts

    def recording(stats, labels):
        counted.append(SubPartition(labels))
        return risk_counts(stats, labels)

    monkeypatch.setattr(risk_mod, "_risk_counts", recording)
    rng = np.random.default_rng(51)
    cases = [[SubPartition([1, 2, 3, 3, 0, 4])]] + [random_draws(rng, 12, S, max_k=8) for S in (1, 1, 2, 3, 5)]
    for draws in cases:
        counted.clear()
        search(precompute_stats(draws), cfg=SearchConfig(n_restarts=1, seed=0))
        assert all(c in draws for c in counted)
        if len(draws) == 1:
            assert counted == draws


@pytest.mark.filterwarnings("ignore::ballet.errors.SearchPassCapWarning")
def test_search_matches_per_point_oracle():
    """Block pricing, the one-point step, the walks that skip the points no
    cluster can take, the tracked risk, the zealous bound and the rebuild
    that undoes a walked rejection give the labels of the search that
    prices every point, one at a time, walks every zealous attempt and
    recounts the risk after every attempt."""
    blocks = []
    stepped = set()  # the cells the one-point step moved points out of: unassigned, noise, a cluster
    skipped = []  # per walk, the points it did not price
    equal_walked = []  # per walk under EQUAL_INEXACT, its points with noise == active_base
    bounded = []  # per zealous attempt, whether it ended without a walk
    price = risk_mod._Engine.price
    step = risk_mod._Engine.step
    walk = risk_mod._walk
    zealous = risk_mod._zealous

    def recording_price(self, lay, j, end):
        blocks.append(end - j)
        return price(self, lay, j, end)

    def recording_step(self, lay, j, delta):
        cur = int(np.sign(self.labels[lay.order[j]]))
        changed = step(self, lay, j, delta)
        if changed:
            stepped.add(cur)
        return changed

    def recording_walk(engine, order):
        skipped.append(int(np.count_nonzero(~engine.can_join[order] & (engine.labels[order] <= 0))))
        if engine.p == EQUAL_INEXACT:
            equal_walked.append(int(np.count_nonzero((engine.noise_cost == engine.active_base)[order])))
        return walk(engine, order)

    def recording_zealous(engine, members, counts):
        walks = len(skipped)
        out = zealous(engine, members, counts)
        bounded.append(len(skipped) == walks)
        return out

    @settings(max_examples=150, deadline=None)
    @given(search_instances())
    @example(zealous_win())
    @example(SEED_WINS)
    @example(SEED_TIES)
    # point 0 is active in S/2 draws, so under EQUAL_INEXACT its noise cost
    # equals active_base and it is walked, whatever the drawn instances hold
    @example(([SubPartition([1, 1, 0]), SubPartition([0, 1, 1])], EQUAL_INEXACT, SearchConfig(n_restarts=1)))
    def check(instance):
        draws, p, cfg = instance
        stats = precompute_stats(draws)
        assert search(stats, p, cfg).labels == oracle_search(draws, p, cfg).labels

    # a low threshold, so both rows of N and counted members price
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(risk_mod, "_WIDE", 2)
        mp.setattr(risk_mod._Engine, "price", recording_price)
        mp.setattr(risk_mod._Engine, "step", recording_step)
        mp.setattr(risk_mod, "_walk", recording_walk)
        mp.setattr(risk_mod, "_zealous", recording_zealous)
        check()
    assert max(blocks) >= 2
    assert stepped == {-1, 0, 1}
    assert max(skipped) >= 2
    assert max(equal_walked) >= 1
    assert any(bounded)


def test_step_decides_as_a_priced_block_and_books_the_recount(monkeypatch):
    """engine.step on a point of a layout decides as price() on the block of
    that point alone: an unassigned point takes its first cheapest cell, an
    assigned one (noise or a cluster) moves only to a strictly cheaper one,
    a new cluster taking the fresh id after its exit and a join the id
    priced. The labels and table it leaves are those of the same moves, and
    the counts it books are the recounted change (plus the noise counts of
    an unassigned point, which a recount already holds): over random states
    mixing unassigned and assigned points, rows of N and counted members,
    and dyadic and non-dyadic losses."""
    monkeypatch.setattr(risk_mod, "_WIDE", 2)
    rng = np.random.default_rng(46)
    params = [
        LossParams(),
        LossParams(a=1.0, b=2.0, m_ai=0.25, m_ia=1.0),
        LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6),
        EQUAL_INEXACT,
    ]
    seen = set()  # (cell left: -1 unassigned, 0 noise, 1 a cluster; pick: 0 noise, 1 new, 2 a join; changed)
    wide = narrow = 0
    for trial in range(120):
        draws = random_draws(rng, int(rng.integers(2, 16)), int(rng.choice([1, 2, 3, 4, 7])), max_k=3)
        stats = precompute_stats(draws)
        u = stats.support.size
        if u == 0:
            continue
        engine = engine_at(stats, rng.integers(-1, 4, size=u), params[trial % 4])
        wide += engine._n_wide > 0
        narrow += engine._nlen.size > 0
        for i in rng.permutation(u)[:6].tolist():
            order = rng.permutation(u)
            j = int(np.flatnonzero(order == i)[0])
            lay = engine.layout(order)
            ids = engine.live_ids()
            costs, keep = engine.price(lay, j, j + 1)
            costs, keep, cur = costs[0], keep[0], int(engine.labels[i])
            pick = int(costs.argmin())
            change = cur < 0 or costs[pick] < keep
            ref = copy.deepcopy(engine)
            if change:
                if cur >= 0:
                    ref.move(i, -1)
                ref.move(i, ref.label_of(pick, ids))
            before = recount(draws, engine.labels)
            delta = np.zeros(4, dtype=np.int64)
            changed = engine.step(lay, j, delta)
            assert changed == (change and (cur >= 0 or pick > 0))
            assert np.array_equal(engine.labels, ref.labels)
            assert np.array_equal(engine.T, ref.T) and np.array_equal(engine.sizes, ref.sizes)
            d = int(stats.n_active[i]) if cur < 0 else 0
            assert delta.tolist() == (recount(draws, engine.labels) - before + [d, 0, 0, 0]).tolist()
            seen.add((int(np.sign(cur)), min(pick, 2), changed))
    assert wide >= 10 and narrow >= 10
    # every kind of decision, exits from noise and from a cluster included
    assert {(-1, 0, False), (-1, 1, True), (-1, 2, True), (0, 1, True), (0, 2, True)} <= seen
    assert {(1, 0, True), (1, 1, True), (1, 2, True)} <= seen


def test_rejected_zealous_attempt_restores_the_state(monkeypatch):
    """A rejected zealous attempt leaves the state it started from: bounded
    (rejected unwalked, its cell put back in the same table), the same
    labels, table and widths; walked, a rebuild from the same labels. Under
    the default loss the bound rejects most attempts; under a non-dyadic
    loss it is off, so every rejection there is walked."""
    walks = []
    walk = risk_mod._walk

    def counted_walk(engine, order):
        walks.append(order.size)
        return walk(engine, order)

    monkeypatch.setattr(risk_mod, "_walk", counted_walk)
    rng = np.random.default_rng(43)
    params = [LossParams(), LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6)]
    bounded, walked = 0, [0, 0]  # walked rejections per loss
    for trial in range(200):
        draws = random_draws(rng, int(rng.integers(6, 30)), int(rng.integers(1, 8)), max_k=5)
        stats = precompute_stats(draws)
        u = stats.support.size
        if u == 0:
            continue
        engine = engine_at(stats, rng.integers(0, 3, size=u), params[trial % 2])
        for _ in range(4):
            cells = [0] + engine.live_ids().tolist()
            members = np.flatnonzero(engine.labels == cells[int(rng.integers(len(cells)))])
            if members.size == 0:
                continue
            table, before, n_walks = engine.T, copy.deepcopy(engine), len(walks)
            counts = recount(draws, engine.labels)
            if risk_mod._zealous(engine, rng.permutation(members), counts) is not counts:
                continue  # accepted
            if len(walks) == n_walks:
                bounded += 1
                assert engine.T is table
                ref = before
            else:
                walked[trial % 2] += 1
                ref = engine_at(stats, before.labels, engine.p)
            assert np.array_equal(engine.labels, ref.labels)
            assert np.array_equal(engine.T, ref.T) and np.array_equal(engine.sizes, ref.sizes)
    assert bounded >= 100 and sum(walked) >= 100 and min(walked) >= 10


def test_zealous_bound_never_exceeds_walked_risk(monkeypatch):
    """The bound that rejects a zealous attempt unwalked, each member in its
    cheapest cell against the state without the cell, never has a higher
    risk than the same attempt walked to the end, accepted or not: over
    random and walked states, every target (noise included), and the
    dyadic losses of search_instances."""
    rng = np.random.default_rng(44)
    params = [LossParams(), LossParams(a=1.0, b=2.0, m_ai=0.25, m_ia=1.0)]
    cheapest = risk_mod._cheapest
    seen = []  # per attempt, the bound's cost and the walked attempt's counts

    def walked_too(engine, members):
        # the same attempt walked in full, from a rebuild of the state without the cell
        walked = engine_at(stats, engine.labels, engine.p)
        seen.append((cheapest(engine, members), risk_mod._walk(walked, members)[1]))
        return seen[-1][0]

    monkeypatch.setattr(risk_mod, "_cheapest", walked_too)
    accepted = rejected = 0
    for trial in range(120):
        draws = random_draws(rng, int(rng.integers(2, 30)), int(rng.choice([1, 2, 3, 4, 7, 8])), max_k=4)
        stats = precompute_stats(draws)
        u = stats.support.size
        if u == 0:
            continue
        p = params[trial % 2]
        if trial % 4 < 2:
            engine = engine_at(stats, rng.integers(0, 4, size=u), p)
        else:  # an incremental assignment, whose cells are harder to improve on
            engine = engine_at(stats, np.full(u, -1), p)
            risk_mod._walk(engine, rng.permutation(u))
        assert engine.exact_risks
        for target in [0] + engine.live_ids().tolist():
            members = np.flatnonzero(engine.labels == target)
            if members.size == 0:
                continue
            counts = recount(draws, engine.labels)
            without = engine.labels.copy()
            without[members] = 0
            trial_counts = recount(draws, without) - [int(engine._n_active[members].sum()), 0, 0, 0]
            out = risk_mod._zealous(engine, rng.permutation(members), counts)
            bound, walked = seen.pop()
            assert engine.risk(trial_counts) + bound <= engine.risk(trial_counts + walked)
            if out is counts:
                rejected += 1
            else:
                accepted += 1
                break  # the state changed; its other cells are stale
    assert accepted >= 30 and rejected >= 100


def test_removal_counts_match_recount(monkeypatch):
    """What unassigning a whole cell takes off the risk counts, counted from
    its members' draw cells (rows of N and counted members both), equals
    the difference of two recounts."""
    monkeypatch.setattr(risk_mod, "_WIDE", 2)
    rng = np.random.default_rng(45)
    wide = narrow = checked = 0
    for _ in range(60):
        draws = random_draws(rng, int(rng.integers(2, 40)), int(rng.integers(1, 8)), max_k=4)
        stats = precompute_stats(draws)
        u = stats.support.size
        if u == 0:
            continue
        engine = engine_at(stats, rng.integers(0, 5, size=u))
        wide += engine._n_wide > 0
        narrow += engine._nlen.size > 0
        counts = recount(draws, engine.labels)
        for target in [0] + engine.live_ids().tolist():
            members = np.flatnonzero(engine.labels == target)
            if members.size == 0:
                continue
            without = engine.labels.copy()
            without[members] = 0
            lost = counts - recount(draws, without) + [int(engine._n_active[members].sum()), 0, 0, 0]
            assert engine.removal_counts(members).tolist() == lost.tolist()
            checked += 1
    assert checked >= 150 and wide >= 10 and narrow >= 10


@pytest.mark.filterwarnings("ignore::ballet.errors.SearchPassCapWarning")
def test_tracked_risk_equals_recount(monkeypatch):
    """The risk counts a restart tracks from the priced decisions equal the
    recounted ones before and after every zealous attempt, for any weights;
    and every walk starts from a table that counts exactly its labels, with
    the ids a zealous attempt leaves dead counting nothing."""
    rng = np.random.default_rng(41)
    zealous = risk_mod._zealous
    walk = risk_mod._walk

    def checked_walk(engine, order):
        lab = engine.labels
        live = engine.live_ids()
        assert live.tolist() == np.unique(lab[lab > 0]).tolist()
        assert not engine.T[:, engine.sizes == 0].any()
        # the rows of A, compared with a rebuild (which renumbers ids 1..k in order)
        fresh = copy.deepcopy(engine)
        fresh.reset(lab)
        A = engine.T[engine._n_wide : engine._n_wide + engine._S, live]
        assert (A == fresh.T[fresh._n_wide : fresh._n_wide + fresh._S, 1 : live.size + 1]).all()
        return walk(engine, order)

    monkeypatch.setattr(risk_mod, "_walk", checked_walk)
    params = [LossParams(), LossParams(a=1.0, b=2.0, m_ai=0.25, m_ia=1.0), LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6)]
    checks = []

    for trial in range(15):
        draws = random_draws(rng, int(rng.integers(6, 40)), int(rng.integers(1, 8)), max_k=5)
        stats = precompute_stats(draws)

        def checked(engine, members, counts):
            assert counts.tolist() == recount(draws, engine.labels).tolist()
            out = zealous(engine, members, counts)
            assert out.tolist() == recount(draws, engine.labels).tolist()
            checks.append(out)
            return out

        monkeypatch.setattr(risk_mod, "_zealous", checked)
        cfg = SearchConfig(n_restarts=4, n_sweeten_passes=2, n_zealous_attempts=6, seed=trial)
        search(stats, params[trial % 3], cfg)
    assert len(checks) >= 100


def test_pass_cap_warning():
    rng = np.random.default_rng(42)
    draws = random_draws(rng, 30, 5, max_k=4)
    stats = precompute_stats(draws)
    # one pass after an incremental assignment of these draws still moves
    # points, so each restart stops at its cap
    cfg = SearchConfig(n_restarts=2, n_sweeten_passes=1, n_zealous_attempts=0, seed=1)
    with pytest.warns(SearchPassCapWarning) as caught:
        search(stats, cfg=cfg)
    assert any("restart 1 " in str(w.message) for w in caught)


def test_no_pass_cap_warning_by_default():
    rng = np.random.default_rng(43)
    draws = random_draws(rng, 30, 5, max_k=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SearchPassCapWarning)
        search(precompute_stats(draws))


# -- fork pool -----------------------------------------------------------------


def labels_and_cap_warnings(stats, p, cfg):
    """A search's labels and the SearchPassCapWarning messages it emitted, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        labels = search(stats, p, cfg).labels
    return labels, [str(w.message) for w in caught if issubclass(w.category, SearchPassCapWarning)]


def test_pooled_search_matches_serial(monkeypatch):
    """With the size gate at 0, a search on 2 or 3 workers gives the serial
    search's labels and its pass-cap warnings in the same order, and no
    child process outlives the call."""
    monkeypatch.setattr(risk_mod, "_POOLED_MIN_ENTRIES", 0)
    opened = record_pools(monkeypatch)

    @settings(max_examples=40, deadline=None)
    @given(search_instances())
    @example(zealous_win())
    def check(instance):
        draws, p, cfg = instance
        stats = precompute_stats(draws)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(risk_mod, "cpu_count", lambda: cpus)
            runs.append(labels_and_cap_warnings(stats, p, cfg))
            assert no_child_left()
        assert runs[1] == runs[0] and runs[2] == runs[0]
        capped.append(len(runs[0][1]))

    capped = []
    check()
    assert {2, 3} <= set(opened) and max(capped) >= 2


def test_pooled_search_reads_results_in_restart_order(monkeypatch):
    """When the odd restarts finish first, the pick and the order of the
    pass-cap warnings are still the serial ones."""
    draws = random_draws(np.random.default_rng(42), 30, 5, max_k=4)
    stats = precompute_stats(draws)
    cfg = SearchConfig(n_restarts=4, n_sweeten_passes=1, n_zealous_attempts=0, seed=1)
    restart = risk_mod._restart
    signature = inspect.signature(restart)

    def even_ones_late(*args, **kwargs):
        if signature.bind(*args, **kwargs).arguments["i"] % 2 == 0:  # an even restart
            time.sleep(0.1)
        return restart(*args, **kwargs)

    monkeypatch.setattr(risk_mod, "_restart", even_ones_late)
    serial = labels_and_cap_warnings(stats, LossParams(), cfg)
    monkeypatch.setattr(risk_mod, "_POOLED_MIN_ENTRIES", 0)
    monkeypatch.setattr(risk_mod, "cpu_count", lambda: 4)
    assert labels_and_cap_warnings(stats, LossParams(), cfg) == serial
    assert len(serial[1]) >= 2


def test_pooled_search_counts_the_draws_after_the_pool(monkeypatch):
    """With the gate at 0 and 2 CPUs, a search whose draws survive the bound,
    one winning outright and one by order, gives the serial labels: its one
    pool's tasks are the restarts alone, the draws are counted after it, and
    no child process outlives the call."""
    monkeypatch.setattr(risk_mod, "_POOLED_MIN_ENTRIES", 0)
    fork_map = risk_mod.fork_map
    tasks = []

    def recorded(fn, state, args, workers, what):
        tasks.append([a[0] for a in args])
        return fork_map(fn, state, args, workers, what)

    monkeypatch.setattr(risk_mod, "fork_map", recorded)
    opened = record_pools(monkeypatch)
    for draws, p, cfg in (SEED_WINS, SEED_TIES):
        stats = precompute_stats(draws)
        monkeypatch.setattr(risk_mod, "cpu_count", lambda: 1)
        serial = labels_and_cap_warnings(stats, p, cfg)
        assert serial[0] == draws[0].labels  # the draw wins
        assert all(labels != draws[0] for _, labels in restarts_alone(stats, p, cfg))  # no restart reaches it
        monkeypatch.setattr(risk_mod, "cpu_count", lambda: 2)
        assert labels_and_cap_warnings(stats, p, cfg) == serial and no_child_left()
    assert opened == [2, 2]  # one pool per pooled search, none for a serial one
    assert tasks == [[0, 1]] * 4  # restarts 0 and 1, in every search


def test_search_pool_gate(monkeypatch):
    """A search opens a pool of min(CPUs, restarts) workers from
    _POOLED_MIN_ENTRIES (point, draw) entries times restarts, none below."""
    monkeypatch.setattr(risk_mod, "cpu_count", lambda: 3)
    opened = record_pools(monkeypatch)
    draws = random_draws(np.random.default_rng(46), 30, 5, max_k=4)
    stats = precompute_stats(draws)
    cfg = SearchConfig(n_restarts=2)
    work = np.count_nonzero(oracle_label_matrix(draws)) * cfg.n_restarts
    labels = []
    for gate in (work + 1, work):
        monkeypatch.setattr(risk_mod, "_POOLED_MIN_ENTRIES", gate)
        labels.append(search(stats, cfg=cfg).labels)
    assert opened == [2] and labels[0] == labels[1]


def test_search_pools_only_with_several_cpus(monkeypatch):
    """With the gate at 0 and the CPUs this process may really run on, a
    search opens a pool when there are several, and none on one CPU (as
    under taskset -c 0)."""
    monkeypatch.setattr(risk_mod, "_POOLED_MIN_ENTRIES", 0)
    opened = record_pools(monkeypatch)
    draws = random_draws(np.random.default_rng(47), 30, 5, max_k=4)
    search(precompute_stats(draws), cfg=SearchConfig(n_restarts=4))
    cpus = risk_mod.cpu_count()
    assert opened == ([min(cpus, 4)] if cpus > 1 else [])
    assert no_child_left()


def test_search_in_a_child_process_opens_no_pool(monkeypatch):
    """A search inside a child process, such as a worker of
    run_simulation_study, runs serially: its parent already uses the CPUs."""
    monkeypatch.setattr(risk_mod, "_POOLED_MIN_ENTRIES", 0)
    monkeypatch.setattr(risk_mod, "cpu_count", lambda: 2)
    draws = random_draws(np.random.default_rng(48), 30, 5, max_k=4)
    stats = precompute_stats(draws)
    cfg = SearchConfig(n_restarts=4)
    expected = search(stats, cfg=cfg).labels

    def refuse(*args, **kwargs):
        raise AssertionError("a search in a child process opened a pool")

    def child():
        util_mod._fork_lanes = refuse  # in the child's memory only
        sys.exit(0 if search(stats, cfg=cfg).labels == expected else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
    assert proc.exitcode == 0


def test_dead_pool_worker_is_an_infeasible_error(monkeypatch):
    """A pool worker killed by a signal fails the search with an
    InfeasibleError (exit 5), not a BrokenProcessPool, and every worker is
    reaped."""
    monkeypatch.setattr(risk_mod, "_POOLED_MIN_ENTRIES", 0)
    monkeypatch.setattr(risk_mod, "cpu_count", lambda: 2)
    monkeypatch.setattr(risk_mod, "_restart", die_in_a_worker)
    draws = random_draws(np.random.default_rng(49), 30, 5, max_k=4)
    with pytest.raises(InfeasibleError, match="search worker"):
        search(precompute_stats(draws), cfg=SearchConfig(n_restarts=4))
    assert no_child_left()


def test_pool_tasks_run_their_searches_serially(monkeypatch):
    """A search inside a fork_map task, in a forked worker or in the calling
    process, opens no pool of its own: the pool already uses the CPUs."""
    monkeypatch.setattr(risk_mod, "_POOLED_MIN_ENTRIES", 0)
    monkeypatch.setattr(risk_mod, "cpu_count", lambda: 2)
    opened = record_pools(monkeypatch)
    draws = random_draws(np.random.default_rng(50), 30, 5, max_k=4)
    stats = precompute_stats(draws)
    cfg = SearchConfig(n_restarts=4)
    expected = search(stats, cfg=cfg).labels
    assert opened == [2]

    def search_and_count(_, k):
        return search(stats, cfg=cfg).labels, len(opened)

    runs = util_mod.fork_map(search_and_count, None, [(k,) for k in range(4)], 2, "test")
    assert opened == [2, 2] and runs == [(expected, 2)] * 4 and no_child_left()


def test_pool_returns_results_and_the_first_error_in_task_order():
    """fork_map gives the serial results for more tasks than claim records,
    and raises the first failed task's error in task order, on any number of
    processes."""
    squares = [i * i for i in range(2500)]

    def fail_at_3_and_7(_, i):
        if i in (3, 7):
            raise ValueError(i)
        return i

    for workers in (1, 2, 3):
        assert util_mod.fork_map(lambda _, i: i * i, None, [(i,) for i in range(2500)], workers, "test") == squares
        with pytest.raises(ValueError) as failed:
            util_mod.fork_map(fail_at_3_and_7, None, [(i,) for i in range(10)], workers, "test")
        assert failed.value.args == (3,) and no_child_left()


def test_pool_relays_each_tasks_warnings_in_task_order():
    """fork_map emits every task's warnings again, with their messages,
    categories and lines, in task order and under the caller's filters, on
    any number of processes. With a failed task it emits those of the tasks
    up to and including it, then raises its error, as a serial run does."""

    def warn_twice(_, i, fail_at):
        if i == 0:
            time.sleep(0.1)  # the other processes run the later tasks first
        warnings.warn(f"task {i}", UserWarning)
        warnings.warn(f"task {i} again", RuntimeWarning if i % 2 else DeprecationWarning)
        if i == fail_at:
            raise ValueError(i)
        return i

    def run(workers, fail_at, action):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            try:
                result = util_mod.fork_map(warn_twice, None, [(i, fail_at) for i in range(9)], workers, "test")
            except (ValueError, UserWarning) as exc:
                result = (type(exc), str(exc))
        assert no_child_left()
        return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

    for fail_at in (None, 5):
        serial = run(1, fail_at, "always")
        assert run(2, fail_at, "always") == serial and run(3, fail_at, "always") == serial
        last = 8 if fail_at is None else fail_at
        assert [m for m, *_ in serial[1]] == [f"task {i}{t}" for i in range(last + 1) for t in ("", " again")]
        assert serial[0] == (list(range(9)) if fail_at is None else (ValueError, "5"))
    for workers in (1, 2, 3):  # the caller's "error" filter makes task 0's first warning its error
        assert run(workers, None, "error") == ((UserWarning, "task 0"), [])


def test_pool_filters_a_relayed_warning_as_its_module_would():
    """A worker's warning meets the caller's filters as warnings.warn meets
    them in the module that raised it: the default filter shows it once,
    however many pooled calls raise it, and a filter on that module's name
    matches it. A warning from code compiled from a string, in no loaded
    module's file, is shown too."""

    def warn(_, i):
        time.sleep(0.05)  # so that every process claims a task
        warnings.warn("from a task", UserWarning)
        return os.getpid()

    for workers in (1, 2, 3):
        pids = set()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(2):
                pids |= set(util_mod.fork_map(warn, None, [(i,) for i in range(4)], workers, "test"))
            assert len(caught) == 1
            warnings.filterwarnings("ignore", module=__name__)
            util_mod.fork_map(warn, None, [(i,) for i in range(4)], workers, "test")
            assert len(caught) == 1
        assert (len(pids) > 1) == (workers > 1) and no_child_left()
    scope = {"time": time, "warnings": warnings}
    exec(compile("def warn(_, i):\n    time.sleep(0.05)\n    warnings.warn(f'task {i}')\n", "<string>", "exec"), scope)
    for workers in (1, 2, 3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            util_mod.fork_map(scope["warn"], None, [(i,) for i in range(4)], workers, "test")
        assert [str(w.message) for w in caught] == [f"task {i}" for i in range(4)]


def test_pool_stays_serial_beside_another_thread(monkeypatch):
    """fork_map forks no worker while the calling process runs another
    thread: the fork would copy that thread's locks mid-use."""
    opened = record_pools(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        squares = util_mod.fork_map(lambda _, i: i * i, None, [(i,) for i in range(4)], 2, "test")
    finally:
        release.set()
        waiter.join(timeout=10)
    assert squares == [0, 1, 4, 9] and opened == [] and not waiter.is_alive()
    assert util_mod.fork_map(lambda _, i: i * i, None, [(i,) for i in range(4)], 2, "test") == squares
    assert opened == [2]


def test_pool_kills_its_workers_when_the_caller_fails():
    """When the calling process fails in its own share of the tasks (here
    interrupted), the workers still running are killed and reaped."""

    def interrupted_here_slow_there(_, i):
        if os.getpid() == TEST_PID:
            time.sleep(0.1)  # let the workers claim a task
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        util_mod.fork_map(interrupted_here_slow_there, None, [(i,) for i in range(3)], 3, "test")
    assert no_child_left() and time.perf_counter() - start < 30


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
