import json
import multiprocessing
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ballet.levels as levels_mod
import ballet.levelset as levelset_mod
import ballet.risk as risk_mod
import ballet.util as util_mod
from ballet.density import DensityDrawEnsemble, HistogramMixtureConfig, build_ensemble
from ballet.errors import ConfigError, InfeasibleError, SearchPassCapWarning
from ballet.levels import (
    ClusterTree,
    ElbowResult,
    LevelSelectionWarning,
    LevelSpec,
    TreeEdge,
    build_cluster_tree,
    elbow_level,
    persistent_clusters,
    resolve_level,
    tree_from_clusterings,
)
from ballet.levelset import PointSet, surrogate_cluster
from ballet.risk import SearchConfig, plugin_estimate
from ballet.subpartition import LossParams, SubPartition
from ballet.util import _ceil_count, canonical_json
from oracles import planted_knee_curve
from pools import die_in_a_worker, no_child_left, record_pools


# -- level specs ----------------------------------------------------------------


def test_level_spec_validation():
    with pytest.raises(ValueError):
        LevelSpec("percentile", 0.5)
    with pytest.raises(ValueError):
        LevelSpec("lambda", -1.0)
    with pytest.raises(ValueError):
        LevelSpec("noise_fraction", 1.0)
    with pytest.raises(ValueError):
        LevelSpec("cosmo_c", -2.0)


def test_resolve_lambda_identity():
    assert resolve_level(LevelSpec("lambda", 1.7)) == 1.7


def test_resolve_cosmo_c_unit_square():
    assert resolve_level(LevelSpec("cosmo_c", 1.0), domain_volume=1.0) == 2.0
    assert resolve_level(LevelSpec("cosmo_c", 0.2), domain_volume=4.0) == pytest.approx(0.3)


def test_resolve_noise_fraction_order_statistic():
    dens = np.arange(1, 11) / 10.0
    assert resolve_level(LevelSpec("noise_fraction", 0.1), density_at_points=dens) == 0.2
    assert resolve_level(LevelSpec("noise_fraction", 0.0), density_at_points=dens) == 0.1


@given(
    st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.5]), min_size=1, max_size=60),
    st.floats(min_value=0.0, max_value=0.99),
)
@example([0.0] * 12, 0.5)
@example([0.0, 1.0] * 20, 0.9)
@example([2.5, 0.0, 0.0, 1.0, 1.0, 1.0, 0.25], 0.0)
@example([1.0] * 7 + [0.0] * 30, 0.8)
@settings(max_examples=200, deadline=None)
def test_resolve_noise_fraction_ties_and_zeros(dens, nu):
    """The m-th largest of a plain descending sort, bit for bit and sign
    included, on densities with many ties and exact zeros."""
    m = _ceil_count(1.0 - nu, len(dens))
    naive = sorted(dens, reverse=True)[m - 1]
    got = resolve_level(LevelSpec("noise_fraction", nu), density_at_points=np.asarray(dens))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(naive).tobytes()


def test_resolve_missing_reference():
    with pytest.raises(ConfigError):
        resolve_level(LevelSpec("noise_fraction", 0.1))
    with pytest.raises(ConfigError):
        resolve_level(LevelSpec("cosmo_c", 1.0))
    with pytest.raises(ConfigError):
        resolve_level(LevelSpec("cosmo_c", 1.0), domain_volume=0.0)


def test_resolve_monotone_in_nu_and_c():
    rng = np.random.default_rng(0)
    dens = rng.random(57)
    lams = [
        resolve_level(LevelSpec("noise_fraction", nu), density_at_points=dens)
        for nu in (0.0, 0.1, 0.25, 0.5, 0.9)
    ]
    assert all(a <= b for a, b in zip(lams, lams[1:]))
    cs = [resolve_level(LevelSpec("cosmo_c", c), domain_volume=2.0) for c in (-0.5, 0.0, 1.0, 2.0)]
    assert all(a < b for a, b in zip(cs, cs[1:]))


# -- elbow ----------------------------------------------------------------------


def test_elbow_detects_planted_knee():
    dens = planted_knee_curve(200, 30)
    rng = np.random.default_rng(1)
    shuffled = rng.permutation(dens)
    res = elbow_level(shuffled)
    assert not res.fallback
    assert abs(res.rank - 30) <= 2
    assert res.lam == pytest.approx(np.sort(dens)[res.rank])
    assert res.nu == pytest.approx(res.rank / 200)


def test_elbow_rank_within_two_on_random_planted_curves():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(120, 600))
        knee = int(rng.integers(10, n // 3))
        dens = planted_knee_curve(
            n, knee, rise=float(rng.uniform(2, 6)), tail_slope=float(rng.uniform(0.05, 0.4)),
            rng=rng,
        )
        res = elbow_level(dens)
        assert not res.fallback
        assert abs(res.rank - knee) <= 2


def test_elbow_linear_curve_falls_back():
    dens = np.exp(np.linspace(0.0, 3.0, 100))
    with pytest.warns(LevelSelectionWarning):
        res = elbow_level(dens)
    assert res.fallback
    assert res.nu == 0.1
    assert res.lam == pytest.approx(np.sort(dens)[10])
    assert resolve_level(LevelSpec("noise_fraction", 0.1), density_at_points=dens) == res.lam


def test_elbow_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        elbow_level(np.array([0.5, 0.0, 1.0]))
    with pytest.raises(ValueError):
        elbow_level(np.array([0.5, -0.2, 1.0]))


def test_elbow_gaussian_plus_uniform_trough():
    rng = np.random.default_rng(3)
    n = 2000
    from_noise = rng.random(n) < 0.2
    x = np.where(from_noise, rng.uniform(0, 10, n), rng.normal(5.0, 0.5, n))

    def true_density(t):
        return 0.2 / 10.0 + 0.8 * np.exp(-0.5 * ((t - 5.0) / 0.5) ** 2) / (0.5 * np.sqrt(2 * np.pi))

    dens = true_density(x)
    res = elbow_level(dens)
    assert not res.fallback
    trough = np.abs(x - 5.0) > 3.0
    active_in_trough = np.mean(dens[trough] >= res.lam)
    assert active_in_trough < 0.05


# -- cluster tree ---------------------------------------------------------------


def three_mode_fixture():
    """Fifteen points in three separated blobs plus two low-density points."""
    pts = np.concatenate([
        np.linspace(0.0, 0.4, 5),
        np.linspace(10.0, 10.4, 5),
        np.linspace(20.0, 20.4, 5),
        [5.0, 15.0],
    ])[:, None]
    dens = np.concatenate([np.full(5, 3.0), np.full(5, 2.0), np.full(5, 1.0), [0.1, 0.1]])
    return PointSet(pts), dens


def test_tree_nested_levels_three_modes():
    ps, dens = three_mode_fixture()
    levels = [0.5, 1.5, 2.5]
    tree = tree_from_clusterings(levels, [surrogate_cluster(ps, dens, lam, 0.5) for lam in levels])
    assert [c.k for c in tree.clusterings] == [3, 2, 1]
    # active sets nest as the level rises
    acts = [set(np.flatnonzero(c.labels_array).tolist()) for c in tree.clusterings]
    assert acts[2] <= acts[1] <= acts[0]
    # every lower-row cluster overlaps exactly one upper-row cluster
    for e_level in (1, 2):
        for cid in range(1, tree.clusterings[e_level].k + 1):
            assert len(tree.parents(e_level, cid)) == 1
    persistent = persistent_clusters(tree)
    assert persistent == {(0, 1)}


def test_tree_identical_rows_are_parallel_chains():
    sp = SubPartition([1, 1, 2, 2, 0])
    tree = tree_from_clusterings([0.1, 0.2, 0.3], [sp, sp, sp])
    for level in (1, 2):
        for cid in (1, 2):
            assert tree.parents(level, cid) == [(cid, 2)]
    assert persistent_clusters(tree) == {(0, 1), (0, 2)}


def test_tree_chain_starting_mid_tree():
    # second blob only active in the two bottom rows
    rows = [
        SubPartition([1, 1, 0, 0]),
        SubPartition([1, 1, 2, 2]),
        SubPartition([1, 1, 2, 2]),
    ]
    tree = tree_from_clusterings([1.0, 2.0, 3.0], rows)
    assert tree.parents(1, 2) == []
    assert persistent_clusters(tree) == {(0, 1), (1, 2)}


def test_tree_five_node_split_fixture():
    rows = [
        SubPartition([1, 1, 1, 1]),
        SubPartition([1, 1, 2, 2]),
        SubPartition([1, 0, 2, 0]),
    ]
    tree = tree_from_clusterings([1.0, 2.0, 3.0], rows)
    assert len(tree.nodes()) == 5
    assert persistent_clusters(tree) == {(1, 1), (1, 2)}


def test_tree_bottom_only_cluster_is_its_own_persistent_cluster():
    rows = [
        SubPartition([1, 1, 0]),
        SubPartition([1, 0, 2]),
    ]
    tree = tree_from_clusterings([1.0, 2.0], rows)
    assert persistent_clusters(tree) == {(0, 1), (1, 2)}


def test_tree_multi_parent_strict_raises_heuristic_resolves():
    rows = [
        SubPartition([1, 1, 2, 2]),
        SubPartition([0, 1, 1, 0]),
    ]
    tree = tree_from_clusterings([1.0, 2.0], rows)
    with pytest.raises(InfeasibleError):
        persistent_clusters(tree)
    # tie on overlap resolves to parent 1, which has one child, so the walk
    # continues to the top row
    assert persistent_clusters(tree, strict=False) == {(0, 1)}


def test_tree_persistent_count_bounded_by_bottom_row():
    rng = np.random.default_rng(4)
    from oracles import random_subpartition

    for _ in range(10):
        n = int(rng.integers(4, 10))
        rows = [random_subpartition(rng, n) for _ in range(3)]
        tree = tree_from_clusterings([1.0, 2.0, 3.0], rows)
        try:
            pers = persistent_clusters(tree)
        except InfeasibleError:
            pers = persistent_clusters(tree, strict=False)
        assert len(pers) <= tree.clusterings[-1].k


def test_tree_validation():
    sp2 = SubPartition([1, 1])
    with pytest.raises(ValueError):
        ClusterTree(levels=(1.0,), clusterings=(sp2,), edges=())
    with pytest.raises(ValueError):
        ClusterTree(levels=(1.0, 1.0), clusterings=(sp2, sp2), edges=())
    with pytest.raises(ValueError):
        ClusterTree(levels=(1.0, 2.0), clusterings=(sp2, SubPartition([1, 1, 0])), edges=())
    with pytest.raises(ValueError):
        ClusterTree(
            levels=(1.0, 2.0), clusterings=(sp2, sp2),
            edges=(TreeEdge(level=1, parent=2, child=1, weight=1),),
        )
    one_draw = DensityDrawEnsemble(np.ones((1, 2)))
    for levels in ([1.0], [2.0, 1.0]):
        with pytest.raises(ValueError):
            build_cluster_tree(PointSet(np.zeros((2, 1))), one_draw, levels, 1.0, estimator="plugin")


def test_tree_json_and_dot_exports():
    rows = [
        SubPartition([1, 1, 1, 1]),
        SubPartition([1, 1, 2, 2]),
    ]
    tree = tree_from_clusterings([0.5, 1.5], rows)
    obj = json.loads(canonical_json(tree.to_json_dict()))
    assert obj["levels"] == [0.5, 1.5]
    assert obj["clusterings"] == [[1, 1, 1, 1], [1, 1, 2, 2]]
    assert {tuple(n) for n in map(tuple, obj["nodes"])} == {(0, 1), (1, 1), (1, 2)}
    assert {(e["parent"], e["child"], e["weight"]) for e in obj["edges"]} == {(1, 1, 2), (1, 2, 2)}
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert "L0_C1 -> L1_C1" in dot
    assert "L0_C1 -> L1_C2" in dot
    assert "rank=same" in dot


def test_tree_from_ensemble_with_both_estimators():
    rng = np.random.default_rng(5)
    pts = np.concatenate([rng.normal(0, 0.2, (25, 2)), rng.normal(5, 0.2, (25, 2))])
    ps = PointSet(pts)
    ensemble = build_ensemble(ps, HistogramMixtureConfig(K=3, M_prime=6), S=10, seed=6)
    mean = ensemble.posterior_mean()
    lams = [float(np.quantile(mean, 0.1)), float(np.quantile(mean, 0.3))]
    tree_plugin = build_cluster_tree(ps, ensemble, lams, delta=1.0, estimator="plugin")
    tree_ballet = build_cluster_tree(ps, ensemble, lams, delta=1.0, estimator="ballet")
    assert len(tree_plugin.levels) == 2
    assert len(tree_ballet.levels) == 2
    assert tree_plugin.clusterings[0].k >= 1
    assert tree_ballet.clusterings[0].k >= 1


def test_plugin_tree_equals_per_level_plugin_estimates(monkeypatch):
    """A plugin tree labels all its levels in one engine call, as the
    plugin estimates label them level by level, levels at a posterior-mean
    value included; an ensemble of another n is plugin_estimate's
    InfeasibleError."""
    calls = []
    real = levelset_mod._component_labels

    def spy(n, pairs, active):
        calls.append(np.shape(active))
        return real(n, pairs, active)

    monkeypatch.setattr(levelset_mod, "_component_labels", spy)
    rng = np.random.default_rng(11)
    for trial in range(6):
        pts = np.concatenate([rng.normal(c, 0.3, (20, 2)) for c in (0.0, 2.0, 5.0)])
        ps = PointSet(pts)
        ensemble = build_ensemble(ps, HistogramMixtureConfig(K=4, M_prime=6), S=8, seed=trial)
        values = np.unique(ensemble.posterior_mean())
        lams = np.sort(rng.choice(values, size=int(rng.integers(2, 6)), replace=False)).tolist()
        delta = float(rng.uniform(0.3, 1.0))
        calls.clear()
        tree = build_cluster_tree(ps, ensemble, lams, delta, estimator="plugin")
        assert calls == [(len(lams), len(pts))]
        assert len({tuple(sp.labels) for sp in tree.clusterings}) > 1
        want = tree_from_clusterings(lams, [plugin_estimate(ps, ensemble, lam, delta) for lam in lams])
        assert tree == want
    with pytest.raises(InfeasibleError, match="ensemble has n=60 but point set has n=59"):
        build_cluster_tree(PointSet(pts[:-1]), ensemble, lams, delta, estimator="plugin")


# -- the tree's fork pool -------------------------------------------------------


def tree_and_cap_warnings(ps, ensemble, lams, delta, p, cfg):
    """A ballet tree's rows, edges and persistent clusters, and the
    SearchPassCapWarning messages it emitted, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tree = build_cluster_tree(ps, ensemble, lams, delta, p=p, cfg=cfg)
    rows = [sp.labels for sp in tree.clusterings]
    caps = [str(w.message) for w in caught if issubclass(w.category, SearchPassCapWarning)]
    return rows, tree.edges, persistent_clusters(tree, strict=False), caps


@st.composite
def tree_instances(draw):
    """Small point sets with random draw values (S in 2..8), 2 to 4 levels
    taken from those values, and a search capped at one sweetening pass,
    so that some levels warn."""
    n = draw(st.integers(4, 30))
    S = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ps = PointSet(rng.normal(0.0, 1.0, (n, 2)))
    values = rng.gamma(2.0, 1.0, (S, n))
    lams = np.unique(rng.choice(values.ravel(), draw(st.integers(2, 4)), replace=False))
    if lams.size < 2:
        lams = np.array([0.0, float(values.max())])
    p = draw(st.sampled_from([LossParams(), LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6)]))
    cfg = SearchConfig(
        n_restarts=draw(st.integers(1, 4)),
        n_sweeten_passes=1,
        n_zealous_attempts=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    delta = draw(st.sampled_from([0.3, 0.8, 1.5]))
    return ps, DensityDrawEnsemble(values), lams.tolist(), delta, p, cfg


def test_pooled_tree_matches_serial(monkeypatch):
    """With the size gate at 0, a tree on 2 or 3 workers gives the serial
    tree's rows, edges and persistent clusters and its pass-cap warnings in
    the same order, and no child process outlives the call."""
    monkeypatch.setattr(levels_mod, "_POOLED_MIN_LEVEL_ENTRIES", 0)
    opened = record_pools(monkeypatch)

    @settings(max_examples=30, deadline=None)
    @given(tree_instances())
    @example(capped_ladder())
    def check(instance):
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(levels_mod, "cpu_count", lambda: cpus)
            runs.append(tree_and_cap_warnings(*instance))
            assert no_child_left()
        assert runs[1] == runs[0] and runs[2] == runs[0]
        capped.append(len(runs[0][3]))

    capped = []
    check()
    assert {2, 3} <= set(opened) and max(capped) >= 2


def two_blob_ladder(n=60, S=12, seed=5):
    rng = np.random.default_rng(seed)
    ps = PointSet(np.concatenate([rng.normal(0, 0.3, (n // 2, 2)), rng.normal(3, 0.3, (n - n // 2, 2))]))
    ensemble = build_ensemble(ps, HistogramMixtureConfig(K=4, M_prime=6), S=S, seed=seed)
    mean = ensemble.posterior_mean()
    lams = [float(np.quantile(mean, q)) for q in (0.1, 0.4, 0.7)]
    return ps, ensemble, lams, 0.8


def capped_ladder():
    """two_blob_ladder's tree with a search whose restarts, all started
    incrementally, still move points in their one sweetening pass: restart
    2 at one level, restarts 0 and 2 at another. The loss weighs a missed
    point 7 times an extra one."""
    ps, ensemble, lams, delta = two_blob_ladder()
    cfg = SearchConfig(n_restarts=3, n_sweeten_passes=1, n_zealous_attempts=0, seed=5)
    return ps, ensemble, lams, delta, LossParams(m_ai=0.875, m_ia=0.125), cfg


def test_pooled_tree_reads_levels_in_order(monkeypatch):
    """When level 0 finishes last, the rows and the order of the pass-cap
    warnings are still the serial ones."""
    ps, ensemble, lams, delta, p, cfg = capped_ladder()
    estimate = levels_mod.ballet_estimate

    def level_0_late(ps, ensemble, lam, *args, **kwargs):
        if lam == lams[0]:
            time.sleep(0.2)
        warnings.warn(f"level {lams.index(lam)}", SearchPassCapWarning)  # marks the level's place
        return estimate(ps, ensemble, lam, *args, **kwargs)

    monkeypatch.setattr(levels_mod, "ballet_estimate", level_0_late)
    serial = tree_and_cap_warnings(ps, ensemble, lams, delta, p, cfg)
    monkeypatch.setattr(levels_mod, "_POOLED_MIN_LEVEL_ENTRIES", 0)
    monkeypatch.setattr(levels_mod, "cpu_count", lambda: 3)
    opened = record_pools(monkeypatch)
    assert tree_and_cap_warnings(ps, ensemble, lams, delta, p, cfg) == serial
    assert opened == [3] and [w for w in serial[3] if w.startswith("level")] == ["level 0", "level 1", "level 2"]
    assert any(w.startswith("search restart") for w in serial[3])


def test_tree_pool_gate(monkeypatch):
    """A tree opens a pool of min(CPUs, levels) workers from
    _POOLED_MIN_LEVEL_ENTRIES (point, draw) entries at or above the levels,
    none below, and none when a level's search would pool its restarts."""
    monkeypatch.setattr(levels_mod, "cpu_count", lambda: 3)
    monkeypatch.setattr(risk_mod, "cpu_count", lambda: 2)
    opened = record_pools(monkeypatch)
    ps, ensemble, lams, delta = two_blob_ladder()
    cfg = SearchConfig(n_restarts=2, seed=1)
    entries = [int(np.count_nonzero(ensemble.values >= lam)) for lam in lams]
    trees = []
    for gate in (sum(entries) + 1, sum(entries)):
        monkeypatch.setattr(levels_mod, "_POOLED_MIN_LEVEL_ENTRIES", gate)
        trees.append(build_cluster_tree(ps, ensemble, lams, delta, cfg=cfg))
    assert opened == [3] and trees[0] == trees[1]
    # the lowest level's search pools its 2 restarts itself, and the tree none
    monkeypatch.setattr(risk_mod, "_POOLED_MIN_ENTRIES", max(entries) * cfg.n_restarts)
    opened.clear()
    assert build_cluster_tree(ps, ensemble, lams, delta, cfg=cfg) == trees[0]
    assert opened == [2]


def test_tree_pools_only_with_several_cpus(monkeypatch):
    """With the gate at 0 and the CPUs this process may really run on, a
    tree opens a pool when there are several, and none on one CPU (as
    under taskset -c 0)."""
    monkeypatch.setattr(levels_mod, "_POOLED_MIN_LEVEL_ENTRIES", 0)
    opened = record_pools(monkeypatch)
    ps, ensemble, lams, delta = two_blob_ladder()
    build_cluster_tree(ps, ensemble, lams, delta, cfg=SearchConfig(n_restarts=2))
    cpus = levels_mod.cpu_count()
    assert opened == ([min(cpus, 3)] if cpus > 1 else [])
    assert no_child_left()


def test_tree_in_a_child_process_opens_no_pool(monkeypatch):
    """A tree built inside a child process estimates its levels serially:
    its parent already uses the CPUs."""
    monkeypatch.setattr(levels_mod, "_POOLED_MIN_LEVEL_ENTRIES", 0)
    monkeypatch.setattr(levels_mod, "cpu_count", lambda: 3)
    ps, ensemble, lams, delta = two_blob_ladder()
    cfg = SearchConfig(n_restarts=2)
    expected = build_cluster_tree(ps, ensemble, lams, delta, cfg=cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("a tree in a child process opened a pool")

    def child():
        util_mod._fork_lanes = refuse  # in the child's memory only
        sys.exit(0 if build_cluster_tree(ps, ensemble, lams, delta, cfg=cfg) == expected else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
    assert proc.exitcode == 0


def test_dead_tree_pool_worker_is_an_infeasible_error(monkeypatch):
    """A level worker killed by a signal fails the tree with an
    InfeasibleError (exit 5), not a BrokenProcessPool, and every worker is
    reaped."""
    monkeypatch.setattr(levels_mod, "_POOLED_MIN_LEVEL_ENTRIES", 0)
    monkeypatch.setattr(levels_mod, "cpu_count", lambda: 2)
    monkeypatch.setattr(levels_mod, "ballet_estimate", die_in_a_worker)
    ps, ensemble, lams, delta = two_blob_ladder()
    with pytest.raises(InfeasibleError, match="cluster tree worker"):
        build_cluster_tree(ps, ensemble, lams, delta, cfg=SearchConfig(n_restarts=2))
    assert no_child_left()
