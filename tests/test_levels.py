import json

import numpy as np
import pytest

from ballet.density import DensityDrawEnsemble, HistogramMixtureConfig, build_ensemble
from ballet.errors import ConfigError, InfeasibleError
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
from ballet.subpartition import SubPartition
from oracles import planted_knee_curve


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
    acts = [set(c.active_indices.tolist()) for c in tree.clusterings]
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
    obj = json.loads(tree.to_json())
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
