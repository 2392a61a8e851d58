"""Acceptance suite: one numbered end-to-end check per shipped guarantee.

Each test prints a single line

    [criterion NN] PASS <name>: <measured values>

on success; on failure the assert carries the same line, so `pytest -v`
always yields one pass/fail verdict per criterion. Criteria with a time
budget assert wall-clock time too. The heavy criteria (search optimality,
consistency trend, desk-scale study, large ensemble build) dominate the
runtime of this module; everything is seeded and deterministic.
"""

import math
import time

import numpy as np

from ballet.bench import (
    BalletStudyConfig,
    DbscanStudyConfig,
    SkySurveySpec,
    generate_sky_survey,
    run_simulation_study,
)
from ballet.credible import credible_radius
from ballet.density import (
    HistogramBins,
    HistogramMixtureConfig,
    build_ensemble,
    fit_histogram_posterior,
    kde_uniform,
    knn_density,
    sample_bins,
)
from ballet.levels import (
    LevelSpec,
    build_cluster_tree,
    elbow_level,
    persistent_clusters,
    resolve_level,
    tree_from_clusterings,
)
from ballet.levelset import (
    AdaptiveDeltaConfig,
    PointSet,
    adaptive_delta,
    dbscan_star,
    surrogate_cluster,
    unit_ball_volume,
)
from ballet.risk import (
    SearchConfig,
    ballet_estimate,
    empirical_risk,
    plugin_estimate,
    precompute_stats,
    search,
)
from ballet.subpartition import (
    SubPartition,
    enumerate_subpartitions,
    ia_binder_loss,
    pairwise_penalty_sum,
    rescaled_distance,
)
from oracles import oracle_ia_binder_loss, oracle_knn_distance, planted_knee_curve, random_subpartition


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


# -- 1: metric properties of the rescaled loss ---------------------------------


def test_criterion_01_metric_suite():
    """Triangle inequality, symmetry, identity, and D <= 1 on 10^4 random triples.

    The triangle inequality is asserted on the raw losses (exact half-integer
    arithmetic); dividing all three sides by the shared pair count preserves
    it, while re-deriving it from the three rounded quotients could flip a
    tie by one ulp.
    """
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    n_triples = 10_000
    for _ in range(n_triples):
        n = int(rng.integers(2, 13))
        c1 = random_subpartition(rng, n)
        c2 = random_subpartition(rng, n)
        c3 = random_subpartition(rng, n)
        l12 = ia_binder_loss(c1, c2)
        l13 = ia_binder_loss(c1, c3)
        l23 = ia_binder_loss(c2, c3)
        assert ia_binder_loss(c2, c1) == l12  # symmetry
        assert l12 <= l13 + l23 and l13 <= l12 + l23 and l23 <= l12 + l13
        assert rescaled_distance(c1, c1) == 0.0
        assert (l12 == 0.0) == (c1.labels == c2.labels)  # zero iff equal
        assert rescaled_distance(c1, c2) <= 1.0
        assert rescaled_distance(c1, c3) <= 1.0
        assert rescaled_distance(c2, c3) <= 1.0
    dt = time.perf_counter() - t0
    _report(
        1,
        "metric suite",
        dt < 10.0,
        f"{n_triples} triples (n <= 12): triangle/symmetry/identity/D<=1 exact; {dt:.2f}s (budget 10s)",
    )


# -- 2: per-pair penalty decomposition ------------------------------------------


def test_criterion_02_sum_representation_identity():
    rng = np.random.default_rng(202)
    n_pairs = 1000
    for _ in range(n_pairs):
        n = int(rng.integers(2, 36))
        c1 = random_subpartition(rng, n, max_k=5)
        c2 = random_subpartition(rng, n, max_k=5)
        assert pairwise_penalty_sum(c1, c2) == ia_binder_loss(c1, c2)
    _report(2, "sum representation", True, f"penalty sum == loss bit-exact on {n_pairs} random pairs")


# -- 3: empirical risk equals the mean per-draw loss ----------------------------


def test_criterion_03_risk_identity():
    rng = np.random.default_rng(303)
    worst = 0.0
    n_instances = 200
    for _ in range(n_instances):
        n = int(rng.integers(2, 31))
        S = int(rng.integers(3, 26))
        draws = [random_subpartition(rng, n) for _ in range(S)]
        stats = precompute_stats(draws)
        c = random_subpartition(rng, n)
        emp = empirical_risk(c, stats)
        naive = float(np.mean([ia_binder_loss(d, c) for d in draws]))
        worst = max(worst, abs(emp - naive))
    _report(3, "risk identity", worst <= 1e-12, f"max |risk - mean loss| = {worst:.2e} over {n_instances} instances (tol 1e-12)")


# -- 4: search vs. brute force on enumerable instances --------------------------


def test_criterion_04_search_optimality_small_instances():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    n_instances = 100
    hits = 0
    for trial in range(n_instances):
        n = int(rng.integers(2, 8))
        draws = [random_subpartition(rng, n, max_k=3) for _ in range(20)]
        stats = precompute_stats(draws)
        est = search(stats, cfg=SearchConfig(n_restarts=32, seed=trial), seeds=draws)
        got = empirical_risk(est, stats)
        brute = min(empirical_risk(c, stats) for c in enumerate_subpartitions(n))
        assert got >= brute - 1e-12, f"search risk {got} below brute-force minimum {brute}"
        if got <= brute + 1e-12:
            hits += 1
    dt = time.perf_counter() - t0
    _report(
        4,
        "search optimality",
        hits >= 95 and dt < 300.0,
        f"optimal in {hits}/{n_instances} instances (need >= 95), never below; {dt:.1f}s (budget 300s)",
    )


# -- 5: level-set clustering reproduces DBSCAN* ---------------------------------


def test_criterion_05_dbscan_star_equivalence():
    rng = np.random.default_rng(505)
    n = 500
    n_datasets = 50
    for _ in range(n_datasets):
        centers = rng.uniform(-3.0, 3.0, (2, 2))
        sds = rng.uniform(0.3, 0.8, 2)
        pts = np.concatenate(
            [
                centers[0] + rng.normal(0.0, sds[0], (200, 2)),
                centers[1] + rng.normal(0.0, sds[1], (150, 2)),
                rng.uniform(-4.0, 4.0, (150, 2)),
            ]
        )
        ps = PointSet(pts)
        eps = float(rng.uniform(0.15, 0.6))
        min_pts = int(rng.integers(2, 13))
        lam = min_pts / (n * unit_ball_volume(ps.d) * eps ** ps.d)
        star = dbscan_star(ps, eps=eps, min_pts=min_pts)
        via_kde = surrogate_cluster(ps, kde_uniform(ps, eps)(ps.points), lam, eps, closed_edges=True)
        assert via_kde.labels == star.labels
        via_knn = surrogate_cluster(ps, knn_density(ps, min_pts)(ps.points), lam, eps, closed_edges=True)
        assert via_knn.labels == star.labels
    _report(
        5,
        "dbscan* equivalence",
        True,
        f"{n_datasets} datasets (n = {n}): uniform-kernel and k-NN level sets match dbscan_star exactly",
    )


# -- 6: credible ball coverage and minimality ------------------------------------


def test_criterion_06_credible_ball_coverage():
    rng = np.random.default_rng(606)
    n_ensembles = 20
    checked_minimal = 0
    for trial in range(n_ensembles):
        n = int(rng.integers(5, 11))
        S = int(rng.integers(30, 61))
        draws = [random_subpartition(rng, n) for _ in range(S)]
        stats = precompute_stats(draws)
        center = search(stats, cfg=SearchConfig(n_restarts=8, seed=trial), seeds=draws)
        dists = np.array([ia_binder_loss(center, c) for c in draws])
        for alpha in (0.05, 0.25):
            eps_star = credible_radius(center, draws, alpha=alpha)
            coverage = float(np.mean(dists <= eps_star))
            assert coverage >= 1.0 - alpha, f"coverage {coverage} below {1 - alpha} at alpha={alpha}"
            below = dists[dists < eps_star]
            if below.size:
                prev_cov = float(np.mean(dists <= below.max()))
                assert prev_cov < 1.0 - alpha, (
                    f"next-smaller radius already covers {prev_cov} >= {1 - alpha} at alpha={alpha}"
                )
                checked_minimal += 1
    _report(
        6,
        "credible ball",
        True,
        f"coverage >= 1-alpha at eps* and < 1-alpha one order statistic down "
        f"({checked_minimal} minimality checks) for alpha in {{0.05, 0.25}}, {n_ensembles} ensembles",
    )


# -- 7: estimates approach the analytic level-set clustering --------------------


_MIX_CENTERS = np.array([[-2.0, 0.0], [2.0, 0.0]])
_MIX_SD = 0.5
_MIX_LAMBDA = 0.05


def _mixture_density(X: np.ndarray) -> np.ndarray:
    """Equal two-component isotropic Gaussian mixture used as the truth."""
    norm = 1.0 / (2.0 * math.pi * _MIX_SD ** 2)
    out = np.zeros(len(X))
    for mu in _MIX_CENTERS:
        sq = ((X - mu) ** 2).sum(axis=1)
        out += 0.5 * norm * np.exp(-sq / (2.0 * _MIX_SD ** 2))
    return out


def _analytic_truth(pts: np.ndarray) -> SubPartition:
    """Level-lambda clustering of the data under the exact mixture density.

    At this level the set {f >= lambda} is two disjoint disks separated by
    the x = 0 plane, so component membership is the sign of the x coordinate.
    """
    active = _mixture_density(pts) >= _MIX_LAMBDA
    labels = np.where(active, np.where(pts[:, 0] < 0.0, 1, 2), 0)
    return SubPartition(labels)


def test_criterion_07_consistency_trend():
    t0 = time.perf_counter()
    ns = (250, 1000, 4000)
    reps = 20
    # histogram resolution refines as the sample grows, as consistency needs;
    # values sit at the empirical variance/bias sweet spot for each n
    bins_per_axis = {250: 10, 1000: 14, 4000: 28}
    medians = {"plugin": [], "search": []}
    for n in ns:
        hist = HistogramMixtureConfig(K=30, M_prime=bins_per_axis[n])
        d_plugin, d_search = [], []
        for rep in range(reps):
            seed = 707 * 1000 + 17 * n + rep
            rng = np.random.default_rng(seed)
            comp = rng.integers(0, 2, n)
            pts = _MIX_CENTERS[comp] + rng.normal(0.0, _MIX_SD, (n, 2))
            ps = PointSet(pts)
            truth = _analytic_truth(pts)
            ens = build_ensemble(ps, hist, S=30, seed=seed + 1)
            active = np.flatnonzero(ens.posterior_mean() >= _MIX_LAMBDA)
            delta = adaptive_delta(ps, active)
            d_plugin.append(rescaled_distance(plugin_estimate(ps, ens, _MIX_LAMBDA, delta), truth))
            res = ballet_estimate(
                ps,
                ens,
                _MIX_LAMBDA,
                delta,
                cfg=SearchConfig(n_restarts=2, n_zealous_attempts=2, seed=seed + 2),
            )
            d_search.append(rescaled_distance(res.estimate, truth))
        medians["plugin"].append(float(np.median(d_plugin)))
        medians["search"].append(float(np.median(d_search)))
    dt = time.perf_counter() - t0
    ok = dt < 600.0
    for name, med in medians.items():
        inversions = [b - a for a, b in zip(med, med[1:]) if b > a]
        ok = ok and len(inversions) <= 1 and all(gap <= 0.01 for gap in inversions)
        ok = ok and med[-1] < 0.05
    detail = ", ".join(
        f"{name} medians {' -> '.join(f'{m:.4f}' for m in med)}" for name, med in medians.items()
    )
    _report(
        7,
        "consistency trend",
        ok,
        f"{detail} over n={ns} ({reps} reps each); need nonincreasing (one inversion <= 0.01 allowed) "
        f"and < 0.05 at n=4000; {dt:.0f}s (budget 600s)",
    )


# -- 8: desk-scale replicated study ----------------------------------------------


def test_criterion_08_desk_scale_study():
    # full-size reference run (n = 40000, 42 components): ballet
    # sensitivity/specificity/exact-match ~ 0.78/0.99/0.87; recorded for
    # context, the desk-scale gates below are the acceptance criteria.
    t0 = time.perf_counter()
    spec = SkySurveySpec(n=4000, n_components=10, noise_mass=0.9, seed=808)
    result = run_simulation_study(10, spec, BalletStudyConfig(), DbscanStudyConfig())
    dt = time.perf_counter() - t0
    s = result.summary
    gates = {
        "ballet specificity >= 0.90": s["ballet"]["specificity"] >= 0.90,
        "ballet > dbscan specificity": s["ballet"]["specificity"] > s["dbscan"]["specificity"],
        "ballet sensitivity >= 0.60": s["ballet"]["sensitivity"] >= 0.60,
        "lower <= point <= upper sensitivity": (
            s["ballet_lower"]["sensitivity"]
            <= s["ballet"]["sensitivity"]
            <= s["ballet_upper"]["sensitivity"]
        ),
        "runtime < 900s": dt < 900.0,
    }
    detail = (
        f"ballet sens/spec/exact = {s['ballet']['sensitivity']:.3f}/{s['ballet']['specificity']:.3f}/"
        f"{s['ballet']['exact_match']:.3f}, dbscan spec = {s['dbscan']['specificity']:.3f}, "
        f"sens bounds {s['ballet_lower']['sensitivity']:.3f} <= {s['ballet']['sensitivity']:.3f} <= "
        f"{s['ballet_upper']['sensitivity']:.3f}; {dt:.0f}s (budget 900s)"
    )
    failed = [k for k, v in gates.items() if not v]
    _report(8, "desk-scale study", not failed, detail + (f"; FAILED: {failed}" if failed else ""))


# -- 9: histogram sampler correctness and throughput -----------------------------


def test_criterion_09_histogram_sampler():
    # posterior Dirichlet parameters on a hand fixture: counts/K plus the
    # prior mass alpha_d * area/total_area, exact in dyadic arithmetic
    cuts = np.array(
        [
            [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]],
            [[0.0, 0.25, 1.0], [0.0, 0.75, 1.0]],
        ]
    )
    bins = HistogramBins(cuts, ((0.0, 1.0), (0.0, 1.0)))
    cfg = HistogramMixtureConfig(K=2, M_prime=2, alpha_d=1.0)
    data = PointSet(np.array([[0.1, 0.1], [0.6, 0.2], [0.3, 0.8], [0.9, 0.9]]))
    post = fit_histogram_posterior(data, bins, cfg)
    assert np.array_equal(post.dirichlet_params[0], [0.75, 0.75, 0.75, 0.75])
    assert np.array_equal(
        post.dirichlet_params[1], [0.5 + 0.1875, 0.0625, 0.5 + 0.5625, 1.0 + 0.1875]
    )

    # K = 1, M' = 1 collapses to the uniform density on the domain
    uni_cfg = HistogramMixtureConfig(K=1, M_prime=1)
    dom = ((0.0, 2.0), (0.0, 2.0))
    uni_bins = sample_bins(uni_cfg, dom, np.random.default_rng(0))
    f = fit_histogram_posterior(data, uni_bins, uni_cfg).sample(np.random.default_rng(1))
    grid = np.array([[0.1, 0.3], [1.9, 1.9], [1.0, 0.5]])
    assert np.all(f(grid) == 0.25)

    # every posterior draw integrates to one
    rng = np.random.default_rng(909)
    big_cfg = HistogramMixtureConfig(K=7, M_prime=6)
    pts = PointSet(rng.uniform(0.0, 1.0, (300, 2)))
    big_bins = sample_bins(big_cfg, ((0.0, 1.0), (0.0, 1.0)), rng)
    big_post = fit_histogram_posterior(pts, big_bins, big_cfg)
    masses_err = max(
        abs(big_post.sample(np.random.default_rng(k)).integral() - 1.0) for k in range(50)
    )
    assert masses_err <= 1e-12, f"draw total mass off by {masses_err:.2e}"

    # throughput: default-config ensemble at survey scale
    ps, _, _ = generate_sky_survey(SkySurveySpec(seed=909))
    t0 = time.perf_counter()
    ens = build_ensemble(ps, HistogramMixtureConfig(), S=100, seed=909)
    dt = time.perf_counter() - t0
    assert ens.values.shape == (100, 40000)
    assert np.isfinite(ens.values).all() and (ens.values >= 0).all()
    _report(
        9,
        "histogram sampler",
        dt < 60.0,
        f"Dirichlet params exact, K=M'=1 uniform, draw mass error <= {masses_err:.1e}; "
        f"n=40000 S=100 build {dt:.1f}s (budget 60s)",
    )


# -- 10: order-statistic plumbing and elbow --------------------------------------


def test_criterion_10_level_delta_plumbing():
    rng = np.random.default_rng(1010)

    # adaptive delta == naive sorted-list order statistic of active kNN distances
    for _ in range(100):
        n = int(rng.integers(10, 41))
        pts = rng.normal(0.0, 1.0, (n, 2))
        size = int(rng.integers(1, n + 1))
        active = rng.choice(n, size=size, replace=False)
        k = int(rng.integers(1, min(6, n)))
        gamma = float(rng.uniform(0.0, 0.3))
        vals = np.sort(oracle_knn_distance(pts, k)[active])
        m = min(max(math.ceil((1.0 - gamma) * size), 1), size)
        naive = float(vals[m - 1])
        got = adaptive_delta(PointSet(pts), active, AdaptiveDeltaConfig(k=k, gamma=gamma))
        assert got == naive

    # noise-fraction level == naive m-th largest reference density
    for _ in range(100):
        n = int(rng.integers(5, 61))
        dens = rng.gamma(2.0, 1.0, n)
        nu = float(rng.uniform(0.0, 0.99))
        m = min(max(math.ceil((1.0 - nu) * n), 1), n)
        naive = float(np.sort(dens)[::-1][m - 1])
        got = resolve_level(LevelSpec("noise_fraction", nu), density_at_points=dens)
        assert got == naive

    # credible radius == naive m-th smallest center-to-draw loss
    for _ in range(100):
        n = int(rng.integers(3, 13))
        S = int(rng.integers(5, 41))
        draws = [random_subpartition(rng, n) for _ in range(S)]
        center = random_subpartition(rng, n)
        alpha = float(rng.uniform(0.02, 0.5))
        dists = sorted(oracle_ia_binder_loss(center.labels, d.labels) for d in draws)
        m = min(max(math.ceil((1.0 - alpha) * S), 1), S)
        naive = float(dists[m - 1])
        got = credible_radius(center, draws, alpha=alpha)
        assert got == naive

    # elbow detection on planted knees
    worst_miss = 0
    for _ in range(20):
        n = int(rng.integers(120, 500))
        knee = int(rng.integers(10, n // 3))
        dens = planted_knee_curve(
            n, knee, rise=float(rng.uniform(2.0, 6.0)), tail_slope=float(rng.uniform(0.05, 0.4)), rng=rng
        )
        res = elbow_level(rng.permutation(dens))
        assert not res.fallback
        worst_miss = max(worst_miss, abs(res.rank - knee))
        assert abs(res.rank - knee) <= 2
    _report(
        10,
        "level/delta plumbing",
        True,
        f"adaptive_delta, resolve_level, credible_radius exact vs naive oracles (100 vectors each); "
        f"elbow within +/-{worst_miss} ranks on 20 planted knees (tol 2)",
    )


# -- 11: persistence walk and nested plugin trees --------------------------------


def test_criterion_11_persistence():
    # five-node fixture: one root splitting into two branches, each of which
    # only sheds points further down; the persistent clusters are exactly the
    # two nodes just below the split
    rows = [
        SubPartition([1, 1, 1, 1]),
        SubPartition([1, 1, 2, 2]),
        SubPartition([1, 0, 2, 0]),
    ]
    tree = tree_from_clusterings([1.0, 2.0, 3.0], rows)
    assert len(tree.nodes()) == 5
    got = persistent_clusters(tree)
    assert got == {(1, 1), (1, 2)}, f"persistent clusters {got}"

    # plugin trees: active sets shrink as the level rises
    rng = np.random.default_rng(1111)
    n_trees = 10
    for trial in range(n_trees):
        pts = np.concatenate(
            [
                rng.normal(-1.5, 0.4, (120, 2)),
                rng.normal(1.5, 0.4, (120, 2)),
                rng.uniform(-3.0, 3.0, (60, 2)),
            ]
        )
        ps = PointSet(pts)
        ens = build_ensemble(ps, HistogramMixtureConfig(K=12, M_prime=12), S=30, seed=trial)
        fbar = ens.posterior_mean()
        lams = np.unique(np.quantile(fbar, [0.3, 0.5, 0.7, 0.85]))
        assert lams.size >= 2
        delta = adaptive_delta(ps, np.flatnonzero(fbar >= lams[0]))
        tree = build_cluster_tree(ps, ens, lams, delta, estimator="plugin")
        masks = [c.labels_array != 0 for c in tree.clusterings]
        for above, below in zip(masks, masks[1:]):
            assert not np.any(below & ~above), "higher level activated a point the lower level lacks"
    _report(
        11,
        "persistence",
        True,
        f"5-node split fixture -> exactly the two nodes below the split; "
        f"nested active sets in {n_trees} plugin trees",
    )
