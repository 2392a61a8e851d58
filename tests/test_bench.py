"""Generator, ellipse-metric, and replication-harness tests."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ballet.bench as bench_mod
from ballet.bench import (
    ELLIPSE_RADIUS_SQ,
    MIN_SEMI_AXIS,
    BalletStudyConfig,
    DbscanStudyConfig,
    SkySurveySpec,
    dbscan_baseline,
    evaluate,
    generate_noisy_circles,
    generate_sky_survey,
    generate_two_moons,
    run_simulation_study,
)
from ballet.density import HistogramMixtureConfig, build_ensemble
from ballet.errors import ConfigError, InfeasibleError, SearchPassCapWarning
from ballet.levels import LevelSpec, resolve_level
from ballet.levelset import PointSet, adaptive_delta, dbscan_star
from ballet.risk import SearchConfig, ballet_estimate
from ballet.subpartition import LossParams, SubPartition
from ballet.util import fork_map, order_statistic_ceil
from oracles import oracle_dbscan, oracle_knn_full_query
from pools import die_in_a_worker, no_child_left, record_pools


# ---------------------------------------------------------------------------
# generators


def test_sky_survey_shapes_and_domain():
    spec = SkySurveySpec(n=2000, n_components=5, seed=3)
    ps, targets, meta = generate_sky_survey(spec)
    assert ps.n == 2000 and ps.d == 2
    assert np.all(ps.points >= 0.0) and np.all(ps.points <= 1.0)
    assert targets.shape == (5, 2)
    assert np.array_equal(targets, meta.means)
    assert meta.weights.shape == (5,) and meta.weights.sum() == pytest.approx(1.0)
    assert np.all(meta.variances > 0)
    assert meta.labels.shape == (2000,)
    assert meta.labels.min() >= 0 and meta.labels.max() <= 5


def test_sky_survey_deterministic():
    spec = SkySurveySpec(n=800, n_components=7, seed=42)
    a = generate_sky_survey(spec)
    b = generate_sky_survey(spec)
    assert a[0].points.tobytes() == b[0].points.tobytes()
    assert a[1].tobytes() == b[1].tobytes()
    assert a[2].weights.tobytes() == b[2].weights.tobytes()
    assert a[2].variances.tobytes() == b[2].variances.tobytes()
    assert np.array_equal(a[2].labels, b[2].labels)
    c = generate_sky_survey(SkySurveySpec(n=800, n_components=7, seed=43))
    assert a[0].points.tobytes() != c[0].points.tobytes()


def test_sky_survey_pure_background():
    ps, targets, meta = generate_sky_survey(SkySurveySpec(n=500, n_components=6, noise_mass=1.0, seed=0))
    assert np.all(meta.labels == 0)
    assert targets.shape == (6, 2)
    assert ps.n == 500


def test_sky_survey_background_fraction():
    # rejection resampling barely shifts the 0.9 background mass
    spec = SkySurveySpec(n=20000, n_components=10, seed=5)
    _, _, meta = generate_sky_survey(spec)
    frac = float(np.mean(meta.labels == 0))
    assert frac == pytest.approx(0.9, abs=0.02)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0),
        dict(n_components=0),
        dict(noise_mass=0.0),
        dict(noise_mass=1.5),
    ],
)
def test_sky_survey_validation(kwargs):
    with pytest.raises(ConfigError):
        SkySurveySpec(**kwargs)


def test_two_moons_geometry():
    ps = generate_two_moons(201, noise_sd=0.0, seed=9)
    assert ps.n == 201 and ps.d == 2
    upper, lower = ps.points[:101], ps.points[101:]
    assert np.allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
    assert np.all(upper[:, 1] >= -1e-12)
    shifted = lower - np.array([1.0, 0.5])
    assert np.allclose(np.linalg.norm(shifted, axis=1), 1.0, atol=1e-12)
    assert np.all(shifted[:, 1] <= 1e-12)


def test_noisy_circles_geometry():
    ps = generate_noisy_circles(160, noise_sd=0.0, seed=2)
    norms = np.linalg.norm(ps.points, axis=1)
    assert np.allclose(norms[:80], 1.0, atol=1e-12)
    assert np.allclose(norms[80:], 0.5, atol=1e-12)


def test_synthetic_generators_deterministic():
    for gen in (generate_two_moons, generate_noisy_circles):
        a = gen(100, 0.08, 7)
        b = gen(100, 0.08, 7)
        assert a.points.tobytes() == b.points.tobytes()
    with pytest.raises(ValueError):
        generate_two_moons(0)
    with pytest.raises(ValueError):
        generate_noisy_circles(10, noise_sd=-0.1)


def test_two_moons_ballet_separates_two_clusters():
    # end-to-end smoke: 10% noise level splits the moons into two clusters
    ps = generate_two_moons(400, noise_sd=0.1, seed=1)
    cfg = HistogramMixtureConfig(K=20, M_prime=25)
    ensemble = build_ensemble(ps, cfg, S=60, seed=4)
    fbar = ensemble.posterior_mean()
    lam = resolve_level(LevelSpec("noise_fraction", 0.10), density_at_points=fbar)
    delta = adaptive_delta(ps, np.flatnonzero(fbar >= lam))
    result = ballet_estimate(ps, ensemble, lam, delta, cfg=SearchConfig(n_restarts=8, seed=0))
    sizes = np.bincount(result.estimate.labels_array)[1:]
    assert np.count_nonzero(sizes >= 2) == 2
    assert sizes[sizes >= 2].sum() >= 300


# ---------------------------------------------------------------------------
# ellipse metrics


def square_cluster(cx, cy, h=0.05):
    return np.array([[cx - h, cy - h], [cx - h, cy + h], [cx + h, cy - h], [cx + h, cy + h]])


def test_evaluate_hand_geometry():
    # two ellipses; both targets inside the first one only
    pts = np.vstack([square_cluster(0.3, 0.3), square_cluster(0.7, 0.7)])
    clustering = SubPartition([1, 1, 1, 1, 2, 2, 2, 2])
    targets = np.array([[0.3, 0.3], [0.32, 0.31]])
    rep = evaluate(clustering, PointSet(pts), targets)
    assert rep.sensitivity == 1.0
    assert rep.specificity == 0.5
    assert rep.exact_match == 0.0
    assert rep.ellipse_target_counts == (2, 0)
    assert rep.target_hits == (True, True)
    # square corners at +-h: sample variance 4h^2/3, axes aligned
    semi = np.sqrt(4 * 0.05**2 / 3 * ELLIPSE_RADIUS_SQ)
    assert rep.ellipses[0].semi_axes == pytest.approx((semi, semi))
    assert rep.ellipses[0].center == pytest.approx((0.3, 0.3))


def test_evaluate_no_clusters_convention():
    ps = PointSet(np.random.default_rng(0).uniform(size=(12, 2)))
    rep = evaluate(SubPartition.all_noise(12), ps, np.array([[0.5, 0.5]]))
    assert (rep.sensitivity, rep.specificity, rep.exact_match) == (0.0, 0.0, 0.0)
    assert rep.ellipses == ()
    assert rep.target_hits == (False,)


def test_evaluate_singletons_cover_targets():
    targets = np.array([[0.2, 0.2], [0.5, 0.9], [0.8, 0.1]])
    rep = evaluate(SubPartition([1, 2, 3]), PointSet(targets.copy()), targets)
    assert (rep.sensitivity, rep.specificity, rep.exact_match) == (1.0, 1.0, 1.0)
    for ell in rep.ellipses:
        assert ell.semi_axes == (MIN_SEMI_AXIS, MIN_SEMI_AXIS)


def test_evaluate_no_targets():
    pts = square_cluster(0.4, 0.4)
    rep = evaluate(SubPartition([1, 1, 1, 1]), PointSet(pts), np.zeros((0, 2)))
    assert (rep.sensitivity, rep.specificity, rep.exact_match) == (0.0, 0.0, 0.0)
    assert rep.target_hits == ()


def test_evaluate_collinear_cluster_gets_minimum_circle():
    pts = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
    rep = evaluate(SubPartition([1, 1, 1]), PointSet(pts), np.array([[0.2, 0.2]]))
    ell = rep.ellipses[0]
    assert ell.semi_axes == (MIN_SEMI_AXIS, MIN_SEMI_AXIS)
    assert ell.center == pytest.approx((0.2, 0.2))
    assert rep.sensitivity == 1.0


def test_evaluate_random_invariants():
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(10, 41))
        pts = rng.uniform(size=(n, 2))
        labels = rng.integers(0, 4, size=n)
        targets = rng.uniform(size=(int(rng.integers(1, 7)), 2))
        rep = evaluate(SubPartition(labels), PointSet(pts), targets)
        for v in (rep.sensitivity, rep.specificity, rep.exact_match):
            assert 0.0 <= v <= 1.0
        assert rep.exact_match <= rep.specificity
        assert rep.sensitivity == pytest.approx(float(np.mean(rep.target_hits)) if rep.target_hits else 0.0)


def test_evaluate_validation():
    ps = PointSet(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        evaluate(SubPartition([1, 1]), ps, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        evaluate(SubPartition([1, 1, 1]), PointSet(np.zeros((3, 3))), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        evaluate(SubPartition([1, 1, 1]), ps, np.zeros((2, 3)))


def test_ellipse_radius_constant():
    from scipy.stats import chi2

    assert ELLIPSE_RADIUS_SQ == float(chi2.ppf(0.95, df=2))


# ---------------------------------------------------------------------------
# dbscan parameter map


def line_points(xs):
    return PointSet(np.column_stack([np.asarray(xs, dtype=float), np.zeros(len(xs))]))


def test_dbscan_parameters_order_statistic():
    ps = line_points([0.0, 1.0, 3.0, 6.0])
    # k=2 with self as first neighbor: radii are nearest-other distances 1,1,2,3
    assert dbscan_baseline(ps, DbscanStudyConfig(nu=0.25))[:2] == (2, 2.0)
    assert dbscan_baseline(ps, DbscanStudyConfig(nu=0.5))[:2] == (2, 1.0)
    assert dbscan_baseline(ps, DbscanStudyConfig(nu=0.0))[:2] == (2, 3.0)
    assert dbscan_baseline(ps, DbscanStudyConfig(nu=0.25, eps=0.7))[:2] == (2, 0.7)
    assert dbscan_baseline(ps, DbscanStudyConfig(nu=0.25, min_pts=3))[1] == 3.0


def test_dbscan_parameters_default_min_pts():
    ps = line_points(np.linspace(0, 1, 40))
    k, _, _ = dbscan_baseline(ps, DbscanStudyConfig(nu=0.1))
    assert k == int(np.ceil(np.log2(40)))


def test_dbscan_parameters_errors():
    ps = line_points([0.0, 1.0, 2.0])
    with pytest.raises(ConfigError):
        dbscan_baseline(ps, DbscanStudyConfig(min_pts=1))  # radii all zero
    with pytest.raises(ConfigError):
        dbscan_baseline(ps, DbscanStudyConfig(min_pts=7))
    with pytest.raises(ConfigError):
        DbscanStudyConfig(nu=1.0)
    with pytest.raises(ConfigError):
        DbscanStudyConfig(min_pts=0)
    with pytest.raises(ConfigError):
        DbscanStudyConfig(eps=-0.5)


@st.composite
def lattice_surveys(draw):
    """Integer-lattice points with exact duplicates, times a scale, so many
    k-NN distances tie, exactly or to a rounding, at the resolved Eps; a
    MinPts from 2 to n."""
    n = draw(st.integers(2, 40))
    coords = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 0.1, 0.3, 1 / 3]))
    return np.asarray(coords, dtype=float) * scale, draw(st.integers(2, n))


@settings(max_examples=300, deadline=None)
@given(lattice_surveys(), st.floats(0.0, 0.99))
@example((np.array([[0.0, 0.0], [2.0, 3.0]]), 2), 0.5)  # sqrt(13)^2 < 13: Eps's own pair is out
@example((np.array([[0, 1], [0, 3], [0, 3], [1, 2]]) * 0.1, 2), 0.0)
def test_dbscan_baseline_is_dbscan_star_at_the_resolved_eps(instance, nu):
    """The resolved-Eps clustering is dbscan_star's at that Eps, its core
    points are the pairwise oracle's, and Eps is the order statistic of the
    full k-NN query's last column. The oracle counts core points by
    d2 <= eps^2, the program's rule, but joins them by sqrt(d2) <= eps, which
    a rounding can tell apart (0.1 (1, 2) against 0.1 (0, 3), at Eps
    0.1 sqrt(2)), so its clusters are compared through dbscan_star's, which
    test_dbscan_matches_pairwise_oracle pins to the oracle off such ties."""
    pts, min_pts = instance
    ps = PointSet(pts)
    ref_eps = order_statistic_ceil(oracle_knn_full_query(pts, pts, min_pts), 1.0 - nu)
    if not ref_eps > 0:
        with pytest.raises(ConfigError, match="is not positive"):
            dbscan_baseline(ps, DbscanStudyConfig(nu=nu, min_pts=min_pts))
        return
    k, eps, got = dbscan_baseline(ps, DbscanStudyConfig(nu=nu, min_pts=min_pts))
    assert (k, eps) == (min_pts, ref_eps)
    assert np.array_equal(got.labels_array == 0, oracle_dbscan(pts, eps, min_pts) == 0)
    assert got == dbscan_star(ps, eps, min_pts)


# ---------------------------------------------------------------------------
# replication harness


def tiny_study_args():
    spec = SkySurveySpec(n=400, n_components=4, noise_mass=0.85, seed=11)
    ballet = BalletStudyConfig(
        nu=0.85,
        S=25,
        hist=HistogramMixtureConfig(K=15, M_prime=15),
        search=SearchConfig(n_restarts=4, n_sweeten_passes=10, n_zealous_attempts=4, seed=0),
    )
    return spec, ballet, DbscanStudyConfig(nu=0.85)


@pytest.fixture(scope="module")
def tiny_study():
    spec, ballet, dbscan = tiny_study_args()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench_mod, "cpu_count", lambda: 1)  # the serial study
        return run_simulation_study(2, spec, ballet, dbscan)


def test_study_shape_and_invariants(tiny_study):
    res = tiny_study
    assert res.reps == 2 and len(res.per_rep) == 2
    assert res.methods == ("ballet", "ballet_lower", "ballet_upper", "plugin", "dbscan")
    for row in res.per_rep:
        assert row["lambda"] > 0 and row["delta"] > 0 and row["eps"] > 0
        assert row["min_pts"] == int(np.ceil(np.log2(400)))
        for m in res.methods:
            stats = row[m]
            for t in ("sensitivity", "specificity", "exact_match"):
                assert 0.0 <= stats[t] <= 1.0
            assert stats["exact_match"] <= stats["specificity"]
    for m in res.methods:
        assert set(res.summary[m]) == {"sensitivity", "specificity", "exact_match"}
    lines = res.summary_csv().strip().split("\n")
    assert lines[0] == "method,sensitivity,specificity,exact_match"
    assert len(lines) == 6
    assert res.to_json_dict()["schema"] == "ballet/study/v1"


def test_study_deterministic(tiny_study):
    spec, ballet, dbscan = tiny_study_args()
    again = run_simulation_study(2, spec, ballet, dbscan)
    assert again.to_json_dict() == tiny_study.to_json_dict()
    assert again.summary_csv() == tiny_study.summary_csv()


def test_study_parallel_matches_serial(tiny_study, monkeypatch):
    monkeypatch.setattr(bench_mod, "cpu_count", lambda: 2)
    spec, ballet, dbscan = tiny_study_args()
    par = run_simulation_study(2, spec, ballet, dbscan)
    assert par.to_json_dict() == tiny_study.to_json_dict()


def test_pooled_study_warns_as_a_serial_one(monkeypatch):
    """A study's 4 replicates on 1, 2 or 3 processes give the same rows and
    the same SearchPassCapWarning messages, in the same order: a worker's
    warnings reach the caller. On 5 CPUs they run serially, so that each
    search may pool its own restarts. Under a loss that weighs a missed
    point 7 times an extra one, replicates 2 and 3 have restarts that still
    move points in their one sweetening pass."""
    spec, ballet, dbscan = tiny_study_args()
    spec = replace(spec, n=300)
    search = replace(ballet.search, n_sweeten_passes=1)
    ballet = replace(ballet, loss=LossParams(m_ai=0.875, m_ia=0.125), search=search)
    opened, asked = record_pools(monkeypatch), []

    def asking(fn, state, tasks, workers, what):
        asked.append(workers)
        return fork_map(fn, state, tasks, workers, what)

    monkeypatch.setattr(bench_mod, "fork_map", asking)
    runs = []
    for cpus in (1, 2, 3, 5):
        monkeypatch.setattr(bench_mod, "cpu_count", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = run_simulation_study(4, spec, ballet, dbscan).per_rep
        runs.append((rows, [str(w.message) for w in caught if issubclass(w.category, SearchPassCapWarning)]))
        assert no_child_left()
    assert runs[1] == runs[0] and runs[2] == runs[0] and runs[3] == runs[0]
    assert asked == [1, 2, 3, 1] and {2, 3} <= set(opened) and len(runs[0][1]) >= 4


def test_dead_study_pool_worker_is_an_infeasible_error(monkeypatch):
    """A replicate worker killed by a signal fails the study with an
    InfeasibleError (exit 5), not a BrokenProcessPool, and every worker is
    reaped."""
    monkeypatch.setattr(bench_mod, "run_study_replicate", die_in_a_worker)
    monkeypatch.setattr(bench_mod, "cpu_count", lambda: 2)
    spec, ballet, dbscan = tiny_study_args()
    with pytest.raises(InfeasibleError, match="study worker"):
        run_simulation_study(2, spec, ballet, dbscan)
    assert no_child_left()


def test_study_validation():
    spec, ballet, dbscan = tiny_study_args()
    with pytest.raises(ConfigError):
        run_simulation_study(0, spec, ballet, dbscan)
    with pytest.raises(ConfigError):
        BalletStudyConfig(nu=1.0)
    with pytest.raises(ConfigError):
        BalletStudyConfig(S=0)
    with pytest.raises(ConfigError):
        BalletStudyConfig(credible_alpha=0.0)
