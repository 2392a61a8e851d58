import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballet import density
from ballet.density import (
    HistogramBins,
    HistogramDensity,
    HistogramMixtureConfig,
    HistogramPosterior,
    build_ensemble,
    default_domain,
    fit_histogram_posterior,
    kde_uniform,
    knn_density,
    sample_bins,
)
from ballet.errors import ConfigError, NumericError
from ballet.levelset import PointSet, dbscan_star, surrogate_cluster, unit_ball_volume
from ballet.util import spawn_rngs
from oracles import (
    oracle_bin_indices,
    oracle_build_ensemble,
    oracle_collapsed_sample_at_data,
    oracle_sample_at_data,
)

trapezoid = getattr(np, "trapezoid", None) or np.trapz

UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))


def posterior_no_empty_bin():
    """3 x 3 bins and 400 uniform points: every bin of every component holds
    data, so each collapsed vector is the full parameter vector."""
    rng = np.random.default_rng(18)
    data = PointSet(rng.random((400, 2)))
    cfg = HistogramMixtureConfig(K=3, M_prime=3)
    post = fit_histogram_posterior(data, sample_bins(cfg, default_domain(data), rng), cfg)
    assert (post.counts > 0).all()
    return data, post


def posterior_stick_breaking():
    """One point per held bin, K = 20 and alpha_d = 0.05: every collapsed
    parameter is below 0.1, where numpy draws a Dirichlet by stick-breaking."""
    data = PointSet(np.array([[0.05, 0.05], [0.95, 0.05], [0.05, 0.95], [0.95, 0.95], [0.5, 0.5]]))
    cfg = HistogramMixtureConfig(K=20, M_prime=5, alpha_d=0.05, domain=UNIT_SQUARE)
    post = fit_histogram_posterior(data, sample_bins(cfg, UNIT_SQUARE, np.random.default_rng(19)), cfg)
    assert max(params.max() for params in post.collapsed_params) < 0.1
    assert (post.counts == 0).any(axis=1).all()
    return data, post


def mixed_data():
    """600 uniform points and a clump of 6 within 0.02 of each other: under
    K = 60 grids of 50 x 50 bins and alpha_d = 0.05, a component whose grid
    keeps the clump in one bin has a parameter of 0.1 or more, and the others
    are drawn by stick-breaking."""
    rng = np.random.default_rng(4)
    data = PointSet(np.concatenate([rng.random((600, 2)), 0.5 + 0.02 * rng.random((6, 2))]))
    return data, HistogramMixtureConfig(K=60, M_prime=50, alpha_d=0.05, domain=UNIT_SQUARE)


def assert_mixed(post):
    """Stick-breaking and gamma-path components interleave in post."""
    sticks = [params.max() < 0.1 for params in post.collapsed_params]
    assert 0 < sum(sticks) < len(sticks) and sticks != sorted(sticks) and sticks != sorted(sticks, reverse=True)


def posterior_mixed():
    data, cfg = mixed_data()
    post = fit_histogram_posterior(data, sample_bins(cfg, UNIT_SQUARE, spawn_rngs(16, 1)[0]), cfg)
    assert_mixed(post)
    return data, post


def hand_bins():
    """Two components on the unit square, M_prime = 2, hand-chosen cuts."""
    cuts = np.array([
        [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]],
        [[0.0, 0.25, 1.0], [0.0, 0.75, 1.0]],
    ])
    return HistogramBins(cuts, UNIT_SQUARE)


# -- config and domain ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        HistogramMixtureConfig(K=0)
    with pytest.raises(ValueError):
        HistogramMixtureConfig(M_prime=0)
    with pytest.raises(ValueError):
        HistogramMixtureConfig(alpha_b=0.0)
    with pytest.raises(ValueError):
        HistogramMixtureConfig(alpha_d=-1.0)
    with pytest.raises(ValueError):
        HistogramMixtureConfig(domain=((1.0, 0.0),))


def test_default_domain_inflates_by_one_percent():
    ps = PointSet(np.array([[0.0, 10.0], [2.0, 30.0]]))
    dom = default_domain(ps)
    assert dom[0] == (-0.01, 2.01)
    assert dom[1] == (9.9, 30.1)


def test_default_domain_degenerate_axis():
    ps = PointSet(np.array([[1.0], [1.0]]))
    (lo, hi), = default_domain(ps)
    assert lo < 1.0 < hi


# -- bin sampling ---------------------------------------------------------------


def test_sample_bins_single_bin_is_domain():
    cfg = HistogramMixtureConfig(K=3, M_prime=1)
    bins = sample_bins(cfg, ((2.0, 5.0), (-1.0, 1.0)), np.random.default_rng(0))
    assert bins.M == 1
    assert np.all(bins.cuts[:, 0, 0] == 2.0) and np.all(bins.cuts[:, 0, 1] == 5.0)
    assert np.all(bins.cuts[:, 1, 0] == -1.0) and np.all(bins.cuts[:, 1, 1] == 1.0)
    assert np.allclose(bins.areas, 6.0)


def test_sample_bins_strictly_increasing_with_exact_endpoints():
    cfg = HistogramMixtureConfig(K=4, M_prime=7)
    bins = sample_bins(cfg, ((0.0, 1.0), (3.0, 9.0)), np.random.default_rng(1))
    assert np.all(np.diff(bins.cuts, axis=2) > 0)
    assert np.all(bins.cuts[:, 0, 0] == 0.0) and np.all(bins.cuts[:, 0, -1] == 1.0)
    assert np.all(bins.cuts[:, 1, 0] == 3.0) and np.all(bins.cuts[:, 1, -1] == 9.0)


def test_sample_bins_concentration_large_alpha_b():
    # huge concentration: every cut fraction is within 2% of 1/M_prime
    cfg = HistogramMixtureConfig(K=2, M_prime=10, alpha_b=1e8)
    bins = sample_bins(cfg, ((0.0, 1.0),), np.random.default_rng(2))
    fracs = np.diff(bins.cuts, axis=2)
    assert np.all(np.abs(fracs - 0.1) <= 0.02 * 0.1)


def test_sample_bins_mean_fraction_matches_prior_mean():
    cfg = HistogramMixtureConfig(K=1, M_prime=5, alpha_b=5.0)
    rng = np.random.default_rng(3)
    fracs = []
    for _ in range(8000):
        bins = sample_bins(cfg, ((0.0, 1.0),), rng)
        fracs.append(np.diff(bins.cuts[0, 0]))
    mean = np.mean(fracs, axis=0)
    assert np.all(np.abs(mean - 0.2) <= 0.02 * 0.2)


def test_sample_bins_rejects_high_dimension():
    cfg = HistogramMixtureConfig(K=1, M_prime=2)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="histogram grids support at most 3 axes"):
        sample_bins(cfg, ((0.0, 1.0),) * 4, rng)
    assert rng.bit_generator.state == state  # rejected before any grid is drawn
    with pytest.raises(ConfigError, match="histogram grids support at most 3 axes"):
        HistogramBins(np.tile(np.linspace(0.0, 1.0, 3), (1, 4, 1)), ((0.0, 1.0),) * 4)


def test_bins_validation_errors():
    with pytest.raises(NumericError):
        HistogramBins(np.array([[[0.0, 0.5, 0.5]]]), ((0.0, 0.5),))
    with pytest.raises(ValueError):
        HistogramBins(np.array([[[0.0, 0.5, 0.9]]]), ((0.0, 1.0),))


# -- bin lookup ----------------------------------------------------------------


def test_bin_indices_boundary_conventions():
    bins = hand_bins()
    # first bin closed on both axes: the shared cut belongs to the lower bin
    idx = bins.bin_indices(np.array([[0.5, 0.5], [0.5000001, 0.5], [0.0, 0.0], [1.0, 1.0]]))
    assert idx[0].tolist() == [0, 2, 0, 3]
    # component 1 cuts at x=0.25, y=0.75
    idx1 = bins.bin_indices(np.array([[0.25, 0.75], [0.26, 0.76]]))
    assert idx1[1].tolist() == [0, 3]


def test_bin_indices_cut_shared_by_two_components():
    # both components cut at 0.5; a point on it is in each one's lower bin
    bins = HistogramBins(np.array([[[0.0, 0.5, 0.75, 1.0]], [[0.0, 0.25, 0.5, 1.0]]]), ((0.0, 1.0),))
    X = np.array([[0.0], [0.25], [0.5], [0.6], [0.75], [1.0]])
    assert bins.bin_indices(X).tolist() == [[0, 0, 0, 1, 1, 2], [0, 0, 1, 2, 2, 2]]
    assert np.array_equal(bins.bin_indices(X), oracle_bin_indices(bins, X))


_GRID = 16


@st.composite
def bin_layouts(draw):
    """HistogramBins for d in {1, 2, 3} and M_prime in 1..8 whose cuts lie on
    a 1/16 grid of the domain, so components often share a cut value, and
    points on the cuts, on the domain edges and in between."""
    d = draw(st.integers(1, 3))
    mp = draw(st.integers(1, 8))
    K = draw(st.integers(1, 4))
    lo, hi = -1.0, 3.0
    grid = lo + (hi - lo) * np.arange(_GRID + 1) / _GRID
    interior = st.lists(st.integers(1, _GRID - 1), min_size=mp - 1, max_size=mp - 1, unique=True)
    cuts = np.array([[grid[[0, *sorted(draw(interior)), _GRID]] for _ in range(d)] for _ in range(K)])
    bins = HistogramBins(cuts, ((lo, hi),) * d)
    coord = st.one_of(st.integers(0, _GRID).map(lambda j: float(grid[j])), st.floats(lo, hi))
    X = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=30))
    return bins, np.array(X)


@settings(max_examples=300, deadline=None)
@given(bin_layouts())
def test_bin_indices_match_per_component_oracle(layout):
    bins, X = layout
    assert np.array_equal(bins.bin_indices(X), oracle_bin_indices(bins, X))


def test_hand_fixture_counts_and_dirichlet_params():
    bins = hand_bins()
    cfg = HistogramMixtureConfig(K=2, M_prime=2, alpha_d=1.0)
    data = PointSet(np.array([[0.1, 0.1], [0.6, 0.2], [0.3, 0.8], [0.9, 0.9]]))
    post = fit_histogram_posterior(data, bins, cfg)
    assert post.counts[0].tolist() == [1.0, 1.0, 1.0, 1.0]
    assert post.counts[1].tolist() == [1.0, 0.0, 1.0, 2.0]
    assert np.array_equal(post.dirichlet_params[0], [0.75, 0.75, 0.75, 0.75])
    expected1 = np.array([1 / 2 + 0.1875, 0.0625, 1 / 2 + 0.5625, 1.0 + 0.1875])
    assert np.allclose(post.dirichlet_params[1], expected1, atol=1e-15)


def test_fit_rejects_points_outside_domain():
    bins = hand_bins()
    cfg = HistogramMixtureConfig(K=2, M_prime=2)
    data = PointSet(np.array([[0.1, 0.1], [1.5, 0.2], [-0.3, 0.8]]))
    with pytest.raises(ConfigError, match="1, 2"):
        fit_histogram_posterior(data, bins, cfg)


# -- posterior draws -----------------------------------------------------------


def test_single_bin_posterior_is_uniform_density():
    cfg = HistogramMixtureConfig(K=1, M_prime=1)
    dom = ((0.0, 2.0), (0.0, 2.0))
    bins = sample_bins(cfg, dom, np.random.default_rng(0))
    data = PointSet(np.array([[0.5, 0.5], [1.5, 1.5]]))
    f = fit_histogram_posterior(data, bins, cfg).sample(np.random.default_rng(4))
    assert f(np.array([0.3, 1.9])) == 0.25
    assert f(np.array([[1.0, 1.0], [0.0, 0.0]])).tolist() == [0.25, 0.25]
    assert f(np.array([2.5, 0.5])) == 0.0


def test_posterior_draw_is_proper_density():
    rng = np.random.default_rng(5)
    cfg = HistogramMixtureConfig(K=4, M_prime=6)
    data = PointSet(rng.random((30, 2)))
    bins = sample_bins(cfg, default_domain(data), rng)
    f = fit_histogram_posterior(data, bins, cfg).sample(rng)
    assert f.integral() == pytest.approx(1.0, abs=1e-12)
    assert np.all(f.masses >= 0)
    assert np.allclose(f.masses.sum(axis=1), 1.0, atol=1e-12)
    grid = np.stack(np.meshgrid(np.linspace(0, 1, 20), np.linspace(0, 1, 20)), axis=-1).reshape(-1, 2)
    assert np.all(f(grid) >= 0)
    for _, post in (posterior_no_empty_bin(), posterior_stick_breaking()):
        f = post.sample(np.random.default_rng(6))
        assert f.integral() == pytest.approx(1.0, abs=1e-12)
        assert np.all(f.masses >= 0)
        assert np.allclose(f.masses.sum(axis=1), 1.0, atol=1e-12)


def test_density_evaluator_validation():
    bins = hand_bins()
    with pytest.raises(ValueError):
        HistogramDensity(bins, np.ones((2, 3)))
    with pytest.raises(NumericError):
        HistogramDensity(bins, -np.ones((2, 4)))


# -- ensembles -----------------------------------------------------------------


def test_build_ensemble_deterministic_under_seed():
    rng = np.random.default_rng(6)
    data = PointSet(rng.random((50, 2)))
    cfg = HistogramMixtureConfig(K=3, M_prime=4)
    a = build_ensemble(data, cfg, S=5, seed=9)
    b = build_ensemble(data, cfg, S=5, seed=9)
    c = build_ensemble(data, cfg, S=5, seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.S == 5 and a.n == 50


@pytest.mark.parametrize("S, workers, model", [
    *(pytest.param(S, workers, "gamma", id=f"{S}-{workers}") for S in (1, 2, 3, 7) for workers in (1, 2, 3)),
    *(pytest.param(7, workers, "mixed", id=f"mixed-{workers}") for workers in (1, 2, 3)),
])
def test_build_ensemble_matches_serial_oracle(S, workers, model, monkeypatch):
    # fewer draws than workers, chunks of unequal length, more workers than
    # CPUs; a short switch interval interleaves the workers as often as it can.
    # The mixed model interleaves stick-breaking and gamma-path components.
    monkeypatch.setattr(density, "cpu_count", lambda: workers)
    if model == "mixed":
        data, cfg = mixed_data()
    else:
        data = PointSet(np.random.default_rng(15).random((3000, 2)))
        cfg = HistogramMixtureConfig(K=4, M_prime=22)
    domain = cfg.domain if cfg.domain is not None else default_domain(data)
    post = fit_histogram_posterior(data, sample_bins(cfg, domain, spawn_rngs(16, 1)[0]), cfg)
    assert np.mean([params.size for params in post.collapsed_params]) >= density._THREADED_MIN_BINS
    if model == "mixed":
        assert_mixed(post)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        values = build_ensemble(data, cfg, S=S, seed=16).values
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert np.array_equal(values, oracle_build_ensemble(data, cfg, S, 16))


def test_fast_data_evaluation_matches_evaluator():
    rng = np.random.default_rng(7)
    data = PointSet(rng.random((25, 2)))
    cfg = HistogramMixtureConfig(K=3, M_prime=5)
    bins = sample_bins(cfg, default_domain(data), np.random.default_rng(8))
    post = fit_histogram_posterior(data, bins, cfg)
    assert (post.counts == 0).any(axis=1).all()
    for data, post in ((data, post), posterior_no_empty_bin(), posterior_stick_breaking(), posterior_mixed()):
        fast = post.sample_at_data(np.random.default_rng(11))
        f = post.sample(np.random.default_rng(11))
        assert np.array_equal(fast, f(data.points))


def test_draw_at_data_is_the_full_draw_when_every_bin_holds_data():
    data, post = posterior_no_empty_bin()
    for seed in range(5):
        fast = post.sample_at_data(np.random.default_rng(seed))
        assert np.array_equal(fast, oracle_sample_at_data(post, data.points, np.random.default_rng(seed)))


@st.composite
def collapsed_posteriors(draw):
    """A HistogramPosterior on drawn bin weights (counts need not be whole
    numbers), a (K, n) array of the points' bins, which components are drawn
    by stick-breaking, and a block bound for the gamma draw.

    d is 1-3 and K 1-60. The stick-breaking components come first, last,
    alternating or at random: all their parameters lie below 0.1, while a
    gamma-path component has one of 0.1 or more. A component holds data in
    every bin, in one bin, or in some. The block bound falls near a multiple
    of the widest collapsed vector, so blocks of one row (a vector longer
    than the bound included) and of many rows both occur."""
    d = draw(st.integers(1, 3))
    mp = draw(st.integers(1, {1: 12, 2: 5, 3: 3}[d]))
    K = draw(st.integers(1, 60))
    place = draw(st.sampled_from(["first", "last", "alternating", "random"]))
    j = draw(st.integers(0, K))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sticks = {
        "first": np.arange(K) < j,
        "last": np.arange(K) >= K - j,
        "alternating": np.arange(K) % 2 == j % 2,
        "random": rng.random(K) < 0.5,
    }[place]
    domain = ((0.0, 1.0),) * d
    cfg = HistogramMixtureConfig(K=K, M_prime=mp, alpha_d=0.01, domain=domain)
    bins = sample_bins(cfg, domain, rng)
    M = bins.M
    counts = np.zeros((K, M))
    n = int(rng.integers(1, 30))
    idx = np.empty((K, n), dtype=np.int64)
    for k in range(K):
        size = (M, 1, int(rng.integers(1, M + 1)))[rng.integers(3)]
        held = rng.choice(M, size, replace=False)
        # alpha = count / K plus at most alpha_d: below 0.1 at weights under 0.08
        weights = rng.uniform(0.0, 0.08, size) if sticks[k] else rng.uniform(0.0, 3.0, size)
        if not sticks[k]:
            weights[rng.integers(size)] = rng.uniform(0.1, 3.0)
        counts[k, held] = np.maximum(weights, 1e-3) * K
        idx[k] = rng.choice(held, n)
    held_counts = (counts > 0).sum(axis=1)
    width = int((held_counts + (held_counts < M)).max())
    block = max(1, int(draw(st.floats(0.5, 70.0)) * width) + draw(st.integers(-1, 1)))
    return bins, cfg, counts, idx, sticks.tolist(), block


@settings(max_examples=300, deadline=None)
@given(collapsed_posteriors(), st.integers(0, 2 ** 32 - 1))
def test_draw_at_data_matches_per_component_oracle(case, seed):
    bins, cfg, counts, idx, sticks, block = case
    fast_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_GAMMA_BLOCK", block)
        post = HistogramPosterior(bins, cfg, counts, idx.copy())
        fast = post.sample_at_data(fast_rng)
    assert [params.max() < 0.1 for params in post.collapsed_params] == sticks
    assert np.array_equal(fast, oracle_collapsed_sample_at_data(post, idx, oracle_rng))
    assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("n", [3, 2 ** 14 + 1])
@pytest.mark.parametrize("width", [2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1])
def test_draw_at_data_matches_oracle_at_the_block_bound(width, n):
    # 33^3 bins; component 0's collapsed vector is `width` long, so a block
    # holds two rows below 2^14 + 1 and one from there; component 2 is drawn by
    # stick-breaking, and a gather takes many components at n = 3, one at n > 2^14
    domain = ((0.0, 1.0),) * 3
    cfg = HistogramMixtureConfig(K=5, M_prime=33, alpha_d=0.01, domain=domain)
    rng = np.random.default_rng(width + n)
    bins = sample_bins(cfg, domain, rng)
    counts = np.zeros((cfg.K, bins.M))
    idx = np.empty((cfg.K, n), dtype=np.int64)
    for k, size in enumerate([width - 1, int(rng.integers(1, width)), 40, width - 2, 1]):
        held = rng.choice(bins.M, size, replace=False)
        counts[k, held] = rng.uniform(0.01, 0.08 if k == 2 else 3.0, size) * cfg.K
        idx[k] = rng.choice(held, n)
    post = HistogramPosterior(bins, cfg, counts, idx.copy())
    assert post.collapsed_params[0].size == width
    assert [params.max() < 0.1 for params in post.collapsed_params] == [False, False, True, False, False]
    for seed in range(2):
        fast = post.sample_at_data(np.random.default_rng(seed))
        assert np.array_equal(fast, oracle_collapsed_sample_at_data(post, idx, np.random.default_rng(seed)))


def dirichlet_moments_at(post, points):
    """Exact mean and variance of a draw at each point: a component's mass of
    one bin is Beta(a, a0 - a), and the K components are independent."""
    idx = oracle_bin_indices(post.bins, points)
    mean = np.zeros(len(points))
    var = np.zeros(len(points))
    for k in range(post.bins.K):
        params = post.dirichlet_params[k]
        a, a0, area = params[idx[k]], params.sum(), post.bins.areas[k, idx[k]]
        mean += a / (a0 * area)
        var += a * (a0 - a) / (a0 ** 2 * (a0 + 1) * area ** 2)
    K = post.bins.K
    return mean / K, var / K ** 2


@pytest.mark.parametrize("sampler", ["sample_at_data", "oracle"])
def test_draw_at_data_has_the_dirichlet_moments(sampler):
    # K = 2 grids of 4 x 4 bins and 10 points in the lower-left corner, so each
    # component has held and empty bins; each point's mean and variance over
    # 20 000 draws lie within 4 standard errors of the closed form
    cfg = HistogramMixtureConfig(K=2, M_prime=4, domain=UNIT_SQUARE)
    data = PointSet(np.random.default_rng(20).uniform(0.0, 0.6, (10, 2)))
    post = fit_histogram_posterior(data, sample_bins(cfg, UNIT_SQUARE, np.random.default_rng(21)), cfg)
    held = (post.counts > 0).sum(axis=1)
    assert (held >= 2).all() and (held < post.bins.M).all()
    rng = np.random.default_rng(22)
    if sampler == "oracle":
        draws = np.array([oracle_sample_at_data(post, data.points, rng) for _ in range(20_000)])
    else:
        draws = np.array([post.sample_at_data(rng) for _ in range(20_000)])
    mean, var = dirichlet_moments_at(post, data.points)
    N = len(draws)
    centred = draws - draws.mean(axis=0)
    sample_var = (centred ** 2).mean(axis=0)
    fourth = (centred ** 4).mean(axis=0)
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4 * np.sqrt(var / N))
    assert np.all(np.abs(sample_var - var) <= 4 * np.sqrt((fourth - sample_var ** 2) / N))


def test_ensemble_mean_orders_dense_above_empty_region():
    rng = np.random.default_rng(12)
    dense = rng.normal(0.25, 0.02, (200, 2))
    sparse = rng.normal(0.75, 0.02, (8, 2))
    data = PointSet(np.clip(np.concatenate([dense, sparse]), 0.0, 1.0))
    cfg = HistogramMixtureConfig(K=5, M_prime=8, domain=UNIT_SQUARE)
    e = build_ensemble(data, cfg, S=20, seed=13)
    mean = e.posterior_mean()
    assert mean[:200].mean() > 10 * mean[200:].mean()


def test_build_ensemble_one_and_three_axes():
    rng = np.random.default_rng(14)
    cfg = HistogramMixtureConfig(K=2, M_prime=3)
    e1 = build_ensemble(PointSet(rng.random((20, 1))), cfg, S=3, seed=0)
    assert e1.values.shape == (3, 20)
    e3 = build_ensemble(PointSet(rng.random((20, 3))), cfg, S=3, seed=0)
    assert e3.values.shape == (3, 20)
    with pytest.raises(ConfigError):
        build_ensemble(PointSet(rng.random((20, 4))), cfg, S=3, seed=0)


# -- uniform-kernel KDE --------------------------------------------------------


def test_kde_uniform_single_point_value():
    ps = PointSet(np.array([[3.0]]))
    f = kde_uniform(ps, delta=0.25)
    assert f(np.array([3.0])) == 1.0 / (2 * 0.25)
    assert f(np.array([3.2])) == 1.0 / (2 * 0.25)  # boundary is included
    assert f(np.array([3.3])) == 0.0


def test_kde_uniform_integral_by_quadrature():
    ps = PointSet(np.array([[0.0], [0.4], [1.1], [2.0], [2.05]]))
    delta = 0.3
    f = kde_uniform(ps, delta)
    xs = np.linspace(-1.0, 3.0, 120_001)
    vals = f(xs[:, None])
    assert trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-3)


def test_kde_uniform_validation():
    ps = PointSet(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        kde_uniform(ps, 0.0)


# -- k-NN density --------------------------------------------------------------


def test_knn_density_hand_value():
    ps = PointSet(np.array([[0.0], [1.0], [3.0], [7.0]]))
    f = knn_density(ps, k=1)
    # query 0.5 sits at distance 0.5 from its nearest data point
    assert f(np.array([0.5])) == 1.0 / (4 * 2 * 0.5)


def test_knn_density_counts_self_at_data_points():
    ps = PointSet(np.array([[0.0], [1.0], [3.0], [7.0]]))
    f = knn_density(ps, k=2)
    # at x=0 the first neighbor is the point itself, the second is x=1
    assert f(np.array([0.0])) == 2.0 / (4 * 2 * 1.0)


def test_knn_density_scaling_homogeneity():
    rng = np.random.default_rng(15)
    pts = rng.random((30, 2))
    queries = rng.random((10, 2)) * 0.8 + 0.1
    f1 = knn_density(PointSet(pts), k=4)
    f2 = knn_density(PointSet(pts * 2.0), k=4)
    assert np.array_equal(f1(queries) / 4.0, f2(queries * 2.0))


def test_knn_density_validation():
    ps = PointSet(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        knn_density(ps, 0)
    with pytest.raises(ValueError):
        knn_density(ps, 4)


# -- DBSCAN* correspondences ---------------------------------------------------


def test_uniform_kernel_level_set_equals_dbscan_star():
    rng = np.random.default_rng(16)
    pts = np.concatenate([
        rng.normal(0.0, 0.5, (40, 2)),
        rng.normal(3.0, 0.5, (30, 2)),
        rng.uniform(-2, 5, (15, 2)),
    ])
    ps = PointSet(pts)
    n, d = ps.n, ps.d
    for eps, min_pts in [(0.3, 3), (0.5, 5), (0.8, 10), (0.25, 2)]:
        f = kde_uniform(ps, eps)
        lam = min_pts / (n * unit_ball_volume(d) * eps ** d)
        via_level_set = surrogate_cluster(ps, f(ps.points), lam, eps, closed_edges=True)
        via_dbscan = dbscan_star(ps, eps=eps, min_pts=min_pts)
        assert via_level_set.labels == via_dbscan.labels


def test_knn_level_set_equals_dbscan_star():
    rng = np.random.default_rng(17)
    pts = np.concatenate([
        rng.normal(0.0, 0.4, (35, 2)),
        rng.normal((4.0, 1.0), 0.6, (35, 2)),
    ])
    ps = PointSet(pts)
    n, d = ps.n, ps.d
    for eps, k in [(0.35, 3), (0.6, 6), (1.0, 12)]:
        f = knn_density(ps, k)
        lam = k / (n * unit_ball_volume(d) * eps ** d)
        via_level_set = surrogate_cluster(ps, f(ps.points), lam, eps, closed_edges=True)
        via_dbscan = dbscan_star(ps, eps=eps, min_pts=k)
        assert via_level_set.labels == via_dbscan.labels
