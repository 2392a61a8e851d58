import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballet
import ballet.credible as credible_mod
from ballet.credible import (
    BoundStep,
    CredibleBall,
    _bounds,
    compute_credible_ball,
    credible_radius,
)
from ballet.levelset import PointSet, surrogate_cluster
from ballet.risk import precompute_stats
from ballet.subpartition import LossParams, SubPartition, ia_binder_loss
from ballet.util import canonical_json, order_statistic_ceil

from oracles import (
    oracle_components,
    oracle_greedy_walk,
    oracle_radius_and_losses,
    oracle_relabel_walk,
    random_subpartition,
)

# the default loss, an asymmetric one, and a non-dyadic symmetric one
BALL_LOSSES = (
    LossParams(),
    LossParams(a=1.0, b=0.7, m_ai=0.9, m_ia=0.3),
    LossParams(a=0.3, b=0.3, m_ai=0.3, m_ia=0.3),
)


def make_stats(activity_counts, S, cluster_together=True):
    """Draws over n points where point i is active in activity_counts[i] of S
    draws, active points sharing one cluster."""
    n = len(activity_counts)
    draws = []
    for s in range(S):
        labels = [1 if s < activity_counts[i] else 0 for i in range(n)]
        draws.append(SubPartition(labels))
    return precompute_stats(draws), draws


# -- radius --------------------------------------------------------------------


def test_radius_order_statistic_convention():
    # the defining rule on raw values: 3rd smallest of 4 at alpha = 0.25
    assert order_statistic_ceil(np.array([0.0, 0.1, 0.2, 0.3]), 0.75) == 0.2


def test_radius_from_constructed_distances():
    center = SubPartition([1, 1, 1, 1])
    draws = [
        SubPartition([1, 1, 1, 1]),   # distance 0
        SubPartition([1, 1, 1, 0]),   # one deactivation
        SubPartition([1, 1, 0, 0]),   # two deactivations
        SubPartition([1, 0, 0, 0]),   # three
    ]
    dists = sorted(ia_binder_loss(center, c) for c in draws)
    assert credible_radius(center, draws, alpha=0.25) == dists[2]
    assert credible_radius(center, draws, alpha=1e-12) == dists[3]
    assert credible_radius(center, draws, alpha=0.75) == dists[0]


def test_radius_zero_when_center_matches_all_draws():
    center = SubPartition([1, 1, 0, 2])
    draws = [center, SubPartition([1, 1, 0, 2]), SubPartition([2, 2, 0, 3])]
    assert credible_radius(center, draws, alpha=0.1) == 0.0


def test_radius_nondecreasing_in_coverage():
    rng = np.random.default_rng(0)
    center = random_subpartition(rng, 8)
    draws = [random_subpartition(rng, 8) for _ in range(17)]
    radii = [credible_radius(center, draws, alpha=a) for a in (0.5, 0.3, 0.2, 0.1, 0.01)]
    assert all(r1 <= r2 for r1, r2 in zip(radii, radii[1:]))


def test_radius_minimality_and_coverage():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        S = int(rng.integers(1, 12))
        alpha = float(rng.uniform(0.05, 0.6))
        center = random_subpartition(rng, n)
        draws = [random_subpartition(rng, n) for _ in range(S)]
        eps = credible_radius(center, draws, alpha=alpha)
        dists = np.array([ia_binder_loss(center, c) for c in draws])
        assert np.mean(dists <= eps) >= 1 - alpha
        assert np.mean(dists < eps) < 1 - alpha


def test_radius_validation():
    center = SubPartition([1, 1])
    with pytest.raises(ValueError):
        credible_radius(center, [], alpha=0.1)
    with pytest.raises(ValueError):
        credible_radius(center, [center], alpha=0.0)
    with pytest.raises(ValueError):
        credible_radius(center, [center], alpha=1.0)


# -- greedy bounds -------------------------------------------------------------


def line_points(*xs):
    return PointSet(np.asarray(xs, dtype=float)[:, None])


def test_upper_bound_radius_zero_returns_center():
    ps = line_points(0.0, 1.0, 2.0)
    stats, _ = make_stats([3, 2, 1], S=3)
    center = SubPartition([1, 0, 0])
    out = _bounds(center, ps, delta=1.5, stats=stats, radius=0.0)[1]
    assert out == center


def test_upper_bound_large_radius_activates_everything():
    ps = line_points(0.0, 1.0, 5.0)
    stats, _ = make_stats([3, 2, 1], S=3)
    center = SubPartition([1, 0, 0])
    out = _bounds(center, ps, delta=1.5, stats=stats, radius=1e9)[1]
    assert out == surrogate_cluster(ps, [1, 1, 1], 1, 1.5)
    assert out.labels == (1, 1, 2)


def test_upper_bound_tie_break_by_index():
    ps = line_points(0.0, 10.0, 20.0)
    stats, _ = make_stats([2, 2, 2], S=2)  # all alpha-hat equal
    center = SubPartition([0, 0, 0])
    trace = []
    out = _bounds(center, ps, delta=1.0, stats=stats, radius=1e9, trace=([], trace))[1]
    assert [step.index for step in trace] == [0, 1, 2]
    assert all(step.accepted for step in trace)
    assert out.labels == (1, 2, 3)


def test_upper_bound_orders_by_alpha_hat():
    ps = line_points(0.0, 10.0, 20.0, 30.0)
    stats, _ = make_stats([0, 4, 1, 3], S=4)
    center = SubPartition([1, 0, 0, 0])
    trace = []
    _bounds(center, ps, delta=1.0, stats=stats, radius=1e9, trace=([], trace))
    assert [step.index for step in trace] == [1, 3, 2]


def test_upper_bound_stops_at_first_exceedance():
    ps = line_points(0.0, 10.0, 20.0)
    stats, _ = make_stats([3, 3, 3], S=3)
    center = SubPartition([0, 0, 0])
    # each activation of an isolated point adds (n-1) * m_ia * (1 - 1) ... the
    # distance here is activity mismatch only: 1 step -> 1.0, 2 -> 2.0, 3 -> 3.0
    trace = []
    out = _bounds(center, ps, delta=1.0, stats=stats, radius=2.0, trace=([], trace))[1]
    assert out.labels == (1, 2, 0)
    assert [s.accepted for s in trace] == [True, True, False]
    assert [s.distance for s in trace] == [1.0, 2.0, 3.0]


def test_upper_walk_adds_no_point_past_its_exit(monkeypatch):
    """The lower walk's count adds the center's active points, then the
    upper walk adds one point per traced step: none past the first state
    outside the ball."""
    n = 60
    ps = line_points(*range(n))
    stats, _ = make_stats([int(c) for c in np.random.default_rng(7).integers(1, 9, n)], S=8)
    center = SubPartition([1] * 20 + [0] * (n - 20))
    added = []
    add = credible_mod._Walk.add
    monkeypatch.setattr(credible_mod._Walk, "add", lambda walk, i: (added.append(i), add(walk, i))[1])
    trace = []
    # each activation costs (n - 1) * m_ia = 29.5: the fourth leaves the ball
    _bounds(center, ps, delta=1.5, stats=stats, radius=100.0, trace=([], trace))
    assert [s.accepted for s in trace] == [True, True, True, False]
    assert len(added) == 20 + len(trace)
    assert added[20:] == [s.index for s in trace]


def test_lower_bound_radius_zero_returns_center():
    ps = line_points(0.0, 1.0, 2.0)
    stats, _ = make_stats([3, 1, 3], S=3)
    center = SubPartition([1, 1, 1])
    out = _bounds(center, ps, delta=1.5, stats=stats, radius=0.0)[0]
    assert out == center


def test_lower_bound_large_radius_reaches_all_noise():
    ps = line_points(0.0, 1.0, 2.0)
    stats, _ = make_stats([3, 1, 2], S=3)
    center = SubPartition([1, 1, 1])
    out = _bounds(center, ps, delta=1.5, stats=stats, radius=1e9)[0]
    assert not out.labels_array.any()


def test_lower_bound_bridge_split():
    # chain 0 - 1 - 2 plus an isolated active point; removing the bridge point
    # (smallest alpha-hat) splits the chain into two singletons
    ps = line_points(0.0, 1.0, 2.0, 10.0)
    stats, _ = make_stats([9, 1, 9, 5], S=10)
    center = SubPartition([1, 1, 1, 2])
    trace = []
    out = _bounds(center, ps, delta=1.5, stats=stats, radius=2.5, trace=(trace, []))[0]
    assert out.labels == (1, 0, 2, 3)
    assert [s.index for s in trace] == [1, 3]
    assert [s.accepted for s in trace] == [True, False]
    assert trace[0].distance == 2.5
    assert trace[1].distance == 4.0


def test_bound_active_set_containment_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = 12
        pts = rng.random((n, 2)) * 4
        ps = PointSet(pts)
        counts = rng.integers(0, 6, n)
        stats, draws = make_stats(counts.tolist(), S=5)
        center = surrogate_cluster(ps, counts >= 3, 1, 0.8)
        radius = float(rng.uniform(0.0, 8.0))
        lo, up = _bounds(center, ps, 0.8, stats, radius)
        c_act = set(np.flatnonzero(center.labels_array).tolist())
        assert set(np.flatnonzero(lo.labels_array).tolist()) <= c_act
        assert set(np.flatnonzero(up.labels_array).tolist()) >= c_act
        assert ia_binder_loss(center, lo) <= radius
        assert ia_binder_loss(center, up) <= radius


def test_bounds_and_traces_match_oracle_walk():
    rng = np.random.default_rng(4)
    for trial in range(24):
        n = int(rng.integers(6, 22))
        if trial % 3 == 0:
            # lattice points at delta = 1: exact-delta ties and duplicates
            pts = rng.integers(0, 4, size=(n, 2)).astype(float)
            delta = 1.0
        else:
            pts = rng.random((n, 2)) * 4
            delta = float(rng.uniform(0.5, 1.5))
        ps = PointSet(pts)
        draws = [random_subpartition(rng, n, max_k=3) for _ in range(int(rng.integers(2, 7)))]
        stats = precompute_stats(draws)
        if trial % 2:
            center = random_subpartition(rng, n, max_k=3)
        else:
            active = np.flatnonzero(rng.random(n) < 0.5)
            center = SubPartition(oracle_components(pts, active, delta))
        radius = float(rng.uniform(0.0, 4.0 * n))
        for upper in (True, False):
            assert_walk_matches_oracles(ps, delta, stats, center, radius, upper)


def assert_walk_matches_oracles(ps, delta, stats, center, radius, upper, p=LossParams()):
    """The walk's bound and trace equal both oracles': the per-toggle relabelling
    walk and the walk from first definitions, floats compared with ==."""
    traces = ([], [])
    got = _bounds(center, ps, delta, stats, radius, p, traces)[upper]
    trace = traces[upper]
    relabelled, relabel_trace = oracle_relabel_walk(center, ps, delta, stats, radius, upper, p)
    assert got == relabelled
    assert trace == relabel_trace
    expect, expect_trace = oracle_greedy_walk(
        ps.points, center.labels, stats.alpha, delta, radius, upper=upper, p=p
    )
    assert got == SubPartition(expect)
    assert [(s.index, s.alpha, s.distance, s.accepted) for s in trace] == expect_trace


_PARAMS = [LossParams(), LossParams(a=1.0, b=2.0, m_ai=0.25, m_ia=1.0), LossParams(a=0.7, b=0.3, m_ai=0.2, m_ia=0.6)]


@st.composite
def walk_instances(draw):
    """Small walks: lattice points at delta = 1 (exact-delta ties, duplicates)
    or free points; centers that are or are not the delta-components of their
    active set, all noise or all active; radius 0, in between, equal to a
    state's distance, or 1e9; three loss settings."""
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 20)))
    if draw(st.booleans()):
        coords = st.integers(0, 3).map(float)
        delta = 1.0
    else:
        coords = st.floats(0.0, 4.0, allow_nan=False)
        delta = draw(st.floats(0.3, 1.5))
    pts = np.array(draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n)))
    S = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=S, max_size=S))
    stats = precompute_stats([SubPartition(r) for r in rows])
    kind = draw(st.sampled_from(["components", "labels", "noise", "active"]))
    if kind == "components":
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        center = SubPartition(oracle_components(pts, np.flatnonzero(mask), delta))
    elif kind == "labels":
        center = SubPartition(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    elif kind == "noise":
        center = SubPartition.all_noise(n)
    else:
        center = SubPartition(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    p = draw(st.sampled_from(_PARAMS))
    upper = draw(st.booleans())
    radius_kind = draw(st.sampled_from(["zero", "between", "tie", "huge"]))
    if radius_kind == "zero":
        radius = 0.0
    elif radius_kind == "huge":
        radius = 1e9
    elif radius_kind == "between":
        radius = draw(st.floats(0.0, 3.0 * n * n))
    else:
        _, full = oracle_relabel_walk(center, PointSet(pts), delta, stats, 1e9, upper, p)
        radius = full[draw(st.integers(0, len(full) - 1))].distance if full else 0.0
    return PointSet(pts), delta, stats, center, radius, upper, p


@settings(max_examples=300, deadline=None)
@given(walk_instances())
def test_walks_match_both_oracles(instance):
    ps, delta, stats, center, radius, upper, p = instance
    assert_walk_matches_oracles(ps, delta, stats, center, radius, upper, p)


@pytest.mark.parametrize("center_kind", ["noise", "active"])
def test_walks_match_both_oracles_from_an_extreme_center(center_kind):
    """A center with no active point (the lower walk is empty and the upper
    walk starts from the empty union-find) and one with every point active
    (the upper walk is empty), at every radius the walks can stop at."""
    rng = np.random.default_rng(11)
    n = 14
    ps = PointSet(rng.random((n, 2)) * 3)
    stats = precompute_stats([random_subpartition(rng, n, max_k=3) for _ in range(5)])
    if center_kind == "noise":
        center = SubPartition.all_noise(n)
    else:
        center = SubPartition(oracle_components(ps.points, np.arange(n), 0.9))
    for upper in (True, False):
        _, full = oracle_relabel_walk(center, ps, 0.9, stats, 1e9, upper)
        assert len(full) == (n if upper == (center_kind == "noise") else 0)
        for radius in [0.0, 1e9, *(s.distance for s in full)]:
            assert_walk_matches_oracles(ps, 0.9, stats, center, radius, upper)


def test_walks_match_relabel_oracle_mid_size():
    """Two-Gaussian ladder-size input (n = 250, S = 30): hundreds of toggles
    and long merge chains, against the per-toggle relabelling walk."""
    rng = np.random.default_rng(250)
    pts = np.concatenate([rng.normal(-1.5, 0.6, (125, 2)), rng.normal(1.5, 0.6, (125, 2))])
    ps = PointSet(pts)
    ens = ballet.build_ensemble(ps, ballet.HistogramMixtureConfig(K=30, M_prime=14), S=30, seed=5)
    fbar = ens.posterior_mean()
    lam = float(np.quantile(fbar, 0.4))
    delta = ballet.adaptive_delta(ps, np.flatnonzero(fbar >= lam))
    draws = ballet.draw_clusterings(ps, ens, lam, delta)
    stats = precompute_stats(draws)
    plugin = ballet.plugin_estimate(ps, ens, lam, delta)
    # a center whose clusters cut across its delta-components: one large
    # cluster and seven small ones on half the points, so large components
    # with few clusters meet small ones with many, and count tables merge
    # both ways
    labels = rng.choice(np.arange(9), size=ps.n, p=[0.5, 0.3] + [0.2 / 7] * 7)
    scattered = SubPartition(labels)
    # the search's estimate, the center compute_credible_ball is given
    estimate = ballet.search(stats, cfg=ballet.SearchConfig(n_restarts=2, n_zealous_attempts=2))
    steps = 0
    for center in (plugin, scattered, estimate):
        for r in (credible_radius(center, draws), 1e9):
            for upper in (True, False):
                traces = ([], [])
                got = _bounds(center, ps, delta, stats, r, trace=traces)[upper]
                got_trace = traces[upper]
                expect, expect_trace = oracle_relabel_walk(center, ps, delta, stats, r, upper)
                assert got == expect
                assert got_trace == expect_trace
                steps += len(got_trace)
    assert steps >= 1000


def test_bound_input_validation():
    ps = line_points(0.0, 1.0)
    stats, _ = make_stats([2, 1], S=2)
    center = SubPartition([1, 1])
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            _bounds(center, ps, 1.0, stats, radius=bad)
    # an infinite radius is valid and accepts every toggle
    lower, upper = _bounds(center, ps, 1.0, stats, radius=float("inf"))
    assert upper == center
    assert not lower.labels_array.any()
    with pytest.raises(ValueError):
        _bounds(SubPartition([1, 1, 0]), ps, 1.0, stats, radius=1.0)


# -- assembled ball ------------------------------------------------------------


def test_compute_credible_ball_invariants_and_json():
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.normal(0, 0.3, (15, 2)), rng.normal(4, 0.3, (15, 2))])
    ps = PointSet(pts)
    draws = []
    for s in range(8):
        active = rng.random(30) > 0.2
        draws.append(surrogate_cluster(ps, active, 1, 1.0))
    center = surrogate_cluster(ps, np.ones(30), 1, 1.0)
    ball = compute_credible_ball(center, ps, 1.0, draws, alpha=0.25, stats=precompute_stats(draws))
    assert isinstance(ball, CredibleBall)
    assert ball.radius == credible_radius(center, draws, alpha=0.25)
    dists = np.array([ia_binder_loss(center, c) for c in draws])
    assert ball.coverage == np.count_nonzero(dists <= ball.radius) / len(draws)
    assert ball.coverage >= 0.75
    assert ia_binder_loss(center, ball.lower) <= ball.radius
    assert ia_binder_loss(center, ball.upper) <= ball.radius
    lo, c, up = (set(np.flatnonzero(x.labels_array).tolist()) for x in (ball.lower, center, ball.upper))
    assert lo <= c <= up
    obj = json.loads(canonical_json(ball.to_json_dict()))
    assert sorted(obj.keys()) == ["alpha", "coverage", "epsilon_star", "lower", "upper"]
    assert SubPartition.from_json_dict(obj["lower"]) == ball.lower
    assert SubPartition.from_json_dict(obj["upper"]) == ball.upper


def test_credible_ball_builds_one_pair_list_and_one_walk(monkeypatch):
    """Both bounds are counted on one pair list and one union-find."""
    calls = {"pairs": 0, "walks": 0}
    delta_pairs = credible_mod._delta_pairs

    def counting_pairs(*args, **kwargs):
        calls["pairs"] += 1
        return delta_pairs(*args, **kwargs)

    class CountingWalk(credible_mod._Walk):
        def __init__(self, *args):
            calls["walks"] += 1
            super().__init__(*args)

    monkeypatch.setattr(credible_mod, "_delta_pairs", counting_pairs)
    monkeypatch.setattr(credible_mod, "_Walk", CountingWalk)
    rng = np.random.default_rng(5)
    ps = PointSet(rng.random((40, 2)) * 3)
    draws = [surrogate_cluster(ps, rng.random(40) < 0.6, 1, 0.7) for _ in range(6)]
    center = draws[0]
    ball = compute_credible_ball(center, ps, 0.7, draws, stats=precompute_stats(draws))
    assert calls == {"pairs": 1, "walks": 1}
    # both walks moved, so each was counted on that one union-find
    assert ball.lower != center and ball.upper != center


def test_ball_radius_and_coverage_match_the_per_draw_loss_oracle():
    """compute_credible_ball counts the radius and the coverage from the
    stats' per-draw counts, bit for bit as one ia_binder_loss(center, draw)
    per draw gives them: under asymmetric and non-dyadic losses, with the
    center active at points no draw activates, all-noise draws, and S = 1."""
    rng = np.random.default_rng(32)
    for trial in range(300):
        n = int(rng.integers(1, 25))
        S = [1, 1, 2, 3, 5, 8][trial % 6]
        ps = PointSet(rng.random((n, 2)))
        dead = rng.random(n) < 0.2  # active in no draw
        draws = []
        for _ in range(S):
            labels = np.where(dead, 0, rng.integers(0, 5, size=n))
            draws.append(SubPartition(np.zeros(n, dtype=np.int64) if rng.random() < 0.2 else labels))
        center = random_subpartition(rng, n)
        stats = precompute_stats(draws)
        alpha = float(rng.choice([0.05, 0.25, 0.5, 0.9]))
        for p in BALL_LOSSES:
            ball = compute_credible_ball(center, ps, 0.3, draws, alpha, p, stats=stats)
            radius, dists = oracle_radius_and_losses(center, draws, p, alpha)
            assert ball.radius == radius
            assert ball.coverage == np.count_nonzero(dists <= radius) / S
            assert credible_radius(center, draws, p, alpha) == radius


def test_ball_rejects_clusterings_that_are_not_the_stats_draws():
    rng = np.random.default_rng(33)
    ps = PointSet(rng.random((6, 2)))
    draws = [random_subpartition(rng, 6) for _ in range(3)]
    stats = precompute_stats(draws)
    center = draws[0]
    for bad in (draws[:2], draws + [draws[0]], [], [SubPartition(list(d.labels) + [1]) for d in draws]):
        with pytest.raises(ValueError):
            compute_credible_ball(center, ps, 0.3, bad, stats=stats)
    with pytest.raises(ValueError):
        compute_credible_ball(SubPartition([1] * 7), ps, 0.3, draws, stats=stats)


def test_bound_step_is_frozen():
    step = BoundStep(index=1, alpha=0.5, distance=1.0, accepted=True)
    with pytest.raises(AttributeError):
        step.index = 2
