"""Synthetic benchmarks: the sky-survey generator on its fixed mixture design,
enclosing-ellipse detection metrics, and the replication harness comparing
the posterior point estimate, its credible-ball bounds, the plugin surrogate,
and DBSCAN*, whose parameters and clustering come from one call, dbscan_baseline."""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .credible import compute_credible_ball
from .density import HistogramMixtureConfig, build_ensemble
from .errors import ConfigError
from .levels import LevelSpec, resolve_level
from .levelset import (
    AdaptiveDeltaConfig,
    PointSet,
    _check_pair_budget,
    _knn_distance_at,
    _dbscan_from_knn,
    adaptive_delta,
    dbscan_star,
    default_k_dbscan,
)
from .risk import (
    DEFAULT_LOSS_PARAMS,
    LossParams,
    SearchConfig,
    ballet_estimate,
    plugin_estimate,
)
from .subpartition import SubPartition
from .util import cpu_count, fork_map, order_statistic_ceil, spawn_rngs

__all__ = [
    "EVAL_SCHEMA",
    "STUDY_SCHEMA",
    "STUDY_METHODS",
    "SkySurveySpec",
    "SkyComponents",
    "generate_sky_survey",
    "generate_two_moons",
    "generate_noisy_circles",
    "ClusterEllipse",
    "EvalReport",
    "evaluate",
    "BalletStudyConfig",
    "DbscanStudyConfig",
    "dbscan_baseline",
    "run_study_replicate",
    "run_simulation_study",
    "StudyResult",
]

EVAL_SCHEMA = "ballet/eval/v1"
STUDY_SCHEMA = "ballet/study/v1"

# squared Mahalanobis radius enclosing 95% of a bivariate Gaussian: the 95%
# quantile of chi-squared with 2 degrees of freedom, chi2.ppf(0.95, df=2), as a
# literal so importing the package does not load scipy.stats
ELLIPSE_RADIUS_SQ = 5.991464547107979
MIN_SEMI_AXIS = 0.005

STUDY_METHODS = ("ballet", "ballet_lower", "ballet_upper", "plugin", "dbscan")
_METRICS = ("sensitivity", "specificity", "exact_match")


# ---------------------------------------------------------------------------
# generators

# the sky survey's fixed mixture design (see SkySurveySpec)
SKY_WEIGHT_CONCENTRATION = 0.5
SKY_VARIANCE_SHAPE = 5.0
SKY_VARIANCE_SCALE = 0.0005


@dataclass(frozen=True)
class SkySurveySpec:
    """Mixture on the unit square: uniform background mass plus isotropic
    Gaussian components. The survey design is fixed: uniform means,
    Dirichlet(SKY_WEIGHT_CONCENTRATION) weights, and variances
    SKY_VARIANCE_SCALE / Gamma(SKY_VARIANCE_SHAPE, 1). A spec sets only the
    size, the component count, the noise mass and the seed.

    noise_mass = 1 degenerates to the pure background (components are still
    drawn and reported as targets).
    """

    n: int = 40000
    n_components: int = 42
    noise_mass: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.n_components < 1:
            raise ConfigError(f"n_components must be >= 1, got {self.n_components}")
        if not 0.0 < self.noise_mass <= 1.0:
            raise ConfigError(f"noise_mass must lie in (0, 1], got {self.noise_mass}")


@dataclass(frozen=True)
class SkyComponents:
    """Ground truth for one survey draw.

    labels gives each point's source: 0 for the uniform background, 1..K for
    the Gaussian components (matching the noise-label convention).
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    labels: np.ndarray


def generate_sky_survey(
    spec: SkySurveySpec,
) -> tuple[PointSet, np.ndarray, SkyComponents]:
    """Draw n points from the background-plus-Gaussians mixture.

    Draws landing outside the unit square are rejected and resampled from
    the full mixture until n remain, so the output is i.i.d. from the mixture
    conditioned on the square. Targets are the component means. Deterministic
    given spec.seed.
    """
    rng = spawn_rngs(spec.seed, 1)[0]
    K = spec.n_components

    weights = rng.dirichlet(np.full(K, SKY_WEIGHT_CONCENTRATION))
    means = rng.uniform(0.0, 1.0, size=(K, 2))
    variances = SKY_VARIANCE_SCALE / rng.gamma(SKY_VARIANCE_SHAPE, 1.0, size=K)
    sds = np.sqrt(variances)

    mix = np.concatenate(([spec.noise_mass], (1.0 - spec.noise_mass) * weights))
    mix /= mix.sum()

    points = np.empty((spec.n, 2), dtype=np.float64)
    labels = np.empty(spec.n, dtype=np.int64)
    filled = 0
    while filled < spec.n:
        m = spec.n - filled
        comp = rng.choice(K + 1, size=m, p=mix)
        x = np.empty((m, 2), dtype=np.float64)
        bg = comp == 0
        if bg.any():
            x[bg] = rng.uniform(0.0, 1.0, size=(int(bg.sum()), 2))
        if not bg.all():
            g = comp[~bg] - 1
            x[~bg] = means[g] + rng.normal(size=(g.size, 2)) * sds[g][:, None]
        keep = np.all((x >= 0.0) & (x <= 1.0), axis=1)
        kept = int(keep.sum())
        points[filled : filled + kept] = x[keep]
        labels[filled : filled + kept] = comp[keep]
        filled += kept

    meta = SkyComponents(weights=weights, means=means, variances=variances, labels=labels)
    return PointSet(points), means.copy(), meta


def generate_two_moons(n: int, noise_sd: float = 0.1, seed: int = 0) -> PointSet:
    """Two interleaved half-circles with Gaussian jitter."""
    return _two_curves(n, noise_sd, seed, np.pi, lambda c, s: (c, s), lambda c, s: (1.0 - c, 0.5 - s))


def generate_noisy_circles(n: int, noise_sd: float = 0.05, seed: int = 0) -> PointSet:
    """Two concentric circles (radii 1 and 0.5) with Gaussian jitter."""
    return _two_curves(n, noise_sd, seed, 2.0 * np.pi, lambda c, s: (c, s), lambda c, s: (0.5 * c, 0.5 * s))


def _two_curves(n: int, noise_sd: float, seed: int, span: float, first, second) -> PointSet:
    """(n + 1) // 2 points on the first curve and the rest on the second, each
    curve mapping (cos t, sin t) for t uniform on [0, span), then Gaussian
    jitter of sd noise_sd."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (noise_sd >= 0 and np.isfinite(noise_sd)):
        raise ValueError(f"noise_sd must be nonnegative, got {noise_sd}")
    rng = spawn_rngs(seed, 1)[0]
    n_first = (n + 1) // 2
    t1 = rng.uniform(0.0, span, size=n_first)
    t2 = rng.uniform(0.0, span, size=n - n_first)
    pts = np.vstack([np.column_stack(curve(np.cos(t), np.sin(t))) for curve, t in ((first, t1), (second, t2))])
    if noise_sd > 0:
        pts = pts + rng.normal(scale=noise_sd, size=pts.shape)
    return PointSet(pts)


# ---------------------------------------------------------------------------
# enclosing-ellipse metrics


@dataclass(frozen=True)
class ClusterEllipse:
    """Enclosing ellipse of one cluster: center, unit axis rows, semi-axes."""

    cluster_id: int
    center: tuple[float, float]
    axes: tuple[tuple[float, float], tuple[float, float]]
    semi_axes: tuple[float, float]

    def contains(self, X: np.ndarray) -> np.ndarray:
        X2 = np.atleast_2d(np.asarray(X, dtype=np.float64))
        z = (X2 - np.asarray(self.center)) @ np.asarray(self.axes).T
        r = z / np.asarray(self.semi_axes)
        return np.einsum("ij,ij->i", r, r) <= 1.0

    def to_json_dict(self) -> dict:
        return {
            "cluster": self.cluster_id,
            "center": list(self.center),
            "axes": [list(a) for a in self.axes],
            "semi_axes": list(self.semi_axes),
        }


def _cluster_ellipse(cluster_id: int, pts: np.ndarray) -> ClusterEllipse:
    """Mean/covariance ellipse at the 95% radius, each semi-axis at least
    MIN_SEMI_AXIS; singletons and singular covariances get the minimum circle."""
    mu = pts.mean(axis=0)
    center = (float(mu[0]), float(mu[1]))
    axes = ((1.0, 0.0), (0.0, 1.0))
    semi = (MIN_SEMI_AXIS, MIN_SEMI_AXIS)
    if pts.shape[0] >= 2:
        cov = np.cov(pts, rowvar=False, ddof=1)
        evals, evecs = np.linalg.eigh(cov)
        if np.all(np.isfinite(evals)) and evals.min() > 0.0:
            lengths = np.maximum(np.sqrt(evals * ELLIPSE_RADIUS_SQ), MIN_SEMI_AXIS)
            axes = tuple(tuple(float(v) for v in row) for row in evecs.T)
            semi = (float(lengths[0]), float(lengths[1]))
    return ClusterEllipse(cluster_id=cluster_id, center=center, axes=axes, semi_axes=semi)


@dataclass(frozen=True)
class EvalReport:
    """Detection metrics plus the geometry they were computed from."""

    sensitivity: float
    specificity: float
    exact_match: float
    ellipses: tuple[ClusterEllipse, ...]
    target_hits: tuple[bool, ...]
    ellipse_target_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in _METRICS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    def to_json_dict(self) -> dict:
        return {
            "schema": EVAL_SCHEMA,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "exact_match": self.exact_match,
            "ellipses": [e.to_json_dict() for e in self.ellipses],
            "target_hits": [bool(h) for h in self.target_hits],
            "ellipse_target_counts": list(self.ellipse_target_counts),
        }


def evaluate(clustering: SubPartition, ps: PointSet, targets) -> EvalReport:
    """Ellipse-based detection metrics of a clustering against target points.

    sensitivity: fraction of targets inside at least one cluster ellipse;
    specificity: fraction of ellipses containing at least one target;
    exact_match: fraction of ellipses containing exactly one target.
    With no clusters all three are 0 by convention, as is sensitivity with no
    targets.
    """
    if clustering.n != ps.n:
        raise ValueError(f"clustering has n={clustering.n} but point set has n={ps.n}")
    if ps.d != 2:
        raise ValueError(f"ellipse metrics need 2-dimensional points, got d={ps.d}")
    T = np.asarray(targets, dtype=np.float64)
    if T.size == 0:
        T = T.reshape(0, 2)
    if T.ndim != 2 or T.shape[1] != 2:
        raise ValueError(f"targets must be an (m, 2) array, got shape {T.shape}")

    lab = clustering.labels_array
    ellipses = [
        _cluster_ellipse(cid, ps.points[lab == cid]) for cid in range(1, clustering.k + 1)
    ]
    counts = np.zeros(len(ellipses), dtype=np.int64)
    hits = np.zeros(T.shape[0], dtype=bool)
    for j, ell in enumerate(ellipses):
        inside = ell.contains(T) if T.shape[0] else np.zeros(0, dtype=bool)
        counts[j] = int(inside.sum())
        hits |= inside

    sensitivity = float(hits.mean()) if hits.size else 0.0
    specificity = float((counts >= 1).mean()) if counts.size else 0.0
    exact_match = float((counts == 1).mean()) if counts.size else 0.0
    return EvalReport(
        sensitivity=sensitivity,
        specificity=specificity,
        exact_match=exact_match,
        ellipses=tuple(ellipses),
        target_hits=tuple(bool(h) for h in hits),
        ellipse_target_counts=tuple(int(c) for c in counts),
    )


# ---------------------------------------------------------------------------
# replication harness


@dataclass(frozen=True)
class BalletStudyConfig:
    """Posterior-pipeline settings for one study arm: ensemble size, histogram
    prior, level (noise fraction), adaptive delta, loss, search, ball level."""

    nu: float = 0.9
    S: int = 100
    hist: HistogramMixtureConfig = HistogramMixtureConfig()
    delta: AdaptiveDeltaConfig = AdaptiveDeltaConfig()
    loss: LossParams = DEFAULT_LOSS_PARAMS
    search: SearchConfig = SearchConfig()
    credible_alpha: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.nu < 1.0:
            raise ConfigError(f"nu must lie in [0, 1), got {self.nu}")
        if self.S < 1:
            raise ConfigError(f"S must be >= 1, got {self.S}")
        if not 0.0 < self.credible_alpha < 1.0:
            raise ConfigError(f"credible_alpha must lie in (0, 1), got {self.credible_alpha}")


@dataclass(frozen=True)
class DbscanStudyConfig:
    """Baseline parameters; unset values resolve per point set (MinPts to
    ceil(log2 n), Eps to the noise-fraction order statistic)."""

    nu: float = 0.9
    min_pts: Optional[int] = None
    eps: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.nu < 1.0:
            raise ConfigError(f"nu must lie in [0, 1), got {self.nu}")
        if self.min_pts is not None and self.min_pts < 1:
            raise ConfigError(f"min_pts must be >= 1, got {self.min_pts}")
        if self.eps is not None and not (self.eps > 0 and np.isfinite(self.eps)):
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")


def dbscan_baseline(ps: PointSet, cfg: DbscanStudyConfig) -> tuple[int, float, SubPartition]:
    """(MinPts, Eps, DBSCAN* clustering) of the baseline. Eps is the ceil((1 - nu) n)-th
    smallest distance from a point to its MinPts-th nearest dataset point (itself the
    first, as in the core test), a k-NN column that also picks the core points on the one
    kd-tree; a given Eps runs dbscan_star. An Eps, given or resolved, past the pair budget
    is an InfeasibleError before any pair is listed."""
    k = default_k_dbscan(ps.n) if cfg.min_pts is None else int(cfg.min_pts)
    if not 1 <= k <= ps.n:
        raise ConfigError(f"min_pts={k} out of range for n={ps.n}")
    tree = cKDTree(ps.points)
    if cfg.eps is not None:
        _check_pair_budget(tree, cfg.eps)
        return k, float(cfg.eps), dbscan_star(ps, cfg.eps, k)
    knn = _knn_distance_at(tree, ps.points, k)
    eps = order_statistic_ceil(knn, 1.0 - cfg.nu)
    if not eps > 0:
        raise ConfigError(f"resolved Eps={eps} is not positive (min_pts={k} too small for the data)")
    return k, eps, _dbscan_from_knn(ps, tree, knn, eps, k)


def _rep_seeds(master_seed: int, reps: int) -> list[tuple[int, int, int]]:
    """Per-replicate (data, ensemble, search) integer seeds from one master."""
    children = np.random.SeedSequence(master_seed).spawn(reps)
    return [tuple(int(s) for s in c.generate_state(3)) for c in children]


def run_study_replicate(
    spec: SkySurveySpec,
    ballet: BalletStudyConfig,
    dbscan: DbscanStudyConfig,
    seeds: tuple[int, int, int],
) -> dict:
    """One replicate: generate, fit the ensemble, resolve the level and delta,
    run all estimators, and score each against the component means. A delta
    past the pair budget is an InfeasibleError, before any pair is stored."""
    data_seed, ensemble_seed, search_seed = seeds
    ps, targets, _ = generate_sky_survey(replace(spec, seed=data_seed))
    ensemble = build_ensemble(ps, ballet.hist, S=ballet.S, seed=ensemble_seed)
    fbar = ensemble.posterior_mean()
    lam = resolve_level(LevelSpec("noise_fraction", ballet.nu), density_at_points=fbar)
    active = np.flatnonzero(fbar >= lam)
    delta = adaptive_delta(ps, active, ballet.delta)
    _check_pair_budget(cKDTree(ps.points), delta)

    result = ballet_estimate(
        ps, ensemble, lam, delta, ballet.loss, replace(ballet.search, seed=search_seed)
    )
    ball = compute_credible_ball(
        result.estimate,
        ps,
        delta,
        result.clusterings,
        alpha=ballet.credible_alpha,
        p=ballet.loss,
        stats=result.stats,
    )
    plug = plugin_estimate(ps, ensemble, lam, delta)
    min_pts, eps, db = dbscan_baseline(ps, dbscan)

    row: dict = {
        "lambda": float(lam),
        "delta": float(delta),
        "min_pts": int(min_pts),
        "eps": float(eps),
    }
    estimates = {
        "ballet": result.estimate,
        "ballet_lower": ball.lower,
        "ballet_upper": ball.upper,
        "plugin": plug,
        "dbscan": db,
    }
    for name, clustering in estimates.items():
        report = evaluate(clustering, ps, targets)
        row[name] = {
            "sensitivity": report.sensitivity,
            "specificity": report.specificity,
            "exact_match": report.exact_match,
            "n_clusters": clustering.k,
        }
    return row


@dataclass(frozen=True)
class StudyResult:
    """Per-replicate rows and metric means per method."""

    reps: int
    methods: tuple[str, ...]
    per_rep: tuple[dict, ...]
    summary: dict

    def summary_csv(self) -> str:
        buf = io.StringIO()
        buf.write("method," + ",".join(_METRICS) + "\n")
        for m in self.methods:
            row = self.summary[m]
            buf.write(m + "," + ",".join(f"{row[t]:.6f}" for t in _METRICS) + "\n")
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "schema": STUDY_SCHEMA,
            "reps": self.reps,
            "methods": list(self.methods),
            "summary": self.summary,
            "per_rep": list(self.per_rep),
        }


def run_simulation_study(
    reps: int,
    spec: SkySurveySpec = SkySurveySpec(),
    ballet: BalletStudyConfig = BalletStudyConfig(),
    dbscan: DbscanStudyConfig = DbscanStudyConfig(),
) -> StudyResult:
    """Replicated comparison of all estimators on fresh survey draws.

    spec.seed is the master seed; every replicate derives its own data,
    ensemble, and search seeds from it. From as many replicates as CPUs up
    they run on cpu_count() processes (util.fork_map), each search
    serially, and only each replicate's row and warnings come back; fewer
    run serially, each search free to pool its restarts (see search). The
    rows and warnings do not depend on the worker count. A worker that dies
    (killed by a signal or the OOM killer) raises InfeasibleError.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    tasks = [(ballet, dbscan, s) for s in _rep_seeds(spec.seed, reps)]
    workers = cpu_count() if reps >= cpu_count() else 1
    rows = fork_map(run_study_replicate, spec, tasks, workers, "study")
    for i, row in enumerate(rows):
        row["rep"] = i

    summary = {
        m: {t: float(np.mean([row[m][t] for row in rows])) for t in _METRICS}
        for m in STUDY_METHODS
    }
    return StudyResult(reps=reps, methods=STUDY_METHODS, per_rep=tuple(rows), summary=summary)
