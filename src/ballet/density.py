"""Density models feeding the clustering pipeline.

Three evaluators: a mixture of random histograms with a fast modular
posterior sampler (bin layouts drawn once from the prior, per-component bin
masses drawn conjugately), a uniform-kernel KDE, and a k-NN density. The
latter two exist mainly for the DBSCAN correspondences; the histogram mixture
is the workhorse posterior model. Posterior draws evaluated at the points are
held in a DensityDrawEnsemble, the input of every downstream stage.

A draw at the data points makes one Dirichlet draw per component over the
bins that hold data plus one entry for all of its empty bins, which is exact
in law by the Dirichlet's aggregation property (see HistogramPosterior), so
no variate is drawn for an empty bin. The points are binned once, by one
sorted lookup per axis shared by all K components, and build_ensemble fills
the S draws on one thread per CPU of the process when the collapsed vectors
are long enough for threads to pay, each draw from its own RNG stream, so
the values are the same for any number of workers.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DataIOError, NumericError
from .levelset import PointSet, _read_rows, _write_rows, unit_ball_volume
from .util import canonical_json, cpu_count, spawn_rngs

__all__ = [
    "DensityDrawEnsemble",
    "HistogramMixtureConfig",
    "HistogramBins",
    "HistogramDensity",
    "HistogramPosterior",
    "default_domain",
    "sample_bins",
    "fit_histogram_posterior",
    "build_ensemble",
    "kde_uniform",
    "knn_density",
    "KdeUniformDensity",
    "KnnDensity",
]

_MAX_AXES = 3

# Below this mean length of the collapsed Dirichlet vectors (held bins, plus
# one entry for the empty ones) a draw is mostly interpreter time, and a second
# thread only contends for the GIL. On 2 CPUs (default model, S = 100), one
# thread against two took 0.09 s vs 0.12 s at mean width 262, 0.12-0.16 s vs
# 0.12-0.13 s at 481, and 0.16 s vs 0.13 s at 727.
_THREADED_MIN_BINS = 450


ENSEMBLE_SCHEMA = "ballet/ensemble/v1"


class DensityDrawEnsemble:
    """S posterior density draws evaluated at the n observation points."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        vals = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError(f"ensemble must be a nonempty S x n matrix, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise NumericError("ensemble values must be finite")
        if (vals < 0).any():
            raise NumericError("ensemble values must be nonnegative")
        vals.setflags(write=False)
        self.values = vals

    @property
    def S(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def posterior_mean(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def save(self, path) -> None:
        """Binary: one JSON header line, then S*n row-major little-endian doubles.

        A .csv extension writes the plain-text alternative (one draw per row).
        """
        if str(path).endswith(".csv"):
            _write_rows(path, self.values)
            return
        header = canonical_json({"S": self.S, "dtype": "<f8", "n": self.n, "schema": ENSEMBLE_SCHEMA})
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii") + b"\n")
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "DensityDrawEnsemble":
        try:
            if str(path).endswith(".csv"):
                return cls(_read_rows(path))
            with open(path, "rb") as fh:
                header_line = fh.readline()
                payload = fh.read()
            header = json.loads(header_line.decode("ascii"))
            if not isinstance(header, dict):
                raise DataIOError(f"ensemble header is not a JSON object: {header!r}")
            if header.get("schema") != ENSEMBLE_SCHEMA or header.get("dtype") != "<f8":
                raise DataIOError(
                    f"ensemble header needs schema {ENSEMBLE_SCHEMA!r} and dtype '<f8', "
                    f"got {header.get('schema')!r} and {header.get('dtype')!r}"
                )
            S, n = header.get("S"), header.get("n")
            if not all(type(v) is int and v >= 1 for v in (S, n)):
                raise DataIOError(f"ensemble header needs integers S, n >= 1, got S={S!r}, n={n!r}")
            expected = S * n * 8
            if len(payload) != expected:
                raise DataIOError(
                    f"ensemble payload is {len(payload)} bytes, expected {expected} for S={S}, n={n}"
                )
            vals = np.frombuffer(payload, dtype="<f8").reshape(S, n)
            return cls(vals)
        except (OSError, ValueError) as exc:
            raise DataIOError(f"cannot read ensemble from {path}: {exc}") from exc


@dataclass(frozen=True)
class HistogramMixtureConfig:
    """Mixture of K product-grid histograms, M_prime bins per axis.

    alpha_b controls bin-width regularity (larger = more even grids) and
    alpha_d is the concentration of the prior on per-bin masses. domain is a
    per-axis (low, high) tuple; None means the data bounding box inflated by
    one percent.
    """

    K: int = 50
    M_prime: int = 50
    alpha_b: float = 5.0
    alpha_d: float = 1.0
    domain: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        if self.K < 1 or self.M_prime < 1:
            raise ValueError("K and M_prime must be >= 1")
        if not (self.alpha_b > 0 and np.isfinite(self.alpha_b)):
            raise ValueError("alpha_b must be positive and finite")
        if not (self.alpha_d > 0 and np.isfinite(self.alpha_d)):
            raise ValueError("alpha_d must be positive and finite")
        if self.domain is not None:
            for lo, hi in self.domain:
                if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                    raise ValueError(f"bad domain axis ({lo}, {hi})")


def default_domain(ps: PointSet) -> tuple[tuple[float, float], ...]:
    """Data bounding box widened by one percent of each axis range (half per
    side); a flat axis is widened by 0.5 on each side."""
    lo = ps.points.min(axis=0)
    hi = ps.points.max(axis=0)
    span = hi - lo
    pad = np.where(span > 0, 0.005 * span, 0.5)
    return tuple((float(a - p), float(b + p)) for a, b, p in zip(lo, hi, pad))


def _domain_array(domain) -> np.ndarray:
    """A grid domain as a (d, 2) array, d at most _MAX_AXES: sample_bins reads
    it before drawing any grid."""
    arr = np.asarray(domain, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("domain must be a sequence of (low, high) pairs")
    if arr.shape[0] > _MAX_AXES:
        raise ConfigError(f"histogram grids support at most {_MAX_AXES} axes")
    return arr


class HistogramBins:
    """Fixed per-component grid cut points shared by all posterior draws.

    cuts has shape (K, d, M_prime + 1) with cuts[..., 0] and cuts[..., -1]
    exactly at the domain edges. Bin m on an axis is [u_0, u_1] for m = 1 and
    (u_{m-1}, u_m] after that, so the grid covers the domain exactly.
    """

    def __init__(self, cuts: np.ndarray, domain) -> None:
        cuts = np.ascontiguousarray(np.asarray(cuts, dtype=np.float64))
        dom = _domain_array(domain)
        if cuts.ndim != 3 or cuts.shape[2] < 2:
            raise ValueError(f"cuts must have shape (K, d, M_prime + 1), got {cuts.shape}")
        if cuts.shape[1] != dom.shape[0]:
            raise ValueError("cuts and domain disagree on the number of axes")
        if not np.all(np.diff(cuts, axis=2) > 0):
            raise NumericError("grid cut points must be strictly increasing")
        if not (np.all(cuts[:, :, 0] == dom[:, 0]) and np.all(cuts[:, :, -1] == dom[:, 1])):
            raise ValueError("grid endpoints must coincide with the domain edges")
        cuts.setflags(write=False)
        self.cuts = cuts
        self.domain = dom
        widths = np.diff(cuts, axis=2)  # (K, d, M')
        K, d, mp = widths.shape
        areas = widths[:, 0, :]
        for a in range(1, d):
            areas = areas[:, :, None] * widths[:, a, None, :]
            areas = areas.reshape(K, -1)
        self.areas = areas  # (K, M) in row-major axis order
        self.total_area = float(np.prod(dom[:, 1] - dom[:, 0]))

    @property
    def K(self) -> int:
        return self.cuts.shape[0]

    @property
    def d(self) -> int:
        return self.cuts.shape[1]

    @property
    def M_prime(self) -> int:
        return self.cuts.shape[2] - 1

    @property
    def M(self) -> int:
        return self.M_prime ** self.d

    def bin_indices(self, X: np.ndarray) -> np.ndarray:
        """Flat bin index of each row of X for each component: (K, len(X)).

        Points must lie inside the domain; the first bin on each axis is
        closed, later bins are left-open, so a point on a cut is in the lower
        bin. One sorted lookup per axis serves all components: a point's
        rank among every component's interior cuts on that axis, then, per
        component, how many of its own cuts lie among that many smallest.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        K, d, mp = self.K, self.d, self.M_prime
        out = np.zeros((K, X.shape[0]), dtype=np.int64)
        row = np.empty(X.shape[0], dtype=np.int64)
        for a in range(d):
            interior = self.cuts[:, a, 1:-1].ravel()
            order = np.argsort(interior, kind="stable")
            # below[k, r]: component k's cuts among the r smallest, times the axis stride
            below = np.zeros((K, order.size + 1), dtype=np.int64)
            below[order // (mp - 1), np.arange(1, order.size + 1)] = mp ** (d - 1 - a)
            np.cumsum(below, axis=1, out=below)
            rank = np.searchsorted(interior[order], X[:, a], side="left")
            for k in range(K):
                np.take(below[k], rank, out=row, mode="clip")  # unbuffered; ranks are in range
                out[k] += row
        return out

    def contains(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        dom = self.domain
        return np.all((X >= dom[:, 0]) & (X <= dom[:, 1]), axis=1)


def sample_bins(
    cfg: HistogramMixtureConfig,
    domain: Sequence[tuple[float, float]],
    rng: np.random.Generator,
) -> HistogramBins:
    """One draw of all K per-axis grids; reused for every posterior draw."""
    dom = _domain_array(domain)
    d = dom.shape[0]
    mp = cfg.M_prime
    cuts = np.empty((cfg.K, d, mp + 1))
    for k in range(cfg.K):
        for a in range(d):
            frac = rng.dirichlet(np.full(mp, cfg.alpha_b))
            edges = dom[a, 0] + (dom[a, 1] - dom[a, 0]) * np.concatenate(([0.0], np.cumsum(frac)))
            edges[0] = dom[a, 0]
            edges[-1] = dom[a, 1]
            cuts[k, a] = edges
    return HistogramBins(cuts, dom)


class HistogramDensity:
    """One posterior draw: bin masses per component, evaluated as a density."""

    def __init__(self, bins: HistogramBins, masses: np.ndarray) -> None:
        masses = np.asarray(masses, dtype=np.float64)
        if masses.shape != (bins.K, bins.M):
            raise ValueError(f"masses must have shape {(bins.K, bins.M)}, got {masses.shape}")
        if not np.all(np.isfinite(masses)) or (masses < 0).any():
            raise NumericError("bin masses must be finite and nonnegative")
        self.bins = bins
        self.masses = masses
        self._rho = masses / bins.areas

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Density at each row of X; zero outside the domain."""
        X2 = np.atleast_2d(np.asarray(X, dtype=np.float64))
        scalar = np.asarray(X).ndim == 1
        out = np.zeros(X2.shape[0])
        inside = self.bins.contains(X2)
        if inside.any():
            idx = self.bins.bin_indices(X2[inside])
            acc = np.zeros(int(inside.sum()))
            for k in range(self.bins.K):
                acc += self._rho[k, idx[k]]
            out[inside] = acc / self.bins.K
        return float(out[0]) if scalar else out

    def integral(self) -> float:
        """Exact integral over the domain: the mixture-weighted total mass."""
        return float(self.masses.sum() / self.bins.K)


class HistogramPosterior:
    """Conjugate bin-mass posterior for a fixed bin layout and dataset.

    Component k's bin masses are Dirichlet(dirichlet_params[k]). By the
    Dirichlet's aggregation property, the masses of the bins that hold data,
    in bin order, followed by the total mass of the empty bins, are
    Dirichlet(collapsed_params[k]): the held bins' parameters, then the sum of
    the empty bins' parameters (no extra entry when no bin is empty).
    sample_at_data draws only those K vectors, exactly in law. sample draws
    the same K vectors first, then splits each empty total by a Dirichlet over
    that component's empty bins, which is exact too. So sample_at_data(rng)
    reads a prefix of sample(rng)'s stream, and sample(rng)(points) equals
    sample_at_data(rng) bit for bit.

    data_bin_indices is the (K, n) array bins.bin_indices returned for the
    data, with counts its per-component bincount. It is kept, rewritten in
    place: each entry becomes the point's position among its component's
    held bins.
    """

    def __init__(self, bins: HistogramBins, cfg: HistogramMixtureConfig,
                 counts: np.ndarray, data_bin_indices: np.ndarray) -> None:
        self.bins = bins
        self.cfg = cfg
        self.counts = counts  # (K, M) points per bin
        self.dirichlet_params = counts / cfg.K + cfg.alpha_d * bins.areas / bins.total_area
        self.collapsed_params = []
        self._held_areas = []
        for k, row in enumerate(data_bin_indices):
            held = counts[k] > 0
            params = self.dirichlet_params[k, held]
            if not held.all():
                params = np.append(params, self.dirichlet_params[k, ~held].sum())
            self.collapsed_params.append(params)
            self._held_areas.append(bins.areas[k, held])
            np.take(np.cumsum(held) - 1, row, out=row, mode="clip")  # unbuffered, in place
        self._data_idx = data_bin_indices

    def sample(self, rng: np.random.Generator) -> HistogramDensity:
        collapsed = [rng.dirichlet(params) for params in self.collapsed_params]
        masses = np.empty((self.bins.K, self.bins.M))
        for k, draw in enumerate(collapsed):
            held = self.counts[k] > 0
            masses[k, held] = draw[:self._held_areas[k].size]
            if not held.all():
                masses[k, ~held] = draw[-1] * rng.dirichlet(self.dirichlet_params[k, ~held])
        return HistogramDensity(self.bins, masses)

    def sample_at_data(self, rng: np.random.Generator) -> np.ndarray:
        """One posterior draw evaluated at the fitted data points."""
        K = self.bins.K
        row = np.zeros(self._data_idx.shape[1])
        for k in range(K):
            masses = rng.dirichlet(self.collapsed_params[k])
            rho = masses[:self._held_areas[k].size] / self._held_areas[k]
            row += rho[self._data_idx[k]]
        return row / K


def fit_histogram_posterior(
    data: PointSet,
    bins: HistogramBins,
    cfg: HistogramMixtureConfig,
) -> HistogramPosterior:
    if data.d != bins.d:
        raise ConfigError(f"data has {data.d} axes but bins have {bins.d}")
    inside = bins.contains(data.points)
    if not inside.all():
        offenders = np.flatnonzero(~inside)
        shown = ", ".join(str(i) for i in offenders[:10])
        more = "" if offenders.size <= 10 else f" (+{offenders.size - 10} more)"
        raise ConfigError(f"{offenders.size} data points outside the domain: indices {shown}{more}")
    idx = bins.bin_indices(data.points)
    counts = np.stack([np.bincount(idx[k], minlength=bins.M) for k in range(bins.K)]).astype(np.float64)
    return HistogramPosterior(bins, cfg, counts, idx)


def build_ensemble(
    data: PointSet,
    cfg: HistogramMixtureConfig = HistogramMixtureConfig(),
    S: int = 100,
    seed: int = 0,
) -> DensityDrawEnsemble:
    """S independent posterior density draws evaluated at the data points.

    Deterministic given seed: one RNG stream samples the bin layout, then
    each draw gets its own stream. The draws are split into contiguous
    chunks, one per CPU of the process, filled on threads that end with the
    call; the Dirichlet sampling and the gathers release the GIL, and the
    values do not depend on the number of workers. When the collapsed
    Dirichlet vectors are shorter than _THREADED_MIN_BINS on average, one
    worker fills every draw.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    rngs = spawn_rngs(seed, S + 1)
    domain = cfg.domain if cfg.domain is not None else default_domain(data)
    bins = sample_bins(cfg, domain, rngs[0])
    post = fit_histogram_posterior(data, bins, cfg)
    values = np.empty((S, data.n))

    def fill(lo: int, hi: int) -> None:
        for s in range(lo, hi):
            values[s] = post.sample_at_data(rngs[1 + s])

    width = np.mean([params.size for params in post.collapsed_params])
    workers = min(cpu_count(), S) if width >= _THREADED_MIN_BINS else 1
    ends = [S * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, ends[:-1], ends[1:]))  # re-raises a worker's exception
    return DensityDrawEnsemble(values)


class KdeUniformDensity:
    """Uniform-kernel KDE: ball-count over n times the ball volume."""

    def __init__(self, ps: PointSet, delta: float) -> None:
        if not (delta > 0 and np.isfinite(delta)):
            raise ValueError(f"delta must be positive and finite, got {delta}")
        self.n = ps.n
        self.d = ps.d
        self.delta = float(delta)
        self._tree = cKDTree(ps.points)
        self._norm = ps.n * unit_ball_volume(ps.d) * self.delta ** ps.d

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X2 = np.atleast_2d(np.asarray(X, dtype=np.float64))
        scalar = np.asarray(X).ndim == 1
        counts = self._tree.query_ball_point(X2, self.delta, return_length=True)
        out = np.asarray(counts, dtype=np.float64) / self._norm
        return float(out[0]) if scalar else out


def kde_uniform(ps: PointSet, delta: float) -> KdeUniformDensity:
    return KdeUniformDensity(ps, delta)


class KnnDensity:
    """k-NN density: k over n times the volume of the k-th neighbor ball.

    The k-th nearest dataset point is counted over the whole dataset, so at a
    data point the point itself is its own first neighbor.
    """

    def __init__(self, ps: PointSet, k: int) -> None:
        if not (1 <= k <= ps.n):
            raise ValueError(f"k must be in [1, {ps.n}], got {k}")
        self.n = ps.n
        self.d = ps.d
        self.k = int(k)
        self._tree = cKDTree(ps.points)
        self._norm = ps.n * unit_ball_volume(ps.d)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X2 = np.atleast_2d(np.asarray(X, dtype=np.float64))
        scalar = np.asarray(X).ndim == 1
        dists, _ = self._tree.query(X2, k=self.k)
        dk = dists if self.k == 1 else dists[:, -1]
        dk = np.atleast_1d(np.asarray(dk, dtype=np.float64))
        with np.errstate(divide="ignore"):
            out = self.k / (self._norm * dk ** self.d)
        return float(out[0]) if scalar else out


def knn_density(ps: PointSet, k: int) -> KnnDensity:
    return KnnDensity(ps, k)
