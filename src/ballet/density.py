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
no variate is drawn for an empty bin. Those K Dirichlet draws are made as
numpy makes them, variate for variate and bit for bit, but in a few long
calls: one standard_gamma call per block of components, each block's rows
scaled by the reciprocal of their sequential sums; only a component that
numpy draws by stick-breaking keeps a dirichlet call of its own. The points
are binned once, by one sorted lookup per axis shared by all K components,
and build_ensemble fills the S draws on one thread per CPU of the process
when the collapsed vectors are long enough for threads to pay, each draw
from its own RNG stream, so the values are the same for any number of
workers.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DataIOError, NumericError
from .levelset import PointSet, _knn_distance_at, _read_rows, _write_rows, unit_ball_volume
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
# thread gains too little to be sure of. With the blocked draw, on 2 CPUs,
# two threads against one, 10 alternating pairs each: ladder_small's model
# (K = 30, S = 30, n = 250) took 0.86-0.97x at mean width 73-77, 0.91-0.92x
# at 81-84 and 1.02x at 89.7, faster in only 5-8 of 10, but 0.84-0.88x at
# 91.3 and 91.4 (9/10, 10/10); sky surveys (default model, S = 100) took
# 0.70x at 87 (n = 90, 10/10), 0.81x at 97 (9/10), 0.78x at 103 and 0.70x
# at 114 (10/10), and 0.57-0.76x from 143 to 1195 (n = 150-2000, 10/10 in
# every run but one of 7/10 at 230). ladder_small's widths are 71-91 on
# seeds 707-710 and 71-87 on its default seed, so it runs mostly serially.
_THREADED_MIN_BINS = 90

# Entries of one standard_gamma call in a posterior draw (as many padded rows
# of collapsed parameters as fit, at least one), and about as many of one
# gather of densities at the points. Against one dirichlet call per component,
# on 2 CPUs, interleaved rounds: desk ensembles (n = 2000, default model,
# S = 100) on two threads took 1.09x the time at 2^13, 0.85x at 2^14, 0.84x
# at 2^15 and 0.74x at 2^16 (12 rounds each); on one thread (8 rounds each)
# desk took 1.03x, 0.95x, 1.05x and 1.03x at 2^14, 2^15, 2^16 and 2^17, and
# survey (n = 40 000) 1.07x, 1.02x, 0.99x and 1.09x. Each bound ran at its
# own time on a shared machine, so bounds compare only roughly.
_GAMMA_BLOCK = 2 ** 15


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

    The collapsed vectors are the rows of one (K, W) matrix, zero-padded to
    the longest length W, and collapsed_params[k] is a view of row k; the
    held bins' areas are a second (K, W) matrix, padded with ones. numpy
    draws a Dirichlet whose largest parameter is 0.1 or more as standard
    gammas scaled by 1 / (their sequential sum), and a zero shape gives 0.0
    from no variate. So a run of such components is drawn in blocks of
    padded rows of at most _GAMMA_BLOCK entries, one standard_gamma call per
    block, each row scaled by the reciprocal of its sequential sum: the same
    variates and the same arithmetic as one dirichlet call per component,
    in a few long calls that release the GIL. A component whose parameters
    are all below 0.1, which numpy draws by stick-breaking, is a block of its
    own, drawn by its own dirichlet call at its place in the stream.

    data_bin_indices is the (K, n) array bins.bin_indices returned for the
    data, with counts its per-component bincount. It is kept, rewritten in
    place: each entry becomes the point's flat position in its component's
    block, its held bin's position plus W times the component's row in the
    block, so one take gathers the densities of several components.
    """

    def __init__(self, bins: HistogramBins, cfg: HistogramMixtureConfig,
                 counts: np.ndarray, data_bin_indices: np.ndarray) -> None:
        self.bins = bins
        self.cfg = cfg
        self.counts = counts  # (K, M) points per bin
        self.dirichlet_params = counts / cfg.K + cfg.alpha_d * bins.areas / bins.total_area
        held = counts > 0
        self._held_counts = np.count_nonzero(held, axis=1)
        lengths = self._held_counts + (self._held_counts < bins.M)
        self._params = np.zeros((bins.K, lengths.max()))
        self._areas = np.ones_like(self._params)
        for k, row in enumerate(data_bin_indices):
            h = self._held_counts[k]
            self._params[k, :h] = self.dirichlet_params[k, held[k]]
            if h < bins.M:
                self._params[k, h] = self.dirichlet_params[k, ~held[k]].sum()
            self._areas[k, :h] = bins.areas[k, held[k]]
            np.take(np.cumsum(held[k]) - 1, row, out=row, mode="clip")  # unbuffered, in place
        self.collapsed_params = [params[:size] for params, size in zip(self._params, lengths)]
        K, W = self._params.shape
        rows = max(1, _GAMMA_BLOCK // W)
        self._blocks = []  # (first component, end, drawn by stick-breaking)
        lo = 0
        for stick in [k for k, params in enumerate(self.collapsed_params) if params.max() < 0.1] + [K]:
            self._blocks += [(k, min(k + rows, stick), False) for k in range(lo, stick, rows)]
            if stick < K:
                self._blocks.append((stick, stick + 1, True))
            lo = stick + 1
        for k0, k1, _ in self._blocks:
            data_bin_indices[k0:k1] += (W * np.arange(k1 - k0))[:, None]
        self._data_idx = data_bin_indices

    def _collapsed_draws(self, rng: np.random.Generator):
        """Yield (k, draws) per block: the collapsed draws of components k,
        k + 1, ..., one per row, in stream order. A gamma block's rows are
        zero-padded to W; a stick-breaking component's row has its own length."""
        for k0, k1, stick in self._blocks:
            if stick:
                yield k0, rng.dirichlet(self.collapsed_params[k0])[None]
                continue
            g = rng.standard_gamma(self._params[k0:k1])
            # each row's entries added in order, as numpy's dirichlet adds them
            # (a sum along a row would be pairwise)
            g *= 1.0 / np.cumsum(g, axis=1)[:, -1:]
            yield k0, g

    def sample(self, rng: np.random.Generator) -> HistogramDensity:
        collapsed = [draw for _, draws in self._collapsed_draws(rng) for draw in draws]
        masses = np.empty((self.bins.K, self.bins.M))
        for k, draw in enumerate(collapsed):
            held = self.counts[k] > 0
            h = self._held_counts[k]
            masses[k, held] = draw[:h]
            if h < self.bins.M:
                masses[k, ~held] = draw[h] * rng.dirichlet(self.dirichlet_params[k, ~held])
        return HistogramDensity(self.bins, masses)

    def sample_at_data(self, rng: np.random.Generator) -> np.ndarray:
        """One posterior draw evaluated at the fitted data points.

        The densities of about _GAMMA_BLOCK / n components are gathered by
        one take, below the running sum, and added to it in component order
        by one sum down the columns, so the sum is the same as one component
        at a time. A single point is gathered one component at a time: a sum
        down one column would be pairwise."""
        n = self._data_idx.shape[1]
        rows = max(_GAMMA_BLOCK, 2 * n) // n - 1 if n > 1 else 1
        stack = np.empty((rows + 1, n))  # the running sum, then the densities
        row = np.zeros(n)
        for k0, draws in self._collapsed_draws(rng):
            draws /= self._areas[k0:k0 + len(draws), :draws.shape[1]]
            flat = draws.ravel()
            for k in range(k0, k0 + len(draws), rows):
                m = min(rows, k0 + len(draws) - k)
                np.take(flat, self._data_idx[k:k + m], out=stack[1:m + 1], mode="clip")  # unbuffered
                if m == 1:
                    row += stack[1]
                else:
                    stack[0] = row
                    np.add.reduce(stack[:m + 1], axis=0, out=row)  # row after row, in order
        return row / self.bins.K


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
    call; a draw is a few long numpy calls (a standard_gamma call per block
    of components, its scaling, and gathers of many components at once),
    which release the GIL, and the values do not depend on the number of
    workers. When the collapsed Dirichlet vectors are shorter than
    _THREADED_MIN_BINS on average, one worker fills every draw.
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
        dk = _knn_distance_at(self._tree, X2, self.k)
        with np.errstate(divide="ignore"):
            out = self.k / (self._norm * dk ** self.d)
        return float(out[0]) if scalar else out


def knn_density(ps: PointSet, k: int) -> KnnDensity:
    return KnnDensity(ps, k)
