"""Seeded input generators owned by the benchmark.

These are copies of the two synthetic mixtures the workloads need, so that an
edit to ``ballet.bench`` cannot change what the benchmark feeds the program.
They return plain numpy arrays; the workloads wrap them in ``PointSet``.
"""

from __future__ import annotations

import numpy as np


def seeds_for(workload: str, seed: int, count: int) -> list[int]:
    """``count`` independent integer seeds derived from (workload, seed)."""
    tag = int.from_bytes(workload.encode("ascii"), "little") % (2**32)
    state = np.random.SeedSequence([tag, seed]).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


def sky_survey(
    n: int,
    n_components: int,
    noise_mass: float,
    sky_seed: int,
    seed: int,
    weight_concentration: float = 0.5,
    variance_shape: float = 5.0,
    variance_scale: float = 0.0005,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform background on the unit square plus isotropic Gaussian components.

    ``sky_seed`` draws the mixture itself (Dirichlet weights, uniform means,
    inverse-gamma variances) and ``seed`` draws the n points from it, so one
    workload keeps one sky while each seed surveys it afresh. Draws that land
    outside the square are rejected and redrawn from the full mixture.
    Returns (points, component means); the means are the detection targets.
    """
    sky = np.random.default_rng(sky_seed)
    K = n_components
    weights = sky.dirichlet(np.full(K, weight_concentration))
    means = sky.uniform(0.0, 1.0, size=(K, 2))
    sds = np.sqrt(variance_scale / sky.gamma(variance_shape, 1.0, size=K))
    mix = np.concatenate(([noise_mass], (1.0 - noise_mass) * weights))
    mix /= mix.sum()

    rng = np.random.default_rng(seed)
    points = np.empty((n, 2))
    filled = 0
    while filled < n:
        m = n - filled
        comp = rng.choice(K + 1, size=m, p=mix)
        x = rng.uniform(0.0, 1.0, size=(m, 2))
        g = comp[comp > 0] - 1
        x[comp > 0] = means[g] + rng.normal(size=(g.size, 2)) * sds[g][:, None]
        x = x[np.all((x >= 0.0) & (x <= 1.0), axis=1)]
        points[filled : filled + len(x)] = x
        filled += len(x)
    return points, means


TWO_GAUSSIAN_CENTERS = np.array([[-2.0, 0.0], [2.0, 0.0]])
TWO_GAUSSIAN_SD = 0.5


def two_gaussians(n: int, seed: int) -> np.ndarray:
    """Equal-weight mixture of two isotropic Gaussians four units apart."""
    rng = np.random.default_rng(seed)
    comp = rng.integers(0, 2, n)
    return TWO_GAUSSIAN_CENTERS[comp] + rng.normal(0.0, TWO_GAUSSIAN_SD, (n, 2))
