"""Small shared helpers: order-statistic quantiles, seeding, canonical JSON,
the worker count."""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Sequence

import numpy as np

__all__ = [
    "order_statistic_ceil",
    "order_statistic_upper",
    "spawn_rngs",
    "canonical_json",
    "config_hash",
    "cpu_count",
]


def _ceil_count(q: float, n: int) -> int:
    """ceil(q * n) with a guard against float noise on exact integers."""
    x = q * n
    nearest = round(x)
    m = nearest if abs(x - nearest) < 1e-9 else math.ceil(x)
    return min(max(int(m), 1), n)


def order_statistic_ceil(values: Sequence[float], q: float) -> float:
    """m-th smallest value, m = ceil(q * N); the minimal value covering fraction q."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    if vals.size == 0:
        raise ValueError("cannot take an order statistic of an empty sequence")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile level must lie in (0, 1], got {q}")
    return float(vals[_ceil_count(q, vals.size) - 1])


def order_statistic_upper(values: Sequence[float], q: float) -> float:
    """m-th largest value, m = ceil(q * N); the maximal value keeping fraction q at or above."""
    vals = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    if vals.size == 0:
        raise ValueError("cannot take an order statistic of an empty sequence")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile level must lie in (0, 1], got {q}")
    return float(vals[_ceil_count(q, vals.size) - 1])


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent, reproducible per-unit RNG streams derived from one seed."""
    seq = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in seq.spawn(count)]


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    """Stable sha256 hex digest of a JSON-serializable config."""
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def cpu_count() -> int:
    """CPUs this process may run on: the worker count of every threaded stage."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
