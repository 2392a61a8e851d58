"""Sub-partitions with a noise set, the IA-Binder loss, and their enumeration.

A sub-partition of items 0..n-1 assigns each item either to the noise set
(label 0) or to one of k clusters (labels 1..k). Two sub-partitions are equal
when they have the same active set and induce the same grouping on it; the
canonical form renumbers clusters by first occurrence, so equality and hashing
reduce to equality of the canonical label arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "SubPartition",
    "LossParams",
    "DEFAULT_LOSS_PARAMS",
    "NonMetricParamsWarning",
    "ia_binder_loss",
    "rescaled_distance",
    "pairwise_penalty_sum",
    "enumerate_subpartitions",
]


class NonMetricParamsWarning(UserWarning):
    """Raised as a warning when a distance is requested outside metric mode."""


@dataclass(frozen=True)
class LossParams:
    """Penalty weights for the IA-Binder loss.

    a: penalty for a pair clustered together in the first argument but apart
       in the second; b: the reverse. m_ai: per-pair penalty for a point active
       in the first argument but inactive in the second; m_ia: the reverse.
    Metric mode (symmetric a = b <= 1, m_ai = m_ia <= 1, a <= 2m) is what makes
    the rescaled distance a true metric.
    """

    a: float = 1.0
    b: float = 1.0
    m_ai: float = 0.5
    m_ia: float = 0.5

    def __post_init__(self) -> None:
        for name in ("a", "b", "m_ai", "m_ia"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"LossParams.{name} must be a positive finite real, got {v!r}")
            object.__setattr__(self, name, v)

    @property
    def is_metric(self) -> bool:
        return (
            self.a == self.b
            and self.m_ai == self.m_ia
            and 0.0 < self.a <= 1.0
            and self.m_ai <= 1.0
            and self.a <= 2.0 * self.m_ai
        )


DEFAULT_LOSS_PARAMS = LossParams()


def _canonical_labels(labels: Iterable[int]) -> np.ndarray:
    """Labels renumbered 1, 2, ... by first occurrence, 0 kept as noise."""
    raw = labels if isinstance(labels, np.ndarray) else list(labels)
    arr = np.asarray(raw)
    if arr.ndim != 1 or arr.dtype.kind not in "biuf":
        raise ValueError(f"labels must be a flat sequence of integers, got {arr.dtype} of shape {arr.shape}")
    bad = arr < 0
    if arr.dtype.kind == "f":
        bad |= ~np.isfinite(arr) | (arr != np.floor(arr))
    if bad.any():
        # report the first offending label as a per-element int() check would
        v = raw[int(np.argmax(bad))]
        if int(v) != v:
            raise ValueError(f"labels must be integers, got {v!r}")
        raise ValueError(f"labels must be >= 0 (0 = noise), got {int(v)}")
    out = np.zeros(arr.shape, dtype=np.int64)
    active = np.flatnonzero(arr)
    values, first, inverse = np.unique(arr[active], return_index=True, return_inverse=True)
    rank = np.empty(values.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(1, values.size + 1)
    out[active] = rank[inverse]
    return out


class SubPartition:
    """Immutable allocation vector; 0 = noise, 1..k = clusters (canonical order).

    The canonical int64 label array is the one representation; the labels
    tuple, and the hash of the array's bytes, are computed when asked for.
    """

    __slots__ = ("_array",)

    def __init__(self, labels: Iterable[int]):
        arr = _canonical_labels(labels)
        arr.setflags(write=False)
        object.__setattr__(self, "_array", arr)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("SubPartition is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the canonical array, past the guard
        return (type(self), (self._array,))

    @classmethod
    def all_noise(cls, n: int) -> "SubPartition":
        return cls(np.zeros(n, dtype=np.int64))

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(self._array.tolist())

    @property
    def labels_array(self) -> np.ndarray:
        return self._array

    @property
    def n(self) -> int:
        return self._array.size

    @property
    def k(self) -> int:
        return int(self._array.max(initial=0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubPartition):
            return NotImplemented
        return np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash(self._array.tobytes())

    def __repr__(self) -> str:
        return f"SubPartition({self._array.tolist()!r})"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "labels": self._array.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SubPartition":
        if not isinstance(obj, dict) or "n" not in obj or "labels" not in obj:
            raise ValueError("sub-partition JSON must have keys 'n' and 'labels'")
        labels = obj["labels"]
        if int(obj["n"]) != len(labels):
            raise ValueError(f"declared n={obj['n']} does not match {len(labels)} labels")
        return cls(labels)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(f"{v}\n" for v in self._array.tolist()))

    @classmethod
    def from_csv(cls, path) -> "SubPartition":
        with open(path, "r", encoding="ascii") as fh:
            rows = [line.strip() for line in fh if line.strip() != ""]
        return cls([int(r) for r in rows])


# -- IA-Binder loss ---------------------------------------------------------


def _check_same_n(c1: SubPartition, c2: SubPartition) -> None:
    if c1.n != c2.n:
        raise ValueError(f"sub-partitions over different item counts: {c1.n} != {c2.n}")


def _pairs(counts: np.ndarray) -> int:
    """Number of unordered pairs within groups of the given sizes."""
    return int((counts * (counts - 1) // 2).sum())


def _pair_disagreement_counts(g1: np.ndarray, g2: np.ndarray) -> tuple[int, int]:
    """Counts over pairs active in both: (together in 1 / apart in 2, apart in 1 / together in 2).

    Contingency-table arithmetic keeps this O(n): pairs co-clustered in one
    labeling are sums of C(size, 2) over its clusters, and pairs co-clustered
    in both are the same sums over the joint cells. All counts are exact ints.
    """
    if g1.size < 2:
        return 0, 0
    s1 = _pairs(np.bincount(g1))
    s2 = _pairs(np.bincount(g2))
    k2 = int(g2.max()) + 1
    joint = g1.astype(np.int64) * k2 + g2
    s12 = _pairs(np.bincount(joint))
    return s1 - s12, s2 - s12


def ia_binder_loss(c1: SubPartition, c2: SubPartition, p: LossParams = DEFAULT_LOSS_PARAMS) -> float:
    """IA-Binder loss between two sub-partitions of the same n items.

    Activity mismatches cost (n-1)*m_ai (active -> inactive) or (n-1)*m_ia
    (inactive -> active) per point; pairs active in both cost a when split and
    b when merged relative to the first argument. n = 1 is degenerate (always 0).
    """
    _check_same_n(c1, c2)
    n = c1.n
    if n == 0:
        return 0.0
    l1 = c1.labels_array
    l2 = c2.labels_array
    a1 = l1 != 0
    a2 = l2 != 0
    cnt_ai = int(np.count_nonzero(a1 & ~a2))
    cnt_ia = int(np.count_nonzero(~a1 & a2))
    both = a1 & a2
    c_split, c_merge = _pair_disagreement_counts(l1[both], l2[both])
    return _weighted_loss(n, cnt_ai, cnt_ia, c_split, c_merge, p)


def _weighted_loss(n: int, cnt_ai: int, cnt_ia: int, c_split: int, c_merge: int, p: LossParams) -> float:
    """The IA-Binder loss over n items from its four integer counts.

    Every loss value goes through this one float expression, so a caller that
    tracks the counts incrementally gets bit-identical distances.
    """
    if p.m_ai == p.m_ia and p.a == p.b:
        # single-rounding form; bit-identical to pairwise_penalty_sum
        return p.m_ai * float((n - 1) * (cnt_ai + cnt_ia)) + p.a * float(c_split + c_merge)
    return (
        p.m_ai * float((n - 1) * cnt_ai)
        + p.m_ia * float((n - 1) * cnt_ia)
        + p.a * float(c_split)
        + p.b * float(c_merge)
    )


def rescaled_distance(c1: SubPartition, c2: SubPartition, p: LossParams = DEFAULT_LOSS_PARAMS) -> float:
    """Loss divided by C(n, 2); a metric on sub-partitions in metric mode.

    Outside metric mode the value is still returned but a
    NonMetricParamsWarning is issued: symmetry or the triangle inequality may
    fail. n < 2 returns 0.0 (no pairs to compare).
    """
    if not p.is_metric:
        warnings.warn(
            "loss parameters are outside metric mode; rescaled value is not a metric",
            NonMetricParamsWarning,
            stacklevel=2,
        )
    _check_same_n(c1, c2)
    n = c1.n
    if n < 2:
        return 0.0
    return ia_binder_loss(c1, c2, p) / float(n * (n - 1) // 2)


def pairwise_penalty_sum(c1: SubPartition, c2: SubPartition, p: LossParams = DEFAULT_LOSS_PARAMS) -> float:
    """Sum of per-pair penalties over i < j; equals ia_binder_loss bit-exactly.

    Summed by integer class counts (how many pairs incur m, 2m, and a), then
    combined with one multiplication per class, so no float accumulation order
    can make it drift from the closed-form loss.
    """
    if not (p.a == p.b and p.m_ai == p.m_ia):
        raise ValueError("pairwise penalties require metric-mode parameters (a == b, m_ai == m_ia)")
    _check_same_n(c1, c2)
    n = c1.n
    if n < 2:
        return 0.0
    l1 = c1.labels_array
    l2 = c2.labels_array
    a1 = l1 != 0
    a2 = l2 != 0
    n_mismatch = int(np.count_nonzero(a1 != a2))
    # each mismatched endpoint is charged m in n-1 pairs
    m_incidences = (n - 1) * n_mismatch
    both = a1 & a2
    c_split, c_merge = _pair_disagreement_counts(l1[both], l2[both])
    # pairs inactive in both on both sides have equal relation; mixed pairs are
    # excluded by the consistency indicator, so a-pairs reduce to the active ones
    return p.m_ai * float(m_incidences) + p.a * float(c_split + c_merge)


# -- enumeration ------------------------------------------------------------


def enumerate_subpartitions(n: int) -> Iterator[SubPartition]:
    """All sub-partitions of n items, in restricted-growth order; Bell(n+1) of them.

    Sub-partitions of n items biject with set partitions of n+1 items where an
    anchor item marks the noise block, so the enumeration walks restricted
    growth strings of length n+1 with the anchor first. Yielded labels are
    already canonical.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield SubPartition([])
        return
    rgs = [0] * (n + 1)

    def rec(i: int, top: int) -> Iterator[SubPartition]:
        if i == n + 1:
            yield SubPartition(rgs[1:])
            return
        for v in range(top + 2):
            rgs[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)
