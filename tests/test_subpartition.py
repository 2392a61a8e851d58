"""Tests for sub-partitions, the IA-Binder loss, and their enumeration."""

from __future__ import annotations

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballet.subpartition import (
    DEFAULT_LOSS_PARAMS,
    LossParams,
    NonMetricParamsWarning,
    SubPartition,
    enumerate_subpartitions,
    ia_binder_loss,
    pairwise_penalty_sum,
    rescaled_distance,
)
from ballet.subpartition import _canonical_labels
from ballet.util import canonical_json
from oracles import oracle_canonical_labels, oracle_ia_binder_loss, oracle_pairwise_penalties, random_subpartition

labels_strategy = st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=14)


# -- canonical form, equality, serialization --------------------------------


def test_canonical_first_occurrence_renumbering():
    sp = SubPartition([0, 7, 7, 3, 0, 9])
    assert sp.labels == (0, 1, 1, 2, 0, 3)
    assert sp.k == 3
    assert sp.n == 6


def test_equality_ignores_cluster_names():
    assert SubPartition([2, 2, 0, 5]) == SubPartition([1, 1, 0, 2])
    assert hash(SubPartition([2, 2, 0, 5])) == hash(SubPartition([1, 1, 0, 2]))
    assert SubPartition([1, 1, 0]) != SubPartition([1, 2, 0])


def test_negative_labels_rejected():
    with pytest.raises(ValueError):
        SubPartition([0, -1, 2])


def test_active_noise_indices():
    sp = SubPartition([0, 1, 0, 2, 2])
    assert np.flatnonzero(sp.labels_array).tolist() == [1, 3, 4]
    assert np.flatnonzero(sp.labels_array == 0).tolist() == [0, 2]
    assert sp.labels_array.any()
    assert SubPartition.all_noise(3).labels == (0, 0, 0)
    assert [np.flatnonzero(sp.labels_array == h).tolist() for h in range(1, sp.k + 1)] == [[1], [3, 4]]


@given(labels_strategy)
def test_pickle_and_deepcopy_round_trip(labels):
    """Pickle and copy rebuild a SubPartition from its canonical array, past
    the immutability guard: an equal object with an equal hash."""
    sp = SubPartition([v * 3 for v in labels])
    for other in (pickle.loads(pickle.dumps(sp)), copy.deepcopy(sp), copy.copy(sp)):
        assert type(other) is SubPartition
        assert other == sp and hash(other) == hash(sp)
        assert other.labels == sp.labels
    with pytest.raises(AttributeError, match="immutable"):
        pickle.loads(pickle.dumps(sp))._array = None


@given(labels_strategy)
def test_canonicalization_idempotent(labels):
    sp = SubPartition(labels)
    assert SubPartition(sp.labels) == sp


raw_label_strategy = st.one_of(
    st.integers(min_value=-3, max_value=2**40),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 7.0, 1.5, -1.0, -2.5, math.nan, math.inf, -math.inf]),
)


@given(st.lists(raw_label_strategy, max_size=14), st.booleans())
def test_canonical_labels_match_loop_oracle(labels, as_array):
    raw = np.asarray(labels) if as_array else labels

    def outcome(canonical):
        try:
            return tuple(int(v) for v in canonical(raw))
        except (ValueError, OverflowError) as exc:
            return type(exc), str(exc)

    assert outcome(_canonical_labels) == outcome(oracle_canonical_labels)


def test_non_numeric_labels_rejected():
    for bad in (["1", "2"], [None, 1], [[1, 2], [3, 4]], [1 + 2j]):
        with pytest.raises(ValueError):
            SubPartition(bad)


@given(labels_strategy)
def test_json_roundtrip(labels):
    sp = SubPartition(labels)
    assert SubPartition.from_json_dict(json.loads(canonical_json(sp.to_json_dict()))) == sp


def test_csv_roundtrip(tmp_path):
    sp = SubPartition([0, 1, 1, 2, 0, 3, 3, 3])
    path = tmp_path / "sp.csv"
    sp.to_csv(path)
    assert SubPartition.from_csv(path) == sp
    assert path.read_text() == "0\n1\n1\n2\n0\n3\n3\n3\n"


def test_json_shape_errors():
    with pytest.raises(ValueError):
        SubPartition.from_json_dict(json.loads('{"n": 3, "labels": [0, 1]}'))
    with pytest.raises(ValueError):
        SubPartition.from_json_dict({"labels": [0, 1]})


# -- loss params -------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        LossParams(a=0.0)
    with pytest.raises(ValueError):
        LossParams(m_ia=-0.5)
    with pytest.raises(ValueError):
        LossParams(b=float("nan"))


def test_metric_mode_detection():
    assert DEFAULT_LOSS_PARAMS.is_metric
    assert LossParams(a=0.8, b=0.8, m_ai=0.4, m_ia=0.4).is_metric
    assert not LossParams(a=1.0, b=2.0, m_ai=0.5, m_ia=0.5).is_metric  # a != b
    assert not LossParams(a=1.0, b=1.0, m_ai=0.25, m_ia=0.25).is_metric  # a > 2m
    assert not LossParams(a=1.0, b=1.0, m_ai=0.5, m_ia=0.75).is_metric  # m_ai != m_ia


# -- IA-Binder loss ----------------------------------------------------------


def test_loss_identity_is_zero():
    sp = SubPartition([0, 1, 1, 2])
    assert ia_binder_loss(sp, sp) == 0.0


def test_loss_hand_example_n3():
    # x1,x2 clustered together vs apart; x3 noise in both; defaults
    c1 = SubPartition([1, 1, 0])
    c2 = SubPartition([1, 2, 0])
    assert ia_binder_loss(c1, c2) == 1.0
    assert rescaled_distance(c1, c2) == pytest.approx(1.0 / 3.0)


def test_loss_hand_example_n2_activity():
    # one point flips activity: (n-1) * m = 1 * 0.5
    c1 = SubPartition([1, 1])
    c2 = SubPartition([1, 0])
    assert ia_binder_loss(c1, c2) == 0.5
    assert ia_binder_loss(c2, c1) == 0.5


def test_loss_asymmetric_params():
    c1 = SubPartition([1, 0, 0])  # point 0 active
    c2 = SubPartition([0, 0, 0])
    p = LossParams(a=1.0, b=1.0, m_ai=0.25, m_ia=0.75)
    # point 0: active -> inactive, charged (n-1) * m_ai
    assert ia_binder_loss(c1, c2, p) == 2 * 0.25
    assert ia_binder_loss(c2, c1, p) == 2 * 0.75


def test_loss_matches_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        c1 = random_subpartition(rng, n)
        c2 = random_subpartition(rng, n)
        expect = oracle_ia_binder_loss(c1.labels, c2.labels)
        assert ia_binder_loss(c1, c2) == expect  # halves arithmetic, exact


def test_loss_matches_oracle_asymmetric_params():
    rng = np.random.default_rng(8)
    p = LossParams(a=0.75, b=0.25, m_ai=0.5, m_ia=1.0)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        c1 = random_subpartition(rng, n)
        c2 = random_subpartition(rng, n)
        expect = oracle_ia_binder_loss(c1.labels, c2.labels, a=0.75, b=0.25, m_ai=0.5, m_ia=1.0)
        assert ia_binder_loss(c1, c2, p) == pytest.approx(expect, abs=1e-12)


def test_loss_length_mismatch():
    with pytest.raises(ValueError):
        ia_binder_loss(SubPartition([1, 0]), SubPartition([1, 0, 0]))


@given(labels_strategy.filter(lambda ls: len(ls) >= 2), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_loss_invariant_under_item_permutation(labels, rnd):
    rng = np.random.default_rng(rnd.randrange(2**32))
    c1 = SubPartition(labels)
    c2 = random_subpartition(rng, len(labels))
    perm = rng.permutation(len(labels))
    c1p = SubPartition(np.asarray(c1.labels)[perm])
    c2p = SubPartition(np.asarray(c2.labels)[perm])
    assert ia_binder_loss(c1, c2) == ia_binder_loss(c1p, c2p)


def test_rescaled_bounds_and_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        c1 = random_subpartition(rng, n)
        c2 = random_subpartition(rng, n)
        d = rescaled_distance(c1, c2)
        assert 0.0 <= d <= 1.0
        assert d == rescaled_distance(c2, c1)
        assert (d == 0.0) == (c1 == c2)


def test_rescaled_warns_outside_metric_mode():
    c1 = SubPartition([1, 0])
    c2 = SubPartition([0, 1])
    with pytest.warns(NonMetricParamsWarning):
        rescaled_distance(c1, c2, LossParams(a=1.0, b=2.0))


# -- per-pair penalty representation ----------------------------------------


def test_penalties_hand_example_n3():
    c1 = SubPartition([1, 1, 0])
    c2 = SubPartition([1, 2, 0])
    phi = oracle_pairwise_penalties(c1, c2)
    iu = np.triu_indices(3, 1)
    assert phi[iu].tolist() == [1.0, 0.0, 0.0]
    assert pairwise_penalty_sum(c1, c2) == 1.0


def test_penalty_values_in_allowed_set():
    rng = np.random.default_rng(5)
    p = LossParams(a=0.8, b=0.8, m_ai=0.45, m_ia=0.45)
    allowed = {0.0, p.a, p.m_ai, 2 * p.m_ai}
    for _ in range(50):
        n = int(rng.integers(2, 10))
        c1 = random_subpartition(rng, n)
        c2 = random_subpartition(rng, n)
        phi = oracle_pairwise_penalties(c1, c2, p)
        assert np.allclose(phi, phi.T)
        assert set(np.round(phi[np.triu_indices(n, 1)], 12).tolist()) <= allowed


def test_penalty_sum_equals_loss_bitexact():
    rng = np.random.default_rng(13)
    param_sets = [
        DEFAULT_LOSS_PARAMS,
        LossParams(a=1.0, b=1.0, m_ai=1.0, m_ia=1.0),
        LossParams(a=0.7, b=0.7, m_ai=0.6, m_ia=0.6),  # non-dyadic on purpose
        LossParams(a=0.3, b=0.3, m_ai=0.9, m_ia=0.9),
    ]
    for _ in range(200):
        n = int(rng.integers(2, 13))
        c1 = random_subpartition(rng, n)
        c2 = random_subpartition(rng, n)
        for p in param_sets:
            assert pairwise_penalty_sum(c1, c2, p) == ia_binder_loss(c1, c2, p)


def test_penalty_matrix_sums_to_loss():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        c1 = random_subpartition(rng, n)
        c2 = random_subpartition(rng, n)
        phi = oracle_pairwise_penalties(c1, c2)
        total = float(phi[np.triu_indices(n, 1)].sum())
        assert total == ia_binder_loss(c1, c2)  # dyadic defaults: exact


def test_penalties_require_metric_shape():
    with pytest.raises(ValueError):
        pairwise_penalty_sum(SubPartition([1]), SubPartition([1]), LossParams(a=1.0, b=2.0))


# -- enumeration -------------------------------------------------------------


def test_enumeration_counts_are_bell_shifted():
    # Bell(n+1): 2, 5, 15, 52 for n = 1..4
    for n, count in [(0, 1), (1, 2), (2, 5), (3, 15), (4, 52)]:
        got = list(enumerate_subpartitions(n))
        assert len(got) == count
        assert len(set(got)) == count  # all distinct


def test_enumeration_n3_contents():
    got = set(enumerate_subpartitions(3))
    assert SubPartition([0, 0, 0]) in got
    assert SubPartition([1, 1, 1]) in got
    assert SubPartition([1, 2, 3]) in got
    assert SubPartition([0, 1, 1]) in got
    for sp in got:
        assert sp.n == 3


def test_enumeration_rejects_negative():
    with pytest.raises(ValueError):
        list(enumerate_subpartitions(-1))
