"""CLI integration tests: subcommands, overrides, determinism, exit codes."""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ballet.bench as bench_mod
import ballet.levels as levels_mod
import ballet.levelset as levelset_mod
import ballet.risk as risk_mod
from ballet import cli
from ballet.bench import EVAL_SCHEMA, STUDY_SCHEMA, generate_two_moons
from ballet.cli import RunConfig, load_run_config, main
from ballet.density import DensityDrawEnsemble, HistogramMixtureConfig
from ballet.errors import BalletError
from ballet.levelset import AdaptiveDeltaConfig, PointSet
from ballet.risk import SearchConfig
from ballet.subpartition import LossParams, SubPartition
from pools import die_in_a_worker, no_child_left


def write_config(path, **overrides):
    cfg = {
        "data": None,
        "model": {"K": 20, "M_prime": 25, "S": 60},
        "level": {"nu": 0.10},
        "delta": {"adaptive": {}},
        "seed": 4,
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def moons_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("moons_data")
    generate_two_moons(300, 0.1, seed=1).to_csv(d / "points.csv")
    return d


@pytest.fixture(scope="module")
def moons_cfg(moons_dir):
    return write_config(moons_dir / "cfg.json", data=str(moons_dir / "points.csv"))


@pytest.fixture(scope="module")
def estimate_payload(moons_dir, moons_cfg):
    out = moons_dir / "run_estimate"
    rc = main(["cluster", "--config", str(moons_cfg), "--out", str(out)])
    assert rc == 0
    return json.loads((out / "estimate.json").read_text())


def non_singleton_count(labels):
    sizes = np.bincount(np.asarray(labels))
    return int(np.count_nonzero(sizes[1:] >= 2))


# ---------------------------------------------------------------------------
# cluster


def test_cluster_two_moons_two_clusters(estimate_payload):
    d = estimate_payload
    assert d["schema"] == "ballet/estimate/v1"
    labels = d["clustering"]["labels"]
    assert len(labels) == 300
    assert non_singleton_count(labels) == 2
    assert d["n_clusters"] >= 2
    assert d["lambda"] > 0 and d["delta"] > 0
    assert np.isfinite(d["risk"])
    assert d["level"] == {"nu": 0.10}
    alpha = np.asarray(d["alpha_hat"])
    assert alpha.shape == (300,) and np.all((alpha >= 0) & (alpha <= 1))


def test_cluster_provenance_block(estimate_payload):
    prov = estimate_payload["provenance"]
    assert len(prov["config_hash"]) == 64
    assert prov["seed"] == 4
    for key in ("ballet", "python", "numpy", "scipy"):
        assert key in prov["versions"]


def test_cluster_byte_identical_rerun(moons_dir, moons_cfg):
    out_a, out_b = moons_dir / "rerun_a", moons_dir / "rerun_b"
    assert main(["cluster", "--config", str(moons_cfg), "--out", str(out_a)]) == 0
    assert main(["cluster", "--config", str(moons_cfg), "--out", str(out_b)]) == 0
    assert (out_a / "estimate.json").read_bytes() == (out_b / "estimate.json").read_bytes()


def test_flag_overrides(moons_dir, moons_cfg):
    out = moons_dir / "override"
    rc = main(["cluster", "--config", str(moons_cfg), "--out", str(out),
               "--lambda", "0.25", "--seed", "9"])
    assert rc == 0
    d = json.loads((out / "estimate.json").read_text())
    assert d["level"] == {"lambda": 0.25}
    assert d["lambda"] == 0.25
    assert d["provenance"]["seed"] == 9


def test_flags_only_uses_default_model_and_writes_labels(moons_dir):
    out = moons_dir / "flags_only"
    rc = main(["cluster", "--data", str(moons_dir / "points.csv"),
               "--nu", "0.10", "--seed", "4", "--out", str(out)])
    assert rc == 0
    d = json.loads((out / "estimate.json").read_text())
    labels = SubPartition.from_csv(out / "estimate_labels.csv")
    assert labels.labels == tuple(d["clustering"]["labels"])
    assert labels.n == 300


def test_fixed_delta_flag(moons_dir, moons_cfg):
    out = moons_dir / "fixed_delta"
    rc = main(["cluster", "--config", str(moons_cfg), "--out", str(out), "--delta", "0.3"])
    assert rc == 0
    d = json.loads((out / "estimate.json").read_text())
    assert d["delta"] == 0.3


# ---------------------------------------------------------------------------
# exit codes


def test_config_errors_exit_2(moons_dir, moons_cfg, tmp_path):
    data = str(moons_dir / "points.csv")
    assert main(["cluster", "--config", str(moons_cfg), "--lambda", "1.0", "--nu", "0.5"]) == 2
    assert main(["cluster", "--data", data]) == 2  # no level given
    assert main(["cluster", "--config", str(moons_cfg), "--delta", "0.1", "--k", "3"]) == 2
    two_levels = tmp_path / "two_levels.json"
    two_levels.write_text(json.dumps({"data": data, "model": {}, "level": {"nu": 0.1, "lambda": 1.0}}))
    assert main(["cluster", "--config", str(two_levels)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"data": data, "model": {}, "level": {"nu": 0.1}, "typo_key": 1}))
    assert main(["cluster", "--config", str(unknown)]) == 2
    assert main(["bounds", "--config", str(moons_cfg), "--alpha", "1.5"]) == 2


def test_unknown_adaptive_delta_keys_exit_2(moons_dir, tmp_path):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({
        "data": str(moons_dir / "points.csv"),
        "model": {"K": 10, "M_prime": 12, "S": 20},
        "level": {"nu": 0.85},
        "delta": {"adaptive": {"kk": 3}},
    }))
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "b"), "--reps", "1",
                 "--n", "300", "--components", "3"]) == 2


@pytest.mark.parametrize("override", [
    pytest.param({"level": {"nu": None}}, id="level-null"),
    pytest.param({"delta": {"fixed": None}}, id="fixed-delta-null"),
    pytest.param({"loss": {"a": None}}, id="loss-null"),
    pytest.param({"loss": 5}, id="loss-not-object"),
    pytest.param({"search": {"n_restarts": None}}, id="search-null"),
    pytest.param({"search": {"n_restarts": 1.9}}, id="search-fractional"),
    pytest.param({"delta": {"adaptive": 5}}, id="adaptive-not-object"),
    pytest.param({"model": {"K": 2.5}}, id="model-fractional"),
    pytest.param({"model": {"domain": 5}}, id="domain-not-list"),
    pytest.param({"seed": "abc"}, id="seed-string"),
])
def test_mistyped_config_values_exit_2(moons_dir, tmp_path, override):
    cfg = write_config(tmp_path / "bad.json", data=str(moons_dir / "points.csv"), **override)
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_config_too_large_for_memory_exits_5(moons_dir, tmp_path, capsys):
    # a well-typed, in-range K whose bin array cannot be allocated
    cfg = write_config(
        tmp_path / "huge.json", data=str(moons_dir / "points.csv"), model={"K": 10**15, "M_prime": 6, "S": 2}
    )
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("ballet: error: out of memory") and "Traceback" not in err


@pytest.mark.parametrize("command", ["plugin", "dbscan"])
@pytest.mark.parametrize("override", [
    pytest.param({"loss": {"zz": 1}}, id="loss-key"),
    pytest.param({"search": {"bogus": 1}}, id="search-key"),
    pytest.param({"model": {"K": 20, "KK": 1}}, id="model-key"),
    pytest.param({"model": {"S": 0}}, id="model-S"),
    pytest.param({"delta": {"fixed": -1}}, id="fixed-delta"),
])
def test_every_command_checks_every_section(moons_dir, tmp_path, command, override):
    cfg = write_config(tmp_path / "bad.json", data=str(moons_dir / "points.csv"), **override)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
config_places = [(key,) for key in (
    "data", "ensemble", "model", "level", "delta", "loss", "search",
    "alpha", "min_pts", "eps", "out", "seed", "typo")] + [
    (section, key) for section, keys in {
        "model": ("K", "M_prime", "alpha_b", "alpha_d", "domain", "S"),
        "level": ("lambda", "nu", "cosmo_c"),
        "delta": ("fixed", "adaptive"),
        "loss": ("a", "b", "m_ai", "m_ia"),
        "search": ("n_restarts", "n_sweeten_passes", "n_zealous_attempts", "seed"),
    }.items() for key in keys + ("typo",)] + [
    ("delta", "adaptive", key) for key in ("k", "gamma", "typo")]


@given(st.lists(st.tuples(st.sampled_from(config_places), json_values), min_size=1, max_size=3))
def test_any_json_value_parses_or_raises_a_ballet_error(moons_dir, edits):
    raw = json.loads(write_config(moons_dir / "fuzz.json", data=str(moons_dir / "points.csv")).read_text())
    for place, value in edits:
        node = raw
        for key in place[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[place[-1]] = value
    path = moons_dir / "fuzz.json"
    path.write_text(json.dumps(raw))
    try:
        cfg = load_run_config(argparse.Namespace(config=str(path)))
    except BalletError:
        return
    assert isinstance(cfg, RunConfig)
    assert isinstance(cfg.model, HistogramMixtureConfig)
    assert isinstance(cfg.delta, (float, AdaptiveDeltaConfig))
    assert isinstance(cfg.loss, LossParams) and isinstance(cfg.search, SearchConfig)
    assert cfg.level is None or (cfg.level[0] in ("lambda", "nu", "cosmo_c") and type(cfg.level[1]) is float)
    assert type(cfg.seed) is int and type(cfg.S) is int and type(cfg.alpha) is float


def test_io_errors_exit_3(moons_cfg, tmp_path):
    assert main(["cluster", "--config", str(tmp_path / "nope.json")]) == 3
    assert main(["cluster", "--config", str(moons_cfg), "--data", str(tmp_path / "nope.csv")]) == 3
    assert main(["cluster", "--config", str(moons_cfg), "--ensemble", str(tmp_path / "nope.ens")]) == 3


def test_bad_ensemble_header_exit_3(moons_cfg, tmp_path):
    ens = tmp_path / "header.ens"
    ens.write_bytes(b"[1,2]\n" + np.ones(4, dtype="<f8").tobytes())
    assert main(["cluster", "--config", str(moons_cfg), "--ensemble", str(ens)]) == 3


def test_numeric_ensemble_exit_4(moons_dir, moons_cfg, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(["nan"] * 300) + "\n")
    assert main(["cluster", "--config", str(moons_cfg), "--ensemble", str(bad)]) == 4


@pytest.mark.parametrize("text", [
    pytest.param(",".join(["1.0"] * 300) + "\n" + ",".join(["1.0"] * 299) + "\n", id="ragged"),
    pytest.param(",".join(["1.0"] * 299 + ["x"]) + "\n", id="non-numeric"),
])
def test_malformed_ensemble_csv_exit_3(moons_cfg, tmp_path, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["cluster", "--config", str(moons_cfg), "--ensemble", str(bad)]) == 3


@pytest.mark.parametrize("text", [
    pytest.param("0.1,0.2\n0.3\n", id="ragged"),
    pytest.param("0.1,0.2\n0.3,x\n", id="non-numeric"),
    pytest.param("0.1,nan\n", id="nan"),
    pytest.param("0.1,inf\n", id="inf"),
    pytest.param("0.1,0.2,\n", id="trailing-comma"),
    pytest.param("", id="empty"),
    pytest.param("\n  \n", id="blank"),
])
def test_malformed_points_exit_3(tmp_path, capsys, text):
    data = tmp_path / "points.csv"
    data.write_text(text)
    assert main(["dbscan", "--data", str(data), "--nu", "0.5", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ballet: error: malformed data") and "Warning" not in err


def test_adaptive_delta_of_zero_exit_2(tmp_path, capsys):
    """Identical points give an adaptive delta of 0: the run exits 2 naming
    k and gamma, and writes no artifact."""
    data = tmp_path / "points.csv"
    data.write_text("0.5,0.5\n" * 4)
    out = tmp_path / "out"
    assert main(["cluster", "--data", str(data), "--nu", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ballet: error: adaptive delta is 0.0: with k=")
    assert "gamma=0.01" in err and "use a larger --k or a fixed --delta" in err
    assert not (out / "estimate.json").exists()


def test_radius_joining_most_points_exit_5(tmp_path, monkeypatch):
    """A given delta or eps whose pair list would not fit exits 5 after
    counting the pairs (2e8 here), before the ensemble or a pair is stored.
    So do an adapted delta, once adapted, and an Eps resolved from nu 0:
    each is then the largest k-NN distance, an outlier's far from the other
    points."""
    import tracemalloc

    def no_pair_list(*args, **kwargs):
        raise AssertionError("a pair list was built")

    monkeypatch.setattr(risk_mod, "_delta_pairs", no_pair_list)
    monkeypatch.setattr(levelset_mod, "_delta_pairs", no_pair_list)
    data = tmp_path / "points.csv"
    points = np.random.default_rng(0).uniform(size=(20000, 2))
    PointSet(points).to_csv(data)
    runs = [
        ["cluster", "--data", str(data), "--nu", "0.9", "--delta", "10"],
        ["dbscan", "--data", str(data), "--eps", "10"],
    ]
    for argv in runs:
        tracemalloc.start()
        try:
            assert main(argv + ["--out", str(tmp_path / "out")]) == 5
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**23  # the ensemble alone would take 16 MB
    outlier = tmp_path / "outlier.csv"
    PointSet(np.vstack([points, [[1000.0, 1000.0]]])).to_csv(outlier)
    runs = [
        ["cluster", "--data", str(outlier), "--nu", "0", "--gamma", "0"],
        ["dbscan", "--data", str(outlier), "--nu", "0"],  # the resolved Eps is the outlier's distance
    ]
    for argv in runs:
        assert main(argv + ["--out", str(tmp_path / "out")]) == 5
    assert not (tmp_path / "out").exists()


def test_study_delta_past_the_pair_budget_exit_5(tmp_path, monkeypatch, capsys):
    """A study whose adapted delta would join more pairs than the budget
    holds (k = n - 1 here) exits 5 once delta is adapted, before any pair
    list is built."""

    def no_pair_list(*args, **kwargs):
        raise AssertionError("a pair list was built")

    monkeypatch.setattr(risk_mod, "_delta_pairs", no_pair_list)
    monkeypatch.setattr(levelset_mod, "_delta_pairs", no_pair_list)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"S": 4}}))
    argv = ["benchmark", "--config", str(cfg), "--reps", "1", "--n", "7000", "--components", "3",
            "--nu", "0.99", "--k", "6999", "--out", str(tmp_path / "out")]
    assert main(argv) == 5
    assert "MiB pair list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mismatched_ensemble_exit_5(moons_cfg, tmp_path):
    ens = tmp_path / "small.ens"
    DensityDrawEnsemble(np.ones((4, 17))).save(ens)
    assert main(["cluster", "--config", str(moons_cfg), "--ensemble", str(ens)]) == 5


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# bounds / plugin / dbscan


def test_bounds_dead_pool_worker_exit_5(moons_cfg, tmp_path, monkeypatch, capsys):
    """A search worker killed by a signal ends the run with one error line
    and exit 5, and no worker outlives it."""
    monkeypatch.setattr(risk_mod, "_POOLED_MIN_ENTRIES", 0)
    monkeypatch.setattr(risk_mod, "cpu_count", lambda: 2)
    monkeypatch.setattr(risk_mod, "_restart", die_in_a_worker)
    assert main(["bounds", "--config", str(moons_cfg), "--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("ballet: error: a search worker") and err.count("\n") == 1
    assert no_child_left()


def test_tree_dead_pool_worker_exit_5(moons_cfg, tmp_path, monkeypatch, capsys):
    """A level worker of `ballet tree` killed by a signal ends the run with
    one error line and exit 5, and no worker outlives it."""
    monkeypatch.setattr(levels_mod, "_POOLED_MIN_LEVEL_ENTRIES", 0)
    monkeypatch.setattr(levels_mod, "cpu_count", lambda: 2)
    monkeypatch.setattr(risk_mod, "_POOLED_MIN_ENTRIES", 10**12)  # the levels' searches stay serial
    monkeypatch.setattr(levels_mod, "ballet_estimate", die_in_a_worker)
    argv = ["tree", "--config", str(moons_cfg), "--levels", "0.05,0.10,0.20", "--estimator", "ballet",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert err.startswith("ballet: error: a cluster tree worker") and err.count("\n") == 1
    assert no_child_left()


def test_benchmark_dead_pool_worker_exit_5(tmp_path, monkeypatch, capsys):
    """A replicate worker of `ballet benchmark` on 2 CPUs killed by a signal
    ends the run with one error line and exit 5, and no worker outlives it."""
    monkeypatch.setattr(bench_mod, "run_study_replicate", die_in_a_worker)
    monkeypatch.setattr(bench_mod, "cpu_count", lambda: 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"K": 10, "M_prime": 12, "S": 20}, "level": {"nu": 0.85}}))
    argv = ["benchmark", "--config", str(cfg), "--reps", "2", "--n", "300",
            "--components", "3", "--out", str(tmp_path / "out")]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert err.startswith("ballet: error: a study worker") and err.count("\n") == 1
    assert no_child_left()


def test_bounds_output(moons_dir, moons_cfg):
    out = moons_dir / "run_bounds"
    rc = main(["bounds", "--config", str(moons_cfg), "--out", str(out), "--alpha", "0.05"])
    assert rc == 0
    d = json.loads((out / "ball.json").read_text())
    assert d["schema"] == "ballet/ball/v1"
    ball = d["ball"]
    assert sorted(ball) == ["alpha", "coverage", "epsilon_star", "lower", "upper"]
    assert ball["alpha"] == 0.05
    assert ball["coverage"] >= 0.95
    assert ball["epsilon_star"] >= 0
    center = SubPartition.from_json_dict(d["center"])
    lower = SubPartition.from_json_dict(ball["lower"])
    upper = SubPartition.from_json_dict(ball["upper"])
    assert center.n == lower.n == upper.n == 300
    lo, c, up = (np.flatnonzero(x.labels_array) for x in (lower, center, upper))
    assert len(np.intersect1d(c, up)) == c.size
    assert len(np.intersect1d(lo, c)) == lo.size


def test_plugin_output(moons_dir, moons_cfg):
    out = moons_dir / "run_plugin"
    rc = main(["plugin", "--config", str(moons_cfg), "--out", str(out)])
    assert rc == 0
    d = json.loads((out / "plugin.json").read_text())
    assert d["schema"] == "ballet/plugin/v1"
    assert non_singleton_count(d["clustering"]["labels"]) == 2


def test_dbscan_single_cluster(moons_dir):
    out = moons_dir / "run_dbscan1"
    rc = main(["dbscan", "--data", str(moons_dir / "points.csv"),
               "--min-pts", "1", "--eps", "99", "--out", str(out)])
    assert rc == 0
    d = json.loads((out / "dbscan.json").read_text())
    assert d["schema"] == "ballet/dbscan/v1"
    assert d["n_clusters"] == 1
    assert d["min_pts"] == 1 and d["eps"] == 99.0


def test_dbscan_min_pts_1_exits_2(moons_dir, capsys):
    """MinPts = 1 counts each point alone, so every radius, and Eps, is 0."""
    rc = main(["dbscan", "--data", str(moons_dir / "points.csv"), "--nu", "0.10",
               "--min-pts", "1", "--out", str(moons_dir / "run_dbscan_min1")])
    assert rc == 2
    assert "resolved Eps=0.0 is not positive (min_pts=1" in capsys.readouterr().err


def test_dbscan_noise_fraction_map(moons_dir):
    out = moons_dir / "run_dbscan2"
    rc = main(["dbscan", "--data", str(moons_dir / "points.csv"), "--nu", "0.10",
               "--out", str(out)])
    assert rc == 0
    d = json.loads((out / "dbscan.json").read_text())
    assert d["min_pts"] == int(np.ceil(np.log2(300)))
    assert d["eps"] > 0
    labels = np.asarray(d["clustering"]["labels"])
    assert np.count_nonzero(labels == 0) >= 1


def test_dbscan_needs_nu_or_eps(moons_dir):
    rc = main(["dbscan", "--data", str(moons_dir / "points.csv"), "--lambda", "0.5"])
    assert rc == 2


# ---------------------------------------------------------------------------
# tree / persist (sky fixture)


@pytest.fixture(scope="module")
def sky_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("sky_data")
    rc = main(["simulate", "--generator", "sky", "--n", "4000", "--components", "5",
               "--noise-mass", "0.9", "--seed", "7", "--out", str(d)])
    assert rc == 0
    write_config(d / "cfg.json", data=str(d / "points.csv"),
                 model={"K": 30, "M_prime": 30, "S": 50}, level={"cosmo_c": 1.0})
    return d


def test_tree_plugin_counts_nonincreasing(sky_dir):
    out = sky_dir / "run_tree"
    rc = main(["tree", "--config", str(sky_dir / "cfg.json"), "--out", str(out),
               "--levels", "0.8,1.0,1.2", "--estimator", "plugin"])
    assert rc == 0
    d = json.loads((out / "tree.json").read_text())
    assert d["schema"] == "ballet/tree/v1"
    assert d["level_kind"] == "cosmo_c" and d["level_values"] == [0.8, 1.0, 1.2]
    ks = [max(labels) for labels in d["tree"]["clusterings"]]
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    dot = (out / "tree.dot").read_text()
    assert dot.startswith("digraph")
    assert "L0_C1" in dot and "rank=same" in dot


def test_persist_output(sky_dir):
    out = sky_dir / "run_persist"
    rc = main(["persist", "--config", str(sky_dir / "cfg.json"), "--out", str(out),
               "--levels", "0.8,1.0,1.2", "--estimator", "plugin", "--heuristic"])
    assert rc == 0
    d = json.loads((out / "persist.json").read_text())
    assert d["schema"] == "ballet/persist/v1"
    assert d["strict"] is False
    assert len(d["clusters"]) >= 1
    for c in d["clusters"]:
        assert set(c) == {"row", "cluster", "level", "members"}
        assert len(c["members"]) >= 1


# ---------------------------------------------------------------------------
# simulate / benchmark / evaluate


def test_simulate_sky_outputs(sky_dir):
    pts = (sky_dir / "points.csv").read_text().strip().split("\n")
    targets = (sky_dir / "targets.csv").read_text().strip().split("\n")
    assert len(pts) == 4000 and len(targets) == 5
    meta = json.loads((sky_dir / "components.json").read_text())
    assert meta["schema"] == "ballet/simulate/v1"
    assert len(meta["weights"]) == 5 and len(meta["labels"]) == 4000


def test_simulate_deterministic(tmp_path):
    for sub in ("a", "b"):
        rc = main(["simulate", "--generator", "moons", "--n", "120", "--noise-sd", "0.05",
                   "--seed", "3", "--out", str(tmp_path / sub)])
        assert rc == 0
    assert (tmp_path / "a/points.csv").read_bytes() == (tmp_path / "b/points.csv").read_bytes()


def test_simulate_points_load_as_in_readme(tmp_path):
    rc = main(["simulate", "--generator", "moons", "--n", "50", "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    # the README's library example reads the file exactly like this
    pts = np.loadtxt(tmp_path / "points.csv", delimiter=",")
    assert pts.shape == (50, 2)


def test_benchmark_csv_shape(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"K": 10, "M_prime": 12, "S": 20},
        "search": {"n_restarts": 2, "n_sweeten_passes": 5, "n_zealous_attempts": 2},
        "level": {"nu": 0.85},
        "seed": 11,
    }))
    out = tmp_path / "bench"
    rc = main(["benchmark", "--config", str(cfg), "--out", str(out), "--reps", "1",
               "--n", "300", "--components", "3", "--noise-mass", "0.85"])
    assert rc == 0
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert lines[0] == "method,sensitivity,specificity,exact_match"
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "ballet", "ballet_lower", "ballet_upper", "plugin", "dbscan"]
    for ln in lines[1:]:
        for tok in ln.split(",")[1:]:
            assert 0.0 <= float(tok) <= 1.0
    study = json.loads((out / "study.json").read_text())
    assert study["schema"] == "ballet/study/v1"
    assert study["reps"] == 1 and "provenance" in study


def test_evaluate_command(moons_dir, tmp_path):
    labels = tmp_path / "labels.csv"
    SubPartition([1] * 150 + [2] * 150).to_csv(labels)
    targets = tmp_path / "targets.csv"
    targets.write_text("0.0,0.5\n10.0,10.0\n")
    out = tmp_path / "eval"
    rc = main(["evaluate", "--data", str(moons_dir / "points.csv"),
               "--labels", str(labels), "--targets", str(targets), "--out", str(out)])
    assert rc == 0
    d = json.loads((out / "evaluation.json").read_text())
    assert d["schema"] == "ballet/eval/v1"
    assert d["sensitivity"] == 0.5
    assert len(d["target_hits"]) == 2
    short = tmp_path / "short.csv"
    SubPartition([1, 2]).to_csv(short)
    rc = main(["evaluate", "--data", str(moons_dir / "points.csv"),
               "--labels", str(short), "--targets", str(targets), "--out", str(out)])
    assert rc == 5


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ballet.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for cmd in ("cluster", "bounds", "plugin", "dbscan", "tree",
                "persist", "simulate", "benchmark", "evaluate"):
        assert cmd in proc.stdout


# ---------------------------------------------------------------------------
# the artifact contract shared by every subcommand


def test_every_command_prints_and_stamps_what_it_writes(moons_dir, moons_cfg, tmp_path, capsys):
    """Each subcommand prints the paths it writes under --out, in write order;
    the only unprinted file is the *_labels.csv beside a printed artifact.
    Every JSON artifact carries its schema and a provenance block, and every
    labels CSV reads back as its artifact's clustering."""
    data, cfg = str(moons_dir / "points.csv"), str(moons_cfg)
    bench_cfg = tmp_path / "bench_cfg.json"
    bench_cfg.write_text(json.dumps({
        "model": {"K": 10, "M_prime": 12, "S": 20},
        "search": {"n_restarts": 2, "n_sweeten_passes": 5, "n_zealous_attempts": 2},
        "level": {"nu": 0.85},
    }))
    targets = tmp_path / "targets.csv"
    targets.write_text("0.0,0.5\n1.0,0.0\n")
    ladder = ["--levels", "0.05,0.10,0.20", "--estimator", "plugin"]
    runs = [  # argv, printed files, their schemas (None for a plain file), labels sidecars
        (["cluster", "--config", cfg], ["estimate.json"], [cli.ESTIMATE_SCHEMA], ["estimate_labels.csv"]),
        (["bounds", "--config", cfg], ["ball.json"], [cli.BALL_SCHEMA], []),
        (["plugin", "--config", cfg], ["plugin.json"], [cli.PLUGIN_SCHEMA], ["plugin_labels.csv"]),
        (["dbscan", "--data", data, "--nu", "0.1"], ["dbscan.json"], [cli.DBSCAN_SCHEMA], ["dbscan_labels.csv"]),
        (["tree", "--config", cfg, *ladder], ["tree.json", "tree.dot"], [cli.TREE_SCHEMA, None], []),
        (["persist", "--config", cfg, *ladder, "--heuristic"], ["persist.json"], [cli.PERSIST_SCHEMA], []),
        (["simulate", "--generator", "sky", "--n", "300", "--components", "3", "--seed", "5"],
         ["points.csv", "targets.csv", "components.json"], [None, None, cli.SIMULATE_SCHEMA], []),
        (["simulate", "--generator", "moons", "--n", "50"], ["points.csv"], [None], []),
        (["benchmark", "--config", str(bench_cfg), "--reps", "1", "--n", "300", "--components", "3"],
         ["study.json", "summary.csv"], [STUDY_SCHEMA, None], []),
        (["evaluate", "--data", data, "--labels", str(tmp_path / "cluster" / "estimate_labels.csv"),
          "--targets", str(targets)], ["evaluation.json"], [EVAL_SCHEMA], []),
    ]
    for k, (argv, printed, schemas, sidecars) in enumerate(runs):
        out = tmp_path / (argv[0] if argv[0] != "simulate" else f"simulate{k}")
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 0, argv
        assert capsys.readouterr().out.splitlines() == [str(out / name) for name in printed], argv
        assert sorted(p.name for p in out.iterdir()) == sorted(printed + sidecars), argv
        for name, schema in zip(printed, schemas):
            if schema is None:
                continue
            d = json.loads((out / name).read_text())
            assert d["schema"] == schema, argv
            assert set(d["provenance"]) == {"config_hash", "seed", "versions"}, argv
            for sidecar in sidecars:
                labels = SubPartition.from_csv(out / sidecar)
                assert labels.labels == tuple(d["clustering"]["labels"]), argv


def test_import_leaves_scipy_stats_unloaded():
    """Importing the package and its CLI must not load scipy.stats, which
    alone would double the import time; a fresh interpreter sees only what
    those imports load."""
    code = "import sys, ballet, ballet.cli; sys.exit('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "scipy.stats was loaded"
