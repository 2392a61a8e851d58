"""Command-line interface.

One binary with subcommands wiring data ingestion, the density ensemble, level
and radius resolution, the estimators, and machine-readable outputs. A JSON
config file provides defaults; flags override it. Every output file carries a
schema version plus a provenance block (config hash, versions, master seed),
and is byte-identical across reruns with the same config; timings go to
stderr only.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .bench import (
    BalletStudyConfig,
    DbscanStudyConfig,
    SkySurveySpec,
    dbscan_parameters,
    evaluate,
    generate_noisy_circles,
    generate_sky_survey,
    generate_two_moons,
    run_simulation_study,
)
from .credible import compute_credible_ball
from .density import DensityDrawEnsemble, HistogramMixtureConfig, build_ensemble, default_domain
from .errors import BalletError, ConfigError, DataIOError, InfeasibleError
from .levels import LevelSpec, build_cluster_tree, persistent_clusters, resolve_level
from .levelset import (
    AdaptiveDeltaConfig,
    PointSet,
    adaptive_delta,
    dbscan_star,
    default_k_dbscan,
)
from .risk import SearchConfig, ballet_estimate, plugin_estimate
from .subpartition import DEFAULT_LOSS_PARAMS, LossParams, SubPartition
from .util import config_hash

__all__ = ["RunConfig", "load_run_config", "build_parser", "main"]

ESTIMATE_SCHEMA = "ballet/estimate/v1"
BALL_SCHEMA = "ballet/ball/v1"
PLUGIN_SCHEMA = "ballet/plugin/v1"
DBSCAN_SCHEMA = "ballet/dbscan/v1"
TREE_SCHEMA = "ballet/tree/v1"
PERSIST_SCHEMA = "ballet/persist/v1"
SIMULATE_SCHEMA = "ballet/simulate/v1"

_LEVEL_KEYS = ("lambda", "nu", "cosmo_c")
_LEVEL_KIND = {"lambda": "lambda", "nu": "noise_fraction", "cosmo_c": "cosmo_c"}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """One resolved run.

    The density comes from exactly one source (a saved ensemble or the builtin
    histogram-mixture model) and the level from exactly one kind (fixed
    lambda, noise fraction nu, or excess constant cosmo_c). seed is the master
    seed; ensemble and search streams are derived from it.
    """

    data: Optional[str] = None
    ensemble: Optional[str] = None
    model: Optional[dict] = None
    level: Optional[dict] = None
    delta: Optional[dict] = None
    loss: Optional[dict] = None
    search: Optional[dict] = None
    alpha: float = 0.05
    min_pts: Optional[int] = None
    eps: Optional[float] = None
    out: str = "."
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ensemble is not None and self.model is not None:
            raise ConfigError("both an ensemble path and a model are set; pick one density source")
        if self.level is not None:
            if not isinstance(self.level, dict):
                raise ConfigError("level must be an object with one of: " + ", ".join(_LEVEL_KEYS))
            unknown = set(self.level) - set(_LEVEL_KEYS)
            if unknown:
                raise ConfigError(f"unknown level keys: {sorted(unknown)}")
            if len(self.level) != 1:
                raise ConfigError("level must set exactly one of: " + ", ".join(_LEVEL_KEYS))
        if self.delta is not None:
            if not isinstance(self.delta, dict) or set(self.delta) not in ({"fixed"}, {"adaptive"}):
                raise ConfigError("delta must be {\"fixed\": value} or {\"adaptive\": {k, gamma}}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.min_pts is not None and self.min_pts < 1:
            raise ConfigError(f"min_pts must be >= 1, got {self.min_pts}")
        if self.eps is not None and not (self.eps > 0 and np.isfinite(self.eps)):
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file (if any) merged with flag overrides; flags win."""
    raw: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as e:
            raise DataIOError(f"cannot read config {config_path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {config_path} is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    allowed = {f.name for f in fields(RunConfig)}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def flag(name):
        return getattr(args, name, None)

    for name in ("data", "ensemble", "out"):
        if flag(name) is not None:
            raw[name] = flag(name)
    if flag("ensemble") is not None:
        raw.pop("model", None)

    if flag("lam") is not None and flag("nu") is not None:
        raise ConfigError("give at most one of --lambda and --nu")
    if flag("lam") is not None:
        raw["level"] = {"lambda": flag("lam")}
    elif flag("nu") is not None:
        raw["level"] = {"nu": flag("nu")}

    if flag("delta") is not None and (flag("k") is not None or flag("gamma") is not None):
        raise ConfigError("--delta fixes the radius and conflicts with --k/--gamma")
    if flag("delta") is not None:
        raw["delta"] = {"fixed": flag("delta")}
    elif flag("k") is not None or flag("gamma") is not None:
        prior = raw.get("delta") or {}
        adaptive = dict(prior.get("adaptive") or {}) if isinstance(prior, dict) else {}
        if flag("k") is not None:
            adaptive["k"] = flag("k")
        if flag("gamma") is not None:
            adaptive["gamma"] = flag("gamma")
        raw["delta"] = {"adaptive": adaptive}

    for name in ("alpha", "min_pts", "eps", "seed"):
        if flag(name) is not None:
            raw[name] = flag(name)
    try:
        return RunConfig(**raw)
    except TypeError as e:
        raise ConfigError(f"bad config: {e}")


def _provenance(cfg: RunConfig) -> dict:
    # the output directory routes files; it is not part of the analysis
    hashed = {k: v for k, v in cfg.to_dict().items() if k != "out"}
    return {
        "config_hash": config_hash(hashed),
        "seed": cfg.seed,
        "versions": {
            "ballet": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def _sub_seeds(seed: int) -> tuple[int, int]:
    ens, srch = np.random.SeedSequence(seed).generate_state(2)
    return int(ens), int(srch)


def _loss_params(cfg: RunConfig) -> LossParams:
    d = cfg.loss or {}
    unknown = set(d) - {"a", "b", "m_ai", "m_ia"}
    if unknown:
        raise ConfigError(f"unknown loss keys: {sorted(unknown)}")
    if not d:
        return DEFAULT_LOSS_PARAMS
    return LossParams(**{k: float(v) for k, v in d.items()})


def _search_config(cfg: RunConfig, seed: int) -> SearchConfig:
    d = dict(cfg.search or {})
    if "seed" in d:
        raise ConfigError("the search seed is derived from the master seed; set seed instead")
    unknown = set(d) - {"n_restarts", "n_sweeten_passes", "n_zealous_attempts"}
    if unknown:
        raise ConfigError(f"unknown search keys: {sorted(unknown)}")
    return SearchConfig(**{k: int(v) for k, v in d.items()}, seed=seed)


def _hist_config(model: Optional[dict]) -> tuple[HistogramMixtureConfig, int]:
    d = dict(model or {})
    S = int(d.pop("S", 100))
    if S < 1:
        raise ConfigError(f"model S must be >= 1, got {S}")
    unknown = set(d) - {"K", "M_prime", "alpha_b", "alpha_d", "domain"}
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    if "domain" in d and d["domain"] is not None:
        d["domain"] = tuple((float(lo), float(hi)) for lo, hi in d["domain"])
    return HistogramMixtureConfig(**d), S


# ---------------------------------------------------------------------------
# shared pipeline


@dataclass
class _Prepared:
    cfg: RunConfig
    ps: PointSet
    ensemble: DensityDrawEnsemble
    fbar: np.ndarray
    level_key: str
    level_value: float
    lam: float
    delta: float
    search_seed: int


def _load_points(cfg: RunConfig) -> PointSet:
    if not cfg.data:
        raise ConfigError("a points CSV is required (config key 'data' or --data)")
    try:
        return PointSet.from_csv(cfg.data)
    except OSError as e:
        raise DataIOError(f"cannot read data {cfg.data}: {e}")
    except ValueError as e:
        raise DataIOError(f"malformed data {cfg.data}: {e}")


def _density_source(cfg: RunConfig, ps: PointSet, ensemble_seed: int) -> DensityDrawEnsemble:
    if cfg.ensemble is not None:
        ens = DensityDrawEnsemble.load(cfg.ensemble)
    else:
        # no source named: the builtin model with default hyperparameters
        hist, S = _hist_config(cfg.model or {})
        ens = build_ensemble(ps, hist, S=S, seed=ensemble_seed)
    if ens.n != ps.n:
        raise InfeasibleError(f"ensemble covers n={ens.n} points but the data has n={ps.n}")
    return ens


def _domain_volume(cfg: RunConfig, ps: PointSet) -> float:
    domain = (cfg.model or {}).get("domain") or default_domain(ps)
    return float(np.prod([hi - lo for lo, hi in domain]))


def _level_key_value(cfg: RunConfig) -> tuple[str, float]:
    if cfg.level is None:
        raise ConfigError("a level is required: one of lambda, nu, cosmo_c (or --lambda/--nu)")
    key = next(iter(cfg.level))
    return key, float(cfg.level[key])


def _resolve_one_level(cfg: RunConfig, key: str, value: float, fbar: np.ndarray, ps: PointSet) -> float:
    spec = LevelSpec(_LEVEL_KIND[key], value)
    vol = _domain_volume(cfg, ps) if key == "cosmo_c" else None
    return resolve_level(spec, density_at_points=fbar, domain_volume=vol)


def _adaptive_config(cfg: RunConfig) -> AdaptiveDeltaConfig:
    """The adaptive-delta settings of cfg; defaults when it gives none."""
    d = dict((cfg.delta or {}).get("adaptive") or {})
    unknown = set(d) - {"k", "gamma"}
    if unknown:
        raise ConfigError(f"unknown adaptive-delta keys: {sorted(unknown)}")
    return AdaptiveDeltaConfig(
        k=None if d.get("k") is None else int(d["k"]),
        gamma=float(d.get("gamma", 0.01)),
    )


def _resolve_delta(cfg: RunConfig, ps: PointSet, active: np.ndarray) -> float:
    if cfg.delta is not None and "fixed" in cfg.delta:
        v = float(cfg.delta["fixed"])
        if not (v > 0 and np.isfinite(v)):
            raise ConfigError(f"fixed delta must be positive and finite, got {v}")
        return v
    acfg = _adaptive_config(cfg)
    if active.size == 0:
        raise InfeasibleError("no active points at the resolved level; cannot adapt delta")
    return adaptive_delta(ps, active, acfg)


def _prepare(cfg: RunConfig) -> _Prepared:
    ps = _load_points(cfg)
    ensemble_seed, search_seed = _sub_seeds(cfg.seed)
    ensemble = _density_source(cfg, ps, ensemble_seed)
    fbar = ensemble.posterior_mean()
    key, value = _level_key_value(cfg)
    lam = _resolve_one_level(cfg, key, value, fbar, ps)
    active = np.flatnonzero(fbar >= lam)
    delta = _resolve_delta(cfg, ps, active)
    return _Prepared(cfg, ps, ensemble, fbar, key, value, lam, delta, search_seed)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_dir(cfg: RunConfig) -> Path:
    return Path(cfg.out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_cluster(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    prep = _prepare(cfg)
    result = ballet_estimate(
        prep.ps,
        prep.ensemble,
        prep.lam,
        prep.delta,
        p=_loss_params(cfg),
        cfg=_search_config(cfg, prep.search_seed),
    )
    payload = {
        "schema": ESTIMATE_SCHEMA,
        "provenance": _provenance(cfg),
        "level": {prep.level_key: prep.level_value},
        "lambda": prep.lam,
        "delta": prep.delta,
        "risk": result.risk,
        "n_clusters": result.estimate.k,
        "clustering": result.estimate.to_json_dict(),
        "alpha_hat": [float(a) for a in result.stats.alpha],
    }
    out = _out_dir(cfg) / "estimate.json"
    _write_json(out, payload)
    result.estimate.to_csv(_out_dir(cfg) / "estimate_labels.csv")
    print(out)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    prep = _prepare(cfg)
    loss = _loss_params(cfg)
    result = ballet_estimate(
        prep.ps, prep.ensemble, prep.lam, prep.delta,
        p=loss, cfg=_search_config(cfg, prep.search_seed),
    )
    ball = compute_credible_ball(
        result.estimate,
        prep.ps,
        prep.delta,
        result.clusterings,
        alpha=cfg.alpha,
        p=loss,
        stats=result.stats,
    )
    payload = {
        "schema": BALL_SCHEMA,
        "provenance": _provenance(cfg),
        "level": {prep.level_key: prep.level_value},
        "lambda": prep.lam,
        "delta": prep.delta,
        "center": result.estimate.to_json_dict(),
        "ball": ball.to_json_dict(),
    }
    out = _out_dir(cfg) / "ball.json"
    _write_json(out, payload)
    print(out)
    return 0


def cmd_plugin(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    prep = _prepare(cfg)
    est = plugin_estimate(prep.ps, prep.ensemble, prep.lam, prep.delta)
    payload = {
        "schema": PLUGIN_SCHEMA,
        "provenance": _provenance(cfg),
        "level": {prep.level_key: prep.level_value},
        "lambda": prep.lam,
        "delta": prep.delta,
        "n_clusters": est.k,
        "clustering": est.to_json_dict(),
    }
    out = _out_dir(cfg) / "plugin.json"
    _write_json(out, payload)
    est.to_csv(_out_dir(cfg) / "plugin_labels.csv")
    print(out)
    return 0


def cmd_dbscan(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    ps = _load_points(cfg)
    nu = 0.9
    if cfg.eps is None and cfg.level is not None:
        key, value = _level_key_value(cfg)
        if key != "nu":
            raise ConfigError("dbscan resolves Eps from a noise fraction; give --nu or --eps")
        nu = value
    min_pts, eps = dbscan_parameters(ps, DbscanStudyConfig(nu=nu, min_pts=cfg.min_pts, eps=cfg.eps))
    est = dbscan_star(ps, eps, min_pts)
    payload = {
        "schema": DBSCAN_SCHEMA,
        "provenance": _provenance(cfg),
        "min_pts": min_pts,
        "eps": eps,
        "n_clusters": est.k,
        "clustering": est.to_json_dict(),
    }
    out = _out_dir(cfg) / "dbscan.json"
    _write_json(out, payload)
    est.to_csv(_out_dir(cfg) / "dbscan_labels.csv")
    print(out)
    return 0


def _parse_level_values(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--levels must be a comma-separated list of numbers, got {text!r}")
    if len(values) < 2:
        raise ConfigError("--levels needs at least two values")
    return sorted(values)


def _build_tree(cfg: RunConfig, args: argparse.Namespace):
    ps = _load_points(cfg)
    ensemble_seed, search_seed = _sub_seeds(cfg.seed)
    ensemble = _density_source(cfg, ps, ensemble_seed)
    fbar = ensemble.posterior_mean()
    key = args.level_kind
    if key is None:
        key = next(iter(cfg.level)) if cfg.level is not None else "lambda"
    if key not in _LEVEL_KEYS:
        raise ConfigError(f"level kind must be one of {_LEVEL_KEYS}, got {key!r}")
    values = _parse_level_values(args.levels)
    lams = [_resolve_one_level(cfg, key, v, fbar, ps) for v in values]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ConfigError(f"level values resolve to non-increasing lambdas: {lams}")
    active = np.flatnonzero(fbar >= lams[0])
    delta = _resolve_delta(cfg, ps, active)
    tree = build_cluster_tree(
        ps,
        ensemble,
        lams,
        delta,
        estimator=args.estimator,
        p=_loss_params(cfg),
        cfg=_search_config(cfg, search_seed),
    )
    meta = {
        "level_kind": key,
        "level_values": values,
        "delta": delta,
        "estimator": args.estimator,
    }
    return ps, tree, meta


def cmd_tree(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    _, tree, meta = _build_tree(cfg, args)
    payload = {"schema": TREE_SCHEMA, "provenance": _provenance(cfg), **meta,
               "tree": tree.to_json_dict()}
    out_json = _out_dir(cfg) / "tree.json"
    out_dot = _out_dir(cfg) / "tree.dot"
    _write_json(out_json, payload)
    out_dot.parent.mkdir(parents=True, exist_ok=True)
    out_dot.write_text(tree.to_dot(), encoding="ascii")
    print(out_json)
    print(out_dot)
    return 0


def cmd_persist(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    _, tree, meta = _build_tree(cfg, args)
    chosen = sorted(persistent_clusters(tree, strict=not args.heuristic))
    clusters = []
    for row, cid in chosen:
        members = np.flatnonzero(tree.clusterings[row].labels_array == cid)
        clusters.append({
            "row": row,
            "cluster": cid,
            "level": tree.levels[row],
            "members": [int(i) for i in members],
        })
    payload = {
        "schema": PERSIST_SCHEMA,
        "provenance": _provenance(cfg),
        **meta,
        "strict": not args.heuristic,
        "clusters": clusters,
    }
    out = _out_dir(cfg) / "persist.json"
    _write_json(out, payload)
    print(out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    out_dir = _out_dir(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    points_path = out_dir / "points.csv"
    written = [points_path]
    if args.generator == "sky":
        spec = SkySurveySpec(
            n=args.n,
            n_components=args.components,
            noise_mass=args.noise_mass,
            seed=cfg.seed,
        )
        ps, targets, meta = generate_sky_survey(spec)
        ps.to_csv(points_path)
        targets_path = out_dir / "targets.csv"
        PointSet(targets).to_csv(targets_path)
        components_path = out_dir / "components.json"
        _write_json(components_path, {
            "schema": SIMULATE_SCHEMA,
            "provenance": _provenance(cfg),
            "generator": "sky",
            "n": spec.n,
            "n_components": spec.n_components,
            "noise_mass": spec.noise_mass,
            "weights": [float(w) for w in meta.weights],
            "means": [[float(v) for v in row] for row in meta.means],
            "variances": [float(v) for v in meta.variances],
            "labels": [int(v) for v in meta.labels],
        })
        written += [targets_path, components_path]
    else:
        gen = generate_two_moons if args.generator == "moons" else generate_noisy_circles
        ps = gen(args.n, args.noise_sd, cfg.seed)
        ps.to_csv(points_path)
    for path in written:
        print(path)
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    nu = 0.9
    if cfg.level is not None:
        key, value = _level_key_value(cfg)
        if key != "nu":
            raise ConfigError("the study resolves levels from a noise fraction; give --nu")
        nu = value
    if cfg.delta is not None and "fixed" in cfg.delta:
        raise ConfigError("the study always adapts delta; remove the fixed delta")
    delta_cfg = _adaptive_config(cfg)
    hist, S = _hist_config(cfg.model)
    spec = SkySurveySpec(
        n=args.n,
        n_components=args.components,
        noise_mass=args.noise_mass,
        seed=cfg.seed,
    )
    ballet_cfg = BalletStudyConfig(
        nu=nu,
        S=S,
        hist=hist,
        delta=delta_cfg,
        loss=_loss_params(cfg),
        search=_search_config(cfg, 0),
        credible_alpha=cfg.alpha,
    )
    dbscan_cfg = DbscanStudyConfig(nu=nu, min_pts=cfg.min_pts, eps=cfg.eps)
    result = run_simulation_study(args.reps, spec, ballet_cfg, dbscan_cfg, n_jobs=args.jobs)
    payload = dict(result.to_json_dict())
    payload["provenance"] = _provenance(cfg)
    out_json = _out_dir(cfg) / "study.json"
    out_csv = _out_dir(cfg) / "summary.csv"
    _write_json(out_json, payload)
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    out_csv.write_text(result.summary_csv(), encoding="ascii")
    print(out_json)
    print(out_csv)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    ps = _load_points(cfg)
    try:
        clustering = SubPartition.from_csv(args.labels)
    except OSError as e:
        raise DataIOError(f"cannot read labels {args.labels}: {e}")
    except ValueError as e:
        raise DataIOError(f"malformed labels {args.labels}: {e}")
    try:
        targets = PointSet.from_csv(args.targets).points
    except OSError as e:
        raise DataIOError(f"cannot read targets {args.targets}: {e}")
    except ValueError as e:
        raise DataIOError(f"malformed targets {args.targets}: {e}")
    if clustering.n != ps.n:
        raise InfeasibleError(f"labels cover n={clustering.n} points but the data has n={ps.n}")
    report = evaluate(clustering, ps, targets)
    payload = dict(report.to_json_dict())
    payload["provenance"] = _provenance(cfg)
    out = _out_dir(cfg) / "evaluation.json"
    _write_json(out, payload)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballet",
        description="Bayesian level-set clustering: estimates, bounds, baselines, and studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, data=True):
        sp.add_argument("--config", help="JSON run config; flags override it")
        sp.add_argument("--out", help="output directory (default: current)")
        sp.add_argument("--seed", type=int, help="master seed; all streams derive from it")
        if data:
            sp.add_argument("--data", help="points CSV, one row per observation")

    def density(sp):
        sp.add_argument("--ensemble", help="saved density-draw ensemble")

    def level(sp):
        sp.add_argument("--lambda", dest="lam", type=float, help="fixed density level")
        sp.add_argument("--nu", type=float, help="noise fraction in [0, 1)")

    def delta(sp):
        sp.add_argument("--delta", type=float, help="fixed connectivity radius")
        sp.add_argument("--k", type=int, help="neighbor order for the adaptive radius")
        sp.add_argument("--gamma", type=float, help="tail fraction for the adaptive radius")

    sp = sub.add_parser("cluster", help="expected-loss-minimizing point estimate")
    common(sp); density(sp); level(sp); delta(sp)
    sp.set_defaults(func=cmd_cluster)

    sp = sub.add_parser("bounds", help="point estimate plus credible-ball bounds")
    common(sp); density(sp); level(sp); delta(sp)
    sp.add_argument("--alpha", type=float, help="credible level (default 0.05)")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("plugin", help="level-set clustering of the posterior mean density")
    common(sp); density(sp); level(sp); delta(sp)
    sp.set_defaults(func=cmd_plugin)

    sp = sub.add_parser("dbscan", help="DBSCAN* baseline")
    common(sp); level(sp)
    sp.add_argument("--min-pts", dest="min_pts", type=int, help="MinPts (default ceil(log2 n))")
    sp.add_argument("--eps", type=float, help="Eps; defaults to the noise-fraction map")
    sp.set_defaults(func=cmd_dbscan)

    def tree_flags(sp):
        common(sp); density(sp); level(sp); delta(sp)
        sp.add_argument("--levels", required=True, help="comma-separated level values")
        sp.add_argument("--level-kind", dest="level_kind", choices=list(_LEVEL_KEYS),
                        help="how to read --levels (default: the config level kind)")
        sp.add_argument("--estimator", choices=["plugin", "ballet"], default="plugin")

    sp = sub.add_parser("tree", help="cluster tree across a ladder of levels")
    tree_flags(sp)
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("persist", help="clusters persistent across a ladder of levels")
    tree_flags(sp)
    sp.add_argument("--heuristic", action="store_true",
                    help="resolve multi-parent walks by maximal overlap instead of failing")
    sp.set_defaults(func=cmd_persist)

    sp = sub.add_parser("simulate", help="draw a synthetic dataset")
    common(sp, data=False)
    sp.add_argument("--generator", choices=["sky", "moons", "circles"], default="sky")
    sp.add_argument("--n", type=int, default=40000)
    sp.add_argument("--components", type=int, default=42)
    sp.add_argument("--noise-mass", dest="noise_mass", type=float, default=0.9)
    sp.add_argument("--noise-sd", dest="noise_sd", type=float, default=0.1,
                    help="jitter for moons/circles")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("benchmark", help="replicated study of all estimators")
    common(sp, data=False); level(sp); delta(sp)
    sp.add_argument("--alpha", type=float, help="credible level for the bounds")
    sp.add_argument("--min-pts", dest="min_pts", type=int)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--reps", type=int, default=10)
    sp.add_argument("--n", type=int, default=4000)
    sp.add_argument("--components", type=int, default=10)
    sp.add_argument("--noise-mass", dest="noise_mass", type=float, default=0.9)
    sp.add_argument("--jobs", type=int, default=1, help="parallel replicates")
    sp.set_defaults(func=cmd_benchmark)

    sp = sub.add_parser("evaluate", help="ellipse detection metrics of a labels file")
    common(sp)
    sp.add_argument("--labels", required=True, help="cluster labels CSV (0 = noise)")
    sp.add_argument("--targets", required=True, help="target coordinates CSV")
    sp.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except BalletError as e:
        print(f"ballet: error: {e}", file=sys.stderr)
        return e.exit_code
    except ValueError as e:
        print(f"ballet: error: {e}", file=sys.stderr)
        return ConfigError.exit_code
    except OSError as e:
        print(f"ballet: error: {e}", file=sys.stderr)
        return DataIOError.exit_code
    print(f"[time] {args.command}: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
