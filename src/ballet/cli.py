"""Command-line interface.

One binary with subcommands wiring data ingestion, the density ensemble, level
and radius resolution, the estimators, and machine-readable outputs. A JSON
config file provides defaults; flags override it; main loads and checks the
merged config once and hands it to the subcommand. Every JSON artifact goes
through one writer, _emit, which stamps a schema version plus a provenance
block (config hash, versions, master seed). Outputs are byte-identical across
reruns with the same config; timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np
import scipy
from scipy.spatial import cKDTree

from . import __version__
from .bench import (
    EVAL_SCHEMA,
    STUDY_SCHEMA,
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
    _check_pair_budget,
    adaptive_delta,
    dbscan_star,
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

_SECTION_KEYS = {
    "model": ("K", "M_prime", "alpha_b", "alpha_d", "domain", "S"),
    "level": _LEVEL_KEYS,
    "delta": ("fixed", "adaptive"),
    "loss": ("a", "b", "m_ai", "m_ia"),
    "search": ("n_restarts", "n_sweeten_passes", "n_zealous_attempts"),
}
_CONFIG_KEYS = ("data", "ensemble", *_SECTION_KEYS, "alpha", "min_pts", "eps", "out", "seed")


@dataclass(frozen=True)
class RunConfig:
    """One parsed and checked run, built by load_run_config.

    The density comes from a saved ensemble when one is named, else from the
    builtin histogram-mixture model with S draws. level is one level kind's
    config key (lambda, nu or cosmo_c) and value. delta is a fixed radius or
    the adaptive-radius settings. seed is the master seed; the ensemble
    stream and search.seed derive from it. config_hash digests the config
    file merged with the flags.
    """

    data: Optional[str] = None
    ensemble: Optional[str] = None
    model: HistogramMixtureConfig = HistogramMixtureConfig()
    S: int = 100
    level: Optional[tuple[str, float]] = None
    delta: Union[float, AdaptiveDeltaConfig] = AdaptiveDeltaConfig()
    loss: LossParams = DEFAULT_LOSS_PARAMS
    search: SearchConfig = SearchConfig()
    alpha: float = 0.05
    min_pts: Optional[int] = None
    eps: Optional[float] = None
    out: str = "."
    seed: int = 0
    config_hash: str = ""


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file (if any) merged with flag overrides, flags winning, then
    typed and checked whole; every bad value is a ConfigError.

    main calls it once for every subcommand, which reads only the RunConfig,
    so a file gets the same verdict from each of them.
    """
    raw: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as e:
            raise DataIOError(f"cannot read config {config_path}: {e}")
        except ValueError as e:
            raise ConfigError(f"config {config_path} is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")

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
        prior = raw.get("delta")
        adaptive = prior.get("adaptive") if isinstance(prior, dict) else None
        adaptive = dict(adaptive) if isinstance(adaptive, dict) else {}
        if flag("k") is not None:
            adaptive["k"] = flag("k")
        if flag("gamma") is not None:
            adaptive["gamma"] = flag("gamma")
        raw["delta"] = {"adaptive": adaptive}

    for name in ("alpha", "min_pts", "eps", "seed"):
        if flag(name) is not None:
            raw[name] = flag(name)
    try:
        return _parse(raw)
    except ValueError as e:  # a range check of a typed constructor
        raise ConfigError(f"bad config: {e}") from None


def _integer(value, name: str) -> int:
    """A JSON integer, or a float with an integral value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _number(value, name: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _section(parent: dict, name: str, keys) -> Optional[dict]:
    """parent[name], an object with keys from keys; None when absent or null."""
    d = parent.get(name)
    if d is not None:
        if not isinstance(d, dict):
            raise ConfigError(f"{name} must be an object with keys from: {', '.join(keys)}")
        unknown = set(d) - set(keys)
        if unknown:
            raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return d


def _parse(raw: dict) -> RunConfig:
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name in ("data", "ensemble", "out"):
        if raw.get(name) is not None and not isinstance(raw[name], str):
            raise ConfigError(f"{name} must be a path string, got {raw[name]!r}")

    model = _section(raw, "model", _SECTION_KEYS["model"]) or {}
    if raw.get("model") is not None and raw.get("ensemble") is not None:
        raise ConfigError("both an ensemble path and a model are set; pick one density source")
    hist = {k: _integer(model[k], f"model {k}") for k in ("K", "M_prime", "S") if k in model}
    hist.update((k, _number(model[k], f"model {k}")) for k in ("alpha_b", "alpha_d") if k in model)
    domain = model.get("domain")
    if domain is not None:
        if not (isinstance(domain, list) and all(isinstance(ax, list) and len(ax) == 2 for ax in domain)):
            raise ConfigError(f"model domain must be a list of [low, high] pairs, got {domain!r}")
        hist["domain"] = tuple(tuple(_number(v, "model domain") for v in ax) for ax in domain)
    S = hist.pop("S", 100)
    if S < 1:
        raise ConfigError(f"model S must be >= 1, got {S}")

    level = _section(raw, "level", _LEVEL_KEYS)
    if level is not None:
        if len(level) != 1:
            raise ConfigError("level must set exactly one of: " + ", ".join(_LEVEL_KEYS))
        [(key, value)] = level.items()
        level = (key, _number(value, f"level {key}"))
        LevelSpec(_LEVEL_KIND[key], level[1])  # range check

    delta = _section(raw, "delta", _SECTION_KEYS["delta"])
    if delta is None or set(delta) == {"adaptive"}:
        adaptive = _section(delta or {}, "adaptive", ("k", "gamma")) or {}
        delta = AdaptiveDeltaConfig(
            k=None if adaptive.get("k") is None else _integer(adaptive["k"], "adaptive k"),
            gamma=_number(adaptive.get("gamma", 0.01), "adaptive gamma"),
        )
    elif set(delta) == {"fixed"}:
        delta = _number(delta["fixed"], "fixed delta")
        if not (delta > 0 and np.isfinite(delta)):
            raise ConfigError(f"fixed delta must be positive and finite, got {delta}")
    else:
        raise ConfigError("delta must be {\"fixed\": value} or {\"adaptive\": {k, gamma}}")

    loss = _section(raw, "loss", _SECTION_KEYS["loss"]) or {}
    search = raw.get("search")
    if isinstance(search, dict) and "seed" in search:
        raise ConfigError("the search seed is derived from the master seed; set seed instead")
    search = _section(raw, "search", _SECTION_KEYS["search"]) or {}
    seed = _integer(raw.get("seed", 0), "seed")
    alpha = _number(raw.get("alpha", 0.05), "alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    min_pts = None if raw.get("min_pts") is None else _integer(raw["min_pts"], "min_pts")
    eps = None if raw.get("eps") is None else _number(raw["eps"], "eps")
    DbscanStudyConfig(min_pts=min_pts, eps=eps)  # range checks
    # the output directory routes files; it is not part of the analysis
    hashed = {**dict.fromkeys(_CONFIG_KEYS), "alpha": 0.05, "seed": 0, **raw}
    del hashed["out"]
    return RunConfig(
        data=raw.get("data"),
        ensemble=raw.get("ensemble"),
        model=HistogramMixtureConfig(**hist),
        S=S,
        level=level,
        delta=delta,
        loss=LossParams(**{k: _number(v, f"loss {k}") for k, v in loss.items()}),
        search=SearchConfig(**{k: _integer(v, f"search {k}") for k, v in search.items()},
                            seed=_sub_seeds(seed)[1]),
        alpha=alpha,
        min_pts=min_pts,
        eps=eps,
        out=raw.get("out") or ".",
        seed=seed,
        config_hash=config_hash(hashed),
    )


def _sub_seeds(seed: int) -> tuple[int, int]:
    ens, srch = np.random.SeedSequence(seed).generate_state(2)
    return int(ens), int(srch)


# ---------------------------------------------------------------------------
# shared pipeline


def _read(path, what: str, reader):
    """reader(path), its OSError and ValueError mapped to a DataIOError naming what."""
    try:
        return reader(path)
    except OSError as e:
        raise DataIOError(f"cannot read {what} {path}: {e}")
    except ValueError as e:
        raise DataIOError(f"malformed {what} {path}: {e}")


def _load_points(cfg: RunConfig) -> PointSet:
    if not cfg.data:
        raise ConfigError("a points CSV is required (config key 'data' or --data)")
    return _read(cfg.data, "data", PointSet.from_csv)


def _noise_fraction(cfg: RunConfig, why: str) -> float:
    """The level's noise fraction, 0.9 when none is set; other level kinds fail with why."""
    if cfg.level is None:
        return 0.9
    key, value = cfg.level
    if key != "nu":
        raise ConfigError(why)
    return value


def _prepare(cfg: RunConfig, key: str, values: list[float]) -> tuple[PointSet, DensityDrawEnsemble, list[float], float]:
    """Points, density draws, the lambda of each level value, and delta (adapted at the first lambda).

    A delta whose graph would not fit the pair budget fails before any pair is stored: a fixed
    one before the ensemble is built, an adapted one as soon as it is adapted.
    """
    ps = _load_points(cfg)
    if not isinstance(cfg.delta, AdaptiveDeltaConfig):
        _check_pair_budget(cKDTree(ps.points), cfg.delta)
    if cfg.ensemble is not None:
        ensemble = DensityDrawEnsemble.load(cfg.ensemble)
    else:
        ensemble = build_ensemble(ps, cfg.model, S=cfg.S, seed=_sub_seeds(cfg.seed)[0])
    if ensemble.n != ps.n:
        raise InfeasibleError(f"ensemble covers n={ensemble.n} points but the data has n={ps.n}")
    fbar = ensemble.posterior_mean()
    vol = None
    if key == "cosmo_c":
        domain = cfg.model.domain or default_domain(ps)
        vol = float(np.prod([hi - lo for lo, hi in domain]))
    lams = [resolve_level(LevelSpec(_LEVEL_KIND[key], v), density_at_points=fbar, domain_volume=vol)
            for v in values]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ConfigError(f"level values resolve to non-increasing lambdas: {lams}")
    delta = cfg.delta
    if isinstance(delta, AdaptiveDeltaConfig):
        active = np.flatnonzero(fbar >= lams[0])
        if active.size == 0:
            raise InfeasibleError("no active points at the resolved level; cannot adapt delta")
        delta = adaptive_delta(ps, active, delta)
        _check_pair_budget(cKDTree(ps.points), delta)
    return ps, ensemble, lams, delta


def _at_level(cfg: RunConfig) -> tuple[PointSet, DensityDrawEnsemble, float, float, dict]:
    """_prepare at the config's one level, plus the level, lambda and delta fields of the artifact."""
    if cfg.level is None:
        raise ConfigError("a level is required: one of lambda, nu, cosmo_c (or --lambda/--nu)")
    key, value = cfg.level
    ps, ensemble, (lam,), delta = _prepare(cfg, key, [value])
    return ps, ensemble, lam, delta, {"level": {key: value}, "lambda": lam, "delta": delta}


def _emit(cfg: RunConfig, name: str, schema: str, fields: dict,
          labels: Optional[SubPartition] = None) -> Path:
    """Write <out>/<name>.json, stamped with schema and provenance, and print its path.

    Given labels, <out>/<name>_labels.csv is written beside it, unprinted.
    Returns the output directory, for any extra files a command writes next
    to the artifact.
    """
    provenance = {
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "versions": {
            "ballet": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"schema": schema, "provenance": provenance, **fields}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if labels is not None:
        labels.to_csv(out / f"{name}_labels.csv")
    print(path)
    return out


# ---------------------------------------------------------------------------
# subcommands: each gets the checked RunConfig and the parsed flags


def cmd_cluster(cfg: RunConfig, args: argparse.Namespace) -> None:
    ps, ensemble, lam, delta, fields = _at_level(cfg)
    result = ballet_estimate(ps, ensemble, lam, delta, p=cfg.loss, cfg=cfg.search)
    _emit(cfg, "estimate", ESTIMATE_SCHEMA, {
        **fields,
        "risk": result.risk,
        "n_clusters": result.estimate.k,
        "clustering": result.estimate.to_json_dict(),
        "alpha_hat": [float(a) for a in result.stats.alpha],
    }, labels=result.estimate)


def cmd_bounds(cfg: RunConfig, args: argparse.Namespace) -> None:
    ps, ensemble, lam, delta, fields = _at_level(cfg)
    result = ballet_estimate(ps, ensemble, lam, delta, p=cfg.loss, cfg=cfg.search)
    ball = compute_credible_ball(
        result.estimate,
        ps,
        delta,
        result.clusterings,
        alpha=cfg.alpha,
        p=cfg.loss,
        stats=result.stats,
    )
    _emit(cfg, "ball", BALL_SCHEMA, {
        **fields,
        "center": result.estimate.to_json_dict(),
        "ball": ball.to_json_dict(),
    })


def cmd_plugin(cfg: RunConfig, args: argparse.Namespace) -> None:
    ps, ensemble, lam, delta, fields = _at_level(cfg)
    est = plugin_estimate(ps, ensemble, lam, delta)
    _emit(cfg, "plugin", PLUGIN_SCHEMA, {
        **fields,
        "n_clusters": est.k,
        "clustering": est.to_json_dict(),
    }, labels=est)


def cmd_dbscan(cfg: RunConfig, args: argparse.Namespace) -> None:
    ps = _load_points(cfg)
    nu = 0.9 if cfg.eps is not None else _noise_fraction(
        cfg, "dbscan resolves Eps from a noise fraction; give --nu or --eps")
    min_pts, eps = dbscan_parameters(ps, DbscanStudyConfig(nu=nu, min_pts=cfg.min_pts, eps=cfg.eps))
    est = dbscan_star(ps, eps, min_pts)
    _emit(cfg, "dbscan", DBSCAN_SCHEMA, {
        "min_pts": min_pts,
        "eps": eps,
        "n_clusters": est.k,
        "clustering": est.to_json_dict(),
    }, labels=est)


def _parse_level_values(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--levels must be a comma-separated list of numbers, got {text!r}")
    if len(values) < 2:
        raise ConfigError("--levels needs at least two values")
    return sorted(values)


def _build_tree(cfg: RunConfig, args: argparse.Namespace):
    key = args.level_kind or (cfg.level[0] if cfg.level is not None else "lambda")
    values = _parse_level_values(args.levels)
    ps, ensemble, lams, delta = _prepare(cfg, key, values)
    tree = build_cluster_tree(ps, ensemble, lams, delta, estimator=args.estimator, p=cfg.loss, cfg=cfg.search)
    meta = {
        "level_kind": key,
        "level_values": values,
        "delta": delta,
        "estimator": args.estimator,
    }
    return tree, meta


def cmd_tree(cfg: RunConfig, args: argparse.Namespace) -> None:
    tree, meta = _build_tree(cfg, args)
    out = _emit(cfg, "tree", TREE_SCHEMA, {**meta, "tree": tree.to_json_dict()})
    (out / "tree.dot").write_text(tree.to_dot(), encoding="ascii")
    print(out / "tree.dot")


def cmd_persist(cfg: RunConfig, args: argparse.Namespace) -> None:
    tree, meta = _build_tree(cfg, args)
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
    _emit(cfg, "persist", PERSIST_SCHEMA, {
        **meta,
        "strict": not args.heuristic,
        "clusters": clusters,
    })


def _sky_spec(cfg: RunConfig, args: argparse.Namespace) -> SkySurveySpec:
    return SkySurveySpec(n=args.n, n_components=args.components, noise_mass=args.noise_mass, seed=cfg.seed)


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> None:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.generator != "sky":
        gen = generate_two_moons if args.generator == "moons" else generate_noisy_circles
        gen(args.n, args.noise_sd, cfg.seed).to_csv(out / "points.csv")
        print(out / "points.csv")
        return
    spec = _sky_spec(cfg, args)
    ps, targets, meta = generate_sky_survey(spec)
    ps.to_csv(out / "points.csv")
    PointSet(targets).to_csv(out / "targets.csv")
    print(out / "points.csv")
    print(out / "targets.csv")
    _emit(cfg, "components", SIMULATE_SCHEMA, {
        "generator": "sky",
        "n": spec.n,
        "n_components": spec.n_components,
        "noise_mass": spec.noise_mass,
        "weights": [float(w) for w in meta.weights],
        "means": [[float(v) for v in row] for row in meta.means],
        "variances": [float(v) for v in meta.variances],
        "labels": [int(v) for v in meta.labels],
    })


def cmd_benchmark(cfg: RunConfig, args: argparse.Namespace) -> None:
    nu = _noise_fraction(cfg, "the study resolves levels from a noise fraction; give --nu")
    if not isinstance(cfg.delta, AdaptiveDeltaConfig):
        raise ConfigError("the study always adapts delta; remove the fixed delta")
    spec = _sky_spec(cfg, args)
    ballet_cfg = BalletStudyConfig(
        nu=nu,
        S=cfg.S,
        hist=cfg.model,
        delta=cfg.delta,
        loss=cfg.loss,
        search=cfg.search,
        credible_alpha=cfg.alpha,
    )
    dbscan_cfg = DbscanStudyConfig(nu=nu, min_pts=cfg.min_pts, eps=cfg.eps)
    result = run_simulation_study(args.reps, spec, ballet_cfg, dbscan_cfg)
    out = _emit(cfg, "study", STUDY_SCHEMA, result.to_json_dict())
    (out / "summary.csv").write_text(result.summary_csv(), encoding="ascii")
    print(out / "summary.csv")


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> None:
    ps = _load_points(cfg)
    clustering = _read(args.labels, "labels", SubPartition.from_csv)
    targets = _read(args.targets, "targets", PointSet.from_csv).points
    if clustering.n != ps.n:
        raise InfeasibleError(f"labels cover n={clustering.n} points but the data has n={ps.n}")
    _emit(cfg, "evaluation", EVAL_SCHEMA, evaluate(clustering, ps, targets).to_json_dict())


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
        args.func(load_run_config(args), args)
    except BalletError as e:
        print(f"ballet: error: {e}", file=sys.stderr)
        return e.exit_code
    except ValueError as e:
        print(f"ballet: error: {e}", file=sys.stderr)
        return ConfigError.exit_code
    except OSError as e:
        print(f"ballet: error: {e}", file=sys.stderr)
        return DataIOError.exit_code
    except MemoryError as e:
        print(f"ballet: error: out of memory: {e}", file=sys.stderr)
        return InfeasibleError.exit_code
    print(f"[time] {args.command}: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
