"""The three workloads: set-up, one op, its checks, and the counts it reports.

Every call into the program goes through a ``ballet`` module attribute at call
time (``ballet.build_ensemble``, not a name imported here), so the tracer's
rebinding sees it. ``setup`` builds the inputs from the seed; ``op`` is the
timed unit, on input ``i % inputs``. ``check`` (which also returns the
estimate's risk over the best draw clustering's), ``risk_rescaled`` and
``counts`` run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import ballet
import ballet.cli

from inputs import seeds_for, sky_survey, two_gaussians
import checks

ALPHA = 0.05


def _level(fbar: np.ndarray, nu: float) -> float:
    return ballet.resolve_level(ballet.LevelSpec("noise_fraction", nu), density_at_points=fbar)


def _active_points(ensemble, lam: float) -> int:
    """Points the per-draw level sets activate, summed over the draws."""
    return int(np.count_nonzero(ensemble.values >= lam))


def _support_size(ensemble, lam: float) -> int:
    """Points active in at least one draw: the risk search's support."""
    return int(np.count_nonzero((ensemble.values >= lam).any(axis=0)))


class DeskBounds:
    """``ballet bounds`` through the library on three desk-size sky surveys."""

    name = "desk_bounds"
    default_seed = 808
    inputs = 3
    n, n_components, noise_mass, sky_seed = 2000, 10, 0.9, 808
    S, nu = 100, 0.9

    def setup(self, seed: int, workdir: Path) -> dict:
        seeds = seeds_for(self.name, seed, 3 * self.inputs)
        surveys = []
        for r in range(self.inputs):
            data_seed, ens_seed, search_seed = seeds[3 * r : 3 * r + 3]
            points, _ = sky_survey(self.n, self.n_components, self.noise_mass, self.sky_seed, data_seed)
            surveys.append((ballet.PointSet(points), ens_seed, search_seed))
        return {"surveys": surveys}

    def op(self, st: dict, i: int) -> dict:
        ps, ens_seed, search_seed = st["surveys"][i % self.inputs]
        ens = ballet.build_ensemble(ps, ballet.HistogramMixtureConfig(), S=self.S, seed=ens_seed)
        fbar = ens.posterior_mean()
        lam = _level(fbar, self.nu)
        delta = ballet.adaptive_delta(ps, np.flatnonzero(fbar >= lam))
        res = ballet.ballet_estimate(ps, ens, lam, delta, cfg=ballet.SearchConfig(seed=search_seed))
        ball = ballet.compute_credible_ball(
            res.estimate, ps, delta, res.clusterings, alpha=ALPHA, stats=res.stats
        )
        return {"ens": ens, "lam": lam, "res": res, "ball": ball}

    def check(self, st: dict, i: int, out: dict) -> tuple[list[str], float]:
        return checks.check_estimate_and_ball(out["res"], out["ball"], ALPHA)

    def risk_rescaled(self, st: dict, out: dict) -> float:
        return out["res"].risk / math.comb(self.n, 2)

    def counts(self, st: dict, i: int, out: dict) -> dict:
        return {
            "levelset.active_points": _active_points(out["ens"], out["lam"]),
            "risk.support_size": _support_size(out["ens"], out["lam"]),
            "credible.walk_steps": checks.walk_steps(out["ball"]),
        }


class SurveyLevelset:
    """DBSCAN* through the CLI plus per-draw level sets at survey scale; the
    risk search is never called."""

    name = "survey_levelset"
    default_seed = 909
    inputs = 2
    n, n_components, noise_mass, sky_seed = 40000, 42, 0.9, 909
    S, nu = 20, 0.9

    def setup(self, seed: int, workdir: Path) -> dict:
        seeds = seeds_for(self.name, seed, 2 * self.inputs)
        workdir.mkdir(parents=True, exist_ok=True)
        surveys = []
        for r in range(self.inputs):
            data_seed, ens_seed = seeds[2 * r : 2 * r + 2]
            points, targets = sky_survey(self.n, self.n_components, self.noise_mass, self.sky_seed, data_seed)
            csv = workdir / f"points{r}.csv"
            np.savetxt(csv, points, fmt="%.17g", delimiter=",")
            surveys.append({
                "ps": ballet.PointSet(points),
                "targets": targets,
                "ens_seed": ens_seed,
                "csv": csv,
                "out": workdir / f"out{r}",
            })
        return {"surveys": surveys}

    def op(self, st: dict, i: int) -> dict:
        sv = st["surveys"][i % self.inputs]
        argv = ["dbscan", "--data", str(sv["csv"]), "--nu", str(self.nu), "--out", str(sv["out"])]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = ballet.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ballet {' '.join(argv)} exited {code}: {sink.getvalue().strip()}")
        ps = sv["ps"]
        ens = ballet.build_ensemble(ps, ballet.HistogramMixtureConfig(), S=self.S, seed=sv["ens_seed"])
        fbar = ens.posterior_mean()
        lam = _level(fbar, self.nu)
        delta = ballet.adaptive_delta(ps, np.flatnonzero(fbar >= lam))
        draws = ballet.draw_clusterings(ps, ens, lam, delta)
        plugin = ballet.plugin_estimate(ps, ens, lam, delta)
        ballet.evaluate(plugin, ps, sv["targets"])
        return {"ens": ens, "lam": lam, "delta": delta, "draws": draws, "plugin": plugin}

    def check(self, st: dict, i: int, out: dict) -> tuple[list[str], float]:
        errors = []
        sv = st["surveys"][i % self.inputs]
        points = sv["ps"].points
        with open(sv["out"] / "dbscan.json", encoding="ascii") as fh:
            db = json.load(fh)
        min_pts, eps = int(db["min_pts"]), float(db["eps"])
        if min_pts != (self.n - 1).bit_length():
            errors.append(f"dbscan min_pts {min_pts} != ceil(log2 n)")
        ref_eps = checks.oracle_dbscan_eps(points, self.nu, min_pts)
        if not abs(eps - ref_eps) <= checks.REL_TOL * ref_eps:
            errors.append(f"dbscan eps {eps!r} != order statistic {ref_eps!r}")
        labels = np.asarray(db["clustering"]["labels"])
        if not checks.same_partition(labels, checks.oracle_dbscan_star(points, eps, min_pts)):
            errors.append("dbscan.json labels differ from the DBSCAN* oracle")
        values, lam, delta = out["ens"].values, out["lam"], out["delta"]
        for s, draw in enumerate(out["draws"]):
            ref = checks.oracle_components(points, np.flatnonzero(values[s] >= lam), delta, closed=False)
            if not checks.same_partition(draw.labels_array, ref):
                errors.append(f"draw {s} clustering differs from the level-set oracle")
        fbar = out["ens"].posterior_mean()
        ref = checks.oracle_components(points, np.flatnonzero(fbar >= lam), delta, closed=False)
        if not checks.same_partition(out["plugin"].labels_array, ref):
            errors.append("plugin estimate differs from the level-set oracle")
        # the plugin estimate is this path's point estimate
        risk = checks.mean_loss(out["plugin"], out["draws"])
        return errors, risk / checks.best_draw_risk(out["draws"])

    def risk_rescaled(self, st: dict, out: dict) -> float:
        return checks.mean_loss(out["plugin"], out["draws"]) / math.comb(self.n, 2)

    def counts(self, st: dict, i: int, out: dict) -> dict:
        fbar = out["ens"].posterior_mean()
        return {
            "levelset.active_points": _active_points(out["ens"], out["lam"])
            + int(np.count_nonzero(fbar >= out["lam"])),
            "risk.support_size": 0,
            "credible.walk_steps": 0,
        }


class LadderSmall:
    """Many small risk searches sharing one point set and one delta: a
    three-level cluster tree plus the point estimate and ball at the middle
    level, on ten two-Gaussian replicates."""

    name = "ladder_small"
    default_seed = 707
    inputs = 10
    n, S, nus = 250, 30, (0.2, 0.4, 0.6)
    hist = ballet.HistogramMixtureConfig(K=30, M_prime=14)
    search = {"n_restarts": 2, "n_zealous_attempts": 2}

    def setup(self, seed: int, workdir: Path) -> dict:
        seeds = seeds_for(self.name, seed, 3 * self.inputs)
        reps = []
        for r in range(self.inputs):
            data_seed, ens_seed, search_seed = seeds[3 * r : 3 * r + 3]
            reps.append((ballet.PointSet(two_gaussians(self.n, data_seed)), ens_seed, search_seed))
        return {"reps": reps}

    def op(self, st: dict, i: int) -> dict:
        ps, ens_seed, search_seed = st["reps"][i % self.inputs]
        ens = ballet.build_ensemble(ps, self.hist, S=self.S, seed=ens_seed)
        fbar = ens.posterior_mean()
        lams = [_level(fbar, nu) for nu in self.nus]
        delta = ballet.adaptive_delta(ps, np.flatnonzero(fbar >= lams[0]))
        cfg = ballet.SearchConfig(seed=search_seed, **self.search)
        tree = ballet.build_cluster_tree(ps, ens, lams, delta, estimator="ballet", cfg=cfg)
        ballet.persistent_clusters(tree, strict=False)
        res = ballet.ballet_estimate(ps, ens, lams[1], delta, cfg=cfg)
        ball = ballet.compute_credible_ball(
            res.estimate, ps, delta, res.clusterings, alpha=ALPHA, stats=res.stats
        )
        return {"ens": ens, "lams": lams, "res": res, "ball": ball}

    def check(self, st: dict, i: int, out: dict) -> tuple[list[str], float]:
        return checks.check_estimate_and_ball(out["res"], out["ball"], ALPHA)

    def risk_rescaled(self, st: dict, out: dict) -> float:
        return out["res"].risk / math.comb(self.n, 2)

    def counts(self, st: dict, i: int, out: dict) -> dict:
        ens, lams = out["ens"], out["lams"]
        # the tree runs one search per level, then the middle level once more
        searched = list(lams) + [lams[1]]
        return {
            "levelset.active_points": sum(_active_points(ens, lam) for lam in searched),
            "risk.support_size": sum(_support_size(ens, lam) for lam in searched),
            "credible.walk_steps": checks.walk_steps(out["ball"]),
        }


WORKLOADS = {w.name: w for w in (DeskBounds(), SurveyLevelset(), LadderSmall())}
