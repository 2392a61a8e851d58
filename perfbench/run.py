"""ballet benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload desk_bounds --seed 808 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one summary

Run from the repository root; the program is imported from ``src/``. Load is
closed-loop and single-process: each op starts when the previous one ends,
and the program gets at most two threads, BLAS included. An untraced run
(``--trace 0``) reports the end-to-end metrics named in ``BENCHMARK.json``; a
traced run (``--trace 1``) pairs every op with an untraced twin on the same
input and reports the per-layer metrics. Every op's outputs are checked
outside the timed region; a failed check counts in ``failed`` and the run
goes on. The last stdout line is the JSON result; the lines before it give
each metric with its unit, the environment and, when traced, the breakdown
by layer and function.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk_bounds", "survey_levelset", "ladder_small")
THREADS = "2"  # nproc on the reference box; caps BLAS and OpenMP pools
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=10.0, help="minimum measured wall time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", flush=True)


# -- environment ----------------------------------------------------------------


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    import numpy

    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ballet").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def import_program():
    sys.path.insert(0, str(SRC))
    import ballet

    if not Path(ballet.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ballet imported from {ballet.__file__}, not from {SRC}")
    import workloads

    return workloads


# -- set-up time ------------------------------------------------------------------


def timed_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code}): {line!r}")
    return elapsed


# -- runs ---------------------------------------------------------------------------


class Run:
    """Op loop bookkeeping shared by the untraced and the traced run."""

    def __init__(self, wl, st, seconds: float):
        self.wl, self.st, self.seconds = wl, st, seconds
        self.attempted = 0
        self.failed = 0
        # per input: risk over the best draw's risk, and risk over C(n, 2)
        self.ratios: dict[int, float] = {}
        self.risks: dict[int, float] = {}

    def keep_going(self, t_start: float, i: int) -> bool:
        # whole passes over the inputs until the time is up, so every input
        # weighs the same in the medians however fast the program is
        return i % self.wl.inputs != 0 or time.perf_counter() - t_start < self.seconds

    def op(self, i: int, label: str, tracer=None, counts: dict | None = None):
        """Time one op and check it; returns its seconds, or None if it raised.

        With a tracer, spans are recorded during the op only, not its checks.
        The outputs are dropped before returning, so they never overlap the
        next op in memory. ``counts`` accumulates the workload's counts.
        """
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            out = self.wl.op(self.st, i)
            dt = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            log(f"op {i} ({label}) raised:")
            traceback.print_exc(file=sys.stdout)
            return None
        finally:
            if tracer is not None:
                tracer.op = None
        try:
            errors, ratio = self.wl.check(self.st, i, out)
            key = i % self.wl.inputs
            if key not in self.ratios:
                self.ratios[key] = ratio
                self.risks[key] = self.wl.risk_rescaled(self.st, out)
        except Exception as exc:
            errors = [f"check raised {exc!r}"]
        if errors:
            self.failed += 1
        log(f"op {i} ({label}): {dt:.4f} s, " + ("ok" if not errors else "FAILED: " + "; ".join(errors)))
        if counts is not None:
            for k, v in self.wl.counts(self.st, i, out).items():
                counts[k] = counts.get(k, 0) + v
        return dt


def run_untraced(wl, st, args) -> tuple[Run, dict]:
    run = Run(wl, st, args.seconds)
    times = []
    t_start = time.perf_counter()
    i = 0
    while run.keep_going(t_start, i):
        dt = run.op(i, "untraced")
        if dt is not None:
            times.append(dt)
        i += 1
    if not times or not run.ratios:
        raise RuntimeError("no op completed; nothing to report")
    log(f"risk_rescaled (risk / C(n,2), median over inputs) = "
        f"{statistics.median(run.risks.values())!r}")
    return run, {
        "op_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "risk_ratio": statistics.median(run.ratios.values()),
        "ops": len(times),
    }


def run_traced(wl, st, args) -> tuple[Run, dict]:
    from spans import Tracer, summarize

    run = Run(wl, st, args.seconds)
    tracer = Tracer()
    untraced, traced = [], []
    counts: dict[str, float] = {}
    t_start = time.perf_counter()
    i = 0
    while run.keep_going(t_start, i):
        dt = run.op(i, "untraced twin")
        if dt is not None:
            tracer.install()
            try:
                dt_traced = run.op(i, "traced", tracer, counts)
            finally:
                tracer.uninstall()
            if dt_traced is not None:
                untraced.append(dt)
                traced.append(dt_traced)
        i += 1
    if not traced:
        raise RuntimeError("no traced op completed; nothing to report")
    n = len(traced)
    metrics = summarize(tracer.spans, n, sum(traced))
    layer_self = [v for k, v in metrics.items() if k.endswith(".self_s")]
    metrics.update({k: v / n for k, v in counts.items()})
    metrics["traced_wall_s"] = statistics.fmean(traced)
    metrics["layers_self_s"] = sum(layer_self)
    metrics["trace_overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
    metrics["ops"] = n
    for key in tracer.absent:
        log(f"absent from the program: {key}")
    return run, metrics


def print_breakdown(m: dict) -> None:
    log(f"per-op means over {m['ops']} traced ops (inclusive s, calls):")
    for key in sorted(k[: -len(".calls")] for k in m if k.endswith(".calls")):
        log(f"  {key:34s} {m[key + '.s']:12.6f} s {m[key + '.calls']:10.1f} calls")
    log("self time by layer:")
    for key in sorted(k for k in m if k.endswith(".self_s")):
        log(f"  {key:34s} {m[key]:12.6f} s")
    log(f"  {'untraced_s':34s} {m['untraced_s']:12.6f} s")
    residual = m["layers_self_s"] + m["untraced_s"] - m["traced_wall_s"]
    log(f"layer self times + untraced_s = {m['layers_self_s'] + m['untraced_s']:.6f} s; "
        f"traced wall {m['traced_wall_s']:.6f} s (residual {residual:.3g} s)")
    log(f"trace overhead {m['trace_overhead_s']:.6f} s per op. Single process, closed loop: "
        "ops never wait for another and nothing is retried, so no wait or retry time exists.")


def report(run: Run, metrics: dict, spec: list, trace: int) -> dict:
    """Print each metric with its unit and return the result object."""
    out = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics:
            raise KeyError(f"BENCHMARK.json names metric {name!r}, which this run does not produce")
        out[name] = {"value": metrics[name], "unit": unit}
        log(f"{name} = {metrics[name]!r} {unit}")
    log(f"{'traced ' if trace else ''}op samples: {metrics['ops']}; ops attempted "
        f"{run.attempted}, failed {run.failed} (ops_failed = {run.failed / run.attempted!r})")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": out}


def run_one(args) -> int:
    wl_module = import_program()
    wl = wl_module.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            wl.setup(seed, workdir)
            print("ready", flush=True)
            return 0
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        log(f"workload={wl.name} seed={seed} seconds={args.seconds} trace={args.trace}")
        log("env " + json.dumps(environment(), sort_keys=True))
        setups = [] if args.trace else [timed_setup(wl.name, seed) for _ in range(SETUP_REPEATS)]
        st = wl.setup(seed, workdir)
        if args.trace:
            run, metrics = run_traced(wl, st, args)
            print_breakdown(metrics)
            result = report(run, metrics, bench["per_layer"], 1)
        else:
            run, metrics = run_untraced(wl, st, args)
            metrics["setup_s"] = statistics.median(setups)
            log(f"set-up samples: {', '.join(f'{s:.4f}' for s in setups)} s")
            result = report(run, metrics, bench["end_to_end"], 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload), then a summary."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            log(f"{name} exited {proc.returncode}")
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    log("summary:")
    for name, res in results.items():
        for metric, v in res["metrics"].items():
            log(f"  {name:16s} {metric:34s} {v['value']:14.6g} {v['unit']}")
        log(f"  {name:16s} ops attempted {res['attempted']}, failed {res['failed']}")
    print(json.dumps(results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
