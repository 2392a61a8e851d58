"""Small shared helpers: order-statistic quantiles, seeding, canonical JSON,
the worker count, and the fork pool of every process-parallel stage.

The search's restarts, a cluster tree's levels and a study's replicates
are independent tasks that read one large shared state.
fork_map runs them on `workers` processes: the calling process and
workers - 1 children it forks, which inherit the state at the fork,
unpickled. Every process claims the next tasks from one pipe of task
indices until it is empty, so slow and fast tasks spread over the
processes, and each child pickles its results back once, when it is done.
The results are put in task order, and the first failed task in that order
raises its error once the warnings of the tasks up to it are shown, in task
order, so a caller's output does not depend on the worker count. A child
records every warning; the caller filters each as warnings.warn did in the
module that raised it. The caller's own tasks' warnings meet its filters as
they arise and are held back, so a warning shown once that a child's task
and a later one of the caller's both raise is shown at the latter. A pool
uses no thread. Each caller sets its own worker count and size gate. The
tasks run serially in the calling process for one worker, without the fork
start method, inside a pool task or another child process, whose parent
already uses the CPUs, and while the calling process runs other threads,
which a fork would copy in the middle of what they do. A worker that dies
(killed by a signal or the OOM killer) is an InfeasibleError, raised once
every worker is reaped.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import warnings
from contextlib import suppress
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .errors import InfeasibleError

__all__ = [
    "order_statistic_ceil",
    "spawn_rngs",
    "canonical_json",
    "config_hash",
    "cpu_count",
    "fork_map",
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


_in_task = False  # true in a fork_map worker, and in its caller while it runs tasks

_MAX_CLAIMS = 1024  # task-index records in the claim pipe: 4 KiB, within a pipe's buffer


def fork_map(fn: Callable, state, tasks: Sequence[tuple], workers: int, what: str) -> list:
    """[fn(state, *args) for args in tasks], on min(workers, len(tasks))
    processes (see the module docstring). A worker that dies raises
    InfeasibleError naming the `what` worker."""
    tasks = list(tasks)
    workers = min(workers, len(tasks))
    if (
        workers <= 1
        or _in_task
        or multiprocessing.parent_process() is not None
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return [fn(state, *args) for args in tasks]
    return _fork_lanes(fn, state, tasks, workers, what)


def _run_claims(fn: Callable, state, tasks: list, claims: int, per: int) -> list:
    """Run the tasks of each claim read from the pipe until it is empty:
    (index, True, result, shown) or (index, False, error, shown) for each,
    shown being the warnings it raised that the filters let through."""
    global _in_task
    _in_task = True
    show = warnings.showwarning
    done = []
    try:
        while record := os.read(claims, 4):
            first = int.from_bytes(record, "little") * per
            for i in range(first, min(first + per, len(tasks))):
                shown = []
                warnings.showwarning = lambda *w: shown.append(w[:4])  # (message, category, file, line)
                try:
                    done.append((i, True, fn(state, *tasks[i]), shown))
                except Exception as exc:  # raised by the caller, in task order
                    done.append((i, False, exc, shown))
    finally:
        warnings.showwarning = show
        _in_task = False
    return done


def _warn_again(message, category, filename: str, lineno: int) -> None:
    """Warn as warnings.warn did in a child, in the module that raised it:
    the one loaded from filename, else __main__ (code run from a string)."""
    loaded = (m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename)
    module = next(loaded, sys.modules["__main__"])
    registry = vars(module).setdefault("__warningregistry__", {})
    warnings.warn_explicit(message, category, filename, lineno, module.__name__, registry)


def _fork_lanes(fn: Callable, state, tasks: list, workers: int, what: str) -> list:
    per = -(-len(tasks) // _MAX_CLAIMS)  # tasks per claim
    records = memoryview(b"".join(k.to_bytes(4, "little") for k in range(-(-len(tasks) // per))))
    claims, claims_in = os.pipe()
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        try:
            while records:  # they fit the pipe's buffer, so no write waits
                records = records[os.write(claims_in, records) :]
        finally:
            os.close(claims_in)  # so a read of the emptied pipe ends
        for _ in range(workers - 1):
            results, results_in = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(results)
                os.close(results_in)
                raise
            if pid == 0:  # a worker: it never returns from here
                code = 1
                try:
                    warnings.simplefilter("always")  # the caller filters them
                    payload = pickle.dumps(_run_claims(fn, state, tasks, claims, per))
                    with open(results_in, "wb") as out:
                        out.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(results_in)
            children[pid] = results
        done = [(*task, warnings.showwarning) for task in _run_claims(fn, state, tasks, claims, per)]
        dead = False
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as results:
                payload = results.read()
            os.close(children.pop(pid))
            if os.waitpid(pid, 0)[1] == 0:
                done += [(*task, _warn_again) for task in pickle.loads(payload)]
            else:
                dead = True
    finally:
        os.close(claims)
        for pid, results in children.items():  # left only when the caller failed
            os.close(results)
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if dead:
        raise InfeasibleError(
            f"a {what} worker process ended abruptly (killed by a signal or out of memory)"
        )
    out = []
    for _, ok, value, caught, show in sorted(done, key=itemgetter(0)):
        for w in caught:
            show(*w)
        if not ok:
            raise value
        out.append(value)
    return out
