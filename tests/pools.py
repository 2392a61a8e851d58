"""Helpers for the fork-pool tests: record the pools opened, check that no
child process outlives a call, and kill a pool worker."""

import os
import signal
import time

import ballet.util as util_mod

TEST_PID = os.getpid()  # the process that runs the tests and calls fork_map


def record_pools(monkeypatch):
    """The process count of every fork pool opened from here on."""
    opened = []
    fork_lanes = util_mod._fork_lanes

    def recorded(fn, state, tasks, workers, what):
        opened.append(workers)
        return fork_lanes(fn, state, tasks, workers, what)

    monkeypatch.setattr(util_mod, "_fork_lanes", recorded)
    return opened


def no_child_left():
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def die_in_a_worker(*args, **kwargs):
    """Kills its own process in a forked pool worker. In the calling process,
    which takes its share of the tasks, it waits until a worker has claimed
    one, then fails: the killed worker must win."""
    if os.getpid() == TEST_PID:
        time.sleep(0.1)
        raise AssertionError("ran in the calling process")
    os.kill(os.getpid(), signal.SIGKILL)
