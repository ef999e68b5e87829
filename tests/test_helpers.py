"""The persistent helper threads: tasks run once, wherever they run; the
helpers are pinned, outlive a task that raises, keep nothing of a task once
it has run, and ``import zonewton`` starts none of them."""

import gc
import os
import queue
import subprocess
import sys
import threading
import time

import pytest

import zonewton
from zonewton import _helpers as helpers_module


def dead_soon(refs, timeout=10.0) -> bool:
    """Whether every weak reference in ``refs`` dies within ``timeout``
    seconds. A task that its caller ran may wait a moment in the queue of a
    busy helper, holding its value, until the helper takes it and skips it.
    """
    deadline = time.monotonic() + timeout
    while any(ref() is not None for ref in refs):
        if time.monotonic() > deadline:
            return False
        gc.collect()
        time.sleep(0.01)
    return True


@pytest.fixture
def fresh_helpers(monkeypatch):
    """A helper pool of the test's own, empty until something submits; its
    helpers serve only its queue."""
    monkeypatch.setattr(helpers_module, "_queue", queue.SimpleQueue())
    monkeypatch.setattr(helpers_module, "_helpers", [])
    return helpers_module._helpers


def test_import_starts_no_thread_and_needs_neither_ctypes_nor_futures():
    """With ``ctypes`` and ``concurrent`` blocked (numpy does without
    ctypes), the import starts no thread, and a d = 100 run, whose draws and
    helpers this module serves, starts at most ``_WORKERS - 1``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(zonewton.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, threading\n"
        "sys.modules['ctypes'] = None\n"
        "sys.modules['concurrent'] = None\n"
        "import numpy as np\n"
        "import zonewton as z\n"
        "print(threading.active_count())\n"
        "oracle = z.make_quadratic(np.eye(100), np.ones(100)).make_oracle()\n"
        "config = z.SolverConfig(mu=1e-4, r_policy=z.FixedDirections(100),\n"
        "                        max_iterations=3)\n"
        "trace = z.run(np.zeros(100), oracle, config, z.RngStream(1))\n"
        "from zonewton import _helpers\n"
        "print(trace.status, threading.active_count() - 1 <= "
        "max(0, _helpers._WORKERS - 1))\n")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "stopped_max_iter", "True"]


def test_a_task_no_helper_started_runs_in_its_caller(monkeypatch,
                                                   fresh_helpers):
    monkeypatch.setattr(helpers_module, "_WORKERS", 1)
    task = helpers_module.Task(threading.get_ident)
    helpers_module.submit([task])
    assert fresh_helpers == []
    assert task.result() == threading.get_ident()
    assert task.result() == threading.get_ident()  # it ran once


class _TaskError(Exception):
    pass


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="pinning needs two CPUs")
def test_helpers_are_pinned_off_the_starting_cpu_and_outlive_an_error(
        monkeypatch, fresh_helpers):
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(helpers_module, "_WORKERS", 2)
    monkeypatch.setattr(helpers_module, "_current_cpu", lambda: cpus[0])
    ran = []

    def where(fail):
        ran.append((threading.get_ident(), os.sched_getaffinity(0)))
        if fail:
            raise _TaskError

    tasks = [helpers_module.Task(where, True),
             helpers_module.Task(where, False)]
    helpers_module.submit(tasks)
    deadline = time.monotonic() + 10
    while len(ran) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    # both ran on the helper, which the first one's error did not stop
    with pytest.raises(_TaskError):
        tasks[0].result()
    assert tasks[1].result() is None
    assert len(fresh_helpers) == 1 and fresh_helpers[0].is_alive()
    assert ran == [(fresh_helpers[0].ident, {cpus[1]})] * 2
    assert os.sched_getaffinity(0) == set(cpus)  # the caller's is untouched


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_starts_its_own_helpers(monkeypatch):
    monkeypatch.setattr(helpers_module, "_WORKERS", 2)
    helpers_module.run_all([helpers_module.Task(int) for _ in range(2)])
    assert helpers_module._helpers
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if a task runs on a new helper
        code = 1
        try:
            assert helpers_module._helpers == []
            ran = threading.Event()

            def on_a_helper():
                ran.set()
                return threading.get_ident()

            task = helpers_module.Task(on_a_helper)
            helpers_module.submit([task])
            assert ran.wait(10)
            code = int(task.result() != helpers_module._helpers[0].ident)
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
