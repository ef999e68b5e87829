"""Persistent helper threads for work that can run beside the caller.

A :class:`Task` is one call. Handed to the helpers with :func:`submit`, it
runs on the first helper free to take it; :meth:`Task.result` runs it in
the calling thread instead when no helper has started it yet, so a task
gives its result whether or not a helper exists or is free. Every task
runs exactly once, and a caller sees its exception when it asks for the
result.

There are at most ``_WORKERS - 1`` helpers, started on first use, never at
import. Each is pinned to one CPU of the process's affinity set other than
the one the thread that started it last ran on: where the scheduler does
not balance load between CPUs, an unpinned new thread stays on its
creator's CPU and takes turns with it instead of running beside it. Under
``taskset`` to one CPU, ``_WORKERS`` is 1 and no helper starts. A helper
keeps no reference to a task once it has run it.
"""

from __future__ import annotations

import os
import queue
import threading

# Threads that may work at once, the calling thread included: the CPUs
# this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

_queue = queue.SimpleQueue()
_helpers = []
_starting = threading.Lock()


class Task:
    """``fn(*args)``, to run once: on a helper, or in the first caller of
    :meth:`result` if no helper has started it."""

    __slots__ = ("_call", "_taken", "_done", "_value", "_error")

    def __init__(self, fn, *args):
        self._call = (fn, args)
        self._taken = threading.Lock()
        self._done = threading.Lock()
        self._done.acquire()
        self._value = self._error = None

    def _run(self):
        """Run the call here unless another thread has taken it. Nothing
        here refers to the call or its arguments once it is done."""
        if not self._taken.acquire(blocking=False):
            return
        call, self._call = self._call, None
        try:
            self._value = call[0](*call[1])
        except BaseException as exc:  # re-raised by result()
            self._error = exc
        del call
        self._done.release()

    def result(self):
        """The call's value, once it has run; its exception is raised
        instead. A call no helper has started runs here."""
        self._run()
        with self._done:
            pass
        if self._error is not None:
            raise self._error
        return self._value


def submit(tasks):
    """Hand ``tasks`` to the helpers, first starting as many as they can
    use, up to ``_WORKERS - 1``. With none to start, this does nothing and
    each task runs in the caller of its :meth:`Task.result`."""
    wanted = min(len(tasks), _WORKERS - 1)
    if wanted <= 0:
        return
    if len(_helpers) < wanted:
        _start(wanted)
    for task in tasks:
        _queue.put(task)


def run_all(tasks):
    """Run ``tasks``: the first in the calling thread, the others on
    helpers, and any that no helper has started in the calling thread once
    the first is done. Returns when all have run, raising the first
    exception in task order."""
    submit(tasks[1:])
    errors = []
    for task in tasks:
        try:
            task.result()
        except BaseException as exc:  # re-raised once every task has run
            errors.append(exc)
    if errors:
        raise errors[0]


def _start(count: int):
    with _starting:
        others = None
        if hasattr(os, "sched_setaffinity"):
            cpus, here = sorted(os.sched_getaffinity(0)), _current_cpu()
            others = [cpu for cpu in cpus if cpu != here] or cpus
        while len(_helpers) < count:
            cpu = None if others is None else others[len(_helpers)
                                                     % len(others)]
            helper = threading.Thread(target=_serve, args=(_queue, cpu),
                                      name=f"zonewton-helper-{len(_helpers)}",
                                      daemon=True)
            helper.start()
            _helpers.append(helper)


def _current_cpu():
    """The CPU the calling thread last ran on (field 39 of its stat line),
    or None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _forget_helpers():
    """Start afresh in a child made by ``fork``, which has none of the
    parent's threads: tasks queued for them would never be taken."""
    global _queue, _starting
    _queue, _starting = queue.SimpleQueue(), threading.Lock()
    _helpers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _serve(tasks, cpu):
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # left unpinned
            pass
    while True:
        tasks.get()._run()
