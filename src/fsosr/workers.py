"""Forked worker processes that live as long as the object they serve.

``pool(owner, work, jobs)`` gives the ``Workers`` of ``owner``: this
process and ``jobs - 1`` children forked from it, which share its memory
copy-on-write. ``Workers.map(tasks)`` returns ``[work(owner, shared, j,
*tasks[j]) for j in range(jobs)]``, ``tasks[0]`` in this process and each
other in child j, which reads its task pickled from one pipe and writes
its pickled result to another. ``shared`` is an anonymous mmap of one
8-byte slot per worker, mapped before the fork and so shared with every
child. ``job_count`` says how many workers the affinity mask gives.

The children are forked on the first ``pool`` call for an owner, a job
count and a ``work``, and serve every later call with the same three. They
end when the owner is garbage-collected, when ``pool`` is called with
another owner, job count or ``work``, when ``stop`` is called, when a
``map`` raises, and at interpreter exit; a ``pool`` call that finds one of
them ended replaces them all. The module holds only a weak reference to the
owner, so idle children never keep it alive. A child sees the program as
it was when it was forked: a function or module attribute replaced after
that, by a monkeypatch for instance, is not seen by it.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import pickle
import signal
import threading
import weakref
from collections.abc import Callable
from contextlib import contextmanager, suppress

from .errors import FsosrError

# prctl(2)'s option to signal a process when its parent ends (Linux).
_PR_SET_PDEATHSIG = 1


def job_count() -> int:
    """The CPUs of the affinity mask; 1 where processes cannot be forked or
    the mask is unknown."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _prctl():
    """prctl(2) of the C library, or None where it has none."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except AttributeError:
        return None
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    return prctl


def _send(pipe, obj) -> None:
    """Write ``obj`` to ``pipe`` as its pickle's 8-byte length, then the pickle."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    pipe.write(len(data).to_bytes(8, "little") + data)
    pipe.flush()


def _receive(pipe):
    """The next object ``_send`` wrote to ``pipe``, or None where the pipe
    ends before all of it."""
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return pickle.loads(data) if len(data) == size else None


def _end(parent: int, children: list, shared: mmap.mmap) -> None:
    """Kill and reap the children ``(pid, task pipe, result pipe)`` of
    process ``parent``, none of them reaped yet, and unmap ``shared``. A
    process forked from ``parent`` otherwise, which has a copy of this call
    as an exit hook, leaves them alone."""
    if os.getpid() != parent:
        return
    while children:
        pid, tasks, results = children.pop()
        tasks.close()
        results.close()
        with suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with suppress(ChildProcessError):
            os.waitpid(pid, 0)
    shared.close()


class Workers:
    """This process and the children forked to serve ``owner`` with ``work``."""

    def __init__(self, owner, work: Callable, jobs: int) -> None:
        self.owner = weakref.ref(owner)
        self.work = work
        self.jobs = jobs
        self.shared = mmap.mmap(-1, 8 * jobs)  # anonymous and shared with the forks
        self.children: list = []  # (pid, task pipe, result pipe), none reaped
        try:
            prctl = _prctl() if jobs > 1 else None  # resolved here: a child only calls it
            for j in range(1, jobs):
                self.children.append(self._fork(owner, j, prctl))
        except BaseException:
            _end(os.getpid(), self.children, self.shared)
            raise
        # Ends the children once, when called or when the owner is collected
        # or the interpreter exits; made after the forks, so no child has it.
        self.close = weakref.finalize(owner, _end, os.getpid(), self.children, self.shared)

    def _fork(self, owner, j: int, prctl) -> tuple:
        """Fork child ``j``, which serves tasks until its task pipe ends."""
        parent = os.getpid()
        fds: tuple[int, ...] = ()
        try:
            fds = os.pipe()
            fds += os.pipe()
            task_read, task_write, result_read, result_write = fds
            pid = os.fork()
        except OSError as exc:  # such as EAGAIN, ENOMEM or EMFILE
            for fd in fds:
                os.close(fd)
            raise FsosrError(f"cannot start a worker process: {exc}") from exc
        if pid == 0:
            status = 1
            try:
                # The kernel kills this child when the thread that forked it
                # ends, so a run killed outright leaves no worker. Without
                # prctl the child ends at the end of its task pipe or on
                # writing to its closed result pipe: only the process that
                # forked it holds their other ends.
                os.close(task_write)
                os.close(result_read)
                for _, sibling_tasks, sibling_results in self.children:
                    sibling_tasks.close()
                    sibling_results.close()
                if prctl is not None:
                    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                if os.getppid() != parent:  # it ended before the call
                    os._exit(1)
                with os.fdopen(task_read, "rb") as tasks, os.fdopen(result_write, "wb") as out:
                    while (task := _receive(tasks)) is not None:
                        _send(out, self.work(owner, self.shared, j, *task))
                status = 0
            finally:
                os._exit(status)
        os.close(task_read)
        os.close(result_write)
        return pid, os.fdopen(task_write, "wb"), os.fdopen(result_read, "rb")

    def serves(self, owner, work: Callable, jobs: int) -> bool:
        """Whether these workers serve ``owner`` with ``work`` in ``jobs``
        processes, every child still running. A child found ended is reaped
        and dropped."""
        if not (self.close.alive and self.owner() is owner
                and self.work is work and self.jobs == jobs):
            return False
        for child in self.children:
            try:
                ended = os.waitpid(child[0], os.WNOHANG)[0] != 0
            except ChildProcessError:  # reaped elsewhere
                ended = True
            if ended:
                self._forget(child)
                return False
        return True

    def _forget(self, child: tuple) -> None:
        """Drop ``child``, reaped, and close its pipes."""
        self.children.remove(child)
        child[1].close()
        child[2].close()

    def map(self, tasks: list[tuple]) -> list:
        """``work(owner, shared, j, *tasks[j])`` for each worker j, in
        order. A child that ends without sending its result is an
        FsosrError naming how it ended. Every child ends if this raises."""
        try:
            for (_, pipe, _), task in zip(self.children, tasks[1:]):
                with suppress(BrokenPipeError):  # it ended: named below
                    _send(pipe, task)
            results = [self.work(self.owner(), self.shared, 0, *tasks[0])]
            for child in self.children:
                result = _receive(child[2])
                if result is None:
                    code = os.waitstatus_to_exitcode(os.waitpid(child[0], 0)[1])
                    self._forget(child)
                    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                    raise FsosrError(f"worker process {child[0]} {how} before sending its results")
                results.append(result)
            return results
        except BaseException:
            self.close()
            raise


_current: Workers | None = None  # the live workers, if any
_turn = threading.RLock()  # held by the thread whose block of ``ending`` uses them


def pool(owner, work: Callable, jobs: int) -> Workers:
    """The workers that serve ``owner`` with ``work`` in ``jobs`` processes:
    the current ones if they do and all still run, else new ones forked
    once the current ones have ended. A child that cannot be forked is an
    FsosrError."""
    global _current
    if _current is not None and not _current.serves(owner, work, jobs):
        stop()
    if _current is None:
        _current = Workers(owner, work, jobs)
    return _current


def stop() -> None:
    """End the children, if any."""
    global _current
    if _current is not None:
        _current.close()
        _current = None


@contextmanager
def ending(keep: bool):
    """End the children when the block raises, and when it returns unless
    ``keep``. Blocks in several threads take turns, so each uses the
    children alone."""
    with _turn:
        try:
            yield
        except BaseException:
            stop()
            raise
        if not keep:
            stop()
