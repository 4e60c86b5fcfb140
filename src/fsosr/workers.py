"""Forked worker processes: ``in_workers`` runs ``work(j)`` for each worker
j, the first in this process and every other in a child forked from it, and
``job_count`` says how many workers the affinity mask gives. A child shares
its parent's memory copy-on-write, pickles its one result to a pipe and
ends with the process that forked it.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
from collections.abc import Callable
from contextlib import suppress

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


def in_workers(work: Callable[[int], object], jobs: int) -> list:
    """``[work(j) for j in range(jobs)]``: ``work(0)`` in this process and
    each other call in a forked child, which pickles its result to a pipe
    and leaves by ``os._exit``; a failure it named travels in that result.
    Every child is reaped on every exit path; one that ends without sending
    its result is an FsosrError naming how it ended, and so is a child that
    cannot be forked."""
    children: list = []  # (pid, read end of its pipe), not yet reaped
    parent = os.getpid()
    # Resolved before forking: a child only makes the call.
    prctl = _prctl() if jobs > 1 else None
    try:
        for j in range(1, jobs):
            fds: tuple[int, ...] = ()
            try:
                fds = read_fd, write_fd = os.pipe()
                pid = os.fork()
            except OSError as exc:  # such as EAGAIN, ENOMEM or EMFILE
                for fd in fds:
                    os.close(fd)
                raise FsosrError(f"cannot start a worker process: {exc}") from exc
            if pid == 0:
                status = 1
                try:
                    # The kernel kills this child when the run's process
                    # ends, so a run killed outright leaves no worker; without
                    # prctl it ends on writing to the closed pipe, whose
                    # read ends only the run's process holds.
                    os.close(read_fd)
                    for _, pipe in children:
                        pipe.close()
                    if prctl is not None:
                        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                    if os.getppid() != parent:  # it ended before the call
                        os._exit(1)
                    with os.fdopen(write_fd, "wb") as out:
                        pickle.dump(work(j), out, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results = [work(0)]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise FsosrError(f"worker process {pid} {how} before sending its results")
            results.append(pickle.loads(data))
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
