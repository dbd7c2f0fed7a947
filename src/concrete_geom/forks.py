"""Forked children that each write the bytes of one producer to a pipe.

One helper serves ``cli`` (``sample``'s row formatters) and ``oracle``
(``run_suite``'s check groups).  :func:`forked` forks one child per
producer and hands the parent their outputs in order.  A child that could
not be forked, or that exited non-zero, gives None, so the parent can redo
its work itself.  Every child is reaped on every path, so no process
outlives the ``with`` block.

The children are forked, not spawned: a spawned child would import numpy
again (about 0.16 s on a 2-core VM, as much as the parallel work saves),
while a forked one starts with the parent's arrays and closures.

Python 3.12+ warns that a fork in a process with other threads may leave
the child a lock held by one of them.  Where the caller runs no other
Python thread, the other threads are native pools such as OpenBLAS's, and
OpenBLAS shuts its pool down before a fork (a pthread_atfork handler), so
the warning is silenced there; a caller with threads of its own sees it.
"""

import os
import threading
import warnings
from contextlib import contextmanager


def available_cpus() -> int:
    """CPUs this process may run on; 1 where fork or CPU affinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork(produce) -> tuple:
    """(pid, read end of a pipe) of a child that writes ``produce()`` to the
    pipe and exits; (None, None) if the fork fails.

    The child closes its copy of the read end, so once the parent closes its
    own, a blocked write in the child fails with EPIPE.  It leaves by
    ``os._exit`` (1 on any error), never returning to the caller.
    """
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            if threading.active_count() == 1:
                warnings.filterwarnings("ignore", r".*multi-threaded", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None, None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            data = memoryview(produce())
            while data:
                data = data[os.write(w, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _read_all(fd: int) -> list:
    """What is written to the pipe ``fd`` until EOF, as a list of reads."""
    parts = []
    while part := os.read(fd, 1 << 20):
        parts.append(part)
    return parts


def _reap(pid: int, fd: int) -> int:
    """Close the read end ``fd``, then wait for ``pid``; its exit code."""
    os.close(fd)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _outputs(children: list):
    """Each child's reads, in order, or None where it failed; reaps as it goes."""
    while children:
        pid, fd = children[0]
        parts = _read_all(fd) if pid else None
        children.pop(0)
        yield parts if pid and _reap(pid, fd) == 0 else None


@contextmanager
def forked(producers):
    """Fork one child per bytes producer; yield an iterator over their outputs.

    The iterator gives, in producer order, the list of reads of what a
    child wrote, or None if its fork failed or it exited non-zero.  The
    parent may work between the forks and the first read.  On exit, the
    read ends of children not yet read are closed first, so none stays
    blocked on a full pipe, and then every such child is waited for.
    """
    children = []
    try:
        for produce in producers:
            children.append(_fork(produce))
        yield _outputs(children)
    finally:
        live = [(pid, fd) for pid, fd in children if pid]
        for _, fd in live:
            os.close(fd)
        for pid, _ in live:
            os.waitpid(pid, 0)
