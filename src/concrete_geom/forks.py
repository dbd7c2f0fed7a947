"""One ordered map of thunks over forked processes, :func:`ordered`.

It serves ``cli`` (``sample``'s row formatters) and ``oracle``
(``run_suite``'s check groups); no other module forks.

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
import pickle
import threading
import warnings
from collections import deque
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


def _queue(children: list, c: int):
    """A deque of the values child ``c`` piped back, or None if it failed;
    the child is reaped and its entry in ``children`` cleared."""
    pid, fd = children[c]
    if not pid:
        return None
    data = b"".join(_read_all(fd))
    children[c] = None, None
    return deque(pickle.loads(data)) if _reap(pid, fd) == 0 else None


def _values(thunks, procs: int, mine: deque, held, children: list):
    """thunk() for each of ``thunks``, in order (see :func:`ordered`).

    ``mine`` holds the parent's values, up to the place where it raised
    ``held``.  Child j is read at its first place, j; its values then wait
    in a queue, or its thunks run here where it failed.
    """
    queues = [mine]
    for i, thunk in enumerate(thunks):
        j = i % procs
        if i == j > 0:
            queues.append(_queue(children, j - 1))
        queue = queues[j]
        if queue is None:
            yield thunk()
        elif queue:
            yield queue.popleft()  # the queue lets the value go
        else:
            raise held


@contextmanager
def ordered(thunks, procs: int):
    """Run the sequence ``thunks`` over ``procs`` processes; yield an
    iterator over thunk() for each, in order.

    Thunk i runs in process i % procs, the parent being process 0.  The
    parent forks its children, then runs its own thunks and stops at the
    first that raises, holding the exception until its place is reached.
    Where a child could not be forked, raised or exited non-zero, the
    parent runs that child's thunks as they are reached.  Each value is
    released once it has been yielded.  On exit, the read ends of children
    not yet read are closed first, so none stays blocked on a full pipe,
    and then every such child is waited for.
    """
    children = []
    try:
        for j in range(1, procs):
            children.append(_fork(
                lambda share=thunks[j::procs]: pickle.dumps([t() for t in share])))
        mine, held = deque(), None
        try:
            for thunk in thunks[::procs]:
                mine.append(thunk())
        except Exception as exc:
            held = exc
        yield _values(thunks, procs, mine, held, children)
    finally:
        live = [(pid, fd) for pid, fd in children if pid]
        for _, fd in live:
            os.close(fd)
        for pid, _ in live:
            os.waitpid(pid, 0)
