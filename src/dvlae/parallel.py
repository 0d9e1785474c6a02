"""How many workers this process may use, and the forked process pool that
descriptors and perplexity calibration share; the t-SNE thread pool takes
the same worker cap."""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from typing import Callable, Sequence

# At most this many workers, forked or threads (only 2 CPUs were measured).
_MAX_WORKERS = 8

# The per-index function of the running pool; workers inherit it by the fork,
# so only indices and results cross the pipes.  Cleared when the pool ends,
# so that what it holds is not kept alive past the call.
_job: Callable[[int], object] | None = None


def cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def max_workers(tasks: int) -> int:
    """Workers for ``tasks`` independent tasks: one per CPU this process may
    use, at most ``_MAX_WORKERS`` and at most one per task."""
    return min(cpu_count(), _MAX_WORKERS, tasks)


def pool_workers(tasks: int, enough_work: bool) -> int:
    """Forked workers for ``tasks`` independent tasks, ``max_workers(tasks)``;
    0 (run serially) with fewer than 2 of those, without ``enough_work`` to
    pay for starting them, or where ``fork`` is missing."""
    workers = max_workers(tasks)
    return workers if workers > 1 and enough_work and _can_fork() else 0


def _can_fork() -> bool:
    # Imported here and below: multiprocessing and its connection module add
    # about 16 ms to the start-up of every command, and only workers use them.
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def fork_map(fn: Callable[[int], object], order: Sequence[int], workers: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, computed by ``workers`` forked processes
    that take the indices in chunks, in ``order`` (a permutation of
    ``range(n)``); a free worker takes the next chunk.

    ``fn`` reaches the workers by the fork, so it may be any callable; each
    result and exception comes back pickled.  A failure is the one a serial
    loop raises: that of the smallest failing index, and once it is known the
    workers are stopped.  An exception that cannot be pickled is raised by
    calling ``fn`` again here.  A worker that dies (killed, out of memory) is
    a ``RuntimeError``, not a hang."""
    from multiprocessing.connection import wait

    global _job
    n = len(order)
    size = max(1, n // (8 * workers))
    todo = iter([order[k:k + size] for k in range(0, n, size)])
    results: dict[int, tuple[bool, object]] = {}   # index -> (failed, result or exception)
    first_failed = n
    _job = fn
    try:
        with _forked_workers(workers) as free:
            busy = {}   # pipe -> process, for the workers with a chunk out
            # Once every index before the first failure is in, the rest
            # cannot change the outcome.
            while first_failed == n or any(k not in results for k in range(first_failed)):
                while free and (chunk := next(todo, None)) is not None:
                    conn, proc = free.pop()
                    conn.send(chunk)
                    busy[conn] = proc
                if not busy:
                    break
                for conn in wait(list(busy)):
                    proc = busy.pop(conn)
                    try:
                        chunk = conn.recv()
                    except (EOFError, OSError):
                        # The worker died (killed, out of memory) with its chunk.
                        proc.join()
                        raise RuntimeError(f"worker process {proc.pid} exited with "
                                           f"code {proc.exitcode}") from None
                    free.append((conn, proc))
                    for i, failed, out in chunk:
                        results[i] = (failed, out)
                        if failed:
                            first_failed = min(first_failed, i)
    finally:
        _job = None
    if first_failed < n:
        exc = results[first_failed][1]
        if exc is None:     # an exception that could not be pickled: raise it here
            fn(first_failed)
            exc = RuntimeError(f"index {first_failed} failed in a worker, not when repeated")
        raise exc
    return [results[i][1] for i in range(n)]


def _run(indices: list[int]) -> list[tuple[int, bool, object]]:
    """Per index i, (i, False, the job's result) or (i, True, the exception it
    raised), that exception None if it cannot be pickled."""
    out = []
    for i in indices:
        try:
            out.append((i, False, _job(i)))
        except Exception as exc:    # noqa: BLE001 - the parent raises it in input order
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:       # noqa: BLE001
                exc = None
            out.append((i, True, exc))
    return out


_SIGNALS = (signal.SIGINT, signal.SIGTERM)


@contextlib.contextmanager
def _forked_workers(workers: int):
    """``workers`` forked processes serving ``_run``, as a list of (pipe,
    process) pairs; leaving the block kills and reaps every one.

    Each worker has a pipe of its own, so that no worker, killed at any
    point, can hold a lock the others or the clean-up wait for.  Workers
    ignore SIGINT and die silently on SIGTERM.  While they live, SIGTERM
    unwinds this process as SIGINT does, so that the clean-up runs.  Both
    signals are blocked while workers start and while they are reaped, and
    are delivered once they are gone."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _SIGNALS)
    handler = None
    procs: list = []
    try:
        for _ in range(workers):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(child, [c for c, _ in procs] + [conn]),
                               daemon=True)
            proc.start()
            child.close()
            procs.append((conn, proc))
        if (threading.current_thread() is threading.main_thread()
                and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL):
            handler = signal.signal(signal.SIGTERM, _exit_on_signal)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield list(procs)
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, _SIGNALS)
        for conn, proc in procs:
            proc.kill()
            proc.join()
            conn.close()
        if handler is not None:
            signal.signal(signal.SIGTERM, handler)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _serve(conn, parent_ends) -> None:
    """Worker: answer each chunk of indices that arrives on ``conn`` with
    ``_run``'s results, until the parent's end closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _SIGNALS)
    # The copies of the parent's ends this fork made: closed, so that a
    # parent that dies leaves this worker at the end of its pipe.
    for end in parent_ends:
        end.close()
    try:
        while True:
            conn.send(_run(conn.recv()))
    except (EOFError, BrokenPipeError):
        pass


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)
