"""Seeds shared among forked helper processes.

``runner.run`` imports this module only when a run has more than one
worker (``runner.worker_count``), so a one-process run neither compiles it
nor imports ``multiprocessing``. Fork, not spawn: helpers inherit the
loaded data and the task function, and nothing is pickled but each seed's
manifest cells and the helper's usage.
"""

from __future__ import annotations

import ctypes
import logging
import multiprocessing
import os
import signal
import sys

from .runner import WorkerError, error_text, process_usage

log = logging.getLogger(__name__)

# prctl(2) option: the signal the kernel sends a process when its parent exits
PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this process when its parent exits (Linux),
    and exit now if ``parent`` has already gone."""
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
        prctl.restype = ctypes.c_int
        if prctl(PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0) != 0:
            log.warning("prctl(PR_SET_PDEATHSIG) failed: %s",
                        os.strerror(ctypes.get_errno()))
    if os.getppid() != parent:
        os._exit(1)


def _helper_main(work, seeds, conn, parent: int) -> None:
    """Body of a helper process: ``work`` on each of ``seeds`` in order,
    stopping at the first that raises, then one message: the results, the
    failing seed's error text (or None) and this process's usage."""
    _die_with_parent(parent)
    results, error = [], None
    for seed in seeds:
        try:
            results.append(work(seed))
        except Exception as err:
            error = error_text(err)
            break
    conn.send((results, error, process_usage()))
    conn.close()


def map_seeds(seeds: list, work, workers: int, merge, helpers: list) -> None:
    """Call ``work(seed)`` for every seed and ``merge`` on each result, in
    seed order, sharing the seeds among ``workers`` processes.

    The calling process runs the seeds at positions 0, N, 2N, ... of
    ``seeds`` (N = ``workers``) and forked helper w those at w, w + N, ...;
    each process stops at its first failing seed, and each helper sends all
    its results back through a pipe when it stops. A seed's work must
    depend on the seed alone, so the results do not depend on N. As in a
    serial loop, the first seed in seed order whose work raises ends the
    run: the results before it are merged and its error is raised (a
    helper's as ``WorkerError`` with the same text). The other processes
    still finish their seeds first, so a failed run may leave files of
    seeds after the failing one. Every helper is reaped before this returns
    or raises, and killed first if this raises before the helper reported;
    each helper's seeds, peak memory and CPU time are appended to
    ``helpers``. ``workers`` is at least 2.
    """
    ctx = multiprocessing.get_context("fork")
    # per seed position: (result, None) or (None, the error that ended its
    # process); positions after a failure stay None
    outcomes = [None] * len(seeds)
    # (process, reading end of its pipe, its seed positions, its record)
    forked = []
    try:
        for w in range(1, workers):
            positions = range(w, len(seeds), workers)
            record = {"seeds": [seeds[i] for i in positions]}
            helpers.append(record)
            conn, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_helper_main,
                               args=(work, record["seeds"], send,
                                     os.getpid()))
            proc.start()
            send.close()  # the pipe then reads EOF once the helper is gone
            forked.append((proc, conn, positions, record))
        for i in range(0, len(seeds), workers):
            try:
                outcomes[i] = (work(seeds[i]), None)
            except Exception as err:
                outcomes[i] = (None, err)
                break
        for proc, conn, positions, record in forked:
            try:
                results, error, usage = conn.recv()
            except EOFError:  # gone without reporting: fail its first seed
                proc.join()
                results, usage = [], {}
                error = (f"{WorkerError.__name__}: the helper process for "
                         f"seeds {', '.join(map(str, record['seeds']))} "
                         f"exited with code {proc.exitcode}")
            conn.close()
            record.update(usage)
            for i, result in zip(positions, results):
                outcomes[i] = (result, None)
            if error is not None:
                outcomes[positions[len(results)]] = (None, WorkerError(error))
        for result, err in outcomes:  # a None comes only after an error
            if err is not None:
                raise err
            merge(result)
    finally:
        for proc, conn, _, _ in forked:
            if not conn.closed:
                proc.kill()
                conn.close()
            proc.join()
