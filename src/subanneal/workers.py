"""Units of work shared among forked helper processes, a contiguous block
each.

``runner.run`` imports this module only when a run has more than one
worker (``runner.worker_count``), so a one-process run neither compiles it
nor imports ``multiprocessing``. Fork, not spawn: helpers inherit the
data, the unit function and earlier stages' results, and nothing is
pickled but each unit's result, a failure's text and the helper's usage.
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


def unit_blocks(count: int, workers: int) -> list:
    """Split unit positions ``0 .. count - 1`` into ``workers`` contiguous
    ranges in order, the first for the calling process; their sizes differ
    by at most one, the larger ones first."""
    size, extra = divmod(count, workers)
    bounds = [w * size + min(w, extra) for w in range(workers + 1)]
    return [range(bounds[w], bounds[w + 1]) for w in range(workers)]


def _helper_main(work, units, conn, parent: int) -> None:
    """Body of a helper process: ``work`` on each of ``units`` in order,
    stopping at the first that raises, then one message: the results, the
    failing unit's error text (or None) and this process's usage."""
    _die_with_parent(parent)
    results, error = [], None
    for unit in units:
        try:
            results.append(work(unit))
        except Exception as err:
            error = error_text(err)
            break
    conn.send((results, error, process_usage()))
    conn.close()


def map_units(units: list, work, workers: int, merge, helpers: list) -> None:
    """Call ``work(unit)`` for every unit and ``merge`` on each result, in
    unit order, sharing the units among ``workers`` processes.

    ``unit_blocks`` gives each process a contiguous block of ``units``: the
    calling process runs the first and forked helper w the (w+1)-th. Each
    process stops at its first failing unit, and each helper sends all its
    results back through a pipe when it stops. A unit's work must depend on
    that unit alone, so the results do not depend on ``workers``. As in a
    serial loop, the first unit in unit order whose work raises ends the
    run: the results before it are merged and its error is raised (a
    helper's as ``WorkerError`` with the same text). A helper that exits
    without reporting fails its first unit. The other processes still
    finish their blocks first, so a failed run may leave files of units
    after the failing one. Every helper is reaped before this returns or
    raises, and killed first if this raises before the helper reported;
    each helper's units, peak memory and CPU time are appended to
    ``helpers``. ``workers`` is at least 2.
    """
    ctx = multiprocessing.get_context("fork")
    blocks = unit_blocks(len(units), workers)
    # per unit position: (result, None) or (None, the error that ended its
    # process); positions after a failure stay None
    outcomes = [None] * len(units)
    # (process, reading end of its pipe, its block, its record)
    forked = []
    try:
        for block in blocks[1:]:
            record = {"units": units[block.start:block.stop]}
            helpers.append(record)
            conn, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_helper_main,
                               args=(work, record["units"], send,
                                     os.getpid()))
            proc.start()
            send.close()  # the pipe then reads EOF once the helper is gone
            forked.append((proc, conn, block, record))
        for i in blocks[0]:
            try:
                outcomes[i] = (work(units[i]), None)
            except Exception as err:
                outcomes[i] = (None, err)
                break
        for proc, conn, block, record in forked:
            try:
                results, error, usage = conn.recv()
            except EOFError:  # gone without reporting: fail its first unit
                proc.join()
                results, usage = [], {}
                error = (f"{WorkerError.__name__}: the helper process for "
                         f"units {units[block[0]]!r} to "
                         f"{units[block[-1]]!r} exited with code "
                         f"{proc.exitcode}")
            conn.close()
            record.update(usage)
            for i, result in zip(block, results):
                outcomes[i] = (result, None)
            if error is not None:
                outcomes[block[len(results)]] = (None, WorkerError(error))
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
