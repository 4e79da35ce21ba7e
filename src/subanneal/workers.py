"""The process model: every stage of every task runs through
``run_stage``, which decides how many processes share the stage's units
and which block each gets, forks and reaps the helpers, and says how a
failure in any of them reads. Fork, not spawn: helpers inherit the data,
the unit function and earlier stages' results, and nothing is pickled but
each unit's result, a failure's text and the helper's usage.
"""

from __future__ import annotations

import ctypes
import logging
import os
import signal
import sys

try:
    import resource
except ImportError:  # pragma: no cover - not available on Windows
    resource = None

log = logging.getLogger(__name__)

# prctl(2) option: the signal the kernel sends a process when its parent exits
PR_SET_PDEATHSIG = 1


class WorkerError(RuntimeError):
    """A unit of work failed in a helper process. The message is the failure
    as the helper reported it, ``"<type>: <message>"``: what a serial run
    reports for the same failure (see ``error_text``)."""


def error_text(err: BaseException) -> str:
    """How a run reports ``err``: its type name and message."""
    if isinstance(err, WorkerError):
        return str(err)
    return f"{type(err).__name__}: {err}"


def process_usage() -> dict:
    """This process's peak resident memory and CPU time so far, where the
    platform reports them. The peak is ``VmHWM`` where /proc/self/status
    has it (Linux carries ``ru_maxrss`` across ``exec``, from the launching
    process), else ``ru_maxrss`` (KiB on Linux, bytes on macOS)."""
    if resource is None:
        return {}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak = usage.ru_maxrss / (1024.0 if sys.platform == "darwin" else 1.0)
    try:
        with open("/proc/self/status") as fh:
            peak = next(int(line.split()[1]) for line in fh
                        if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return {"peak_rss_mb": peak / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def worker_count(cfg, units: int) -> int:
    """The processes a stage of ``units`` units of work of a run of ``cfg``
    is shared among: the CPUs this process may run on, at most one per
    unit and, for an ``ablate`` sweep, at most one per seed (so a one-seed
    sweep forks nothing); 1 where the platform cannot fork or report its
    CPUs."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if cfg.task == "ablate":
        units = min(units, len(cfg.seeds))
    return min(len(os.sched_getaffinity(0)), units)


def unit_blocks(count: int, workers: int) -> list:
    """Split unit positions ``0 .. count - 1`` into ``workers`` contiguous
    ranges in order, the first for the calling process; their sizes differ
    by at most one, the larger ones first."""
    size, extra = divmod(count, workers)
    bounds = [w * size + min(w, extra) for w in range(workers + 1)]
    return [range(bounds[w], bounds[w + 1]) for w in range(workers)]


def _run_block(work, units) -> tuple:
    """``work`` on each of ``units`` in order, stopping at the first that
    raises: (the results before it, its exception or None)."""
    results = []
    for unit in units:
        try:
            results.append(work(unit))
        except Exception as err:
            return results, err
    return results, None


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


def _helper_main(work, units, conn, parent: int) -> None:
    """Body of a helper process: its block (``_run_block``), then one
    message: the results, the failing unit's error text (or None) and
    this process's usage."""
    _die_with_parent(parent)
    results, err = _run_block(work, units)
    conn.send((results, None if err is None else error_text(err),
               process_usage()))
    conn.close()


def run_stage(cfg, units: list, work, helpers: list) -> tuple:
    """Call ``work(unit)`` for every unit of a stage of a run of ``cfg``,
    sharing the units among ``worker_count(cfg, len(units))`` processes;
    returns (the results in unit order, up to the first unit whose work
    raised; that unit's exception or None; the process count).

    The calling process runs the first of ``unit_blocks`` and forked helper
    w the (w+1)-th; a one-process stage forks nothing and imports no
    ``multiprocessing``. Each process stops at its first failing unit, and
    each helper sends all its results back through a pipe when it stops. A
    unit's work must depend on that unit alone, so the results do not
    depend on the process count. As in a serial loop, the first failing
    unit in unit order decides the error; a helper's comes back as
    ``WorkerError`` with the same text, and a helper that exits without
    reporting fails its first unit. The other processes still finish their
    blocks first, so a failed stage may leave files of units after the
    failing one. Every helper is reaped before this returns or raises, and
    killed first if this raises before the helper reported; each helper's
    units, peak memory and CPU time are appended to ``helpers``.
    """
    count = worker_count(cfg, len(units))
    blocks = unit_blocks(len(units), count)
    # (process, reading end of its pipe, its block, its record)
    forked = []
    try:
        if count > 1:  # imported only by a stage that forks
            import multiprocessing
            ctx = multiprocessing.get_context("fork")
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
        results, error = _run_block(work, units[:len(blocks[0])])
        for proc, conn, block, record in forked:
            try:
                got, failure, usage = conn.recv()
            except EOFError:  # gone without reporting: fail its first unit
                proc.join()
                got, usage = [], {}
                failure = (f"WorkerError: the helper process for units "
                           f"{units[block[0]]!r} to {units[block[-1]]!r} "
                           f"exited with code {proc.exitcode}")
            conn.close()
            record.update(usage)
            if error is None:  # else an earlier block failed first
                results += got
                if failure is not None:
                    error = WorkerError(failure)
        return results, error, count
    finally:
        for proc, conn, _, _ in forked:
            if not conn.closed:
                proc.kill()
                conn.close()
            proc.join()
