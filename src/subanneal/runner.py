"""Experiment execution: datasets in, metric CSVs and manifests out.

A run executes one task from a validated config. Metric files are plain CSV
with a fixed column set; they, the JSON files and every ``.ssam`` file are
written atomically (``write_atomic``). The manifest (written at the end)
records the config, its hash, the seeds, every metric file produced,
wall-clock time in all and per stage, peak resident memory
(``peak_rss_mb``) and CPU time, the number of worker processes and each
helper's own memory and CPU time, the BLAS thread count, the malloc
settings ``run`` applied to the process, and the library version.
Re-running the same config in deterministic mode reproduces the metric files
and ensemble summaries byte for byte, whatever the number of workers; wall
clock and memory live only in the manifest so they never break that
contract.

Every task runs as a list of stages (``run_stages``), each a list of units
of work, and ``run`` drives them all through one loop: ``train-parent`` is
one stage, "parents"; ``prune-tune``/``ablate`` train each seed's parent
into the run's parent cache in "parents", then tune one ``(seed, cell)``
unit each in "cells"; ``ensemble`` runs "parents", "members" and "scores"
(``ensemble_task``), ``eval`` only "scores". A unit's outputs depend on
that unit alone and on files earlier stages wrote: a later unit loads its
seed's parent from the cache file its "parents" unit reported, and draws
from its own ``substream(seed, ...)`` streams. So ``run`` can hand
contiguous blocks of a stage's units to forked helper processes
(``workers.map_units``) and keep what they report in unit order.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import json
import logging
import os
import platform
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - not available on Windows
    resource = None

import numpy as np

from . import __version__
from .annealing import (
    FixedMaskController,
    IterativeController,
    RandomAnnealConfig,
    TemperatureConfig,
    random_anneal_controller,
    temperature_controller,
    tune,
)
from .config import ConfigError, ExperimentConfig
from .data import (
    NormalizedRows,
    load_dataset,
    normalization_stats,
)
from .ensemble import corrupt, train_parent
from .masks import MaskSet, load_mask_set, load_weights, save_weights
from .metrics import evaluate
from .models import build_model
from .nn.optim import make_optimizer
from .nn.schedules import (
    Constant,
    OneCycle,
    StepDecay,
    lr_at,
    parent_stepwise,
)
from .pruning import PruneSpec, magnitude_mask, random_mask
from .rng import substream
from .training import predict_logits

log = logging.getLogger(__name__)

METRICS_COLUMNS = ("epoch", "train_loss", "test_acc", "test_nll", "test_ece",
                   "realized_sparsity", "lr", "mean_active_fraction")

SUMMARY_COLUMNS = ("method", "selector", "lr_schedule", "rho", "mean_acc",
                   "std_acc", "mean_nll", "mean_ece", "epochs", "seed_count",
                   "phi", "tau0", "best_in_method")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_atomic(path, write) -> None:
    """``write(tmp)`` the whole file at a per-process name beside ``path``,
    then rename it to ``path``, so no partial ``path`` is ever seen; ``tmp``
    is removed when ``write`` raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path, columns, rows) -> None:
    """A ``columns`` header, then one line per dict in ``rows``."""
    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row.get(col)) for col in columns])
    write_atomic(path, write)


def write_metrics_csv(path, rows) -> None:
    _write_csv(path, METRICS_COLUMNS, rows)


def read_metrics_csv(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = {}
            for key, value in raw.items():
                if value == "" or value is None:
                    row[key] = None
                elif key == "epoch":
                    row[key] = int(value)
                else:
                    row[key] = float(value)
            rows.append(row)
    return rows


def write_json_atomic(path, payload: dict) -> None:
    """``payload`` as strict JSON (a NaN or infinity raises ValueError, and
    nothing is written), atomically."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    write_atomic(path, lambda tmp: tmp.write_text(text + "\n"))


# --- process settings: BLAS threads and the allocator ---------------------------

# OpenBLAS names its thread-count functions
# ``<prefix>_{set,get}_num_threads<suffix>``: prefix "scipy_openblas" in the
# builds numpy wheels ship, suffix "64_" in builds with 64-bit integers.
OPENBLAS_PREFIXES = ("scipy_openblas", "openblas")
OPENBLAS_SUFFIXES = ("64_", "")

# glibc malloc settings ``run`` applies to its process, by mallopt parameter
# (malloc.h). Freed memory up to 256 MB stays at the top of the heap, and
# every allocation under 64 MB comes from the heap, so batch, activation and
# gradient arrays reuse memory instead of being returned to the kernel and
# faulted back in on every step. Fixing the mmap threshold also stops glibc
# from moving it with whatever large block was freed last.
MALLOC_SETTINGS = {"M_TRIM_THRESHOLD": (-1, 256 << 20),
                   "M_MMAP_THRESHOLD": (-3, 64 << 20)}


def _blas_thread_functions():
    """``(set_num_threads, get_num_threads)`` of the OpenBLAS library this
    process has loaded (numpy's), found through the process's memory map;
    None when there is none or it exports no such pair."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:  # no /proc: not Linux
        return None
    paths = sorted({fields[5] for fields in
                    (line.split(maxsplit=5) for line in maps.splitlines())
                    if len(fields) == 6
                    and "openblas" in Path(fields[5]).name})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in OPENBLAS_PREFIXES:
            for suffix in OPENBLAS_SUFFIXES:
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}",
                                 None)
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                 None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = (ctypes.c_int,), None
                    getter.argtypes, getter.restype = (), ctypes.c_int
                    return setter, getter
    return None


def limit_blas_threads(n: int) -> None:
    """Cap the BLAS pool at ``n`` threads through OpenBLAS's own setter; one
    thread makes trajectories bit-reproducible. Without a setter this logs
    an error and leaves the count unchanged."""
    functions = _blas_thread_functions()
    if functions is None:
        log.error("no OpenBLAS thread setter found: BLAS thread count "
                  "unchanged, so results may not be bit-reproducible")
        return
    functions[0](n)


def blas_threads() -> int | None:
    """The BLAS pool's thread count, or None when no OpenBLAS is found."""
    functions = _blas_thread_functions()
    return None if functions is None else int(functions[1]())


def tune_allocator() -> dict | None:
    """Apply ``MALLOC_SETTINGS`` to this process's malloc; returns the
    settings glibc accepted, by name, or None when libc is not glibc."""
    if platform.libc_ver()[0] != "glibc":
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = {}
    for name, (param, value) in MALLOC_SETTINGS.items():
        if mallopt(param, value) == 1:
            applied[name] = value
        else:
            log.warning("glibc rejected mallopt %s=%d", name, value)
    return applied


# --- data and model assembly -------------------------------------------------

class RunData:
    """Train/test model inputs, and corrupted test inputs on demand.

    The loaders apply ``train_subset``/``test_subset`` and return uint8
    pixels (float features for blobs). Both ``x_train`` and ``x_test``
    keep those pixels and normalize the rows asked for as they are sliced
    (``NormalizedRows``), so no float copy of either split is held;
    ``x_test.raw`` is the test pixels. Model inputs are in the config's
    dtype, so a float32 network sees float32 batches and its logits and
    gradients stay float32; a corrupted test set is built and normalized in
    float64, then rounded once to that dtype.
    """

    def __init__(self, cfg: ExperimentConfig):
        blobs = cfg.blobs
        if cfg.dataset == "synthetic-blobs":
            train = load_dataset("synthetic-blobs", "train",
                                 limit=cfg.train_subset, n=blobs["n"],
                                 d=blobs["d"], k=blobs["k"],
                                 separation=blobs["separation"],
                                 data_seed=blobs["data_seed"])
            test = load_dataset("synthetic-blobs", "test",
                                limit=cfg.test_subset,
                                n=max(blobs["n"] // 4, blobs["k"]),
                                d=blobs["d"], k=blobs["k"],
                                separation=blobs["separation"],
                                data_seed=blobs["data_seed"])
        else:
            train = load_dataset(cfg.dataset, "train", limit=cfg.train_subset)
            test = load_dataset(cfg.dataset, "test", limit=cfg.test_subset)
        self.num_classes = train.num_classes
        self.input_shape = tuple(train.x.shape[1:])
        self.dtype = _dtype(cfg)
        self.mean, self.std = normalization_stats(train.x)
        self.x_train = NormalizedRows(train.x, self.mean, self.std,
                                      self.dtype)
        self.y_train = train.y
        self.x_test = NormalizedRows(test.x, self.mean, self.std, self.dtype)
        self.y_test = test.y

    def corrupted(self, severity: int, seed: int) -> np.ndarray:
        """Normalized model inputs of the test set corrupted at
        ``severity``, built from the test pixels in the one array of the
        run's dtype ``corrupt`` returns. Pass it straight to the scoring
        call, so it is freed before the next severity's is built."""
        return corrupt(self.x_test.raw, severity,
                       substream(seed, "corrupt", severity),
                       stats=(self.mean, self.std), dtype=self.dtype)

    def test_inputs(self, which, seed: int):
        """The test set for ``"clean"``, else ``corrupted(which, seed)``."""
        return self.x_test if which == "clean" else self.corrupted(which, seed)


def _dtype(cfg: ExperimentConfig):
    return np.float64 if cfg.dtype == "float64" else np.float32


def build_net(cfg: ExperimentConfig, data: RunData, seed: int):
    return build_model(cfg.model, data.input_shape, data.num_classes,
                       substream(seed, "init"), dtype=_dtype(cfg))


def build_training(cfg: ExperimentConfig, desc: dict, epochs: int,
                   n_train: int):
    """The schedule an ``lr``/``parent_lr`` entry describes for ``epochs`` of
    training on ``n_train`` examples, and a fresh optimizer to go with it.

    The optimizer's own rate only has to be valid: ``run_epoch`` passes the
    scheduled rate on every step.
    """
    steps_per_epoch = -(-n_train // cfg.batch_size)
    kind = desc["kind"]
    if kind == "constant":
        schedule = Constant(desc["value"])
    elif kind == "onecycle":
        schedule = OneCycle(desc["start"], desc["max"], desc["end"],
                            desc["warmup_fraction"],
                            max(epochs * steps_per_epoch, 1))
    elif kind == "step":
        schedule = StepDecay(tuple((e, v) for e, v in desc["breakpoints"]))
    else:
        schedule = parent_stepwise(max(epochs, 1), desc["hi"], desc["lo"])
    opt = cfg.optimizer
    optimizer = make_optimizer(
        opt["kind"], lr_at(schedule, 0), momentum=opt["momentum"],
        nesterov=opt["nesterov"], weight_decay=opt["weight_decay"],
        beta1=opt["beta1"], beta2=opt["beta2"], eps=opt["eps"])
    return schedule, optimizer


# --- parents ------------------------------------------------------------------

def parent_cache_key(cfg: ExperimentConfig, seed: int) -> str:
    import hashlib

    relevant = {
        "dataset": cfg.dataset, "model": cfg.model,
        "parent_epochs": cfg.parent_epochs, "parent_lr": cfg.parent_lr,
        "optimizer": cfg.optimizer, "batch_size": cfg.batch_size,
        "train_subset": cfg.train_subset, "blobs": cfg.blobs,
        "dtype": cfg.dtype, "seed": seed, "version": __version__,
    }
    canon = json.dumps(relevant, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def check_fits(what: str, got: dict, want: dict) -> None:
    """Raise ``ConfigError`` unless ``got`` names exactly the arrays of
    ``want`` with their shapes (both name -> array); the message lists
    every missing, unexpected and misshapen array of ``what``."""
    problems = []
    missing = [name for name in want if name not in got]
    if missing:
        problems.append(f"missing {missing}")
    unexpected = [name for name in got if name not in want]
    if unexpected:
        problems.append(f"unexpected {unexpected}")
    for name, array in want.items():
        if name in got and got[name].shape != array.shape:
            problems.append(f"{name} has shape {got[name].shape}, "
                            f"the model needs {array.shape}")
    if problems:
        raise ConfigError(f"{what} does not fit the model: "
                          + "; ".join(problems))


def load_params(net, path) -> None:
    """Set ``net``'s parameters from a weights container that names every
    parameter with its shape (else ``ConfigError``, before any is set);
    ``set_param`` casts each to the network's dtype."""
    values = load_weights(path)
    check_fits(f"weights file {path}", values, net.params())
    for name, value in values.items():
        net.set_param(name, value)


def load_net(cfg: ExperimentConfig, data: RunData, seed: int, path):
    """``cfg``'s network with the parameters of the weights file ``path``."""
    net = build_net(cfg, data, seed)
    load_params(net, path)
    return net


def trained_parent(cfg: ExperimentConfig, data: RunData, seed: int, path,
                   eval_data=None) -> list:
    """``seed``'s parent, trained and its weights written to ``path``;
    returns its per-epoch rows, each scored on ``eval_data`` if given."""
    net = build_net(cfg, data, seed)
    schedule, optimizer = build_training(cfg, cfg.parent_lr,
                                         cfg.parent_epochs, len(data.y_train))
    rows = train_parent(net, (data.x_train, data.y_train),
                        cfg.parent_epochs, optimizer, schedule,
                        cfg.batch_size, substream(seed, "shuffle", "parent"),
                        eval_data=eval_data)
    # two workers that share a seed can write its cache entry at once
    write_atomic(path, functools.partial(save_weights, net.params()))
    return rows


def get_parent(cfg, data, out_dir, done, seed) -> str:
    """Stage "parents" of a sweep or an ensemble: the seed's parent in the
    run's parent cache, trained into it unless it is there already;
    returns its path relative to ``out_dir``."""
    key = parent_cache_key(cfg, seed)
    path = out_dir / "parents" / f"parent-{key}-s{seed}.ssam"
    if not path.exists():
        trained_parent(cfg, data, seed, path)
    return str(path.relative_to(out_dir))


# --- single method cell --------------------------------------------------------

def make_controller(method: str, cfg: ExperimentConfig, net, seed: int,
                    rho: float, phi: int, tau0: float):
    """The subnetwork controller that tunes ``net`` in one (method, rho,
    phi, tau0) cell. Magnitude selection and iterative pruning read
    ``net``'s weights.

    One-shot and temperature annealing draw the target mask from the same
    named stream, so paired-seed comparisons share identical targets.
    """
    weights = net.weights()
    spec = PruneSpec(cfg.selector, rho, cfg.granularity)
    mask_rng = substream(seed, "mask")
    if method in ("oneshot", "temperature-anneal"):
        target = (random_mask(net.weight_shapes(), spec, mask_rng)
                  if cfg.selector == "random" else magnitude_mask(weights, spec))
        if method == "oneshot":
            return FixedMaskController(target)
        tau_cfg = TemperatureConfig(tau0=tau0, variant=cfg.variant,
                                    decay=cfg.decay_for(method),
                                    anneal_epochs=phi)
        return temperature_controller(target, tau_cfg)
    if method == "iterative":
        return IterativeController(spec, max(phi, 1), weights, mask_rng)
    if method == "random-anneal":
        rand_cfg = RandomAnnealConfig(
            rho=rho, anneal_epochs=phi, distribution=cfg.distribution,
            decay=cfg.decay_for(method), mu1=cfg.bimodal_mu1,
            sigma1=cfg.bimodal_sigma1, mu2=cfg.bimodal_mu2,
            sigma2=cfg.bimodal_sigma2)
        return random_anneal_controller(net.weight_shapes(), rand_cfg,
                                        mask_rng)
    raise ValueError(f"unknown method {method!r}")


def run_cell(cfg: ExperimentConfig, data: RunData, net, seed: int,
             method: str, rho: float, phi: int, tau0: float) -> list:
    """Tune ``net``, the seed's parent, in place as one cell's child;
    returns its per-epoch rows."""
    controller = make_controller(method, cfg, net, seed, rho, phi, tau0)
    schedule, optimizer = build_training(cfg, cfg.lr, cfg.epochs,
                                         len(data.y_train))
    return tune(net, controller, (data.x_train, data.y_train), cfg.epochs,
                schedule, optimizer, cfg.batch_size,
                rng_shuffle=substream(seed, "shuffle", "child"),
                rng_mask=substream(seed, "bernoulli"),
                eval_data=(data.x_test, data.y_test), eval_mode=cfg.eval_mask)


def _cell_slug(method: str, rho: float, phi: int, tau0: float) -> str:
    base = f"{method}-rho{rho}-phi{phi}"
    if method == "temperature-anneal":
        base += f"-tau{tau0}"
    return base.replace(".", "p")


def _cell_grid(cfg: ExperimentConfig):
    cells = []
    for method in cfg.method:
        for rho in cfg.rho:
            phis = cfg.phi if method != "oneshot" else [0]
            for phi in phis:
                taus = cfg.tau0 if method == "temperature-anneal" else [0.0]
                for tau0 in taus:
                    cells.append((method, rho, phi, tau0))
    return cells


# --- worker processes ------------------------------------------------------------

class WorkerError(RuntimeError):
    """A unit of work failed in a helper process. The message is the failure
    as the helper reported it, ``"<type>: <message>"``: what a serial run
    reports for the same failure (see ``error_text``)."""


def error_text(err: BaseException) -> str:
    """How a run reports ``err``: its type name and message."""
    if isinstance(err, WorkerError):
        return str(err)
    return f"{type(err).__name__}: {err}"


def worker_count(cfg: ExperimentConfig, units: int) -> int:
    """The processes a stage of ``units`` units of work of a run of ``cfg``
    is shared among: the CPUs this process may run on, at most one per
    unit and, for ``prune-tune``/``ablate``, at most one per seed (so a
    one-seed sweep forks nothing); 1 where the platform cannot fork or
    report its CPUs."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if cfg.task in ("prune-tune", "ablate"):
        units = min(units, len(cfg.run_seeds()))
    return min(len(os.sched_getaffinity(0)), units)


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


# --- tasks ---------------------------------------------------------------------

def run(cfg: ExperimentConfig) -> Path:
    """Execute the config; returns the manifest path.

    Every task runs its stages (``run_stages``) in turn, each stage's
    units shared among ``worker_count(cfg, units)`` processes; the outputs
    do not depend on how many. As in a serial run, seed by seed, the first
    seed that fails in any stage fails the run: later stages run only the
    seeds before it, which finish every stage. A stage's results are kept
    by unit in ``done[stage][unit]``, which later units read and forked
    helpers inherit. The manifest's cells and metric files are then
    written from them (``_write_results``).

    The process's malloc keeps ``MALLOC_SETTINGS`` afterwards (on glibc);
    with ``cfg.deterministic`` or more than one worker in any stage its BLAS
    pool keeps one thread, as every helper's does. Failures are recorded in
    the manifest (status: failed, ``error`` as ``error_text`` gives it) and
    re-raised so callers can exit nonzero.
    """
    allocator = tune_allocator()
    workers = max(worker_count(cfg, len(units))
                  for _, units, _ in run_stages(cfg))
    if cfg.deterministic or workers > 1:
        limit_blas_threads(1)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    started = time.perf_counter()
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seeds": cfg.run_seeds(),
        "status": "running",
        "allocator": allocator,
        "blas_threads": blas_threads(),
        "workers": workers,
        "stages": [],
        "helpers": [],
        "cells": [],
        "metrics_files": [],
    }
    try:
        data = RunData(cfg)
        seeds, done, error = cfg.run_seeds(), {}, None
        for name, units, work in run_stages(cfg):
            units = [unit for unit in units if _unit_seed(unit) in seeds]
            done[name], results = {}, []
            if not units:  # every seed failed in an earlier stage
                continue
            count = worker_count(cfg, len(units))
            stage_started = time.perf_counter()
            work = functools.partial(work, cfg, data, out_dir, done)
            try:
                if count == 1:
                    for unit in units:
                        results.append(work(unit))
                else:  # compiled and imported only by a run that forks
                    from .workers import map_units
                    map_units(units, work, count, results.append,
                              manifest["helpers"])
            except Exception as err:  # before any earlier failed seed
                error = err
                failed = _unit_seed(units[len(results)])
                seeds = seeds[:seeds.index(failed)]
            manifest["stages"].append({
                "name": name, "workers": count,
                "wall_s": time.perf_counter() - stage_started})
            done[name] = dict(zip(units, results))
        manifest["cells"], manifest["metrics_files"] = _write_results(
            cfg, out_dir, done, seeds)
        if error is not None:
            raise error
        if cfg.task == "ablate":
            rows = summarize_manifests([manifest_path],
                                       manifest_payloads=[manifest],
                                       base_dirs=[out_dir])
            write_summary_csv(out_dir / "summary.csv", rows)
        manifest["status"] = "ok"
    except Exception as err:
        manifest["status"] = "failed"
        manifest["error"] = error_text(err)
        _finish_manifest(manifest, started)
        write_json_atomic(manifest_path, manifest)
        raise
    _finish_manifest(manifest, started)
    write_json_atomic(manifest_path, manifest)
    return manifest_path


def _finish_manifest(manifest: dict, started: float) -> None:
    """Wall clock and, where the platform reports them, this process's peak
    resident memory and CPU time so far, plus ``peak_rss_mb_sum``: its peak
    plus every helper's, an upper bound on the run's resident memory at any
    moment (pages a helper shares with this process count twice)."""
    manifest["wall_clock_s"] = time.perf_counter() - started
    manifest.update(process_usage())
    if "peak_rss_mb" in manifest:
        manifest["peak_rss_mb_sum"] = manifest["peak_rss_mb"] + sum(
            helper.get("peak_rss_mb", 0.0) for helper in manifest["helpers"])


def run_stages(cfg: ExperimentConfig) -> list:
    """``(name, units, work)`` of each stage of a run of ``cfg``, in the
    order the stages run and, within one, the order its results are kept.
    ``work(cfg, data, out_dir, done, unit)`` does one unit (``done`` as
    ``run`` keeps it) and returns its result.

    - ``prune-tune``/``ablate``: "parents", one unit per seed
      (``get_parent``); "cells", a ``(seed, method, rho, phi, tau0)``
      unit for every seed and, within it, every cell in ``_cell_grid``
      order (``_sweep_cell``);
    - ``train-parent``: "parents", one unit per seed (``_seed_parent``);
    - ``ensemble``: "parents" as for sweeps; "members", a ``(seed,
      member)`` unit per member of every seed; "scores", a ``(seed, set)``
      unit per scoring set of every seed: ``"clean"`` (the test set), then
      each corruption severity (``ensemble_task``);
    - ``eval``: "scores", as for ``ensemble`` (``_score_weights``).
    """
    seeds = cfg.run_seeds()
    sets = [(seed, which) for seed in seeds
            for which in ("clean", *cfg.ensemble["corruption_severities"])]
    if cfg.task == "eval":
        return [("scores", sets, _score_weights)]
    if cfg.task == "train-parent":
        return [("parents", seeds, _seed_parent)]
    parents = ("parents", seeds, get_parent)
    if cfg.task != "ensemble":
        return [parents, ("cells", [(seed, *cell) for seed in seeds
                                    for cell in _cell_grid(cfg)],
                          _sweep_cell)]
    from . import ensemble_task  # compiled only by an ensemble run
    return [parents,
            ("members", [(seed, i) for seed in seeds
                         for i in range(cfg.ensemble["n_members"])],
             ensemble_task.tune_one_member),
            ("scores", sets, ensemble_task.score_one_set)]


def _unit_seed(unit) -> int:
    """The seed a unit of ``run_stages`` belongs to: the unit itself or its
    first entry."""
    return unit if isinstance(unit, int) else unit[0]


def _seed_parent(cfg, data, out_dir, done, seed) -> dict:
    """``train-parent`` for one seed: its metric CSV and weights."""
    weights_path = out_dir / f"parent-s{seed}.weights.ssam"
    rows = trained_parent(cfg, data, seed, weights_path,
                          (data.x_test, data.y_test))
    csv_path = out_dir / "metrics" / f"parent-s{seed}.csv"
    write_metrics_csv(csv_path, rows)
    return {
        "method": "parent", "selector": "-", "lr_schedule":
            cfg.parent_lr["kind"], "rho": 0.0, "phi": 0, "tau0": 0.0,
        "epochs": cfg.parent_epochs, "seed": seed,
        "metrics": str(csv_path.relative_to(out_dir)),
        "weights": str(weights_path.relative_to(out_dir)),
    }


def _sweep_cell(cfg, data, out_dir, done, unit) -> dict:
    """Stage "cells": one ``(seed, method, rho, phi, tau0)`` cell tuned
    from the seed's cached parent; returns its manifest cell."""
    seed, method, rho, phi, tau0 = unit
    net = load_net(cfg, data, seed, out_dir / done["parents"][seed])
    rows = run_cell(cfg, data, net, seed, method, rho, phi, tau0)
    slug = _cell_slug(method, rho, phi, tau0)
    csv_path = out_dir / "metrics" / f"{slug}-s{seed}.csv"
    write_metrics_csv(csv_path, rows)
    return {
        "method": method, "selector": cfg.selector,
        "lr_schedule": cfg.lr["kind"], "rho": rho, "phi": phi,
        "tau0": tau0, "epochs": cfg.epochs, "seed": seed,
        "metrics": str(csv_path.relative_to(out_dir)),
        "parent": done["parents"][seed],
    }


def _score_weights(cfg, data, out_dir, done, unit) -> dict:
    """Stage "scores" of ``eval``: ``cfg.weights``, under ``cfg.mask`` when
    given, scored on one ``(seed, set)`` set (``RunData.test_inputs``);
    the record reports the mask's sparsity."""
    seed, which = unit
    net = load_net(cfg, data, seed, cfg.weights)
    mask = None
    if cfg.mask:
        mask = load_mask_set(cfg.mask)
        check_fits(f"mask file {cfg.mask}", mask.masks, net.weights())
        mask = MaskSet({name: mask[name] for name in net.weights()})
    record = evaluate(predict_logits(net, data.test_inputs(which, seed),
                                     mask=mask), data.y_test)
    record.realized_sparsity = 0.0 if mask is None else mask.sparsity()
    return record.to_dict()


def _write_results(cfg, out_dir, done, seeds) -> tuple:
    """The manifest's cells and metric files, written from the results in
    ``done`` of the ``seeds`` that finished every stage."""
    if cfg.task == "eval":  # no cell; the records of its seed, if finished
        sets = ("clean", *cfg.ensemble["corruption_severities"])
        for seed in seeds:
            clean, *corrupted = [done["scores"][seed, which] for which in sets]
            write_json_atomic(out_dir / "eval.json", {
                "config": cfg.to_dict(), "clean": clean,
                "corrupted": dict(zip(map(str, sets[1:]), corrupted))})
        return [], ["eval.json" for _ in seeds]
    if cfg.task == "ensemble":
        from .ensemble_task import write_summaries
        cells = write_summaries(cfg, out_dir, done, seeds)
    else:  # the last stage's results
        cells = list(list(done.values())[-1].values())
    return cells, [cell["metrics"] for cell in cells]


# --- summaries -------------------------------------------------------------------

def summarize_manifests(manifest_paths, manifest_payloads=None,
                        base_dirs=None) -> list:
    """Aggregate final-epoch metrics per cell across repeats.

    Accuracy std is the sample standard deviation (n-1), zero for a single
    repeat. The best mean accuracy within each (method, selector,
    lr_schedule, rho) group gets best_in_method = 1, so the best-over-
    hyperparameters reading of the table stays recoverable.
    """
    if manifest_payloads is None:
        manifest_payloads = []
        base_dirs = []
        for path in manifest_paths:
            path = Path(path)
            manifest_payloads.append(json.loads(path.read_text()))
            base_dirs.append(path.parent)

    datasets = {m["config"]["dataset"] for m in manifest_payloads}
    if len(datasets) > 1:
        raise ValueError(f"cannot summarize mixed datasets: {sorted(datasets)}")

    groups = {}
    for payload, base in zip(manifest_payloads, base_dirs):
        for cell in payload["cells"]:
            if cell["method"] in ("parent", "ensemble"):
                continue
            key = (cell["method"], cell["selector"], cell["lr_schedule"],
                   cell["rho"], cell["phi"], cell["tau0"], cell["epochs"])
            rows = read_metrics_csv(Path(base) / cell["metrics"])
            final = rows[-1]
            groups.setdefault(key, []).append(final)

    out = []
    for key, finals in sorted(groups.items()):
        method, selector, lr_schedule, rho, phi, tau0, epochs = key
        accs = [f["test_acc"] for f in finals]
        nlls = [f["test_nll"] for f in finals]
        eces = [f["test_ece"] for f in finals]
        out.append({
            "method": method, "selector": selector,
            "lr_schedule": lr_schedule, "rho": rho,
            "mean_acc": float(np.mean(accs)),
            "std_acc": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0,
            "mean_nll": float(np.mean(nlls)),
            "mean_ece": float(np.mean(eces)),
            "epochs": epochs, "seed_count": len(accs),
            "phi": phi, "tau0": tau0, "best_in_method": 0,
        })
    best = {}
    for i, row in enumerate(out):
        key = (row["method"], row["selector"], row["lr_schedule"], row["rho"])
        if key not in best or out[best[key]]["mean_acc"] < row["mean_acc"]:
            best[key] = i
    for i in best.values():
        out[i]["best_in_method"] = 1
    return out


def write_summary_csv(path, rows) -> None:
    _write_csv(path, SUMMARY_COLUMNS, rows)


def summarize_dir(directory) -> Path:
    """Summarize every manifest below ``directory`` into summary.csv."""
    directory = Path(directory)
    manifests = sorted(directory.glob("**/manifest.json"))
    if not manifests:
        raise FileNotFoundError(f"no manifest.json under {directory}")
    rows = summarize_manifests(manifests)
    out = directory / "summary.csv"
    write_summary_csv(out, rows)
    return out
