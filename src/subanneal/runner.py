"""Experiment execution: datasets in, metric CSVs and manifests out.

A run executes one task from a validated config. Metric files are plain CSV
with a fixed column set; they, the JSON files and every ``.ssam`` file are
written atomically (``write_atomic``). The manifest (written at the end)
records the config, its hash, the seeds, every metric file produced,
wall-clock time in all and per stage, peak resident memory
(``peak_rss_mb``) and CPU time, the number of worker processes and each
helper's own memory and CPU time, the BLAS thread count, the malloc
settings ``run`` applied to the process, and the library version.
Every run pins the BLAS pool to one thread, so re-running the same config
reproduces the metric files and ensemble summaries byte for byte, whatever
the number of CPUs or workers; wall clock and memory live only in the
manifest so they never break that contract.

Every task runs as a list of stages (``run_stages``), each a list of units
of work, and ``run`` drives them all through one loop. A unit's outputs
depend on that unit alone and on files earlier stages wrote: a later unit
loads its seed's parent from the cache file its "parents" unit reported,
and draws from its own ``substream(seed, ...)`` streams. So any number of
processes can share a stage's units (``workers.run_stage``). Every task's
unit functions live here, beside the loop; ``ensemble`` holds only the
library half of the ensemble task (member masks, scoring).
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import json
import logging
import os
import platform
import time
from pathlib import Path

import numpy as np

from . import __version__
from .annealing import (
    AnnealController,
    FixedMaskController,
    IterativeController,
    init_random,
    init_temperature,
    tune,
)
from .config import ConfigError, ExperimentConfig
from .data import NormalizedRows, load_dataset, normalization_stats
from .ensemble import (
    corrupt,
    member_controller,
    member_mask,
    score_ensemble,
    train_parent,
)
from .masks import (
    MaskSet,
    load_mask_set,
    load_weights,
    save_mask_set,
    save_weights,
)
from .metrics import evaluate
from .models import architecture, build_model
from .nn.optim import make_optimizer
from .nn.schedules import lr_schedule
from .pruning import (
    check_layer_quotas,
    check_no_severed_layer,
    magnitude_mask,
    random_mask,
)
from .rng import substream
from .training import DivergenceError, predict_logits
from .workers import error_text, process_usage, run_stage

log = logging.getLogger(__name__)

METRICS_COLUMNS = ("epoch", "train_loss", "test_acc", "test_nll", "test_ece",
                   "realized_sparsity", "lr", "mean_active_fraction")

# what a manifest cell's metrics are grouped by in a summary
CELL_KEY = ("method", "selector", "lr_schedule", "rho", "phi", "tau0",
            "epochs")

SUMMARY_FREE_KEYS = ("seeds", "out_dir", "method", "rho", "phi", "tau0")

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


def limit_blas_threads() -> int | None:
    """Pin the BLAS pool to one thread through OpenBLAS's own setter: a GEMM
    may round differently on another thread count, so outputs would depend
    on the CPUs. Returns the count the pool then reports; without a setter
    this logs a warning and returns None, the count left as it was."""
    functions = _blas_thread_functions()
    if functions is None:
        log.warning("no OpenBLAS thread setter found: BLAS thread count "
                    "unchanged; set OPENBLAS_NUM_THREADS=1 before the run "
                    "for bit-reproducible results")
        return None
    functions[0](1)
    return int(functions[1]())


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
    (``NormalizedRows``, with the training split's mean and std), so no
    float copy of either split is held; ``x_test.raw`` is the test pixels.
    Model inputs are in the config's dtype, so a float32 network sees
    float32 batches and its logits and gradients stay float32; a corrupted
    test set is built and normalized in float64, then rounded once to that
    dtype (``corrupt``).
    """

    def __init__(self, cfg: ExperimentConfig):
        splits = _blob_splits(cfg.blobs)  # load_dataset uses them for blobs only
        train = load_dataset(cfg.dataset, "train", limit=cfg.train_subset,
                             **splits["train"])
        test = load_dataset(cfg.dataset, "test", limit=cfg.test_subset,
                            **splits["test"])
        self.num_classes = train.num_classes
        self.input_shape = tuple(train.x.shape[1:])
        self.dtype = np.dtype(cfg.dtype)
        mean, std = normalization_stats(train.x)
        self.x_train = NormalizedRows(train.x, mean, std, self.dtype)
        self.y_train = train.y
        self.x_test = NormalizedRows(test.x, mean, std, self.dtype)
        self.y_test = test.y

    @functools.cached_property
    def train_digest(self) -> str:
        """sha256 of the training inputs (pixels or features) and labels,
        part of the parent cache key. Computed on first use, so building a
        ``RunData`` does not pay for it; ``run`` reads it before any stage,
        so forked helpers inherit it."""
        digest = hashlib.sha256()
        for array in (self.x_train.raw, self.y_train):
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array))
        return digest.hexdigest()

    def test_inputs(self, which, seed: int):
        """The test set for ``"clean"``, else the model inputs of the test
        set corrupted at severity ``which`` (``corrupt``). Pass a corrupted
        set straight to the scoring call, so it is freed before the next
        severity's is built."""
        if which == "clean":
            return self.x_test
        return corrupt(self.x_test, which, substream(seed, "corrupt", which))


def _blob_splits(blobs: dict) -> dict:
    """``make_blobs``' arguments for each split of the ``blobs`` object:
    the test split holds ``n // 4`` examples, at least ``k``."""
    return {"train": blobs,
            "test": {**blobs, "n": max(blobs["n"] // 4, blobs["k"])}}


def build_training(cfg: ExperimentConfig, desc: dict, epochs: int,
                   n_train: int):
    """The schedule an ``lr``/``parent_lr`` entry describes for ``epochs`` of
    training on ``n_train`` examples, and a fresh optimizer to go with it."""
    return (lr_schedule(desc, epochs, -(-n_train // cfg.batch_size)),
            make_optimizer(**cfg.optimizer))


# --- parents ------------------------------------------------------------------

def parent_cache_key(cfg: ExperimentConfig, seed: int,
                     train_digest: str) -> str:
    """The name of ``seed``'s parent in a run's parent cache: a hash of
    what the parent depends on, the training data's ``train_digest``
    among it."""
    relevant = {
        "dataset": cfg.dataset, "model": cfg.model,
        "parent_epochs": cfg.parent_epochs, "parent_lr": cfg.parent_lr,
        "optimizer": cfg.optimizer, "batch_size": cfg.batch_size,
        "train_subset": cfg.train_subset, "blobs": cfg.blobs,
        "dtype": cfg.dtype, "seed": seed, "version": __version__,
        "train_data": train_digest,
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


def load_net(cfg: ExperimentConfig, data: RunData, path):
    """``cfg``'s network with the parameters of the weights file ``path``,
    built with no initial draw, since every parameter is then set."""
    net = architecture(cfg.model, data.input_shape, data.num_classes, data.dtype)
    load_params(net, path)
    return net


def trained_parent(cfg: ExperimentConfig, data: RunData, seed: int, path,
                   eval_data=None) -> list:
    """``seed``'s parent, trained and its weights written to ``path``;
    returns its per-epoch rows, each scored on ``eval_data`` if given."""
    net = build_model(cfg.model, data.input_shape, data.num_classes,
                      substream(seed, "init"), dtype=data.dtype)
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
    key = parent_cache_key(cfg, seed, data.train_digest)
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
    mask_rng = substream(seed, "mask")
    if method in ("oneshot", "temperature-anneal"):
        target = (random_mask(net.weight_shapes(), rho, cfg.granularity,
                              mask_rng) if cfg.selector == "random"
                  else magnitude_mask(weights, rho, cfg.granularity))
        if method == "oneshot":
            return FixedMaskController(target)
        init = init_temperature(target, tau0, cfg.variant)
    elif method == "iterative":
        return IterativeController(cfg.selector, rho, cfg.granularity,
                                   max(phi, 1), weights, mask_rng)
    elif method == "random-anneal":
        bimodal = ((cfg.bimodal_mu1, cfg.bimodal_sigma1, cfg.bimodal_mu2,
                    cfg.bimodal_sigma2) if cfg.distribution == "bimodal"
                   else None)
        init = init_random(net.weight_shapes(), rho, mask_rng, bimodal)
    else:
        raise ValueError(f"unknown method {method!r}")
    return AnnealController(init, cfg.decay_for(method), phi)


def run_cell(cfg: ExperimentConfig, data: RunData, net, seed: int,
             method: str, rho: float, phi: int, tau0: float) -> list:
    """Tune ``net``, the seed's parent, in place as one cell's child;
    returns its per-epoch rows."""
    controller = make_controller(method, cfg, net, seed, rho, phi, tau0)
    if method == "random-anneal" and cfg.distribution == "bimodal":
        # clamping (not resampling) biases the tails; worth seeing in logs
        log.info("bimodal init: clamped %.2f%% of draws into [0, 1]",
                 100.0 * np.isin(controller.init.flat, (0.0, 1.0)).mean())
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


# --- tasks ---------------------------------------------------------------------

def run(cfg: ExperimentConfig) -> Path:
    """Execute the config; returns the manifest path.

    Every task runs its stages (``run_stages``) in turn, each through
    ``workers.run_stage``, which shares its units among processes; the
    outputs do not depend on how many. As in a serial run, seed by seed,
    the first seed that fails in any stage fails the run: later stages run
    only the seeds before it, which finish every stage. A stage's results
    are kept by unit in ``done[stage][unit]``, which later units read and
    forked helpers inherit. The manifest's cells and metric files are then
    written from them (``_write_results``), and every sweep's
    ``summary.csv``. A mask that the shapes and seeds alone show to sever
    a layer fails the run before its first stage (``check_quotas``).

    The process's malloc keeps ``MALLOC_SETTINGS`` afterwards (on glibc),
    and its BLAS pool one thread (``limit_blas_threads``), as every helper's
    does. Failures are recorded in the manifest (status: failed, ``error``
    as ``error_text`` gives it) and re-raised so callers can exit nonzero.
    """
    allocator = tune_allocator()
    threads = limit_blas_threads()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    started = time.perf_counter()
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seeds": cfg.seeds,
        "allocator": allocator,
        "blas_threads": threads,
        "stages": [],
        "helpers": [],
        "cells": [],
        "metrics_files": [],
    }
    seeds, done, error = cfg.seeds, {}, None
    try:
        data = RunData(cfg)
        if cfg.task in ("ablate", "ensemble"):  # the parent cache's key
            data.train_digest  # hashed once, here: helpers inherit it
        check_quotas(cfg, data)
        for name, units, work in run_stages(cfg):
            units = [unit for unit in units if _unit_seed(unit) in seeds]
            done[name] = {}
            if not units:  # every seed failed in an earlier stage
                continue
            stage_started = time.perf_counter()
            results, failure, count = run_stage(
                cfg, units, functools.partial(work, cfg, data, out_dir, done),
                manifest["helpers"])
            manifest["stages"].append({
                "name": name, "workers": count,
                "wall_s": time.perf_counter() - stage_started})
            done[name] = dict(zip(units, results))
            if failure is not None:  # keep the seeds before the failed one
                error, failed = failure, _unit_seed(units[len(results)])
                seeds = seeds[:seeds.index(failed)]
        manifest["cells"], manifest["metrics_files"] = _write_results(
            cfg, out_dir, done, seeds)
        if error is None and cfg.task == "ablate":
            write_summary_csv(out_dir / "summary.csv",
                              summarize_manifests([(manifest, out_dir)]))
    except Exception as err:
        error = err
    manifest["status"] = "ok" if error is None else "failed"
    if error is not None:
        manifest["error"] = error_text(error)
    manifest["wall_clock_s"] = time.perf_counter() - started
    manifest["workers"] = max(
        (stage["workers"] for stage in manifest["stages"]), default=1)
    manifest.update(process_usage())
    if "peak_rss_mb" in manifest:  # a bound: shared pages count twice
        manifest["peak_rss_mb_sum"] = manifest["peak_rss_mb"] + sum(
            helper.get("peak_rss_mb", 0.0) for helper in manifest["helpers"])
    write_json_atomic(manifest_path, manifest)
    if error is not None:
        raise error
    return manifest_path


def check_quotas(cfg: ExperimentConfig, data: RunData) -> None:
    """Raise ``SeveredLayerError`` before any compute where a mask of the
    run would keep no weight of a layer: layerwise quotas by their shapes
    (``check_layer_quotas``, with a partitioned ensemble's complements),
    and every mask a unit draws without reading weights (random
    annealing's, and all at a global random quota) drawn here as the unit
    draws it, in unit order, on a zero network."""
    if cfg.task in ("train-parent", "eval"):
        return
    net = architecture(cfg.model, data.input_shape, data.num_classes,
                       np.float32)
    if cfg.granularity == "layerwise" and cfg.method != ["random-anneal"]:
        ens = cfg.ensemble
        complement = (cfg.task == "ensemble" and ens["partitioning"]
                      and ens["n_members"] > 1)
        check_layer_quotas(net.weight_shapes(), cfg.rho, complement)
    drawn = cfg.granularity == "global" and cfg.selector == "random"
    stages = {name: units for name, units, _ in run_stages(cfg)}
    for seed, i in stages.get("members", []) if drawn else []:
        member_mask(net.weight_shapes(), i, cfg.rho[0],
                    cfg.ensemble["partitioning"], substream(seed, "mask"),
                    cfg.granularity)
    for seed, method, rho, phi, tau0 in stages.get("cells", []):
        if drawn or method == "random-anneal":
            controller = make_controller(method, cfg, net, seed, rho, phi,
                                         tau0)
            if method == "iterative":  # each increment, as at its epoch
                for epoch in range(len(controller.levels)):
                    controller.begin_epoch(epoch)
            check_no_severed_layer(controller.mask, f"{method}'s terminal "
                                   f"mask at rho {rho}, seed {seed},")


def run_stages(cfg: ExperimentConfig) -> list:
    """``(name, units, work)`` of each stage of a run of ``cfg``, in the
    order the stages run and, within one, the order its results are kept.
    ``work(cfg, data, out_dir, done, unit)`` does one unit (``done`` as
    ``run`` keeps it) and returns its result.

    - ``ablate``: "parents", one unit per seed
      (``get_parent``); "cells", a ``(seed, method, rho, phi, tau0)``
      unit for every seed and, within it, every cell in ``_cell_grid``
      order (``_sweep_cell``);
    - ``train-parent``: "parents", one unit per seed (``_seed_parent``);
    - ``ensemble``: "parents" as for sweeps; "members", a ``(seed,
      member)`` unit per member of every seed (``tune_one_member``);
      "scores", a ``(seed, set)`` unit per set of ``_scoring_sets`` of
      every seed (``score_one_set``);
    - ``eval``: "scores", as for ``ensemble`` (``_score_weights``).
    """
    seeds = cfg.seeds
    sets = [(seed, which) for seed in seeds for which in _scoring_sets(cfg)]
    if cfg.task == "eval":
        return [("scores", sets, _score_weights)]
    if cfg.task == "train-parent":
        return [("parents", seeds, _seed_parent)]
    parents = ("parents", seeds, get_parent)
    if cfg.task != "ensemble":
        return [parents, ("cells", [(seed, *cell) for seed in seeds
                                    for cell in _cell_grid(cfg)],
                          _sweep_cell)]
    return [parents,
            ("members", [(seed, i) for seed in seeds
                         for i in range(cfg.ensemble["n_members"])],
             tune_one_member),
            ("scores", sets, score_one_set)]


def _scoring_sets(cfg: ExperimentConfig) -> tuple:
    """The sets an ``ensemble`` or ``eval`` run scores each seed on:
    ``"clean"`` (the test set), then each corruption severity."""
    return ("clean", *cfg.ensemble["corruption_severities"])


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
    net = load_net(cfg, data, out_dir / done["parents"][seed])
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


def tune_one_member(cfg, data, out_dir, done, unit):
    """Stage "members": tune member i of the seed's ensemble from the
    cached parent and write ``member-i.{weights,mask}.ssam`` and
    ``member-i.csv``. Returns the member's realized sparsity, or its
    ``failures`` record (which holds ``error``) when it diverged: it then
    writes nothing and is left out of the ensemble.

    Each member has its own controller (``member_controller``), its own
    (schedule, optimizer) pair and its own shuffle and Bernoulli streams,
    so members can be tuned in any order or process."""
    seed, i = unit
    net = load_net(cfg, data, out_dir / done["parents"][seed])
    controller = _member_controller(cfg, net, seed, i)
    schedule, optimizer = build_training(cfg, cfg.lr, cfg.epochs,
                                         len(data.y_train))
    try:
        rows = tune(net, controller, (data.x_train, data.y_train),
                    cfg.epochs, schedule, optimizer, cfg.batch_size,
                    rng_shuffle=substream(seed, "shuffle", "member", i),
                    rng_mask=substream(seed, "bernoulli", "member", i))
    except DivergenceError as err:
        log.error("member %d of seed %d diverged: %s", i, seed, err)
        return {"member": i, "error": str(err), **err.record}
    seed_dir = out_dir / f"seed-{seed}"
    write_atomic(seed_dir / f"member-{i}.weights.ssam",
                 functools.partial(save_weights, net.params()))
    write_atomic(seed_dir / f"member-{i}.mask.ssam",
                 functools.partial(save_mask_set, controller.mask))
    write_metrics_csv(seed_dir / f"member-{i}.csv", rows)
    return controller.mask.sparsity()


def _member_controller(cfg, net, seed: int, i: int):
    """``member_controller`` of member i of ``seed``'s ensemble."""
    return member_controller(
        net.weight_shapes(), i, cfg.rho[0], cfg.ensemble["partitioning"],
        cfg.tau0[0], cfg.variant, cfg.decay_for("temperature-anneal"),
        cfg.phi[0], substream(seed, "mask"), cfg.granularity)


def _outcomes(cfg, done, seed) -> list:
    """The "members" results of ``seed``, member by member."""
    return [done["members"][seed, i]
            for i in range(cfg.ensemble["n_members"])]


def score_one_set(cfg, data, out_dir, done, unit):
    """Stage "scores" of ``ensemble``: the seed's surviving members,
    loaded from their weights files (float64, so a loaded member has the
    tuned one's bits), and their ensemble scored on one set
    (``RunData.test_inputs``). The cached parent joins the average under
    ``include_parent``. Returns (member records, ensemble record) as
    dicts; each member record carries the sparsity its "members" unit
    returned. Raises ``DivergenceError`` when every member diverged."""
    seed, which = unit
    survivors = [(i, outcome)
                 for i, outcome in enumerate(_outcomes(cfg, done, seed))
                 if not isinstance(outcome, dict)]
    if not survivors:
        raise DivergenceError("every ensemble member diverged")
    nets = [load_net(cfg, data,
                     out_dir / f"seed-{seed}" / f"member-{i}.weights.ssam")
            for i, _ in survivors]
    extra = (load_net(cfg, data, out_dir / done["parents"][seed])
             if cfg.ensemble["include_parent"] else None)
    records, ensemble_record = score_ensemble(
        nets, extra, data.test_inputs(which, seed), data.y_test)
    for rec, (_, sparsity) in zip(records, survivors):
        rec.realized_sparsity = sparsity
    return [rec.to_dict() for rec in records], ensemble_record.to_dict()


def _score_weights(cfg, data, out_dir, done, unit) -> dict:
    """Stage "scores" of ``eval``: ``cfg.weights``, under ``cfg.mask`` when
    given, scored on one ``(seed, set)`` set (``RunData.test_inputs``);
    the record reports the mask's sparsity."""
    seed, which = unit
    net = load_net(cfg, data, cfg.weights)
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
        sets = _scoring_sets(cfg)
        for seed in seeds:
            clean, *corrupted = [done["scores"][seed, which] for which in sets]
            write_json_atomic(out_dir / "eval.json", {
                "config": cfg.to_dict(), "clean": clean,
                "corrupted": dict(zip(map(str, sets[1:]), corrupted))})
        return [], ["eval.json" for _ in seeds]
    if cfg.task == "ensemble":
        cells = write_summaries(cfg, out_dir, done, seeds)
    else:  # the last stage's results
        cells = list(list(done.values())[-1].values())
    return cells, [cell["metrics"] for cell in cells]


def write_summaries(cfg, out_dir, done, seeds) -> list:
    """Write the ``ensemble-summary.json`` of each of ``seeds`` (each
    finished every stage) from its results in ``done``; returns their
    manifest cells."""
    sets = _scoring_sets(cfg)
    cells = []
    for seed in seeds:
        (members, ensemble), *corrupted = [
            done["scores"][seed, which] for which in sets]
        member_mean_acc = float(np.mean([rec["accuracy"] for rec in members]))
        summary = {
            "config": cfg.to_dict(),
            "seed": seed,
            "members": members,
            "member_mean_accuracy": member_mean_acc,
            "ensemble_minus_mean_member": (ensemble["accuracy"]
                                           - member_mean_acc),
            "ensemble": ensemble,
            "corrupted": {
                str(severity): {"ensemble": ens, "members": recs}
                for severity, (recs, ens) in zip(sets[1:], corrupted)},
            "failures": [outcome for outcome in _outcomes(cfg, done, seed)
                         if isinstance(outcome, dict)],
        }
        summary_path = out_dir / f"seed-{seed}" / "ensemble-summary.json"
        write_json_atomic(summary_path, summary)
        cells.append({
            "method": "ensemble", "selector": cfg.selector,
            "lr_schedule": cfg.lr["kind"], "rho": cfg.rho[0],
            "phi": cfg.phi[0], "tau0": cfg.tau0[0], "epochs": cfg.epochs,
            "seed": seed, "metrics": str(summary_path.relative_to(out_dir)),
            "parent": done["parents"][seed],
        })
    return cells


# --- summaries -------------------------------------------------------------------

def summarize_manifests(pairs) -> list:
    """Aggregate final-epoch metrics per cell across seeds, from
    ``(manifest, base_dir)`` pairs. Manifests with a sweep cell must share
    their config up to ``SUMMARY_FREE_KEYS`` and no (cell, seed) pair, else
    a ValueError names the key or seed and both manifests.

    Accuracy std is the sample standard deviation (n-1), zero for a single
    seed. The best mean accuracy within each (method, selector,
    lr_schedule, rho) group gets best_in_method = 1, so the best-over-
    hyperparameters reading of the table stays recoverable.
    """
    groups, owners, first = {}, {}, None
    for manifest, base in pairs:
        name = Path(base) / "manifest.json"
        config = {key: value for key, value in manifest["config"].items()
                  if key not in SUMMARY_FREE_KEYS}
        for cell in manifest["cells"]:
            if cell["method"] in ("parent", "ensemble"):
                continue
            first = first or (config, name)
            differ = sorted(key for key in config.keys() | first[0].keys()
                            if config.get(key) != first[0].get(key))
            if differ:
                raise ValueError(f"cannot summarize {first[1]} with {name}: "
                                 f"their configs differ in {differ[0]!r}")
            key = tuple(cell[field] for field in CELL_KEY)
            if (key, cell["seed"]) in owners:
                raise ValueError(
                    f"cannot summarize {owners[key, cell['seed']]} with "
                    f"{name}: both hold seed {cell['seed']} of cell {key}")
            owners[key, cell["seed"]] = name
            groups.setdefault(key, []).append(Path(base) / cell["metrics"])

    out = []
    for key, paths in sorted(groups.items()):
        method, selector, lr_schedule, rho, phi, tau0, epochs = key
        accs, nlls, eces = zip(*map(_final_metrics, paths))
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


def _read_manifest(path) -> dict:
    """The manifest in the file ``path``; a ValueError naming the file when
    it is not JSON or lacks what a summary reads."""
    try:
        manifest = json.loads(Path(path).read_text())
        {**manifest["config"]}  # a TypeError unless a mapping
        for cell in manifest["cells"]:
            [cell[name] for name in (*CELL_KEY, "seed", "metrics")]
    except (ValueError, LookupError, TypeError) as err:
        raise ValueError(f"cannot summarize {path}: {error_text(err)}") from err
    return manifest


def _final_metrics(path) -> tuple:
    """(test_acc, test_nll, test_ece) of the metric CSV's last row."""
    try:
        final = read_metrics_csv(path)[-1]
        return tuple(float(final[key])
                     for key in ("test_acc", "test_nll", "test_ece"))
    except (ValueError, LookupError, TypeError) as err:
        raise ValueError(f"cannot summarize {path}: {error_text(err)}") from err


def write_summary_csv(path, rows) -> None:
    _write_csv(path, SUMMARY_COLUMNS, rows)


def summarize_dir(directory) -> Path:
    """Summarize every manifest below ``directory`` into summary.csv."""
    directory = Path(directory)
    manifests = sorted(directory.glob("**/manifest.json"))
    if not manifests:
        raise FileNotFoundError(f"no manifest.json under {directory}")
    rows = summarize_manifests([(_read_manifest(path), path.parent)
                                for path in manifests])
    out = directory / "summary.csv"
    write_summary_csv(out, rows)
    return out
