"""The three benchmark workloads and what their per-layer metrics should move.

Each workload is one ``subanneal run`` of a validated config with a fresh
output directory. ``config(root, seed)`` returns the config dict; the seed
only changes the inputs (the blob centres, or the synthetic image files),
never the program's own random streams. See NOTES.md for why each workload
was chosen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import synth


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str | None  # a shipped config, relative to the checkout
    overrides: dict  # config keys set on top of config_file
    input_shape: tuple
    num_classes: int
    data: str | None = None  # "mnist" or "cifar": synthetic files to write
    data_args: dict = field(default_factory=dict)

    def config(self, root: Path, seed: int) -> dict:
        cfg = {}
        if self.config_file is not None:
            cfg = json.loads((root / self.config_file).read_text())
        cfg.update(self.overrides)
        if cfg["dataset"] == "synthetic-blobs":
            cfg["blobs"] = {**cfg.get("blobs", {}), "data_seed": seed}
        return cfg

    def write_data(self, data_root: Path, seed: int) -> None:
        if self.data == "mnist":
            synth.write_mnist(data_root, seed, **self.data_args)
        elif self.data == "cifar":
            synth.write_cifar(data_root, seed, **self.data_args)

    def n_train(self, cfg: dict) -> int:
        if cfg["dataset"] == "synthetic-blobs":
            return cfg["blobs"]["n"]
        return self.data_args["n_train"]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-blobs",
        config_file="configs/blobs-ablate.json",
        overrides={},
        input_shape=(16,), num_classes=4),
    Workload(
        name="prune-mnist-mlp",
        config_file=None,
        overrides={
            "task": "prune-tune", "dataset": "mnist", "model": "mlp",
            "method": ["oneshot", "temperature-anneal"], "rho": 0.95,
            "phi": 2, "tau0": 0.5, "selector": "random",
            "parent_epochs": 2, "epochs": 3, "batch_size": 128,
            "lr": {"kind": "constant", "value": 0.05},
            "optimizer": {"kind": "sgd", "momentum": 0.9, "nesterov": True,
                          "weight_decay": 0.0},
            "seed": 0, "train_subset": 0},
        input_shape=(1, 28, 28), num_classes=10, data="mnist",
        data_args={"n_train": 10000, "n_test": 2000, "contrast": 20.0,
                   "noise": 64.0}),
    Workload(
        name="ensemble-cifar-conv",
        config_file=None,
        overrides={
            "task": "ensemble", "dataset": "cifar10-subset",
            "model": "smallconv", "rho": 0.5, "phi": 2, "tau0": 0.5,
            "parent_epochs": 2, "epochs": 3, "batch_size": 128,
            # a peak lr of 0.1 sends some seeds' members to chance
            "lr": {"kind": "onecycle", "start": 0.001, "max": 0.03,
                   "end": 1e-7, "warmup_fraction": 0.1},
            "parent_lr": {"kind": "parent-stepwise", "hi": 0.03, "lo": 0.001},
            "optimizer": {"kind": "sgd", "momentum": 0.9, "nesterov": True,
                          "weight_decay": 0.0005},
            "ensemble": {"n_members": 4, "partitioning": True,
                         "include_parent": False,
                         "corruption_severities": [1, 2, 3, 4, 5]},
            "seed": 0, "train_subset": 0},
        input_shape=(3, 32, 32), num_classes=10, data="cifar",
        data_args={"n_train": 1500, "n_test": 800, "contrast": 12.0,
                   "noise": 64.0}),
)}


# Which end-to-end metric each per-layer metric should move, and on which
# workloads (NOTES.md gives the reasoning). The self-test requires every
# metric to have a nonzero call count on each workload listed here.
SWEEP, MNIST, CIFAR = "sweep-blobs", "prune-mnist-mlp", "ensemble-cifar-conv"
EXPECTED = {
    "nn.forward_s": ("wall_s", (MNIST, CIFAR)),
    "nn.backward_s": ("wall_s", (MNIST, CIFAR)),
    "nn.loss_s": ("wall_s", (SWEEP, MNIST)),
    "optim.step_s": ("wall_s", (SWEEP, MNIST)),
    "masks.batch_mask_s": ("wall_s", (MNIST, SWEEP)),
    "masks.realize_s": ("wall_s", (MNIST, SWEEP)),
    "masks.maskset_builds": ("wall_s", (MNIST, SWEEP)),
    "masks.apply_s": ("wall_s", (MNIST, SWEEP)),
    "masks.grad_mask_s": ("wall_s", (MNIST, SWEEP)),
    "annealing.stochastic_batch_frac": ("wall_s", (MNIST, SWEEP)),
    "pruning.mask_s": ("wall_s", (SWEEP,)),
    "runner.io_s": ("wall_s", (SWEEP,)),
    "training.eval_s": ("wall_s peak_rss_mb", (CIFAR,)),
    "training.eval_calls": ("wall_s peak_rss_mb", (CIFAR,)),
    "training.eval_rows": ("wall_s peak_rss_mb", (CIFAR,)),
    "metrics.evaluate_s": ("wall_s peak_rss_mb", (CIFAR,)),
    "ensemble.corrupt_s": ("wall_s peak_rss_mb", (CIFAR,)),
    "data.load_s": ("setup_s", (SWEEP, MNIST, CIFAR)),
    "step.dense_ms": ("wall_s", (MNIST,)),
    "step.fixed_ms": ("wall_s", (MNIST,)),
    "step.anneal_ms": ("wall_s", (MNIST,)),
    "step.anneal_over_dense": ("wall_s", (MNIST,)),
    "unaccounted_s": ("wall_s", (SWEEP,)),
}


def quota_sparsity(sizes, rho: float, complement: bool = False) -> float:
    """Realized sparsity of a layerwise mask at level rho: each layer prunes
    round-half-away(rho * n) entries (the complement keeps exactly those)."""
    zeros = 0
    for n in sizes:
        q = int(math.floor(rho * n + 0.5))
        zeros += n - q if complement else q
    return zeros / sum(sizes)
