"""Seeded tiny blobs configs drawn from the validator's space, each run at 1
and 2 CPUs.

Whatever a draw holds (task, method, rho up to 0.99, phi, tau0, selector,
granularity, variant, distribution, decay, lr kinds, optimizer, batch
sizes of 7, 32 and 500, subsets, dtype, ensemble options, and
``parent_epochs: 0``), a run either succeeds or fails with a
``ConfigError``, a ``DivergenceError`` or a ``SeveredLayerError``; its
manifest's status, error, cells and metric files are the same at both CPU
counts, and so are the bytes of every output of a run that succeeds and
of every metric file a failed run's manifest lists (with more than one
process, a failed run can leave files of units after the failing one);
and a sweep's ``summary.csv`` means are the means of its cells' last
rows, each of which reports the sparsity of its rho and the test metrics
of the network the cell ends with.
"""

import csv
import json
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

from subanneal.config import ExperimentConfig
from subanneal.metrics import evaluate
from subanneal.models import architecture
from subanneal.runner import (
    RunData,
    error_text,
    load_net,
    make_controller,
    read_metrics_csv,
    run,
    run_cell,
)
from subanneal.training import predict_logits
from test_workers import _cpus, _outputs

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="helpers are forked")

ALLOWED = ("ConfigError", "DivergenceError", "SeveredLayerError")
TASKS = ("prune-tune", "ablate", "train-parent", "ensemble")
METHODS = ("oneshot", "iterative", "temperature-anneal", "random-anneal")
DRAWS = 40


def _lr(r: random.Random) -> dict:
    return r.choice([
        {"kind": "constant", "value": r.choice([0.01, 0.05, 0.3, 50.0])},
        {"kind": "onecycle", "max": r.choice([0.03, 0.1])},
        {"kind": "step", "breakpoints": [[0, 0.05], [1, 0.01]]},
        {"kind": "parent-stepwise", "hi": 0.1, "lo": 0.001},
    ])


def _draw(draw: int) -> dict:
    """A tiny blobs config; the task cycles with ``draw``, the rest is drawn
    from a generator seeded with it."""
    r = random.Random(draw)
    task = TASKS[draw % len(TASKS)]
    epochs = r.randint(1, 3)
    raw = {
        "task": task, "dataset": "synthetic-blobs", "model": "mlp",
        "blobs": {"n": r.choice([40, 90, 150]), "d": r.choice([3, 6]),
                  "k": r.choice([2, 3]), "separation": r.choice([2.0, 4.0]),
                  "data_seed": r.randrange(100)},
        "seeds": r.sample(range(10), r.randint(1, 3)),
        "parent_epochs": r.choice([0, 1, 2]), "epochs": epochs,
        "batch_size": r.choice([7, 32, 500]),
        "lr": _lr(r), "parent_lr": _lr(r),
        "optimizer": {"kind": r.choice(["sgd", "adam"]),
                      "momentum": r.choice([0.0, 0.9]),
                      "weight_decay": r.choice([0.0, 1e-4])},
        "selector": r.choice(["random", "magnitude"]),
        "granularity": r.choice(["layerwise", "global"]),
        "variant": r.choice(["reverse-dropout", "full-scaling"]),
        "distribution": r.choice(["uniform", "bimodal"]),
        "anneal_decay": r.choice([None, "cosine", "linear"]),
        "eval_mask": r.choice(["terminal", "expected"]),
        "dtype": r.choice(["float32", "float64"]),
        "train_subset": r.choice([0, 30]),
        "out_dir": "out",
    }
    rhos = [0.0, 0.3, 0.5, 0.8, 0.99]
    if task == "ensemble":
        raw.update(method="temperature-anneal", selector="random",
                   rho=r.choice(rhos), phi=r.randrange(epochs),
                   tau0=r.choice([0.0, 0.5, 1.0]),
                   ensemble={"n_members": r.randint(1, 3),
                             "partitioning": r.random() < 0.5,
                             "include_parent": r.random() < 0.5,
                             "corruption_severities": sorted(
                                 r.sample(range(1, 6), r.randint(0, 2)))})
    else:
        raw.update(method=r.sample(METHODS, r.randint(1, 2)),
                   rho=sorted(r.sample(rhos, r.randint(1, 2))),
                   phi=sorted(r.sample(range(epochs), 1)),
                   tau0=sorted(r.sample([0.0, 0.5, 1.0], r.randint(1, 2))))
    return raw


def _check_summary(out: Path) -> None:
    """Each ``summary.csv`` row's means are the means of the last rows of
    the cells it groups."""
    manifest = json.loads((out / "manifest.json").read_text())
    finals = {}
    for cell in manifest["cells"]:
        key = (cell["method"], cell["rho"], cell["phi"], cell["tau0"])
        finals.setdefault(key, []).append(
            read_metrics_csv(out / cell["metrics"])[-1])
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(finals)
    for row in rows:
        key = (row["method"], float(row["rho"]), int(row["phi"]),
               float(row["tau0"]))
        for column, metric in (("mean_acc", "test_acc"),
                               ("mean_nll", "test_nll"),
                               ("mean_ece", "test_ece")):
            want = float(np.mean([final[metric] for final in finals[key]]))
            assert float(row[column]) == want, (key, column)
        assert int(row["seed_count"]) == len(finals[key])


def _check_last_sparsity(out: Path, cfg: ExperimentConfig) -> None:
    """Each cell's last row reports its rho's sparsity: the quota, per
    layer or pooled, rounded half away from zero, over the weight count;
    for random annealing, the sparsity of the terminal mask its controller
    draws for the cell's seed and rho, drawn here on a zero network."""
    net = architecture(cfg.model, (cfg.blobs["d"],), cfg.blobs["k"],
                       np.float32)
    sizes = [math.prod(shape) for shape in net.weight_shapes().values()]
    if cfg.granularity == "global":
        sizes = [sum(sizes)]
    manifest = json.loads((out / "manifest.json").read_text())
    for cell in manifest["cells"]:
        rho = cell["rho"]
        if cell["method"] == "random-anneal":
            want = make_controller("random-anneal", cfg, net, cell["seed"],
                                   rho, cell["phi"], cell["tau0"]
                                   ).mask.sparsity()
        else:
            want = sum(math.floor(rho * n + 0.5) for n in sizes) / sum(sizes)
        last = read_metrics_csv(out / cell["metrics"])[-1]
        assert last["realized_sparsity"] == want, cell


def _check_last_row_is_the_tuned_network(out: Path,
                                          cfg: ExperimentConfig) -> None:
    """Each cell, tuned again here from the run's cached parent
    (``run_cell``), gives the rows of its metric CSV, and the network it
    ends with scores the last row's test metrics, so the record a summary
    reads describes that network."""
    data = RunData(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    for cell in manifest["cells"]:
        net = load_net(cfg, data, out / cell["parent"])
        rows = run_cell(cfg, data, net, cell["seed"], cell["method"],
                        cell["rho"], cell["phi"], cell["tau0"])
        written = read_metrics_csv(out / cell["metrics"])
        assert rows == written, cell
        rec = evaluate(predict_logits(net, data.x_test), data.y_test)
        assert (rec.accuracy, rec.nll, rec.ece) == (
            written[-1]["test_acc"], written[-1]["test_nll"],
            written[-1]["test_ece"]), cell


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("draw", range(DRAWS))
def test_a_generated_config_runs_alike_at_one_and_two_cpus(tmp_path,
                                                          monkeypatch, draw):
    raw = _draw(draw)
    errors, outputs = {}, {}
    for cpus in (1, 2):
        work = tmp_path / f"w{cpus}"
        work.mkdir()
        monkeypatch.chdir(work)  # the same relative out_dir in both runs
        _cpus(monkeypatch, cpus)
        try:
            run(ExperimentConfig.from_dict(raw))
            errors[cpus] = None
        except Exception as err:
            errors[cpus] = error_text(err)
        outputs[cpus] = _outputs(Path("out"))
    assert errors[2] == errors[1]
    if errors[1] is not None:
        assert errors[1].split(":")[0] in ALLOWED, errors[1]
        for cpus in (1, 2):  # the manifest and the metric files it lists
            files = outputs[cpus]
            listed = ["manifest.json"]
            if "manifest.json" in files:  # a ConfigError writes none
                listed += files["manifest.json"][3]
            outputs[cpus] = {rel: files[rel] for rel in listed if rel in files}
    assert outputs[2] == outputs[1]
    cfg = ExperimentConfig.from_dict(raw)
    if errors[1] is None and cfg.task == "ablate":
        _check_summary(tmp_path / "w1" / "out")
        _check_last_sparsity(tmp_path / "w1" / "out", cfg)
        _check_last_row_is_the_tuned_network(tmp_path / "w1" / "out", cfg)
