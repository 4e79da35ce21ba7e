"""Every span the benchmark needs is still called on the training path.

``perfbench/spans.py`` wraps named functions and methods, so code that
calls numpy directly where it used to call ``masked_grad`` or
``SGD.step`` leaves a span at call count 0 and the benchmark's per-layer
metrics silently empty. ``test_tracer_targets.py`` checks that the
targets exist; this test checks that a small blobs sweep really calls
them, in a fresh process with the tracer installed as the benchmark does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import spans, workloads
from subanneal import runner
from subanneal.config import ExperimentConfig

tracer = spans.Tracer()
tracer.install()
cfg = ExperimentConfig.from_dict({
    "task": "ablate", "dataset": "synthetic-blobs", "model": "mlp",
    "blobs": {"n": 256, "d": 16, "k": 4, "separation": 4.0, "data_seed": 0},
    "method": ["oneshot", "iterative", "temperature-anneal"],
    "rho": [0.9], "phi": 2, "tau0": 0.5, "selector": "random",
    "parent_epochs": 1, "epochs": 3, "batch_size": 32,
    "lr": {"kind": "constant", "value": 0.01},
    "optimizer": {"kind": "sgd", "momentum": 0.9, "nesterov": True,
                  "weight_decay": 0.0},
    "seeds": [0], "out_dir": sys.argv[2]})
runner.run(cfg)
layers = spans.layer_metrics(tracer.spans)
needed = [m for m, (_, where) in workloads.EXPECTED.items()
          if workloads.SWEEP in where or workloads.MNIST in where]
counts = {m: layers.get(spans.count_behind(m), 0) for m in needed}
print(json.dumps({"counts": counts, "steps": {
    key: layers[key] for key in ("step.dense_steps", "step.fixed_steps",
                                 "step.anneal_steps", "optim.step_calls")}}))
"""


def test_a_traced_blobs_sweep_calls_every_span_the_benchmark_needs(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"),
         str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    counts = out["counts"]
    # the sweep and MNIST workloads' metrics, the three step kinds included
    for metric in ("optim.step_s", "masks.grad_mask_s", "masks.apply_s",
                   "masks.realize_s", "masks.maskset_builds", "nn.loss_s",
                   "step.dense_ms", "step.fixed_ms", "step.anneal_ms"):
        assert metric in counts, metric
    assert {m: c for m, c in counts.items() if not c > 0} == {}
    # each step is filed under its kind: 8 steps an epoch, one dense
    # parent epoch, then three epochs each of one-shot and iterative
    # (fixed) and of temperature annealing
    assert out["steps"] == {"step.dense_steps": 8, "step.fixed_steps": 48,
                            "step.anneal_steps": 24, "optim.step_calls": 80}
