"""Layer spans recorded from outside the package, and the metrics they give.

``Tracer.install`` wraps the public functions and methods listed in
``TARGETS``. A function imported by name into another module (``training``
imports ``apply_mask``, ``runner`` imports ``tune`` ...) is a second
reference to the same object, so every ``subanneal`` module attribute that
is the original is replaced, not only the defining one: patching just the
defining module would silently record nothing for those callers.

A span is ``(name, start, end, parent id, extra)``; spans are kept in memory
and written out once, after the run. A call nested inside a call of the same
span name is not recorded again, so a layer's total never counts time twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# (module, function or Class.method, span name, extra) -- extra names what
# the wrapper records about the call besides its timing.
TARGETS = (
    ("subanneal.runner", "run", "runner.run", None),
    ("subanneal.data", "load_dataset", "data.load", None),
    ("subanneal.data", "subset", "data.load", None),
    ("subanneal.data", "normalization_stats", "data.load", None),
    ("subanneal.data", "normalize", "data.load", None),
    ("subanneal.nn.layers", "Network.forward", "nn.forward", None),
    ("subanneal.nn.layers", "Network.backward", "nn.backward", None),
    ("subanneal.nn.losses", "cross_entropy_softmax", "nn.loss", None),
    ("subanneal.nn.optim", "SGD.step", "optim.step", None),
    ("subanneal.nn.optim", "Adam.step", "optim.step", None),
    ("subanneal.masks", "MaskSet.__init__", "masks.maskset", None),
    ("subanneal.masks", "realize", "masks.realize", None),
    ("subanneal.masks", "apply_mask", "masks.apply", None),
    ("subanneal.masks", "masked_grad", "masks.grad_mask", None),
    ("subanneal.masks", "save_weights", "runner.io", None),
    ("subanneal.masks", "save_mask_set", "runner.io", None),
    ("subanneal.annealing", "FixedMaskController.batch_mask",
     "masks.batch_mask", None),
    ("subanneal.annealing", "IterativeController.batch_mask",
     "masks.batch_mask", None),
    ("subanneal.annealing", "AnnealController.batch_mask",
     "masks.batch_mask", None),
    ("subanneal.annealing", "tune", "annealing.tune", "controller"),
    ("subanneal.pruning", "random_mask", "pruning.mask", None),
    ("subanneal.pruning", "magnitude_mask", "pruning.mask", None),
    ("subanneal.pruning", "prune_increment", "pruning.mask", None),
    ("subanneal.training", "run_epoch", "training.run_epoch", None),
    ("subanneal.training", "predict_logits", "training.eval", "rows"),
    ("subanneal.metrics", "evaluate", "metrics.evaluate", None),
    ("subanneal.ensemble", "train_parent", "ensemble.train_parent", None),
    ("subanneal.ensemble", "corrupt", "ensemble.corrupt", None),
    ("subanneal.runner", "write_metrics_csv", "runner.io", None),
    ("subanneal.runner", "write_json_atomic", "runner.io", None),
    ("subanneal.runner", "write_summary_csv", "runner.io", None),
)


def _extra(kind, args, kwargs):
    if kind == "controller":  # tune(net, controller, ...)
        controller = args[1] if len(args) > 1 else kwargs["controller"]
        return type(controller).__name__
    if kind == "rows":  # predict_logits(net, x, ...)
        return len(args[1] if len(args) > 1 else kwargs["x"])
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = set()  # span names with a call in progress

    def wrap(self, name: str, fn, extra=None):
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            open_names.add(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_names.discard(name)
                stack.pop()
                spans[span_id] = (name, start, end, parent,
                                  _extra(extra, args, kwargs) if extra else None)

        return traced

    def install(self) -> int:
        """Wrap every target; returns how many references were replaced."""
        replaced = 0
        for module_name, attr, name, extra in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, vars(cls)[meth], extra))
                replaced += 1
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, extra)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "subanneal" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        replaced += 1
        return replaced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# --- metrics from spans -------------------------------------------------------

# span names with per-batch latency percentiles (calls made by run_epoch)
PER_BATCH = ("nn.forward", "nn.backward", "nn.loss", "optim.step",
             "masks.batch_mask")
# span names reported as total seconds plus call count
TOTALS = ("nn.forward", "nn.backward", "nn.loss", "optim.step",
          "masks.batch_mask", "masks.realize", "masks.apply",
          "masks.grad_mask", "pruning.mask", "runner.io", "training.eval",
          "metrics.evaluate", "ensemble.corrupt", "data.load")
EVAL_SPANS = ("training.eval", "metrics.evaluate")


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans) -> dict:
    """Per-layer totals, counts, percentiles and step costs from spans."""
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    out = {}
    for name in TOTALS:
        ids = [i for i, n in enumerate(names) if n == name]
        out[f"{name}_s"] = sum(dur[i] for i in ids)
        out[f"{name}_calls"] = len(ids)
    for name in PER_BATCH:
        batch = [dur[i] * 1e3 for i, s in enumerate(spans)
                 if s[0] == name and s[3] >= 0
                 and names[s[3]] == "training.run_epoch"]
        out[f"{name}_ms_p50"] = _percentile(batch, 50) if batch else 0.0
        out[f"{name}_ms_p90"] = _percentile(batch, 90) if batch else 0.0
    out["masks.maskset_builds"] = names.count("masks.maskset")
    out["training.eval_rows"] = sum(s[4] for s in spans
                                    if s[0] == "training.eval")
    batch_masks = out["masks.batch_mask_calls"]
    out["annealing.stochastic_batch_frac"] = (
        out["masks.realize_calls"] / batch_masks if batch_masks else 0.0)

    # step costs: a train_parent or tune span, less the evaluation it ran,
    # divided by the optimizer steps taken inside it
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    steps = {"dense": [0.0, 0], "fixed": [0.0, 0], "anneal": [0.0, 0]}
    for i, s in enumerate(spans):
        if s[0] == "ensemble.train_parent":
            kind = "dense"
        elif s[0] == "annealing.tune":
            kind = "anneal" if s[4] == "AnnealController" else "fixed"
        else:
            continue
        busy = dur[i] - sum(dur[c] for c in children.get(i, ())
                            if names[c] in EVAL_SPANS)
        n_steps = sum(1 for e in children.get(i, ())
                      if names[e] == "training.run_epoch"
                      for c in children.get(e, ()) if names[c] == "optim.step")
        steps[kind][0] += busy
        steps[kind][1] += n_steps
    for kind, (busy, n_steps) in steps.items():
        out[f"step.{kind}_ms"] = 1e3 * busy / n_steps if n_steps else 0.0
        out[f"step.{kind}_steps"] = n_steps
    out["step.anneal_over_dense"] = (
        out["step.anneal_ms"] / out["step.dense_ms"]
        if out["step.dense_ms"] else 0.0)

    roots = [i for i, n in enumerate(names) if n == "runner.run"]
    out["unaccounted_s"] = sum(
        dur[r] - sum(dur[c] for c in children.get(r, ())) for r in roots)
    out["runner.run_calls"] = len(roots)
    return out


def count_behind(metric: str) -> str:
    """The call count that shows a per-layer metric was really exercised."""
    special = {"annealing.stochastic_batch_frac": "masks.realize_calls",
               "unaccounted_s": "runner.run_calls",
               "step.anneal_over_dense": "step.anneal_steps"}
    if metric in special:
        return special[metric]
    if metric.startswith("step."):
        return metric[:-3] + "_steps"
    if metric.endswith("_s"):
        return metric[:-2] + "_calls"
    return metric  # already a count
