"""One workload process: set up, or run the config once, and report.

Started by run.py with the BLAS thread variables, ``PYTHONPATH`` and
``SUBANNEAL_DATA`` already in its environment, so numpy loads with one
thread. Modes:

* ``setup``: import, validate the config and build ``RunData`` (dataset load
  and normalisation); reports the seconds since the parent spawned it.
* ``run``: call ``subanneal.runner.run`` on the validated config and report
  its wall clock; with ``--trace`` the layer spans are written next to the
  result.

The result is one JSON file; stdout and stderr go to the parent's log.
"""

from __future__ import annotations

import argparse
import json
import logging
import time
from pathlib import Path

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--src", required=True,
                        help="the src directory subanneal must come from")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--out", help="output directory of the run")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", help="file for the layer spans")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    import numpy as np
    import subanneal
    from subanneal import runner
    from subanneal.config import ExperimentConfig
    from subanneal.models import build_model

    src = Path(args.src).resolve()
    if src not in Path(subanneal.__file__).resolve().parents:
        raise SystemExit(f"subanneal imported from {subanneal.__file__}, "
                         f"not from {src}")
    cfg = ExperimentConfig.from_file(args.config)
    result = {}
    if args.mode == "setup":
        runner.RunData(cfg)
        result["setup_s"] = time.monotonic() - args.spawned
    else:
        cfg.out_dir = args.out
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            result["replaced"] = tracer.install()
        start = time.perf_counter()
        runner.run(cfg)
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.dump(args.trace)
        # maskable layer sizes, for the realized-sparsity check
        wl = workloads.WORKLOADS[args.workload]
        net = build_model(cfg.model, wl.input_shape, wl.num_classes,
                          np.random.default_rng(0))
        result["weight_sizes"] = [int(np.prod(s))
                                  for s in net.weight_shapes().values()]
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
