"""The ``ensemble`` task's "members" and "scores" stages, and its summaries.

``runner.run_stages`` lists an ensemble run's three stages and imports this
module only for an ``ensemble`` run; ``runner.run`` drives them through the
loop every task shares. Each unit's work depends only on files earlier
stages wrote and on ``done``, the earlier stages' results by unit, so one
process or several give the same bytes:

1. parents, one unit per seed: the seed's parent, into the run's parent
   cache, as for sweeps;
2. members, one unit per ``(seed, member)``: the member tuned from the
   cached parent, written as ``member-i.{weights,mask}.ssam`` and
   ``member-i.csv``;
3. scores, one unit per ``(seed, set)``, the set being ``"clean"`` or a
   corruption severity: the seed's surviving members, loaded from their
   ``.ssam`` files, and their ensemble on that set. The files store
   float64, which holds a float32 or a float64 weight exactly, so a
   loaded member has the bits of the tuned one. A seed whose every member
   diverged fails here.

``runner.run`` then writes each finished seed's ``ensemble-summary.json``
(``write_summaries``).
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .annealing import TemperatureConfig, tune
from .ensemble import member_controller, score_ensemble
from .masks import load_mask_set, save_mask_set, save_weights
from .rng import substream
from .runner import (
    build_training,
    load_net,
    write_atomic,
    write_json_atomic,
    write_metrics_csv,
)
from .training import DivergenceError

log = logging.getLogger(__name__)


def tune_one_member(cfg, data, out_dir, done, unit):
    """Stage "members": tune member i of the seed's ensemble from the
    cached parent and write its weights, mask and metric CSV. Returns None,
    or the member's ``failures`` record when it diverged: it then writes
    nothing and is left out of the ensemble.

    Each member has its own controller (``member_controller``), its own
    (schedule, optimizer) pair and its own shuffle and Bernoulli streams,
    so members can be tuned in any order or process."""
    seed, i = unit
    net = load_net(cfg, data, out_dir / done["parents"][seed])
    tau_cfg = TemperatureConfig(tau0=cfg.tau0[0], variant=cfg.variant,
                                decay=cfg.decay_for("temperature-anneal"),
                                anneal_epochs=cfg.phi[0])
    controller = member_controller(
        net.weight_shapes(), i, cfg.rho[0],
        cfg.ensemble["partitioning"], tau_cfg, substream(seed, "mask"),
        cfg.granularity)
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
    return None


def _outcomes(cfg, done, seed) -> list:
    """The "members" results of ``seed``, member by member."""
    return [done["members"][seed, i]
            for i in range(cfg.ensemble["n_members"])]


def score_one_set(cfg, data, out_dir, done, unit):
    """Stage "scores": score the seed's surviving members, loaded from
    their weights files, and their ensemble on one set: the clean test
    set, or the test set corrupted at one severity. The cached parent
    joins the average under ``include_parent``. Returns (member records,
    ensemble record) as dicts; every member record carries its mask's
    sparsity. Raises ``DivergenceError`` when every member diverged."""
    seed, which = unit
    survivors = [i for i, failure in enumerate(_outcomes(cfg, done, seed))
                 if failure is None]
    if not survivors:
        raise DivergenceError("every ensemble member diverged")
    seed_dir = out_dir / f"seed-{seed}"
    nets = [load_net(cfg, data, seed_dir / f"member-{i}.weights.ssam")
            for i in survivors]
    extra = (load_net(cfg, data, out_dir / done["parents"][seed])
             if cfg.ensemble["include_parent"] else None)
    records, ensemble_record = score_ensemble(
        nets, extra, data.test_inputs(which, seed), data.y_test)
    for rec, i in zip(records, survivors):
        rec.realized_sparsity = load_mask_set(
            seed_dir / f"member-{i}.mask.ssam").sparsity()
    return [rec.to_dict() for rec in records], ensemble_record.to_dict()


def write_summaries(cfg, out_dir, done, seeds) -> list:
    """Write the ``ensemble-summary.json`` of each of ``seeds`` (each
    finished every stage) from its results in ``done``; returns their
    manifest cells."""
    severities = cfg.ensemble["corruption_severities"]
    cells = []
    for seed in seeds:
        (members, ensemble), *corrupted = [
            done["scores"][seed, which] for which in ("clean", *severities)]
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
                for severity, (recs, ens) in zip(severities, corrupted)},
            "failures": [failure for failure in _outcomes(cfg, done, seed)
                         if failure is not None],
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
