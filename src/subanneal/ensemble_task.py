"""The ``ensemble`` task as three stages of units of work.

``runner.run`` imports this module only for an ``ensemble`` run and hands
``run_ensemble`` its ``stage``, which shares a stage's units among worker
processes, and ``merge``, which takes manifest cells in order. Each
stage's units depend only on files earlier stages wrote, so one process or
several give the same bytes:

1. parents, one unit per seed: the seed's parent, into the run's parent
   cache;
2. members, one unit per ``(seed, member)``: the member tuned from the
   cached parent, written as ``member-i.{weights,mask}.ssam`` and
   ``member-i.csv``;
3. scores, one unit per ``(seed, set)``, the set being ``"clean"`` or a
   corruption severity: the seed's surviving members, loaded from their
   ``.ssam`` files, and their ensemble on that set. The files store
   float64, which holds a float32 or a float64 weight exactly, so a
   loaded member has the bits of the tuned one.

The calling process then writes each seed's ``ensemble-summary.json``.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .annealing import TemperatureConfig
from .ensemble import member_controller, score_ensemble, tune_member
from .masks import load_mask_set, save_mask_set, save_weights
from .rng import substream
from .runner import (
    build_net,
    build_training,
    get_parent,
    held_parent,
    load_params,
    run_stages,
    write_json_atomic,
    write_metrics_csv,
)
from .training import DivergenceError

log = logging.getLogger(__name__)


def run_ensemble(cfg, data, out_dir, stage, merge) -> None:
    """Run the three stages (``run_stages``), then write each seed's
    summary and merge its manifest cell.

    As in a serial run, seed by seed, the first seed that fails in any
    stage (or whose every member diverged) fails the run; the seeds before
    it go through every stage and get their summary and manifest cell.
    """
    seeds = cfg.run_seeds()
    parents, error = stage("parents", seeds, functools.partial(
        _parent, cfg, data, out_dir))
    seeds = seeds[:len(parents)]
    n_members = cfg.ensemble["n_members"]
    results, failed = stage(
        "members", dict(run_stages(cfg, seeds))["members"],
        functools.partial(_member, cfg, data, out_dir, {}))
    # the members stage ran only seeds before any parent's failure
    error = failed or error
    failures, survivors = {}, {}
    for k, seed in enumerate(seeds[:len(results) // n_members]):
        outcomes = results[k * n_members:(k + 1) * n_members]
        if all(outcomes):
            error = DivergenceError("every ensemble member diverged")
            break
        failures[seed] = [f for f in outcomes if f is not None]
        survivors[seed] = [i for i, f in enumerate(outcomes) if f is None]
    seeds = list(survivors)
    scores, failed = stage(
        "scores", dict(run_stages(cfg, seeds))["scores"],
        functools.partial(_score, cfg, data, out_dir, survivors))
    error = failed or error
    n_sets = 1 + len(cfg.ensemble["corruption_severities"])
    for k, seed in enumerate(seeds[:len(scores) // n_sets]):
        merge(_summary(cfg, out_dir, seed, parents[k], failures[seed],
                       scores[k * n_sets:(k + 1) * n_sets]))
    if error is not None:
        raise error


def _parent(cfg, data, out_dir, seed) -> str:
    """Stage "parents": train the seed's parent into the run's parent cache
    (or find it there); returns its path relative to ``out_dir``."""
    _, path = get_parent(cfg, data, seed, out_dir)
    return str(path.relative_to(out_dir))


def _member(cfg, data, out_dir, held, unit):
    """Stage "members": tune member i of the seed's ensemble from the
    parent (``held_parent``) and write its weights, mask and metric CSV.
    Returns None, or the member's ``failures`` record when it diverged: it
    then writes nothing and is left out of the ensemble."""
    seed, i = unit
    parent, _ = held_parent(cfg, data, out_dir, held, seed)
    tau_cfg = TemperatureConfig(tau0=cfg.tau0[0], variant=cfg.variant,
                                decay=cfg.decay_for("temperature-anneal"),
                                anneal_epochs=cfg.phi[0])
    controller = member_controller(
        parent.weight_shapes(), i, cfg.rho[0],
        cfg.ensemble["partitioning"], tau_cfg, substream(seed, "mask"),
        cfg.granularity)
    schedule, optimizer = build_training(cfg, cfg.lr, cfg.epochs,
                                         len(data.y_train))
    try:
        net, rows = tune_member(parent, i, controller,
                                (data.x_train, data.y_train), cfg.epochs,
                                schedule, optimizer, cfg.batch_size, seed)
    except DivergenceError as err:
        log.error("member %d of seed %d diverged: %s", i, seed, err)
        return {"member": i, "error": str(err), **err.record}
    seed_dir = out_dir / f"seed-{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    save_weights(net.params(), seed_dir / f"member-{i}.weights.ssam")
    save_mask_set(controller.mask, seed_dir / f"member-{i}.mask.ssam")
    write_metrics_csv(seed_dir / f"member-{i}.csv", rows)
    return None


def _score(cfg, data, out_dir, survivors, unit):
    """Stage "scores": score the seed's surviving members (``survivors``
    maps a seed to their indices), loaded from their weights files, and
    their ensemble on one set: the clean test set, or the test set
    corrupted at one severity. The parent, from the cache, joins the
    average under ``include_parent``. Returns (member records, ensemble
    record) as dicts; clean member records carry their mask's sparsity."""
    seed, which = unit
    seed_dir = out_dir / f"seed-{seed}"
    nets = []
    for i in survivors[seed]:
        net = build_net(cfg, data, seed)
        load_params(net, seed_dir / f"member-{i}.weights.ssam")
        nets.append(net)
    extra = (get_parent(cfg, data, seed, out_dir)[0]
             if cfg.ensemble["include_parent"] else None)
    x = data.x_test if which == "clean" else data.corrupted(which, seed)
    records, ensemble_record = score_ensemble(nets, extra, x, data.y_test)
    if which == "clean":
        for rec, i in zip(records, survivors[seed]):
            rec.realized_sparsity = load_mask_set(
                seed_dir / f"member-{i}.mask.ssam").sparsity()
    return [rec.to_dict() for rec in records], ensemble_record.to_dict()


def _summary(cfg, out_dir, seed, parent_path, failures, scores) -> list:
    """Write the seed's ``ensemble-summary.json`` from its scores, clean
    first then by severity; returns its manifest cell."""
    (members, ensemble), *corrupted = scores
    member_mean_acc = float(np.mean([rec["accuracy"] for rec in members]))
    summary = {
        "config": cfg.to_dict(),
        "seed": seed,
        "members": members,
        "member_mean_accuracy": member_mean_acc,
        "ensemble_minus_mean_member": ensemble["accuracy"] - member_mean_acc,
        "ensemble": ensemble,
        "corrupted": {
            str(severity): {"ensemble": ens, "members": recs}
            for severity, (recs, ens) in zip(
                cfg.ensemble["corruption_severities"], corrupted)},
        "failures": failures,
    }
    summary_path = out_dir / f"seed-{seed}" / "ensemble-summary.json"
    write_json_atomic(summary_path, summary)
    return [{
        "method": "ensemble", "selector": cfg.selector,
        "lr_schedule": cfg.lr["kind"], "rho": cfg.rho[0], "phi": cfg.phi[0],
        "tau0": cfg.tau0[0], "epochs": cfg.epochs, "seed": seed,
        "metrics": str(summary_path.relative_to(out_dir)),
        "parent": parent_path,
    }]
