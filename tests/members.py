"""Ensemble members for tests: tuned one at a time without a run, or
tuned from a network a test swaps in during a run."""

from subanneal import ensemble_task
from subanneal.annealing import tune
from subanneal.rng import substream


def tune_member(parent, i, controller, train_data, epochs, schedule,
                optimizer, batch_size, seed, eval_data=None):
    """Member i of ``seed``'s ensemble, tuned from a clone of ``parent`` on
    the member's own shuffle and Bernoulli streams, as the "members" stage
    tunes it (``ensemble_task.tune_one_member``); returns (net, rows)."""
    net = parent.clone()
    rows = tune(net, controller, train_data, epochs, schedule, optimizer,
                batch_size,
                rng_shuffle=substream(seed, "shuffle", "member", i),
                rng_mask=substream(seed, "bernoulli", "member", i),
                eval_data=eval_data)
    return net, rows


def members_through(monkeypatch, hook):
    """In a run's "members" stage, tune member i of ``seed`` from the
    network ``hook(net, seed, i)`` returns, ``net`` being the parent the
    unit loaded (``hook`` may raise instead)."""
    real_member, real_tune = ensemble_task.tune_one_member, ensemble_task.tune
    unit = []  # the (seed, member) this process is tuning

    def tune_one_member(cfg, data, out_dir, done, member):
        unit[:] = member
        return real_member(cfg, data, out_dir, done, member)

    def tune_through(net, *args, **kwargs):
        return real_tune(hook(net, *unit), *args, **kwargs)

    monkeypatch.setattr(ensemble_task, "tune_one_member", tune_one_member)
    monkeypatch.setattr(ensemble_task, "tune", tune_through)

