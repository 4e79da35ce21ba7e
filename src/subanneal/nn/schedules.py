"""Learning-rate schedules.

A schedule is a function ``lr(epoch, step)`` of the epoch and the optimizer
steps taken so far, built by ``lr_schedule`` from an ``lr``/``parent_lr``
entry the config has validated. Out-of-range epochs and steps clamp to the
nearest endpoint.
"""

from __future__ import annotations

import math


def _piecewise_linear(pts: list, x: float) -> float:
    """Linear between breakpoints ((x, lr), ...), held past either end."""
    if x <= pts[0][0]:
        return pts[0][1]
    if x >= pts[-1][0]:
        return pts[-1][1]
    for (e0, v0), (e1, v1) in zip(pts, pts[1:]):
        if x <= e1:
            t = (x - e0) / (e1 - e0)
            return v0 * (1.0 - t) + v1 * t  # exact at both breakpoints
    return pts[-1][1]  # pragma: no cover


def _one_cycle(start: float, peak: float, end: float, warmup_fraction: float,
               total_steps: int):
    """Linear warmup start -> peak, then cosine cooldown to end."""
    w = warmup_fraction * total_steps

    def lr(epoch: int, step: int) -> float:
        t = min(max(float(step), 0.0), float(total_steps))
        if t == 0.0:
            return start
        if t >= total_steps:
            return end
        if t <= w:
            return start + (peak - start) * t / w
        frac = (t - w) / (total_steps - w)
        return end + 0.5 * (peak - end) * (1.0 + math.cos(math.pi * frac))
    return lr


def lr_schedule(desc: dict, epochs: int, steps_per_epoch: int):
    """The schedule ``lr(epoch, step)`` that the entry ``desc`` describes for
    ``epochs`` epochs of ``steps_per_epoch`` optimizer steps each.

    ``onecycle`` follows the step over the whole run; every other kind
    follows the epoch. ``step`` is linear between its [epoch, lr]
    breakpoints, so adjacent-integer breakpoints give the classic stepwise
    drop at whole epochs. ``parent-stepwise`` holds ``hi`` for the first
    half, decays linearly to ``lo`` at 90% of the epochs and holds ``lo``
    for the final 10%.
    """
    kind = desc["kind"]
    if kind == "constant":
        value = desc["value"]
        return lambda epoch, step: value
    if kind == "onecycle":
        return _one_cycle(desc["start"], desc["max"], desc["end"],
                          desc["warmup_fraction"],
                          max(epochs * steps_per_epoch, 1))
    if kind == "step":
        pts = [(float(e), float(v)) for e, v in desc["breakpoints"]]
    else:
        t, hi, lo = float(max(epochs, 1)), desc["hi"], desc["lo"]
        pts = [(0.0, hi), (0.5 * t, hi), (0.9 * t, lo), (t, lo)]
    return lambda epoch, step: _piecewise_linear(pts, epoch)
