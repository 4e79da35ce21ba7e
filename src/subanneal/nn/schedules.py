"""Learning-rate schedules.

Constant and OneCycle are queried per optimizer step; StepDecay is queried
per epoch. Out-of-range steps clamp to the nearest endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("learning rate must be positive")


@dataclass(frozen=True)
class StepDecay:
    """Piecewise-linear breakpoints ((epoch, lr), ...), sorted by epoch.

    Adjacent-integer breakpoints give the classic stepwise drop when queried
    at whole epochs; spaced breakpoints give linear decay segments.
    """

    breakpoints: tuple

    def __post_init__(self):
        pts = tuple((float(e), float(v)) for e, v in self.breakpoints)
        if len(pts) < 1:
            raise ValueError("StepDecay needs at least one breakpoint")
        if any(v <= 0 for _, v in pts):
            raise ValueError("learning rates must be positive")
        if any(pts[i + 1][0] <= pts[i][0] for i in range(len(pts) - 1)):
            raise ValueError("breakpoint epochs must be strictly increasing")
        object.__setattr__(self, "breakpoints", pts)


@dataclass(frozen=True)
class OneCycle:
    """Linear warmup lr_start -> lr_max, then cosine cooldown to lr_end."""

    lr_start: float
    lr_max: float
    lr_end: float
    warmup_fraction: float
    total_steps: int

    def __post_init__(self):
        if min(self.lr_start, self.lr_max, self.lr_end) <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in (0, 1)")
        if self.total_steps < 1:
            raise ValueError("total_steps must be positive")


def lr_at(schedule, step: float) -> float:
    """Learning rate at ``step`` (a step index or an epoch index, by kind)."""
    if isinstance(schedule, Constant):
        return schedule.value
    if isinstance(schedule, StepDecay):
        pts = schedule.breakpoints
        if step <= pts[0][0]:
            return pts[0][1]
        if step >= pts[-1][0]:
            return pts[-1][1]
        for (e0, v0), (e1, v1) in zip(pts, pts[1:]):
            if step <= e1:
                t = (step - e0) / (e1 - e0)
                return v0 * (1.0 - t) + v1 * t  # exact at both breakpoints
        return pts[-1][1]  # pragma: no cover
    if isinstance(schedule, OneCycle):
        t = min(max(float(step), 0.0), float(schedule.total_steps))
        w = schedule.warmup_fraction * schedule.total_steps
        if t == 0.0:
            return schedule.lr_start
        if t >= schedule.total_steps:
            return schedule.lr_end
        if t <= w:
            return schedule.lr_start + (schedule.lr_max - schedule.lr_start) * t / w
        frac = (t - w) / (schedule.total_steps - w)
        return schedule.lr_end + 0.5 * (schedule.lr_max - schedule.lr_end) * (
            1.0 + math.cos(math.pi * frac))
    raise TypeError(f"unknown schedule {type(schedule).__name__}")


def parent_stepwise(total_epochs: int, lr_hi: float = 0.1,
                    lr_lo: float = 0.001) -> StepDecay:
    """Hold lr_hi for the first half, decay linearly to lr_lo at 90% of the
    budget, then hold lr_lo for the final 10%."""
    t = float(total_epochs)
    return StepDecay(((0.0, lr_hi), (0.5 * t, lr_hi), (0.9 * t, lr_lo), (t, lr_lo)))

