import math
from dataclasses import dataclass

import numpy as np
import pytest

from subanneal.config import ConfigError, ExperimentConfig
from subanneal.nn.schedules import lr_schedule


def _lr(kind, epochs=1, steps_per_epoch=1, **keys):
    return lr_schedule({"kind": kind, **keys}, epochs, steps_per_epoch)


def _one_cycle(total_steps):
    """The child one-cycle recipe over ``total_steps`` steps, one epoch."""
    return _lr("onecycle", 1, total_steps, start=0.001, max=0.1, end=1e-7,
               warmup_fraction=0.1)


def test_constant_everywhere():
    sched = _lr("constant", 10, 7, value=0.01)
    for step in (0, 1, 10, 10_000):
        assert sched(step // 7, step) == 0.01


def test_one_cycle_endpoints_exact():
    sched = _one_cycle(1000)
    assert sched(0, 0) == 0.001
    assert sched(0, 1000) == 1e-7
    assert sched(0, 100) == pytest.approx(0.1, rel=1e-12)  # warmup peak


def test_one_cycle_cooldown_midpoint_identity():
    # cosine at the middle of the cooldown is the mean of max and end
    sched = _one_cycle(1000)
    mid = 100 + (1000 - 100) / 2
    assert sched(0, mid) == pytest.approx((0.1 + 1e-7) / 2, rel=1e-12)


def test_one_cycle_matches_child_recipe_shape():
    # 10 epochs of 50 steps; peak hit at 10% of the budget (1 epoch)
    sched = _lr("onecycle", 10, 50, start=0.001, max=0.1, end=1e-7,
                warmup_fraction=0.1)
    assert sched(0, 0) == 0.001
    assert sched(1, 50) == pytest.approx(0.1, rel=1e-12)
    assert sched(10, 500) == 1e-7
    values = [sched(s // 50, s) for s in range(501)]
    peak = int(np.argmax(values))
    assert peak == 50
    assert all(values[i] >= values[i + 1] for i in range(50, 500))
    assert all(v > 0 for v in values)


def test_one_cycle_clamps_out_of_range():
    sched = _one_cycle(100)
    assert sched(0, -5) == 0.001
    assert sched(0, 200) == 1e-7


def test_step_decay_piecewise_linear():
    sched = _lr("step", breakpoints=[[0, 0.1], [5, 0.1], [9, 0.001],
                                     [10, 0.001]])
    assert sched(0, 0) == 0.1
    assert sched(5, 0) == 0.1
    assert sched(7, 0) == pytest.approx(0.1 + (0.001 - 0.1) * 0.5, rel=1e-12)
    assert sched(9, 0) == 0.001
    assert sched(10, 0) == 0.001
    assert sched(99, 0) == 0.001  # clamp


def test_step_decay_classic_milestones_at_integer_epochs():
    # adjacent-integer breakpoints reproduce a stepwise drop
    sched = _lr("step", breakpoints=[[0, 0.1], [49, 0.1], [50, 0.01],
                                     [89, 0.01], [90, 0.001]])
    assert sched(49, 0) == 0.1
    assert sched(50, 0) == 0.01
    assert sched(89, 0) == 0.01
    assert sched(90, 0) == 0.001


def test_parent_stepwise_holds_then_decays_linearly():
    sched = _lr("parent-stepwise", 100, hi=0.1, lo=0.001)
    assert sched(0, 0) == 0.1
    assert sched(50, 0) == 0.1
    assert sched(70, 0) == pytest.approx((0.1 + 0.001) / 2, rel=1e-12)
    assert sched(90, 0) == 0.001
    assert sched(100, 0) == 0.001


def test_validation_rejects_nonpositive_rates():
    # the config's rules are the one check of a schedule's values
    for lr in ({"kind": "constant", "value": 0.0},
               {"kind": "step", "breakpoints": [[0, 0.1], [5, -0.1]]},
               {"kind": "onecycle", "start": 0.0},
               {"kind": "onecycle", "warmup_fraction": 1.5},
               {"kind": "step", "breakpoints": [[5, 0.1], [5, 0.2]]},
               {"kind": "parent-stepwise", "lo": -0.001}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"task": "ablate", "lr": lr})


def test_emitted_rate_positive_over_whole_range():
    sched = _lr("parent-stepwise", 10, hi=0.1, lo=0.001)
    assert all(sched(e, 0) > 0 for e in range(11))
    cyc = _one_cycle(200)
    assert all(cyc(0, s) > 0 for s in range(201))


# --- the schedule code lr_schedule replaced, as the reference ---------------
#
# One schedule object per kind, ``lr_at`` dispatching on its class,
# ``schedule_lr`` picking the step for OneCycle and the epoch otherwise, and
# the runner's per-kind construction (``_reference``).

@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class StepDecay:
    breakpoints: tuple

    def __post_init__(self):
        pts = tuple((float(e), float(v)) for e, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)


@dataclass(frozen=True)
class OneCycle:
    lr_start: float
    lr_max: float
    lr_end: float
    warmup_fraction: float
    total_steps: int


def lr_at(schedule, step):
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
                return v0 * (1.0 - t) + v1 * t
        return pts[-1][1]
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


def parent_stepwise(total_epochs, lr_hi=0.1, lr_lo=0.001):
    t = float(total_epochs)
    return StepDecay(((0.0, lr_hi), (0.5 * t, lr_hi), (0.9 * t, lr_lo),
                      (t, lr_lo)))


def schedule_lr(schedule, epoch, step):
    if isinstance(schedule, OneCycle):
        return lr_at(schedule, step)
    return lr_at(schedule, epoch)


def _reference(desc, epochs, n_train, batch_size):
    steps_per_epoch = -(-n_train // batch_size)
    kind = desc["kind"]
    if kind == "constant":
        schedule = Constant(desc["value"])
    elif kind == "onecycle":
        schedule = OneCycle(desc["start"], desc["max"], desc["end"],
                            desc["warmup_fraction"],
                            max(epochs * steps_per_epoch, 1))
    elif kind == "step":
        schedule = StepDecay(tuple((e, v) for e, v in desc["breakpoints"]))
    else:
        schedule = parent_stepwise(max(epochs, 1), desc["hi"], desc["lo"])
    return lambda epoch, step: schedule_lr(schedule, epoch, step)


def _random_desc(kind, rng):
    """A seeded ``lr`` entry of ``kind``, read by the config like a run's."""
    def rate():
        return float(10.0 ** rng.uniform(-5, 0))
    if kind == "constant":
        desc = {"value": rate()}
    elif kind == "onecycle":
        # a round fraction puts the peak on a step, where both arms meet
        warmup = (float(rng.choice([0.1, 0.25, 0.5])) if rng.random() < 0.5
                  else float(rng.uniform(0.01, 0.99)))
        desc = {"start": rate(), "max": rate(), "end": rate(),
                "warmup_fraction": warmup}
    elif kind == "step":
        gaps = rng.uniform(0.25, 4.0, int(rng.integers(0, 5)))
        if rng.random() < 0.5:  # whole epochs, as most configs give them
            gaps = np.ceil(gaps)
        start = float(rng.choice([0.0, -1.0, 2.0]))
        desc = {"breakpoints": [[start + float(e), rate()]
                                for e in np.cumsum([0.0, *gaps])]}
    else:
        desc = {"hi": rate(), "lo": rate()}
    return ExperimentConfig.from_dict(
        {"task": "ablate", "lr": {"kind": kind, **desc}}).lr


@pytest.mark.parametrize("kind", ["constant", "onecycle", "step",
                                  "parent-stepwise"])
def test_lr_schedule_equals_the_per_kind_classes(kind):
    rng = np.random.default_rng(["constant", "onecycle", "step",
                                 "parent-stepwise"].index(kind))
    cases = 0
    for i in range(40):
        desc = _random_desc(kind, rng)
        epochs = 0 if i % 8 == 0 else int(rng.integers(1, 13))
        batch_size = int(rng.integers(1, 129))
        # every fourth case has fewer examples than one batch
        n_train = (int(rng.integers(1, batch_size + 1)) if i % 4 == 1
                   else int(rng.integers(1, 400)))
        steps_per_epoch = -(-n_train // batch_size)
        total = epochs * steps_per_epoch
        got = lr_schedule(desc, epochs, steps_per_epoch)
        want = _reference(desc, epochs, n_train, batch_size)
        # both ends of the run and past them, and steps in between
        steps = sorted({*range(-3, 4), *range(total - 3, total + 5),
                        *rng.integers(0, total + 1, 10).tolist()})
        for epoch in range(-2, epochs + 4):
            for step in steps:
                a, b = got(epoch, step), want(epoch, step)
                assert a == b and repr(a) == repr(b), (desc, epoch, step)
                cases += 1
    assert cases > 5000
