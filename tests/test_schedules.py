import numpy as np
import pytest

from subanneal.nn.schedules import (
    Constant,
    OneCycle,
    StepDecay,
    lr_at,
    parent_stepwise,
)


def test_constant_everywhere():
    sched = Constant(0.01)
    for step in (0, 1, 10, 10_000):
        assert lr_at(sched, step) == 0.01


def test_one_cycle_endpoints_exact():
    sched = OneCycle(0.001, 0.1, 1e-7, warmup_fraction=0.1, total_steps=1000)
    assert lr_at(sched, 0) == 0.001
    assert lr_at(sched, 1000) == 1e-7
    assert lr_at(sched, 100) == pytest.approx(0.1, rel=1e-12)  # warmup peak


def test_one_cycle_cooldown_midpoint_identity():
    # cosine at the middle of the cooldown is the mean of max and end
    sched = OneCycle(0.001, 0.1, 1e-7, warmup_fraction=0.1, total_steps=1000)
    mid = 100 + (1000 - 100) / 2
    assert lr_at(sched, mid) == pytest.approx((0.1 + 1e-7) / 2, rel=1e-12)


def test_one_cycle_matches_child_recipe_shape():
    # 10 epochs of 50 steps; peak hit at 10% of the budget (1 epoch)
    sched = OneCycle(0.001, 0.1, 1e-7, warmup_fraction=0.1, total_steps=500)
    assert lr_at(sched, 0) == 0.001
    assert lr_at(sched, 50) == pytest.approx(0.1, rel=1e-12)
    assert lr_at(sched, 500) == 1e-7
    values = [lr_at(sched, s) for s in range(501)]
    peak = int(np.argmax(values))
    assert peak == 50
    assert all(values[i] >= values[i + 1] for i in range(50, 500))
    assert all(v > 0 for v in values)


def test_one_cycle_clamps_out_of_range():
    sched = OneCycle(0.001, 0.1, 1e-7, warmup_fraction=0.1, total_steps=100)
    assert lr_at(sched, -5) == 0.001
    assert lr_at(sched, 200) == 1e-7


def test_step_decay_piecewise_linear():
    sched = StepDecay(((0, 0.1), (5, 0.1), (9, 0.001), (10, 0.001)))
    assert lr_at(sched, 0) == 0.1
    assert lr_at(sched, 5) == 0.1
    assert lr_at(sched, 7) == pytest.approx(0.1 + (0.001 - 0.1) * 0.5, rel=1e-12)
    assert lr_at(sched, 9) == 0.001
    assert lr_at(sched, 10) == 0.001
    assert lr_at(sched, 99) == 0.001  # clamp


def test_step_decay_classic_milestones_at_integer_epochs():
    # adjacent-integer breakpoints reproduce a stepwise drop
    sched = StepDecay(((0, 0.1), (49, 0.1), (50, 0.01), (89, 0.01), (90, 0.001)))
    assert lr_at(sched, 49) == 0.1
    assert lr_at(sched, 50) == 0.01
    assert lr_at(sched, 89) == 0.01
    assert lr_at(sched, 90) == 0.001


def test_parent_stepwise_holds_then_decays_linearly():
    sched = parent_stepwise(100)
    assert lr_at(sched, 0) == 0.1
    assert lr_at(sched, 50) == 0.1
    assert lr_at(sched, 70) == pytest.approx((0.1 + 0.001) / 2, rel=1e-12)
    assert lr_at(sched, 90) == 0.001
    assert lr_at(sched, 100) == 0.001


def test_validation_rejects_nonpositive_rates():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        StepDecay(((0, 0.1), (5, -0.1)))
    with pytest.raises(ValueError):
        OneCycle(0.0, 0.1, 1e-7, 0.1, 100)
    with pytest.raises(ValueError):
        OneCycle(0.001, 0.1, 1e-7, 1.5, 100)
    with pytest.raises(ValueError):
        StepDecay(((5, 0.1), (5, 0.2)))


def test_emitted_rate_positive_over_whole_range():
    sched = parent_stepwise(10)
    assert all(lr_at(sched, e) > 0 for e in range(11))
    cyc = OneCycle(0.001, 0.1, 1e-7, warmup_fraction=0.1, total_steps=200)
    assert all(lr_at(cyc, s) > 0 for s in range(201))
