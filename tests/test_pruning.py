import numpy as np
import pytest

from subanneal.masks import full_mask
from subanneal.pruning import (
    PruneSpec,
    SeveredLayerError,
    _quota,
    check_layer_quotas,
    check_no_severed_layer,
    magnitude_mask,
    make_iterative_schedule,
    prune_increment,
    random_mask,
)
from subanneal.rng import substream

from maskcheck import same_mask

SHAPES = {"layer0.w": (2, 5), "layer2.w": (9, 10)}


class TestRandomMask:
    def test_rho_zero_is_all_ones(self):
        spec = PruneSpec("random", 0.0)
        ms = random_mask(SHAPES, spec, substream(0, "m"))
        assert ms.sparsity() == 0.0

    def test_layerwise_exact_counts(self):
        spec = PruneSpec("random", 0.5)
        for seed in range(20):
            ms = random_mask(SHAPES, spec, substream(seed, "m"))
            assert int(ms["layer0.w"].sum()) == 5
            assert int(ms["layer2.w"].sum()) == 45

    def test_global_pooled_counts(self):
        shapes = {"a": (10,), "b": (9, 10)}
        spec = PruneSpec("random", 0.5, granularity="global")
        for seed in range(20):
            ms = random_mask(shapes, spec, substream(seed, "g"))
            assert ms.zeros() == 50  # pooled quota is exact
        per_layer = {
            seed: int(random_mask(shapes, spec, substream(seed, "g"))["a"].sum())
            for seed in range(20)
        }
        assert len(set(per_layer.values())) > 1  # per-layer counts vary

    def test_quota_equal_to_layer_size_raises(self):
        with pytest.raises(SeveredLayerError):
            random_mask({"a": (10,)}, PruneSpec("random", 0.96),
                        substream(0, "m"))


class TestMagnitudeMask:
    def test_sort_oracle(self):
        params = {"a": np.array([3.0, -1.0, 2.0, -4.0])}
        ms = magnitude_mask(params, PruneSpec("magnitude", 0.5))
        np.testing.assert_array_equal(ms["a"], [1, 0, 0, 1])

    def test_rho_zero(self):
        params = {"a": np.array([3.0, -1.0])}
        ms = magnitude_mask(params, PruneSpec("magnitude", 0.0))
        np.testing.assert_array_equal(ms["a"], [1, 1])

    def test_ties_prune_lowest_flat_index_first(self):
        params = {"a": np.ones(10)}
        ms = magnitude_mask(params, PruneSpec("magnitude", 0.5))
        np.testing.assert_array_equal(ms["a"], [0] * 5 + [1] * 5)

    def test_global_pools_across_layers(self):
        params = {"a": np.array([10.0, 11.0]), "b": np.array([0.1, 0.2, 0.3, 12.0])}
        spec = PruneSpec("magnitude", 0.5, granularity="global")
        ms = magnitude_mask(params, spec)
        np.testing.assert_array_equal(ms["a"], [1, 1])
        np.testing.assert_array_equal(ms["b"], [0, 0, 0, 1])

    def test_a_global_quota_that_severs_a_layer_raises(self):
        params = {"a": np.array([0.0]), "b": np.arange(1.0, 101.0)}
        spec = PruneSpec("magnitude", 0.01, granularity="global")
        with pytest.raises(SeveredLayerError,
                           match="global quota fully severed layer 'a'"):
            magnitude_mask(params, spec)

    def test_random_sized_instances_match_sort_oracle(self):
        rng = substream(4, "mm")
        for _ in range(25):
            n = int(rng.integers(4, 40))
            rho = float(rng.uniform(0.0, 0.8))
            w = rng.normal(size=n)
            ms = magnitude_mask({"a": w}, PruneSpec("magnitude", rho))
            k = int(np.floor(rho * n + 0.5))
            order = np.argsort(np.abs(w), kind="stable")
            expected = np.ones(n, dtype=np.uint8)
            expected[order[:k]] = 0
            np.testing.assert_array_equal(ms["a"], expected)


class TestIterativeSchedule:
    def test_equal_increments(self):
        assert make_iterative_schedule(0.9, 3) == pytest.approx([0.3, 0.6, 0.9])

    def test_phi_one_degenerates_to_one_shot_level(self):
        assert make_iterative_schedule(0.7, 1) == [0.7]

    def test_five_steps(self):
        assert make_iterative_schedule(0.98, 5) == pytest.approx(
            [0.196, 0.392, 0.588, 0.784, 0.98])

    def test_final_level_equals_target_exactly(self):
        for rho in (0.5, 0.7, 0.9, 0.95, 0.98):
            for phi in (1, 3, 5, 10, 20):
                levels = make_iterative_schedule(rho, phi)
                assert levels[-1] == rho
                assert all(a <= b for a, b in zip(levels, levels[1:]))


class TestPruneIncrement:
    def test_same_level_unchanged(self):
        spec = PruneSpec("random", 0.5)
        ms = random_mask({"a": (10,)}, spec, substream(0, "p"))
        again = prune_increment(ms, 0.5, spec, rng=substream(99, "p"))
        assert same_mask(again, ms)

    def test_exact_new_zero_count_and_monotone(self):
        spec = PruneSpec("random", 0.6)
        rng = substream(1, "p")
        ms = prune_increment(full_mask({"a": (10,)}), 0.3, spec, rng=rng)
        assert ms.zeros() == 3
        nxt = prune_increment(ms, 0.6, spec, rng=rng)
        assert nxt.zeros() == 6
        # previously pruned entries stay pruned
        assert np.all(nxt["a"][ms["a"] == 0] == 0)

    def test_magnitude_increment_removes_smallest_active(self):
        w = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        spec = PruneSpec("magnitude", 0.8)
        first = prune_increment(full_mask({"a": (5,)}), 0.4, spec,
                                params={"a": w})
        np.testing.assert_array_equal(first["a"], [1, 0, 1, 0, 1])
        second = prune_increment(first, 0.8, spec, params={"a": w})
        np.testing.assert_array_equal(second["a"], [1, 0, 0, 0, 0])

    def test_backwards_level_raises(self):
        spec = PruneSpec("random", 0.5)
        ms = random_mask({"a": (10,)}, spec, substream(0, "p"))
        with pytest.raises(ValueError):
            prune_increment(ms, 0.2, spec, rng=substream(0, "p"))

    def test_iterative_run_monotone_and_exact(self):
        spec = PruneSpec("random", 0.9)
        rng = substream(13, "iter")
        mask = full_mask({"a": (17, 23), "b": (40,)})
        prev = mask
        for level in make_iterative_schedule(0.9, 6):
            mask = prune_increment(prev, level, spec, rng=rng)
            assert np.all(mask["a"] <= prev["a"])
            assert np.all(mask["b"] <= prev["b"])
            for name, m in mask.items():
                expected = int(np.floor(level * m.size + 0.5))
                assert int(m.size - m.sum()) == expected
            prev = mask



# The two-branch ``prune_increment`` the package had before it cut both
# granularities in one loop, kept as the reference that loop must match.
def _reference_active_order(active_idx, values, selector, rng, count):
    if count == 0:
        return np.empty(0, dtype=np.intp)
    if selector == "random":
        if rng is None:
            raise ValueError("random selection needs an rng")
        return rng.choice(active_idx, size=count, replace=False)
    if values is None:
        raise ValueError("magnitude selection needs parameter values")
    mags = np.abs(values.reshape(-1)[active_idx])
    order = np.argsort(mags, kind="stable")
    return active_idx[order[:count]]


def _reference_increment(current, next_level, spec, params=None, rng=None):
    if not 0.0 <= next_level < 1.0:
        raise ValueError("next_level must lie in [0, 1)")
    new = current.copy()
    if spec.granularity == "layerwise":
        for name, m in new.items():
            flat = m.reshape(-1)
            target = _quota(flat.size, next_level)
            have = int(flat.size - flat.sum())
            if target < have:
                raise ValueError(
                    f"{name}: next level {next_level} is below current sparsity")
            active = np.flatnonzero(flat)
            vals = params[name] if params is not None else None
            flat[_reference_active_order(active, vals, spec.selector, rng,
                                         target - have)] = 0
    else:
        target = _quota(new.total(), next_level)
        have = new.zeros()
        if target < have:
            raise ValueError(f"next level {next_level} is below current sparsity")
        active = np.flatnonzero(new.flat)
        vals = None
        if params is not None:
            vals = np.concatenate(
                [np.asarray(params[name]).reshape(-1) for name in new])
        new.flat[_reference_active_order(active, vals, spec.selector, rng,
                                         target - have)] = 0
        check_no_severed_layer(new, "global quota")
    return new


def _outcome(increment, mask, level, spec, params, rng):
    """(mask, None) or (None, (exception type, message)) of one call."""
    try:
        return increment(mask, level, spec, params=params, rng=rng), None
    except Exception as err:  # compared by type and message
        return None, (type(err), str(err))


def _compare_chains(levels, shapes, spec, params, seed):
    """Run both versions through ``levels`` from the all-ones mask; the
    masks, exceptions and rng states must agree at every step. Returns
    the number of increments compared."""
    rngs = [None if seed is None else substream(seed, "equiv")
            for _ in range(2)]
    masks = [full_mask(shapes)] * 2
    for step, level in enumerate(levels, 1):
        (got, got_err), (want, want_err) = (
            _outcome(increment, mask, level, spec, params, rng)
            for increment, mask, rng in zip(
                (prune_increment, _reference_increment), masks, rngs))
        assert got_err == want_err, (levels, spec, step)
        if want_err is not None:
            return step
        assert same_mask(got, want), (levels, spec, step)
        masks = [got, want]
        if seed is not None:
            assert (rngs[0].bit_generator.state
                    == rngs[1].bit_generator.state)
    return len(levels)


class TestOneLoopMatchesTheTwoBranchReference:
    def test_seeded_increments(self):
        compared = 0
        for case in range(240):
            rng = substream(case, "equiv-case")
            shapes = {f"layer{2 * i}.w": tuple(int(d) for d in
                                              rng.integers(1, 7, size=rng.integers(1, 3)))
                      for i in range(rng.integers(1, 4))}
            # integer weights, so magnitude selection meets ties
            params = {name: np.round(rng.normal(0.0, 2.0, shape))
                      for name, shape in shapes.items()}
            levels = np.sort(rng.uniform(0.0, 0.95, 3)).tolist()
            if case % 7 == 0:  # a level below the one before it
                levels[2] = levels[0] / 2
            for selector in ("random", "magnitude"):
                for granularity in ("layerwise", "global"):
                    spec = PruneSpec(selector, 0.5, granularity)
                    compared += _compare_chains(
                        levels, shapes, spec,
                        params if selector == "magnitude" else None, case)
        assert compared > 1000

    def test_cuts_of_no_entry_need_no_rng_or_weights(self):
        shapes = {"layer0.w": (3,), "layer2.w": (2, 2)}
        for granularity in ("layerwise", "global"):
            for selector in ("random", "magnitude"):
                spec = PruneSpec(selector, 0.5, granularity)
                # 0.1 cuts no entry of a 3-, 4- or 7-entry group
                assert _compare_chains([0.0, 0.1], shapes, spec, None,
                                       None) == 2
                # 0.5 cuts some: the missing rng or weights raise
                assert _compare_chains([0.5], shapes, spec, None, None) == 1


class TestOneShotEquivalence:
    def test_random_phi_one_identical_to_one_shot(self):
        spec = PruneSpec("random", 0.7)
        one_shot = random_mask(SHAPES, spec, substream(5, "m"))
        level = make_iterative_schedule(0.7, 1)[0]
        iterative = prune_increment(full_mask(SHAPES), level, spec,
                                    rng=substream(5, "m"))
        assert same_mask(one_shot, iterative)

    def test_magnitude_phi_one_identical_to_one_shot(self):
        rng = substream(6, "m")
        params = {name: rng.normal(size=shape) for name, shape in SHAPES.items()}
        spec = PruneSpec("magnitude", 0.7)
        one_shot = magnitude_mask(params, spec)
        level = make_iterative_schedule(0.7, 1)[0]
        iterative = prune_increment(full_mask(SHAPES), level, spec, params=params)
        assert same_mask(one_shot, iterative)


def test_spec_validation():
    with pytest.raises(ValueError):
        PruneSpec("fisher", 0.5)
    with pytest.raises(ValueError):
        PruneSpec("random", 1.0)
    with pytest.raises(ValueError):
        PruneSpec("random", 0.5, granularity="rowwise")
    with pytest.raises(ValueError):
        make_iterative_schedule(0.5, 0)


class TestLayerQuotas:
    """``check_layer_quotas`` decides from shapes what the masks raise."""

    SHAPES = {"a": (10, 100), "b": (100, 3)}

    def test_quotas_that_keep_every_layer_pass(self):
        check_layer_quotas(self.SHAPES, [0.0, 0.5, 0.99])
        check_layer_quotas(self.SHAPES, [0.5, 0.9], complement=True)

    def test_a_quota_that_removes_a_whole_layer_raises(self):
        with pytest.raises(SeveredLayerError):
            check_layer_quotas(self.SHAPES, [0.5, 0.999])
        with pytest.raises(SeveredLayerError):
            random_mask(self.SHAPES, PruneSpec("random", 0.999),
                        substream(0, "m"))

    def test_a_quota_that_removes_nothing_severs_the_complement(self):
        check_layer_quotas(self.SHAPES, [0.001])
        with pytest.raises(SeveredLayerError, match="'b'.*complement"):
            check_layer_quotas(self.SHAPES, [0.001], complement=True)
        mask = random_mask(self.SHAPES, PruneSpec("random", 0.001),
                           substream(0, "m"))
        assert not mask.complement()["b"].any()
