import numpy as np
import pytest

from subanneal.masks import MaskSet, full_mask
from subanneal.pruning import (
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
        ms = random_mask(SHAPES, 0.0, "layerwise", substream(0, "m"))
        assert ms.sparsity() == 0.0

    def test_layerwise_exact_counts(self):
        for seed in range(20):
            ms = random_mask(SHAPES, 0.5, "layerwise", substream(seed, "m"))
            assert int(ms["layer0.w"].sum()) == 5
            assert int(ms["layer2.w"].sum()) == 45

    def test_global_pooled_counts(self):
        shapes = {"a": (10,), "b": (9, 10)}
        for seed in range(20):
            ms = random_mask(shapes, 0.5, "global", substream(seed, "g"))
            assert ms.flat.size - ms.flat.sum() == 50  # pooled quota is exact
        per_layer = {
            seed: int(random_mask(shapes, 0.5, "global",
                                  substream(seed, "g"))["a"].sum())
            for seed in range(20)
        }
        assert len(set(per_layer.values())) > 1  # per-layer counts vary

    def test_quota_equal_to_layer_size_raises(self):
        with pytest.raises(SeveredLayerError):
            random_mask({"a": (10,)}, 0.96, "layerwise", substream(0, "m"))


class TestMagnitudeMask:
    def test_sort_oracle(self):
        params = {"a": np.array([3.0, -1.0, 2.0, -4.0])}
        ms = magnitude_mask(params, 0.5, "layerwise")
        np.testing.assert_array_equal(ms["a"], [1, 0, 0, 1])

    def test_rho_zero(self):
        params = {"a": np.array([3.0, -1.0])}
        ms = magnitude_mask(params, 0.0, "layerwise")
        np.testing.assert_array_equal(ms["a"], [1, 1])

    def test_ties_prune_lowest_flat_index_first(self):
        params = {"a": np.ones(10)}
        ms = magnitude_mask(params, 0.5, "layerwise")
        np.testing.assert_array_equal(ms["a"], [0] * 5 + [1] * 5)

    def test_global_pools_across_layers(self):
        params = {"a": np.array([10.0, 11.0]), "b": np.array([0.1, 0.2, 0.3, 12.0])}
        ms = magnitude_mask(params, 0.5, "global")
        np.testing.assert_array_equal(ms["a"], [1, 1])
        np.testing.assert_array_equal(ms["b"], [0, 0, 0, 1])

    def test_a_global_quota_that_severs_a_layer_raises(self):
        params = {"a": np.array([0.0]), "b": np.arange(1.0, 101.0)}
        with pytest.raises(SeveredLayerError,
                           match="global quota fully severed layer 'a'"):
            magnitude_mask(params, 0.01, "global")

    def test_random_sized_instances_match_sort_oracle(self):
        rng = substream(4, "mm")
        for _ in range(25):
            n = int(rng.integers(4, 40))
            rho = float(rng.uniform(0.0, 0.8))
            w = rng.normal(size=n)
            ms = magnitude_mask({"a": w}, rho, "layerwise")
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
        ms = random_mask({"a": (10,)}, 0.5, "layerwise", substream(0, "p"))
        again = prune_increment(ms, 0.5, "layerwise", rng=substream(99, "p"))
        assert same_mask(again, ms)

    def test_exact_new_zero_count_and_monotone(self):
        rng = substream(1, "p")
        ms = prune_increment(full_mask({"a": (10,)}), 0.3, "layerwise",
                             rng=rng)
        assert ms.flat.size - ms.flat.sum() == 3
        nxt = prune_increment(ms, 0.6, "layerwise", rng=rng)
        assert nxt.flat.size - nxt.flat.sum() == 6
        # previously pruned entries stay pruned
        assert np.all(nxt["a"][ms["a"] == 0] == 0)

    def test_magnitude_increment_removes_smallest_active(self):
        w = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        first = prune_increment(full_mask({"a": (5,)}), 0.4, "layerwise",
                                weights={"a": w})
        np.testing.assert_array_equal(first["a"], [1, 0, 1, 0, 1])
        second = prune_increment(first, 0.8, "layerwise", weights={"a": w})
        np.testing.assert_array_equal(second["a"], [1, 0, 0, 0, 0])

    def test_backwards_level_raises(self):
        ms = random_mask({"a": (10,)}, 0.5, "layerwise", substream(0, "p"))
        with pytest.raises(ValueError):
            prune_increment(ms, 0.2, "layerwise", rng=substream(0, "p"))

    def test_iterative_run_monotone_and_exact(self):
        rng = substream(13, "iter")
        mask = full_mask({"a": (17, 23), "b": (40,)})
        prev = mask
        for level in make_iterative_schedule(0.9, 6):
            mask = prune_increment(prev, level, "layerwise", rng=rng)
            assert np.all(mask["a"] <= prev["a"])
            assert np.all(mask["b"] <= prev["b"])
            for name, m in mask.items():
                expected = int(np.floor(level * m.size + 0.5))
                assert int(m.size - m.sum()) == expected
            prev = mask



# The two-branch ``prune_increment`` the package had before it cut both
# granularities in one loop, kept as the reference that loop must match.
# It works on copies of the mask's arrays, since masks are read-only.
def _reference_active_order(active_idx, values, selector, rng, count):
    if count == 0:
        return np.empty(0, dtype=np.intp)
    if selector == "random":
        if rng is None:
            raise ValueError("pruning needs weights or an rng")
        return rng.choice(active_idx, size=count, replace=False)
    if values is None:
        raise ValueError("pruning needs weights or an rng")
    mags = np.abs(values.reshape(-1)[active_idx])
    order = np.argsort(mags, kind="stable")
    return active_idx[order[:count]]


def _reference_increment(current, next_level, selector, granularity,
                         params=None, rng=None):
    if not 0.0 <= next_level < 1.0:
        raise ValueError("next_level must lie in [0, 1)")
    if granularity == "layerwise":
        new = {name: m.copy() for name, m in current.items()}
        for name, m in new.items():
            flat = m.reshape(-1)
            target = _quota(flat.size, next_level)
            have = int(flat.size - flat.sum())
            if target < have:
                raise ValueError(
                    f"{name}: next level {next_level} is below current sparsity")
            active = np.flatnonzero(flat)
            vals = params[name] if params is not None else None
            flat[_reference_active_order(active, vals, selector, rng,
                                         target - have)] = 0
        return MaskSet(new)
    flat = current.flat.copy()
    target = _quota(flat.size, next_level)
    have = int(flat.size - flat.sum())
    if target < have:
        raise ValueError(f"next level {next_level} is below current sparsity")
    active = np.flatnonzero(flat)
    vals = None
    if params is not None:
        vals = np.concatenate(
            [np.asarray(params[name]).reshape(-1) for name in current])
    flat[_reference_active_order(active, vals, selector, rng,
                                 target - have)] = 0
    new = MaskSet(flat, current.shapes)
    check_no_severed_layer(new, "global quota")
    return new


def _outcome(increment, mask, level, selector, granularity, params, rng):
    """(mask, None) or (None, (exception type, message)) of one call; the
    package's is called as a selector calls it, and must leave ``mask``'s
    bytes as they were."""
    before = mask.flat.copy()
    try:
        if increment is _reference_increment:
            return increment(mask, level, selector, granularity, params,
                             rng), None
        weights = params if selector == "magnitude" else None
        return increment(mask, level, granularity, weights, rng), None
    except Exception as err:  # compared by type and message
        return None, (type(err), str(err))
    finally:
        assert np.array_equal(mask.flat, before)


def _compare_chains(levels, shapes, selector, granularity, params, seed):
    """Run both versions through ``levels`` from the all-ones mask; the
    masks, exceptions and rng states must agree at every step. Returns
    the number of increments compared."""
    rngs = [None if seed is None else substream(seed, "equiv")
            for _ in range(2)]
    masks = [full_mask(shapes)] * 2
    for step, level in enumerate(levels, 1):
        (got, got_err), (want, want_err) = (
            _outcome(increment, mask, level, selector, granularity, params,
                     rng)
            for increment, mask, rng in zip(
                (prune_increment, _reference_increment), masks, rngs))
        case = (levels, selector, granularity, step)
        assert got_err == want_err, case
        if want_err is not None:
            return step
        assert same_mask(got, want), case
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
                    compared += _compare_chains(
                        levels, shapes, selector, granularity,
                        params if selector == "magnitude" else None, case)
        assert compared > 1000

    def test_cuts_of_no_entry_need_no_rng_or_weights(self):
        shapes = {"layer0.w": (3,), "layer2.w": (2, 2)}
        for granularity in ("layerwise", "global"):
            for selector in ("random", "magnitude"):
                # 0.1 cuts no entry of a 3-, 4- or 7-entry group
                assert _compare_chains([0.0, 0.1], shapes, selector,
                                       granularity, None, None) == 2
                # 0.5 cuts some: the missing rng or weights raise
                assert _compare_chains([0.5], shapes, selector,
                                       granularity, None, None) == 1


class TestOneShotEquivalence:
    def test_random_phi_one_identical_to_one_shot(self):
        one_shot = random_mask(SHAPES, 0.7, "layerwise", substream(5, "m"))
        level = make_iterative_schedule(0.7, 1)[0]
        iterative = prune_increment(full_mask(SHAPES), level, "layerwise",
                                    rng=substream(5, "m"))
        assert same_mask(one_shot, iterative)

    def test_magnitude_phi_one_identical_to_one_shot(self):
        rng = substream(6, "m")
        params = {name: rng.normal(size=shape) for name, shape in SHAPES.items()}
        one_shot = magnitude_mask(params, 0.7, "layerwise")
        level = make_iterative_schedule(0.7, 1)[0]
        iterative = prune_increment(full_mask(SHAPES), level, "layerwise",
                                    weights=params)
        assert same_mask(one_shot, iterative)


def test_spec_validation():
    # an unknown selector is the config's to reject (test_config.py)
    with pytest.raises(ValueError):
        random_mask(SHAPES, 1.0, "layerwise", substream(0, "m"))
    with pytest.raises(ValueError, match="unknown granularity 'rowwise'"):
        random_mask(SHAPES, 0.5, "rowwise", substream(0, "m"))
    with pytest.raises(ValueError, match="unknown granularity 'rowwise'"):
        prune_increment(full_mask(SHAPES), 0.0, "rowwise")
    with pytest.raises(ValueError):
        make_iterative_schedule(0.5, 0)


class TestIncrementIsAValue:
    def test_the_input_mask_keeps_its_bytes(self):
        shapes = {"layer0.w": (20, 30), "layer2.w": (30, 4)}
        rng = substream(7, "value")
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        for granularity in ("layerwise", "global"):
            start = random_mask(shapes, 0.3, granularity, substream(7, "m"))
            before = start.flat.copy()
            for weights, draw in ((params, None), (None, substream(8, "m"))):
                new = prune_increment(start, 0.6, granularity, weights, draw)
                assert np.array_equal(start.flat, before)
                assert not np.shares_memory(new.flat, start.flat)
                assert np.all(new.flat <= start.flat)  # only removes
                assert new.sparsity() > start.sparsity()

    def test_pruning_needs_weights_or_an_rng(self):
        with pytest.raises(ValueError, match="needs weights or an rng"):
            prune_increment(full_mask(SHAPES), 0.5, "layerwise")


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
            random_mask(self.SHAPES, 0.999, "layerwise", substream(0, "m"))

    def test_a_quota_that_removes_nothing_severs_the_complement(self):
        check_layer_quotas(self.SHAPES, [0.001])
        with pytest.raises(SeveredLayerError, match="'b'.*complement"):
            check_layer_quotas(self.SHAPES, [0.001], complement=True)
        mask = random_mask(self.SHAPES, 0.001, "layerwise",
                           substream(0, "m"))
        assert not mask.complement()["b"].any()
