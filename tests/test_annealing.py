import numpy as np
import pytest

from subanneal.annealing import (
    AnnealController,
    FixedMaskController,
    IterativeController,
    anti_probability,
    decay_fraction,
    init_random,
    init_temperature,
    probs_at_epoch,
    tune,
)
from subanneal.data import make_blobs
from subanneal.masks import MaskSet, realize
from subanneal.nn.layers import Dense, Network, ReLU
from subanneal.nn.optim import SGD
from subanneal.pruning import random_mask
from subanneal.rng import substream
from subanneal.training import DivergenceError, predict_logits

from maskcheck import layers, same_mask
from rates import constant


BIMODAL = (0.25, 0.15, 0.75, 0.15)  # the config's (mu1, sigma1, mu2, sigma2)


class TestScheduleValue:
    """``decay_fraction``, the schedule every annealing run follows."""

    def test_linear_endpoints(self):
        assert decay_fraction("linear", 0, 10) == 1.0
        assert decay_fraction("linear", 10, 10) == 0.0

    def test_cosine_endpoints_exact(self):
        assert decay_fraction("cosine", 0, 7) == 1.0
        assert decay_fraction("cosine", 7, 7) == 0.0

    def test_cosine_midpoint_symmetry(self):
        assert decay_fraction("cosine", 5, 10) == pytest.approx(0.5, abs=1e-12)

    def test_linear_quarter_point(self):
        assert decay_fraction("linear", 2, 8) == pytest.approx(0.75, abs=1e-15)

    def test_clamps_past_the_end(self):
        assert decay_fraction("linear", 9, 4) == 0.0

    def test_zero_length_schedule_is_terminal(self):
        assert decay_fraction("cosine", 0, 0) == 0.0

    def test_monotone_nonincreasing(self):
        for kind in ("linear", "cosine"):
            values = [decay_fraction(kind, t, 50) for t in range(51)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            decay_fraction("exp", 0, 10)
        with pytest.raises(ValueError):
            decay_fraction("linear", -1, 10)
        with pytest.raises(ValueError):
            decay_fraction("linear", 0, -1)


class TestInitTemperature:
    def test_tau_zero_is_pure_one_shot(self):
        m = MaskSet({"a": np.array([[1, 0], [0, 1]], dtype=np.uint8)})
        ps = init_temperature(m, 0.0, "reverse-dropout")
        np.testing.assert_array_equal(layers(ps)["a"], m["a"].astype(float))

    def test_tau_one_full_scaling_inverts_the_network(self):
        m = MaskSet({"a": np.array([[1, 0], [0, 1]], dtype=np.uint8)})
        ps = init_temperature(m, 1.0, "full-scaling")
        np.testing.assert_array_equal(layers(ps)["a"],
                                      1.0 - m["a"].astype(float))

    def test_reverse_dropout_matrix_display(self):
        # kept entries stay 1; pruned entries read 0 + tau
        m = MaskSet({"a": np.array([[1, 0], [0, 1]], dtype=np.uint8)})
        ps = init_temperature(m, 0.5, "reverse-dropout")
        np.testing.assert_array_equal(layers(ps)["a"],
                                      [[1.0, 0.5], [0.5, 1.0]])

    def test_terminal_is_the_target(self):
        m = MaskSet({"a": np.array([1, 0, 1, 0], dtype=np.uint8)})
        ps = init_temperature(m, 0.3, "reverse-dropout")
        assert same_mask(ps.terminal, m)

    def test_rejects_tau0_outside_the_unit_interval(self):
        m = MaskSet({"a": np.array([1, 0], dtype=np.uint8)})
        for tau0 in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"tau0 must lie in \[0, 1\]"):
                init_temperature(m, tau0, "reverse-dropout")

    def test_rejects_an_unknown_variant(self):
        m = MaskSet({"a": np.array([1, 0], dtype=np.uint8)})
        with pytest.raises(ValueError, match="unknown variant 'dropout'"):
            init_temperature(m, 0.5, "dropout")


class TestInitRandom:
    def test_rho_zero_uniform_terminal_all_ones(self):
        ps = init_random({"a": (50, 50)}, 0.0, substream(0, "r"))
        assert ps.terminal.sparsity() == 0.0

    def test_uniform_terminal_sparsity_binomial(self):
        ps = init_random({"a": (400, 250)}, 0.7, substream(1, "r"))
        # 100,000 entries; 3 sigma of Bernoulli(0.7) is ~0.0043
        assert ps.terminal.sparsity() == pytest.approx(0.7, abs=0.01)

    def test_uniform_entries_below_rho_anneal_to_zero(self):
        ps = init_random({"a": (30, 30)}, 0.4, substream(2, "r"))
        below = layers(ps)["a"] < 0.4
        np.testing.assert_array_equal(ps.terminal["a"][below], 0)
        np.testing.assert_array_equal(ps.terminal["a"][~below], 1)

    def test_bimodal_histogram(self):
        ps = init_random({"a": (200, 250)}, 0.5, substream(3, "r"), BIMODAL)
        p = layers(ps)["a"]
        kept = ps.terminal["a"] == 1
        # Monte-Carlo over the stated normals: modes near 0.25 and 0.75
        assert np.median(p[~kept]) == pytest.approx(0.25, abs=0.02)
        assert np.median(p[kept]) == pytest.approx(0.75, abs=0.02)
        clamped = np.mean((p == 0.0) | (p == 1.0))
        assert clamped < 0.05

    def test_bimodal_keep_rate_tracks_rho(self):
        ps = init_random({"a": (200, 250)}, 0.8, substream(4, "r"), BIMODAL)
        assert ps.terminal.sparsity() == pytest.approx(0.8, abs=0.01)

    def test_bad_sigma_rejected(self):
        for sigmas in ((0.0, 0.15), (0.15, -0.1)):
            with pytest.raises(ValueError, match="sigmas must be positive"):
                init_random({"a": (4, 4)}, 0.5, substream(0, "r"),
                            (0.25, sigmas[0], 0.75, sigmas[1]))

    def test_rho_outside_the_unit_interval_rejected(self):
        for rho in (-0.1, 1.0):
            with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\)"):
                init_random({"a": (4, 4)}, rho, substream(0, "r"))


class TestInitRandomLayout:
    SHAPES = {"layer0.w": (7, 5), "layer2.w": (5,), "layer4.w": (3, 2, 2)}

    @pytest.mark.parametrize("bimodal", [None, BIMODAL],
                             ids=["uniform", "bimodal"])
    def test_the_flat_build_equals_per_layer_draws(self, bimodal):
        used, replay = substream(9, "ir"), substream(9, "ir")
        ps = init_random(self.SHAPES, 0.4, used, bimodal)
        for name, shape in self.SHAPES.items():  # one layer at a time
            if bimodal is None:
                p = replay.random(shape)
                t = (p >= 0.4).astype(np.uint8)
            else:
                t = (replay.random(shape) < 0.6).astype(np.uint8)
                draws0 = replay.normal(BIMODAL[0], BIMODAL[1], shape)
                draws1 = replay.normal(BIMODAL[2], BIMODAL[3], shape)
                p = np.clip(np.where(t == 1, draws1, draws0), 0.0, 1.0)
            assert layers(ps)[name].tobytes() == p.tobytes(), name
            assert ps.terminal[name].tobytes() == t.tobytes(), name
        assert ps.flat.dtype == np.float64
        assert ps.terminal.flat.dtype == np.uint8
        assert ps.shapes == ps.terminal.shapes == self.SHAPES
        assert used.bit_generator.state == replay.bit_generator.state

    def test_a_shape_dict_without_layers_gives_an_empty_set(self):
        ps = init_random({}, 0.5, substream(9, "ir"))
        assert ps.flat.size == 0 and ps.terminal.shapes == {}


class TestSetsShareTheirMasks:
    def test_init_temperature_shares_its_target(self):
        target = MaskSet({"a": np.array([1, 0, 1, 0], dtype=np.uint8)})
        for variant in ("reverse-dropout", "full-scaling"):
            assert init_temperature(target, 0.5, variant).terminal is target

    def test_epoch_zero_is_init_and_later_epochs_share_its_terminal(self):
        ps = init_random({"a": (40, 25)}, 0.6, substream(5, "pae2"))
        assert probs_at_epoch(ps, "cosine", 4, 0) is ps
        for epoch in (1, 3, 4, 9):
            later = probs_at_epoch(ps, "cosine", 4, epoch)
            assert later is not ps
            assert later.terminal is ps.terminal
        assert probs_at_epoch(ps, "linear", 0, 0).terminal is ps.terminal

    def test_a_controller_keeps_one_terminal_mask(self):
        target = MaskSet({"a": substream(6, "share").random((6, 6)) < 0.5})
        controller = _annealed(target, 0.5, 2)
        for epoch in range(4):
            controller.begin_epoch(epoch)
            assert controller.mask is target
            assert controller.probs.terminal is target


class TestProbsAtEpoch:
    def _ps(self):
        rng = substream(5, "pae")
        p = rng.random((40, 25))
        terminal = MaskSet({"a": (p >= 0.6).astype(np.uint8)})
        return init_random({"a": (40, 25)}, 0.6, substream(5, "pae2"))

    def test_epoch_zero_returns_init_unchanged(self):
        ps = self._ps()
        out = probs_at_epoch(ps, "linear", 10, 0)
        np.testing.assert_array_equal(layers(out)["a"], layers(ps)["a"])

    def test_epoch_at_phi_is_terminal_exactly(self):
        ps = self._ps()
        for epoch in (10, 11, 50):
            out = probs_at_epoch(ps, "cosine", 10, epoch)
            np.testing.assert_array_equal(layers(out)["a"],
                                          ps.terminal["a"].astype(float))

    def test_reverse_dropout_cosine_midpoint(self):
        m = MaskSet({"a": np.array([1, 0, 0, 1], dtype=np.uint8)})
        ps = init_temperature(m, 0.5, "reverse-dropout")
        out = probs_at_epoch(ps, "cosine", 10, 5)
        np.testing.assert_allclose(out.flat[1:3], [0.25, 0.25], atol=1e-12)
        np.testing.assert_array_equal(out.flat[[0, 3]], [1.0, 1.0])

    def test_monotone_per_entry(self):
        ps = self._ps()
        for kind in ("linear", "cosine"):
            prev = probs_at_epoch(ps, kind, 12, 0)
            kept = ps.terminal.flat == 1
            for epoch in range(1, 14):
                cur = probs_at_epoch(ps, kind, 12, epoch)
                assert np.all(cur.flat[kept] >= prev.flat[kept] - 1e-15)
                assert np.all(cur.flat[~kept] <= prev.flat[~kept] + 1e-15)
                assert cur.flat.min() >= 0.0 and cur.flat.max() <= 1.0
                prev = cur

    def test_phi_zero_is_terminal_from_the_start(self):
        ps = self._ps()
        out = probs_at_epoch(ps, "linear", 0, 0)
        np.testing.assert_array_equal(layers(out)["a"],
                                      ps.terminal["a"].astype(float))

    def test_rejects_a_negative_epoch(self):
        with pytest.raises(ValueError, match="epoch must be nonnegative"):
            probs_at_epoch(self._ps(), "linear", 10, -1)


class TestAntiProbability:
    def test_all_ones_flip(self):
        m = MaskSet({"a": np.ones((3, 3), dtype=np.uint8)})
        ps = init_temperature(m, 0.0, "reverse-dropout")
        anti = anti_probability(ps)
        assert layers(anti)["a"].max() == 0.0
        assert anti.terminal.sparsity() == 1.0

    def test_involution_bit_exact_on_generated_sets(self):
        # uniform draws are dyadic (k * 2^-53), so 1-(1-p) is exact
        ps = init_random({"a": (60, 40)}, 0.5, substream(6, "anti"))
        twice = anti_probability(anti_probability(ps))
        np.testing.assert_array_equal(layers(twice)["a"], layers(ps)["a"])
        assert same_mask(twice.terminal, ps.terminal)

    def test_mean_plus_anti_mean_is_one(self):
        ps = init_random({"a": (60, 40)}, 0.3, substream(7, "anti"))
        assert ps.mean() + anti_probability(ps).mean() == pytest.approx(1.0,
                                                                        abs=1e-12)

    def test_mirror_holds_at_every_epoch(self):
        m = MaskSet({"a": (substream(8, "anti").random((20, 20)) < 0.5)
                     .astype(np.uint8)})
        ps = init_temperature(m, 0.5, "reverse-dropout")
        anti = anti_probability(ps)
        for epoch in range(8):
            a = probs_at_epoch(ps, "cosine", 6, epoch)
            b = probs_at_epoch(anti, "cosine", 6, epoch)
            np.testing.assert_allclose(a.flat + b.flat, 1.0, atol=1e-15)


def _annealed(target, tau0, phi):
    """Reverse-dropout temperature annealing of ``target`` under the cosine
    decay, the config's defaults."""
    return AnnealController(init_temperature(target, tau0, "reverse-dropout"),
                            "cosine", phi)


def _toy_net(seed=0, d=8, k=3):
    net = Network([Dense(d, 12), ReLU(), Dense(12, k)], input_shape=(d,))
    net.init_params(substream(seed, "init"))
    return net


def _toy_data(d=8, k=3, n=96):
    train = make_blobs("train", n=n, d=d, k=k, separation=4.0, data_seed=0)
    return train.x, train.y


def _run_tune(controller, seed=0, epochs=4, lr=0.05):
    net = _toy_net(seed)
    x, y = _toy_data()
    rows = tune(net, controller, (x, y), epochs, constant(lr),
                SGD(momentum=0.9, nesterov=True), 32,
                rng_shuffle=substream(seed, "shuffle"),
                rng_mask=substream(seed, "bernoulli"))
    return net, rows


class TestTune:
    def _target(self):
        shapes = {"layer0.w": (8, 12), "layer2.w": (12, 3)}
        return random_mask(shapes, 0.5, "layerwise", substream(1, "m"))

    def test_tau_zero_reproduces_fixed_mask_bit_exactly(self):
        target = self._target()
        net_a, _ = _run_tune(_annealed(target, 0.0, 3))
        net_b, _ = _run_tune(FixedMaskController(target))
        for name in net_a.params():
            np.testing.assert_array_equal(net_a.params()[name],
                                          net_b.params()[name])

    def test_phi_zero_equivalent_to_one_shot(self):
        target = self._target()
        net_a, _ = _run_tune(_annealed(target, 0.5, 0))
        net_b, _ = _run_tune(FixedMaskController(target))
        for name in net_a.params():
            np.testing.assert_array_equal(net_a.params()[name],
                                          net_b.params()[name])

    def test_finalize_burns_terminal_mask_in(self):
        target = self._target()
        net, _ = _run_tune(_annealed(target, 0.5, 2))
        x, _ = _toy_data()
        plain = predict_logits(net, x)
        masked = predict_logits(net, x, mask=target)
        np.testing.assert_array_equal(plain, masked)
        for name, w in net.weights().items():
            assert np.all(w[target[name] == 0] == 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        target = self._target()
        with pytest.raises(DivergenceError) as info:
            _run_tune(FixedMaskController(target), lr=1e150, epochs=4)
        assert "epoch" in info.value.record

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_logits_are_a_divergence(self):
        """Weights large enough to overflow the logits, though no training
        loss was seen: evaluating them raises, not a metric out of range."""
        net = _toy_net()
        x, _ = _toy_data()
        for w in net.weights().values():
            w[...] = 1e200
        with pytest.raises(DivergenceError, match="non-finite logits"):
            predict_logits(net, x)

    def test_reverse_dropout_keeps_target_always_active(self):
        target = self._target()
        controller = _annealed(target, 0.5, 5)
        rng = substream(2, "draws")
        controller.begin_epoch(1)
        for _ in range(50):
            mask = controller.batch_mask(rng)
            for name in target:
                assert np.all(mask[name][target[name] == 1] == 1)

    def test_iterative_controller_reaches_target_monotonically(self):
        net = _toy_net()
        controller = IterativeController("random", 0.9, "layerwise", 4,
                                         net.weights(), substream(3, "m"))
        x, y = _toy_data()
        rows = tune(net, controller, (x, y), 6, constant(0.05),
                    SGD(), 32, rng_shuffle=substream(3, "s"))
        sparsities = [row["realized_sparsity"] for row in rows]
        assert sparsities == sorted(sparsities)
        assert sparsities[-1] == pytest.approx(0.9, abs=0.01)

    def test_expected_mask_evaluation_option(self):
        # during the stochastic phase, "expected" scales weights by P and
        # so disagrees with terminal-mask evaluation; after annealing ends
        # the two coincide because P equals the terminal mask exactly
        target = self._target()
        x, y = _toy_data()

        def rows_for(mode):
            net = _toy_net()
            return tune(net, _annealed(target, 0.8, 3),
                (x, y), 4, constant(0.05), SGD(), 32,
                rng_shuffle=substream(4, "s"), rng_mask=substream(4, "b"),
                eval_data=(x, y), eval_mode=mode)

        terminal_rows = rows_for("terminal")
        expected_rows = rows_for("expected")
        assert expected_rows[0]["test_nll"] != terminal_rows[0]["test_nll"]
        assert expected_rows[3]["test_nll"] == terminal_rows[3]["test_nll"]
        with pytest.raises(ValueError):
            rows_for("bernoulli")

    def test_rows_carry_expected_columns(self):
        target = self._target()
        x, y = _toy_data()
        net = _toy_net()
        rows = tune(net, _annealed(target, 0.5, 2),
            (x, y), 3, constant(0.05), SGD(), 32,
            rng_shuffle=substream(0, "s"), rng_mask=substream(0, "b"),
            eval_data=(x, y))
        for row in rows:
            assert {"epoch", "train_loss", "test_acc", "test_nll", "test_ece",
                    "realized_sparsity", "lr",
                    "mean_active_fraction"} <= set(row)
        # annealing epochs shrink the expected active fraction toward 1-rho
        assert rows[0]["mean_active_fraction"] > rows[2]["mean_active_fraction"]


class TestUniformActivationClaim:
    def test_expected_active_fraction_half_regardless_of_rho(self):
        for rho in (0.5, 0.9, 0.98):
            ps = init_random({"a": (100, 100)}, rho, substream(11, "u", rho))
            mask = realize(ps, substream(12, "u", rho))
            assert abs(mask["a"].mean() - 0.5) < 0.015


class TestControllers:
    def test_anti_controller_mirrors_probabilities(self):
        target = MaskSet({"a": (substream(13, "ac").random((15, 15)) < 0.5)
                          .astype(np.uint8)})
        base = _annealed(target, 0.5, 4)
        mirror = AnnealController(anti_probability(base.init), "cosine", 4)
        for epoch in range(6):
            base.begin_epoch(epoch)
            mirror.begin_epoch(epoch)
            np.testing.assert_allclose(
                base.probs.flat + mirror.probs.flat, 1.0, atol=1e-15)
        assert same_mask(mirror.mask, target.complement())

    def test_every_batch_draws_before_phi_and_none_from_phi_on(self):
        # binary probabilities (tau0 0, and full scaling's first epoch at
        # tau0 1) still draw: a draw of 0/1 probabilities is those values
        target = MaskSet({"a": substream(15, "bm").random((9, 9)) < 0.5,
                          "b": substream(16, "bm").random(6) < 0.5})
        for tau0, variant in ((0.5, "reverse-dropout"),
                              (0.0, "reverse-dropout"), (0.0, "full-scaling"),
                              (1.0, "full-scaling")):
            controller = AnnealController(
                init_temperature(target, tau0, variant), "cosine", 2)
            rng, replay = substream(17, "bm"), substream(17, "bm")
            for epoch in (0, 1):
                controller.begin_epoch(epoch)
                for _ in range(3):
                    state = rng.bit_generator.state
                    mask = controller.batch_mask(rng)
                    assert rng.bit_generator.state != state
                    assert same_mask(mask, realize(controller.probs, replay))
            state = rng.bit_generator.state
            for epoch in (2, 3):
                controller.begin_epoch(epoch)
                assert all(controller.batch_mask(rng) is controller.mask
                           for _ in range(3))
            assert rng.bit_generator.state == state  # no uniforms drawn
            assert same_mask(controller.mask, target)

    def test_construction_rejects_an_unknown_decay_or_a_negative_phi(self):
        init = init_temperature(MaskSet({"a": np.array([1, 0], np.uint8)}),
                                0.5, "reverse-dropout")
        with pytest.raises(ValueError, match="unknown schedule kind 'exp'"):
            AnnealController(init, "exp", 3)
        with pytest.raises(ValueError,
                           match="anneal_epochs must be nonnegative"):
            AnnealController(init, "cosine", -1)

    def test_random_anneal_controller_logs_realized_sparsity(self):
        controller = AnnealController(
            init_random({"a": (50, 50)}, 0.7, substream(14, "rc")), "linear",
            5)
        assert controller.mask.sparsity() == pytest.approx(0.7, abs=0.05)

    @pytest.mark.parametrize("kind", ["fixed", "iterative", "anneal"])
    def test_tune_reads_only_mask_and_probs(self, kind):
        # rows, evaluation and the burned-in mask come from the controller's
        # mask and probs as they stand after each begin_epoch
        net = _toy_net()
        target = TestTune()._target()
        if kind == "fixed":
            controller = FixedMaskController(target)
        elif kind == "iterative":
            controller = IterativeController("random", 0.5, "layerwise", 2,
                                             net.weights(), substream(5, "m"))
        else:
            controller = _annealed(target, 0.5, 2)
        assert (controller.probs is None) == (kind != "anneal")
        states = []
        begin = controller.begin_epoch

        def recording_begin(epoch):
            begin(epoch)
            probs = controller.probs
            states.append((controller.mask.sparsity(),
                           None if probs is None else probs.mean()))

        controller.begin_epoch = recording_begin
        x, y = _toy_data()
        rows = tune(net, controller, (x, y), 3, constant(0.05), SGD(), 32,
                    rng_shuffle=substream(5, "s"), rng_mask=substream(5, "b"))
        for row, (sparsity, mean_prob) in zip(rows, states):
            assert row["realized_sparsity"] == sparsity
            assert row["mean_active_fraction"] == (
                1.0 - sparsity if mean_prob is None else mean_prob)
        for name, w in net.weights().items():
            assert np.all(w[controller.mask[name] == 0] == 0.0)
