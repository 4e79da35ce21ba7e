import numpy as np
import pytest

from subanneal.annealing import (
    AnnealSchedule,
    FixedMaskController,
    IterativeController,
    RandomAnnealConfig,
    TemperatureConfig,
    anti_controller,
    anti_probability,
    init_random,
    init_temperature,
    probs_at_epoch,
    random_anneal_controller,
    schedule_value,
    temperature_controller,
    tune,
)
from subanneal.data import make_blobs
from subanneal.masks import MaskSet, realize
from subanneal.nn.layers import Dense, Network, ReLU
from subanneal.nn.optim import SGD
from subanneal.nn.schedules import Constant
from subanneal.pruning import PruneSpec, random_mask
from subanneal.rng import substream
from subanneal.training import DivergenceError, predict_logits


class TestScheduleValue:
    def test_linear_endpoints(self):
        s = AnnealSchedule("linear", 0.5, 0.0, 10)
        assert schedule_value(s, 0) == 0.5
        assert schedule_value(s, 10) == 0.0

    def test_cosine_endpoints_exact(self):
        s = AnnealSchedule("cosine", 0.73, 0.11, 7)
        assert schedule_value(s, 0) == 0.73
        assert schedule_value(s, 7) == 0.11

    def test_cosine_midpoint_symmetry(self):
        s = AnnealSchedule("cosine", 0.8, 0.2, 10)
        assert schedule_value(s, 5) == pytest.approx(0.5, abs=1e-12)

    def test_linear_quarter_point(self):
        s = AnnealSchedule("linear", 0.5, 0.0, 8)
        assert schedule_value(s, 2) == pytest.approx(0.375, abs=1e-15)

    def test_clamps_past_the_end(self):
        s = AnnealSchedule("linear", 0.5, 0.1, 4)
        assert schedule_value(s, 9) == 0.1

    def test_zero_length_schedule_is_terminal(self):
        s = AnnealSchedule("cosine", 0.5, 0.0, 0)
        assert schedule_value(s, 0) == 0.0

    def test_monotone_nonincreasing(self):
        for kind in ("linear", "cosine"):
            s = AnnealSchedule(kind, 0.9, 0.05, 50)
            values = [schedule_value(s, t) for t in range(51)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule("linear", 0.1, 0.5, 10)
        with pytest.raises(ValueError):
            AnnealSchedule("exp", 0.5, 0.0, 10)
        with pytest.raises(ValueError):
            schedule_value(AnnealSchedule("linear", 0.5, 0.0, 10), -1)


class TestInitTemperature:
    def test_tau_zero_is_pure_one_shot(self):
        m = MaskSet({"a": np.array([[1, 0], [0, 1]], dtype=np.uint8)})
        ps = init_temperature(m, TemperatureConfig(tau0=0.0))
        np.testing.assert_array_equal(ps["a"], m["a"].astype(float))

    def test_tau_one_full_scaling_inverts_the_network(self):
        m = MaskSet({"a": np.array([[1, 0], [0, 1]], dtype=np.uint8)})
        cfg = TemperatureConfig(tau0=1.0, variant="full-scaling")
        ps = init_temperature(m, cfg)
        np.testing.assert_array_equal(ps["a"], 1.0 - m["a"].astype(float))

    def test_reverse_dropout_matrix_display(self):
        # kept entries stay 1; pruned entries read 0 + tau
        m = MaskSet({"a": np.array([[1, 0], [0, 1]], dtype=np.uint8)})
        ps = init_temperature(m, TemperatureConfig(tau0=0.5))
        np.testing.assert_array_equal(ps["a"], [[1.0, 0.5], [0.5, 1.0]])

    def test_terminal_is_the_target(self):
        m = MaskSet({"a": np.array([1, 0, 1, 0], dtype=np.uint8)})
        ps = init_temperature(m, TemperatureConfig(tau0=0.3))
        assert ps.terminal.equals(m)


class TestInitRandom:
    def test_rho_zero_uniform_terminal_all_ones(self):
        cfg = RandomAnnealConfig(rho=0.0)
        ps = init_random({"a": (50, 50)}, cfg, substream(0, "r"))
        assert ps.terminal.sparsity() == 0.0

    def test_uniform_terminal_sparsity_binomial(self):
        cfg = RandomAnnealConfig(rho=0.7)
        ps = init_random({"a": (400, 250)}, cfg, substream(1, "r"))
        # 100,000 entries; 3 sigma of Bernoulli(0.7) is ~0.0043
        assert ps.terminal.sparsity() == pytest.approx(0.7, abs=0.01)

    def test_uniform_entries_below_rho_anneal_to_zero(self):
        cfg = RandomAnnealConfig(rho=0.4)
        ps = init_random({"a": (30, 30)}, cfg, substream(2, "r"))
        below = ps["a"] < 0.4
        np.testing.assert_array_equal(ps.terminal["a"][below], 0)
        np.testing.assert_array_equal(ps.terminal["a"][~below], 1)

    def test_bimodal_histogram(self):
        cfg = RandomAnnealConfig(rho=0.5, distribution="bimodal")
        ps = init_random({"a": (200, 250)}, cfg, substream(3, "r"))
        p = ps["a"]
        kept = ps.terminal["a"] == 1
        # Monte-Carlo over the stated normals: modes near 0.25 and 0.75
        assert np.median(p[~kept]) == pytest.approx(0.25, abs=0.02)
        assert np.median(p[kept]) == pytest.approx(0.75, abs=0.02)
        clamped = np.mean((p == 0.0) | (p == 1.0))
        assert clamped < 0.05

    def test_bimodal_keep_rate_tracks_rho(self):
        cfg = RandomAnnealConfig(rho=0.8, distribution="bimodal")
        ps = init_random({"a": (200, 250)}, cfg, substream(4, "r"))
        assert ps.terminal.sparsity() == pytest.approx(0.8, abs=0.01)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            RandomAnnealConfig(rho=0.5, distribution="bimodal", sigma1=0.0)


class TestProbsAtEpoch:
    def _ps(self):
        rng = substream(5, "pae")
        p = rng.random((40, 25))
        terminal = MaskSet({"a": (p >= 0.6).astype(np.uint8)})
        return init_random({"a": (40, 25)}, RandomAnnealConfig(rho=0.6),
                           substream(5, "pae2"))

    def test_epoch_zero_returns_init_unchanged(self):
        ps = self._ps()
        out = probs_at_epoch(ps, "linear", 10, 0)
        np.testing.assert_array_equal(out["a"], ps["a"])

    def test_epoch_at_phi_is_terminal_exactly(self):
        ps = self._ps()
        for epoch in (10, 11, 50):
            out = probs_at_epoch(ps, "cosine", 10, epoch)
            np.testing.assert_array_equal(out["a"],
                                          ps.terminal["a"].astype(float))

    def test_reverse_dropout_cosine_midpoint(self):
        m = MaskSet({"a": np.array([1, 0, 0, 1], dtype=np.uint8)})
        ps = init_temperature(m, TemperatureConfig(tau0=0.5, decay="cosine",
                                                   anneal_epochs=10))
        out = probs_at_epoch(ps, "cosine", 10, 5)
        np.testing.assert_allclose(out["a"][1:3], [0.25, 0.25], atol=1e-12)
        np.testing.assert_array_equal(out["a"][[0, 3]], [1.0, 1.0])

    def test_monotone_per_entry(self):
        ps = self._ps()
        for kind in ("linear", "cosine"):
            prev = probs_at_epoch(ps, kind, 12, 0)
            kept = ps.terminal["a"] == 1
            for epoch in range(1, 14):
                cur = probs_at_epoch(ps, kind, 12, epoch)
                assert np.all(cur["a"][kept] >= prev["a"][kept] - 1e-15)
                assert np.all(cur["a"][~kept] <= prev["a"][~kept] + 1e-15)
                assert cur["a"].min() >= 0.0 and cur["a"].max() <= 1.0
                prev = cur

    def test_phi_zero_is_terminal_from_the_start(self):
        ps = self._ps()
        out = probs_at_epoch(ps, "linear", 0, 0)
        np.testing.assert_array_equal(out["a"], ps.terminal["a"].astype(float))


class TestAntiProbability:
    def test_all_ones_flip(self):
        m = MaskSet({"a": np.ones((3, 3), dtype=np.uint8)})
        ps = init_temperature(m, TemperatureConfig(tau0=0.0))
        anti = anti_probability(ps)
        assert anti["a"].max() == 0.0
        assert anti.terminal.sparsity() == 1.0

    def test_involution_bit_exact_on_generated_sets(self):
        # uniform draws are dyadic (k * 2^-53), so 1-(1-p) is exact
        ps = init_random({"a": (60, 40)}, RandomAnnealConfig(rho=0.5),
                         substream(6, "anti"))
        twice = anti_probability(anti_probability(ps))
        np.testing.assert_array_equal(twice["a"], ps["a"])
        assert twice.terminal.equals(ps.terminal)

    def test_mean_plus_anti_mean_is_one(self):
        ps = init_random({"a": (60, 40)}, RandomAnnealConfig(rho=0.3),
                         substream(7, "anti"))
        assert ps.mean() + anti_probability(ps).mean() == pytest.approx(1.0,
                                                                        abs=1e-12)

    def test_mirror_holds_at_every_epoch(self):
        m = MaskSet({"a": (substream(8, "anti").random((20, 20)) < 0.5)
                     .astype(np.uint8)})
        ps = init_temperature(m, TemperatureConfig(tau0=0.5, anneal_epochs=6))
        anti = anti_probability(ps)
        for epoch in range(8):
            a = probs_at_epoch(ps, "cosine", 6, epoch)
            b = probs_at_epoch(anti, "cosine", 6, epoch)
            np.testing.assert_allclose(a["a"] + b["a"], 1.0, atol=1e-15)


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
    rows = tune(net, controller, (x, y), epochs, Constant(lr),
                SGD(lr, momentum=0.9, nesterov=True), 32,
                rng_shuffle=substream(seed, "shuffle"),
                rng_mask=substream(seed, "bernoulli"))
    return net, rows


class TestTune:
    def _target(self):
        shapes = {"layer0.w": (8, 12), "layer2.w": (12, 3)}
        return random_mask(shapes, PruneSpec("random", 0.5), substream(1, "m"))

    def test_tau_zero_reproduces_fixed_mask_bit_exactly(self):
        target = self._target()
        net_a, _ = _run_tune(temperature_controller(
            target, TemperatureConfig(tau0=0.0, anneal_epochs=3)))
        net_b, _ = _run_tune(FixedMaskController(target))
        for name in net_a.params():
            np.testing.assert_array_equal(net_a.params()[name],
                                          net_b.params()[name])

    def test_phi_zero_equivalent_to_one_shot(self):
        target = self._target()
        net_a, _ = _run_tune(temperature_controller(
            target, TemperatureConfig(tau0=0.5, anneal_epochs=0)))
        net_b, _ = _run_tune(FixedMaskController(target))
        for name in net_a.params():
            np.testing.assert_array_equal(net_a.params()[name],
                                          net_b.params()[name])

    def test_finalize_burns_terminal_mask_in(self):
        target = self._target()
        net, _ = _run_tune(temperature_controller(
            target, TemperatureConfig(tau0=0.5, anneal_epochs=2)))
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

    def test_reverse_dropout_keeps_target_always_active(self):
        target = self._target()
        controller = temperature_controller(
            target, TemperatureConfig(tau0=0.5, anneal_epochs=5))
        rng = substream(2, "draws")
        controller.begin_epoch(1)
        for _ in range(50):
            mask = controller.batch_mask(rng)
            for name in target:
                assert np.all(mask[name][target[name] == 1] == 1)

    def test_iterative_controller_reaches_target_monotonically(self):
        net = _toy_net()
        spec = PruneSpec("random", 0.9)
        controller = IterativeController(spec, 4, net.weights(),
                                         substream(3, "m"))
        x, y = _toy_data()
        rows = tune(net, controller, (x, y), 6, Constant(0.05),
                    SGD(0.05), 32, rng_shuffle=substream(3, "s"))
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
            return tune(net, temperature_controller(
                target, TemperatureConfig(tau0=0.8, anneal_epochs=3)),
                (x, y), 4, Constant(0.05), SGD(0.05), 32,
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
        rows = tune(net, temperature_controller(
            target, TemperatureConfig(tau0=0.5, anneal_epochs=2)),
            (x, y), 3, Constant(0.05), SGD(0.05), 32,
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
            cfg = RandomAnnealConfig(rho=rho)
            ps = init_random({"a": (100, 100)}, cfg, substream(11, "u", rho))
            mask = realize(ps, substream(12, "u", rho))
            assert abs(mask["a"].mean() - 0.5) < 0.015


class TestControllers:
    def test_anti_controller_mirrors_probabilities(self):
        target = MaskSet({"a": (substream(13, "ac").random((15, 15)) < 0.5)
                          .astype(np.uint8)})
        base = temperature_controller(target,
                                      TemperatureConfig(tau0=0.5,
                                                        anneal_epochs=4))
        mirror = anti_controller(base)
        for epoch in range(6):
            base.begin_epoch(epoch)
            mirror.begin_epoch(epoch)
            np.testing.assert_allclose(
                base.probs["a"] + mirror.probs["a"], 1.0, atol=1e-15)
        assert mirror.mask.equals(target.complement())

    def test_binary_phase_builds_one_mask_per_epoch(self):
        target = MaskSet({"a": substream(15, "bm").random((9, 9)) < 0.5,
                          "b": substream(16, "bm").random(6) < 0.5})
        controller = temperature_controller(
            target, TemperatureConfig(tau0=0.5, anneal_epochs=2))
        rng = substream(17, "bm")
        controller.begin_epoch(1)  # still stochastic: a fresh draw per batch
        assert controller.batch_mask(rng) is not controller.batch_mask(rng)
        state = rng.bit_generator.state
        masks = []
        for epoch in (2, 3):
            controller.begin_epoch(epoch)
            first = controller.batch_mask(rng)
            assert all(controller.batch_mask(rng) is first for _ in range(3))
            for name, p in controller.probs.items():
                assert np.array_equal(first[name], p == 1.0)
            masks.append(first)
        assert masks[0] is not masks[1] and masks[0].equals(target)
        assert rng.bit_generator.state == state  # no uniforms drawn

    def test_random_anneal_controller_logs_realized_sparsity(self):
        cfg = RandomAnnealConfig(rho=0.7)
        controller = random_anneal_controller({"a": (50, 50)}, cfg,
                                              substream(14, "rc"))
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
            controller = IterativeController(PruneSpec("random", 0.5), 2,
                                             net.weights(), substream(5, "m"))
        else:
            controller = temperature_controller(
                target, TemperatureConfig(tau0=0.5, anneal_epochs=2))
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
        rows = tune(net, controller, (x, y), 3, Constant(0.05), SGD(0.05), 32,
                    rng_shuffle=substream(5, "s"), rng_mask=substream(5, "b"))
        for row, (sparsity, mean_prob) in zip(rows, states):
            assert row["realized_sparsity"] == sparsity
            assert row["mean_active_fraction"] == (
                1.0 - sparsity if mean_prob is None else mean_prob)
        for name, w in net.weights().items():
            assert np.all(w[controller.mask[name] == 0] == 0.0)
