import numpy as np
import pytest

from subanneal.data import make_blobs
from subanneal.ensemble import (
    corrupt,
    predict,
    score_ensemble,
    spawn_children,
    train_parent,
    tune_children,
)
from subanneal.annealing import (
    FixedMaskController,
    TemperatureConfig,
    anti_controller,
    temperature_controller,
    tune,
)
from subanneal.metrics import evaluate
from subanneal.models import build_mlp
from subanneal.nn.optim import SGD
from subanneal.nn.schedules import Constant, OneCycle
from subanneal.rng import substream
from subanneal.training import predict_logits, softmax


def _net(seed=0, d=8, k=3, hidden=(16, 12)):
    net = build_mlp((d,), k, hidden=hidden)
    net.init_params(substream(seed, "init"))
    return net


def _cycle(epochs, n=240, batch=32):
    """A fresh (schedule, optimizer) factory: the child one-cycle recipe."""
    steps = epochs * -(-n // batch)

    def new_training():
        return (OneCycle(0.001, 0.1, 1e-7, 0.1, steps),
                SGD(0.001, momentum=0.9, nesterov=True, weight_decay=0.0005))
    return new_training


def _tau(tau0=0.5, anneal_epochs=2):
    return TemperatureConfig(tau0=tau0, anneal_epochs=anneal_epochs)


def _data(n=240, d=8, k=3):
    train = make_blobs("train", n=n, d=d, k=k, separation=4.0, data_seed=0)
    test = make_blobs("test", n=n // 2, d=d, k=k, separation=4.0, data_seed=0)
    return (train.x, train.y), (test.x, test.y)


class TestSpawnChildren:
    def test_partitioned_pair_masks_sum_to_one(self):
        parent = _net()
        children = spawn_children(parent, 2, 0.5, True, substream(1, "m"))
        (_, m1), (_, m2) = children
        for name in m1:
            np.testing.assert_array_equal(m1[name] + m2[name],
                                          np.ones_like(m1[name]))

    def test_six_children_make_three_complementary_pairs(self):
        parent = _net()
        children = spawn_children(parent, 6, 0.5, True, substream(2, "m"))
        assert len(children) == 6
        for a in range(0, 6, 2):
            ma, mb = children[a][1], children[a + 1][1]
            assert mb.equals(ma.complement())
        # distinct pairs differ
        assert not children[0][1].equals(children[2][1])

    def test_partitioned_pair_covers_every_weight_exactly_once(self):
        parent = _net()
        (_, m1), (_, m2) = spawn_children(parent, 2, 0.5, True,
                                          substream(3, "m"))
        assert m1.overlap(m2) == 0
        assert m1.zeros() + m2.zeros() == m1.total()

    def test_children_inherit_parent_weights(self):
        parent = _net()
        children = spawn_children(parent, 3, 0.5, False, substream(4, "m"))
        for child, _ in children:
            for name, w in parent.params().items():
                np.testing.assert_array_equal(child.params()[name], w)

    def test_partitioning_with_odd_rho_logs_and_complements(self, caplog):
        parent = _net()
        with caplog.at_level("WARNING"):
            children = spawn_children(parent, 2, 0.7, True, substream(5, "m"))
        (_, m1), (_, m2) = children
        assert m1.sparsity() == pytest.approx(0.7, abs=0.02)
        assert m2.sparsity() == pytest.approx(0.3, abs=0.02)
        assert any("complement" in rec.message for rec in caplog.records)


class TestPredict:
    def test_single_member_is_softmax_of_its_logits(self):
        net = _net()
        (_, _), (test, yt) = _data()
        probs = predict([net], test)
        np.testing.assert_allclose(probs, softmax(predict_logits(net, test)),
                                   atol=1e-15)

    def test_identical_members_match_single(self):
        net = _net()
        (_, _), (test, _) = _data()
        probs = predict([net, net.clone()], test)
        np.testing.assert_allclose(probs, predict([net], test), atol=1e-12)

    def test_mean_logit_arithmetic(self):
        class Fixed:
            row_floats = 2  # elements per example of its largest array

            def __init__(self, logits):
                self._logits = logits

            def forward(self, x, *, keep_cache=True):
                return np.tile(self._logits, (len(x), 1))

        a, b = Fixed(np.array([2.0, 0.0])), Fixed(np.array([0.0, 2.0]))
        probs = predict([a, b], np.zeros((3, 1)))
        np.testing.assert_allclose(probs, np.full((3, 2), 0.5), atol=1e-15)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            predict([], np.zeros((1, 2)))

    def test_include_parent_changes_the_aggregate(self):
        parent = _net(0)
        member = _net(1)
        (_, _), (test, _) = _data()
        without = predict([member], test)
        with_parent = predict([member], test, parent=parent,
                              include_parent=True)
        assert not np.allclose(without, with_parent)
        with pytest.raises(ValueError):
            predict([member], test, include_parent=True)


class TestTrainParent:
    def test_zero_epochs_returns_unchanged_network(self):
        net = _net()
        before = {n: w.copy() for n, w in net.params().items()}
        train, _ = _data()[0], None
        rows = train_parent(net, _data()[0], 0, SGD(0.1), Constant(0.1), 32,
                            substream(0, "s"))
        assert rows == []
        for name, w in net.params().items():
            np.testing.assert_array_equal(w, before[name])

    def test_blobs_five_epochs_reach_high_train_accuracy(self):
        net = _net()
        (xt, yt), _ = _data()
        train_parent(net, (xt, yt), 5, SGD(0.1, momentum=0.9, nesterov=True),
                     Constant(0.1), 32, substream(0, "s"))
        acc = float((predict_logits(net, xt).argmax(1) == yt).mean())
        assert acc > 0.9

    def test_loss_decreases_on_separable_two_class_blobs_for_most_seeds(self):
        # nn-core invariant: first five epochs monotone in >= 9/10 seeds
        wins = 0
        blob = make_blobs("train", n=240, d=8, k=2, separation=5.0,
                          data_seed=0)
        for seed in range(10):
            net = _net(seed, k=2)
            rows = train_parent(net, (blob.x, blob.y), 5, SGD(0.1),
                                Constant(0.1), 32, substream(seed, "s"))
            losses = [r["train_loss"] for r in rows]
            wins += losses == sorted(losses, reverse=True)
        assert wins >= 9


class TestTuneChildren:
    def test_sibling_probability_sets_mirror_each_epoch(self):
        parent = _net()
        data, test = _data()
        children = spawn_children(parent, 2, 0.5, True, substream(7, "m"))
        # mirror identity checked on the controllers the children will use
        base = temperature_controller(children[0][1], _tau())
        mirror = anti_controller(base)
        for epoch in range(3):
            base.begin_epoch(epoch)
            mirror.begin_epoch(epoch)
            for name in base.probs.probs:
                np.testing.assert_allclose(
                    base.probs[name] + mirror.probs[name], 1.0, atol=1e-15)
        members, rows, failures = tune_children(
            children, _tau(), True, data, 2, _cycle(2), 32, seed=7,
            eval_data=test)
        assert not failures
        assert len(members) == 2
        assert members[0][1].overlap(members[1][1]) == 0

    def test_single_member_tau_zero_equals_plain_prune_and_tune(self):
        parent = _net()
        data, _ = _data()
        children = spawn_children(parent, 1, 0.5, False, substream(8, "m"))
        target = children[0][1]
        members, _, _ = tune_children(children, _tau(0.0, 0), False, data, 3,
                                      _cycle(3), 32, seed=8)

        # plain prune-and-tune of the same child through the generic loop
        clone = parent.clone()
        sched, opt = _cycle(3)()
        tune(clone, FixedMaskController(target), data, 3, sched, opt, 32,
             rng_shuffle=substream(8, "shuffle", "member", 0),
             rng_mask=substream(8, "bernoulli", "member", 0))
        for name, w in members[0][0].params().items():
            np.testing.assert_array_equal(w, clone.params()[name])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_member_excluded_and_reported(self):
        parent = _net()
        data, _ = _data()
        children = spawn_children(parent, 2, 0.5, False, substream(10, "m"))
        children[0][0].layers[1].w[...] = 1e200  # poisoned child diverges
        members, rows, failures = tune_children(
            children, _tau(0.5, 1), False, data, 2, _cycle(2), 32, seed=10)
        assert len(members) == 1
        assert len(failures) == 1
        assert failures[0]["member"] == 0
        assert "epoch" in failures[0]

    def test_final_sparsity_near_half(self):
        parent = _net()
        data, _ = _data()
        children = spawn_children(parent, 2, 0.5, True, substream(9, "m"))
        members, _, _ = tune_children(children, _tau(0.5, 1), True, data, 2,
                                      _cycle(2), 32, seed=9)
        for net, mask in members:
            assert mask.sparsity() == pytest.approx(0.5, abs=0.01)
            for name, w in net.weights().items():
                assert np.all(w[mask[name] == 0] == 0.0)


class TestCorrupt:
    def test_severity_scaling_ratio(self):
        base = np.full((200, 1, 32, 32), 0.5)
        rng1 = substream(0, "c", 1)
        rng5 = substream(0, "c", 5)
        noise1 = corrupt(base, 1, rng1) - base
        noise5 = corrupt(base, 5, rng5) - base
        ratio = noise5.std() / noise1.std()
        assert ratio == pytest.approx(5.0, abs=0.1)

    def test_output_clamped_to_unit_range(self):
        rng = substream(1, "c")
        x = rng.random((50, 1, 8, 8))
        out = corrupt(x, 5, rng)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_same_seed_identical(self):
        x = substream(2, "c").random((20, 1, 8, 8))
        a = corrupt(x, 3, substream(3, "c"))
        b = corrupt(x, 3, substream(3, "c"))
        np.testing.assert_array_equal(a, b)

    def test_extreme_severity_drives_accuracy_toward_chance(self):
        (train, ytr), (test, yt) = _data()
        net = _net()
        train_parent(net, (train, ytr), 5, SGD(0.1, momentum=0.9,
                                               nesterov=True),
                     Constant(0.1), 32, substream(0, "s"))
        clean_acc = float((predict_logits(net, test).argmax(1) == yt).mean())
        # blobs are unbounded features; drown them in huge noise directly
        noisy = test + substream(4, "c").normal(0, 50.0, test.shape)
        noisy_acc = float((predict_logits(net, noisy).argmax(1) == yt).mean())
        assert clean_acc > 0.9
        assert noisy_acc < clean_acc - 0.3

    def test_invalid_severity(self):
        with pytest.raises(ValueError):
            corrupt(np.zeros((1, 1, 2, 2)), 0, substream(0, "c"))
        with pytest.raises(ValueError):
            corrupt(np.zeros((1, 1, 2, 2)), 6, substream(0, "c"))


class TestScoreEnsemble:
    def test_records_match_separate_passes_bit_for_bit(self):
        members = [_net(1), _net(2), _net(3)]
        parent = _net(0)
        (_, _), (test, yt) = _data()
        for extra in (None, parent):
            records, ens = score_ensemble(members, extra, test, yt)
            for net, rec in zip(members, records):
                want = evaluate(softmax(predict_logits(net, test)), yt)
                assert rec.to_dict() == want.to_dict()
            want = evaluate(predict(members, test, parent=parent,
                                    include_parent=extra is not None), yt)
            assert ens.to_dict() == want.to_dict()

    def test_each_network_is_run_once(self, monkeypatch):
        import subanneal.ensemble as ensemble

        calls = []
        real = ensemble.predict_logits
        monkeypatch.setattr(ensemble, "predict_logits",
                            lambda net, x: calls.append(net) or real(net, x))
        members, parent = [_net(1), _net(2)], _net(0)
        (_, _), (test, yt) = _data()
        score_ensemble(members, parent, test, yt)
        assert calls == [*members, parent]


class TestRunEnsemble:
    def test_full_pipeline_on_blobs(self, tmp_path):
        import json

        from subanneal.config import ExperimentConfig
        from subanneal.masks import load_mask_set
        from subanneal.runner import run

        cfg = ExperimentConfig.from_dict({
            "task": "ensemble", "model": "mlp",
            "blobs": {"n": 240, "d": 8, "k": 3, "separation": 4.0},
            "rho": 0.5, "phi": 2, "tau0": 0.5, "parent_epochs": 4,
            "epochs": 3, "batch_size": 32,
            "lr": {"kind": "onecycle", "start": 0.001, "max": 0.1,
                   "end": 1e-7, "warmup_fraction": 0.1},
            "optimizer": {"weight_decay": 0.0},
            "ensemble": {"n_members": 4, "corruption_severities": [1, 3]},
            "seed": 11, "out_dir": str(tmp_path)})
        manifest = json.loads(run(cfg).read_text())
        summary = json.loads((tmp_path / manifest["metrics_files"][0])
                             .read_text())
        assert len(summary["members"]) == 4
        assert summary["ensemble"]["accuracy"] > 0.8
        for rec in summary["members"]:
            assert rec["realized_sparsity"] == pytest.approx(0.5, abs=0.01)
        # partitioned siblings: zero active-parameter overlap at terminal
        m0, m1 = (load_mask_set(tmp_path / "seed-11" / f"member-{i}.mask.ssam")
                  for i in (0, 1))
        assert m0.overlap(m1) == 0
