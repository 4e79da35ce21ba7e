import json

import numpy as np
import pytest

from subanneal.data import make_blobs
from subanneal.ensemble import (
    _mean_logits,
    corrupt,
    member_controller,
    score_ensemble,
    train_parent,
)
from subanneal.annealing import FixedMaskController, tune
from subanneal.metrics import evaluate, softmax
from subanneal.models import build_mlp
from subanneal.pruning import PruneSpec, SeveredLayerError, random_mask
from subanneal.nn.optim import SGD
from subanneal.nn.schedules import lr_schedule
from subanneal.rng import substream
from subanneal.training import DivergenceError, predict_logits

from maskcheck import overlap, same_mask
from members import members_through, tune_member
from rates import constant


def _net(seed=0, d=8, k=3, hidden=(16, 12)):
    net = build_mlp((d,), k, hidden=hidden)
    net.init_params(substream(seed, "init"))
    return net


ONE_CYCLE = {"kind": "onecycle", "start": 0.001, "max": 0.1, "end": 1e-7,
             "warmup_fraction": 0.1}


def _cycle(epochs, n=240, batch=32):
    """A fresh (schedule, optimizer) factory: the child one-cycle recipe."""
    def new_training():
        return (lr_schedule(ONE_CYCLE, epochs, -(-n // batch)),
                SGD(momentum=0.9, nesterov=True, weight_decay=0.0005))
    return new_training


def _tau(tau0=0.5, anneal_epochs=2):
    """member_controller's (tau0, variant, decay, phi)."""
    return tau0, "reverse-dropout", "cosine", anneal_epochs


def _data(n=240, d=8, k=3):
    train = make_blobs("train", n=n, d=d, k=k, separation=4.0, data_seed=0)
    test = make_blobs("test", n=n // 2, d=d, k=k, separation=4.0, data_seed=0)
    return (train.x, train.y), (test.x, test.y)


def _controllers(n, rho, partitioning, seed, tau=None):
    """Members 0 .. n-1's controllers for ``_net()``, each drawn from its
    own fresh copy of the seed's mask stream, as the members stage does."""
    shapes = _net().weight_shapes()
    return [member_controller(shapes, i, rho, partitioning, *(tau or _tau()),
                              substream(seed, "m")) for i in range(n)]


def _members(parent, controllers, data, epochs, seed, eval_data=None):
    """Tune each member in turn; returns (members, rows), a member as
    (net, terminal mask)."""
    members, rows = [], []
    for i, controller in enumerate(controllers):
        schedule, optimizer = _cycle(max(epochs, 1))()  # at least one step
        net, member_rows = tune_member(parent, i, controller, data, epochs,
                                       schedule, optimizer, 32, seed,
                                       eval_data=eval_data)
        members.append((net, controller.mask))
        rows.append(member_rows)
    return members, rows


class TestSpawnChildren:
    """Members' target masks, drawn by ``member_controller``."""

    def test_partitioned_pair_masks_sum_to_one(self):
        m1, m2 = (c.mask for c in _controllers(2, 0.5, True, 1))
        for name in m1:
            np.testing.assert_array_equal(m1[name] + m2[name],
                                          np.ones_like(m1[name]))

    def test_six_children_make_three_complementary_pairs(self):
        masks = [c.mask for c in _controllers(6, 0.5, True, 2)]
        assert len(masks) == 6
        for a in range(0, 6, 2):
            assert same_mask(masks[a + 1], masks[a].complement())
        # distinct pairs differ
        assert not same_mask(masks[0], masks[2])

    def test_partitioned_pair_covers_every_weight_exactly_once(self):
        m1, m2 = (c.mask for c in _controllers(2, 0.5, True, 3))
        assert overlap(m1, m2) == 0
        assert m1.zeros() + m2.zeros() == m1.total()

    def test_children_inherit_parent_weights(self):
        # no epochs: each member is the parent under its terminal mask,
        # and the parent is left as it was
        parent = _net()
        before = {n: w.copy() for n, w in parent.params().items()}
        data, _ = _data()
        members, _ = _members(parent, _controllers(3, 0.5, False, 4), data,
                              0, seed=4)
        for net, mask in members:
            for name, w in before.items():
                want = w * mask[name] if name in mask else w
                np.testing.assert_array_equal(net.params()[name], want)
        for name, w in parent.params().items():
            np.testing.assert_array_equal(w, before[name])

    def test_partitioning_with_odd_rho_logs_and_complements(self, caplog):
        with caplog.at_level("WARNING"):
            m1, m2 = (c.mask for c in _controllers(2, 0.7, True, 5))
        assert m1.sparsity() == pytest.approx(0.7, abs=0.02)
        assert m2.sparsity() == pytest.approx(0.3, abs=0.02)
        assert any("complement" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("granularity", ["layerwise", "global"])
    def test_a_complement_that_keeps_no_weight_of_a_layer_raises(
            self, granularity):
        # rho 0.004 prunes at most one of the 36 head weights: layerwise
        # none, so the complement keeps no head weight; globally one of
        # 356, so the complement keeps one weight of one layer
        shapes = _net().weight_shapes()
        assert shapes["layer5.w"] == (12, 3)
        first = member_controller(shapes, 0, 0.004, True, *_tau(),
                                  substream(3, "m"), granularity)
        assert first.mask["layer5.w"].any()
        with pytest.raises(SeveredLayerError, match="complement"):
            member_controller(shapes, 1, 0.004, True, *_tau(),
                              substream(3, "m"), granularity)

    def test_each_member_replays_the_draws_of_the_members_before_it(self):
        # member i alone gets the mask a single stream gives it in turn
        shapes = _net().weight_shapes()
        spec = PruneSpec("random", 0.5, "layerwise")
        for partitioning in (False, True):
            rng = substream(6, "m")
            drawn = []
            for i in range(5):
                if partitioning and i % 2 == 1:
                    drawn.append(drawn[-1].complement())
                else:
                    drawn.append(random_mask(shapes, spec, rng))
            got = _controllers(5, 0.5, partitioning, 6)
            for mask, controller in zip(drawn, got):
                assert same_mask(controller.mask, mask)


class TestTrainParent:
    def test_zero_epochs_returns_unchanged_network(self):
        net = _net()
        before = {n: w.copy() for n, w in net.params().items()}
        train, _ = _data()[0], None
        rows = train_parent(net, _data()[0], 0, SGD(), constant(0.1), 32,
                            substream(0, "s"))
        assert rows == []
        for name, w in net.params().items():
            np.testing.assert_array_equal(w, before[name])

    def test_blobs_five_epochs_reach_high_train_accuracy(self):
        net = _net()
        (xt, yt), _ = _data()
        train_parent(net, (xt, yt), 5, SGD(momentum=0.9, nesterov=True),
                     constant(0.1), 32, substream(0, "s"))
        acc = float((predict_logits(net, xt).argmax(1) == yt).mean())
        assert acc > 0.9

    def test_loss_decreases_on_separable_two_class_blobs_for_most_seeds(self):
        # nn-core invariant: first five epochs monotone in >= 9/10 seeds
        wins = 0
        blob = make_blobs("train", n=240, d=8, k=2, separation=5.0,
                          data_seed=0)
        for seed in range(10):
            net = _net(seed, k=2)
            rows = train_parent(net, (blob.x, blob.y), 5, SGD(),
                                constant(0.1), 32, substream(seed, "s"))
            losses = [r["train_loss"] for r in rows]
            wins += losses == sorted(losses, reverse=True)
        assert wins >= 9


class TestTuneChildren:
    """Members tuned one at a time by ``tune_member``."""

    def test_sibling_probability_sets_mirror_each_epoch(self):
        parent = _net()
        data, test = _data()
        base, mirror = _controllers(2, 0.5, True, 7)
        # the mirror identity, on copies of the controllers the members use
        copies = _controllers(2, 0.5, True, 7)
        for epoch in range(3):
            for controller in copies:
                controller.begin_epoch(epoch)
            for name in copies[0].probs.probs:
                np.testing.assert_allclose(
                    copies[0].probs[name] + copies[1].probs[name], 1.0,
                    atol=1e-15)
        members, _ = _members(parent, [base, mirror], data, 2, seed=7,
                              eval_data=test)
        assert len(members) == 2
        assert overlap(members[0][1], members[1][1]) == 0

    def test_single_member_tau_zero_equals_plain_prune_and_tune(self):
        parent = _net()
        data, _ = _data()
        (controller,) = _controllers(1, 0.5, False, 8, _tau(0.0, 0))
        target = controller.mask
        members, _ = _members(parent, [controller], data, 3, seed=8)

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
        # a member that diverges raises with the record the run reports
        # (the run leaving it out: TestRunEnsemble); its sibling is unharmed
        parent = _net()
        data, _ = _data()
        poisoned = parent.clone()
        poisoned.layers[1].w[...] = 1e200  # a member tuned from it diverges
        controllers = _controllers(2, 0.5, False, 10, _tau(0.5, 1))
        schedule, optimizer = _cycle(2)()
        with pytest.raises(DivergenceError) as info:
            tune_member(poisoned, 0, controllers[0], data, 2, schedule,
                        optimizer, 32, seed=10)
        assert "epoch" in info.value.record
        # the non-finite loss is kept as its text, which strict JSON can hold
        assert info.value.record["loss"] in ("nan", "inf")
        json.dumps(info.value.record, allow_nan=False)
        schedule, optimizer = _cycle(2)()
        net, rows = tune_member(parent, 1, controllers[1], data, 2, schedule,
                                optimizer, 32, seed=10)
        assert all(np.isfinite(row["train_loss"]) for row in rows)

    def test_final_sparsity_near_half(self):
        parent = _net()
        data, _ = _data()
        members, _ = _members(parent,
                              _controllers(2, 0.5, True, 9, _tau(0.5, 1)),
                              data, 2, seed=9)
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
        train_parent(net, (train, ytr), 5, SGD(momentum=0.9,
                                               nesterov=True),
                     constant(0.1), 32, substream(0, "s"))
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


class Fixed:
    """A stand-in network whose logits are the same row for every input."""
    row_floats = 2  # elements per example of its largest array

    def __init__(self, logits):
        self._logits = np.asarray(logits, dtype=float)

    def forward(self, x, *, keep_cache=True):
        return np.tile(self._logits, (len(x), 1))


class TestPredict:
    """The ensemble's prediction: the softmax of its members' mean logits."""

    def test_single_member_is_softmax_of_its_logits(self):
        net = _net()
        (_, _), (test, yt) = _data()
        logits = predict_logits(net, test)
        np.testing.assert_allclose(softmax(_mean_logits([logits])),
                                   softmax(logits), atol=1e-15)
        (record,), ens = score_ensemble([net], None, test, yt)
        assert ens.to_dict() == record.to_dict()

    def test_identical_members_match_single(self):
        net = _net()
        (_, _), (test, yt) = _data()
        logits = [predict_logits(net, test),
                  predict_logits(net.clone(), test)]
        np.testing.assert_allclose(softmax(_mean_logits(logits)),
                                   softmax(_mean_logits(logits[:1])),
                                   atol=1e-12)
        _, once = score_ensemble([net], None, test, yt)
        _, twice = score_ensemble([net, net.clone()], None, test, yt)
        assert twice.to_dict() == once.to_dict()


class TestScoreEnsemble:
    def test_records_match_separate_passes_bit_for_bit(self):
        members = [_net(1), _net(2), _net(3)]
        parent = _net(0)
        (_, _), (test, yt) = _data()
        for extra in (None, parent):
            records, ens = score_ensemble(members, extra, test, yt)
            for net, rec in zip(members, records):
                want = evaluate(predict_logits(net, test), yt)
                assert rec.to_dict() == want.to_dict()
            nets = members + ([] if extra is None else [extra])
            want = evaluate(_mean_logits(
                [predict_logits(net, test) for net in nets]), yt)
            assert ens.to_dict() == want.to_dict()

    def test_mean_logit_arithmetic(self):
        # logits (2, 0) and (0, 2) average to a tie: probability 1/2 each,
        # so NLL log 2, argmax class 0 and one ECE bin at confidence 1/2
        a, b = Fixed([2.0, 0.0]), Fixed([0.0, 2.0])
        y = np.array([0, 1, 1])
        (rec_a, rec_b), ens = score_ensemble([a, b], None, np.zeros((3, 1)), y)
        assert ens.nll == pytest.approx(np.log(2.0), abs=1e-15)
        assert ens.accuracy == pytest.approx(1 / 3)
        assert ens.ece == pytest.approx(abs(1 / 3 - 0.5))
        assert rec_a.accuracy == pytest.approx(1 / 3)
        assert rec_b.accuracy == pytest.approx(2 / 3)
        # a parent joins the average: (2, 0), (0, 2), (0, 2) -> (2/3, 4/3)
        _, with_parent = score_ensemble([a, b], Fixed([0.0, 2.0]),
                                        np.zeros((3, 1)), y)
        assert with_parent.accuracy == pytest.approx(2 / 3)

    def test_parent_changes_the_aggregate(self):
        parent = _net(0)
        member = _net(1)
        (_, _), (test, yt) = _data()
        (own,), without = score_ensemble([member], None, test, yt)
        (own_too,), with_parent = score_ensemble([member], parent, test, yt)
        assert own_too.to_dict() == own.to_dict()  # the parent has no record
        assert with_parent.nll != without.nll

    def test_empty_ensemble_rejected(self):
        (_, _), (test, yt) = _data()
        with pytest.raises(ValueError, match="empty ensemble"):
            score_ensemble([], _net(0), test, yt)

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


def _ensemble_config(out_dir, **extra):
    from subanneal.config import ExperimentConfig

    return ExperimentConfig.from_dict({
        "task": "ensemble", "model": "mlp",
        "blobs": {"n": 240, "d": 8, "k": 3, "separation": 4.0},
        "rho": 0.5, "phi": 2, "tau0": 0.5, "parent_epochs": 4,
        "epochs": 3, "batch_size": 32,
        "lr": {"kind": "onecycle", "start": 0.001, "max": 0.1,
               "end": 1e-7, "warmup_fraction": 0.1},
        "optimizer": {"weight_decay": 0.0},
        "ensemble": {"n_members": 4, "corruption_severities": [1, 3]},
        "seed": 11, "out_dir": str(out_dir), **extra})


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestRunEnsemble:
    def test_full_pipeline_on_blobs(self, tmp_path):
        from subanneal.masks import load_mask_set
        from subanneal.runner import run

        cfg = _ensemble_config(tmp_path)
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
        assert overlap(m0, m1) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_member_leaves_strict_json(self, tmp_path, monkeypatch):
        from subanneal.runner import run

        def member_0_diverges(net, seed, i):
            if i == 0:
                net.layers[1].w[...] = 1e200
            return net

        members_through(monkeypatch, member_0_diverges)
        cfg = _ensemble_config(tmp_path, ensemble={"n_members": 2})
        manifest = _strict_json(run(cfg).read_text())
        summary = _strict_json((tmp_path / manifest["metrics_files"][0])
                               .read_text())
        assert [f["member"] for f in summary["failures"]] == [0]
        assert "epoch" in summary["failures"][0]
        assert summary["failures"][0]["loss"] in ("nan", "inf")
        # left out of the ensemble: no files, no record
        assert len(summary["members"]) == 1
        seed_dir = tmp_path / "seed-11"
        assert sorted(p.name for p in seed_dir.glob("member-*")) == [
            "member-1.csv", "member-1.mask.ssam", "member-1.weights.ssam"]
