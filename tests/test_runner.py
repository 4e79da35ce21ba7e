import json

import pytest

from subanneal.config import ExperimentConfig
from subanneal.runner import (
    read_metrics_csv,
    run,
    summarize_dir,
    summarize_manifests,
    write_metrics_csv,
    write_summary_csv,
)

BLOBS = {"n": 160, "d": 8, "k": 3, "separation": 4.0, "data_seed": 0}


def _cfg(tmp_path, **extra):
    raw = {
        "task": "prune-tune",
        "dataset": "synthetic-blobs",
        "model": "mlp",
        "blobs": BLOBS,
        "method": "temperature-anneal",
        "rho": 0.5, "phi": 2, "tau0": 0.5,
        "parent_epochs": 2, "epochs": 3,
        "batch_size": 32,
        "lr": {"kind": "constant", "value": 0.05},
        "optimizer": {"kind": "sgd", "momentum": 0.9, "nesterov": True,
                      "weight_decay": 0.0},
        "out_dir": str(tmp_path / "out"),
        "seed": 1,
    }
    raw.update(extra)
    return ExperimentConfig.from_dict(raw)


def test_metrics_csv_roundtrip(tmp_path):
    rows = [{"epoch": 0, "train_loss": 1.25, "test_acc": 0.5, "test_nll": 1.0,
             "test_ece": 0.1, "realized_sparsity": 0.5, "lr": 0.05,
             "mean_active_fraction": 0.75},
            {"epoch": 1, "train_loss": 0.5, "test_acc": None, "test_nll": None,
             "test_ece": None, "realized_sparsity": 0.5, "lr": 0.05,
             "mean_active_fraction": 0.75}]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, rows)
    back = read_metrics_csv(path)
    assert back[0]["train_loss"] == 1.25
    assert back[1]["test_acc"] is None
    assert back[1]["epoch"] == 1


class TestPruneTuneTask:
    def test_run_produces_manifest_and_metrics(self, tmp_path):
        cfg = _cfg(tmp_path)
        manifest_path = run(cfg)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["status"] == "ok"
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["seeds"] == [1]
        assert len(manifest["metrics_files"]) == 1
        rows = read_metrics_csv(manifest_path.parent /
                                manifest["metrics_files"][0])
        assert len(rows) == 3
        assert rows[-1]["test_acc"] is not None
        assert "wall_clock_s" in manifest

    def test_oneshot_vs_phi_one_iterative_identical_metric_files(self, tmp_path):
        cfg_a = _cfg(tmp_path, method="oneshot", out_dir=str(tmp_path / "a"))
        cfg_b = _cfg(tmp_path, method="iterative", phi=1,
                     out_dir=str(tmp_path / "b"))
        man_a = json.loads(run(cfg_a).read_text())
        man_b = json.loads(run(cfg_b).read_text())
        file_a = (tmp_path / "a" / man_a["metrics_files"][0]).read_bytes()
        file_b = (tmp_path / "b" / man_b["metrics_files"][0]).read_bytes()
        assert file_a == file_b

    def test_deterministic_rerun_bit_identical(self, tmp_path):
        cfg_a = _cfg(tmp_path, deterministic=True,
                     out_dir=str(tmp_path / "r1"))
        cfg_b = _cfg(tmp_path, deterministic=True,
                     out_dir=str(tmp_path / "r2"))
        man_a = json.loads(run(cfg_a).read_text())
        man_b = json.loads(run(cfg_b).read_text())
        bytes_a = (tmp_path / "r1" / man_a["metrics_files"][0]).read_bytes()
        bytes_b = (tmp_path / "r2" / man_b["metrics_files"][0]).read_bytes()
        assert bytes_a == bytes_b

    def test_manifest_records_peak_memory_outside_the_csvs(self, tmp_path):
        manifest_path = run(_cfg(tmp_path))
        manifest = json.loads(manifest_path.read_text())
        assert manifest["peak_rss_mb"] > 0
        header = (manifest_path.parent / manifest["metrics_files"][0]
                  ).read_text().splitlines()[0]
        assert "peak_rss_mb" not in header
        failing = _cfg(tmp_path, rho=0.999, out_dir=str(tmp_path / "failed"))
        with pytest.raises(Exception):
            run(failing)
        manifest = json.loads((tmp_path / "failed" / "manifest.json")
                              .read_text())
        assert manifest["status"] == "failed" and manifest["peak_rss_mb"] > 0

    def test_failure_recorded_in_manifest(self, tmp_path):
        cfg = _cfg(tmp_path, rho=0.999)  # quota would sever the head layer
        with pytest.raises(Exception):
            run(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "error" in manifest


class TestAblateTask:
    def test_sweep_grid_and_summary(self, tmp_path):
        cfg = _cfg(tmp_path, task="ablate",
                   method=["oneshot", "temperature-anneal"],
                   rho=[0.5, 0.7], tau0=[0.4, 0.6], repeats=2, seed=3)
        manifest = json.loads(run(cfg).read_text())
        # oneshot: 2 rho cells; temperature: 2 rho x 2 tau cells; x2 seeds
        assert len(manifest["cells"]) == (2 + 4) * 2
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        assert header[:10] == ["method", "selector", "lr_schedule", "rho",
                               "mean_acc", "std_acc", "mean_nll", "mean_ece",
                               "epochs", "seed_count"]
        assert len(summary) == 1 + 6
        # exactly one best row per (method, rho) group
        best = [line for line in summary[1:] if line.endswith(",1")]
        assert len(best) == 4

    def test_parent_shared_across_cells_per_seed(self, tmp_path):
        cfg = _cfg(tmp_path, task="ablate", method=["oneshot", "iterative"],
                   rho=0.5, seed=5)
        manifest = json.loads(run(cfg).read_text())
        parents = {cell["parent"] for cell in manifest["cells"]}
        assert len(parents) == 1


class TestSummarize:
    def test_single_manifest_std_zero(self, tmp_path):
        cfg = _cfg(tmp_path, method="oneshot")
        run(cfg)
        rows = summarize_manifests([tmp_path / "out" / "manifest.json"])
        assert len(rows) == 1
        assert rows[0]["std_acc"] == 0.0
        assert rows[0]["seed_count"] == 1

    def test_known_accuracy_statistics(self, tmp_path):
        # three synthetic cells wired straight into the aggregation
        out = tmp_path / "made"
        for i, acc in enumerate((0.5, 0.6, 0.7)):
            write_metrics_csv(out / f"m{i}.csv", [{
                "epoch": 0, "train_loss": 1.0, "test_acc": acc,
                "test_nll": 1.0, "test_ece": 0.1, "realized_sparsity": 0.5,
                "lr": 0.1, "mean_active_fraction": 0.5}])
        manifest = {
            "config": {"dataset": "synthetic-blobs"},
            "cells": [{"method": "oneshot", "selector": "random",
                       "lr_schedule": "constant", "rho": 0.5, "phi": 0,
                       "tau0": 0.0, "epochs": 1, "seed": i,
                       "metrics": f"m{i}.csv"} for i in range(3)],
        }
        rows = summarize_manifests([], manifest_payloads=[manifest],
                                   base_dirs=[out])
        assert rows[0]["mean_acc"] == pytest.approx(0.6)
        assert rows[0]["std_acc"] == pytest.approx(0.1)
        assert rows[0]["seed_count"] == 3

    def test_two_identical_runs_zero_std(self, tmp_path):
        cfg_a = _cfg(tmp_path, method="oneshot", out_dir=str(tmp_path / "a"))
        cfg_b = _cfg(tmp_path, method="oneshot", out_dir=str(tmp_path / "b"))
        run(cfg_a)
        run(cfg_b)
        rows = summarize_manifests([tmp_path / "a" / "manifest.json",
                                    tmp_path / "b" / "manifest.json"])
        assert rows[0]["seed_count"] == 2
        assert rows[0]["std_acc"] == 0.0

    def test_mixed_datasets_rejected(self, tmp_path):
        payloads = [{"config": {"dataset": "mnist"}, "cells": []},
                    {"config": {"dataset": "synthetic-blobs"}, "cells": []}]
        with pytest.raises(ValueError, match="mixed"):
            summarize_manifests([], manifest_payloads=payloads,
                                base_dirs=[tmp_path, tmp_path])

    def test_summarize_dir_end_to_end(self, tmp_path):
        cfg = _cfg(tmp_path, method="oneshot")
        run(cfg)
        out = summarize_dir(tmp_path)
        assert out.exists()
        with pytest.raises(FileNotFoundError):
            summarize_dir(tmp_path / "empty")


class TestEnsembleTask:
    def test_summary_json_schema(self, tmp_path):
        cfg = _cfg(tmp_path, task="ensemble", parent_epochs=2, epochs=2,
                   phi=[1], rho=[0.5], tau0=[0.5],
                   lr={"kind": "onecycle", "start": 0.001, "max": 0.1,
                       "end": 1e-7, "warmup_fraction": 0.1},
                   ensemble={"n_members": 2, "partitioning": True,
                             "include_parent": False,
                             "corruption_severities": [3]})
        manifest = json.loads(run(cfg).read_text())
        assert manifest["status"] == "ok"
        summary_file = tmp_path / "out" / manifest["metrics_files"][0]
        summary = json.loads(summary_file.read_text())
        assert {"config", "members", "ensemble", "corrupted",
                "member_mean_accuracy", "ensemble_minus_mean_member",
                "wall_clock_s"} <= set(summary)
        assert len(summary["members"]) == 2
        assert "3" in summary["corrupted"]
        member_dir = summary_file.parent
        assert (member_dir / "member-0.weights.ssam").exists()
        assert (member_dir / "member-0.mask.ssam").exists()

    def _ensemble_cfg(self, tmp_path, **extra):
        raw = dict(task="ensemble", parent_epochs=1, epochs=2, phi=1,
                   ensemble={"n_members": 2, "corruption_severities": [3]})
        raw.update(extra)
        return _cfg(tmp_path, **raw)

    def _member_rows(self, tmp_path, seed=1):
        return [read_metrics_csv(tmp_path / "out" / f"seed-{seed}" /
                                 f"member-{i}.csv") for i in range(2)]

    def test_members_follow_a_constant_lr(self, tmp_path):
        run(self._ensemble_cfg(tmp_path,
                               lr={"kind": "constant", "value": 0.05}))
        for rows in self._member_rows(tmp_path):
            assert [row["lr"] for row in rows] == [0.05, 0.05]

    def test_members_follow_the_onecycle_warmup(self, tmp_path):
        from subanneal.nn.schedules import OneCycle, lr_at

        lr = {"kind": "onecycle", "start": 0.001, "max": 0.1, "end": 1e-7,
              "warmup_fraction": 0.5}
        run(self._ensemble_cfg(tmp_path, epochs=4, phi=2, lr=lr))
        steps = -(-BLOBS["n"] // 32)  # 5 steps per epoch
        want = OneCycle(0.001, 0.1, 1e-7, 0.5, 4 * steps)
        for rows in self._member_rows(tmp_path):
            assert [row["lr"] for row in rows] == [
                lr_at(want, epoch * steps) for epoch in range(4)]

    def test_shares_the_parent_cache(self, tmp_path):
        sweep = json.loads(run(_cfg(tmp_path, parent_epochs=1)).read_text())
        ens = json.loads(run(self._ensemble_cfg(tmp_path)).read_text())
        assert ens["cells"][0]["parent"] == sweep["cells"][0]["parent"]
        assert len(list((tmp_path / "out" / "parents").iterdir())) == 1

    def test_deterministic_rerun_bit_identical(self, tmp_path, monkeypatch):
        outs = []
        for name in ("r1", "r2"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)  # same relative out_dir
            cfg = self._ensemble_cfg(tmp_path, deterministic=True,
                                     out_dir="out")
            outs.append(run(cfg).parent)
        files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                       if p.suffix in (".csv", ".ssam"))
        assert len(files) == 2 * 3 + 1  # member csv/weights/mask + parent
        for rel in files:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        summaries = [json.loads((out / "seed-1" / "ensemble-summary.json")
                                .read_text()) for out in outs]
        for summary in summaries:
            assert summary.pop("wall_clock_s") > 0
        assert summaries[0] == summaries[1]


def test_interrupted_parent_cache_write_is_retrained(tmp_path, monkeypatch):
    import subanneal.runner as runner

    real_save = runner.save_weights

    def dies_midway(params, path):
        with open(path, "wb") as fh:
            fh.write(b"SSAM\x01")  # a truncated container
        raise KeyboardInterrupt("killed during the cache write")

    monkeypatch.setattr(runner, "save_weights", dies_midway)
    with pytest.raises(KeyboardInterrupt):
        run(_cfg(tmp_path))
    assert not list((tmp_path / "out" / "parents").glob("*.ssam"))
    monkeypatch.setattr(runner, "save_weights", real_save)
    manifest = json.loads(run(_cfg(tmp_path)).read_text())
    assert manifest["status"] == "ok"


@pytest.mark.parametrize("overrides", [
    {"method": "random-anneal"},
    {"method": "random-anneal", "distribution": "bimodal"},
    {"method": "temperature-anneal", "selector": "magnitude"},
    {"method": "oneshot", "granularity": "global"},
    {"method": "iterative", "selector": "magnitude", "phi": 3},
    {"method": "temperature-anneal", "variant": "full-scaling"},
    {"method": "temperature-anneal", "anneal_decay": "linear"},
])
def test_every_method_flavor_runs(tmp_path, overrides):
    cfg = _cfg(tmp_path, parent_epochs=1, epochs=3, **overrides)
    manifest = json.loads(run(cfg).read_text())
    assert manifest["status"] == "ok"
    rows = read_metrics_csv(tmp_path / "out" / manifest["metrics_files"][0])
    assert rows[-1]["test_acc"] is not None
    assert rows[-1]["realized_sparsity"] == pytest.approx(0.5, abs=0.05)


def test_cifar_pipeline_smoke(tmp_path, monkeypatch):
    import numpy as np

    rng = np.random.default_rng(0)
    d = tmp_path / "data" / "cifar10"
    d.mkdir(parents=True)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        records = np.empty((24, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, 24)
        records[:, 1:] = rng.integers(0, 256, (24, 3072))
        (d / name).write_bytes(records.tobytes())
    monkeypatch.setenv("SUBANNEAL_DATA", str(tmp_path / "data"))
    cfg = _cfg(tmp_path, dataset="cifar10-subset", model="smallconv",
               parent_epochs=1, epochs=2, rho=0.5, phi=1)
    manifest = json.loads(run(cfg).read_text())
    assert manifest["status"] == "ok"


def test_mnist_three_method_sweep_shape(tmp_path, monkeypatch):
    # the ordering-replication config shape, at toy scale on synthetic IDX
    from test_data import make_mnist_dir

    make_mnist_dir(tmp_path / "data", n_train=96, n_test=32)
    monkeypatch.setenv("SUBANNEAL_DATA", str(tmp_path / "data"))
    cfg = _cfg(tmp_path, task="ablate", dataset="mnist",
               method=["oneshot", "iterative", "temperature-anneal"],
               rho=0.5, phi=2, tau0=0.5, parent_epochs=1, epochs=2,
               seeds=[0, 1])
    manifest = json.loads(run(cfg).read_text())
    assert manifest["status"] == "ok"
    assert len(manifest["cells"]) == 3 * 2
    rows = summarize_manifests([tmp_path / "out" / "manifest.json"])
    assert {r["method"] for r in rows} == {"oneshot", "iterative",
                                           "temperature-anneal"}
    assert all(r["seed_count"] == 2 for r in rows)


def test_float32_mode_runs(tmp_path):
    cfg = _cfg(tmp_path, dtype="float32", epochs=2, parent_epochs=1)
    manifest = json.loads(run(cfg).read_text())
    assert manifest["status"] == "ok"


@pytest.mark.parametrize("eval_mask", ["terminal", "expected"])
def test_float32_mode_stays_float32(tmp_path, monkeypatch, eval_mask):
    import numpy as np

    from subanneal import annealing, training
    from subanneal.nn.optim import SGD

    seen = set()
    optimizers = []

    def loss(logits, labels, real=training.cross_entropy_softmax):
        value, grad = real(logits, labels)
        seen.update({("logits", logits.dtype), ("grad_logits", grad.dtype)})
        return value, grad

    def step(self, params, grads, lr=None, real=SGD.step):
        optimizers.append(self)
        for name, p in params.items():
            seen.update({("param", p.dtype), ("grad", grads[name].dtype)})
        return real(self, params, grads, lr)

    def predict(*args, real=training.predict_logits, **kwargs):
        logits = real(*args, **kwargs)
        seen.add(("eval logits", logits.dtype))
        return logits

    monkeypatch.setattr(training, "cross_entropy_softmax", loss)
    monkeypatch.setattr(SGD, "step", step)
    monkeypatch.setattr(annealing, "predict_logits", predict)
    cfg = _cfg(tmp_path, dtype="float32", epochs=2, parent_epochs=1,
               eval_mask=eval_mask, optimizer={"kind": "sgd", "momentum": 0.9, "nesterov": True,
                          "weight_decay": 5e-4})
    assert json.loads(run(cfg).read_text())["status"] == "ok"
    assert {kind for kind, _ in seen} == {"logits", "grad_logits", "param",
                                          "grad", "eval logits"}
    assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}
    arrays = [a for opt in optimizers for a in opt._velocity.values()]
    arrays += [a for opt in optimizers for s in opt._scratch.values() for a in s]
    assert arrays and all(a.dtype == np.float32 for a in arrays)


def test_parent_cache_key_follows_the_library_version(tmp_path, monkeypatch):
    from subanneal import runner

    cfg = _cfg(tmp_path)
    key = runner.parent_cache_key(cfg, 1)
    assert runner.parent_cache_key(cfg, 1) == key
    monkeypatch.setattr(runner, "__version__", "0.0.0-other")
    assert runner.parent_cache_key(cfg, 1) != key


class TestTrainParentAndEval:
    def test_parent_then_eval_pipeline(self, tmp_path):
        cfg = _cfg(tmp_path, task="train-parent", parent_epochs=3,
                   out_dir=str(tmp_path / "parent"))
        manifest = json.loads(run(cfg).read_text())
        weights = manifest["cells"][0]["weights"]
        eval_cfg = _cfg(tmp_path, task="eval",
                        weights=str(tmp_path / "parent" / weights),
                        out_dir=str(tmp_path / "eval"),
                        ensemble={"n_members": 1, "partitioning": False,
                                  "include_parent": False,
                                  "corruption_severities": [1]})
        eval_manifest = json.loads(run(eval_cfg).read_text())
        payload = json.loads(
            (tmp_path / "eval" / eval_manifest["metrics_files"][0]).read_text())
        assert payload["clean"]["accuracy"] > 0.8
        assert "1" in payload["corrupted"]

    def test_eval_applies_a_mask_container(self, tmp_path):
        from subanneal.masks import MaskSet, save_mask_set
        from subanneal.models import build_model
        from subanneal.rng import substream
        import numpy as np

        cfg = _cfg(tmp_path, task="train-parent", parent_epochs=2,
                   out_dir=str(tmp_path / "parent"))
        manifest = json.loads(run(cfg).read_text())
        weights = str(tmp_path / "parent" / manifest["cells"][0]["weights"])
        net = build_model("mlp", (8,), 3, substream(0, "shape-probe"))
        zero_mask = MaskSet({name: np.zeros(w.shape, dtype=np.uint8)
                             for name, w in net.weights().items()})
        mask_path = tmp_path / "allzero.ssam"
        save_mask_set(zero_mask, mask_path)
        eval_cfg = _cfg(tmp_path, task="eval", weights=weights,
                        mask=str(mask_path), out_dir=str(tmp_path / "eval"),
                        ensemble={"n_members": 1, "partitioning": False,
                                  "include_parent": False,
                                  "corruption_severities": []})
        eval_manifest = json.loads(run(eval_cfg).read_text())
        payload = json.loads(
            (tmp_path / "eval" / eval_manifest["metrics_files"][0]).read_text())
        # a fully severed network predicts from biases alone: chance-level
        assert payload["clean"]["accuracy"] < 0.6
