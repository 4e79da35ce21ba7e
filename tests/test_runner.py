import json
import logging
import os
import platform

import numpy as np
import pytest

from subanneal import runner
from subanneal.config import ExperimentConfig
from subanneal.pruning import SeveredLayerError
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
        "seeds": [1],
    }
    if "seed" in extra:  # the input spelling of a one-seed list
        del raw["seeds"]
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


class BrokenRow(dict):
    """A metrics row whose ``test_nll`` cannot be read."""

    def get(self, key, default=None):
        if key == "test_nll":
            raise RuntimeError("killed mid-row")
        return super().get(key, default)


@pytest.mark.parametrize("existing", [False, True],
                         ids=["new", "over-old"])
def test_csv_write_failing_mid_row_leaves_no_partial_file(tmp_path, existing):
    path = tmp_path / "metrics" / "m.csv"
    if existing:
        write_metrics_csv(path, [{"epoch": 0, "train_loss": 1.0}])
    before = path.read_bytes() if existing else None
    with pytest.raises(RuntimeError, match="killed mid-row"):
        write_metrics_csv(path, [{"epoch": 0, "train_loss": 2.0},
                                 BrokenRow(epoch=1)])
    # the old file, whole, or none at all; and no temporary file behind
    assert (path.read_bytes() if path.exists() else None) == before
    assert sorted(p.name for p in path.parent.iterdir()) == (
        ["m.csv"] if existing else [])


def test_json_write_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError):
        runner.write_json_atomic(path, {"loss": float("nan")})
    assert list(tmp_path.iterdir()) == []


def fake_blas(monkeypatch, threads=4):
    """Stand in for OpenBLAS's thread setter and getter; returns the list
    of counts the setter is called with."""
    calls = []

    def setter(n):
        calls.append(n)

    def getter():
        return calls[-1] if calls else threads

    monkeypatch.setattr(runner, "_blas_thread_functions",
                        lambda: (setter, getter))
    return calls


class TestProcessSettings:
    """``run`` pins the BLAS pool to one thread and records the count and
    the malloc settings it applied in the manifest, never in a CSV."""

    def _manifest(self, cfg):
        path = run(cfg)
        manifest = json.loads(path.read_text())
        csv_text = "".join((path.parent / f).read_text()
                           for f in manifest["metrics_files"])
        for key in ("blas_threads", "allocator", "M_TRIM", "M_MMAP"):
            assert key not in csv_text
        return manifest

    def test_deterministic_sets_one_blas_thread(self, tmp_path, monkeypatch):
        """Every run is deterministic: a default run from a four-thread
        pool sets it to one thread."""
        calls = fake_blas(monkeypatch, threads=4)
        manifest = self._manifest(_cfg(tmp_path))
        assert calls == [1]
        assert manifest["blas_threads"] == 1

    def test_the_thread_count_is_recorded_as_found(self, tmp_path,
                                                   monkeypatch):
        """The manifest records the count the pool reports after the
        setter, not the one asked for: a pool that keeps four threads is
        recorded as four."""
        calls = []
        monkeypatch.setattr(runner, "_blas_thread_functions",
                            lambda: (calls.append, lambda: 4))
        manifest = self._manifest(_cfg(tmp_path))
        assert calls == [1]
        assert manifest["blas_threads"] == 4

    def test_no_setter_logs_one_warning(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(runner, "_blas_thread_functions", lambda: None)
        with caplog.at_level(logging.WARNING, logger="subanneal.runner"):
            manifest = self._manifest(_cfg(tmp_path))
        assert manifest["blas_threads"] is None
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno >= logging.WARNING]
        assert len(warnings) == 1
        assert "OPENBLAS_NUM_THREADS=1" in warnings[0]

    def test_numpys_openblas_is_found_and_limited(self):
        functions = runner._blas_thread_functions()
        if functions is None:
            pytest.skip("numpy is not linked against OpenBLAS here")
        setter, getter = functions
        before = getter()
        try:
            assert runner.limit_blas_threads() == 1
            assert getter() == 1
        finally:
            setter(before)

    def test_one_seed_gets_the_bytes_of_two_on_a_two_thread_pool(
            self, tmp_path):
        """A one-seed run forks nothing, a two-seed run at two CPUs forks a
        helper; from a two-thread pool both must train seed 0 on one
        thread, since a float32 128x784 @ 784x300 GEMM rounds differently
        on two OpenBLAS threads."""
        import subprocess
        import sys
        from pathlib import Path

        from test_data import make_mnist_dir

        if runner._blas_thread_functions() is None:
            pytest.skip("numpy is not linked against OpenBLAS here")
        make_mnist_dir(tmp_path, n_train=256, n_test=128)
        raw = {"task": "prune-tune", "dataset": "mnist", "model": "mlp",
               "method": "temperature-anneal", "rho": 0.9, "phi": 1,
               "parent_epochs": 1, "epochs": 2, "batch_size": 128,
               "lr": {"kind": "constant", "value": 0.05}}
        script = (
            "import json, sys\n"
            "from subanneal import runner\n"
            "from subanneal.config import ExperimentConfig\n"
            "raw = json.loads(sys.argv[1])\n"
            "for out, seeds in (('one', [0]), ('two', [0, 1])):\n"
            "    runner._blas_thread_functions()[0](2)\n"
            "    runner.run(ExperimentConfig.from_dict(\n"
            "        {**raw, 'seeds': seeds, 'out_dir': out}))\n")
        src = str(Path(runner.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", script, json.dumps(raw)],
                       cwd=tmp_path, check=True,
                       env=dict(os.environ, PYTHONPATH=src,
                                SUBANNEAL_DATA=str(tmp_path)))
        files = json.loads((tmp_path / "one" / "manifest.json").read_text()
                           )["metrics_files"]
        assert files
        for rel in files:
            assert ((tmp_path / "one" / rel).read_bytes()
                    == (tmp_path / "two" / rel).read_bytes())

    @pytest.mark.parametrize("libc", [("glibc", "2.36"), ("", "")],
                             ids=["glibc", "other"])
    def test_manifest_records_the_allocator_settings(self, tmp_path,
                                                     monkeypatch, libc):
        if libc[0] == "glibc" and platform.libc_ver()[0] != "glibc":
            pytest.skip("mallopt needs glibc")
        monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: libc)
        manifest = self._manifest(_cfg(tmp_path))
        if libc[0] == "glibc":
            assert manifest["allocator"] == {
                "M_TRIM_THRESHOLD": 256 << 20, "M_MMAP_THRESHOLD": 64 << 20}
        else:
            assert manifest["allocator"] is None


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
        stages = manifest["stages"]
        assert [s["name"] for s in stages] == ["parents", "cells"]
        assert all(s["workers"] == 1 for s in stages)
        assert 0 < sum(s["wall_s"] for s in stages) <= manifest["wall_clock_s"]

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
        cfg_a = _cfg(tmp_path, out_dir=str(tmp_path / "r1"))
        cfg_b = _cfg(tmp_path, out_dir=str(tmp_path / "r2"))
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

    def test_peak_memory_excludes_the_launching_process(self, tmp_path):
        # Linux carries ru_maxrss across exec: a run started by a process
        # that once held a large array must not report that array
        import subprocess
        import sys
        from pathlib import Path

        cfg = _cfg(tmp_path, parent_epochs=1, epochs=2, phi=1).to_dict()
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        src = str(Path(runner.__file__).resolve().parents[1])
        big_mb = 160
        launcher = (
            "import os, subprocess, sys\n"
            "import numpy as np\n"
            f"big = np.ones({big_mb} << 17)\n"
            "del big\n"
            "env = dict(os.environ, PYTHONPATH=sys.argv[1])\n"
            "subprocess.run([sys.executable, '-m', 'subanneal.cli', 'run',"
            " sys.argv[2]], env=env, check=True)\n")
        subprocess.run([sys.executable, "-c", launcher, src,
                        str(tmp_path / "cfg.json")], check=True)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert 0 < manifest["peak_rss_mb"] < big_mb

    def test_failure_recorded_in_manifest(self, tmp_path):
        cfg = _cfg(tmp_path, rho=0.999)  # quota would sever the head layer
        with pytest.raises(Exception):
            run(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "error" in manifest

    @pytest.mark.parametrize("extra", [
        # the 300-weight head at rho 0.999 keeps none
        {"task": "ablate", "seeds": [0, 1], "rho": [0.5, 0.999],
         "method": ["oneshot", "random-anneal"]},
        # rho 0.001 prunes none of the head, so member 1 keeps none of it
        {"task": "ensemble", "rho": 0.001,
         "ensemble": {"n_members": 2, "partitioning": True,
                      "corruption_severities": [1]}},
        # random annealing draws its terminal mask, and at rho 0.999 it
        # keeps none of the head's 300 weights for these seeds
        {"task": "ablate", "seeds": [0, 1], "rho": 0.999,
         "method": "random-anneal"},
    ], ids=["ablate", "partitioned-ensemble", "random-anneal"])
    def test_a_quota_that_severs_a_layer_fails_before_any_compute(
            self, tmp_path, extra):
        with pytest.raises(SeveredLayerError):
            run(_cfg(tmp_path, **extra))
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("SeveredLayerError: ")
        assert manifest["stages"] == [] and manifest["cells"] == []
        assert not (out / "parents").exists()

    @pytest.mark.parametrize("extra", [
        # generated-config draw 4: the temperature target at rho 0.99
        # keeps none of the 300-weight head for seed 1
        {"seeds": [1], "method": "temperature-anneal", "rho": [0.3, 0.99],
         "phi": 0, "epochs": 1},
        # seed 5's third iterative increment severs the head (seed 1's
        # one-shot target would too, in a later unit)
        {"seeds": [0, 5, 1], "method": ["oneshot", "iterative"],
         "rho": 0.99, "phi": 3, "epochs": 3},
        # seed 6's member 1, the complement of a 1% cut, keeps no head
        {"task": "ensemble", "seeds": [6], "rho": 0.01, "phi": 1,
         "epochs": 2, "ensemble": {"n_members": 2, "partitioning": True,
                                   "corruption_severities": []}},
    ], ids=["generated-draw-4", "iterative", "partitioned-ensemble"])
    def test_a_global_random_quota_that_severs_a_layer_fails_up_front(
            self, tmp_path, monkeypatch, extra):
        raw = {"task": "ablate", "granularity": "global",
               "selector": "random", **extra,
               "blobs": {"n": 90, "d": 3, "k": 3, "separation": 4.0,
                         "data_seed": 19}}
        with pytest.raises(SeveredLayerError):
            run(_cfg(tmp_path, **raw))
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"] == [] and manifest["cells"] == []
        assert not (out / "parents").exists()
        # the unit that draws the mask fails with the same error (raised
        # as a WorkerError when a helper ran it)
        monkeypatch.setattr(runner, "check_quotas", lambda cfg, data: None)
        with pytest.raises(Exception):
            run(_cfg(tmp_path / "late", **raw))
        late = json.loads((tmp_path / "late" / "out" / "manifest.json")
                          .read_text())
        assert late["stages"] and late["error"] == manifest["error"]

    def test_a_global_magnitude_quota_fails_in_its_unit(self, tmp_path):
        # magnitude selection reads the parent's weights, so only the
        # cell that draws the mask can see it sever layer3.w
        with pytest.raises(Exception):
            run(_cfg(tmp_path, task="ablate", granularity="global",
                     selector="magnitude", method="oneshot", rho=0.99))
        manifest = json.loads((tmp_path / "out" / "manifest.json")
                              .read_text())
        assert manifest["error"] == ("SeveredLayerError: global quota fully "
                                     "severed layer 'layer3.w'")
        assert [stage["name"] for stage in manifest["stages"]] == [
            "parents", "cells"]


@pytest.mark.parametrize("model,shape", [("mlp", (8,)),
                                         ("smallconv", (3, 8, 8))])
def test_the_shapes_the_quotas_are_checked_on_are_the_models(model, shape):
    # the quota check draws its masks on a network built with no draw
    import numpy as np

    from subanneal.models import architecture, build_model
    from subanneal.rng import substream

    net = build_model(model, shape, 3, substream(0, "init"))
    zero = architecture(model, shape, 3, np.float32)
    assert (list(zero.weight_shapes().items())
            == list(net.weight_shapes().items()))
    assert not zero.flat.any()


class TestAblateTask:
    def test_sweep_grid_and_summary(self, tmp_path):
        cfg = _cfg(tmp_path, task="ablate",
                   method=["oneshot", "temperature-anneal"],
                   rho=[0.5, 0.7], tau0=[0.4, 0.6], seeds=[3, 4])
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


def _pairs(*manifest_paths) -> list:
    """``summarize_manifests``' (manifest, base_dir) pairs of the files."""
    return [(json.loads(path.read_text()), path.parent)
            for path in manifest_paths]


class TestSummarize:
    def test_single_manifest_std_zero(self, tmp_path):
        cfg = _cfg(tmp_path, method="oneshot")
        run(cfg)
        rows = summarize_manifests(_pairs(tmp_path / "out" / "manifest.json"))
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
        rows = summarize_manifests([(manifest, out)])
        assert rows[0]["mean_acc"] == pytest.approx(0.6)
        assert rows[0]["std_acc"] == pytest.approx(0.1)
        assert rows[0]["seed_count"] == 3

    def test_two_identical_runs_are_rejected_as_a_repeated_seed(self,
                                                                tmp_path):
        # the same cell and seed in two manifests: averaging both would
        # count one seed twice (seed_count 2, std 0.0)
        for name in ("a", "b"):
            run(_cfg(tmp_path, method="oneshot", out_dir=str(tmp_path / name)))
        a, b = (tmp_path / name / "manifest.json" for name in ("a", "b"))
        with pytest.raises(ValueError, match="both hold seed 1") as info:
            summarize_manifests(_pairs(a, b))
        assert f"{a} with {b}" in str(info.value)

    def test_two_runs_of_other_seeds_are_one_experiment(self, tmp_path):
        for name, seed in (("a", 1), ("b", 2)):
            run(_cfg(tmp_path, method="oneshot", seeds=[seed],
                     out_dir=str(tmp_path / name)))
        both = summarize_manifests(_pairs(tmp_path / "a" / "manifest.json",
                                          tmp_path / "b" / "manifest.json"))
        assert [row["seed_count"] for row in both] == [2]
        accs = [read_metrics_csv(path)[-1]["test_acc"] for path in
                sorted(tmp_path.glob("[ab]/metrics/*.csv"))]
        assert both[0]["mean_acc"] == float(np.mean(accs))

    def test_runs_of_different_configs_are_rejected(self, tmp_path):
        # two sweeps that differ only in lr.value are two experiments
        for name, value in (("a", 0.01), ("b", 0.5)):
            run(_cfg(tmp_path, method="oneshot", seeds=[0, 1],
                     lr={"kind": "constant", "value": value},
                     out_dir=str(tmp_path / "sweeps" / name)))
        with pytest.raises(ValueError, match="differ in 'lr'") as info:
            summarize_dir(tmp_path / "sweeps")
        for name in ("a", "b"):
            assert str(tmp_path / "sweeps" / name / "manifest.json") in str(
                info.value)
        assert not (tmp_path / "sweeps" / "summary.csv").exists()

    def test_the_cell_values_and_out_dir_may_differ(self, tmp_path):
        run(_cfg(tmp_path, method="oneshot", rho=0.5,
                 out_dir=str(tmp_path / "a")))
        run(_cfg(tmp_path, method=["iterative", "temperature-anneal"],
                 rho=0.3, phi=1, tau0=0.25, out_dir=str(tmp_path / "b")))
        assert summarize_dir(tmp_path).exists()

    def test_mixed_datasets_rejected(self, tmp_path):
        cell = {"method": "oneshot", "selector": "random",
                "lr_schedule": "constant", "rho": 0.5, "phi": 0,
                "tau0": 0.0, "epochs": 1, "seed": 0, "metrics": "m.csv"}
        payloads = [{"config": {"dataset": "mnist"}, "cells": [cell]},
                    {"config": {"dataset": "synthetic-blobs"},
                     "cells": [cell]}]
        with pytest.raises(ValueError, match="differ in 'dataset'"):
            summarize_manifests([(payloads[0], tmp_path / "a"),
                                 (payloads[1], tmp_path / "b")])

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
        assert set(summary) == {
            "config", "seed", "members", "ensemble", "corrupted",
            "member_mean_accuracy", "ensemble_minus_mean_member",
            "failures"}
        # the wall clock is the manifest's, per stage
        assert [s["name"] for s in manifest["stages"]] == [
            "parents", "members", "scores"]
        assert all(s["wall_s"] > 0 for s in manifest["stages"])
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
        from subanneal.nn.schedules import lr_schedule

        lr = {"kind": "onecycle", "start": 0.001, "max": 0.1, "end": 1e-7,
              "warmup_fraction": 0.5}
        run(self._ensemble_cfg(tmp_path, epochs=4, phi=2, lr=lr))
        steps = -(-BLOBS["n"] // 32)  # 5 steps per epoch
        want = lr_schedule(lr, 4, steps)
        for rows in self._member_rows(tmp_path):
            assert [row["lr"] for row in rows] == [
                want(epoch, epoch * steps) for epoch in range(4)]

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
            cfg = self._ensemble_cfg(tmp_path, out_dir="out")
            outs.append(run(cfg).parent)
        files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                       if p.suffix in (".csv", ".ssam"))
        assert len(files) == 2 * 3 + 1  # member csv/weights/mask + parent
        for rel in files:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        summaries = [(out / "seed-1" / "ensemble-summary.json").read_bytes()
                     for out in outs]
        assert summaries[0] == summaries[1]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_eval_of_a_saved_member_reproduces_its_records(tmp_path, dtype):
    """``eval`` of a member's weights and mask files, with the ensemble's
    seed, gives the member's clean record and every corrupted record of
    its ``ensemble-summary.json``, field for field."""
    severities = [1, 2]
    ensemble = _cfg(tmp_path, task="ensemble", dtype=dtype, seeds=[4],
                    parent_epochs=1, epochs=2, phi=1,
                    out_dir=str(tmp_path / "ens"),
                    ensemble={"n_members": 2, "partitioning": True,
                              "corruption_severities": severities})
    run(ensemble)
    seed_dir = tmp_path / "ens" / "seed-4"
    summary = json.loads((seed_dir / "ensemble-summary.json").read_text())
    for i in range(2):
        eval_out = tmp_path / f"eval-{i}"
        run(_cfg(tmp_path, task="eval", dtype=dtype, seeds=[4],
                 weights=str(seed_dir / f"member-{i}.weights.ssam"),
                 mask=str(seed_dir / f"member-{i}.mask.ssam"),
                 out_dir=str(eval_out),
                 ensemble={"corruption_severities": severities}))
        payload = json.loads((eval_out / "eval.json").read_text())
        assert payload["clean"] == summary["members"][i]
        for severity in map(str, severities):
            assert (payload["corrupted"][severity]
                    == summary["corrupted"][severity]["members"][i])
        assert payload["clean"]["realized_sparsity"] == 0.5


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


@pytest.mark.parametrize("writer,task,final", [
    ("save_weights", "train-parent", "parent-s1.weights.ssam"),
    ("save_weights", "ensemble", "seed-1/member-0.weights.ssam"),
    ("save_mask_set", "ensemble", "seed-1/member-0.mask.ssam"),
], ids=["parent-weights", "member-weights", "member-mask"])
def test_an_ssam_write_failing_midway_leaves_no_file(tmp_path, monkeypatch,
                                                     writer, task, final):
    real = getattr(runner, writer)

    def dies_midway(payload, path):  # only while writing ``final``
        if not path.name.startswith(final.split("/")[-1] + "."):
            return real(payload, path)
        with open(path, "wb") as fh:
            fh.write(b"SSAM\x01")  # a truncated container
        raise OSError("no space left for the container")

    monkeypatch.setattr(runner, writer, dies_midway)
    extra = ({"phi": 1, "ensemble": {"n_members": 2,
                                     "corruption_severities": [3]}}
             if task == "ensemble" else {})
    with pytest.raises(OSError, match="no space left"):
        run(_cfg(tmp_path, task=task, **extra))
    path = tmp_path / "out" / final
    assert not path.exists()
    assert not list(path.parent.glob("*.tmp"))


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


@pytest.mark.parametrize("eval_mask", ["terminal", "expected"])
@pytest.mark.parametrize("method", ["temperature-anneal", "random-anneal"])
def test_last_row_describes_the_network_the_cell_ends_with(tmp_path, method,
                                                          eval_mask):
    # phi == epochs - 1, the largest phi the validator accepts: the last
    # epoch trains the terminal mask, so the last row (which summary.csv
    # reads) scores the pruned network tune returns
    import numpy as np

    from subanneal.metrics import evaluate
    from subanneal.training import predict_logits

    cfg = _cfg(tmp_path, method=method, rho=0.9, phi=2, epochs=3,
               eval_mask=eval_mask)
    data = runner.RunData(cfg)
    out = tmp_path / "out"
    child = runner.load_net(cfg, data,
                            out / runner.get_parent(cfg, data, out, {}, 1))
    rows = runner.run_cell(cfg, data, child, 1, method, 0.9, 2, 0.5)
    last = rows[-1]
    rec = evaluate(predict_logits(child, data.x_test), data.y_test)
    assert (last["test_acc"], last["test_nll"], last["test_ece"]) == (
        rec.accuracy, rec.nll, rec.ece)
    weights = child.weights().values()
    zeros = sum(int((w == 0).sum()) for w in weights)
    assert last["realized_sparsity"] == zeros / sum(w.size for w in weights)
    assert last["mean_active_fraction"] == pytest.approx(
        1.0 - last["realized_sparsity"], rel=1e-12)
    assert np.isclose(last["realized_sparsity"], 0.9, atol=0.01)


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
               rho=0.5, phi=1, tau0=0.5, parent_epochs=1, epochs=2,
               seeds=[0, 1])
    manifest = json.loads(run(cfg).read_text())
    assert manifest["status"] == "ok"
    assert len(manifest["cells"]) == 3 * 2
    rows = summarize_manifests(_pairs(tmp_path / "out" / "manifest.json"))
    assert {r["method"] for r in rows} == {"oneshot", "iterative",
                                           "temperature-anneal"}
    assert all(r["seed_count"] == 2 for r in rows)


def test_float32_mode_runs(tmp_path):
    cfg = _cfg(tmp_path, dtype="float32", epochs=2, parent_epochs=1, phi=1)
    manifest = json.loads(run(cfg).read_text())
    assert manifest["status"] == "ok"


@pytest.mark.parametrize("eval_mask", ["terminal", "expected"])
def test_float32_mode_stays_float32(tmp_path, monkeypatch, eval_mask):
    import numpy as np

    from subanneal import data, training
    from subanneal.nn.optim import SGD, Adam

    seen = set()
    optimizers = []

    def loss(logits, labels, real=training.cross_entropy_softmax):
        value, grad = real(logits, labels)
        seen.update({("logits", logits.dtype), ("grad_logits", grad.dtype)})
        return value, grad

    def step(self, params, grads, lr=None, real=SGD.step):
        optimizers.append(self)
        seen.update({("param", params.dtype), ("grad", grads.dtype)})
        return real(self, params, grads, lr)

    def adam_step(self, params, grads, lr=None, real=Adam.step):
        optimizers.append(self)
        return real(self, params, grads, lr)

    def predict(*args, real=training.predict_logits, **kwargs):
        logits = real(*args, **kwargs)
        seen.add(("eval logits", logits.dtype))
        return logits

    def rows(self, idx, real=data.NormalizedRows.__getitem__):
        x = real(self, idx)
        seen.add(("inputs", x.dtype))
        return x

    def apply(w, m, out=None, real=training.apply_mask):
        seen.add(("mask buffer", out.dtype))
        return real(w, m, out=out)

    monkeypatch.setattr(training, "cross_entropy_softmax", loss)
    monkeypatch.setattr(SGD, "step", step)
    monkeypatch.setattr(Adam, "step", adam_step)
    monkeypatch.setattr(training, "predict_logits", predict)
    monkeypatch.setattr(data.NormalizedRows, "__getitem__", rows)
    monkeypatch.setattr(training, "apply_mask", apply)
    for name, optimizer in (
            ("sgd", {"kind": "sgd", "momentum": 0.9, "nesterov": True,
                     "weight_decay": 5e-4}),
            ("adam", {"kind": "adam", "weight_decay": 5e-4})):
        cfg = _cfg(tmp_path / name, dtype="float32", epochs=2,
                   parent_epochs=1, phi=1, eval_mask=eval_mask,
                   optimizer=optimizer)
        assert json.loads(run(cfg).read_text())["status"] == "ok"
    assert {kind for kind, _ in seen} == {
        "logits", "grad_logits", "param", "grad", "eval logits", "inputs",
        "mask buffer"}
    assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}
    sgd = [opt for opt in optimizers if isinstance(opt, SGD)]
    adam = [opt for opt in optimizers if isinstance(opt, Adam)]
    arrays = [opt._velocity for opt in sgd]
    arrays += [a for opt in sgd for a in opt._scratch]
    assert arrays and all(a.dtype == np.float32 for a in arrays)
    moments = [state for opt in adam for state in (opt._m, opt._v)]
    assert moments and all(a.dtype == np.float32 for a in moments)
    # a corrupted test set is built in float64 (its noise stream), then
    # handed to the network in float32
    assert runner.RunData(cfg).test_inputs(2, 1).dtype == np.float32


@pytest.mark.parametrize("dtype", [None, "float64"])
def test_the_default_dtype_is_float32_and_the_manifest_records_it(
        tmp_path, monkeypatch, dtype):
    import numpy as np

    from subanneal.nn.optim import SGD

    seen = set()

    def step(self, params, grads, lr=None, real=SGD.step):
        seen.add(params.dtype)
        return real(self, params, grads, lr)

    monkeypatch.setattr(SGD, "step", step)
    cfg = _cfg(tmp_path, **({} if dtype is None else {"dtype": dtype}))
    manifest = json.loads(run(cfg).read_text())
    want = dtype or "float32"
    assert manifest["config"]["dtype"] == want
    assert seen == {np.dtype(want)}


def test_parent_cache_key_follows_the_library_version(tmp_path, monkeypatch):
    from subanneal import runner

    cfg = _cfg(tmp_path)
    digest = runner.RunData(cfg).train_digest
    key = runner.parent_cache_key(cfg, 1, digest)
    assert runner.parent_cache_key(cfg, 1, digest) == key
    monkeypatch.setattr(runner, "__version__", "0.0.0-other")
    assert runner.parent_cache_key(cfg, 1, digest) != key


def test_a_parent_is_not_reused_for_other_training_data(tmp_path,
                                                        monkeypatch):
    # the parent cache key holds a digest of the training inputs and labels
    from test_data import make_mnist_dir

    def sweep(data_seed, out):
        data = tmp_path / f"data{data_seed}"
        if not data.exists():
            make_mnist_dir(data, n_train=64, n_test=32, seed=data_seed)
        monkeypatch.setenv("SUBANNEAL_DATA", str(data))
        run(_cfg(tmp_path, dataset="mnist", method="oneshot", rho=0.5,
                 parent_epochs=1, epochs=1, out_dir=str(tmp_path / out)))
        out = tmp_path / out
        return {path.relative_to(out): path.read_bytes() for path in
                [out / "summary.csv", *(out / "metrics").iterdir()]}

    sweep(0, "shared")
    assert sweep(1, "shared") == sweep(1, "fresh")
    assert len(list((tmp_path / "shared" / "parents").iterdir())) == 2


def test_a_bimodal_cell_logs_its_clamp_share_once(tmp_path, caplog):
    # check_quotas draws each terminal mask as the cell does; only the
    # cell logs its clamp share
    cfg = _cfg(tmp_path, method="random-anneal", distribution="bimodal")
    with caplog.at_level(logging.INFO):
        run(cfg)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("bimodal init: clamped")]
    assert len(lines) == 1, lines


def test_a_cached_parent_is_neither_trained_nor_loaded_again(tmp_path,
                                                             monkeypatch):
    from subanneal import runner

    cfg = _cfg(tmp_path)
    data = runner.RunData(cfg)
    out = tmp_path / "out"
    path = runner.get_parent(cfg, data, out, {}, 1)
    assert (out / path).is_file()

    def no_network(*args):
        raise AssertionError("built a network on a cache hit")

    # training builds through build_model, loading through architecture
    monkeypatch.setattr(runner, "build_model", no_network)
    monkeypatch.setattr(runner, "architecture", no_network)
    assert runner.get_parent(cfg, data, out, {}, 1) == path


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

    def _parent_weights(self, tmp_path):
        cfg = _cfg(tmp_path, task="train-parent", parent_epochs=1,
                   out_dir=str(tmp_path / "parent"))
        manifest = json.loads(run(cfg).read_text())
        return tmp_path / "parent" / manifest["cells"][0]["weights"]

    def _eval_cfg(self, tmp_path, weights, mask=None, severities=()):
        extra = {"mask": str(mask)} if mask is not None else {}
        return _cfg(tmp_path, task="eval", weights=str(weights),
                    out_dir=str(tmp_path / "eval"),
                    ensemble={"n_members": 1, "partitioning": False,
                              "include_parent": False,
                              "corruption_severities": list(severities)},
                    **extra)

    def test_eval_reports_the_sparsity_of_its_mask(self, tmp_path):
        import numpy as np

        from subanneal.masks import MaskSet, save_mask_set
        from subanneal.masks import load_weights

        weights = self._parent_weights(tmp_path)
        mask = MaskSet({name: np.arange(w.size).reshape(w.shape) % 4 == 0
                        for name, w in load_weights(weights).items()
                        if name.endswith(".w")})
        mask_path = tmp_path / "quarter.ssam"
        save_mask_set(mask, mask_path)
        eval_cfg = self._eval_cfg(tmp_path, weights, mask_path, [1, 3])
        eval_manifest = json.loads(run(eval_cfg).read_text())
        payload = json.loads(
            (tmp_path / "eval" / eval_manifest["metrics_files"][0]).read_text())
        assert 0.7 < mask.sparsity() < 0.8
        assert payload["clean"]["realized_sparsity"] == mask.sparsity()
        assert set(payload["corrupted"]) == {"1", "3"}
        for record in payload["corrupted"].values():
            assert record["realized_sparsity"] == mask.sparsity()

    def test_eval_reads_a_mask_file_in_any_entry_order(self, tmp_path):
        # a mask multiplies the flat weights in the network's order; a file
        # that lists the same masks in another order is the same mask
        import numpy as np

        from subanneal.masks import MaskSet, load_weights, save_mask_set

        weights = self._parent_weights(tmp_path)
        masks = {name: np.arange(w.size).reshape(w.shape) % 3 != 0
                 for name, w in load_weights(weights).items()
                 if name.endswith(".w")}
        payloads = []
        for order in (list(masks), list(masks)[::-1]):
            mask_path = tmp_path / f"mask-{order[0]}.ssam"
            save_mask_set(MaskSet({n: masks[n] for n in order}), mask_path)
            cfg = self._eval_cfg(tmp_path, weights, mask_path, [2])
            cfg.out_dir = str(tmp_path / f"eval-{order[0]}")
            manifest = json.loads(run(cfg).read_text())
            payload = json.loads((tmp_path / f"eval-{order[0]}" /
                                  manifest["metrics_files"][0]).read_text())
            payloads.append((payload["clean"], payload["corrupted"]))
        assert payloads[0] == payloads[1]

    def test_eval_without_a_mask_reports_no_sparsity(self, tmp_path):
        weights = self._parent_weights(tmp_path)
        eval_manifest = json.loads(
            run(self._eval_cfg(tmp_path, weights, severities=[1])).read_text())
        payload = json.loads(
            (tmp_path / "eval" / eval_manifest["metrics_files"][0]).read_text())
        assert payload["clean"]["realized_sparsity"] == 0.0
        assert payload["corrupted"]["1"]["realized_sparsity"] == 0.0

    def test_eval_draws_its_corruption_noise_from_its_run_seed(self,
                                                               tmp_path):
        weights = self._parent_weights(tmp_path)

        def severity_5(**seed):
            cfg = _cfg(tmp_path, task="eval", weights=str(weights),
                       out_dir=str(tmp_path / "eval"),
                       ensemble={"corruption_severities": [5]}, **seed)
            manifest = json.loads(run(cfg).read_text())
            payload = json.loads((tmp_path / "eval" / "eval.json").read_text())
            return manifest["seeds"], payload["corrupted"]["5"]

        seeds, listed = severity_5(seeds=[3])
        assert seeds == [3]
        assert listed == severity_5(seed=3)[1]
        assert listed != severity_5()[1]  # _cfg's seed, 1

    @pytest.mark.parametrize("edit,message", [
        ("drop", r"missing \['layer3.w'\]"),
        ("rename", r"missing \['layer3.w'\]; unexpected \['layer9.w'\]"),
        ("reshape", r"layer3.w has shape \(3, 2\), the model needs"),
    ])
    def test_eval_rejects_a_weights_file_that_does_not_fit(
            self, tmp_path, monkeypatch, edit, message):
        from subanneal.config import ConfigError
        from subanneal.masks import load_weights, save_weights

        values = load_weights(self._parent_weights(tmp_path))
        if edit == "drop":
            del values["layer3.w"]
        elif edit == "rename":
            values["layer9.w"] = values.pop("layer3.w")
        else:
            values["layer3.w"] = values["layer3.w"][:3, :2]
        bad = tmp_path / "bad.weights.ssam"
        save_weights(values, bad)
        forwards = []
        monkeypatch.setattr(runner, "predict_logits",
                            lambda *a, **k: forwards.append(a))
        with pytest.raises(ConfigError, match=message):
            run(self._eval_cfg(tmp_path, bad))
        assert not forwards  # rejected before any evaluation
        manifest = json.loads((tmp_path / "eval" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("ConfigError: weights file ")

    @pytest.mark.parametrize("edit,message", [
        ("drop", r"missing \['layer1.w'\]"),
        ("reshape", r"layer1.w has shape \(2, 2\), the model needs"),
    ])
    def test_eval_rejects_a_mask_that_does_not_fit(self, tmp_path,
                                                   monkeypatch, edit, message):
        import numpy as np

        from subanneal.config import ConfigError
        from subanneal.masks import MaskSet, load_weights, save_mask_set

        weights = self._parent_weights(tmp_path)
        masks = {name: np.ones(w.shape, dtype=np.uint8)
                 for name, w in load_weights(weights).items()
                 if name.endswith(".w")}
        if edit == "drop":
            del masks["layer1.w"]
        else:
            masks["layer1.w"] = masks["layer1.w"][:2, :2]
        bad = tmp_path / "bad.mask.ssam"
        save_mask_set(MaskSet(masks), bad)
        forwards = []
        monkeypatch.setattr(runner, "predict_logits",
                            lambda *a, **k: forwards.append(a))
        with pytest.raises(ConfigError, match=message):
            run(self._eval_cfg(tmp_path, weights, bad))
        assert not forwards
