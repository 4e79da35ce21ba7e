import json
import logging

import numpy as np
import pytest

from subanneal.cli import main

BASE = {
    "task": "prune-tune",
    "dataset": "synthetic-blobs",
    "blobs": {"n": 120, "d": 8, "k": 3, "separation": 4.0, "data_seed": 0},
    "method": "oneshot",
    "rho": 0.5,
    "parent_epochs": 1,
    "epochs": 1,
    "batch_size": 32,
    "lr": {"kind": "constant", "value": 0.05},
}


def _write_config(tmp_path, **extra):
    raw = dict(BASE)
    raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_run_subcommand_end_to_end(tmp_path, capsys):
    config = _write_config(tmp_path)
    code = main(["run", str(config), "--out", str(tmp_path / "out"),
                 "--seed", "5"])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["seeds"] == [5]
    assert str(tmp_path / "out" / "manifest.json") in capsys.readouterr().out


def test_run_flag_overrides_beat_file_values(tmp_path):
    config = _write_config(tmp_path, seed=1, out_dir=str(tmp_path / "ignored"),
                           deterministic=False)
    code = main(["run", str(config), "--out", str(tmp_path / "flag"),
                 "--seed", "9", "--deterministic"])
    assert code == 0
    manifest = json.loads((tmp_path / "flag" / "manifest.json").read_text())
    assert manifest["seeds"] == [9]
    assert manifest["config"]["deterministic"] is True
    assert not (tmp_path / "ignored").exists()


def test_threads_flag_sets_and_records_the_blas_pool(tmp_path,
                                                      monkeypatch):
    from test_runner import fake_blas

    calls = fake_blas(monkeypatch)
    config = _write_config(tmp_path)
    assert main(["run", str(config), "--out", str(tmp_path / "out"),
                 "--threads", "3"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert calls == [3]
    assert manifest["blas_threads"] == 3


def test_a_negative_seed_flag_is_rejected_before_the_run(tmp_path, capsys):
    # the flags go through the validator with the file's values
    config = _write_config(tmp_path)
    assert main(["run", str(config), "--out", str(tmp_path / "out"),
                 "--seed", "-4"]) == 1
    assert "invalid seed: -4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_invalid_config_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"task": "prune-tune", "bogus": 1}))
    assert main(["run", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_run_failure_exits_nonzero(tmp_path, capsys):
    config = _write_config(tmp_path, rho=0.999)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_summarize_subcommand(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    assert main(["summarize", str(tmp_path)]) == 0
    assert (tmp_path / "summary.csv").exists()


def test_summarize_missing_dir_exits_nonzero(tmp_path, capsys):
    assert main(["summarize", str(tmp_path / "nothing")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    {"rho": []},
    {"phi": []},
    {"lr": {"kind": "step", "breakpoints": [[2, 0.1], [1, 0.01]]}},
    {"lr": {"kind": "step", "breakpoints": [[0, 0.1, 3]]}},
    {"blobs": []},
    {"optimizer": {"nesterov": "false"}},
    {"epochs": 20.7},
], ids=["empty-rho", "empty-phi", "unsorted-steps", "not-a-pair",
        "blobs-not-object", "string-bool", "fractional-int"])
def test_run_rejected_config_prints_one_error_line(tmp_path, capsys, extra):
    config = _write_config(tmp_path, **extra)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # rejected before any compute


def test_threads_flag_without_a_blas_setter_logs_an_error(
        tmp_path, caplog, monkeypatch):
    from subanneal import runner

    monkeypatch.setattr(runner, "_blas_thread_functions", lambda: None)
    config = _write_config(tmp_path)
    with caplog.at_level(logging.ERROR, logger="subanneal.runner"):
        code = main(["run", str(config), "--out", str(tmp_path / "out"),
                     "--threads", "2"])
    assert code == 0
    assert "no OpenBLAS thread setter found" in caplog.text
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "threads" not in manifest["config"]
    assert manifest["blas_threads"] is None


def test_run_null_float_prints_one_error_line(tmp_path, capsys):
    config = _write_config(tmp_path, rho=None)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "rho must be a finite number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task", ["prune-tune", "train-parent"])
def test_zero_parent_epochs_keep_the_initial_parent(tmp_path, task):
    """``parent_epochs: 0`` under the default ``parent_lr`` runs, and the
    parent it writes is its initialisation."""
    from subanneal.config import ExperimentConfig
    from subanneal.masks import load_weights
    from subanneal.runner import RunData, build_net

    out = tmp_path / "out"
    config = _write_config(tmp_path, task=task, parent_epochs=0, seed=3)
    assert main(["run", str(config), "--out", str(out)]) == 0
    if task == "train-parent":
        (path,) = out.glob("parent-s3.weights.ssam")
    else:
        (path,) = out.glob("parents/*.ssam")
    cfg = ExperimentConfig.from_dict(json.loads(config.read_text()))
    init = build_net(cfg, RunData(cfg), 3).params()
    saved = load_weights(path)
    assert sorted(saved) == sorted(init)
    for name, value in init.items():
        assert np.array_equal(saved[name], value)
