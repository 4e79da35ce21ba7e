import json
import logging
import sys

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


def test_threads_flag_without_threadpoolctl_logs_a_warning(
        tmp_path, caplog, monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    config = _write_config(tmp_path)
    with caplog.at_level(logging.WARNING, logger="subanneal.runner"):
        code = main(["run", str(config), "--out", str(tmp_path / "out"),
                     "--threads", "2"])
    assert code == 0
    assert "threadpoolctl unavailable" in caplog.text
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "threads" not in manifest["config"]


def test_run_null_float_prints_one_error_line(tmp_path, capsys):
    config = _write_config(tmp_path, rho=None)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "rho must be a finite number" in err
    assert not (tmp_path / "out").exists()
