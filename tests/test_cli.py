import json

import numpy as np
import pytest

from subanneal.cli import main

BASE = {
    "task": "ablate",
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
    # --seed N runs the one seed N, whichever spelling the file uses
    for i, seeds in enumerate(({"seeds": [1, 2]}, {"seed": 1})):
        config = _write_config(tmp_path, **seeds,
                               out_dir=str(tmp_path / "ignored"))
        out = tmp_path / f"flag{i}"
        assert main(["run", str(config), "--out", str(out),
                     "--seed", "9"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == manifest["config"]["seeds"] == [9]
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("flag", [["--deterministic"], ["--threads", "2"]],
                         ids=["deterministic", "threads"])
def test_removed_run_flags_are_usage_errors(tmp_path, capsys, flag):
    # every run pins one BLAS thread, so there is no mode to choose
    config = _write_config(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(config), "--out", str(tmp_path / "out"), *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_negative_seed_flag_is_rejected_before_the_run(tmp_path, capsys):
    # the flags go through the validator with the file's values
    config = _write_config(tmp_path)
    assert main(["run", str(config), "--out", str(tmp_path / "out"),
                 "--seed", "-4"]) == 1
    assert "seeds must be one or more values, each >= 0, got [-4]" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_run_invalid_config_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"task": "ablate", "bogus": 1}))
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
    # a run names its seeds in one list; `seed: s` is read as `seeds: [s]`
    {"seed": 1, "seeds": [1, 2]},
    {"repeats": 3},
    {"seeds": None},
], ids=["empty-rho", "empty-phi", "unsorted-steps", "not-a-pair",
        "blobs-not-object", "string-bool", "fractional-int",
        "seed-and-seeds", "repeats", "null-seeds"])
def test_run_rejected_config_prints_one_error_line(tmp_path, capsys, extra):
    config = _write_config(tmp_path, **extra)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # rejected before any compute


def _one_error_line(capsys, *names) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for name in names:
        assert name in err


def test_run_on_a_directory_prints_one_error_line(tmp_path, capsys):
    assert main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    _one_error_line(capsys, str(tmp_path), "Is a directory")
    assert not (tmp_path / "out").exists()


def test_run_on_a_config_that_is_not_utf8_prints_one_error_line(
        tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps({**BASE, "out_dir": "caf\u00e9"},
                                ensure_ascii=False).encode("latin-1"))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    _one_error_line(capsys, str(path), "invalid JSON", "utf-8")
    assert not (tmp_path / "out").exists()


def test_summarize_names_a_manifest_it_cannot_read(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["run", str(config), "--out", str(tmp_path / "good")]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad" / "manifest.json"
    bad.parent.mkdir()
    bad.write_text(json.dumps({"config": {"dataset": "synthetic-blobs"}}))
    assert main(["summarize", str(tmp_path)]) == 1
    _one_error_line(capsys, str(bad), "KeyError: 'cells'")
    assert not (tmp_path / "summary.csv").exists()


def test_summarize_names_two_sweeps_it_will_not_average(tmp_path, capsys):
    # two sweeps that differ only in lr.value: averaging their rows would
    # give one row of both experiments with each seed counted twice
    for name, value in (("a", 0.01), ("b", 0.5)):
        config = _write_config(tmp_path, seeds=[0, 1],
                               lr={"kind": "constant", "value": value})
        assert main(["run", str(config), "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert main(["summarize", str(tmp_path)]) == 1
    _one_error_line(capsys, str(tmp_path / "a" / "manifest.json"),
                    str(tmp_path / "b" / "manifest.json"), "'lr'")
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("broken", ["cell-without-selector", "empty-csv"])
def test_summarize_names_a_cell_or_csv_it_cannot_read(tmp_path, capsys,
                                                      broken):
    config = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    cell = manifest["cells"][0]
    if broken == "empty-csv":  # a header, no row
        csv = out / cell["metrics"]
        csv.write_text(csv.read_text().splitlines()[0] + "\n")
        names = (str(csv), "IndexError")
    else:
        del cell["selector"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        names = (str(out / "manifest.json"), "KeyError: 'selector'")
    assert main(["summarize", str(tmp_path)]) == 1
    _one_error_line(capsys, *names)
    assert not (tmp_path / "summary.csv").exists()


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
    from subanneal.models import build_model
    from subanneal.rng import substream
    from subanneal.runner import RunData

    out = tmp_path / "out"
    config = _write_config(tmp_path, task=task, parent_epochs=0, seed=3)
    assert main(["run", str(config), "--out", str(out)]) == 0
    if task == "train-parent":
        (path,) = out.glob("parent-s3.weights.ssam")
    else:
        (path,) = out.glob("parents/*.ssam")
    cfg = ExperimentConfig.from_dict(json.loads(config.read_text()))
    data = RunData(cfg)
    init = build_model(cfg.model, data.input_shape, data.num_classes,
                       substream(3, "init"), dtype=data.dtype).params()
    saved = load_weights(path)
    assert sorted(saved) == sorted(init)
    for name, value in init.items():
        assert np.array_equal(saved[name], value)
