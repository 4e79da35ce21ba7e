"""Units of work shared among forked worker processes, stage by stage: one
process per CPU available (at most one per unit, and for sweeps at most one
per seed), a contiguous block of units each.

The tests set the CPU count N by replacing ``os.sched_getaffinity``. The
outputs do not depend on N, a unit that fails in a helper fails the run as
it would in a serial loop, and no helper outlives ``run`` or its caller.
"""

import importlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from subanneal import ensemble_task, runner
from subanneal.cli import main
from subanneal.config import ExperimentConfig
from subanneal.masks import MaskSet, load_weights, save_mask_set
from subanneal.runner import (
    WorkerError,
    error_text,
    run,
    run_stages,
    worker_count,
)
from subanneal.workers import unit_blocks

from members import members_through

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="helpers are forked")

SRC = Path(__file__).resolve().parents[1] / "src"

BASE = {
    "dataset": "synthetic-blobs",
    "model": "mlp",
    "blobs": {"n": 160, "d": 8, "k": 3, "separation": 4.0, "data_seed": 0},
    "method": "temperature-anneal",
    "rho": 0.5, "phi": 2, "tau0": 0.5,
    "parent_epochs": 2, "epochs": 3,
    "batch_size": 32,
    "lr": {"kind": "constant", "value": 0.05},
    "deterministic": True,
    "out_dir": "out",
}

CONFIGS = {
    # seeds out of order: results are merged in the order the config lists;
    # 8 cells a seed, so at 2 workers seed 1 straddles the two blocks
    "ablate": {"task": "ablate", "seeds": [3, 1, 2], "rho": [0.5, 0.8],
               "method": ["oneshot", "iterative", "temperature-anneal",
                          "random-anneal"]},
    "ensemble": {"task": "ensemble", "seeds": [0, 1],
                 "ensemble": {"n_members": 2, "partitioning": True,
                              "include_parent": False,
                              "corruption_severities": [1, 3]}},
    # one seed: the members and the scoring sets are shared out
    "ensemble-4": {"task": "ensemble", "seed": 5,
                   "ensemble": {"n_members": 4, "partitioning": True,
                                "corruption_severities": [1, 2, 3, 4, 5]}},
    "ensemble-3": {"task": "ensemble", "seed": 6,
                   "ensemble": {"n_members": 3, "partitioning": True,
                                "corruption_severities": [2, 4]}},
    "ensemble-parent": {"task": "ensemble", "seed": 7,
                        "ensemble": {"n_members": 2, "include_parent": True,
                                     "corruption_severities": [3]}},
    "train-parent": {"task": "train-parent", "seeds": [4, 7]},
    # scored from a train-parent run's weights, under a mask when "mask"
    "eval": {"task": "eval", "seed": 2,
             "ensemble": {"corruption_severities": [1, 3, 5]}},
    "eval-clean": {"task": "eval", "seed": 2,
                   "ensemble": {"corruption_severities": []}},
    "eval-mask": {"task": "eval", "seed": 2, "mask": True,
                  "ensemble": {"corruption_severities": [2, 4]}},
    "eval-mask-clean": {"task": "eval", "seed": 2, "mask": True,
                        "ensemble": {"corruption_severities": []}},
}


def _cfg(**extra):
    return ExperimentConfig.from_dict({**BASE, **extra})


def _eval_inputs(tmp_path: Path, mask: bool) -> dict:
    """``weights`` from a one-process ``train-parent`` run, and with
    ``mask`` a ``mask`` keeping every third weight of each layer."""
    out = tmp_path / "parent"
    run(_cfg(task="train-parent", seed=3, out_dir=str(out)))
    weights = out / "parent-s3.weights.ssam"
    if not mask:
        return {"weights": str(weights)}
    mask_set = MaskSet({name: np.arange(w.size).reshape(w.shape) % 3 == 0
                        for name, w in load_weights(weights).items()
                        if name.endswith(".w")})
    save_mask_set(mask_set, out / "third.mask.ssam")
    return {"weights": str(weights), "mask": str(out / "third.mask.ssam")}


def _cpus(monkeypatch, n: int) -> None:
    """Make the process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _outputs(out: Path) -> dict:
    """Every file under ``out`` by relative path: its bytes, but only
    status, error, cells and metric files of the manifest."""
    files = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        content = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(content)
            content = [manifest["status"], manifest.get("error"),
                       manifest["cells"], manifest["metrics_files"]]
        files[path.relative_to(out).as_posix()] = content
    return files


def _check_stages(cfg, manifest, cpus: int) -> None:
    """Each stage ran on the CPUs available, at most one per unit (and for
    sweeps one per seed), its helpers' blocks contiguous and
    following the caller's in unit order, no two blocks differing in size
    by more than one; ``helpers`` lists the stages' helpers in turn."""
    helpers = manifest["helpers"]
    stages = run_stages(cfg)
    assert [s["name"] for s in manifest["stages"]] == [n for n, _, _ in stages]
    for (_, units, _), stage in zip(stages, manifest["stages"]):
        cap = len(manifest["seeds"] if cfg.task in ("prune-tune", "ablate")
                  else units)
        assert stage["workers"] == min(cpus, cap, len(units))
        assert stage["wall_s"] > 0
        units = json.loads(json.dumps(units))
        blocks = [h["units"] for h in helpers[:stage["workers"] - 1]]
        helpers = helpers[stage["workers"] - 1:]
        caller = len(units) - sum(map(len, blocks))
        assert sum(blocks, []) == units[caller:]
        sizes = [caller] + [len(block) for block in blocks]
        assert max(sizes) - min(sizes) <= 1
    assert helpers == []
    assert manifest["workers"] == max(s["workers"]
                                      for s in manifest["stages"])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch,
                                                   name):
    raw = dict(CONFIGS[name])
    if raw["task"] == "eval":
        raw.update(_eval_inputs(tmp_path, raw.pop("mask", False)))
    outputs = {}
    for workers in (1, 2, 3):
        work = tmp_path / f"w{workers}"
        work.mkdir()
        monkeypatch.chdir(work)  # the same relative out_dir in every run
        _cpus(monkeypatch, workers)
        cfg = _cfg(**raw)
        manifest = json.loads(run(cfg).read_text())
        assert not multiprocessing.active_children()
        _check_stages(cfg, manifest, workers)
        helpers = manifest["helpers"]
        if name == "ablate" and workers == 2:  # both load seed 1's parent
            assert helpers[0]["units"] == [2]  # parents: the caller's 3 and 1
            assert helpers[1]["units"][0][0] == 1  # seed 1 straddles blocks
        if name.startswith("ensemble-") and workers > 1:
            assert helpers  # a one-seed ensemble forks
        if name in ("eval", "eval-mask") and workers > 1:
            assert helpers  # the corrupted sets are shared out
        assert all(h["peak_rss_mb"] > 0 and h["cpu_s"] > 0 for h in helpers)
        assert manifest["peak_rss_mb_sum"] == pytest.approx(
            manifest["peak_rss_mb"] + sum(h["peak_rss_mb"] for h in helpers))
        outputs[workers] = _outputs(Path("out"))
    kinds = {Path(rel).suffix for rel in outputs[1]}
    if raw["task"] == "eval":
        assert sorted(outputs[1]) == ["eval.json", "manifest.json"]
    else:
        assert {".csv", ".ssam"} <= kinds
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


def _corrupt_parents(cfg, seeds):
    """Place a broken parent cache entry for each of ``seeds``; each seed's
    breaks differently, so its error names it."""
    broken = {1: b"SSAM\x01", 2: b"XXXX"}
    for seed in seeds:
        key = runner.parent_cache_key(cfg, seed)
        path = Path(cfg.out_dir) / "parents" / f"parent-{key}-s{seed}.ssam"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(broken[seed])


@pytest.mark.parametrize("broken", [[1], [2], [1, 2]],
                         ids=["helper", "caller", "both"])
def test_a_failing_seed_fails_the_run_as_a_serial_run_does(tmp_path,
                                                           monkeypatch,
                                                           broken):
    """One cell a seed, seeds listed 0, 2, 1: seeds 0 and 2 run in the
    caller and seed 1 in the helper. The first failing seed in the listed
    order decides the error, and the manifest keeps the cells of the seeds
    before it."""
    seeds = [0, 2, 1]
    errors, manifests = {}, {}
    for workers in (1, 2):
        cfg = _cfg(task="ablate", seeds=seeds,
                   out_dir=str(tmp_path / f"w{workers}"))
        _corrupt_parents(cfg, broken)
        _cpus(monkeypatch, workers)
        with pytest.raises(Exception) as info:
            run(cfg)
        assert not multiprocessing.active_children()
        errors[workers] = error_text(info.value)
        manifests[workers] = json.loads(
            (tmp_path / f"w{workers}" / "manifest.json").read_text())
    assert errors[1].startswith("ContainerError: ")
    assert errors[2] == errors[1]
    for manifest in manifests.values():
        assert manifest["status"] == "failed"
        assert manifest["error"] == errors[1]
        first = min(seeds.index(seed) for seed in broken)
        assert [cell["seed"] for cell in manifest["cells"]] == seeds[:first]
    assert manifests[2]["cells"] == manifests[1]["cells"]
    assert manifests[2]["metrics_files"] == manifests[1]["metrics_files"]


def test_a_helper_failure_exits_the_cli_nonzero_with_the_serial_error(
        tmp_path, monkeypatch, capsys):
    # seed 1 is the helper's only unit
    raw = {**BASE, "task": "ablate", "seeds": [0, 2, 1],
           "out_dir": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    _corrupt_parents(ExperimentConfig.from_dict(raw), [1])
    _cpus(monkeypatch, 2)
    assert main(["run", str(path)]) == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["workers"] == 2
    assert manifest["error"].startswith("ContainerError: truncated")
    assert f"error: {manifest['error']}\n" in capsys.readouterr().err


# 3 seeds of 2 cells: the caller's block is units 0-2 and the helper's 3-5,
# (1, rho 0.8), (2, rho 0.5) and (2, rho 0.8)
SPLIT = {"task": "ablate", "seeds": [0, 1, 2], "rho": [0.5, 0.8]}


def test_a_helper_that_dies_fails_its_seed(tmp_path, monkeypatch):
    """A helper killed mid-block, after it finished its first unit, fails
    the first unit it did not report: the first of its block."""
    caller = os.getpid()
    real = runner._sweep_cell

    def dies_in_the_helper(cfg, data, out_dir, done, unit):
        if unit[0] == 2 and unit[2] == 0.5 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(cfg, data, out_dir, done, unit)

    monkeypatch.setattr(runner, "_sweep_cell", dies_in_the_helper)
    cfg = _cfg(**SPLIT, out_dir=str(tmp_path / "out"))
    _cpus(monkeypatch, 2)
    with pytest.raises(WorkerError) as info:
        run(cfg)
    assert str(info.value) == (
        "WorkerError: the helper process for units "
        "(1, 'temperature-anneal', 0.8, 2, 0.5) to "
        "(2, 'temperature-anneal', 0.8, 2, 0.5) exited with code -9")
    assert not multiprocessing.active_children()
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == str(info.value)
    _, (_, units, _) = run_stages(cfg)
    units = json.loads(json.dumps(units))
    parents, cells = manifest["helpers"]
    assert parents["units"] == [2] and parents["cpu_s"] > 0
    assert cells == {"units": units[3:]}  # and no usage
    assert [[c["seed"], c["rho"]] for c in manifest["cells"]] == [
        [0, 0.5], [0, 0.8], [1, 0.5]]
    # the helper got past its first unit, so it died mid-block
    assert (out / "metrics" / "temperature-anneal-rho0p8-phi2-tau0p5-s1.csv"
            ).is_file()


def test_a_cell_failing_in_a_helper_fails_the_run_as_a_serial_run_does(
        tmp_path, monkeypatch):
    """Unit (2, rho 0.5) raises: the helper's second unit at 2 workers,
    its first at 3. The error and the cells before it are the serial
    run's."""
    real = runner.run_cell

    def fails_one_cell(cfg, data, net, seed, method, rho, phi, tau0):
        if (seed, rho) == (2, 0.5):
            raise ValueError(f"cell rho {rho} of seed {seed} failed")
        return real(cfg, data, net, seed, method, rho, phi, tau0)

    monkeypatch.setattr(runner, "run_cell", fails_one_cell)
    errors, manifests = {}, {}
    for workers in (1, 2, 3):
        cfg = _cfg(**SPLIT, out_dir=str(tmp_path / f"w{workers}"))
        _cpus(monkeypatch, workers)
        with pytest.raises(Exception) as info:
            run(cfg)
        assert not multiprocessing.active_children()
        errors[workers] = error_text(info.value)
        manifests[workers] = json.loads(
            (tmp_path / f"w{workers}" / "manifest.json").read_text())
    assert errors[1] == "ValueError: cell rho 0.5 of seed 2 failed"
    assert errors[2] == errors[3] == errors[1]
    assert [2, "temperature-anneal", 0.5, 2, 0.5] in (
        manifests[2]["helpers"][-1]["units"])
    for manifest in manifests.values():
        assert manifest["error"] == errors[1]
        assert [[c["seed"], c["rho"]] for c in manifest["cells"]] == [
            [0, 0.5], [0, 0.8], [1, 0.5], [1, 0.8]]
        assert manifest["metrics_files"] == manifests[1]["metrics_files"]


def _ensemble_runs(tmp_path, monkeypatch, raw, name) -> tuple:
    """Run the ensemble config ``raw`` at 1, 2 and 3 CPUs, each in its own
    directory under the same relative out_dir; returns each run's error
    text (None when it succeeded) and outputs, by CPU count."""
    errors, outputs = {}, {}
    for cpus in (1, 2, 3):
        work = tmp_path / f"{name}-w{cpus}"
        work.mkdir()
        monkeypatch.chdir(work)
        _cpus(monkeypatch, cpus)
        try:
            run(_cfg(**raw))
            errors[cpus] = None
        except Exception as err:
            errors[cpus] = error_text(err)
        assert not multiprocessing.active_children()
        outputs[cpus] = _outputs(Path("out"))
    return errors, outputs


def _diverges(monkeypatch, when):
    """Members ``when(seed, i)`` picks are tuned from a poisoned parent,
    so they diverge."""
    def hook(net, seed, i):
        if when(seed, i):
            net.layers[1].w[...] = 1e200
        return net
    members_through(monkeypatch, hook)


ONE_SEED = {"task": "ensemble", "seed": 5,
            "ensemble": {"n_members": 4, "corruption_severities": [1, 3]}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_member_diverging_in_a_helper_is_reported_as_in_a_serial_run(
        tmp_path, monkeypatch):
    # member 3 is a helper's at 2 and 3 CPUs
    _diverges(monkeypatch, lambda seed, i: i == 3)
    errors, outputs = _ensemble_runs(tmp_path, monkeypatch, ONE_SEED, "m3")
    assert errors == {1: None, 2: None, 3: None}
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
    summary = json.loads(outputs[1]["seed-5/ensemble-summary.json"])
    assert [f["member"] for f in summary["failures"]] == [3]
    assert summary["failures"][0]["loss"] in ("nan", "inf")
    assert len(summary["members"]) == 3
    assert "seed-5/member-3.csv" not in outputs[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_member_diverging_fails_the_run_as_a_serial_run_does(
        tmp_path, monkeypatch):
    _diverges(monkeypatch, lambda *_: True)
    errors, outputs = _ensemble_runs(tmp_path, monkeypatch, ONE_SEED, "all")
    assert errors[1] == "DivergenceError: every ensemble member diverged"
    assert errors[2] == errors[3] == errors[1]
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
    status, error, cells, _ = outputs[1]["manifest.json"]
    assert (status, error, cells) == ("failed", errors[1], [])


def _member_1_of_seed_1_raises(net, seed, i):
    if (seed, i) == (1, 1):
        raise ValueError(f"member {i} of seed {seed} failed")
    return net


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("stage", ["members", "every-member", "scores"])
def test_an_ensemble_seed_failing_in_any_stage_fails_as_in_a_serial_run(
        tmp_path, monkeypatch, stage):
    """Seed 1 of 0, 1, 2 fails: in a member, by every member diverging, or
    in scoring. As in a seed-by-seed serial run, the run fails with that
    seed's error, and seed 0 is finished: summary and manifest cell."""
    if stage == "members":
        members_through(monkeypatch, _member_1_of_seed_1_raises)
        want = "ValueError: member 1 of seed 1 failed"
    elif stage == "every-member":
        _diverges(monkeypatch, lambda seed, i: seed == 1)
        want = "DivergenceError: every ensemble member diverged"
    else:
        real = ensemble_task.score_one_set

        def a_set_fails(cfg, data, out_dir, done, unit):
            if unit == (1, 3):
                raise ValueError("severity 3 of seed 1 failed")
            return real(cfg, data, out_dir, done, unit)
        monkeypatch.setattr(ensemble_task, "score_one_set", a_set_fails)
        want = "ValueError: severity 3 of seed 1 failed"
    raw = {**ONE_SEED, "seeds": [0, 1, 2],
           "ensemble": {"n_members": 2, "corruption_severities": [1, 3]}}
    errors, outputs = _ensemble_runs(tmp_path, monkeypatch, raw, stage)
    assert errors == {1: want, 2: want, 3: want}
    for cpus in (2, 3):
        assert outputs[cpus]["manifest.json"] == outputs[1]["manifest.json"]
        assert (outputs[cpus]["seed-0/ensemble-summary.json"]
                == outputs[1]["seed-0/ensemble-summary.json"])
    status, error, cells, _ = outputs[1]["manifest.json"]
    assert (status, error) == ("failed", want)
    assert [cell["seed"] for cell in cells] == [0]
    assert "seed-1/ensemble-summary.json" not in outputs[1]


def test_two_writers_of_one_parent_leave_a_complete_cache_entry(
        tmp_path, monkeypatch):
    """A second process writes the same parent while the first is between
    its write and its rename; each writes its own temporary file."""
    cfg = _cfg(task="prune-tune", seed=5, out_dir=str(tmp_path))
    data = runner.RunData(cfg)
    caller = os.getpid()
    real = runner.save_weights

    def another_writer_meanwhile(params, path):
        real(params, path)
        if os.getpid() == caller:
            pid = os.fork()
            if pid == 0:  # the second writer trains and writes the entry
                code = 1
                try:
                    runner.get_parent(cfg, data, tmp_path, {}, 5)
                    code = 0
                finally:
                    os._exit(code)
            assert os.waitpid(pid, 0)[1] == 0

    monkeypatch.setattr(runner, "save_weights", another_writer_meanwhile)
    path = tmp_path / runner.get_parent(cfg, data, tmp_path, {}, 5)
    assert path.is_file()
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    monkeypatch.setattr(runner, "save_weights", real)
    runner.trained_parent(cfg, data, 5, tmp_path / "again.ssam")
    want, got = load_weights(tmp_path / "again.ssam"), load_weights(path)
    assert list(got) == list(want)
    for name, value in want.items():
        assert np.array_equal(got[name], value)


def _alive_in_group(pgid: int) -> list:
    """Pids of the processes in group ``pgid`` that are not zombies."""
    alive = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone while we looked
        state, pgrp = fields[0], int(fields[2])
        if pgrp == pgid and state not in "ZX":
            alive.append(int(stat.parent.name))
    return alive


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc and relies on PR_SET_PDEATHSIG")
def test_killing_the_caller_mid_sweep_leaves_no_helper(tmp_path):
    # each seed runs for seconds, far longer than the kill takes to act
    raw = {**BASE, "task": "ablate", "seeds": [0, 1, 2],
           "blobs": {**BASE["blobs"], "n": 2000}, "rho": [0.5, 0.7, 0.9],
           "phi": [2, 4], "tau0": [0.3, 0.5, 0.7], "epochs": 6,
           "out_dir": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    two_cpus = ("import os, sys\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "from subanneal.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.Popen(
        [sys.executable, "-c", two_cpus, "run", str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while (len(_alive_in_group(proc.pid)) < 2
               or not list(tmp_path.glob("out/metrics/*.csv"))):
            assert proc.poll() is None, "the run ended before the kill"
            assert time.monotonic() < deadline, "no helper started"
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 3
        while _alive_in_group(proc.pid):
            assert time.monotonic() < deadline, (
                f"left alive: {_alive_in_group(proc.pid)}")
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        try:  # leave nothing behind if the test failed
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_one_worker_forks_nothing_and_loads_no_worker_module(tmp_path):
    script = f"""
import json, os, sys
def no_fork():
    raise AssertionError("forked")
os.fork = no_fork
from subanneal.config import ExperimentConfig
from subanneal.runner import run
base = json.loads({json.dumps(json.dumps(BASE))})
# one seed on two CPUs, then three seeds on one CPU
os.sched_getaffinity = lambda pid: {{0, 1}}
run(ExperimentConfig.from_dict({{**base, "out_dir": "a", "task": "prune-tune",
                                 "seed": 1}}))
os.sched_getaffinity = lambda pid: {{0}}
run(ExperimentConfig.from_dict({{**base, "out_dir": "b", "task": "ablate",
                                 "seeds": [0, 1, 2]}}))
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "multiprocessing"
                        or m in ("subanneal.workers",
                                 "subanneal.ensemble_task"))))
"""
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
    for name in ("a", "b"):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["workers"] == 1 and manifest["helpers"] == []


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_each_parent_is_trained_once_in_the_parents_stage(tmp_path,
                                                          monkeypatch, cpus):
    """Every process appends its parent trainings and cell tunings to one
    file: each seed's parent is trained once, all before the first cell,
    which like every later cell loads it from the cache."""
    calls = tmp_path / "calls.txt"
    real_get, real_train = runner.get_parent, runner.train_parent
    real_cell = runner.run_cell
    getting = []  # the seed this process's get_parent call is for

    def note(line):
        with open(calls, "a") as fh:
            fh.write(f"{line}\n")

    def get_parent(cfg, data, out_dir, done, seed):
        getting[:] = [seed]
        return real_get(cfg, data, out_dir, done, seed)

    def train_parent(*args, **kwargs):
        note(f"parent {getting[0]}")
        return real_train(*args, **kwargs)

    def run_cell(cfg, data, net, seed, *cell):
        note(f"cell {seed}")
        return real_cell(cfg, data, net, seed, *cell)

    monkeypatch.setattr(runner, "get_parent", get_parent)
    monkeypatch.setattr(runner, "train_parent", train_parent)
    monkeypatch.setattr(runner, "run_cell", run_cell)
    _cpus(monkeypatch, cpus)
    run(_cfg(**SPLIT, out_dir=str(tmp_path / "out")))
    lines = calls.read_text().splitlines()
    assert sorted(lines[:3]) == ["parent 0", "parent 1", "parent 2"]
    assert sorted(lines[3:]) == ["cell 0", "cell 0", "cell 1", "cell 1",
                                 "cell 2", "cell 2"]


def test_unit_blocks_are_contiguous_the_larger_first():
    assert unit_blocks(18, 2) == [range(0, 9), range(9, 18)]
    assert unit_blocks(7, 3) == [range(0, 3), range(3, 5), range(5, 7)]
    assert unit_blocks(3, 3) == [range(0, 1), range(1, 2), range(2, 3)]


@pytest.mark.parametrize("cpus", [2, 3])
def test_the_callers_block_of_blobs_ablate_holds_every_method(monkeypatch,
                                                              cpus):
    """The benchmark traces only the calling process, so its block must
    run every method's code."""
    path = SRC.parent / "configs" / "blobs-ablate.json"
    cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
    _cpus(monkeypatch, cpus)
    _, (name, units, _) = run_stages(cfg)
    assert name == "cells" and worker_count(cfg, len(units)) == cpus
    caller = [units[i] for i in unit_blocks(len(units), cpus)[0]]
    assert {unit[1] for unit in caller} == set(cfg.method)


@pytest.mark.parametrize("cpus", [2, 3])
def test_the_callers_blocks_of_a_one_seed_ensemble_tune_and_score(
        monkeypatch, cpus):
    """The benchmark's ensemble (4 partitioned members, severities 1-5,
    one seed): the caller trains the parent, tunes members and scores
    the clean set and at least one corrupted set, so the traced tuning,
    evaluation and corruption counts stay nonzero."""
    cfg = _cfg(task="ensemble", seed=0,
               ensemble={"n_members": 4, "partitioning": True,
                         "corruption_severities": [1, 2, 3, 4, 5]})
    _cpus(monkeypatch, cpus)
    caller = {}
    for name, units, _ in run_stages(cfg):
        workers = worker_count(cfg, len(units))
        assert workers == min(cpus, len(units))
        caller[name] = [units[i] for i in unit_blocks(len(units), workers)[0]]
    assert caller["parents"] == [0]
    assert caller["members"] == [(0, 0), (0, 1)]
    sets = [which for _, which in caller["scores"]]
    assert sets[0] == "clean" and len(sets) >= 2


def test_the_mnist_workload_tunes_its_cells_in_one_process(monkeypatch):
    """The benchmark traces only the calling process, and it reads the
    one-shot and the annealed step cost from ``prune-mnist-mlp``'s two
    cells: at 2 CPUs, its one seed keeps both in the caller."""
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    raw = workloads.WORKLOADS["prune-mnist-mlp"].config(SRC.parent, 0)
    cfg = ExperimentConfig.from_dict(raw)
    _cpus(monkeypatch, 2)
    assert [(name, len(units), worker_count(cfg, len(units)))
            for name, units, _ in run_stages(cfg)] == [("parents", 1, 1),
                                                       ("cells", 2, 1)]


class TestWorkerCount:
    def test_the_cpus_available_at_most_one_per_seed(self, monkeypatch):
        _cpus(monkeypatch, 4)
        assert worker_count(_cfg(task="ablate", seeds=[0, 1, 2]), 3) == 3
        assert worker_count(_cfg(task="ablate", seeds=[0, 1, 2, 3, 4]),
                            5) == 4
        assert worker_count(_cfg(task="train-parent", repeats=2), 2) == 2
        assert worker_count(_cfg(task="prune-tune", seed=1), 1) == 1
        # a one-seed sweep forks nothing, however many cells it has
        assert worker_count(_cfg(task="ablate", seed=1,
                                 method=["oneshot", "iterative"]), 2) == 1

    def test_an_ensemble_stage_at_most_one_per_unit(self, monkeypatch):
        _cpus(monkeypatch, 4)
        cfg = _cfg(task="ensemble", seed=1,
                   ensemble={"n_members": 3, "corruption_severities": [1]})
        assert [worker_count(cfg, len(units))
                for _, units, _ in run_stages(cfg)] == [1, 3, 2]
        assert worker_count(_cfg(task="ensemble", repeats=2), 2) == 2

    def test_an_eval_stage_one_per_set(self, monkeypatch):
        _cpus(monkeypatch, 4)
        cfg = _cfg(task="eval", weights="w.ssam", seeds=[3],
                   ensemble={"corruption_severities": [1, 2]})
        assert [(name, units, worker_count(cfg, len(units)))
                for name, units, _ in run_stages(cfg)] == [
            ("scores", [(3, "clean"), (3, 1), (3, 2)], 3)]
        cfg = _cfg(task="eval", weights="w.ssam",
                   ensemble={"corruption_severities": [1, 2, 3, 4, 5]})
        assert [worker_count(cfg, len(units))
                for _, units, _ in run_stages(cfg)] == [4]

    def test_one_process_where_fork_or_affinity_is_missing(self, monkeypatch):
        cfg = _cfg(task="ablate", seeds=[0, 1, 2])
        _cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert worker_count(cfg, 3) == 1
        monkeypatch.undo()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert worker_count(cfg, 3) == 1


def test_several_workers_run_one_blas_thread_each(tmp_path, monkeypatch):
    from test_runner import fake_blas

    calls = fake_blas(monkeypatch, threads=4)
    cfg = _cfg(task="ablate", seeds=[0, 1], deterministic=False,
               out_dir=str(tmp_path / "out"))
    _cpus(monkeypatch, 2)
    manifest = json.loads(run(cfg).read_text())
    assert manifest["workers"] == 2
    assert calls == [1]
    assert manifest["blas_threads"] == 1
