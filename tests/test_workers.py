"""Seeds shared among forked worker processes, one per CPU available.

The tests set the CPU count N by replacing ``os.sched_getaffinity``. The
outputs do not depend on N, a seed that fails in a helper fails the run as
it would in a serial loop, and no helper outlives ``run`` or its caller.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from subanneal import runner
from subanneal.cli import main
from subanneal.config import ExperimentConfig
from subanneal.runner import WorkerError, error_text, run, worker_count

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
    # seeds out of order: results are merged in the order the config lists
    "ablate": {"task": "ablate", "seeds": [3, 1, 2], "rho": [0.5, 0.8],
               "method": ["oneshot", "iterative", "temperature-anneal",
                          "random-anneal"]},
    "ensemble": {"task": "ensemble", "seeds": [0, 1],
                 "ensemble": {"n_members": 2, "partitioning": True,
                              "include_parent": False,
                              "corruption_severities": [1, 3]}},
    "train-parent": {"task": "train-parent", "seeds": [4, 7]},
}


def _cfg(**extra):
    return ExperimentConfig.from_dict({**BASE, **extra})


def _cpus(monkeypatch, n: int) -> None:
    """Make the process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _outputs(out: Path) -> dict:
    """Every file under ``out`` by relative path: its bytes, but only
    status, cells and metric files of the manifest, and an ensemble
    summary without its wall clock."""
    files = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        content = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(content)
            content = [manifest["status"], manifest["cells"],
                       manifest["metrics_files"]]
        elif path.name == "ensemble-summary.json":
            content = json.loads(content)
            assert content.pop("wall_clock_s") > 0
        files[path.relative_to(out).as_posix()] = content
    return files


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch,
                                                   name):
    outputs = {}
    for workers in (1, 2, 3):
        work = tmp_path / f"w{workers}"
        work.mkdir()
        monkeypatch.chdir(work)  # the same relative out_dir in every run
        _cpus(monkeypatch, workers)
        manifest = json.loads(run(_cfg(**CONFIGS[name])).read_text())
        assert not multiprocessing.active_children()
        used = min(workers, len(manifest["seeds"]))
        assert manifest["workers"] == used
        helpers = manifest["helpers"]
        assert [h["seeds"] for h in helpers] == [
            manifest["seeds"][w::used] for w in range(1, used)]
        assert all(h["peak_rss_mb"] > 0 and h["cpu_s"] > 0 for h in helpers)
        assert manifest["peak_rss_mb_sum"] == pytest.approx(
            manifest["peak_rss_mb"] + sum(h["peak_rss_mb"] for h in helpers))
        outputs[workers] = _outputs(Path("out"))
    kinds = {Path(rel).suffix for rel in outputs[1]}
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
    """Seed 1 runs in the helper and seeds 0 and 2 in the caller; the
    first failing seed in seed order decides the error, and the manifest
    keeps the cells of the seeds before it."""
    errors, manifests = {}, {}
    for workers in (1, 2):
        cfg = _cfg(task="ablate", seeds=[0, 1, 2],
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
        assert {cell["seed"] for cell in manifest["cells"]} == set(
            range(min(broken)))
    assert manifests[2]["cells"] == manifests[1]["cells"]
    assert manifests[2]["metrics_files"] == manifests[1]["metrics_files"]


def test_a_helper_failure_exits_the_cli_nonzero_with_the_serial_error(
        tmp_path, monkeypatch, capsys):
    raw = {**BASE, "task": "ablate", "seeds": [0, 1, 2],
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


def test_a_helper_that_dies_fails_its_seed(tmp_path, monkeypatch):
    caller = os.getpid()
    real = runner.SEED_TASKS["ablate"]

    def dies_in_the_helper(cfg, data, out_dir, seed):
        if seed == 1 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(cfg, data, out_dir, seed)

    monkeypatch.setitem(runner.SEED_TASKS, "ablate", dies_in_the_helper)
    cfg = _cfg(task="ablate", seeds=[0, 1, 2], out_dir=str(tmp_path / "out"))
    _cpus(monkeypatch, 2)
    with pytest.raises(WorkerError, match="seeds 1 exited with code -9"):
        run(cfg)
    assert not multiprocessing.active_children()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["error"].startswith("WorkerError: ")
    assert manifest["helpers"] == [{"seeds": [1]}]  # it reported no usage


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
                        or m == "subanneal.workers")))
"""
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
    for name in ("a", "b"):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["workers"] == 1 and manifest["helpers"] == []


class TestWorkerCount:
    def test_the_cpus_available_at_most_one_per_seed(self, monkeypatch):
        _cpus(monkeypatch, 4)
        assert worker_count(_cfg(task="ablate", seeds=[0, 1, 2])) == 3
        assert worker_count(_cfg(task="ablate", seeds=[0, 1, 2, 3, 4])) == 4
        assert worker_count(_cfg(task="ensemble", repeats=2)) == 2
        assert worker_count(_cfg(task="prune-tune", seed=1)) == 1

    def test_eval_runs_in_one_process(self, monkeypatch):
        _cpus(monkeypatch, 2)
        cfg = _cfg(task="eval", weights="w.ssam", seeds=[0, 1])
        assert worker_count(cfg) == 1

    def test_one_process_where_fork_or_affinity_is_missing(self, monkeypatch):
        cfg = _cfg(task="ablate", seeds=[0, 1, 2])
        _cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert worker_count(cfg) == 1
        monkeypatch.undo()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert worker_count(cfg) == 1


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
