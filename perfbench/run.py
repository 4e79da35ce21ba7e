"""Benchmark for subanneal: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload sweep-blobs --seed 1 --seconds 27 --trace 0

Run from the root of a checkout. The workload's inputs are made from
``--seed`` (synthetic image files go to a scratch directory under the
checkout that ``SUBANNEAL_DATA`` points at). Each repeat is one
``subanneal.runner.run`` call in a fresh process with one BLAS thread and a
fresh output directory, so the parent network is trained cold every time.
Repeats run one at a time until ``--seconds`` is used up, at least three.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
the repeats, plus set-up time as the median of five set-up-only processes.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics from the traced ones, plus the tracing overhead.

Every repeat's outputs are checked (manifest status, finite metric values,
realized sparsity against the configured rho, ensemble members and
failures, CSVs byte-identical to the first repeat). The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it give the machine and a readable table.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MIN_REPEATS = 3
BUDGET_S = 165  # a whole benchmark run ends well inside 180 s


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "cpu": cpu, "nproc": os.cpu_count()}


# --- child processes ---------------------------------------------------------

class Child:
    """Starts workload.py and reaps it with its own resource usage."""

    def __init__(self, env: dict, log: Path, deadline: float):
        self.env, self.log, self.deadline = env, log, deadline
        self.proc = None

    def run(self, args: list):
        """(exit code, rusage); kills the child at the deadline."""
        with open(self.log, "ab") as log:
            argv = [sys.executable, str(HERE / "workload.py"), *args,
                    "--spawned", repr(time.monotonic())]
            self.proc = subprocess.Popen(argv, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         env=self.env, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    return self.proc.returncode, usage
                if time.monotonic() > self.deadline:
                    raise BenchError("workload process overran the time budget")
                time.sleep(0.02)
        finally:
            self.stop()

    def stop(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            _, status, _ = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)


# --- output checks -------------------------------------------------------------

def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(out_dir: Path, cfg: dict, sizes: list) -> tuple:
    """(errors, {csv path: sha256}, test_acc, manifest cells) of one repeat."""
    errors = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if manifest.get("status") != "ok":
        errors.append(f"manifest status {manifest.get('status')!r}")
    digests = {}
    for path in sorted(out_dir.rglob("*.csv")):
        rel = str(path.relative_to(out_dir))
        digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.name == "summary.csv":
            continue
        for row in _read_csv(path):
            bad = [k for k, v in row.items() if v and not math.isfinite(float(v))]
            if bad:
                errors.append(f"{rel}: non-finite {bad}")
    check = _check_ensemble if cfg["task"] == "ensemble" else _check_sweep
    more, test_acc, cells = check(out_dir, cfg, sizes, manifest)
    return errors + more, digests, test_acc, cells


def _final(out_dir: Path, rel: str) -> dict:
    return _read_csv(out_dir / rel)[-1]


def _sparsity_error(rel: str, got: str, want: float):
    if abs(float(got) - want) > 1e-12:
        return f"{rel}: realized_sparsity {got} != {want} (quota rounding)"
    return None


def _check_sweep(out_dir, cfg, sizes, manifest):
    errors, accs = [], {}
    for cell in manifest["cells"]:
        last = _final(out_dir, cell["metrics"])
        err = _sparsity_error(cell["metrics"], last["realized_sparsity"],
                              workloads.quota_sparsity(sizes, cell["rho"]))
        errors += [err] if err else []
        accs.setdefault(cell["method"], []).append(float(last["test_acc"]))
    if cfg["task"] == "ablate":  # mean over every cell
        test_acc = statistics.fmean(a for v in accs.values() for a in v)
    else:  # the annealed cell
        test_acc = statistics.fmean(accs["temperature-anneal"])
    return errors, test_acc, len(manifest["cells"])


def _check_ensemble(out_dir, cfg, sizes, manifest):
    errors, accs = [], []
    ens = cfg["ensemble"]
    for cell in manifest["cells"]:
        summary_path = out_dir / cell["metrics"]
        summary = json.loads(summary_path.read_text())
        if len(summary["members"]) != ens["n_members"]:
            errors.append(f"{cell['metrics']}: {len(summary['members'])} "
                          f"members, want {ens['n_members']}")
        if summary["failures"]:
            errors.append(f"{cell['metrics']}: failures {summary['failures']}")
        for i in range(ens["n_members"]):
            rel = str((summary_path.parent / f"member-{i}.csv")
                      .relative_to(out_dir))
            want = workloads.quota_sparsity(
                sizes, cell["rho"], complement=ens["partitioning"] and i % 2 == 1)
            err = _sparsity_error(rel, _final(out_dir, rel)["realized_sparsity"],
                                  want)
            errors += [err] if err else []
        accs.append(summary["ensemble"]["accuracy"])
    return errors, statistics.fmean(accs), len(manifest["cells"])


def train_samples(cfg: dict, manifest_cells: int, n_train: int) -> int:
    """Training examples consumed by the parents plus every child."""
    seeds = len(cfg["seeds"]) if cfg.get("seeds") else cfg.get("repeats", 1)
    if cfg["task"] == "ensemble":
        child_epochs = manifest_cells * cfg["ensemble"]["n_members"] * cfg["epochs"]
    else:
        child_epochs = manifest_cells * cfg["epochs"]
    return n_train * (seeds * cfg["parent_epochs"] + child_epochs)


# --- one benchmark run -----------------------------------------------------------

class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.wl = workloads.WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + BUDGET_S
        self.cfg = self.wl.config(ROOT, seed)
        self.cfg_path = work / "config.json"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        SUBANNEAL_DATA=str(work / "data"))
        self.child = Child(self.env, work / "workload.log", self.deadline)
        self.reference = None  # CSV digests of the first repeat
        self.repeats = []

    def prepare(self) -> None:
        self.work.mkdir(parents=True)
        self.wl.write_data(self.work / "data", self.seed)
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2))

    def _args(self, mode: str, result: Path) -> list:
        return [mode, "--config", str(self.cfg_path), "--src",
                str(ROOT / "src"), "--result", str(result), "--workload",
                self.wl.name]

    def setup(self) -> float:
        result = self.work / "setup.json"
        result.unlink(missing_ok=True)
        code, _ = self.child.run(self._args("setup", result))
        if code != 0:
            raise BenchError(f"set-up process exited {code}; see {self.child.log}")
        return json.loads(result.read_text())["setup_s"]

    def repeat(self, traced: bool) -> dict:
        k = len(self.repeats)
        out = self.work / "runs" / f"rep{k}"
        result = self.work / f"result{k}.json"
        span_file = self.work / f"spans{k}.json"
        args = self._args("run", result) + ["--out", str(out)]
        if traced:
            args += ["--trace", str(span_file)]
        started = time.monotonic()
        code, usage = self.child.run(args)
        rep = {"traced": traced, "elapsed": time.monotonic() - started,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
        if code != 0:
            rep["errors"].append(f"workload process exited {code}")
        else:
            rep.update(json.loads(result.read_text()))
            try:
                errors, digests, rep["test_acc"], cells = check_outputs(
                    out, self.cfg, rep["weight_sizes"])
            except (OSError, KeyError, ValueError, IndexError) as err:
                errors, digests, cells = [
                    f"output check failed: {type(err).__name__}: {err}"], None, 0
            rep["errors"] += errors
            rep["train_samples"] = train_samples(
                self.cfg, cells, self.wl.n_train(self.cfg))
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                rep["errors"].append("metric CSVs differ from the first repeat")
            if traced:
                rep["layers"] = spans.layer_metrics(
                    json.loads(span_file.read_text()))
                if not rep.get("replaced"):
                    rep["errors"].append("tracer wrapped nothing")
        span_file.unlink(missing_ok=True)
        shutil.rmtree(out, ignore_errors=True)
        self.repeats.append(rep)
        return rep

    def failed(self) -> int:
        return sum(1 for r in self.repeats if r["errors"])

    def print_log(self, lines: int = 40) -> None:
        """The tail of the workload processes' output, to stderr."""
        if self.child.log.is_file():
            tail = self.child.log.read_text(errors="replace").splitlines()
            print("\n".join(tail[-lines:]), file=sys.stderr)

    def measure(self, seconds: float, trace: bool) -> None:
        """Repeats until ``seconds`` is used, at least MIN_REPEATS, and for
        a traced run at least one traced and one untraced repeat."""
        started = time.monotonic()
        while True:
            traced = trace and len(self.repeats) % 2 == 1
            self.repeat(traced)
            longest = max(r["elapsed"] for r in self.repeats)
            now = time.monotonic()
            enough = len(self.repeats) >= (MIN_REPEATS if not trace else 2)
            if enough and now - started + longest > seconds:
                return
            if now + 1.5 * longest > self.deadline:
                if not enough:
                    raise BenchError("too slow for the time budget")
                return


# --- report ----------------------------------------------------------------------

def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def end_to_end(bench: Bench, setups: list) -> dict:
    """Metric name -> (value, unit, samples) over the untraced repeats."""
    good = [r for r in bench.repeats if not r["errors"] and not r["traced"]]
    if not good:
        raise BenchError("no repeat finished cleanly")
    wall = _median(good, "wall_s")
    return {
        "wall_s": (wall, "s", len(good)),
        "train_samples_per_s": (good[0]["train_samples"] / wall, "1/s",
                                len(good)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "cpu_s": (_median(good, "cpu_s"), "s", len(good)),
        "peak_rss_mb": (_median(good, "peak_rss_mb"), "MB", len(good)),
        "test_acc": (_median(good, "test_acc"), "fraction", len(good)),
        "failed_frac": (bench.failed() / len(bench.repeats), "fraction",
                        len(bench.repeats)),
    }


def per_layer(bench: Bench) -> dict:
    """Metric name -> (value, unit, samples) from the traced repeats."""
    traced = [r for r in bench.repeats if not r["errors"] and r["traced"]]
    plain = [r for r in bench.repeats if not r["errors"] and not r["traced"]]
    if not traced or not plain:
        raise BenchError("need a clean traced and a clean untraced repeat")
    out = {}
    for key in traced[0]["layers"]:  # median_low keeps counts whole
        value = statistics.median_low(r["layers"][key] for r in traced)
        out[key] = (value, unit_of(key), len(traced))
    traced_wall, plain_wall = _median(traced, "wall_s"), _median(plain, "wall_s")
    out["trace.wall_s"] = (traced_wall, "s", len(traced))
    out["trace.untraced_wall_s"] = (plain_wall, "s", len(plain))
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s", len(traced))
    out["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall,
                                  "ratio", len(traced))
    return out


def unit_of(key: str) -> str:
    if "_ms" in key:
        return "ms"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_frac", "_over_dense")):
        return "ratio"
    return "count"


def declared(kind: str) -> list:
    """(name, unit) of the metrics BENCHMARK.json declares for ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def report(name, seed, bench, metrics, kind) -> dict:
    attempted, failed = len(bench.repeats), bench.failed()
    print(f"workload {name}  seed {seed}  repeats {attempted}  failed {failed}")
    for r in bench.repeats:
        for err in r["errors"]:
            print(f"  error: {err}")
    if failed:
        bench.print_log()
    walls = ", ".join(f"{r['wall_s']:.3f}{'T' if r['traced'] else ''}"
                      for r in bench.repeats if "wall_s" in r)
    print(f"  wall_s of each repeat (T: traced): {walls}")
    for key, (value, unit, n) in metrics.items():
        print(f"  {key:34s} {value:>16.6g} {unit:9s} n={n}")
    out = {}
    for key, unit in declared(kind):
        value, got_unit, _ = metrics[key]
        if got_unit != unit:
            raise BenchError(f"{key}: unit {got_unit} != declared {unit}")
        out[key] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminate)

    missing = [p for p in ("src/subanneal/runner.py", "configs/blobs-ablate.json",
                           "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a subanneal checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work)
    try:
        bench.prepare()
        setups = ([] if args.trace else
                  [bench.setup() for _ in range(SETUP_REPEATS)])
        bench.measure(args.seconds, bool(args.trace))
        if args.trace:
            metrics, kind = per_layer(bench), "per_layer"
        else:
            metrics, kind = end_to_end(bench, setups), "end_to_end"
        print("machine " + json.dumps(machine(), sort_keys=True))
        result = report(args.workload, args.seed, bench, metrics, kind)
    except BenchError as err:
        bench.print_log()
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        bench.child.stop()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
