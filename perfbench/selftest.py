"""Self-test of the benchmark's tracing, one untraced and one traced repeat
per workload:

1. every per-layer metric that workloads.EXPECTED lists for a workload has a
   nonzero call count there (a wrapper that never fires would otherwise
   report a silent zero);
2. the traced repeat's metric CSVs are byte-identical to the untraced one's.

    python3 perfbench/selftest.py [workload ...]

Run from the root of a checkout; exits 1 on any failure.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import spans
import workloads


def check(name: str) -> list:
    work = run.WORK / f"selftest-{name}-{os.getpid()}"
    bench = run.Bench(name, seed=0, work=work)
    try:
        bench.prepare()
        plain, traced = bench.repeat(traced=False), bench.repeat(traced=True)
    finally:
        bench.child.stop()
        shutil.rmtree(work, ignore_errors=True)
    # the traced repeat is compared with the untraced one's CSV digests
    problems = plain["errors"] + traced["errors"]
    layers = traced.get("layers", {})
    for metric, (_, where) in workloads.EXPECTED.items():
        count = layers.get(spans.count_behind(metric), 0)
        if name in where and not count > 0:
            problems.append(f"{metric}: call count {count}")
    return problems


def main(names) -> int:
    failed = False
    try:
        for name in names or sorted(workloads.WORKLOADS):
            problems = check(name)
            print(f"{'FAIL' if problems else 'PASS'} {name}")
            for problem in problems:
                print(f"  {problem}")
            failed = failed or bool(problems)
    finally:
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
