"""Command-line entry points: ``subanneal run`` and ``subanneal summarize``."""

from __future__ import annotations

import argparse
import logging
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subanneal",
        description="Stochastic subnetwork annealing experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to the experiment JSON")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the output dir")
    run_p.add_argument("--deterministic", action="store_true",
                       help="one BLAS thread in every process "
                            "(bit-reproducible)")
    run_p.add_argument("--threads", type=int, default=None,
                       help="BLAS thread cap for linear algebra (one "
                            "thread whenever seeds run in several "
                            "processes)")

    sum_p = sub.add_parser("summarize",
                           help="aggregate manifests under a directory")
    sum_p.add_argument("directory")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    # imports deferred so --help stays fast and thread caps apply early
    from .config import ConfigError, ExperimentConfig
    from .runner import error_text, limit_blas_threads, run, summarize_dir

    if args.command == "summarize":
        try:
            out = summarize_dir(args.directory)
        except (FileNotFoundError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print(out)
        return 0

    try:
        cfg = ExperimentConfig.from_file(args.config)
    except (ConfigError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.seeds = None
    if args.out is not None:
        cfg.out_dir = args.out
    if args.deterministic:
        cfg.deterministic = True
    if args.threads is not None:
        limit_blas_threads(max(1, args.threads))
    try:
        manifest = run(cfg)
    except Exception as err:  # manifest already records the failure
        print(f"error: {error_text(err)}", file=sys.stderr)
        return 1
    print(manifest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
