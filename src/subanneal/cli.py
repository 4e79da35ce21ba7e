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
                       help="run the one seed N instead of the config's seeds")
    run_p.add_argument("--out", default=None, help="override the output dir")

    sum_p = sub.add_parser("summarize",
                           help="aggregate manifests under a directory")
    sum_p.add_argument("directory")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    # imports deferred so --help stays fast
    from .config import ConfigError, ExperimentConfig, read_json
    from .runner import run, summarize_dir
    from .workers import error_text

    if args.command == "summarize":
        try:
            out = summarize_dir(args.directory)
        except (OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print(out)
        return 0

    try:
        raw = read_json(args.config)
        if isinstance(raw, dict):  # flags override it, then both are checked
            if args.seed is not None:
                raw.pop("seed", None)
                raw["seeds"] = [args.seed]
            if args.out is not None:
                raw["out_dir"] = args.out
        cfg = ExperimentConfig.from_dict(raw)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        manifest = run(cfg)
    except Exception as err:  # manifest already records the failure
        print(f"error: {error_text(err)}", file=sys.stderr)
        return 1
    print(manifest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
