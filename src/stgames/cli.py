"""Command-line entry point.

One subcommand per scenario kind; every subcommand takes YAML config files
and shared output options. Exit codes: 0 success, 1 usage or schema problems,
2 a computation that failed to converge or had no solution, 3 a capacity
limit (problem too large for the implemented methods). Each config reports
its own outcome, a summary line on stdout or an error line on stderr, and
the exit code is the largest over the configs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys

from .errors import CapacityError, ComputationError, SchemaError
from .scenario import REGISTRY, parse_scenario, run_scenario, write_outputs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTATION = 2
EXIT_CAPACITY = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    computation failures, so usage problems map to 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stgames",
                     description="Run game-theoretic scenarios from YAML configs.")
    sub = parser.add_subparsers(dest="command", metavar="KIND")
    for kind, spec in REGISTRY.items():
        p = sub.add_parser(kind, help=spec.help, description=spec.help)
        p.add_argument("--config", action="append", required=True,
                       metavar="FILE", help="YAML scenario config (repeatable)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed"
                            + (" (required for this kind if the config has none)"
                               if spec.stochastic else ""))
        p.add_argument("--out", default=None, metavar="DIR",
                       help="directory for result files (default: print summary)")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                       help="output file format (default: csv)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes when running several configs")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the summary line per config")
    return parser


def _run_config(kind, path, seed, out_dir, fmt):
    """Parse, run and export one config; returns (summary dict, written paths)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    cfg = parse_scenario(text, seed_override=seed)
    if cfg.kind != kind:
        raise SchemaError(f"config is kind {cfg.kind!r}, command expects {kind!r}",
                          "kind")
    record = run_scenario(cfg)
    written = []
    if out_dir is not None:
        stem = os.path.splitext(os.path.basename(path))[0]
        written = write_outputs(record, out_dir, stem, fmt=fmt)
    return record.summary, written


def _run_one(kind, path, seed, out_dir, fmt):
    """Worker body; returns (path, exit code, (summary, written) or message).

    Errors are returned, not raised, so one bad config never hides the
    results of the others."""
    try:
        return path, EXIT_OK, _run_config(kind, path, seed, out_dir, fmt)
    except CapacityError as exc:
        return path, EXIT_CAPACITY, str(exc)
    except ComputationError as exc:
        return path, EXIT_COMPUTATION, str(exc)
    except (SchemaError, ValueError, KeyError, OSError) as exc:
        return path, EXIT_USAGE, str(exc)


def _report(results, quiet) -> int:
    """Print each config's outcome in order; returns the largest exit code."""
    worst = EXIT_OK
    for path, code, outcome in results:
        worst = max(worst, code)
        if code != EXIT_OK:
            # The line starts with "error: " and the config goes last, so
            # a schema error still reads "error: <dotted.path>: ...".
            print(f"error: {outcome} ({path})", file=sys.stderr)
        elif not quiet:
            summary, written = outcome
            print(f"{path}: {json.dumps(summary, sort_keys=True, default=str)}")
            for w in written:
                print(f"  wrote {w}")
    return worst


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    tasks = [(args.command, path, args.seed, args.out, args.format)
             for path in args.config]
    # The pool forks every worker up front: never more than there are
    # configs or CPUs.
    jobs = max(1, min(args.jobs, len(tasks), os.cpu_count() or 1))
    if jobs == 1:
        return _report(map(_run_one, *zip(*tasks)), args.quiet)
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return _report(pool.map(_run_one, *zip(*tasks)), args.quiet)


if __name__ == "__main__":
    sys.exit(main())
