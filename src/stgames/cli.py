"""Command-line entry point.

`stgames KIND --config FILE ...`: one parser reads the scenario kind, YAML
config files and the output options that every kind shares. Exit codes: 0
success, 1 usage or schema problems, 2 a computation that failed to
converge or had no solution, 3 a capacity limit (problem too large for the
implemented methods). Each config reports its own warnings and outcome (a
summary line on stdout or an error line on stderr), and the exit code is
the largest over the configs. With `--out`, configs whose result files
would share a name are refused, exit 1, before any runs.

`python -m stgames.cli` and the `stgames` script end through `run`, which
flushes stdout and stderr and then ends the process with `os._exit`,
skipping the interpreter's finalization: the teardown of every module, a
last garbage collection over numpy's objects and the `atexit` hooks. That
loses nothing here. `write_outputs` closes every data file and the sidecar
before it returns; with `--jobs N > 1` the pool's workers are shut down
and joined before `main` returns (and the forked workers themselves end
through `os._exit`); and a run with `--jobs 1` registers no `atexit` hook.
A flush that fails (a closed stdout) falls back to `sys.exit`, and usage
errors, `--help` and uncaught exceptions leave `main` by raising, so those
end as any Python program does. `main` itself returns its exit code and
never ends the process, so tests and benchmarks call it in process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .errors import CapacityError, ComputationError, SchemaError
from .scenario import (REGISTRY, STOCHASTIC_KINDS, parse_scenario, run_scenario,
                       write_outputs)

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
    """One parser: the scenario kind, then the options every kind shares.
    The help lists each kind by its registry help text."""
    kinds = "\n".join(f"  {kind:<12} {spec.help}" for kind, spec in REGISTRY.items())
    parser = _Parser(prog="stgames",
                     description="Run game-theoretic scenarios from YAML configs.",
                     epilog=f"kinds:\n{kinds}",
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("kind", choices=REGISTRY, metavar="KIND",
                        help="scenario kind, which each config's `kind` must match")
    parser.add_argument("--config", action="append", required=True,
                        metavar="FILE", help="YAML scenario config (repeatable)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (required for "
                             f"{', '.join(STOCHASTIC_KINDS)} if the config has none)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory for result files (default: print summary)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                        help="output file format (default: csv)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes when running several configs")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress summary lines (warnings and errors still print)")
    return parser


def _stem(path):
    """The name a config's result files start with: its file name, less
    the extension."""
    return os.path.splitext(os.path.basename(path))[0]


def _run_config(kind, path, seed, out_dir, fmt):
    """Parse, run and export one config; returns (summary dict, written paths)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot read config: not UTF-8, byte "
                          f"0x{exc.object[exc.start]:02x} at offset {exc.start}") from exc
    cfg = parse_scenario(text, seed_override=seed)
    if cfg.kind != kind:
        raise SchemaError(f"config is kind {cfg.kind!r}, command expects {kind!r}",
                          "kind")
    record = run_scenario(cfg)
    written = []
    if out_dir is not None:
        written = write_outputs(record, out_dir, _stem(path), fmt=fmt)
    return record.summary, written


def _run_one(kind, path, seed, out_dir, fmt):
    """Worker body; returns (path, exit code, (summary, written) or message,
    warnings). Errors are returned, not raised, and each distinct warning
    is kept once per config, so one config never hides the results of the
    others and a warning repeated every step prints one line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            code, outcome = EXIT_OK, _run_config(kind, path, seed, out_dir, fmt)
        except CapacityError as exc:
            code, outcome = EXIT_CAPACITY, str(exc)
        except ComputationError as exc:
            code, outcome = EXIT_COMPUTATION, str(exc)
        except (SchemaError, ValueError, KeyError, OSError) as exc:
            code, outcome = EXIT_USAGE, str(exc)
    return path, code, outcome, [str(w.message) for w in caught]


def _report(results, quiet) -> int:
    """Print each config's warnings and outcome in order; returns the
    largest exit code."""
    worst = EXIT_OK
    for path, code, outcome, warned in results:
        worst = max(worst, code)
        for message in warned:
            print(f"warning: {message} ({path})", file=sys.stderr)
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
    # `--config` is required, so argparse would refuse an empty command
    # line; it prints the help instead
    if not (sys.argv[1:] if argv is None else argv):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    if args.out is not None:
        # configs that share a stem would overwrite each other's files,
        # at once with several workers
        first = {}
        for path in args.config:
            stem = _stem(path)
            if stem in first:
                print(f"error: configs {first[stem]} and {path} would both write "
                      f"{os.path.join(args.out, stem)}.*", file=sys.stderr)
                return EXIT_USAGE
            first[stem] = path
    tasks = [(args.kind, path, args.seed, args.out, args.format)
             for path in args.config]
    # The pool forks every worker up front: never more than there are
    # configs or CPUs.
    jobs = max(1, min(args.jobs, len(tasks), os.cpu_count() or 1))
    if jobs == 1:
        return _report(map(_run_one, *zip(*tasks)), args.quiet)
    # Imported here so that one-worker runs do not pay for it at start-up.
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return _report(pool.map(_run_one, *zip(*tasks)), args.quiet)


def run():
    """Run `main` on the command line and end the process with its code,
    without the interpreter's finalization (see the module docstring)."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:        # None if the descriptor was closed
                stream.flush()
    except (OSError, ValueError):         # a closed or broken stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
