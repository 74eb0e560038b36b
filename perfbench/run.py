"""stgames benchmark: CLI wall time end to end, and per-layer cost.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is taken from `src/`
with PYTHONPATH, as the tests do. Set-up generates the workload's YAML
documents from the seed and writes them under `.perfbench-work/`. Then:

--trace 0  One client in a closed loop launches one CLI process at a time
           (`python -m stgames.cli KIND --config F --out D --format F
           --jobs 1 --quiet`) and waits for it, each after a run of the
           reference program ref.py. A pass runs every document once;
           passes repeat, document by document, while the next fits in S
           seconds. Reports the end-to-end metrics, with times scaled to a
           fixed host speed (see "Host-speed scaling" below).
--trace 1  Calls `stgames.cli.main` in-process for every document, once
           with span wrappers around each module's public functions and
           once without; pairs repeat while they fit in S seconds.
           Reports the per-layer metrics.

Every invocation is verified (see check.py). Metric names and units come
from BENCHMARK.json. The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics. `--workload all` runs every
workload untraced and traced, one after the other.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

# One BLAS thread, here and in every CLI process, so that a CLI process
# uses one of the host's two vCPUs and does not compete for the second with
# other tenants. On a 2-vCPU VM the n = 9 coop run took 5.5 s with
# OpenBLAS's default two threads and 4.0 s with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 3

# Host-speed scaling. The host is shared, and the same CLI process can take
# twice as long from one second to the next. So the untraced run has the
# reference program (ref.py: fixed work of the CLI's kind, nothing from the
# repository) run just before every CLI process, and scales each CLI time
# by REF_S over the reference time before it. REF_S is about the
# reference's time in the quiet spells of a shared 2-vCPU Xeon VM, so
# reported times are seconds on a host that runs the reference that fast. In a seven-minute trial
# on a noisy host, scaling by references of this kind cut the quartile
# spread of single coop, nash and learn invocations from 0.35-0.46 of their
# median to 0.08-0.2. Set-up is scaled the same way.
REF_S = 0.35

# Layers each workload is chosen to exercise; a traced pass in which one of
# them records no call fails instead of reporting 0 s.
EXERCISED = {
    "coop-lp": ("cli", "scenario", "coop", "lp"),
    "cli-sweep": ("cli", "scenario", "strategic", "learning", "coordination",
                  "coop", "lp", "matching", "congestion", "incentives",
                  "resilience"),
}

# Counts that must repeat exactly between traced passes of one run.
EXACT_COUNTS = ("lp.pivots", "lp.calls", "lp.rows_max", "learning.steps",
                "coordination.epochs", "resilience.rounds",
                "coop.nucleolus_stages", "scenario.bytes_written")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Tally:
    """Outcomes of verified invocations, and the documents that had a
    failed or known-defect one. An untraced run's last pass may stop
    part-way, so `error_rate` is taken over documents, not invocations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.defects = 0
        self.problems = []
        self.docs = set()
        self.bad_docs = set()

    def add(self, doc, outcome, problem):
        self.attempted += 1
        self.docs.add(doc.stem)
        if outcome == check.FAILED:
            self.failed += 1
            self.problems.append(f"{doc.stem}: {problem}")
        elif outcome == check.DEFECT:
            self.defects += 1
        if outcome != check.OK:
            self.bad_docs.add(doc.stem)


def _child_env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def _import_time(env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import stgames.cli"], env=env,
                   check=True)
    return time.perf_counter() - t0


def _write_docs(docs, dest):
    import yaml

    class Dumper(yaml.SafeDumper):
        def ignore_aliases(self, data):
            return True

    dest.mkdir(parents=True)
    for doc in docs:
        with open(dest / f"{doc.stem}.yaml", "w", encoding="utf-8") as fh:
            yaml.dump(doc.body, fh, Dumper=Dumper, sort_keys=False)


def setup(workload, seed, work, env, launcher):
    """Generate and write the documents, then import the CLI once so its
    bytecode is cached. Repeated, each time after a reference run; returns
    the median host-scaled time."""
    raw, refs = [], []
    for rep in range(SETUP_REPEATS):
        refs.append(launcher.reference())
        t0 = time.perf_counter()
        docs = gen.WORKLOADS[workload](seed)
        configs = work / f"configs-{rep}"
        _write_docs(docs, configs)
        _import_time(env)
        raw.append(time.perf_counter() - t0)
    scaled = [t * REF_S / r for t, r in zip(raw, refs)]
    print(f"setup: {' '.join(f'{t:.3f}' for t in raw)} s raw, "
          f"reference {' '.join(f'{t:.3f}' for t in refs)} s")
    return docs, configs, statistics.median(scaled)


def _argv(doc, configs, out):
    return [doc.kind, "--config", str(configs / f"{doc.stem}.yaml"),
            "--out", str(out), "--format", doc.fmt, "--jobs", "1", "--quiet"]


def _keep_going(started, pass_times, seconds):
    return time.perf_counter() - started + statistics.median(pass_times) <= seconds


class Launcher:
    """launch.py, which starts and times the child processes (see there why)."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)

    def run(self, args):
        self.proc.stdin.write(json.dumps(args) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("launch.py exited early")
        return json.loads(line)

    def cli(self, args):
        return self.run(["-m", "stgames.cli"] + args)

    def reference(self):
        result = self.run([str(HERE / "ref.py")])
        if result["code"] != 0:
            raise BenchError(f"ref.py exited {result['code']}: {result['stderr']}")
        return result["seconds"]

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:         # it already exited
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_untraced(docs, configs, work, seconds, verifier, tally, launcher):
    """Passes over every document, one CLI process at a time, each just
    after a run of the reference program. After the first pass, a document
    runs again only if its last reference-plus-CLI time still fits in
    `seconds`; the run stops at the first that does not.

    Every CLI time is scaled by REF_S over the reference time before it.
    A document's latency is the median of its scaled times. `wall_s` is
    the sum of the documents' latencies, and p50 and p90 are percentiles
    of them: on a host whose speed swings from second to second, a
    percentile over single invocations moves with the swings."""
    refs = []
    scaled = {doc.stem: [] for doc in docs}
    unscaled = {doc.stem: [] for doc in docs}
    cost = {}           # last reference-plus-CLI time of each document
    peak_kb = 0
    started = time.perf_counter()
    k = 0
    stop = False
    while not stop:
        out = work / f"out-{k}"
        finished = []
        for doc in docs:
            if (doc.stem in cost
                    and time.perf_counter() - started + cost[doc.stem] > seconds):
                stop = True
                break
            t0 = time.perf_counter()
            refs.append(launcher.reference())
            result = launcher.cli(_argv(doc, configs, out))
            cost[doc.stem] = time.perf_counter() - t0
            unscaled[doc.stem].append(result["seconds"])
            scaled[doc.stem].append(result["seconds"] * REF_S / refs[-1])
            peak_kb = max(peak_kb, result["maxrss_kb"])
            finished.append((doc, result["code"], result["stderr"]))
        for doc, code, stderr in finished:
            tally.add(doc, *verifier.check(doc, code, stderr, out))
        shutil.rmtree(out, ignore_errors=True)
        k += 1
    for stem, times in scaled.items():
        print(f"scaled {stem}: {' '.join(f'{t:.4f}' for t in times)} s "
              f"(unscaled {' '.join(f'{t:.4f}' for t in unscaled[stem])} s)")
    medians = [statistics.median(times) for times in scaled.values()]
    pct = statistics.quantiles(medians, n=100, method="inclusive")
    raw_medians = [statistics.median(times) for times in unscaled.values()]
    raw_pct = statistics.quantiles(raw_medians, n=100, method="inclusive")
    print(f"{len(refs)} invocations of {len(docs)} documents in "
          f"{time.perf_counter() - started:.1f} s; reference median "
          f"{statistics.median(refs):.4f} s (REF_S {REF_S} s); unscaled: wall "
          f"{sum(raw_medians):.4f} s, p50 {raw_pct[49]:.4f} s, "
          f"p90 {raw_pct[89]:.4f} s")
    return {"wall_s": sum(medians),
            "scenario_p50_s": pct[49],
            "scenario_p90_s": pct[89],
            "peak_rss_mb": peak_kb / 1024.0}


def _inprocess_pass(cli, docs, configs, out, verifier, tally):
    """Run every document through cli.main in this process; returns wall
    time of the pass and the number of invocations that did not pass."""
    bad = 0
    t0 = time.perf_counter()
    results = []
    for doc in docs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(_argv(doc, configs, out))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:       # an uncaught error exits 1 in a real process
                traceback.print_exc()
                code = 1
        results.append((doc, code, err.getvalue()))
    wall = time.perf_counter() - t0
    for doc, code, stderr in results:
        outcome, problem = verifier.check(doc, code, stderr, out)
        tally.add(doc, outcome, problem)
        bad += outcome != check.OK
    shutil.rmtree(out, ignore_errors=True)
    return wall, bad


def run_traced(workload, docs, configs, work, seconds, verifier, tally, env,
               spans_path):
    sys.path.insert(0, str(SRC))
    import stgames.cli as cli

    import_s = statistics.median(_import_time(env) for _ in range(IMPORT_REPEATS))
    traced, plain, layer_runs = [], [], []
    started = time.perf_counter()
    k = 0
    while True:
        # alternate which pass goes first so order effects cancel in the
        # overhead estimate
        if k % 2:
            plain.append(_inprocess_pass(cli, docs, configs, work / f"plain-{k}",
                                         verifier, tally)[0])
        tracer = tracing.Tracer()
        with tracer:
            wall, bad = _inprocess_pass(cli, docs, configs, work / f"traced-{k}",
                                        verifier, tally)
        traced.append(wall)
        layer_runs.append((tracer.self_times(), dict(tracer.counts), bad))
        for layer in EXERCISED[workload]:
            if tracer.calls[layer] == 0:
                raise BenchError(f"layer {layer!r} recorded no call on {workload}")
        first = layer_runs[0][1]
        for key in EXACT_COUNTS:
            if tracer.counts[key] != first.get(key, 0):
                raise BenchError(f"count {key} changed between passes: "
                                 f"{first.get(key, 0)} then {tracer.counts[key]}")
        if k % 2 == 0:
            plain.append(_inprocess_pass(cli, docs, configs, work / f"plain-{k}",
                                         verifier, tally)[0])
        k += 1
        if k >= 2 and not _keep_going(started, [a + b for a, b in zip(traced, plain)],
                                      seconds):
            break
    tracer.dump(spans_path)

    metrics = {}
    for name in {n for run in layer_runs for n in run[0]}:
        metrics[name] = statistics.median(run[0].get(name, 0.0) for run in layer_runs)
    metrics.update(layer_runs[0][1])
    steps = metrics.get("learning.steps", 0)
    metrics["learning.us_per_step"] = (
        metrics.get("learning.run_dynamics_s", 0.0) / steps * 1e6 if steps else 0.0)
    metrics["cli.import_s"] = import_s
    metrics["cli.failed"] = layer_runs[0][2]
    metrics["trace.pass_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, len(traced), len(plain)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the `finally` blocks that stop launch.py
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        worst = 0
        for workload in gen.WORKLOADS:
            for trace in (0, 1):
                print(f"== {workload} --trace {trace}", flush=True)
                worst = max(worst, subprocess.run(
                    [sys.executable, __file__, "--workload", workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(trace)]).returncode)
        return worst

    if not (SRC / "stgames" / "cli.py").is_file():
        print(f"error: no stgames sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = _child_env()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    verifier = check.Verifier(args.workload, args.seed, HERE / "golden.json")
    launcher = Launcher(env)
    try:
        docs, configs, setup_s = setup(args.workload, args.seed, work, env,
                                       launcher)
        if args.trace:
            spans = ROOT / ".perfbench-work" / f"spans-{args.workload}-{args.seed}.jsonl"
            values, n_traced, n_plain = run_traced(
                args.workload, docs, configs, work, args.seconds, verifier,
                tally, env, spans)
            print(f"passes: {n_traced} traced, {n_plain} untraced; spans in {spans}")
        else:
            values = run_untraced(docs, configs, work, args.seconds, verifier,
                                  tally, launcher)
            values["setup_s"] = setup_s
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    for stem in sorted(verifier.digests):
        for name, digest in verifier.digests[stem].items():
            print(f"sha256 {digest} {name}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    error_rate = len(tally.bad_docs) / len(tally.docs)
    print(f"error_rate {error_rate} ratio ({len(tally.bad_docs)} of "
          f"{len(tally.docs)} documents; invocations: {tally.failed} failed, "
          f"{tally.defects} known-defect, {tally.attempted} attempted)")
    metrics = {}
    for m in declared:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = " (computed from array shapes, not measured)" \
            if m["name"] == "lp.tableau_mb_max" else ""
        print(f"{m['name']} {value} {m['unit']}{note}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
