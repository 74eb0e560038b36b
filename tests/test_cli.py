"""Exit codes, flag handling and file outputs of the stgames command."""

import concurrent.futures
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml

from stgames import cli
from stgames.coop import CoalitionGame, in_core
from stgames.errors import ComputationError, SchemaError
from stgames.scenario import STOCHASTIC_KINDS

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fx(name):
    return str(FIXTURES / f"{name}.yaml")


def child_env():
    """Environment for a child interpreter that imports this checkout."""
    paths = [str(pathlib.Path(cli.__file__).parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def test_quiet_run_is_silent(capsys):
    assert cli.main(["nash", "--config", fx("nash"), "--quiet"]) == cli.EXIT_OK
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ""


def test_summary_line_per_config(capsys):
    assert cli.main(["coop", "--config", fx("coop")]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(fx("coop") + ": {")
    payload = json.loads(out.split(": ", 1)[1])
    assert payload["core_nonempty"] is True


def test_out_directory_and_format(tmp_path, capsys):
    rc = cli.main(["wardrop", "--config", fx("wardrop"),
                   "--out", str(tmp_path), "--format", "jsonl"])
    assert rc == cli.EXIT_OK
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["wardrop.equilibrium_paths.jsonl", "wardrop.meta.json",
                     "wardrop.optimum_paths.jsonl", "wardrop.summary.jsonl",
                     "wardrop.tolls.jsonl"]
    assert capsys.readouterr().out.count("wrote ") == 5
    summary = json.loads((tmp_path / "wardrop.summary.jsonl").read_text())
    assert summary["summary"]["braess_delta"] == pytest.approx(0.5)


def test_usage_failures(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["tournament", "--config", "x.yaml"])
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["nash"])                     # --config is required
    assert exc.value.code == cli.EXIT_USAGE


def test_schema_failures(tmp_path, capsys):
    assert cli.main(["nash", "--config", str(tmp_path / "missing.yaml"),
                     "--quiet"]) == cli.EXIT_USAGE
    assert "cannot read config" in capsys.readouterr().err

    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: nash\nnash: {surprise: 1}\n")
    assert cli.main(["nash", "--config", str(bad), "--quiet"]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err

    # config kind must match the subcommand
    assert cli.main(["coop", "--config", fx("nash"), "--quiet"]) == cli.EXIT_USAGE
    assert "expects 'coop'" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_a_read_error(tmp_path, capsys):
    bad = tmp_path / "latin.yaml"
    bad.write_bytes(b"kind: nash\n\xff\xfe: 1\n")
    with pytest.raises(SchemaError, match="cannot read config: not UTF-8"):
        cli._run_config("nash", str(bad), None, None, "csv")
    assert cli.main(["nash", "--config", str(bad), "--quiet"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: cannot read config: not UTF-8, byte 0xff at offset 11 ({bad})\n")


def test_help_lists_every_kind(capsys):
    # one parser: `KIND --help` prints the same shared help
    shown = []
    for argv in (["--help"], ["nash", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_OK
        shown.append(capsys.readouterr().out)
    assert shown[0] == shown[1]
    for kind, spec in cli.REGISTRY.items():
        assert re.search(rf"^  {kind} +{re.escape(spec.help)}$", shown[0], re.M), kind
    assert len(cli.REGISTRY) == 9


def test_seed_help_names_the_stochastic_kinds(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    named = re.search(r"--seed SEED override the config seed \(required for (.*?) "
                      r"if the config has none\)", text).group(1)
    assert tuple(named.split(", ")) == STOCHASTIC_KINDS


def test_options_may_come_before_the_kind(tmp_path, capsys):
    runs = []
    for name, argv in (("after", ["nash", "--config", fx("nash"), "--quiet"]),
                       ("before", ["--quiet", "nash", "--config", fx("nash")])):
        out = tmp_path / name
        rc = cli.main(argv + ["--out", str(out)])
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        runs.append((rc, capsys.readouterr(), files))
    assert runs[0] == runs[1]
    assert runs[0][0] == cli.EXIT_OK
    assert runs[0][1].out == runs[0][1].err == ""


def test_capacity_exit_code(tmp_path, capsys):
    n = 9
    row = "[" + ", ".join(str(i) for i in range(n)) + "]"
    rows = "\n".join(f"    - {row}" for _ in range(n))
    big = tmp_path / "big.yaml"
    big.write_text(f"kind: match\nmatch:\n  left:\n{rows}\n  right:\n{rows}\n")
    assert cli.main(["match", "--config", str(big), "--quiet"]) == cli.EXIT_CAPACITY
    assert "error: match.left: side size 9 exceeds 8" in capsys.readouterr().err


@pytest.mark.parametrize("kind, update, code, message", [
    ("ttscale", {"outer_steps": 10 ** 4, "epoch_length": 10 ** 6},
     cli.EXIT_CAPACITY, "10000000000 learning steps"),
    ("ttscale", {"outer_steps": 10 ** 4 + 1, "epoch_length": 1},
     cli.EXIT_CAPACITY, "error: ttscale.outer_steps: 10001 epochs exceed 10000"),
    ("ttscale", {"outer_steps": 1, "epoch_length": 10 ** 6 + 1},
     cli.EXIT_CAPACITY, "error: ttscale: 1000001 learning steps (outer_steps x "
                        "epoch_length) exceed 1000000"),
    ("coop", {"agents": 21},
     cli.EXIT_CAPACITY, "error: coop.agents: 21 agents exceed 20"),
    # the fixture computes every step, the pair checks among them
    ("coop", {"agents": 15},
     cli.EXIT_CAPACITY, "error: coop.agents: 15 agents for the superadditive "
                        "check exceed 14"),
    ("coop", {"agents": 15, "compute": ["shapley", "convex", "superadditive"]},
     cli.EXIT_CAPACITY, "error: coop.compute[1]: 15 agents for the convex "
                        "check exceed 14"),
    ("incentive", {"budget": {"limit": 100.0, "delta": 0.5, "horizon": 10 ** 9}},
     cli.EXIT_CAPACITY, "error: incentive.budget.horizon: 1000000000 steps exceed 1000000"),
    ("learn", {"horizon": 10 ** 6 + 1},
     cli.EXIT_CAPACITY, "learn.horizon: 1000001 learning steps exceed 1000000"),
    ("resilience", {"horizon": 10 ** 5 + 1},
     cli.EXIT_CAPACITY, "error: resilience.horizon: 100001 rounds exceed 100000"),
    ("resilience", {"initial_values": {"random": {"n": 65}}},
     cli.EXIT_CAPACITY, "error: resilience.initial_values.random.n: 65 agents exceed 64"),
    ("resilience", {"initial_values": [0.5] * 65},
     cli.EXIT_CAPACITY, "error: resilience.initial_values: 65 values exceed 64"),
    # under their floors, sizes stay schema errors
    ("incentive", {"budget": {"limit": 100.0, "delta": 0.5, "horizon": 0}},
     cli.EXIT_USAGE, "error: incentive.budget.horizon: must be >= 1, got 0"),
    ("resilience", {"horizon": 0},
     cli.EXIT_USAGE, "error: resilience.horizon: must be >= 1, got 0"),
    ("resilience", {"initial_values": {"random": {"n": 1}}},
     cli.EXIT_USAGE, "error: resilience.initial_values.random.n: must be >= 2, got 1"),
    ("resilience", {"initial_values": [0.5]},
     cli.EXIT_USAGE, "error: resilience.initial_values: expected at least 2 entries"),
    ("ttscale", {"outer_steps": 0},
     cli.EXIT_USAGE, "error: ttscale.outer_steps: must be >= 1, got 0"),
    ("coop", {"agents": 0},
     cli.EXIT_USAGE, "error: coop.agents: must be >= 1, got 0"),
], ids=["ttscale", "ttscale-epochs", "ttscale-epoch-length", "coop-agents",
        "coop-pair-default", "coop-pair-listed", "incentive", "learn",
        "resilience-horizon", "resilience-drawn", "resilience-listed",
        "incentive-floor", "resilience-horizon-floor", "resilience-drawn-floor",
        "resilience-listed-floor", "ttscale-floor", "coop-floor"])
def test_step_caps_exit_before_running(tmp_path, capsys, kind, update, code, message):
    doc = yaml.safe_load(pathlib.Path(fx(kind)).read_text())
    doc[kind].update(update)
    path = tmp_path / f"{kind}.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main([kind, "--config", str(path), "--quiet"]) == code
    assert message in capsys.readouterr().err


def readme_caps():
    """(number, constant name) for each cap the README "Step caps" list
    states, written as a number, at most one word, then the constant's
    name first in parentheses: "10⁶ steps (`MAX_LEARN_STEPS`)"."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    caps = readme.split("\nStep caps", 1)[1].split("\n## ", 1)[0]
    found = []
    for number, name in re.findall(
            r"(\d[\d,]*[⁰¹²³⁴⁵⁶⁷⁸⁹]*)(?:\s+[\w-]+)?\s+\(`([\w.]+)`[,)]", caps):
        digits = number.rstrip("⁰¹²³⁴⁵⁶⁷⁸⁹")
        exponent = number[len(digits):].translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹",
                                                                "0123456789"))
        value = int(digits.replace(",", "")) ** int(exponent or 1)
        found.append((value, name))
    return found


def test_readme_caps_match_the_constants():
    from stgames import congestion, coop, scenario, strategic
    from stgames.kinds import _game, incentive, resilience, ttscale
    constants = {
        "MAX_DOCUMENT_BYTES": scenario.MAX_DOCUMENT_BYTES,
        "strategic.MAX_AGENTS": strategic.MAX_AGENTS,
        "MAX_GRID": strategic.MAX_GRID,
        "MAX_LEARN_STEPS": _game.MAX_LEARN_STEPS,
        "MAX_EPOCHS": ttscale.MAX_EPOCHS,
        "MAX_SHIFTS": congestion.MAX_SHIFTS,
        "MAX_BUDGET_HORIZON": incentive.MAX_BUDGET_HORIZON,
        "coop.MAX_AGENTS": coop.MAX_AGENTS,
        "MAX_PAIR_CHECK_AGENTS": coop.MAX_PAIR_CHECK_AGENTS,
        "MAX_CONSENSUS_AGENTS": resilience.MAX_CONSENSUS_AGENTS,
        "MAX_CONSENSUS_ROUNDS": resilience.MAX_CONSENSUS_ROUNDS,
    }
    found = readme_caps()
    assert {name for _, name in found} == set(constants)
    for value, name in found:
        assert value == constants[name], name


@pytest.mark.parametrize("kind, update, path", [
    ("resilience", {"initial_values": [0.0, 1.0, 0.5],
                    "adversary": {"agents": [0, 1, 2], "kind": "sign-flip"}},
     "resilience.adversary.agents"),
    ("ttscale", {"coordinator": {"kind": "round-robin",
                                 "candidates": ["lo", "lo", "hi"]}},
     "ttscale.coordinator"),
    ("learn", {"learners": [{"kind": "fictitious-play", "initial_policy": [0.7, 0.7]},
                            {"kind": "fictitious-play"}]},
     "learn.learners[0]"),
], ids=["all-compromised", "repeated-candidate", "not-a-distribution"])
def test_run_time_faults_exit_1_with_a_path(tmp_path, capsys, kind, update, path):
    doc = yaml.safe_load(pathlib.Path(fx(kind)).read_text())
    doc[kind].update(update)
    config = tmp_path / f"{kind}.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert cli.main([kind, "--config", str(config), "--quiet"]) == cli.EXIT_USAGE
    assert re.search(rf"^error: {re.escape(path)}: ", capsys.readouterr().err,
                     re.MULTILINE)


def test_lp_capacity_exits_before_allocating(tmp_path):
    # The full core LP of 14 agents would be a 16383 x 32794 tableau
    # (4 GiB). Row generation solves working sets of a few dozen rows, so
    # the child exits 0, with a core point, although it may not map 2 GiB.
    resource = pytest.importorskip("resource")
    big = tmp_path / "coop14.yaml"
    big.write_text("kind: coop\ncoop:\n  agents: 14\n  compute: [core]\n"
                   "  values:\n    - {coalition: [0, 1], value: 1.0}\n"
                   f"    - {{coalition: {list(range(14))}, value: 2.0}}\n")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2 ** 30, 2 * 2 ** 30))

    proc = subprocess.run(
        [sys.executable, "-m", "stgames.cli", "coop", "--config", str(big)],
        env=child_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=cap_memory)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    summary = json.loads(proc.stdout.split(": ", 1)[1].splitlines()[0])
    game = CoalitionGame.from_dict(14, {0b11: 1.0, (1 << 14) - 1: 2.0})
    assert summary["core_nonempty"] is True
    assert in_core(game, summary["core_point"])


def test_coop_at_12_agents_within_budget(tmp_path):
    # Every coalition valued: the core (5 s budget) and the nucleolus (10 s
    # budget) together took under 0.1 s on a 2-vCPU Xeon VM; most of the
    # run is start-up and parsing the 4095 values.
    rng = np.random.default_rng(12)
    values = [{"coalition": [i for i in range(12) if m >> i & 1],
               "value": round(float(rng.uniform(0.0, 1.0)) * bin(m).count("1"), 6)}
              for m in range(1, 1 << 12)]
    doc = tmp_path / "coop12.yaml"
    doc.write_text(yaml.safe_dump({"kind": "coop", "coop": {
        "agents": 12, "compute": ["core", "nucleolus"], "values": values}}))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "stgames.cli", "coop", "--config", str(doc)],
        env=child_env(), capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert elapsed < 15.0
    summary = json.loads(proc.stdout.split(": ", 1)[1].splitlines()[0])
    assert len(summary["nucleolus"]) == 12
    assert summary["nucleolus_stages"] <= 11


def export_peak_kb(tmp_path, kind, doc):
    """VmHWM in kB of a child process that runs `doc` through the CLI with
    `--out tmp_path/out`. VmHWM is the child's own peak: ru_maxrss also
    counts the parent's memory at the fork."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux /proc")
    config = tmp_path / f"{kind}.yaml"
    config.write_text(yaml.safe_dump(doc))
    script = ("import re; from stgames import cli; "
              f"rc = cli.main([{kind!r}, '--config', {str(config)!r}, "
              f"'--out', {str(tmp_path / 'out')!r}, '--quiet']); "
              "status = open('/proc/self/status').read(); "
              r"print(rc, re.search(r'VmHWM:\s*(\d+) kB', status)[1])")
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, peak_kb = map(int, proc.stdout.split())
    assert rc == cli.EXIT_OK
    return peak_kb


def test_resilience_export_peak_rss(tmp_path):
    # 64 agents over 10^4 rounds write a 13 MB values file. The writers
    # stream it in blocks of lines; built whole, as one list of lines and
    # then one string, it took the run from 69 MB to 102 MB of peak RSS
    # (Python 3.11, numpy 2.4, x86-64 Linux).
    peak_kb = export_peak_kb(tmp_path, "resilience", {
        "kind": "resilience", "seed": 3, "resilience": {
            "initial_values": {"random": {"n": 64}}, "horizon": 10 ** 4,
            "defense": {"trim": 1},
            "adversary": {"agents": [5], "kind": "constant-injection",
                          "value": 100.0}}})
    assert (tmp_path / "out" / "resilience.values.csv").stat().st_size > 10 ** 7
    assert peak_kb < 85 * 1024


def test_learn_export_peak_rss(tmp_path):
    # 2 * 10^5 steps write a 4.7 MB trace file. The trace table holds one
    # column per field, built from the kernel's arrays, and the writers zip
    # the columns as they stream; with one Python tuple per step the run
    # peaked at 95 MB, with columns at 66 MB (Python 3.11, numpy 2.4,
    # x86-64 Linux).
    doc = yaml.safe_load(pathlib.Path(fx("learn")).read_text())
    doc["learn"].update(horizon=2 * 10 ** 5, gap_stride=20)
    peak_kb = export_peak_kb(tmp_path, "learn", doc)
    assert (tmp_path / "out" / "learn.trace.csv").stat().st_size > 4 * 10 ** 6
    assert peak_kb < 80 * 1024


def fresh_interpreter(script):
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def one_worker_run(kind, probe, config=None):
    """The exit code of a one-worker run of `config` (default: the `kind`
    fixture) in a fresh interpreter, then the words that the expression
    `probe` prints after it."""
    return fresh_interpreter(
        "import sys, types; from stgames import cli; "
        f"rc = cli.main([{kind!r}, '--config', {config or fx(kind)!r}, "
        "'--jobs', '1', '--quiet']); "
        f"print(rc, {probe})")


def one_worker_run_imports(kind, module, config=None):
    """Exit code of a one-worker run, and whether that run imported
    `module`."""
    return one_worker_run(kind, f"{module!r} in sys.modules", config)


def test_one_worker_run_skips_pool_import():
    assert one_worker_run_imports("match", "concurrent.futures") == ["0", "False"]


def test_one_worker_run_skips_dataclasses_import():
    # the library's records are NamedTuples and __slots__ classes, which
    # cost a fraction of what `dataclasses` spends building a class
    assert one_worker_run_imports("nash", "dataclasses") == ["0", "False"]


# numpy is bound lazily (stgames/_np.py): `numpy._core` is imported only
# once numpy itself executes

def test_importing_the_library_executes_no_numpy():
    # fails on any module-level use of `np.`
    assert fresh_interpreter("import sys, stgames, stgames.cli; "
                             "print('numpy._core' in sys.modules)") == ["False"]


def test_numpy_imported_first_is_the_module_the_library_uses():
    assert fresh_interpreter("import sys, numpy, stgames; "
                             "print(stgames._np.np is sys.modules['numpy'])") == ["True"]


def test_match_run_executes_no_numpy():
    assert one_worker_run_imports("match", "numpy._core") == ["0", "False"]


@pytest.mark.parametrize("kind, update, code", [
    ("nash", {"eps0": 1}, cli.EXIT_USAGE),            # unknown key
    ("learn", {"horizon": 0}, cli.EXIT_USAGE),         # checked before the game
    ("match", {"left": [list(range(9))] * 9}, cli.EXIT_CAPACITY),
])
def test_rejected_document_executes_no_numpy(tmp_path, kind, update, code):
    doc = yaml.safe_load(pathlib.Path(fx(kind)).read_text())
    doc[kind].update(update)
    config = tmp_path / f"{kind}.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert one_worker_run_imports(kind, "numpy._core", str(config)) == [
        str(code), "False"]


@pytest.mark.parametrize("kind, executes", [
    ("nash", False), ("stackelberg", False), ("incentive", False),
    ("learn", True), ("ttscale", True),
])
def test_run_executes_numpy_only_for_mixed_kernels(kind, executes):
    # pure profiles run on the games' float tuples; learning reads their
    # numpy view, so `learn` and `ttscale` show the probe sees numpy load
    assert one_worker_run_imports(kind, "numpy._core") == ["0", str(executes)]


# numpy 2 imports its `ma` and `random` subpackages on first use: `np.unique`
# (and so `np.union1d`) imports `numpy.ma`, `np.random` imports `numpy.random`

@pytest.mark.parametrize("kind, draws", [
    ("coop", False), ("match", False), ("nash", False), ("learn", True),
    ("ttscale", True), ("stackelberg", False), ("wardrop", False),
    ("incentive", False), ("resilience", False),
])
def test_run_imports_no_numpy_ma_and_numpy_random_only_to_draw(kind, draws):
    assert one_worker_run(kind, "'numpy.ma' in sys.modules, "
                                "'numpy.random' in sys.modules") == [
        "0", "False", str(draws)]


def test_resilience_imports_numpy_random_when_it_draws(tmp_path):
    drop = yaml.safe_load(pathlib.Path(fx("resilience")).read_text())
    drop["resilience"]["adversary"].update(kind="channel-drop", drop_prob=0.4)
    drawn = yaml.safe_load(pathlib.Path(fx("resilience")).read_text())
    drawn["resilience"]["initial_values"] = {"random": {"n": 6}}
    for name, doc in (("channel-drop", drop), ("drawn-values", drawn)):
        config = tmp_path / f"{name}.yaml"
        config.write_text(yaml.safe_dump(doc))
        assert one_worker_run_imports("resilience", "numpy.random",
                                      str(config)) == ["0", "True"], name


# So are the library modules: each is in sys.modules from `import stgames`
# on, as a lazy subclass of ModuleType until it executes. The type check
# reads no attribute, so it loads nothing.
KERNELS = ("lp", "strategic", "coop", "matching", "congestion", "learning",
           "incentives", "coordination", "resilience")
EXECUTED = ("*(m for m in %r if type(sys.modules['stgames.' + m]) "
            "is types.ModuleType)" % (KERNELS,))
# A kind's validator and runner live in stgames.kinds.<kind>, imported on
# the kind's first use; `_game` is the game sub-schema of the game kinds.
KIND_MODULES = "*(m for m in sys.modules if m.startswith('stgames.kinds'))"
GAME_KINDS = ("nash", "learn", "ttscale", "stackelberg", "incentive")


@pytest.mark.parametrize("kind, modules", [
    ("coop", {"coop", "lp"}),
    ("match", {"matching"}),
    ("nash", {"strategic"}),
    ("learn", {"learning", "strategic"}),
    ("ttscale", {"coordination", "learning", "strategic"}),
    ("stackelberg", {"coordination", "strategic"}),
    ("wardrop", {"congestion"}),
    ("incentive", {"incentives", "strategic"}),
    ("resilience", {"resilience"}),
])
def test_run_executes_only_the_modules_its_kind_calls(kind, modules):
    rc, *executed = one_worker_run(kind, f"{EXECUTED}, '|', {KIND_MODULES}")
    assert rc == "0"
    split = executed.index("|")
    assert set(executed[:split]) == modules
    assert set(executed[split + 1:]) == {
        "stgames.kinds", f"stgames.kinds.{kind}",
        *(["stgames.kinds._game"] if kind in GAME_KINDS else [])}


def test_importing_the_cli_executes_no_kernel_module():
    # nor any kind module: `build_parser` reads the registry's help texts
    assert fresh_interpreter("import sys, types, stgames, stgames.cli; "
                             f"print({EXECUTED}, {KIND_MODULES})") == []


def test_rejected_document_executes_no_kernel_module(tmp_path):
    unknown_key = yaml.safe_load(pathlib.Path(fx("nash")).read_text())
    unknown_key["nash"]["eps0"] = 1
    # a non-finite payoff: the table is checked before its signal is named
    nan_payoff = yaml.safe_load(pathlib.Path(fx("nash")).read_text())
    nan_payoff["nash"]["game"]["payoffs"][3]["values"] = [1, float("nan")]
    for name, doc in (("unknown-key", unknown_key), ("nan-payoff", nan_payoff)):
        config = tmp_path / f"{name}.yaml"
        config.write_text(yaml.safe_dump(doc))
        assert one_worker_run("nash", EXECUTED, str(config)) == [
            str(cli.EXIT_USAGE)], name


def test_traced_benchmark_binds_to_the_library(tmp_path):
    # perfbench/run.py imports only stgames.cli before its Tracer wraps the
    # kernels it looks up in sys.modules, and the static method
    # StrategicGame.from_tables; so do the same in a fresh interpreter
    # (-B: no bytecode written under perfbench/), around one run of every
    # fixture kind. The count hooks read kernel arguments and results by
    # position, so a signature change that breaks one fails here too.
    bench = pathlib.Path(__file__).parents[1] / "perfbench" / "run.py"
    kinds = sorted(p.stem for p in FIXTURES.glob("*.yaml"))
    script = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("bench", {str(bench)!r})
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
from stgames import cli
from stgames.strategic import StrategicGame
original = StrategicGame.__dict__["from_tables"]
with bench.tracing.Tracer() as tracer:
    rcs = [cli.main([kind, "--config", {str(FIXTURES)!r} + "/" + kind + ".yaml",
                     "--out", {str(tmp_path)!r}, "--quiet"]) for kind in {kinds!r}]
print(json.dumps({{"rcs": rcs, "calls": tracer.calls, "counts": tracer.counts,
                  "layers": bench.EXERCISED["cli-sweep"],
                  "staticmethod": isinstance(original, staticmethod),
                  "restored": StrategicGame.__dict__["from_tables"] is original}}))
"""
    proc = subprocess.run([sys.executable, "-B", "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["rcs"] == [cli.EXIT_OK] * 9
    for layer in got["layers"]:
        assert got["calls"].get(layer, 0) > 0, layer
    counts = got["counts"]
    assert counts["cli.invocations"] == 9
    for key in ("learning.steps", "resilience.rounds", "lp.calls", "lp.pivots",
                "lp.rows_max", "coordination.epochs", "coop.nucleolus_stages",
                "learning.gap_samples", "congestion.paths_max",
                "scenario.bytes_written"):
        assert counts.get(key, 0) > 0, key
    assert got["staticmethod"] and got["restored"]


def test_jobs_clamped_to_configs_and_cpus(monkeypatch):
    started = []

    class NoPool:
        """Records the worker count and runs the tasks in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    argv = ["coop", "--quiet", "--jobs", "500"]
    for _ in range(3):
        argv += ["--config", fx("coop")]
    for cpus, workers in ((2, [2]), (64, [3]), (None, []), (1, [])):
        started.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert cli.main(argv) == cli.EXIT_OK
        assert started == workers
    started.clear()
    assert cli.main(argv + ["--jobs", "0"]) == cli.EXIT_OK
    assert started == []


def test_computation_exit_code(monkeypatch, capsys):
    def boom(cfg):
        raise ComputationError("did not converge")

    monkeypatch.setattr(cli, "run_scenario", boom)
    rc = cli.main(["nash", "--config", fx("nash"), "--quiet"])
    assert rc == cli.EXIT_COMPUTATION
    assert "did not converge" in capsys.readouterr().err


def test_stochastic_kinds_need_a_seed(tmp_path, capsys):
    doc = (FIXTURES / "learn.yaml").read_text().replace("seed: 7\n", "")
    unseeded = tmp_path / "learn.yaml"
    unseeded.write_text(doc)
    assert cli.main(["learn", "--config", str(unseeded),
                     "--quiet"]) == cli.EXIT_USAGE
    assert "needs a seed" in capsys.readouterr().err
    assert cli.main(["learn", "--config", str(unseeded), "--seed", "3",
                     "--quiet"]) == cli.EXIT_OK


def test_parallel_jobs(tmp_path, capsys):
    a = tmp_path / "a.yaml"
    b = tmp_path / "b.yaml"
    text = (FIXTURES / "coop.yaml").read_text()
    a.write_text(text)
    b.write_text(text)
    rc = cli.main(["coop", "--config", str(a), "--config", str(b), "--jobs", "2"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("shapley") == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_configs_sharing_a_stem_are_refused_before_any_runs(tmp_path, capsys, jobs):
    # both would write out/g.*: the second config's files replaced the
    # first's, and two workers wrote the same files at once
    configs = []
    for name, seed in (("c1", 1), ("c2", 2)):
        (tmp_path / name).mkdir()
        configs.append(str(tmp_path / name / "g.yaml"))
        pathlib.Path(configs[-1]).write_text(
            (FIXTURES / "nash.yaml").read_text() + f"seed: {seed}\n")
    out = tmp_path / "out"
    argv = ["nash", "--config", configs[0], "--config", configs[1], "--jobs", jobs]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    std = capsys.readouterr()
    assert std.out == ""
    [line] = std.err.splitlines()
    assert line == (f"error: configs {configs[0]} and {configs[1]} would both "
                    f"write {out / 'g'}.*")
    assert not out.exists()
    # with no files to write, both run
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.count("g.yaml: {") == 2


def test_seeded_rerun_writes_identical_files(tmp_path, capsys):
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        rc = cli.main(["learn", "--config", fx("learn"), "--out", str(d),
                       "--format", "jsonl", "--quiet"])
        assert rc == cli.EXIT_OK
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        if name.endswith("meta.json"):
            continue                 # wall-clock facts live here by design
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_each_config_reports_its_own_outcome(tmp_path, capsys):
    nan = tmp_path / "nan.yaml"
    nan.write_text((FIXTURES / "coop.yaml").read_text().replace(
        "value: 1.0", "value: .nan"))
    big = tmp_path / "big.yaml"
    big.write_text("kind: coop\ncoop:\n  agents: 16\n  compute: [convex]\n"
                   "  values:\n    - {coalition: [0, 1], value: 1.0}\n")
    for jobs in ("1", "2"):
        rc = cli.main(["coop", "--config", fx("coop"), "--config", str(nan),
                       "--jobs", jobs])
        assert rc == cli.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out.startswith(fx("coop") + ": {")
        assert "shapley" in out.out
        [line] = out.err.splitlines()
        assert line.startswith("error: coop.values[6].value: expected a finite")
        assert line.endswith(f"({nan})")
        # the largest code wins: capacity (3) over schema (1)
        rc = cli.main(["coop", "--config", str(nan), "--config", str(big),
                       "--config", fx("coop"), "--jobs", jobs, "--quiet"])
        assert rc == cli.EXIT_CAPACITY
        out = capsys.readouterr()
        assert out.out == ""
        assert [(ln.split(":", 1)[0], ln.rsplit(" (", 1)[1])
                for ln in out.err.splitlines()] == [
            ("error", f"{nan})"), ("warning", f"{big})"), ("error", f"{big})")]


def test_each_config_prints_its_own_warnings(tmp_path, capsys):
    # two documents raising the same warning from the same source line
    docs = []
    for name in ("a", "b"):
        doc = tmp_path / f"{name}.yaml"
        doc.write_text("kind: coop\ncoop:\n  agents: 3\n  compute: [shapley]\n"
                       "  values:\n    - {coalition: [0, 1], value: 1.0}\n")
        docs += ["--config", str(doc)]
    # candidate B becomes matching pennies, which has no pure equilibrium
    skip = tmp_path / "skip.yaml"
    skip.write_text((FIXTURES / "stackelberg.yaml").read_text().replace(
        "B:\n        - {profile: [x, x], values: [1.5, 1.5]}\n"
        "        - {profile: [x, y], values: [1.5, 0]}\n"
        "        - {profile: [y, x], values: [0, 1.5]}\n"
        "        - {profile: [y, y], values: [0, 0]}",
        "B:\n        - {profile: [x, x], values: [1, -1]}\n"
        "        - {profile: [x, y], values: [-1, 1]}\n"
        "        - {profile: [y, x], values: [-1, 1]}\n"
        "        - {profile: [y, y], values: [1, -1]}"))
    for jobs in ("1", "2"):
        assert cli.main(["coop", *docs, "--jobs", jobs, "--quiet"]) == cli.EXIT_OK
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            f"warning: 6 coalition values missing; defaulting to 0 ({doc})"
            for doc in docs[1::2]]
        assert cli.main(["stackelberg", "--config", str(skip),
                         "--jobs", jobs]) == cli.EXIT_OK
        out = capsys.readouterr()
        assert '"skipped_signals": ["B"]' in out.out
        assert out.err.splitlines() == [
            f"warning: candidate 'B' has no pure equilibrium; skipped ({skip})"]


def test_repeated_warning_prints_once_per_config(tmp_path, capsys):
    # q / tau overflows at every step; each distinct warning prints once
    doc = yaml.safe_load(pathlib.Path(fx("learn")).read_text())
    doc["learn"]["horizon"] = 2000
    doc["learn"]["learners"] = [{"kind": "smoothed-best-response",
                                 "temperature": 1e-320}] * 2
    config = tmp_path / "learn.yaml"
    config.write_text(yaml.safe_dump(doc))
    for copies in (1, 2):
        rc = cli.main(["learn", *["--config", str(config)] * copies, "--quiet"])
        assert rc == cli.EXIT_COMPUTATION
        err = capsys.readouterr().err.splitlines()
        warned = [ln for ln in err if ln.startswith("warning: ")]
        assert len(warned) == 2 * copies
        assert len(set(warned)) == 2
        assert all(ln.endswith(f" ({config})") for ln in warned)


def test_unwritable_out_is_an_error_not_a_traceback(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    rc = cli.main(["nash", "--config", fx("nash"), "--out", str(blocker / "out")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: writing ")
    assert "Traceback" not in err


@pytest.mark.parametrize("agents", [15, 20])
@pytest.mark.parametrize("step", ["superadditive", "convex"])
def test_coalition_pair_checks_exit_3_at_once(tmp_path, capsys, agents, step):
    doc = tmp_path / "coop.yaml"
    doc.write_text(f"kind: coop\ncoop:\n  agents: {agents}\n  compute: [{step}]\n"
                   "  values:\n    - {coalition: [0, 1], value: 1.0}\n")
    assert cli.main(["coop", "--config", str(doc), "--quiet"]) == cli.EXIT_CAPACITY
    assert re.search(rf"^error: coop\.compute\[0\]: {agents} agents for the {step} "
                     r"check exceed 14 \(", capsys.readouterr().err, re.MULTILINE)


def test_document_over_the_byte_cap_exits_3(tmp_path, capsys):
    doc = tmp_path / "nash.yaml"
    doc.write_text(pathlib.Path(fx("nash")).read_text() + "#" * 2 ** 20 + "\n")
    assert cli.main(["nash", "--config", str(doc), "--quiet"]) == cli.EXIT_CAPACITY
    assert re.match(r"error: document is \d+ bytes, over the cap of 1048576 \(",
                    capsys.readouterr().err)


@pytest.mark.parametrize("agents, actions, given, message", [
    (7, 2, 3, "agent count 7 outside 2..6"),
    (2, 1001, 3, "profile grid 1002001 exceeds 1000000"),
    (7, 1, 1, "agent count 7 outside 2..6"),
], ids=["agents-incomplete", "grid-incomplete", "agents-complete"])
def test_game_over_a_cap_exits_3_with_its_path(tmp_path, capsys, agents, actions,
                                               given, message):
    # an incomplete table names the caps first, and a complete one gets
    # the payoffs' path on the constructor's capacity error
    labels = [f"a{j}" for j in range(actions)]
    entries = [{"profile": list(profile), "values": [0.0] * agents} for profile
               in itertools.islice(itertools.product(labels, repeat=agents), given)]
    doc = tmp_path / "nash.yaml"
    doc.write_text(yaml.safe_dump({"kind": "nash", "nash": {"game": {
        "actions": [labels] * agents, "payoffs": entries}}}))
    assert cli.main(["nash", "--config", str(doc), "--quiet"]) == cli.EXIT_CAPACITY
    assert capsys.readouterr().err.startswith(
        f"error: nash.game.payoffs: {message} (")


def test_long_wardrop_chain_exits_0(tmp_path, capsys):
    # the only path has 1,200 edges; a walk that recursed once per edge
    # died here with a RecursionError traceback
    edges = "".join(f"    - {{tail: n{k}, head: n{k + 1}, a: 1.0, b: 0.5}}\n"
                    for k in range(1200))
    doc = tmp_path / "chain.yaml"
    doc.write_text("kind: wardrop\nwardrop:\n  origin: n0\n  destination: n1200\n"
                   f"  demand: 1.0\n  edges:\n{edges}")
    assert cli.main(["wardrop", "--config", str(doc), "--quiet"]) == cli.EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def test_dead_end_clique_exits_within_budget(tmp_path):
    # the origin reaches d directly and through y; y also leads into a
    # complete digraph of 14 nodes whose only way out leads back to y, and
    # the extra edge leads from the clique back to the origin. The path
    # walk, which the schema check runs for the network and again with the
    # extra edge, once visited every simple path in the clique, for hours.
    # The run is a subprocess, so a walk that hangs fails at the budget.
    clique = [f"c{i}" for i in range(14)]
    pairs = [("o", "d"), ("o", "y"), ("y", "d"), ("y", "c0")] \
        + [(u, v) for u in clique for v in clique if u != v] + [(u, "y") for u in clique]
    doc = {"kind": "wardrop",
           "wardrop": {"origin": "o", "destination": "d", "demand": 1.0,
                       "edges": [{"tail": t, "head": h, "a": 1.0, "b": 0.5}
                                 for t, h in pairs],
                       "extra_edge": {"tail": "c13", "head": "o", "a": 0.0, "b": 0.0},
                       "tolls": True}}
    config = tmp_path / "clique.yaml"
    config.write_text(yaml.safe_dump(doc))
    proc = subprocess.run([sys.executable, "-m", "stgames.cli", "wardrop", "--config",
                           str(config), "--out", str(tmp_path / "out"), "--quiet"],
                          env=child_env(), capture_output=True, text=True, timeout=5)
    assert proc.returncode == cli.EXIT_OK, proc.stderr


def test_overflowing_wardrop_exits_2_at_once(tmp_path, capsys):
    # the schema accepts any finite demand; at this one the descent's gap
    # overflows on the first shift, and a descent that did not stop there
    # would take its 500,000 shifts, about 13 s, to fail. (PyYAML reads
    # `1.0e308`, with no sign, as a string.)
    text = (FIXTURES / "wardrop.yaml").read_text()
    config = tmp_path / "wardrop.yaml"
    config.write_text(text.replace("demand: 1.0\n", "demand: 1.0e+308\n"))
    start = time.perf_counter()
    assert cli.main(["wardrop", "--config", str(config), "--quiet"]) == cli.EXIT_COMPUTATION
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert re.search(r"^error: flow-shift descent overflowed: the gap is not finite",
                     err, re.MULTILINE)
    assert "Traceback" not in err


def test_learning_that_stops_being_finite_exits_2(tmp_path, capsys):
    # q / tau overflows at this temperature, which the schema accepts, and
    # the policies become NaN
    doc = yaml.safe_load(pathlib.Path(fx("learn")).read_text())
    doc["learn"]["horizon"] = 5
    doc["learn"]["learners"][0] = {"kind": "smoothed-best-response",
                                   "temperature": 1e-320}
    config = tmp_path / "learn.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert cli.main(["learn", "--config", str(config), "--quiet"]) == cli.EXIT_COMPUTATION
    err = capsys.readouterr().err
    assert re.search(r"^error: agent 0: policy or estimate is not finite", err,
                     re.MULTILINE)
    assert "Traceback" not in err


# `python -m stgames.cli` ends through `cli.run`: it flushes stdout and
# stderr and calls os._exit, skipping the interpreter's finalization. The
# tests below run the command as a child process and compare it with
# `cli.main` in this one.

def cli_process(args, buffered=True, **kwargs):
    """A child `python -m stgames.cli ARGS`, its stderr captured. With
    `buffered`, its stdout is block-buffered (as for a file or a pipe)
    even where PYTHONUNBUFFERED is set."""
    env = child_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "stgames.cli", *args], env=env,
                          stderr=subprocess.PIPE, text=True, timeout=60, **kwargs)


@pytest.mark.parametrize("kind", sorted(p.stem for p in FIXTURES.glob("*.yaml")))
def test_process_keeps_every_line_and_file(tmp_path, capsys, kind):
    # two configs, so that more lines wait in the buffer at the exit
    second = tmp_path / f"{kind}-2.yaml"
    second.write_text(pathlib.Path(fx(kind)).read_text())
    args = [kind, "--config", fx(kind), "--config", str(second), "--format", "jsonl"]
    inside, child = tmp_path / "inside", tmp_path / "child"
    assert cli.main(args + ["--out", str(inside)]) == cli.EXIT_OK
    expected = capsys.readouterr()
    with open(tmp_path / "stdout.txt", "w") as stdout:
        proc = cli_process(args + ["--out", str(child)], stdout=stdout)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr == expected.err
    lines = (tmp_path / "stdout.txt").read_text().splitlines()
    assert lines == expected.out.replace(str(inside), str(child)).splitlines()
    assert sum(ln.startswith("  wrote ") for ln in lines) >= 2 * 3
    names = sorted(p.name for p in inside.iterdir())
    assert names == sorted(p.name for p in child.iterdir())
    for name in names:
        if not name.endswith("meta.json"):
            assert (inside / name).read_bytes() == (child / name).read_bytes(), name
    # the sidecar is whole JSON
    assert json.loads((child / f"{kind}.meta.json").read_text())["kind"] == kind


def test_process_reports_failures_as_main_does(tmp_path, capsys):
    invalid = tmp_path / "invalid.yaml"
    invalid.write_text((FIXTURES / "nash.yaml").read_text() + "extra: 1\n")
    capacity = tmp_path / "capacity.yaml"
    capacity.write_text(yaml.safe_dump({"kind": "match", "match": {
        "left": [list(range(9))] * 9, "right": [list(range(9))] * 9}}))
    # the descent's gap overflows on its first shift
    overflow = tmp_path / "overflow.yaml"
    overflow.write_text((FIXTURES / "wardrop.yaml").read_text().replace(
        "demand: 1.0\n", "demand: 1.0e+308\n"))
    for kind, config, code in (("nash", invalid, cli.EXIT_USAGE),
                               ("match", capacity, cli.EXIT_CAPACITY),
                               ("wardrop", overflow, cli.EXIT_COMPUTATION)):
        args = [kind, "--config", str(config), "--config", fx(kind)]
        assert cli.main(args) == code
        expected = capsys.readouterr()
        assert sum(ln.startswith("error: ") for ln in expected.err.splitlines()) == 1
        proc = cli_process(args)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr == expected.err
        assert proc.stdout == expected.out


def session_members(sid):
    """Live processes, zombies included, in session `sid`."""
    members = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_text()
        except OSError:                      # it exited
            continue
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            members.append(int(entry))
    return members


def test_process_with_a_pool_leaves_no_child(tmp_path):
    if not os.path.exists("/proc/self/stat"):
        pytest.skip("needs Linux /proc")
    configs = []
    for name in ("a", "b"):
        configs += ["--config", str(tmp_path / f"{name}.yaml")]
        (tmp_path / f"{name}.yaml").write_text((FIXTURES / "coop.yaml").read_text())
    # a session of its own: a worker that outlived the command would
    # still be in it. Output goes to files, which a leftover worker could
    # not hold open the way it would a pipe.
    with open(tmp_path / "stdout.txt", "w") as stdout, \
            open(tmp_path / "stderr.txt", "w") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "stgames.cli", "coop",
                                 *configs, "--jobs", "2", "--out", str(tmp_path / "out")],
                                env=child_env(), stdout=stdout, stderr=stderr,
                                start_new_session=True)
        try:
            assert proc.wait(timeout=60) == cli.EXIT_OK
            left = session_members(proc.pid)
        finally:
            if proc.returncode is None or session_members(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)
    assert left == []
    assert (tmp_path / "stdout.txt").read_text().count(".yaml: {") == 2
    assert (tmp_path / "stderr.txt").read_text() == ""
    assert (tmp_path / "out" / "a.summary.csv").is_file()
    assert (tmp_path / "out" / "b.summary.csv").is_file()


@pytest.mark.parametrize("buffered, code", [(True, 120), (False, cli.EXIT_USAGE)],
                         ids=["buffered", "unbuffered"])
def test_process_on_a_closed_pipe_exits_as_before(buffered, code):
    # Block-buffered, the summary line waits in the buffer: the flush in
    # `cli.run` fails, so the process ends through sys.exit, whose last
    # flush fails too and sets CPython's exit code 120. Unbuffered, the
    # print raises BrokenPipeError out of `main`, an uncaught exception.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = cli_process(["nash", "--config", fx("nash")], buffered=buffered,
                           stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == code
    assert "BrokenPipeError" in proc.stderr


def test_main_returns_its_code_and_run_exits_with_it(monkeypatch, capsys):
    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)
    assert cli.main(["nash", "--config", fx("nash"), "--quiet"]) == cli.EXIT_OK
    assert cli.main(["match", "--config", fx("nash"), "--quiet"]) == cli.EXIT_USAGE
    assert exits == []
    monkeypatch.setattr(sys, "argv", ["stgames", "match", "--config", fx("nash")])
    cli.run()
    assert exits == [cli.EXIT_USAGE]
    # a stream that cannot be flushed: the ordinary exit, with the same code
    class BrokenPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == cli.EXIT_USAGE
    assert exits == [cli.EXIT_USAGE]
    capsys.readouterr()


def test_runs_register_no_exit_hook(tmp_path):
    # the exit path skips `atexit` hooks, so no library module or kernel
    # import may register one
    kinds = sorted(p.stem for p in FIXTURES.glob("*.yaml"))
    script = (
        "import atexit; from stgames import cli; before = atexit._ncallbacks(); "
        f"rcs = [cli.main([k, '--config', {str(FIXTURES)!r} + '/' + k + '.yaml', "
        f"'--out', {str(tmp_path)!r}, '--jobs', '1', '--quiet']) for k in {kinds!r}]; "
        "print(*rcs, before, atexit._ncallbacks())")
    *rcs, before, after = fresh_interpreter(script)
    assert rcs == ["0"] * len(kinds)
    assert after == before


# the digest comes from CPython's own SHA-256 module, not from `hashlib`,
# which loads OpenSSL (`_hashlib`); only `numpy.random` still loads it
NO_DRAW_KINDS = ("coop", "match", "nash", "stackelberg", "wardrop", "incentive",
                 "resilience")


def test_runs_load_no_openssl(tmp_path):
    doc = yaml.safe_load(pathlib.Path(fx("nash")).read_text())
    doc["nash"]["eps0"] = 1
    config = tmp_path / "nash.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert one_worker_run_imports("nash", "_hashlib", str(config)) == ["1", "False"]
    digest, loaded = fresh_interpreter(
        "import sys; from stgames.scenario import parse_scenario; "
        f"print(parse_scenario(open({fx('nash')!r}).read()).digest, "
        "'_hashlib' in sys.modules)")
    from stgames.scenario import parse_scenario
    assert digest == parse_scenario(pathlib.Path(fx("nash")).read_text()).digest
    assert loaded == "False"
    # one interpreter runs every kind in turn, so the first that loads
    # OpenSSL reads True and every later one too
    words = fresh_interpreter(
        "import sys\nfrom stgames import cli\n"
        f"for k in {NO_DRAW_KINDS!r}:\n"
        f"    rc = cli.main([k, '--config', {str(FIXTURES)!r} + '/' + k + '.yaml', "
        "'--jobs', '1', '--quiet'])\n"
        "    print(k, rc, '_hashlib' in sys.modules)\n")
    assert words == [w for k in NO_DRAW_KINDS for w in (k, "0", "False")]


def test_digest_is_the_sha256_of_the_canonical_document():
    from stgames.scenario import _sha256, parse_scenario
    kinds = sorted(p.stem for p in FIXTURES.glob("*.yaml"))
    assert len(kinds) == len(cli.REGISTRY)
    for kind in kinds:
        cfg = parse_scenario(pathlib.Path(fx(kind)).read_text())
        assert cfg.digest == hashlib.sha256(cfg.canonical.encode()).hexdigest(), kind
    # `json.dumps` escapes a non-ASCII name in the canonical document, and
    # the hash itself agrees with hashlib's on non-ASCII UTF-8 bytes
    doc = yaml.safe_load(pathlib.Path(fx("nash")).read_text())
    doc["name"] = "Nash–Stackelberg ☃ Ünïcode"
    cfg = parse_scenario(yaml.safe_dump(doc, allow_unicode=True))
    assert "\\u2603" in cfg.canonical
    assert cfg.digest == hashlib.sha256(cfg.canonical.encode()).hexdigest()
    text = "Nash–Stackelberg ☃ Ünïcode".encode("utf-8")
    assert _sha256(text).hexdigest() == hashlib.sha256(text).hexdigest()


# `import yaml, json, argparse` is the floor of every run; the library adds
# its own modules, CPython's SHA-256 and what argparse's help texts load
# (`gettext` reads the locale). A name missing on some Python is fine.
# `numpy` is the lazy entry of `stgames/_np.py`: once numpy executes, its
# subpackages appear too, and they are not allowed.
STARTUP_ALLOWED = {"_sha256", "_sha2", "locale", "_locale", "__future__", "numpy"}


@pytest.mark.parametrize("kind", ["nash", "match"])
def test_run_loads_nothing_beyond_the_allow_list(kind):
    loaded = fresh_interpreter(
        "import sys, yaml, json, argparse; before = set(sys.modules); "
        "from stgames import cli; "
        f"rc = cli.main([{kind!r}, '--config', {fx(kind)!r}, '--jobs', '1', '--quiet']); "
        "print(rc, *sorted(set(sys.modules) - before))")
    assert loaded[0] == "0"
    assert [m for m in loaded[1:] if m not in STARTUP_ALLOWED
            and m != "stgames" and not m.startswith("stgames.")] == []
