"""Exit codes, flag handling and file outputs of the stgames command."""

import concurrent.futures
import json
import os
import pathlib
import subprocess
import sys

import pytest

from stgames import cli
from stgames.errors import ComputationError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fx(name):
    return str(FIXTURES / f"{name}.yaml")


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


def test_capacity_exit_code(tmp_path, capsys):
    n = 9
    row = "[" + ", ".join(str(i) for i in range(n)) + "]"
    rows = "\n".join(f"    - {row}" for _ in range(n))
    big = tmp_path / "big.yaml"
    big.write_text(f"kind: match\nmatch:\n  left:\n{rows}\n  right:\n{rows}\n")
    assert cli.main(["match", "--config", str(big), "--quiet"]) == cli.EXIT_CAPACITY
    assert "error:" in capsys.readouterr().err


def test_lp_capacity_exits_before_allocating(tmp_path):
    # 14 agents with every other coalition worth 0: the core LP would be a
    # 16383 x 32794 tableau (4 GiB). The child may not map 2 GiB, so a
    # guard that failed to fire shows as a MemoryError, not a swapping host.
    resource = pytest.importorskip("resource")
    big = tmp_path / "coop14.yaml"
    big.write_text("kind: coop\ncoop:\n  agents: 14\n  compute: [core]\n"
                   "  values:\n    - {coalition: [0, 1], value: 1.0}\n")
    paths = [str(pathlib.Path(cli.__file__).parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2 ** 30, 2 * 2 ** 30))

    proc = subprocess.run(
        [sys.executable, "-m", "stgames.cli", "coop", "--config", str(big),
         "--quiet"], env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=cap_memory)
    assert proc.returncode == cli.EXIT_CAPACITY, proc.stderr
    assert "error: LP tableau of 16383 x 32794" in proc.stderr


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


@pytest.mark.filterwarnings("ignore:.*coalition values missing")
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
        assert [ln.rsplit(" (", 1)[1] for ln in out.err.splitlines()] == [
            f"{nan})", f"{big})"]


def test_unwritable_out_is_an_error_not_a_traceback(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    rc = cli.main(["nash", "--config", fx("nash"), "--out", str(blocker / "out")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: writing ")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore:.*coalition values missing")
@pytest.mark.parametrize("agents", [15, 20])
@pytest.mark.parametrize("step", ["superadditive", "convex"])
def test_coalition_pair_checks_exit_3_at_once(tmp_path, capsys, agents, step):
    doc = tmp_path / "coop.yaml"
    doc.write_text(f"kind: coop\ncoop:\n  agents: {agents}\n  compute: [{step}]\n"
                   "  values:\n    - {coalition: [0, 1], value: 1.0}\n")
    assert cli.main(["coop", "--config", str(doc), "--quiet"]) == cli.EXIT_CAPACITY
    assert f"{step} check capped at 14 agents" in capsys.readouterr().err
