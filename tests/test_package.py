"""The package's public names and modules, which load on first use."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import stgames

ROOT = pathlib.Path(__file__).resolve().parents[1]

# home module -> the names `stgames` re-exports from it
EXPORTS = {
    "errors": "CapacityError ComputationError IterationLimitError SchemaError",
    "lp": "LinearProgram LpSolution solve_lp",
    "strategic": "DEFAULT_SIGNAL NashCheck StrategicGame WelfareReport "
                 "best_responses counterfactual_payoffs enumerate_pure_nash "
                 "expected_payoffs is_nash mixed_gap welfare_and_poa",
    "coop": "CoalitionGame CoreReport NucleolusReport cooperative_surplus "
            "core_nonempty excess in_core is_convex is_superadditive members "
            "nucleolus shapley",
    "matching": "Matching MatchingMarket blocking_pairs deferred_acceptance "
                "enumerate_stable is_stable",
    "congestion": "BraessReport CongestionNetwork Edge FlowAssignment PoaReport "
                  "TollReport braess_delta enumerate_paths marginal_cost_tolls "
                  "price_of_anarchy system_optimum wardrop_equilibrium",
    "learning": "Diagnostics LearnerSpec LearningState RateSchedule Trace "
                "diagnostics run_dynamics",
    "incentives": "BudgetSpec IncentiveDesign design_incentive discounted_spend "
                  "is_pareto_improving modified_payoff",
    "coordination": "CoordinatorPolicy EpochDigest StackelbergReport "
                    "coordinator_update run_two_timescale stackelberg_solve",
    "resilience": "AdversaryModel ConsensusRun ConsensusScenario DefenseSpec "
                  "ResilienceMetrics TrustMatrix corrupt_reports "
                  "run_consensus_scenario trimmed_consensus_step update_trust",
    "scenario": "RunRecord ScenarioConfig Table parse_scenario run_scenario "
                "write_outputs",
}


def test_all_is_the_re_exported_names():
    names = [name for names in EXPORTS.values() for name in names.split()]
    assert len(names) == 83
    assert sorted(stgames.__all__) == sorted(names)


@pytest.mark.parametrize("home", sorted(EXPORTS))
def test_each_name_is_its_home_module_object(home):
    module = importlib.import_module(f"stgames.{home}")
    assert getattr(stgames, home) is module
    for name in EXPORTS[home].split():
        assert getattr(stgames, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from stgames import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(stgames.__all__)


def test_dir_lists_public_names_and_modules():
    assert set(stgames.__all__) | set(EXPORTS) <= set(dir(stgames))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'shapely'"):
        stgames.shapely


def test_cli_import_registers_every_module_the_tracer_wraps():
    # the benchmark's tracer looks its modules up in sys.modules after it
    # imports only stgames.cli; read its TARGETS without executing it
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    [targets] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TARGETS"]]
    wrapped = {f"stgames.{row.elts[0].value}" for row in targets.elts}
    assert len(wrapped) == 11
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, stgames.cli; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert wrapped <= set(proc.stdout.split())
