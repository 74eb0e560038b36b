"""Game-theoretic modeling of socio-technical systems.

Strategic and cooperative games, matching, congestion/routing, learning
dynamics, incentive design, coordination layers and adversarial resilience,
plus a config-driven scenario runner (`scenario`, with one module per
scenario kind under `stgames.kinds`) and CLI.

The nine kernel modules and `scenario` are registered lazily (`_np.lazy`):
each is in `sys.modules` and bound here from `import stgames` on, and its
code runs on the first attribute read. A kind's module is imported on the
kind's first use. So a CLI process compiles and executes only its kind's
module and the kernel modules that kind calls. The names re-exported from
the lazy modules resolve through the module `__getattr__`, which loads
their home module.
"""

__version__ = "0.1.0"

from ._np import lazy
from .errors import (CapacityError, ComputationError, IterationLimitError,
                     SchemaError)

# name -> the module that defines it
_HOME = {name: module for module, names in (
    ("lp", "LinearProgram LpSolution solve_lp"),
    ("strategic", "DEFAULT_SIGNAL NashCheck StrategicGame WelfareReport "
                  "best_responses counterfactual_payoffs enumerate_pure_nash "
                  "expected_payoffs is_nash mixed_gap welfare_and_poa"),
    ("coop", "CoalitionGame CoreReport NucleolusReport cooperative_surplus "
             "core_nonempty excess in_core is_convex is_superadditive members "
             "nucleolus shapley"),
    ("matching", "Matching MatchingMarket blocking_pairs deferred_acceptance "
                 "enumerate_stable is_stable"),
    ("congestion", "BraessReport CongestionNetwork Edge FlowAssignment "
                   "PoaReport TollReport braess_delta enumerate_paths "
                   "marginal_cost_tolls price_of_anarchy system_optimum "
                   "wardrop_equilibrium"),
    ("learning", "Diagnostics LearnerSpec LearningState RateSchedule Trace "
                 "diagnostics run_dynamics"),
    ("incentives", "BudgetSpec IncentiveDesign design_incentive "
                   "discounted_spend is_pareto_improving modified_payoff"),
    ("coordination", "CoordinatorPolicy EpochDigest StackelbergReport "
                     "coordinator_update run_two_timescale stackelberg_solve"),
    ("resilience", "AdversaryModel ConsensusRun ConsensusScenario DefenseSpec "
                   "ResilienceMetrics TrustMatrix corrupt_reports "
                   "run_consensus_scenario trimmed_consensus_step "
                   "update_trust"),
    ("scenario", "RunRecord ScenarioConfig Table parse_scenario run_scenario "
                 "write_outputs"),
) for name in names.split()}

for _module in dict.fromkeys(_HOME.values()):
    lazy(f"{__name__}.{_module}")
del _module

__all__ = ["CapacityError", "ComputationError", "IterationLimitError",
           "SchemaError", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
