"""Game-theoretic modeling of socio-technical systems.

Strategic and cooperative games, matching, congestion/routing, learning
dynamics, incentive design, coordination layers and adversarial resilience,
plus a config-driven scenario runner and CLI.
"""

__version__ = "0.1.0"

from .errors import (CapacityError, ComputationError, IterationLimitError,
                     SchemaError)
from .lp import LinearProgram, LpSolution, solve_lp
from .strategic import (DEFAULT_SIGNAL, NashCheck, StrategicGame,
                        WelfareReport, best_responses, counterfactual_payoffs,
                        enumerate_pure_nash, expected_payoffs, is_nash,
                        mixed_gap, profile_index, welfare_and_poa)
from .coop import (CoalitionGame, CoreReport, NucleolusReport,
                   cooperative_surplus, core_nonempty, excess, in_core,
                   is_convex, is_superadditive, members, nucleolus, shapley)
from .matching import (Matching, MatchingMarket, blocking_pairs,
                       deferred_acceptance, enumerate_stable, is_stable)
from .congestion import (BraessReport, CongestionNetwork, Edge,
                         FlowAssignment, PoaReport, TollReport, braess_delta,
                         enumerate_paths, marginal_cost_tolls,
                         price_of_anarchy, system_optimum,
                         wardrop_equilibrium)
from .learning import (Diagnostics, LearnerSpec, LearningState, RateSchedule,
                       Trace, diagnostics, run_dynamics)
from .incentives import (BudgetSpec, IncentiveDesign, IncentiveSchedule,
                         budget_check, design_incentive, is_pareto_improving,
                         modified_payoff)
from .coordination import (AdmissibleSetRule, CoordinatorPolicy, EpochDigest,
                           StackelbergReport, apply_admissible_sets,
                           coordinator_update, run_two_timescale,
                           stackelberg_solve)
from .resilience import (AdversaryModel, ConsensusRun, ConsensusScenario,
                         DefenseSpec, ResilienceMetrics, TrustMatrix,
                         corrupt_reports, run_consensus_scenario,
                         trimmed_consensus_step, update_trust)
from .scenario import (RunRecord, ScenarioConfig, Table, parse_scenario,
                       record_to_csv, record_to_jsonl, run_scenario,
                       write_outputs)
