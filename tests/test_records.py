"""The record classes: NamedTuple results and validated __slots__ inputs.

Result records are NamedTuples: immutable, compared by value, printed as
`Name(field=value, ...)`, with defaults by position or by keyword.
Validated inputs are plain __slots__ classes whose constructors check
their arguments, given by position or by keyword.
"""

import numpy as np
import pytest

from stgames.congestion import CongestionNetwork, Edge, PoaReport
from stgames.coop import CoalitionGame, CoreReport
from stgames.coordination import CoordinatorPolicy, EpochDigest
from stgames.errors import CapacityError
from stgames.incentives import BudgetSpec, IncentiveDesign
from stgames.learning import Diagnostics, LearnerSpec, RateSchedule
from stgames.lp import LinearProgram, LpSolution
from stgames.matching import Matching, MatchingMarket
from stgames.resilience import AdversaryModel, DefenseSpec, TrustMatrix
from stgames.scenario import Kind, RunRecord, Table
from stgames.strategic import NashCheck, StrategicGame, WelfareReport

# one result record per module, with its repr
RECORDS = [
    (LpSolution("infeasible", None, None, 0),
     "LpSolution(status='infeasible', x=None, objective=None, iterations=0, "
     "duals=None)"),
    (NashCheck(False, 1, "D", 2.0),
     "NashCheck(is_nash=False, agent=1, deviation='D', gain=2.0)"),
    (CoreReport(False, None, 1.5),
     "CoreReport(nonempty=False, certificate=None, lp_optimum=1.5)"),
    (Matching(((0, 1), (1, 0))), "Matching(pairs=((0, 1), (1, 0)))"),
    (PoaReport(False, None, 1.0, 0.0, "zero optimum"),
     "PoaReport(defined=False, ratio=None, equilibrium_cost=1.0, "
     "optimal_cost=0.0, reason='zero optimum')"),
    (Diagnostics((0.0,), [(1.0,)], (4, 8), (0.25, 0.5)),
     "Diagnostics(external_regret=(0.0,), empirical_frequencies=[(1.0,)], "
     "gap_times=(4, 8), gap_series=(0.25, 0.5))"),
    (IncentiveDesign("infeasible", None, 4.0, 8.0, "over budget"),
     "IncentiveDesign(status='infeasible', payments=None, per_period_spend=4.0, "
     "discounted_spend=8.0, reason='over budget')"),
    (EpochDigest("hi", ((1.0, 0.0),), 1.5, (1.0, 0.5)),
     "EpochDigest(signal='hi', frequencies=((1.0, 0.0),), mean_welfare=1.5, "
     "mean_payoffs=(1.0, 0.5))"),
    (DefenseSpec(2), "DefenseSpec(trim_f=2, trust_eta=None)"),
    (Table("gap", ("step", "gap"), ((1,), (0.5,))),
     "Table(name='gap', columns=('step', 'gap'), data=((1,), (0.5,)))"),
]


@pytest.mark.parametrize("record, text", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_result_records_are_immutable_with_field_repr(record, text):
    assert repr(record) == text
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is record[0]
    assert record == type(record)(*record)


def test_defaults_apply_by_position_and_keyword():
    lp = LinearProgram(np.ones(1), np.ones((1, 1)), ("<=",), np.ones(1))
    assert (lp.lower, lp.upper, lp.maximize) == (None, None, False)
    assert LinearProgram(lp.objective, lp.lhs, lp.senses, lp.rhs,
                         maximize=True).maximize is True
    assert NashCheck(is_nash=True) == (True, None, None, None)
    assert WelfareReport("maximize", 1.0, (), (), None, None, False).reason == ""
    assert RunRecord("nash", "d", None, {}).tables == ()
    assert Kind("help").stochastic is False

    for spec in (LearnerSpec("fictitious-play"),
                 LearnerSpec(kind="replicator",
                             policy_rate=RateSchedule("harmonic", 0.5))):
        assert (spec.payoff_rate.kind, spec.payoff_rate.value) == ("constant", 1.0)
        assert (spec.temperature, spec.initial_policy,
                spec.initial_estimate) == (1.0, None, None)
    plain = LearnerSpec("fictitious-play")
    assert (plain.policy_rate.kind, plain.policy_rate.value) == ("constant", 1.0)
    assert (RateSchedule().kind, RateSchedule().value) == ("constant", 1.0)
    adv = AdversaryModel((1,), "replay")
    assert (adv.value, adv.lag, adv.drop_prob, adv.window) == (0.0, 1, 0.5, None)
    assert BudgetSpec(1.0, 0.9).horizon is None


# one validated class per module (more for some), given a bad value by keyword
BAD = [
    pytest.param(lambda: StrategicGame.from_tables(actions=(("a", "b"),),
                                                   tables={"s": None}),
                 CapacityError, "agent count 1", id="StrategicGame"),
    pytest.param(lambda: CoalitionGame(n=2, values=(0.0, 1.0)),
                 ValueError, "need 4 coalition values", id="CoalitionGame"),
    pytest.param(lambda: MatchingMarket(left_prefs=((0, 1), (1, 0)),
                                        right_prefs=((0, 1),)),
                 ValueError, "sides must have equal size", id="MatchingMarket"),
    pytest.param(lambda: Edge(tail="o", head="d", a=-1.0, b=0.0), ValueError,
                 r"latency coefficients must be >= 0: "
                 r"Edge\(tail='o', head='d', a=-1.0, b=0.0\)$", id="Edge"),
    pytest.param(lambda: CongestionNetwork(edges=(), origin="o", destination="d",
                                           demand=0.0),
                 ValueError, "demand must be positive", id="CongestionNetwork"),
    pytest.param(lambda: LearnerSpec(kind="fictitious-play", temperature=0.0),
                 ValueError, "temperature must be > 0", id="LearnerSpec"),
    pytest.param(lambda: RateSchedule(kind="geometric"),
                 ValueError, "unknown schedule kind", id="RateSchedule"),
    pytest.param(lambda: BudgetSpec(limit=1.0, delta=1.0),
                 ValueError, "infinite horizon", id="BudgetSpec"),
    pytest.param(lambda: CoordinatorPolicy(kind="greedy", candidates=()),
                 ValueError, "candidate set must be nonempty",
                 id="CoordinatorPolicy"),
    # round-robin would find the first copy of "lo" again and never reach "hi"
    pytest.param(lambda: CoordinatorPolicy(kind="round-robin",
                                           candidates=("lo", "lo", "hi")),
                 ValueError, "repeated candidates", id="CoordinatorPolicy-repeated"),
    pytest.param(lambda: AdversaryModel(compromised=(0,), kind="replay", lag=0),
                 ValueError, "replay lag must be >= 1", id="AdversaryModel"),
    pytest.param(lambda: TrustMatrix(weights=np.eye(2) * 0.5,
                                     adjacency=np.ones((2, 2), dtype=bool)),
                 ValueError, "rows must sum to 1", id="TrustMatrix"),
]


@pytest.mark.parametrize("build, error, message", BAD)
def test_validated_classes_check_keyword_arguments(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_validated_classes_refuse_unknown_keywords():
    with pytest.raises(TypeError):
        RateSchedule(kind="constant", rate=0.5)
    with pytest.raises(TypeError):
        BudgetSpec(1.0, 0.9, window=3)
