"""Payoff modification, budgets, Pareto checks and transfer synthesis.

An incentive schedule adds per-agent transfers on top of a game's payoffs,
profile by profile (stationary in time).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ComputationError
from .strategic import (StrategicGame, _check_profile, _max, _total,
                        counterfactual_payoffs, is_nash)

TOL = 1e-9


class IncentiveSchedule(NamedTuple):
    """Per-signal transfers: signal -> {profile: per-agent transfer tuple}.
    A profile left out pays nothing."""

    transfers: dict        # signal -> {profile (action indices): transfers}

    @staticmethod
    def zero(game: StrategicGame) -> "IncentiveSchedule":
        return IncentiveSchedule({sig: {} for sig in game.signals})

    @staticmethod
    def on_profile(game: StrategicGame, profile, per_agent,
                   signal=None) -> "IncentiveSchedule":
        """Transfers paid only at one profile (zero elsewhere)."""
        sig = game.resolve_signal(signal)
        profile = _check_profile(game.actions, profile)
        sched = IncentiveSchedule.zero(game)
        vec = tuple(float(v) for v in per_agent)
        if len(vec) != game.n_agents:
            raise ValueError(f"need {game.n_agents} transfers, got {len(vec)}")
        sched.transfers[sig][profile] = vec
        return sched

    def per_agent(self, game: StrategicGame, profile, signal=None) -> tuple:
        sig = game.resolve_signal(signal)
        profile = _check_profile(game.actions, profile)
        return self.transfers[sig].get(profile, (0.0,) * game.n_agents)


def modified_payoff(game: StrategicGame, schedule: IncentiveSchedule) -> StrategicGame:
    """The game with payoffs J + rho; the input game is untouched. Every
    payoff gets a transfer added, 0.0 at a profile that pays none, as when
    the schedule was a whole table (so a -0.0 payoff there becomes 0.0)."""
    n = game.n_agents
    zero = (0.0,) * n
    tables = {}
    for sig in game.signals:
        if sig not in schedule.transfers:
            raise ValueError(f"schedule missing signal {sig!r}")
        paid = schedule.transfers[sig]
        for profile, vec in paid.items():
            _check_profile(game.actions, profile)
            if len(vec) != n:
                raise ValueError(f"signal {sig!r}, profile {profile}: "
                                 f"need {n} transfers, got {len(vec)}")
        tables[sig] = [x + t for profile, row in zip(game.profiles(), game.rows(sig))
                       for x, t in zip(row, paid.get(profile, zero))]
    return StrategicGame.from_tables(game.actions, tables)


def is_pareto_improving(baseline, induced, tol: float = TOL) -> bool:
    """Weak improvement for everyone, strict (> tol) for at least one."""
    baseline = [float(v) for v in baseline]
    induced = [float(v) for v in induced]
    if len(baseline) != len(induced):
        raise ValueError("payoff vectors must have equal length")
    if any(y < x - tol for x, y in zip(baseline, induced)):
        return False
    return any(y > x + tol for x, y in zip(baseline, induced))


class BudgetSpec:
    __slots__ = ("limit", "delta", "horizon")

    def __init__(self, limit: float, delta: float, horizon: int | None = None):
        self.limit = limit
        self.delta = delta              # discount factor in (0, 1]
        self.horizon = horizon          # None = infinite
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {delta}")
        if horizon is not None and horizon < 1:
            raise ValueError("horizon must be >= 1 when finite")
        if horizon is None and delta == 1.0:
            raise ValueError("delta = 1 with an infinite horizon has no "
                             "finite discounted total")


class BudgetReport(NamedTuple):
    spent: float
    within: bool
    mode: str              # "finite" | "closed-form"


def budget_check(budget: BudgetSpec, game: StrategicGame,
                 schedule: IncentiveSchedule, trajectory,
                 signal=None) -> BudgetReport:
    """Discounted total transfer along a trajectory vs the budget.

    `trajectory` is a sequence of profiles: all of them for a finite horizon,
    discounted from t = 0, or one stationary profile (possibly repeated) for
    the infinite case, where the geometric closed form sum/(1 - delta)
    applies.
    """
    sig = game.resolve_signal(signal)
    profiles = list(map(tuple, trajectory))
    if budget.horizon is None:
        if len(set(profiles)) != 1:
            raise ValueError("infinite-horizon budget check needs a single "
                             "stationary profile")
        per_step = _total(schedule.per_agent(game, profiles[0], sig))
        spent = per_step / (1.0 - budget.delta)
        return BudgetReport(spent, spent <= budget.limit + TOL, "closed-form")
    if len(profiles) != budget.horizon:
        raise ValueError(
            f"trajectory length {len(profiles)} != horizon {budget.horizon}")
    price = {}                                # one transfer total per profile
    spent = 0.0
    for t, profile in enumerate(profiles):
        if profile not in price:
            price[profile] = _total(schedule.per_agent(game, profile, sig))
        spent += (budget.delta ** t) * price[profile]
    return BudgetReport(spent, spent <= budget.limit + TOL, "finite")


class IncentiveDesign(NamedTuple):
    status: str                      # "ok" | "infeasible"
    schedule: IncentiveSchedule | None
    per_period_spend: float | None
    discounted_spend: float | None
    reason: str = ""


def design_incentive(game: StrategicGame, target, baseline, budget: BudgetSpec,
                     signal=None) -> IncentiveDesign:
    """Minimum-total nonnegative transfers on `target` making it worth keeping.

    The transfers minimize sum_i rho_i subject to rho_i >= 0, every
    unilateral deviation from `target` unprofitable under J + rho, and weak
    Pareto improvement over `baseline` payoffs. Each constraint bounds one
    agent's transfer, so the LP separates and is solved in closed form. The
    result is verified (equilibrium, Pareto with a strict winner, budget)
    before being reported; a minimum with no strictly-better-off agent is
    reported infeasible since the strict requirement has no attainable
    minimum.
    """
    sig = game.resolve_signal(signal)
    n = game.n_agents
    target = tuple(target)
    baseline = tuple(baseline)
    base_pay = game.payoff(baseline, sig)
    tgt_pay = game.payoff(target, sig)

    # rho_i is the largest of agent i's right-hand sides (deviation gains,
    # baseline shortfall) and 0; staying at target[i] is a gain of exactly 0
    rho = tuple(max(0.0, base_pay[i] - tgt_pay[i],
                    _max(counterfactual_payoffs(game, i, target, sig)) - tgt_pay[i])
                for i in range(n))
    schedule = IncentiveSchedule.on_profile(game, target, rho, sig)

    modified = modified_payoff(game, schedule)
    # ties are allowed at the optimum, so verify at the shared tolerance;
    # exact zero would trip on the binding constraints' float wobble
    check = is_nash(modified, target, TOL, sig)
    if not check.is_nash:
        raise ComputationError("synthesized transfers fail the equilibrium check")
    induced = [t + r for t, r in zip(tgt_pay, rho)]
    if not is_pareto_improving(base_pay, induced):
        return IncentiveDesign("infeasible", None, None, None,
                               "no strict Pareto improvement at minimal transfers")
    per_period = _total(rho)
    report = budget_check(budget, game, schedule, [target] * (budget.horizon or 1), sig)
    if not report.within:
        return IncentiveDesign("infeasible", None, per_period, report.spent,
                               f"discounted spend {report.spent} exceeds "
                               f"budget {budget.limit}")
    return IncentiveDesign("ok", schedule, per_period, report.spent)
