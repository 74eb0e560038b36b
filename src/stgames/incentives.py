"""Payoff modification, budgets, Pareto checks and transfer synthesis.

Transfers are plain data, stationary in time: `{signal: {profile: per-agent
transfers}}`, profiles as action indices. A design pays at its target
profile only, so its budget is one discounted series of the per-step total.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ComputationError
from .strategic import (StrategicGame, _check_profile, _max, _total,
                        counterfactual_payoffs, is_nash)

TOL = 1e-9


def modified_payoff(game: StrategicGame, transfers: dict) -> StrategicGame:
    """The game with payoffs J + rho; the input game is untouched.

    `transfers` maps every signal of the game to `{profile (action indices):
    per-agent transfer tuple}`; a profile left out pays nothing. Every
    payoff gets a transfer added, 0.0 at a profile that pays none, as when
    the transfers were a whole table (so a -0.0 payoff there becomes 0.0)."""
    n = game.n_agents
    zero = (0.0,) * n
    tables = {}
    for sig in game.signals:
        if sig not in transfers:
            raise ValueError(f"transfers missing signal {sig!r}")
        paid = transfers[sig]
        for profile, vec in paid.items():
            _check_profile(game.actions, profile)
            if len(vec) != n:
                raise ValueError(f"signal {sig!r}, profile {profile}: "
                                 f"need {n} transfers, got {len(vec)}")
        tables[sig] = [x + t for profile, row in zip(game.profiles(), game.rows(sig))
                       for x, t in zip(row, paid.get(profile, zero))]
    return StrategicGame.from_tables(game.actions, tables)


def is_pareto_improving(baseline, induced) -> bool:
    """Weak improvement for everyone, strict (> TOL) for at least one."""
    baseline = [float(v) for v in baseline]
    induced = [float(v) for v in induced]
    if len(baseline) != len(induced):
        raise ValueError("payoff vectors must have equal length")
    if any(y < x - TOL for x, y in zip(baseline, induced)):
        return False
    return any(y > x + TOL for x, y in zip(baseline, induced))


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


def discounted_spend(budget: BudgetSpec, per_step: float) -> float:
    """The discounted total of paying `per_step` at every step from t = 0:
    the closed form per_step / (1 - delta) over an infinite horizon, the
    series summed step by step over a finite one."""
    if budget.horizon is None:
        return per_step / (1.0 - budget.delta)
    spent = 0.0
    for t in range(budget.horizon):
        spent += (budget.delta ** t) * per_step
    return spent


class IncentiveDesign(NamedTuple):
    status: str                      # "ok" | "infeasible"
    payments: tuple | None           # per-agent transfers at the target
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

    modified = modified_payoff(game, {s: {target: rho} if s == sig else {}
                                      for s in game.signals})
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
    spent = discounted_spend(budget, per_period)
    if not spent <= budget.limit + TOL:
        return IncentiveDesign("infeasible", None, per_period, spent,
                               f"discounted spend {spent} exceeds "
                               f"budget {budget.limit}")
    return IncentiveDesign("ok", rho, per_period, spent)
