"""The `incentive` kind: minimal transfers that make a target profile an
equilibrium within a budget."""

from __future__ import annotations

from .. import incentives as incmod
from ..scenario import (RunRecord, Table, _make, _need_at_most, _need_int,
                        _need_map, _need_number)
from ._game import _labels, _need_profile, _need_signal, _validate_game


# steps of a finite budget horizon; the budget sums a discounted series
# over them
MAX_BUDGET_HORIZON = 10 ** 6


def validate(node, path):
    _need_map(node, path, required=("game", "target", "baseline", "budget"),
              optional=("signal",))
    game_block, game = _validate_game(node["game"], f"{path}.game")
    budget = _need_map(node["budget"], f"{path}.budget",
                       required=("limit", "delta"), optional=("horizon",))
    horizon = budget.get("horizon", "infinite")
    if horizon != "infinite":
        horizon = _need_int(horizon, f"{path}.budget.horizon", 1)
        _need_at_most(horizon, MAX_BUDGET_HORIZON, f"{path}.budget.horizon", "steps")
    target = _need_profile(node["target"], f"{path}.target", game.actions)
    baseline = _need_profile(node["baseline"], f"{path}.baseline", game.actions)
    block = {"game": game_block,
             "target": _labels(game, target), "baseline": _labels(game, baseline),
             "budget": {"limit": _need_number(budget["limit"], f"{path}.budget.limit"),
                        "delta": _need_number(budget["delta"], f"{path}.budget.delta"),
                        "horizon": horizon}}
    signal = _need_signal(node.get("signal"), f"{path}.signal", game)
    if "signal" in node:
        block["signal"] = signal
    return block, {"game": game,
                   "target": target, "baseline": baseline,
                   "signal": signal,
                   "budget": _make(f"{path}.budget", incmod.BudgetSpec,
                                   block["budget"]["limit"], block["budget"]["delta"],
                                   None if horizon == "infinite" else horizon)}


def run(cfg, game, target, baseline, budget, signal):
    design = incmod.design_incentive(game, target, baseline=baseline,
                                     budget=budget, signal=signal)
    summary = {"status": design.status,
               "target": _labels(game, target), "baseline": _labels(game, baseline)}
    tables = []
    if design.status == "ok":
        payments = design.payments
        summary["payments"] = list(payments)
        summary["per_period_spend"] = design.per_period_spend
        summary["discounted_spend"] = design.discounted_spend
        tables.append(Table("payments", ("agent", "payment"),
                            (range(game.n_agents), payments)))
    else:
        summary["reason"] = design.reason
    return RunRecord("incentive", cfg.digest, cfg.seed, summary, tuple(tables))
