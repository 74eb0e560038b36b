"""The `nash` kind: pure equilibria, welfare and the price of anarchy."""

from __future__ import annotations

from .. import strategic as stratmod
from ..scenario import RunRecord, Table, _need_map, _need_number
from ._game import _labels, _need_signal, _validate_game


def validate(node, path):
    _need_map(node, path, required=("game",), optional=("signal", "eps"))
    game_block, game = _validate_game(node["game"], f"{path}.game")
    block = {"game": game_block}
    signal = _need_signal(node.get("signal"), f"{path}.signal", game)
    if "signal" in node:
        block["signal"] = signal
    if "eps" in node:
        block["eps"] = _need_number(node["eps"], f"{path}.eps", 0.0)
    return block, {"game": game, "signal": signal, "eps": block.get("eps", 0.0)}


def run(cfg, game, signal, eps):
    exact = stratmod.enumerate_pure_nash(game, signal=signal)
    equilibria = stratmod.enumerate_pure_nash(game, signal=signal, eps=eps) \
        if eps > 0 else exact
    welfare = stratmod.welfare_and_poa(game, exact, signal=signal)
    summary = {"signal": signal, "eps": eps,
               "equilibria": [_labels(game, e) for e in equilibria],
               "welfare_optimum": welfare.optimal_welfare,
               "optimal_profile": _labels(game, welfare.optimal_profile),
               "poa_defined": welfare.defined}
    if welfare.defined:
        summary["poa"] = welfare.ratio
        summary["worst_equilibrium_welfare"] = welfare.worst_equilibrium_welfare
    else:
        summary["poa_reason"] = welfare.reason
    eq_set = set(equilibria)
    n = game.n_agents
    labels = [[names[p[i]] for p in game.profiles()]
              for i, names in enumerate(game.actions)]
    data = (*labels, *game.payoff_columns(signal),
            [p in eq_set for p in game.profiles()])
    cols = tuple(f"action_{i}" for i in range(n)) + \
        tuple(f"payoff_{i}" for i in range(n)) + ("is_nash",)
    return RunRecord("nash", cfg.digest, cfg.seed, summary,
                     (Table("profiles", cols, data),))
