"""The `learn` kind: learning dynamics on a strategic game, with regret
and equilibrium-gap diagnostics."""

from __future__ import annotations

from .. import learning as learnmod
from ..scenario import (RunRecord, Table, _need_at_most, _need_int, _need_list,
                        _need_map)
from ._game import (MAX_LEARN_STEPS, _labels, _need_signal, _validate_game,
                    _validate_learners)


def validate(node, path):
    _need_map(node, path, required=("game", "horizon", "learners"),
              optional=("signal_schedule", "gap_stride"))
    horizon = _need_int(node["horizon"], f"{path}.horizon", 1)
    # bounds the run time
    _need_at_most(horizon, MAX_LEARN_STEPS, f"{path}.horizon", "learning steps")
    game_block, game = _validate_game(node["game"], f"{path}.game")
    blocks, specs = _validate_learners(node["learners"], f"{path}.learners", game)
    block = {"game": game_block, "horizon": horizon, "learners": blocks}
    schedule = None
    if "signal_schedule" in node:
        sched, spath = node["signal_schedule"], f"{path}.signal_schedule"
        if isinstance(sched, dict):
            _need_map(sched, spath, required=("constant",))
            signal = _need_signal(sched["constant"], f"{spath}.constant", game)
            block["signal_schedule"] = {"constant": signal}
            schedule = lambda t: signal
        else:
            seq = [_need_signal(s, f"{spath}[{i}]", game)
                   for i, s in enumerate(_need_list(sched, spath, 1))]
            block["signal_schedule"] = seq
            schedule = lambda t: seq[(t - 1) % len(seq)]
    else:                            # only a one-signal game runs without one
        _need_signal(None, f"{path}.signal_schedule", game)
    if "gap_stride" in node:
        block["gap_stride"] = _need_int(node["gap_stride"], f"{path}.gap_stride", 1)
    return block, {"game": game, "specs": specs, "horizon": horizon,
                   "schedule": schedule, "gap_stride": block.get("gap_stride", 1)}


def run(cfg, game, specs, horizon, schedule, gap_stride):
    trace = learnmod.run_dynamics(game, specs, horizon, seed=cfg.seed,
                                  signal_schedule=schedule)
    diag = learnmod.diagnostics(game, trace, gap_stride=gap_stride)
    summary = {"horizon": horizon,
               "final_profile": _labels(game, trace.actions[-1].tolist()),
               "external_regret": diag.external_regret.tolist(),
               "max_regret": float(diag.external_regret.max()),
               "final_gap": float(diag.gap_series[-1])}
    n = game.n_agents
    labels = [[names[a] for a in trace.actions[:, i].tolist()]
              for i, names in enumerate(game.actions)]
    cols = ("step", "signal") + tuple(f"action_{i}" for i in range(n)) \
        + tuple(f"payoff_{i}" for i in range(n))
    tables = [Table("trace", cols, (range(1, horizon + 1), trace.signals, *labels,
                                    *trace.payoffs.T.tolist())),
              Table("gap", ("step", "gap"),
                    (diag.gap_times, diag.gap_series.tolist()))]
    return RunRecord("learn", cfg.digest, cfg.seed, summary, tuple(tables))
