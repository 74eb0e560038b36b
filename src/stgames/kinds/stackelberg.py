"""The `stackelberg` kind: a leader's signal choice against the followers'
equilibria."""

from __future__ import annotations

import json

from .. import coordination as coordmod
from ..scenario import (RunRecord, Table, _fail, _need_list, _need_map,
                        _need_number, _need_str)
from ._game import _labels, _need_profile, _need_signal, _validate_game


def validate(node, path):
    _need_map(node, path, required=("game", "candidates"),
              optional=("mode", "leader_objective"))
    game_block, game = _validate_game(node["game"], f"{path}.game")
    candidates = [_need_signal(c, f"{path}.candidates[{i}]", game)
                  for i, c in enumerate(_need_list(node["candidates"],
                                                   f"{path}.candidates", 1))]
    block = {"game": game_block, "candidates": candidates,
             "mode": _need_str(node.get("mode", "optimistic"), f"{path}.mode",
                               coordmod.STACKELBERG_MODES)}
    objective = None
    if "leader_objective" in node:
        lo, lpath = node["leader_objective"], f"{path}.leader_objective"
        if isinstance(lo, str):
            block["leader_objective"] = _need_str(lo, lpath, ("welfare",))
        else:
            _need_map(lo, lpath, required=("table",))
            if not isinstance(lo["table"], dict):
                _fail(f"{lpath}.table", "expected signal -> entries")
            table = {}
            for sig, entries in lo["table"].items():
                tpath = f"{lpath}.table.{sig}"
                rows = table[_need_signal(str(sig), tpath, game)] = {}
                for k, entry in enumerate(_need_list(entries, tpath, 1)):
                    epath = f"{tpath}[{k}]"
                    _need_map(entry, epath, required=("profile", "value"))
                    profile = _need_profile(entry["profile"], f"{epath}.profile",
                                            game.actions)
                    if profile in rows:
                        _fail(epath,
                              f"duplicate profile {tuple(_labels(game, profile))}")
                    rows[profile] = _need_number(entry["value"], f"{epath}.value")
            block["leader_objective"] = {"table": {
                sig: {" ".join(_labels(game, p)): v for p, v in rows.items()}
                for sig, rows in table.items()}}

            def objective(g, signal, profile):
                try:
                    return table[signal][profile]
                except KeyError:
                    _fail(f"{lpath}.table.{signal}",
                          f"no value for follower equilibrium {_labels(g, profile)}")

    return block, {"game": game, "candidates": tuple(candidates),
                   "mode": block["mode"], "objective": objective}


def run(cfg, game, candidates, mode, objective):
    report = coordmod.stackelberg_solve(game, candidates, mode=mode,
                                        leader_objective=objective)
    follower = None
    for out in report.outcomes:
        if out.candidate == report.best_candidate and not out.skipped:
            for eq, val in zip(out.equilibria, out.values):
                if val == report.leader_value:
                    follower = _labels(game, eq)
                    break
            break
    outcomes = report.outcomes
    summary = {"mode": mode, "signal": report.best_candidate,
               "leader_value": report.leader_value,
               "follower_profile": follower,
               "skipped_signals": [o.candidate for o in outcomes if o.skipped]}
    data = ([o.candidate for o in outcomes],
            [json.dumps([_labels(game, e) for e in o.equilibria]) for o in outcomes],
            [o.value for o in outcomes], [o.skipped for o in outcomes])
    return RunRecord("stackelberg", cfg.digest, cfg.seed, summary,
                     (Table("candidates",
                            ("signal", "equilibria", "leader_value", "skipped"),
                            data),))
