"""The `ttscale` kind: a slow coordinator choosing signals over fast
learning epochs."""

from __future__ import annotations

import json

from .. import coordination as coordmod
from ..scenario import (RunRecord, Table, _fail, _make, _need_at_most, _need_int,
                        _need_list, _need_map, _need_str, _need_vector)
from ._game import (MAX_LEARN_STEPS, _labels, _need_label, _need_profile,
                    _need_signal, _validate_game, _validate_learners)

# epochs (outer_steps); each costs a digest and a coordinator update on
# top of its learning steps, so the count binds apart from the step cap
MAX_EPOCHS = 10 ** 4


def validate(node, path):
    _need_map(node, path,
              required=("game", "learners", "outer_steps", "epoch_length",
                        "coordinator"),
              optional=("admissible", "incentives", "initial_signal"))
    game_block, game = _validate_game(node["game"], f"{path}.game")
    blocks, specs = _validate_learners(node["learners"], f"{path}.learners", game)
    cpath = f"{path}.coordinator"
    coord = _need_map(node["coordinator"], cpath, required=("kind", "candidates"))
    coordinator = {"kind": _need_str(coord["kind"], f"{cpath}.kind",
                                     coordmod.COORDINATOR_KINDS),
                   "candidates": [_need_signal(c, f"{cpath}.candidates[{i}]", game)
                                  for i, c in enumerate(_need_list(
                                      coord["candidates"], f"{cpath}.candidates", 1))]}
    block = {"game": game_block, "learners": blocks,
             "outer_steps": _need_int(node["outer_steps"], f"{path}.outer_steps", 1),
             "epoch_length": _need_int(node["epoch_length"], f"{path}.epoch_length", 1),
             "coordinator": coordinator}
    # bounds the run time
    _need_at_most(block["outer_steps"], MAX_EPOCHS, f"{path}.outer_steps", "epochs")
    _need_at_most(block["outer_steps"] * block["epoch_length"], MAX_LEARN_STEPS,
                  path, "learning steps (outer_steps x epoch_length)")
    inputs = {"game": game, "specs": specs,
              "coordinator": _make(cpath, coordmod.CoordinatorPolicy,
                                   coordinator["kind"], tuple(coordinator["candidates"])),
              "outer_steps": block["outer_steps"],
              "epoch_length": block["epoch_length"],
              "admissible": None, "incentives": None, "initial_signal": None}
    if "initial_signal" in node:
        block["initial_signal"] = inputs["initial_signal"] = _need_signal(
            node["initial_signal"], f"{path}.initial_signal", game)
    if "admissible" in node:
        if not isinstance(node["admissible"], dict):
            _fail(f"{path}.admissible", "expected a map of signal -> per-agent actions")
        allowed, indices = {}, {}
        for sig, agent_sets in node["admissible"].items():
            apath = f"{path}.admissible.{sig}"
            sig = _need_signal(str(sig), apath, game)
            if len(_need_list(agent_sets, apath)) != game.n_agents:
                _fail(apath, "needs one action list per agent")
            sets = []
            for i, labels in enumerate(agent_sets):
                labels = tuple(_need_label(lab, f"{apath}[{i}][{k}]", game.actions[i])
                               for k, lab in enumerate(_need_list(labels, f"{apath}[{i}]", 1)))
                if len(set(labels)) != len(labels):
                    _fail(f"{apath}[{i}]", "duplicate action labels")
                sets.append(labels)
            allowed[sig] = tuple(sets)
            indices[sig] = tuple(tuple(map(game.actions[i].index, labels))
                                 for i, labels in enumerate(sets))
        block["admissible"] = allowed
        inputs["admissible"] = indices
    if "incentives" in node:
        entries = []
        incentives = {sig: {} for sig in game.signals}
        for i, entry in enumerate(_need_list(node["incentives"], f"{path}.incentives", 1)):
            epath = f"{path}.incentives[{i}]"
            _need_map(entry, epath, required=("profile", "values"), optional=("signal",))
            profile = _need_profile(entry["profile"], f"{epath}.profile", game.actions)
            rec = {"profile": _labels(game, profile),
                   "values": _need_vector(entry["values"], f"{epath}.values", game.n_agents)}
            sig = _need_signal(entry.get("signal"), f"{epath}.signal", game)
            paid = incentives[sig]
            if profile in paid:
                _fail(epath, f"duplicate profile {tuple(rec['profile'])}")
            if "signal" in entry:
                rec["signal"] = sig
            entries.append(rec)
            # each profile is paid once, 0.0 + value: the bits of a value
            # added to a zero table, down to the sign of zero
            paid[profile] = tuple(0.0 + v for v in rec["values"])
        block["incentives"] = entries
        inputs["incentives"] = incentives
    return block, inputs


def run(cfg, game, specs, coordinator, outer_steps, epoch_length,
        admissible, incentives, initial_signal):
    result = coordmod.run_two_timescale(
        game, specs, coordinator, outer_steps=outer_steps,
        epoch_length=epoch_length, seed=cfg.seed,
        admissible=admissible, incentives=incentives,
        initial_signal=initial_signal)
    epochs = result.epochs
    signals = [e.signal for e in epochs]
    summary = {"outer_steps": outer_steps,
               "epoch_length": epoch_length,
               "final_signal": signals[-1],
               "signal_sequence": signals,
               "final_welfare": epochs[-1].mean_welfare}
    data = (range(len(epochs)), signals, [e.mean_welfare for e in epochs],
            [json.dumps(e.frequencies) for e in epochs])
    tables = [Table("epochs", ("epoch", "signal", "mean_welfare",
                               "action_frequencies"), data)]
    return RunRecord("ttscale", cfg.digest, cfg.seed, summary, tuple(tables))
