"""The game and learner sub-schema the five game kinds share.

A `game` block names each agent's action labels and one payoff table per
signal; `learners` gives one learner spec per agent. Labels appear only
here and in the runners' output: the library gets profiles as tuples of
action indices, and each payoff table as one flat list in profile order,
the layout `StrategicGame.from_tables` takes.
"""

from __future__ import annotations

import itertools
import math

from .. import learning as learnmod
from .. import strategic as stratmod
from ..scenario import (_fail, _make, _need_list, _need_map, _need_number,
                        _need_str, _need_vector)


# learning steps one `learn` horizon, or one `ttscale` run over all its
# epochs, may take
MAX_LEARN_STEPS = 10 ** 6


def _need_label(node, path, labels):
    """One of an agent's action `labels`, as a string."""
    if str(node) not in labels:
        _fail(path, f"unknown action {node!r} (valid: {list(labels)})")
    return str(node)


def _need_profile(node, path, actions):
    """One action label per agent, as the tuple of their action indices."""
    if len(_need_list(node, path)) != len(actions):
        _fail(path, f"needs {len(actions)} actions")
    return tuple(labels.index(_need_label(lab, f"{path}[{i}]", labels))
                 for i, (labels, lab) in enumerate(zip(actions, node)))


def _need_signal(node, path, game):
    """A signal with a payoff table in `game`; None (the key left out)
    stands for the only signal of a one-signal game."""
    if node is not None:
        _need_str(node, path)
    return _make(path, game.resolve_signal, node)


def _validate_profile_entries(entries, actions, path, payoffs_path):
    """One signal's checked table, {action indices: payoffs}; the caps come
    before completeness, so an over-cap game exits 3 whatever it holds."""
    table = {}
    for e_idx, entry in enumerate(_need_list(entries, path, min_len=1)):
        epath = f"{path}[{e_idx}]"
        _need_map(entry, epath, required=("profile", "values"))
        profile = _need_profile(entry["profile"], f"{epath}.profile", actions)
        values = _need_vector(entry["values"], f"{epath}.values", len(actions))
        if profile in table:
            _fail(epath, f"duplicate profile {tuple(map(str, entry['profile']))}")
        table[profile] = values
    full = math.prod(len(a) for a in actions)
    if len(table) != full:
        _make(payoffs_path, stratmod._table_shape, actions)
        _fail(path, f"{len(table)} of {full} profiles specified")
    return table


def _validate_game(node, path):
    _need_map(node, path, required=("actions", "payoffs"))
    actions = []
    for i, labels in enumerate(_need_list(node["actions"], f"{path}.actions", 2)):
        labels = tuple(str(x) for x in _need_list(labels, f"{path}.actions[{i}]", 1))
        for j, label in enumerate(labels):
            # the normalized document keys a profile by its labels joined
            # with spaces, which must not collide
            if " " in label:
                _fail(f"{path}.actions[{i}][{j}]", "action labels cannot contain spaces")
        if len(set(labels)) != len(labels):
            _fail(f"{path}.actions[{i}]", "duplicate action labels")
        actions.append(labels)
    ppath, payoffs = f"{path}.payoffs", node["payoffs"]
    if isinstance(payoffs, list):
        # the entries are checked before the signal name is read, so a
        # table rejected on its entries never executes `strategic`
        table = _validate_profile_entries(payoffs, actions, ppath, ppath)
        tables = {stratmod.DEFAULT_SIGNAL: table}
    elif isinstance(payoffs, dict):
        tables = {str(sig): _validate_profile_entries(
            entries, actions, f"{ppath}.{sig}", ppath)
            for sig, entries in payoffs.items()}
    else:
        _fail(ppath, "expected a list or a map of signal -> list")
    game = _make(ppath, stratmod.StrategicGame.from_tables, actions, {
        sig: [v for p in itertools.product(*map(range, map(len, actions)))
              for v in table[p]]
        for sig, table in tables.items()})
    block = {"actions": [list(a) for a in actions],
             "payoffs": {sig: {" ".join(_labels(game, p)): v for p, v in table.items()}
                         for sig, table in tables.items()}}
    return block, game


def _validate_learner(node, path, n_actions):
    _need_map(node, path, required=("kind",),
              optional=("payoff_rate", "policy_rate", "temperature",
                        "initial_policy", "initial_estimate"))
    block = {"kind": _need_str(node["kind"], f"{path}.kind", learnmod.KINDS)}
    spec = dict(block)
    for key in ("payoff_rate", "policy_rate"):
        if key in node:
            r = _need_map(node[key], f"{path}.{key}", required=("schedule",),
                          optional=("value",))
            block[key] = {"schedule": _need_str(r["schedule"], f"{path}.{key}.schedule",
                                                learnmod.SCHEDULES),
                          "value": _need_number(r.get("value", 1.0),
                                                f"{path}.{key}.value", 0.0, 1.0)}
            spec[key] = learnmod.RateSchedule(block[key]["schedule"],
                                              block[key]["value"])
    if "temperature" in node:
        block["temperature"] = spec["temperature"] = _need_number(
            node["temperature"], f"{path}.temperature")
    for key in ("initial_policy", "initial_estimate"):
        if key in node:
            block[key] = _need_vector(node[key], f"{path}.{key}", n_actions)
            spec[key] = tuple(block[key])
    return block, _make(path, learnmod.LearnerSpec, **spec)


def _validate_learners(node, path, game):
    """One learner spec per agent: (normalized blocks, LearnerSpecs)."""
    learners = _need_list(node, path, 1)
    if len(learners) != game.n_agents:
        _fail(path, f"needs one spec per agent ({game.n_agents})")
    return zip(*(_validate_learner(spec, f"{path}[{i}]", len(game.actions[i]))
                 for i, spec in enumerate(learners)))


def _labels(game, profile):
    """A profile of action indices as the list of its action labels."""
    return [labels[a] for labels, a in zip(game.actions, profile)]
