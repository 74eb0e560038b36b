"""Config-driven scenario running and export.

Configs are YAML documents with a `kind` key, an optional `seed`, and a
payload block named after the kind. Validation is strict: unknown keys are
rejected with their full path, types are checked, and size caps raise
capacity errors before any computation starts. Each kind's validator builds
the library objects its runner needs while it walks the document, so a
constructor's complaint is reported at the field that caused it. Runs
produce a RunRecord: summary metrics plus named tables of columns, all of
plain Python values (never numpy scalars). `write_outputs`, the one
serializer, streams CSV, where floats carry 17 significant digits, or JSON
lines, where they carry the shortest repr that reads back to the same
double; either way a parse-back is lossless. The record embeds a digest of
the canonicalized config.

The library modules are bound here as modules and their names read at call
time (`stratmod.StrategicGame`), so importing this module executes none of
them: a run executes only the modules its kind calls (see `_np.lazy`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
import warnings
from typing import NamedTuple

import yaml

from . import congestion as netmod
from . import coop as coopmod
from . import coordination as coordmod
from . import incentives as incmod
from . import learning as learnmod
from . import matching as matchmod
from . import resilience as resmod
from . import strategic as stratmod
from ._np import np
from .errors import CapacityError, SchemaError


# learning steps one `learn` horizon, or one `ttscale` run over all its
# epochs, may take
MAX_LEARN_STEPS = 10 ** 6
# agents one `resilience` run may hold, drawn or listed
MAX_CONSENSUS_AGENTS = 64


# --- strict-schema helpers ----------------------------------------------------

def _fail(path, message):
    raise SchemaError(message, path)


def _make(path, build, *args, **kwargs):
    """`build(*args, **kwargs)`, with a ValueError reported at `path`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _need_map(node, path, required=(), optional=()):
    if not isinstance(node, dict):
        _fail(path, f"expected a map, got {type(node).__name__}")
    allowed = set(required) | set(optional)
    for key in node:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else str(key),
                  f"unknown key (allowed: {sorted(allowed)})")
    for key in required:
        if key not in node:
            _fail(path, f"missing required key {key!r}")
    return node


def _need_list(node, path, min_len=0):
    if not isinstance(node, list):
        _fail(path, f"expected a list, got {type(node).__name__}")
    if len(node) < min_len:
        _fail(path, f"expected at least {min_len} entries, got {len(node)}")
    return node


def _need_number(node, path, lo=None, hi=None):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, f"expected a number, got {node!r}")
    try:
        v = float(node)
    except OverflowError:            # an integer beyond the double range
        v = math.inf
    if not math.isfinite(v):
        _fail(path, f"expected a finite number, got {v}")
    if lo is not None and v < lo:
        _fail(path, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(path, f"must be <= {hi}, got {v}")
    return v


def _need_vector(node, path, length, lo=None):
    """A list of exactly `length` numbers, as floats."""
    if len(_need_list(node, path)) != length:
        _fail(path, f"needs {length} entries")
    return [_need_number(v, f"{path}[{i}]", lo) for i, v in enumerate(node)]


def _need_int(node, path, lo=None, hi=None):
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(path, f"expected an integer, got {node!r}")
    if lo is not None and node < lo:
        _fail(path, f"must be >= {lo}, got {node}")
    if hi is not None and node > hi:
        _fail(path, f"must be <= {hi}, got {node}")
    return node


def _need_str(node, path, choices=None):
    if not isinstance(node, str):
        _fail(path, f"expected a string, got {node!r}")
    if choices is not None and node not in choices:
        _fail(path, f"must be one of {sorted(choices)}, got {node!r}")
    return node


def _need_bool(node, path):
    if not isinstance(node, bool):
        _fail(path, f"expected true/false, got {node!r}")
    return node


def _need_label(node, path, labels):
    """One of an agent's action `labels`, as a string."""
    if str(node) not in labels:
        _fail(path, f"unknown action {node!r} (valid: {list(labels)})")
    return str(node)


def _need_profile(node, path, actions):
    """One action label per agent, as a tuple of strings."""
    if len(_need_list(node, path)) != len(actions):
        _fail(path, f"needs {len(actions)} actions")
    return tuple(_need_label(lab, f"{path}[{i}]", actions[i])
                 for i, lab in enumerate(node))


def _need_signal(node, path, game):
    """A signal with a payoff table in `game`; None (the key left out)
    stands for the only signal of a one-signal game."""
    if node is not None:
        _need_str(node, path)
    return _make(path, game.resolve_signal, node)


# --- parsed scenario ------------------------------------------------------------

class ScenarioConfig(NamedTuple):
    kind: str
    seed: int | None
    payload: dict           # the runner's inputs, built from the document
    canonical: str          # canonical JSON of the whole normalized document
    digest: str


# libyaml's parser where PyYAML was built with it. Both loaders share the
# resolver and SafeConstructor, so they build equal documents; only the
# wording of syntax errors differs.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_scenario(text: str, seed_override=None) -> ScenarioConfig:
    """Parse + validate a YAML scenario document (strict keys, typed values)."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise SchemaError(f"syntax error{where}: {exc}") from exc
    if not isinstance(doc, dict):
        _fail("", "document must be a map")
    kind = _need_str(doc.get("kind"), "kind", KINDS)
    _need_map(doc, "", required=("kind", kind), optional=("seed", "name"))
    seed = None
    for given in (doc.get("seed"), seed_override):      # the override wins
        if given is not None:
            seed = _need_int(given, "seed", lo=0, hi=2 ** 64 - 1)
    if "name" in doc:
        _need_str(doc["name"], "name")
    block, payload = REGISTRY[kind].validate(doc[kind], kind)
    normalized = {"kind": kind, "seed": seed, kind: block}
    if "name" in doc:
        normalized["name"] = doc["name"]
    canonical = json.dumps(normalized, sort_keys=True, separators=(",", ":"),
                           allow_nan=False)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if REGISTRY[kind].stochastic and seed is None:
        raise SchemaError(f"kind {kind!r} is stochastic and needs a seed", "seed")
    return ScenarioConfig(kind, seed, payload, canonical, digest)


# --- game sub-schema ------------------------------------------------------------
#
# Each validator returns the normalized block, whose canonical JSON feeds the
# digest, and the runner's keyword inputs.

def _validate_profile_entries(entries, actions, path):
    full = math.prod(len(a) for a in actions)
    table = {}
    for e_idx, entry in enumerate(_need_list(entries, path, min_len=1)):
        epath = f"{path}[{e_idx}]"
        _need_map(entry, epath, required=("profile", "values"))
        profile = _need_profile(entry["profile"], f"{epath}.profile", actions)
        values = _need_vector(entry["values"], f"{epath}.values", len(actions))
        if profile in table:
            _fail(epath, f"duplicate profile {profile}")
        table[profile] = values
    if len(table) != full:
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
    payoffs = node["payoffs"]
    if isinstance(payoffs, list):
        tables = {stratmod.DEFAULT_SIGNAL: _validate_profile_entries(
            payoffs, actions, f"{path}.payoffs")}
    elif isinstance(payoffs, dict):
        tables = {str(sig): _validate_profile_entries(
            entries, actions, f"{path}.payoffs.{sig}")
            for sig, entries in payoffs.items()}
    else:
        _fail(f"{path}.payoffs", "expected a list or a map of signal -> list")
    block = {"actions": [list(a) for a in actions],
             "payoffs": {sig: {" ".join(k): v for k, v in table.items()}
                         for sig, table in tables.items()}}
    return block, _make(f"{path}.payoffs", stratmod.StrategicGame.from_tables,
                        actions, tables)


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


# --- per-kind validators ---------------------------------------------------------

def _v_coop(node, path):
    _need_map(node, path, required=("agents", "values"), optional=("compute",))
    n = _need_int(node["agents"], f"{path}.agents", 1, coopmod.MAX_AGENTS)
    values = {}
    for i, entry in enumerate(_need_list(node["values"], f"{path}.values", 1)):
        epath = f"{path}.values[{i}]"
        _need_map(entry, epath, required=("coalition", "value"))
        coalition = _need_list(entry["coalition"], f"{epath}.coalition", 1)
        mask = 0
        for k, agent in enumerate(coalition):
            a = _need_int(agent, f"{epath}.coalition[{k}]", 0, n - 1)
            if mask >> a & 1:
                _fail(f"{epath}.coalition", f"agent {a} repeated")
            mask |= 1 << a
        if mask in values:
            _fail(epath, f"coalition {sorted(coalition)} specified twice")
        values[mask] = _need_number(entry["value"], f"{epath}.value")
    missing = (1 << n) - 1 - len(values)
    if missing:
        warnings.warn(f"{missing} coalition values missing; defaulting to 0")
    steps = ("superadditive", "surplus", "shapley", "core", "nucleolus", "convex")
    compute = list(steps)
    if "compute" in node:
        compute = [_need_str(s, f"{path}.compute[{i}]", steps)
                   for i, s in enumerate(_need_list(node["compute"], f"{path}.compute", 1))]
    block = {"agents": n, "values": {str(m): v for m, v in values.items()},
             "compute": compute}
    return block, {"game": coopmod.CoalitionGame.from_dict(n, values),
                   "compute": compute}


def _v_match(node, path):
    _need_map(node, path, required=("left", "right"),
              optional=("proposing", "enumerate"))
    n = None
    block = {}
    for side in ("left", "right"):
        prefs = _need_list(node[side], f"{path}.{side}", 1)
        if n is None:
            n = len(prefs)
            if n > matchmod.MAX_SIDE:
                raise CapacityError(f"side size {n} exceeds {matchmod.MAX_SIDE}")
        if len(prefs) != n:
            _fail(f"{path}.{side}", f"both sides need {n} agents")
        rows = []
        for i, ranking in enumerate(prefs):
            ranking = _need_list(ranking, f"{path}.{side}[{i}]")
            row = [_need_int(v, f"{path}.{side}[{i}][{k}]", 0, n - 1)
                   for k, v in enumerate(ranking)]
            if sorted(row) != list(range(n)):
                _fail(f"{path}.{side}[{i}]", f"must be a permutation of 0..{n - 1}")
            rows.append(row)
        block[side] = rows
    block["proposing"] = _need_str(node.get("proposing", "left"),
                                   f"{path}.proposing", ("left", "right"))
    block["enumerate"] = _need_bool(node.get("enumerate", False), f"{path}.enumerate")
    return block, {"market": matchmod.MatchingMarket.of(block["left"], block["right"]),
                   "proposing": block["proposing"], "stable_set": block["enumerate"]}


def _v_nash(node, path):
    _need_map(node, path, required=("game",), optional=("signal", "eps"))
    game_block, game = _validate_game(node["game"], f"{path}.game")
    block = {"game": game_block}
    signal = _need_signal(node.get("signal"), f"{path}.signal", game)
    if "signal" in node:
        block["signal"] = signal
    if "eps" in node:
        block["eps"] = _need_number(node["eps"], f"{path}.eps", 0.0)
    return block, {"game": game, "signal": signal, "eps": block.get("eps", 0.0)}


def _v_learn(node, path):
    _need_map(node, path, required=("game", "horizon", "learners"),
              optional=("signal_schedule", "gap_stride"))
    horizon = _need_int(node["horizon"], f"{path}.horizon", 1, MAX_LEARN_STEPS)
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


def _v_ttscale(node, path):
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
             "outer_steps": _need_int(node["outer_steps"], f"{path}.outer_steps", 1, 10 ** 4),
             "epoch_length": _need_int(node["epoch_length"], f"{path}.epoch_length", 1, 10 ** 6),
             "coordinator": coordinator}
    steps = block["outer_steps"] * block["epoch_length"]
    if steps > MAX_LEARN_STEPS:                # bounds the run time
        raise CapacityError(f"{path}: {steps} learning steps (outer_steps x "
                            f"epoch_length) exceed {MAX_LEARN_STEPS}")
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
        for sig, per_agent in node["admissible"].items():
            apath = f"{path}.admissible.{sig}"
            sig = _need_signal(str(sig), apath, game)
            if len(_need_list(per_agent, apath)) != game.n_agents:
                _fail(apath, "needs one action list per agent")
            sets = []
            for i, labels in enumerate(per_agent):
                labels = tuple(_need_label(lab, f"{apath}[{i}][{k}]", game.actions[i])
                               for k, lab in enumerate(_need_list(labels, f"{apath}[{i}]", 1)))
                if len(set(labels)) != len(labels):
                    _fail(f"{apath}[{i}]", "duplicate action labels")
                sets.append(labels)
            allowed[sig] = tuple(sets)
            indices[sig] = tuple(tuple(map(game.actions[i].index, labels))
                                 for i, labels in enumerate(sets))
        block["admissible"] = allowed
        inputs["admissible"] = coordmod.AdmissibleSetRule(indices)
    if "incentives" in node:
        entries, seen = [], set()
        incentives = incmod.IncentiveSchedule.zero(game)
        for i, entry in enumerate(_need_list(node["incentives"], f"{path}.incentives", 1)):
            epath = f"{path}.incentives[{i}]"
            _need_map(entry, epath, required=("profile", "values"), optional=("signal",))
            rec = {"profile": _need_profile(entry["profile"], f"{epath}.profile", game.actions),
                   "values": _need_vector(entry["values"], f"{epath}.values", game.n_agents)}
            sig = _need_signal(entry.get("signal"), f"{epath}.signal", game)
            if (sig, rec["profile"]) in seen:
                _fail(epath, f"duplicate profile {rec['profile']}")
            seen.add((sig, rec["profile"]))
            if "signal" in entry:
                rec["signal"] = sig
            entries.append(rec)
            # each profile is paid once, 0.0 + value: the bits of a value
            # added to a zero table, down to the sign of zero
            incentives.transfers[sig][stratmod.profile_index(
                game.actions, rec["profile"])] = tuple(0.0 + v for v in rec["values"])
        block["incentives"] = entries
        inputs["incentives"] = incentives
    return block, inputs


def _v_stackelberg(node, path):
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
                    key = stratmod.profile_index(game.actions, profile)
                    if key in rows:
                        _fail(epath, f"duplicate profile {profile}")
                    rows[key] = _need_number(entry["value"], f"{epath}.value")
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


def _v_wardrop(node, path):
    _need_map(node, path, required=("edges", "origin", "destination", "demand"),
              optional=("extra_edge", "tolls"))

    def edge(e, epath):
        _need_map(e, epath, required=("tail", "head", "a", "b"))
        return {"tail": _need_str(e["tail"], f"{epath}.tail"),
                "head": _need_str(e["head"], f"{epath}.head"),
                "a": _need_number(e["a"], f"{epath}.a", 0.0),
                "b": _need_number(e["b"], f"{epath}.b", 0.0)}

    block = {"edges": [edge(e, f"{path}.edges[{i}]")
                       for i, e in enumerate(_need_list(node["edges"], f"{path}.edges", 1))],
             "origin": _need_str(node["origin"], f"{path}.origin"),
             "destination": _need_str(node["destination"], f"{path}.destination"),
             "demand": _need_number(node["demand"], f"{path}.demand")}
    if block["demand"] <= 0:
        _fail(f"{path}.demand", "must be positive")
    network = _make(path, netmod.CongestionNetwork,
                    tuple(netmod.Edge(**e) for e in block["edges"]),
                    block["origin"], block["destination"], block["demand"])
    inputs = {"network": network, "augmented": None, "tolls": False,
              "paths": _make(path, netmod.enumerate_paths, network)}  # none, or too many
    if "extra_edge" in node:
        block["extra_edge"] = edge(node["extra_edge"], f"{path}.extra_edge")
        augmented = network.with_edge(netmod.Edge(**block["extra_edge"]))
        inputs["augmented"] = (augmented, netmod.enumerate_paths(augmented))  # too many
    if "tolls" in node:
        block["tolls"] = inputs["tolls"] = _need_bool(node["tolls"], f"{path}.tolls")
    return block, inputs


def _v_incentive(node, path):
    _need_map(node, path, required=("game", "target", "baseline", "budget"),
              optional=("signal",))
    game_block, game = _validate_game(node["game"], f"{path}.game")
    budget = _need_map(node["budget"], f"{path}.budget",
                       required=("limit", "delta"), optional=("horizon",))
    horizon = budget.get("horizon", "infinite")
    if horizon != "infinite":
        horizon = _need_int(horizon, f"{path}.budget.horizon", 1, 10 ** 6)
    block = {"game": game_block,
             "target": _need_profile(node["target"], f"{path}.target", game.actions),
             "baseline": _need_profile(node["baseline"], f"{path}.baseline", game.actions),
             "budget": {"limit": _need_number(budget["limit"], f"{path}.budget.limit"),
                        "delta": _need_number(budget["delta"], f"{path}.budget.delta"),
                        "horizon": horizon}}
    signal = _need_signal(node.get("signal"), f"{path}.signal", game)
    if "signal" in node:
        block["signal"] = signal
    return block, {"game": game,
                   "target": stratmod.profile_index(game.actions, block["target"]),
                   "baseline": stratmod.profile_index(game.actions, block["baseline"]),
                   "signal": signal,
                   "budget": _make(f"{path}.budget", incmod.BudgetSpec,
                                   block["budget"]["limit"], block["budget"]["delta"],
                                   None if horizon == "infinite" else horizon)}


def _v_resilience(node, path):
    _need_map(node, path, required=("initial_values", "horizon", "defense"),
              optional=("adversary", "trust", "base"))
    if "base" in node:
        _need_str(node["base"], f"{path}.base", ("consensus",))
    iv = node["initial_values"]
    if isinstance(iv, dict):
        _need_map(iv, f"{path}.initial_values", required=("random",))
        rpath = f"{path}.initial_values.random"
        r = _need_map(iv["random"], rpath, required=("n",), optional=("low", "high"))
        n = _need_int(r["n"], f"{rpath}.n", 2, MAX_CONSENSUS_AGENTS)
        low = _need_number(r.get("low", 0.0), f"{rpath}.low")
        high = _need_number(r.get("high", 1.0), f"{rpath}.high")
        if low >= high:
            _fail(rpath, "low must be < high")
        values = {"random": {"n": n, "low": low, "high": high}}

        def initial(seed):
            return np.random.default_rng([seed, 0x1F]).uniform(low, high, size=n)
    else:
        if len(_need_list(iv, f"{path}.initial_values", 2)) > MAX_CONSENSUS_AGENTS:
            _fail(f"{path}.initial_values", f"at most {MAX_CONSENSUS_AGENTS} values")
        values = [_need_number(v, f"{path}.initial_values[{i}]") for i, v in enumerate(iv)]
        n = len(values)

        def initial(seed):
            return values
    block = {"initial_values": values,
             "horizon": _need_int(node["horizon"], f"{path}.horizon", 1, 10 ** 5)}
    defense = _need_map(node["defense"], f"{path}.defense", optional=("trim", "trust_eta"))
    block["defense"] = {"trim": _need_int(defense.get("trim", 0), f"{path}.defense.trim", 0)}
    if "trust_eta" in defense:
        block["defense"]["trust_eta"] = _need_number(defense["trust_eta"],
                                                     f"{path}.defense.trust_eta", 0.0)
    inputs = {"initial": initial, "horizon": block["horizon"], "adversary": None,
              "defense": resmod.DefenseSpec(block["defense"]["trim"],
                                            block["defense"].get("trust_eta"))}
    if "adversary" in node:
        apath = f"{path}.adversary"
        adv = _need_map(node["adversary"], apath, required=("agents", "kind"),
                        optional=("value", "lag", "drop_prob", "window"))
        rec = {"agents": [_need_int(a, f"{apath}.agents[{i}]", 0, n - 1)
                          for i, a in enumerate(_need_list(adv["agents"], f"{apath}.agents", 1))],
               "kind": _need_str(adv["kind"], f"{apath}.kind", resmod.KINDS)}
        if "value" in adv:
            rec["value"] = _need_number(adv["value"], f"{apath}.value")
        if "lag" in adv:
            rec["lag"] = _need_int(adv["lag"], f"{apath}.lag", 1)
        if "drop_prob" in adv:
            rec["drop_prob"] = _need_number(adv["drop_prob"], f"{apath}.drop_prob", 0.0, 1.0)
        if "window" in adv:
            w = _need_list(adv["window"], f"{apath}.window")
            if len(w) != 2:
                _fail(f"{apath}.window", "needs [start, end]")
            rec["window"] = [_need_int(w[k], f"{apath}.window[{k}]", 0) for k in (0, 1)]
        block["adversary"] = rec
        inputs["adversary"] = _make(
            apath, resmod.AdversaryModel, compromised=tuple(rec["agents"]),
            kind=rec["kind"],
            value=rec.get("value", 0.0), lag=rec.get("lag", 1),
            drop_prob=rec.get("drop_prob", 0.5),
            window=tuple(rec.get("window", (0, block["horizon"]))))
        if len(rec["agents"]) == n:          # distinct ids, each in range
            _fail(f"{apath}.agents", "at least one honest agent required")
    trust = node.get("trust", "uniform")
    if isinstance(trust, str):
        block["trust"] = _need_str(trust, f"{path}.trust", ("uniform",))
        inputs["trust"] = resmod.TrustMatrix.uniform(n)
    else:
        if len(_need_list(trust, f"{path}.trust")) != n:
            _fail(f"{path}.trust", f"needs {n} rows")
        block["trust"] = [_need_vector(row, f"{path}.trust[{i}]", n, 0.0)
                          for i, row in enumerate(trust)]
        inputs["trust"] = _make(f"{path}.trust", resmod.TrustMatrix.from_weights,
                                block["trust"])
    reports = inputs["trust"].adjacency.sum(axis=1).tolist()     # before any drop
    if 2 * block["defense"]["trim"] + 1 > min(reports):
        _fail(f"{path}.defense.trim", f"agent {reports.index(min(reports))}: "
              f"{min(reports)} reports cannot survive 2*{block['defense']['trim']} discards")
    return block, inputs


# --- run records -----------------------------------------------------------------

class Table(NamedTuple):
    """One named trace table: its column names, and in `data` one sequence
    of cells per column (a list, a range or a tuple), all the same length.
    A cell is a str, int, float, bool or None."""
    name: str
    columns: tuple
    data: tuple


class RunRecord(NamedTuple):
    kind: str
    digest: str
    seed: int | None
    summary: dict
    tables: tuple = ()

    def table(self, name):
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)


def _labels(game, profile):
    """A profile of action indices as the list of its action labels."""
    return [labels[a] for labels, a in zip(game.actions, profile)]


# --- per-kind runners --------------------------------------------------------------
#
# Each runner builds its tables' columns from the kernels' results, with
# `.tolist()` on arrays, so every summary value and table cell is plain
# Python and the writers format them as they are.

def _run_coop(cfg, game, compute):
    summary = {"agents": game.n}
    tables = []
    if "superadditive" in compute:
        summary["superadditive"] = coopmod.is_superadditive(game)
    if "convex" in compute:
        summary["convex"] = coopmod.is_convex(game)
    if "surplus" in compute:
        summary["cooperative_surplus"] = coopmod.cooperative_surplus(game)
    if "shapley" in compute:
        summary["shapley"] = phi = coopmod.shapley(game).tolist()
        tables.append(Table("shapley", ("agent", "value"), (range(game.n), phi)))
    if "core" in compute:
        rep = coopmod.core_nonempty(game)
        summary["core_nonempty"] = rep.nonempty
        if rep.certificate is not None:
            summary["core_point"] = rep.certificate.tolist()
        summary["core_lp_optimum"] = rep.lp_optimum
    if "nucleolus" in compute:
        rep = coopmod.nucleolus(game)
        summary["nucleolus"] = allocation = rep.allocation.tolist()
        summary["nucleolus_stages"] = rep.stages
        tables.append(Table("nucleolus", ("agent", "value"),
                            (range(game.n), allocation)))
    return RunRecord("coop", cfg.digest, cfg.seed, summary, tuple(tables))


def _run_match(cfg, market, proposing, stable_set):
    result = matchmod.deferred_acceptance(market, proposing=proposing)
    summary = {"proposing": proposing,
               "stable": matchmod.is_stable(market, result),
               "pairs": [list(pair) for pair in result.pairs]}
    tables = [Table("matching", ("left", "right"), tuple(zip(*result.pairs)))]
    if stable_set:
        stable = matchmod.enumerate_stable(market)
        summary["stable_count"] = len(stable)
        tables.append(Table("stable_set", ("index", "pairs"), (
            range(len(stable)),
            [json.dumps([list(pair) for pair in m.pairs]) for m in stable])))
    return RunRecord("match", cfg.digest, cfg.seed, summary, tuple(tables))


def _run_nash(cfg, game, signal, eps):
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


def _run_learn(cfg, game, specs, horizon, schedule, gap_stride):
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


def _run_ttscale(cfg, game, specs, coordinator, outer_steps, epoch_length,
                 admissible, incentives, initial_signal):
    result = coordmod.run_two_timescale(
        game, specs, coordinator, outer_steps=outer_steps,
        epoch_length=epoch_length, seed=cfg.seed,
        admissible=admissible, incentives=incentives,
        initial_signal=initial_signal)
    epochs = result.epochs
    summary = {"outer_steps": outer_steps,
               "epoch_length": epoch_length,
               "final_signal": result.final_signal,
               "signal_sequence": [e.signal for e in epochs],
               "final_welfare": epochs[-1].digest.mean_welfare}
    data = ([e.index for e in epochs], [e.signal for e in epochs],
            [e.digest.mean_welfare for e in epochs],
            [json.dumps(e.digest.frequencies) for e in epochs])
    tables = [Table("epochs", ("epoch", "signal", "mean_welfare",
                               "action_frequencies"), data)]
    return RunRecord("ttscale", cfg.digest, cfg.seed, summary, tuple(tables))


def _run_stackelberg(cfg, game, candidates, mode, objective):
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


def _run_wardrop(cfg, network, paths, augmented, tolls):
    eq = netmod.wardrop_equilibrium(network, paths)
    so = netmod.system_optimum(network, paths)
    poa = netmod.price_of_anarchy(eq, so)
    summary = {"equilibrium_cost": eq.total_cost,
               "equilibrium_per_unit_cost": eq.per_unit_cost,
               "optimum_cost": so.total_cost,
               "poa_defined": poa.defined,
               "poa": poa.ratio}
    if not poa.defined:
        summary["poa_reason"] = poa.reason

    def path_columns(fa):
        return ([json.dumps(list(p)) for p in fa.paths],
                fa.path_flows.tolist(), fa.path_latencies.tolist())

    tables = [Table("equilibrium_paths", ("path", "flow", "latency"),
                    path_columns(eq)),
              Table("optimum_paths", ("path", "flow", "latency"),
                    path_columns(so))]
    if augmented is not None:
        report = netmod.braess_delta(eq, netmod.wardrop_equilibrium(*augmented))
        summary["augmented_per_unit_cost"] = report.augmented_per_unit_cost
        summary["braess_delta"] = report.delta
        summary["paradox"] = report.delta > 0
    if tolls:
        toll = netmod.marginal_cost_tolls(network, so)
        summary["tolled_latency_cost"] = toll.latency_cost
        summary["tolled_per_unit_cost"] = toll.latency_per_unit_cost
        summary["toll_flow_gap"] = toll.max_edge_flow_gap
        tables.append(Table("tolls", ("edge", "toll"), (
            [json.dumps([e.tail, e.head]) for e in network.edges],
            toll.tolls.tolist())))
    return RunRecord("wardrop", cfg.digest, cfg.seed, summary, tuple(tables))


def _run_incentive(cfg, game, target, baseline, budget, signal):
    design = incmod.design_incentive(game, target, baseline=baseline,
                                     budget=budget, signal=signal)
    summary = {"status": design.status,
               "target": _labels(game, target), "baseline": _labels(game, baseline)}
    tables = []
    if design.status == "ok":
        payments = design.schedule.per_agent(game, target, signal)
        summary["payments"] = list(payments)
        summary["per_period_spend"] = design.per_period_spend
        summary["discounted_spend"] = design.discounted_spend
        tables.append(Table("payments", ("agent", "payment"),
                            (range(game.n_agents), payments)))
    else:
        summary["reason"] = design.reason
    return RunRecord("incentive", cfg.digest, cfg.seed, summary, tuple(tables))


def _run_resilience(cfg, initial, trust, horizon, defense, adversary):
    values = initial(cfg.seed)
    n = len(values)
    scenario = resmod.ConsensusScenario(
        initial_values=tuple(float(v) for v in values), trust=trust)
    run = resmod.run_consensus_scenario(scenario, horizon, defense,
                                        adversary=adversary, seed=cfg.seed)
    diameters = run.metrics.diameter_series
    summary = {"horizon": horizon, "agents": n,
               "final_values": run.values[-1].tolist(),
               "final_diameter": diameters[-1],
               "max_honest_deviation": run.metrics.max_honest_deviation,
               "recovered": run.metrics.recovery_time is not None,
               "recovery_steps": run.metrics.recovery_time}
    cols = ("step",) + tuple(f"value_{i}" for i in range(n)) + ("diameter",)
    return RunRecord("resilience", cfg.digest, cfg.seed, summary, (Table(
        "values", cols, (range(len(diameters)), *run.values.T.tolist(), diameters)),))


# --- kind registry -------------------------------------------------------------------

class Kind(NamedTuple):
    """One scenario kind.

    `validate(node, path)` checks the kind's block and returns it normalized
    together with the runner's keyword inputs; `run(cfg, **inputs)` calls
    the kernels and shapes the RunRecord. A stochastic kind needs a seed.
    """
    validate: object
    run: object
    help: str
    stochastic: bool = False


REGISTRY = {
    "coop": Kind(_v_coop, _run_coop, "coalition values: Shapley, core, nucleolus"),
    "match": Kind(_v_match, _run_match, "two-sided matching via deferred acceptance"),
    "nash": Kind(_v_nash, _run_nash, "pure equilibria, welfare and price of anarchy"),
    "learn": Kind(_v_learn, _run_learn, "learning dynamics on a strategic game", True),
    "ttscale": Kind(_v_ttscale, _run_ttscale,
                    "slow coordinator over fast learning epochs", True),
    "stackelberg": Kind(_v_stackelberg, _run_stackelberg,
                        "leader signal choice against follower equilibria"),
    "wardrop": Kind(_v_wardrop, _run_wardrop,
                    "routing equilibrium, optimum, Braess delta, tolls"),
    "incentive": Kind(_v_incentive, _run_incentive,
                      "minimal transfers making a target profile stable"),
    "resilience": Kind(_v_resilience, _run_resilience,
                       "consensus under adversarial reports", True),
}
KINDS = tuple(REGISTRY)
STOCHASTIC_KINDS = tuple(k for k, spec in REGISTRY.items() if spec.stochastic)


def run_scenario(cfg: ScenarioConfig) -> RunRecord:
    return REGISTRY[cfg.kind].run(cfg, **cfg.payload)


# --- export ----------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return str(value)
        return "%.17g" % value
    return str(value)


def _csv_cell(value):
    s = _fmt(value)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _json_value(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value


def _csv_files(record: RunRecord):
    """(stem suffix, lines) per CSV data file: summary plus one per table.

    Comma delimiter, dot decimal, header row, LF endings; an empty table
    yields a header-only file. Floats carry 17 significant digits, and a
    list or map in the summary is embedded as JSON. Each line is formatted
    only when it is read.
    """
    def summary():
        yield "key,value\n"
        for key, value in [("kind", record.kind), ("digest", record.digest),
                           ("seed", record.seed), *sorted(record.summary.items())]:
            if isinstance(value, (list, dict)):
                value = json.dumps(_json_value(value), sort_keys=True)
            yield f"{_csv_cell(key)},{_csv_cell(value)}\n"

    def table_lines(table):
        yield ",".join(table.columns) + "\n"
        for row in zip(*table.data):
            yield ",".join(_csv_cell(v) for v in row) + "\n"

    return [("summary", summary())] + [(t.name, table_lines(t)) for t in record.tables]


def _jsonl_files(record: RunRecord):
    """(stem suffix, lines) per JSON-lines data file, like `_csv_files`.

    The summary file holds a single object; table files hold one object per
    row keyed by column name. Floats are written as the shortest repr that
    reads back to the same double (`0.1`, not 17 digits), so parsing them
    back reproduces the doubles exactly.
    """
    header = {"kind": record.kind, "digest": record.digest,
              "seed": record.seed, "summary": record.summary,
              "tables": [t.name for t in record.tables]}

    def line(obj):
        return json.dumps(_json_value(obj), sort_keys=True, separators=(",", ":")) + "\n"

    def table_lines(table):
        for row in zip(*table.data):
            yield line(dict(zip(table.columns, row)))

    return [("summary", [line(header)])] + [(t.name, table_lines(t)) for t in record.tables]


# lines joined into one write: large enough to amortize each call, small
# enough that no data file is ever held whole in memory
_WRITE_BLOCK = 256


def write_outputs(record: RunRecord, out_dir, stem, fmt="csv"):
    """Write summary + per-table data files plus a meta sidecar.

    Returns the paths written. meta.json holds wall-clock and version facts
    and is the only file excluded from determinism comparisons; the data
    files are byte-stable for a fixed (config, seed).
    """
    import os

    if fmt == "csv":
        files, ext = _csv_files(record), "csv"
    elif fmt == "jsonl":
        files, ext = _jsonl_files(record), "jsonl"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for suffix, lines in files:
            path = os.path.join(out_dir, f"{stem}.{suffix}.{ext}")
            lines = iter(lines)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                while block := "".join(itertools.islice(lines, _WRITE_BLOCK)):
                    fh.write(block)
            paths.append(path)
        from . import __version__

        meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "note": "wall-clock and version live here so data files stay deterministic",
                "version": __version__, "kind": record.kind,
                "digest": record.digest}
        meta_path = os.path.join(out_dir, f"{stem}.meta.json")
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(meta_path)
    except OSError as exc:
        raise OSError(f"writing {out_dir!r}: {exc}") from exc
    return paths
