"""The `coop` kind: coalition values, Shapley value, core and nucleolus."""

from __future__ import annotations

import warnings

from .. import coop as coopmod
from ..scenario import (RunRecord, Table, _fail, _need_at_most, _need_int,
                        _need_list, _need_map, _need_number, _need_str)


def validate(node, path):
    _need_map(node, path, required=("agents", "values"), optional=("compute",))
    n = _need_int(node["agents"], f"{path}.agents", 1)
    _need_at_most(n, coopmod.MAX_AGENTS, f"{path}.agents", "agents")
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
    # the pair checks scan 4^n coalition pairs, so they are refused before
    # the 2^n values are built
    for i, step in enumerate(compute):
        if step in ("superadditive", "convex"):
            where = f"{path}.compute[{i}]" if "compute" in node else f"{path}.agents"
            _need_at_most(n, coopmod.MAX_PAIR_CHECK_AGENTS, where,
                          f"agents for the {step} check")
            break
    block = {"agents": n, "values": {str(m): v for m, v in values.items()},
             "compute": compute}
    return block, {"game": coopmod.CoalitionGame.from_dict(n, values),
                   "compute": compute}


def run(cfg, game, compute):
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
