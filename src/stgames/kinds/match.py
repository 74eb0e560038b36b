"""The `match` kind: two-sided matching by deferred acceptance, and the
stable set on request."""

from __future__ import annotations

import json

from .. import matching as matchmod
from ..errors import CapacityError
from ..scenario import (RunRecord, Table, _fail, _need_bool, _need_int,
                        _need_list, _need_map, _need_str)


def validate(node, path):
    _need_map(node, path, required=("left", "right"),
              optional=("proposing", "enumerate"))
    n = None
    block = {}
    for side in ("left", "right"):
        prefs = _need_list(node[side], f"{path}.{side}", 1)
        if n is None:
            n = len(prefs)
            if n > matchmod.MAX_SIDE:
                raise CapacityError(f"{path}.{side}: side size {n} exceeds "
                                    f"{matchmod.MAX_SIDE}")
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


def run(cfg, market, proposing, stable_set):
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
