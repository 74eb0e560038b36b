"""The `wardrop` kind: routing equilibrium and system optimum, with the
Braess delta of an extra edge and marginal-cost tolls on request."""

from __future__ import annotations

import json

from .. import congestion as netmod
from ..scenario import (RunRecord, Table, _fail, _make, _need_bool, _need_list,
                        _need_map, _need_number, _need_str)


def validate(node, path):
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
        inputs["augmented"] = (augmented, _make(f"{path}.extra_edge",
                                                netmod.enumerate_paths, augmented))
    if "tolls" in node:
        block["tolls"] = inputs["tolls"] = _need_bool(node["tolls"], f"{path}.tolls")
    return block, inputs


def run(cfg, network, paths, augmented, tolls):
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
