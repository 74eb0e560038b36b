"""The `resilience` kind: trimmed, trust-weighted consensus under
adversarial reports."""

from __future__ import annotations

from .. import resilience as resmod
from .._np import np
from ..scenario import (RunRecord, Table, _fail, _make, _need_at_most, _need_int,
                        _need_list, _need_map, _need_number, _need_str,
                        _need_vector)


# agents one `resilience` run may hold, drawn or listed
MAX_CONSENSUS_AGENTS = 64
# consensus rounds of one run (`horizon`)
MAX_CONSENSUS_ROUNDS = 10 ** 5


def validate(node, path):
    _need_map(node, path, required=("initial_values", "horizon", "defense"),
              optional=("adversary", "trust", "base"))
    if "base" in node:
        _need_str(node["base"], f"{path}.base", ("consensus",))
    iv = node["initial_values"]
    if isinstance(iv, dict):
        _need_map(iv, f"{path}.initial_values", required=("random",))
        rpath = f"{path}.initial_values.random"
        r = _need_map(iv["random"], rpath, required=("n",), optional=("low", "high"))
        n = _need_int(r["n"], f"{rpath}.n", 2)
        _need_at_most(n, MAX_CONSENSUS_AGENTS, f"{rpath}.n", "agents")
        low = _need_number(r.get("low", 0.0), f"{rpath}.low")
        high = _need_number(r.get("high", 1.0), f"{rpath}.high")
        if low >= high:
            _fail(rpath, "low must be < high")
        values = {"random": {"n": n, "low": low, "high": high}}

        def initial(seed):
            return np.random.default_rng([seed, 0x1F]).uniform(low, high, size=n)
    else:
        _need_at_most(len(_need_list(iv, f"{path}.initial_values", 2)),
                      MAX_CONSENSUS_AGENTS, f"{path}.initial_values", "values")
        values = [_need_number(v, f"{path}.initial_values[{i}]") for i, v in enumerate(iv)]
        n = len(values)

        def initial(seed):
            return values
    block = {"initial_values": values,
             "horizon": _need_int(node["horizon"], f"{path}.horizon", 1)}
    _need_at_most(block["horizon"], MAX_CONSENSUS_ROUNDS, f"{path}.horizon", "rounds")
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


def run(cfg, initial, trust, horizon, defense, adversary):
    values = initial(cfg.seed)
    n = len(values)
    scenario = resmod.ConsensusScenario(
        initial_values=tuple(float(v) for v in values), trust=trust)
    result = resmod.run_consensus_scenario(scenario, horizon, defense,
                                           adversary=adversary, seed=cfg.seed)
    diameters = result.metrics.diameter_series
    summary = {"horizon": horizon, "agents": n,
               "final_values": result.values[-1].tolist(),
               "final_diameter": diameters[-1],
               "max_honest_deviation": result.metrics.max_honest_deviation,
               "recovered": result.metrics.recovery_time is not None,
               "recovery_steps": result.metrics.recovery_time}
    cols = ("step",) + tuple(f"value_{i}" for i in range(n)) + ("diameter",)
    return RunRecord("resilience", cfg.digest, cfg.seed, summary, (Table(
        "values", cols, (range(len(diameters)), *result.values.T.tolist(), diameters)),))
