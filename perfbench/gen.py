"""Seeded scenario documents for each benchmark workload.

Every document is generated from the workload seed, so one seed always gives
the same YAML. Sizes are fixed per workload and only values vary with the
seed, which keeps the amount of work per run close across seeds.

A document is a `Doc`: the YAML mapping, the CLI kind, the export format and
what the CLI must do with it (exit code, and for invalid documents whether
the slice belongs to a class the program is known to mishandle).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Doc:
    stem: str
    kind: str
    fmt: str
    body: dict
    exit_code: int = 0
    known_defect: str | None = None   # name of a pinned defect class


def _rng(workload, seed):
    # str seeding hashes with sha512: stable across processes and versions
    return random.Random(f"{workload}:{seed}")


def _r(x, digits=4):
    return round(x, digits)


# --- strategic games ---------------------------------------------------------

def _game(rng, actions):
    """Random payoff table over every profile of `actions`, values in [-4, 4]."""
    return {"actions": [list(a) for a in actions],
            "payoffs": [{"profile": list(p),
                         "values": [_r(rng.uniform(-4.0, 4.0)) for _ in actions]}
                        for p in itertools.product(*actions)]}


def _pennies(rng):
    a = _r(rng.uniform(0.5, 2.0))
    return {"actions": [["H", "T"], ["H", "T"]],
            "payoffs": [{"profile": ["H", "H"], "values": [a, -a]},
                        {"profile": ["H", "T"], "values": [-a, a]},
                        {"profile": ["T", "H"], "values": [-a, a]},
                        {"profile": ["T", "T"], "values": [a, -a]}]}


def _dilemma(rng):
    t = _r(rng.uniform(4.5, 6.0))
    r = _r(rng.uniform(2.5, 3.5))
    p = _r(rng.uniform(0.5, 1.5))
    s = _r(rng.uniform(-1.0, 0.0))
    return {"actions": [["C", "D"], ["C", "D"]],
            "payoffs": [{"profile": ["C", "C"], "values": [r, r]},
                        {"profile": ["C", "D"], "values": [s, t]},
                        {"profile": ["D", "C"], "values": [t, s]},
                        {"profile": ["D", "D"], "values": [p, p]}]}


def _coordination(rng, signals):
    """Two-signal 2x2 coordination game: both diagonals are equilibria."""
    tables = {}
    for sig in signals:
        hi, lo = _r(rng.uniform(1.5, 3.0)), _r(rng.uniform(0.5, 1.4))
        off = _r(rng.uniform(-0.5, 0.2))
        tables[sig] = [{"profile": ["a", "a"], "values": [hi, hi]},
                       {"profile": ["a", "b"], "values": [off, off]},
                       {"profile": ["b", "a"], "values": [off, off]},
                       {"profile": ["b", "b"], "values": [lo, lo]}]
    return {"actions": [["a", "b"], ["a", "b"]], "payoffs": tables}


# --- cooperative games -------------------------------------------------------

def _coalitions(n):
    for mask in range(1, 1 << n):
        yield mask, [i for i in range(n) if mask >> i & 1]


def _coop_values(rng, n, core_empty):
    """Random small coalitions under one symmetric layer of (n-1)-coalitions.

    Every (n-1)-coalition is worth c, and every smaller coalition has excess
    below theirs at the equal split. So the first nucleolus stage pins the
    equal split, the nucleolus always takes one stage, and run time follows
    n rather than the seed. The n coalitions of size n-1, each weighted
    1/(n-1), are a balanced collection, so the core is empty exactly when
    c > (n-1) v(N) / n.
    """
    full = (1 << n) - 1
    grand = n * rng.uniform(1.0, 2.0)
    share = rng.uniform(1.03, 1.1) if core_empty else rng.uniform(0.9, 0.97)
    values = []
    for mask, members in _coalitions(n):
        k = len(members)
        if mask == full:
            v = grand
        elif k == n - 1:
            v = share * grand * (n - 1) / n
        else:
            v = (rng.uniform(0.3, 0.8) * k / n - max(0.0, 1.0 - share)) * grand
        values.append({"coalition": members, "value": _r(v, 6)})
    return values


def _coop(name, n, values):
    return {"kind": "coop", "name": name, "coop": {"agents": n, "values": values}}


# --- workloads ---------------------------------------------------------------

def coop_lp(seed):
    """Coalition games at n = 7 and 8 with every compute step; one of the two
    n = 8 games has an empty core."""
    rng = _rng("coop-lp", seed)
    docs = []
    for stem, n, empty, fmt in (("coop-n7", 7, False, "jsonl"),
                                ("coop-n8", 8, False, "csv"),
                                ("coop-n8-empty", 8, True, "jsonl")):
        docs.append(Doc(stem, "coop", fmt,
                        _coop(stem, n, _coop_values(rng, n, core_empty=empty))))
    return docs


def _light(rng, kind, i):
    """One small valid document of `kind`."""
    name = f"{kind}-{i}"
    if kind == "nash":
        acts = [["u", "d"], ["l", "c", "r"]] if i % 2 else [["C", "D"], ["C", "D"], ["C", "D"]]
        return {"kind": kind, "name": name, "nash": {"game": _game(rng, acts)}}
    if kind == "coop":
        n = 3 + i % 2
        return _coop(name, n, _coop_values(rng, n, core_empty=i % 3 == 2))
    if kind == "match":
        n = 3 + i % 3
        def prefs():
            return [rng.sample(range(n), n) for _ in range(n)]
        return {"kind": kind, "name": name,
                "match": {"left": prefs(), "right": prefs(),
                          "proposing": "left" if i % 2 else "right",
                          "enumerate": n <= 4}}
    if kind == "wardrop":
        def edge(t, h):
            return {"tail": t, "head": h, "a": _r(rng.uniform(0.0, 1.0)),
                    "b": _r(rng.uniform(0.2, 1.5))}
        return {"kind": kind, "name": name,
                "wardrop": {"origin": "o", "destination": "d",
                            "demand": _r(rng.uniform(0.5, 2.0)),
                            "edges": [edge("o", "a"), edge("a", "d"),
                                      edge("o", "b"), edge("b", "d")],
                            "extra_edge": {"tail": "a", "head": "b", "a": 0.0,
                                           "b": _r(rng.uniform(0.0, 0.2))},
                            "tolls": True}}
    if kind == "stackelberg":
        return {"kind": kind, "name": name,
                "stackelberg": {"mode": "optimistic" if i % 2 else "pessimistic",
                                "candidates": ["lo", "hi"],
                                "game": _coordination(rng, ["lo", "hi"])}}
    if kind == "incentive":
        return {"kind": kind, "name": name,
                "incentive": {"target": ["C", "C"], "baseline": ["D", "D"],
                              "budget": {"limit": 100.0, "delta": 0.5},
                              "game": _dilemma(rng)}}
    if kind == "learn":
        return {"kind": kind, "name": name, "seed": rng.randrange(2 ** 32),
                "learn": {"horizon": 300, "gap_stride": 10, "game": _pennies(rng),
                          "learners": [{"kind": "fictitious-play"},
                                       {"kind": "smoothed-best-response",
                                        "temperature": 0.5}]}}
    if kind == "ttscale":
        return {"kind": kind, "name": name, "seed": rng.randrange(2 ** 32),
                "ttscale": {"outer_steps": 4, "epoch_length": 50,
                            "game": _coordination(rng, ["lo", "hi"]),
                            "learners": [{"kind": "smoothed-best-response",
                                          "temperature": 0.2}] * 2,
                            "coordinator": {"kind": "greedy",
                                            "candidates": ["lo", "hi"]}}}
    if kind == "resilience":
        n = 6 + i % 3
        return {"kind": kind, "name": name, "seed": rng.randrange(2 ** 32),
                "resilience": {"initial_values": [_r(rng.uniform(0, 1)) for _ in range(n)],
                               "horizon": 20, "defense": {"trim": 1, "trust_eta": 0.5},
                               "adversary": {"agents": [n - 1],
                                             "kind": "constant-injection",
                                             "value": 50.0, "window": [0, 8]}}}
    raise ValueError(kind)


def _heavy(rng, kind, i):
    """The slow tail: many short epochs, wide consensus, stable-set search.

    Each takes half as long again as a light document or more, and the tail
    is about a fifth of the sweep, so the 90th percentile falls inside it.
    It is kept short enough that a run repeats every document three times."""
    name = f"{kind}-heavy-{i}"
    if kind == "ttscale":
        return {"kind": kind, "name": name, "seed": rng.randrange(2 ** 32),
                "ttscale": {"outer_steps": 300, "epoch_length": 10,
                            "game": _coordination(rng, ["lo", "hi"]),
                            "learners": [{"kind": "fictitious-play"}] * 2,
                            "coordinator": {"kind": "round-robin",
                                            "candidates": ["lo", "hi"]}}}
    if kind == "resilience":
        n = 32
        return {"kind": kind, "name": name, "seed": rng.randrange(2 ** 32),
                "resilience": {"initial_values": {"random": {"n": n}},
                               "horizon": 80, "defense": {"trim": 2, "trust_eta": 0.3},
                               "adversary": {"agents": [0, n - 1], "kind": "sign-flip",
                                             "window": [10, 60]}}}
    if kind == "match":
        n = 8
        return {"kind": kind, "name": name,
                "match": {"left": [rng.sample(range(n), n) for _ in range(n)],
                          "right": [rng.sample(range(n), n) for _ in range(n)],
                          "enumerate": True}}
    raise ValueError(kind)


def _invalid(rng):
    """Documents the CLI must reject: (stem, kind, body, exit code, defect)."""
    dilemma = _dilemma(rng)
    spaced = _dilemma(rng)
    spaced["actions"] = [["go left", "D"], ["go left", "D"]]
    for entry in spaced["payoffs"]:
        entry["profile"] = ["go left" if a == "C" else a for a in entry["profile"]]
    nan_game = _dilemma(rng)
    nan_game["payoffs"][1]["values"][0] = float("nan")
    market = [rng.sample(range(9), 9) for _ in range(9)]
    return [
        ("bad-unknown-key", "nash", {"kind": "nash", "nash": {"game": dilemma, "eps0": 1}}, 1, None),
        ("bad-type", "wardrop", {"kind": "wardrop", "wardrop": {
            "origin": "o", "destination": "d", "demand": "lots",
            "edges": [{"tail": "o", "head": "d", "a": 1.0, "b": 1.0}]}}, 1, None),
        ("bad-range", "learn", {"kind": "learn", "seed": 1, "learn": {
            "horizon": 0, "game": _pennies(rng),
            "learners": [{"kind": "fictitious-play"}] * 2}}, 1, None),
        ("bad-capacity", "match", {"kind": "match", "match": {
            "left": market, "right": market}}, 3, None),
        ("bad-spaced-label", "nash", {"kind": "nash", "nash": {"game": spaced}},
         1, "label-with-space"),
        ("bad-nan", "nash", {"kind": "nash", "nash": {"game": nan_game}},
         1, "non-finite-number"),
        ("bad-inf", "wardrop", {"kind": "wardrop", "wardrop": {
            "origin": "o", "destination": "d", "demand": 1.0,
            "edges": [{"tail": "o", "head": "d", "a": 0.0, "b": float("inf")}]}},
         1, "non-finite-number"),
    ]


SWEEP_KINDS = ("coop", "match", "nash", "learn", "ttscale", "stackelberg",
               "wardrop", "incentive", "resilience")


def cli_sweep(seed):
    """Small documents of all nine kinds, a heavy tail and an invalid slice,
    in a seeded order, alternating csv and jsonl."""
    rng = _rng("cli-sweep", seed)
    items = []
    for rep in range(2):
        for kind in SWEEP_KINDS:
            items.append((f"{kind}-{rep}", kind, _light(rng, kind, rep), 0, None))
    for rep in range(2):
        for kind in ("ttscale", "resilience", "match"):
            items.append((f"{kind}-heavy-{rep}", kind, _heavy(rng, kind, rep), 0, None))
    items.extend(_invalid(rng))
    rng.shuffle(items)
    return [Doc(stem, kind, ("csv", "jsonl")[k % 2], body, code, defect)
            for k, (stem, kind, body, code, defect) in enumerate(items)]


WORKLOADS = {"coop-lp": coop_lp, "cli-sweep": cli_sweep}
