"""Finite strategic-form games with optional coordination signals.

Payoffs are utilities to be maximized. A game holds one payoff table per
signal value; single-signal games use the default label. Profiles are tuples
of action labels, one per agent, and all argmax tie handling is exact float
comparison with smallest-index preference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError

DEFAULT_SIGNAL = "default"
MAX_AGENTS = 6
MAX_GRID = 10 ** 6


@dataclass(frozen=True)
class StrategicGame:
    actions: tuple            # per-agent tuples of action labels
    payoffs: dict             # signal -> ndarray of shape (n, |X_0|, ..., |X_{n-1}|)

    def __post_init__(self):
        n = len(self.actions)
        if not 2 <= n <= MAX_AGENTS:
            raise CapacityError(f"agent count {n} outside 2..{MAX_AGENTS}")
        if not self.payoffs:
            raise ValueError("at least one signal table required")
        grid = 1
        for labels in self.actions:
            if len(labels) == 0:
                raise ValueError("every agent needs at least one action")
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate action labels in {labels}")
            grid *= len(labels)
        if grid > MAX_GRID:
            raise CapacityError(f"profile grid {grid} exceeds {MAX_GRID}")
        shape = (n,) + tuple(len(x) for x in self.actions)
        for sig, table in self.payoffs.items():
            if table.shape != shape:
                raise ValueError(
                    f"signal {sig!r}: payoff table shape {table.shape}, want {shape}")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_tables(actions, tables) -> "StrategicGame":
        """Build from {signal: {profile tuple: per-agent payoff sequence}}."""
        actions = tuple(tuple(a) for a in actions)
        n = len(actions)
        payoffs = {}
        for sig, entries in tables.items():
            arr = np.zeros((n,) + tuple(len(x) for x in actions))
            seen = set()
            for profile, values in entries.items():
                idx = _profile_index(actions, tuple(profile))
                if idx in seen:
                    raise ValueError(f"signal {sig!r}: duplicate profile {profile}")
                seen.add(idx)
                vals = np.asarray(values, dtype=float)
                if vals.shape != (n,):
                    raise ValueError(
                        f"profile {profile}: expected {n} payoffs, got {vals.shape}")
                arr[(slice(None),) + idx] = vals
            full = int(np.prod([len(x) for x in actions]))
            if len(seen) != full:
                raise ValueError(
                    f"signal {sig!r}: {len(seen)} of {full} profiles specified")
            payoffs[str(sig)] = arr
        return StrategicGame(actions, payoffs)

    @staticmethod
    def single(actions, table) -> "StrategicGame":
        return StrategicGame.from_tables(actions, {DEFAULT_SIGNAL: table})

    # -- basics ----------------------------------------------------------------

    @property
    def n_agents(self) -> int:
        return len(self.actions)

    @property
    def signals(self) -> tuple:
        return tuple(self.payoffs)

    def resolve_signal(self, signal=None) -> str:
        if signal is None:
            if len(self.payoffs) == 1:
                return next(iter(self.payoffs))
            raise ValueError(
                f"signal required, game has {sorted(self.payoffs)}")
        if signal not in self.payoffs:
            raise ValueError(
                f"unknown signal {signal!r}; valid: {sorted(self.payoffs)}")
        return signal

    def action_index(self, agent: int, label) -> int:
        try:
            return self.actions[agent].index(label)
        except ValueError:
            raise ValueError(
                f"agent {agent}: unknown action {label!r}; "
                f"valid: {list(self.actions[agent])}") from None

    def profiles(self):
        """All profiles in lexicographic action-index order."""
        return itertools.product(*self.actions)

    def payoff(self, profile, signal=None) -> np.ndarray:
        """Per-agent payoff vector at a pure profile."""
        sig = self.resolve_signal(signal)
        idx = _profile_index(self.actions, tuple(profile))
        return self.payoffs[sig][(slice(None),) + idx].copy()


def _profile_index(actions, profile):
    if len(profile) != len(actions):
        raise ValueError(
            f"profile length {len(profile)} != agent count {len(actions)}")
    idx = []
    for i, label in enumerate(profile):
        try:
            idx.append(actions[i].index(label))
        except ValueError:
            raise ValueError(
                f"agent {i}: unknown action {label!r}; "
                f"valid: {list(actions[i])}") from None
    return tuple(idx)


@dataclass(frozen=True)
class NashCheck:
    is_nash: bool
    agent: int | None = None        # witness when not an equilibrium
    deviation: object = None
    gain: float | None = None


@dataclass(frozen=True)
class WelfareReport:
    convention: str                 # always "maximize" here
    optimal_welfare: float
    optimal_profile: tuple
    equilibria: tuple               # pure-equilibrium profiles
    worst_equilibrium_welfare: float | None
    ratio: float | None             # optimal / worst equilibrium welfare
    defined: bool
    reason: str = ""


def counterfactual_payoffs(game: StrategicGame, agent: int, profile,
                           signal=None) -> np.ndarray:
    """Payoff vector over `agent`'s actions with the others pinned."""
    sig = game.resolve_signal(signal)
    idx = list(_profile_index(game.actions, tuple(profile)))
    sel = [agent] + [slice(None) if i == agent else idx[i]
                     for i in range(game.n_agents)]
    return game.payoffs[sig][tuple(sel)].copy()


def best_responses(game: StrategicGame, agent: int, profile, signal=None):
    """All payoff-maximizing actions for `agent`; exact float ties."""
    vec = counterfactual_payoffs(game, agent, profile, signal)
    best = vec.max()
    return tuple(game.actions[agent][j] for j in range(len(vec))
                 if vec[j] == best)

def is_nash(game: StrategicGame, profile, eps: float = 0.0,
            signal=None) -> NashCheck:
    """Epsilon-equilibrium check; witness is the first profitable deviation
    in (agent, action) index order."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    sig = game.resolve_signal(signal)
    base = game.payoff(profile, sig)
    for i in range(game.n_agents):
        vec = counterfactual_payoffs(game, i, profile, sig)
        for j, label in enumerate(game.actions[i]):
            if vec[j] > base[i] + eps:
                return NashCheck(False, i, label, float(vec[j] - base[i]))
    return NashCheck(True)


def enumerate_pure_nash(game: StrategicGame, signal=None, eps: float = 0.0):
    """Pure (eps-)equilibria in lexicographic profile order."""
    sig = game.resolve_signal(signal)
    return [p for p in game.profiles() if is_nash(game, p, eps, sig).is_nash]


def welfare_and_poa(game: StrategicGame, signal=None) -> WelfareReport:
    """Utilitarian optimum vs worst pure equilibrium, maximize convention.

    Games without a pure equilibrium (or with a zero-welfare worst
    equilibrium) yield an undefined ratio rather than an exception.
    """
    sig = game.resolve_signal(signal)
    table = game.payoffs[sig]
    welfare = table.sum(axis=0)
    flat = int(np.argmax(welfare))
    opt_idx = np.unravel_index(flat, welfare.shape)
    opt_profile = tuple(game.actions[i][opt_idx[i]] for i in range(game.n_agents))
    opt = float(welfare[opt_idx])
    eqs = tuple(enumerate_pure_nash(game, sig))
    if not eqs:
        return WelfareReport("maximize", opt, opt_profile, (), None, None,
                             False, "no pure equilibrium")
    worst = min(float(welfare[_profile_index(game.actions, e)]) for e in eqs)
    if worst == 0.0:
        return WelfareReport("maximize", opt, opt_profile, eqs, worst, None,
                             False, "zero-welfare equilibrium")
    return WelfareReport("maximize", opt, opt_profile, eqs, worst,
                         opt / worst, True)


def expected_payoffs(game: StrategicGame, mixed, signal=None) -> np.ndarray:
    """Per-agent expected payoffs under a product distribution.

    `mixed` is one probability vector per agent over that agent's actions.
    """
    sig = game.resolve_signal(signal)
    out = np.zeros(game.n_agents)
    for i in range(game.n_agents):
        cur = game.payoffs[sig][i]
        for ax in range(game.n_agents - 1, -1, -1):
            cur = np.tensordot(cur, np.asarray(mixed[ax], dtype=float),
                               axes=([ax], [0]))
        out[i] = cur
    return out


def expected_counterfactuals(game: StrategicGame, agent: int, mixed,
                             signal=None) -> np.ndarray:
    """Expected payoff of each of `agent`'s actions vs the others' mixtures."""
    sig = game.resolve_signal(signal)
    return contract_others(game.payoffs[sig][agent], agent,
                           [np.asarray(m, dtype=float) for m in mixed])


def contract_others(table: np.ndarray, agent: int, mixed) -> np.ndarray:
    """Expectation of `table` (one axis per agent) over every agent's
    mixture but `agent`'s, leaving a vector over `agent`'s actions.

    The other agents' axes are contracted last to first, each as one
    matrix-vector product over that axis moved last with the rest in order
    (the layout `np.tensordot` uses). Once the axes after `agent` are gone,
    the next one sits just before the agent's own axis, so moving it last
    is a swap of the last two axes. The float results depend on this order
    and layout, so keep both.
    """
    g = table
    for j in range(len(mixed) - 1, -1, -1):
        if j == agent:
            continue
        if j < agent:
            g = g.swapaxes(-1, -2)
        if g.ndim == 2:              # the reshapes below are no-ops here
            g = g.dot(mixed[j])
        else:
            g = g.reshape(-1, len(mixed[j])).dot(mixed[j]).reshape(g.shape[:-1])
    return g


def mixed_gap(game: StrategicGame, mixed, signal=None) -> float:
    """Largest unilateral expected gain at a product profile (0 at a Nash)."""
    sig = game.resolve_signal(signal)
    base = expected_payoffs(game, mixed, sig)
    gap = 0.0
    for i in range(game.n_agents):
        vec = expected_counterfactuals(game, i, mixed, sig)
        gap = max(gap, float(vec.max() - base[i]))
    return gap
