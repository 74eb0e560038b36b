"""Finite strategic-form games with optional coordination signals.

Payoffs are utilities to be maximized. A game holds one payoff table per
signal value; single-signal games use the default label. Profiles are tuples
of action indices, one per agent (`profile_index` maps labels to indices),
and all argmax tie handling is exact float comparison with smallest-index
preference.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from ._np import np

from .errors import CapacityError

DEFAULT_SIGNAL = "default"
MAX_AGENTS = 6
MAX_GRID = 10 ** 6


class StrategicGame:
    __slots__ = ("actions", "payoffs")

    def __init__(self, actions: tuple, payoffs: dict):
        self.actions = actions    # per-agent tuples of action labels
        self.payoffs = payoffs    # signal -> ndarray of shape (n, |X_0|, ..., |X_{n-1}|)
        n = len(actions)
        if not 2 <= n <= MAX_AGENTS:
            raise CapacityError(f"agent count {n} outside 2..{MAX_AGENTS}")
        if not payoffs:
            raise ValueError("at least one signal table required")
        grid = 1
        for labels in actions:
            if len(labels) == 0:
                raise ValueError("every agent needs at least one action")
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate action labels in {labels}")
            grid *= len(labels)
        if grid > MAX_GRID:
            raise CapacityError(f"profile grid {grid} exceeds {MAX_GRID}")
        shape = (n,) + tuple(len(x) for x in actions)
        for sig, table in payoffs.items():
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
                idx = profile_index(actions, profile)
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

    def profiles(self):
        """All profiles in lexicographic action-index order."""
        return itertools.product(*(range(len(a)) for a in self.actions))

    def payoff(self, profile, signal=None) -> np.ndarray:
        """Per-agent payoff vector at a pure profile."""
        sig = self.resolve_signal(signal)
        profile = _check_profile(self.actions, profile)
        return self.payoffs[sig][(slice(None),) + profile].copy()


def profile_index(actions, profile) -> tuple:
    """The action indices of a profile given as one label per agent."""
    if len(profile) != len(actions):
        raise ValueError(f"profile length {len(profile)} != agent count {len(actions)}")
    for i, (labels, label) in enumerate(zip(actions, profile)):
        if label not in labels:
            raise ValueError(f"agent {i}: unknown action {label!r}; valid: {list(labels)}")
    return tuple(labels.index(label) for labels, label in zip(actions, profile))


def _check_profile(actions, profile) -> tuple:
    """`profile` as a tuple, once it holds one action index per agent, each
    in range (a negative index would wrap to another action)."""
    profile = tuple(profile)
    if len(profile) != len(actions):
        raise ValueError(f"profile length {len(profile)} != agent count {len(actions)}")
    for i, (labels, a) in enumerate(zip(actions, profile)):
        if not isinstance(a, (int, np.integer)) or not 0 <= a < len(labels):
            raise ValueError(
                f"agent {i}: action index {a!r} outside 0..{len(labels) - 1}")
    return profile


class NashCheck(NamedTuple):
    is_nash: bool
    agent: int | None = None        # witness when not an equilibrium
    deviation: int | None = None    # the witness's better action
    gain: float | None = None


class WelfareReport(NamedTuple):
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
    if not isinstance(agent, (int, np.integer)) or not 0 <= agent < game.n_agents:
        raise ValueError(f"agent {agent!r} outside 0..{game.n_agents - 1}")
    sig = game.resolve_signal(signal)
    profile = _check_profile(game.actions, profile)
    sel = (agent,) + profile[:agent] + (slice(None),) + profile[agent + 1:]
    return game.payoffs[sig][sel].copy()


def best_responses(game: StrategicGame, agent: int, profile, signal=None):
    """All payoff-maximizing actions for `agent`; exact float ties."""
    vec = counterfactual_payoffs(game, agent, profile, signal)
    return tuple(np.flatnonzero(vec == vec.max()).tolist())


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
        for j in range(len(vec)):
            if vec[j] > base[i] + eps:
                return NashCheck(False, i, j, float(vec[j] - base[i]))
    return NashCheck(True)


def enumerate_pure_nash(game: StrategicGame, signal=None, eps: float = 0.0):
    """Pure (eps-)equilibria in lexicographic profile order: `is_nash`'s
    comparison as one boolean mask per agent (`np.fmax` skips NaN payoffs,
    as that comparison does)."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    sig = game.resolve_signal(signal)
    stable = True
    for i, tab in enumerate(game.payoffs[sig]):
        stable = stable & ~(np.fmax.reduce(tab, axis=i, keepdims=True) > tab + eps)
    return list(map(tuple, np.argwhere(stable).tolist()))


def welfare_and_poa(game: StrategicGame, signal=None) -> WelfareReport:
    """Utilitarian optimum vs worst pure equilibrium, maximize convention.

    Games without a pure equilibrium (or with a zero-welfare worst
    equilibrium) yield an undefined ratio rather than an exception.
    """
    sig = game.resolve_signal(signal)
    table = game.payoffs[sig]
    welfare = table.sum(axis=0)
    flat = int(np.argmax(welfare))
    opt_profile = tuple(int(a) for a in np.unravel_index(flat, welfare.shape))
    opt = float(welfare[opt_profile])
    eqs = tuple(enumerate_pure_nash(game, sig))
    if not eqs:
        return WelfareReport("maximize", opt, opt_profile, (), None, None,
                             False, "no pure equilibrium")
    worst = min(float(welfare[e]) for e in eqs)
    if worst == 0.0:
        return WelfareReport("maximize", opt, opt_profile, eqs, worst, None,
                             False, "zero-welfare equilibrium")
    return WelfareReport("maximize", opt, opt_profile, eqs, worst,
                         opt / worst, True)


def expected_payoffs(game: StrategicGame, mixed, signal=None) -> np.ndarray:
    """Per-agent expected payoffs under a product distribution. `mixed` is
    one probability vector per agent over that agent's actions, or one
    (S, k) batch of S of them per agent, giving (n, S) payoffs."""
    sig = game.resolve_signal(signal)
    mixed = [np.asarray(m, dtype=float) for m in mixed]
    return np.array([contract_others(table, None, mixed)
                     for table in game.payoffs[sig]])


def contract_others(table: np.ndarray, agent: int | None, mixed) -> np.ndarray:
    """Expectation of `table` (one axis per agent) over every agent's
    mixture but `agent`'s, leaving a vector over `agent`'s actions, or
    over every mixture when `agent` is None, leaving a scalar.

    The other agents' axes are contracted last to first, each as one
    matrix-vector product over that axis moved last with the rest in order
    (the layout of a tensor dot over that axis). Once the axes after `agent`
    are gone, the next one sits just before the agent's own axis, so moving
    it last is a swap of the last two axes. The float results depend on
    this order and layout, so keep both. Mixtures given as (S, k) batches
    (all or none) add a leading axis of S to the result, each row from its
    own matrix-vector product in a stacked matmul: its own call's bits.
    """
    g = table
    lead = ()                        # (S,) once g carries the batch axis
    for j in range(len(mixed) - 1, -1, -1):
        if j == agent:
            continue
        if agent is not None and j < agent:
            g = g.swapaxes(-1, -2)
        x = mixed[j]
        if getattr(x, "ndim", 1) == 2:
            g = np.matmul(g.reshape(lead + (-1, x.shape[1])), x[:, :, None]) \
                .reshape(x.shape[:1] + g.shape[len(lead):-1])
            lead = x.shape[:1]
        elif g.ndim <= 2:            # the reshapes below are no-ops here
            g = g.dot(x)
        else:
            g = g.reshape(-1, len(x)).dot(x).reshape(g.shape[:-1])
    return g


def mixed_gap(game: StrategicGame, mixed, signal=None) -> float | np.ndarray:
    """Largest unilateral expected gain at a product profile (0 at a Nash),
    or an array of S gaps for (S, k) batches; NaN gains are skipped, as by
    Python's `max`."""
    sig = game.resolve_signal(signal)
    mixed = [np.asarray(m, dtype=float) for m in mixed]
    base = expected_payoffs(game, mixed, sig)
    gap = 0.0
    for i, table in enumerate(game.payoffs[sig]):
        d = contract_others(table, i, mixed).max(axis=-1) - base[i]
        gap = np.where(d > gap, d, gap)
    return gap if gap.ndim else float(gap)
