"""Finite strategic-form games with optional coordination signals.

Payoffs are utilities to be maximized. A game holds one payoff table per
signal value; single-signal games use the default label. Profiles are tuples
of action indices, one per agent, and all argmax tie handling is exact float
comparison with smallest-index preference. Action labels only name the
actions; the library never looks one up.

A game has one constructor, `StrategicGame.from_tables(actions, tables)`,
and one table layout, which it takes and keeps: per signal one flat
sequence of n * |profiles| payoffs, the n per-agent payoffs of each profile
in turn, profiles in lexicographic action-index order (the order of
`profiles()` and `rows()`). So the payoff of agent i at the profile in
position p of that order is entry p * n + i, and agent i's payoffs along
its own actions, the others pinned, are one strided slice. Each table is
kept as a tuple of Python floats.

Only this module reads the stored tuples. The pure-profile kernels
(`payoff`, `best_responses`, `is_nash`, `enumerate_pure_nash`, and
`welfare_and_poa` over the equilibria that one found) run on the tuples in
plain Python and never load numpy. Their floats follow the operation order of the numpy
kernels they replaced, so they give the same bits: a sum over agents is
added left to right from 0.0, a maximum is the first one, and NaN payoffs
are skipped where `np.fmax` skipped them.

`payoffs` is the numpy view the mixed-strategy kernels and learning read:
per signal a read-only, C-ordered float64 array of shape
(n, |X_0|, ..., |X_{n-1}|), built from the tuple on first read and cached.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from ._np import np

from .errors import CapacityError

DEFAULT_SIGNAL = "default"
MAX_AGENTS = 6
MAX_GRID = 10 ** 6


class StrategicGame:
    __slots__ = ("actions", "_tables", "_views")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a game with StrategicGame.from_tables(actions, tables)")

    @staticmethod
    def from_tables(actions, tables) -> "StrategicGame":
        """Build from {signal: table}, each table one flat sequence of the
        n per-agent payoffs of each profile in turn, in `profiles()` order.
        The caps and labels are checked before any table is read."""
        actions = tuple(tuple(a) for a in actions)
        size = math.prod(_table_shape(actions))
        if not tables:
            raise ValueError("at least one signal table required")
        flats = {}
        for sig, flat in tables.items():
            if len(flat) != size:
                raise ValueError(f"signal {sig!r}: {len(flat)} payoffs, want {size}")
            flats[sig] = tuple(map(float, flat))
        game = object.__new__(StrategicGame)
        game.actions, game._tables, game._views = actions, flats, None
        return game

    def subgame(self, keep) -> "StrategicGame":
        """The game in which agent i plays only the actions `keep[i]`, in
        that order."""
        if len(keep) != self.n_agents:
            raise ValueError(f"{len(keep)} action sets for {self.n_agents} agents")
        for i, (labels, idx) in enumerate(zip(self.actions, keep)):
            for j in idx:
                if not _is_index(j) or not 0 <= j < len(labels):
                    raise IndexError(
                        f"agent {i}: action index {j!r} outside 0..{len(labels) - 1}")
        keep = [[int(j) for j in idx] for idx in keep]
        n = self.n_agents
        starts = [_position(self.actions, p) * n for p in itertools.product(*keep)]
        return StrategicGame.from_tables(
            [[labels[j] for j in idx] for labels, idx in zip(self.actions, keep)],
            {sig: [x for k in starts for x in flat[k:k + n]]
             for sig, flat in self._tables.items()})

    # -- basics ----------------------------------------------------------------

    @property
    def n_agents(self) -> int:
        return len(self.actions)

    @property
    def signals(self) -> tuple:
        return tuple(self._tables)

    @property
    def payoffs(self) -> dict:
        """signal -> read-only ndarray of shape (n, |X_0|, ..., |X_{n-1}|)."""
        if self._views is None:
            shape = (self.n_agents,) + tuple(len(a) for a in self.actions)
            self._views = {}
            for sig, flat in self._tables.items():
                view = np.array(flat).reshape(-1, shape[0]).T.copy().reshape(shape)
                view.flags.writeable = False
                self._views[sig] = view
        return self._views

    def resolve_signal(self, signal=None) -> str:
        if signal is None:
            if len(self._tables) == 1:
                return next(iter(self._tables))
            raise ValueError(
                f"signal required, game has {sorted(self._tables)}")
        if signal not in self._tables:
            raise ValueError(
                f"unknown signal {signal!r}; valid: {sorted(self._tables)}")
        return signal

    def profiles(self):
        """All profiles in lexicographic action-index order."""
        return itertools.product(*(range(len(a)) for a in self.actions))

    def rows(self, signal=None):
        """The per-agent payoff tuple of each profile, in `profiles()` order."""
        flat = self._tables[self.resolve_signal(signal)]
        return zip(*[iter(flat)] * self.n_agents)

    def payoff_columns(self, signal=None) -> list:
        """Each agent's payoffs over all profiles, in `profiles()` order."""
        flat = self._tables[self.resolve_signal(signal)]
        return [flat[i::self.n_agents] for i in range(self.n_agents)]

    def payoff(self, profile, signal=None) -> tuple:
        """Per-agent payoffs at a pure profile."""
        flat = self._tables[self.resolve_signal(signal)]
        k = _position(self.actions, _check_profile(self.actions, profile)) * self.n_agents
        return flat[k:k + self.n_agents]


def _table_shape(actions) -> tuple:
    """The payoff table shape (n, |X_0|, ..., |X_{n-1}|) of a game over
    `actions`, once the agent count, the labels and the grid are checked."""
    n = len(actions)
    if not 2 <= n <= MAX_AGENTS:
        raise CapacityError(f"agent count {n} outside 2..{MAX_AGENTS}")
    for labels in actions:
        if len(labels) == 0:
            raise ValueError("every agent needs at least one action")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate action labels in {labels}")
    grid = math.prod(len(labels) for labels in actions)
    if grid > MAX_GRID:
        raise CapacityError(f"profile grid {grid} exceeds {MAX_GRID}")
    return (n,) + tuple(len(labels) for labels in actions)


def _position(actions, profile) -> int:
    """The position of a checked profile in lexicographic profile order."""
    p = 0
    for labels, a in zip(actions, profile):
        p = p * len(labels) + a
    return p


def _column(game: StrategicGame, flat, agent: int, profile) -> tuple:
    """`agent`'s payoffs over its own actions, the others held at `profile`
    (checked), from one flat table."""
    n = game.n_agents
    step = n * math.prod(len(labels) for labels in game.actions[agent + 1:])
    start = _position(game.actions, profile) * n - profile[agent] * step + agent
    return flat[start:start + step * len(game.actions[agent]):step]


def _total(values) -> float:
    """The sum of at most `MAX_AGENTS` floats, left to right from 0.0: the
    order of numpy's sum, whether of one vector or over a table's agent
    axis, at fewer than 8 terms."""
    s = 0.0
    for v in values:
        s += v
    return s


def _max(values) -> float:
    """The largest of `values`, or NaN when any is NaN, as numpy's `max`."""
    if any(v != v for v in values):
        return math.nan
    return max(values)


def _is_index(a) -> bool:
    """Whether `a` is an int or a numpy integer; a value whose type is not
    numpy's reads nothing of numpy."""
    return isinstance(a, int) or (type(a).__module__ == "numpy"
                                  and isinstance(a, np.integer))


def _check_profile(actions, profile) -> tuple:
    """`profile` as a tuple of ints, once it holds one action index per
    agent, each in range (a negative index would wrap to another action)."""
    profile = tuple(profile)
    if len(profile) != len(actions):
        raise ValueError(f"profile length {len(profile)} != agent count {len(actions)}")
    for i, (labels, a) in enumerate(zip(actions, profile)):
        if not _is_index(a) or not 0 <= a < len(labels):
            raise ValueError(
                f"agent {i}: action index {a!r} outside 0..{len(labels) - 1}")
    return tuple(map(int, profile))


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
                           signal=None) -> tuple:
    """Payoffs over `agent`'s actions with the others pinned."""
    if not _is_index(agent) or not 0 <= agent < game.n_agents:
        raise ValueError(f"agent {agent!r} outside 0..{game.n_agents - 1}")
    flat = game._tables[game.resolve_signal(signal)]
    return _column(game, flat, int(agent), _check_profile(game.actions, profile))


def best_responses(game: StrategicGame, agent: int, profile, signal=None):
    """All payoff-maximizing actions for `agent`; exact float ties, and
    none where a payoff is NaN."""
    vec = counterfactual_payoffs(game, agent, profile, signal)
    best = _max(vec)
    return tuple(j for j, v in enumerate(vec) if v == best)


def is_nash(game: StrategicGame, profile, eps: float = 0.0,
            signal=None) -> NashCheck:
    """Epsilon-equilibrium check; witness is the first profitable deviation
    in (agent, action) index order."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    sig = game.resolve_signal(signal)
    base = game.payoff(profile, sig)
    profile = _check_profile(game.actions, profile)
    flat = game._tables[sig]
    for i in range(game.n_agents):
        for j, v in enumerate(_column(game, flat, i, profile)):
            if v > base[i] + eps:
                return NashCheck(False, i, j, v - base[i])
    return NashCheck(True)


def enumerate_pure_nash(game: StrategicGame, signal=None, eps: float = 0.0):
    """Pure (eps-)equilibria in lexicographic profile order: the profiles
    where no agent's best payoff along its own actions beats its payoff
    plus `eps`. NaN payoffs are skipped in that best payoff, as `np.fmax`
    skips them, and a NaN payoff is never beaten, as `is_nash` never
    counts it."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    flat = game._tables[game.resolve_signal(signal)]
    n = game.n_agents
    grid = len(flat) // n
    stable = bytearray(b"\x01") * grid
    stride = grid                   # profiles between two actions of agent i
    for i, labels in enumerate(game.actions):
        stride //= len(labels)
        span = stride * len(labels)
        col = flat[i::n]            # agent i's payoff at every profile
        for block in range(0, grid, span):
            for p in range(block, block + stride):
                fiber = col[p:p + span:stride]
                best = max(fiber)   # skips NaN unless the first is NaN
                if best != best:
                    best = max((v for v in fiber if v == v), default=best)
                for j, v in enumerate(fiber):
                    if best > v + eps:
                        stable[p + j * stride] = 0
    return list(itertools.compress(game.profiles(), stable))


def welfare_and_poa(game: StrategicGame, equilibria, signal=None) -> WelfareReport:
    """Utilitarian optimum vs worst pure equilibrium, maximize convention.

    `equilibria` are the pure equilibria `enumerate_pure_nash` found at
    eps = 0; none (or a zero-welfare worst one) yields an undefined ratio
    rather than an exception. The optimum is the first profile of greatest
    welfare, or the first of NaN welfare, as `np.argmax` picks.
    """
    welfare = [_total(row) for row in game.rows(signal)]
    best = next((p for p, w in enumerate(welfare) if w != w), None)
    if best is None:
        best = welfare.index(max(welfare))
    opt_profile = next(itertools.islice(game.profiles(), best, None))
    opt = welfare[best]
    eqs = tuple(equilibria)
    if not eqs:
        return WelfareReport("maximize", opt, opt_profile, (), None, None,
                             False, "no pure equilibrium")
    worst = min(welfare[_position(game.actions, e)] for e in eqs)
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
