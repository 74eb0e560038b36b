"""Transferable-utility coalition games on bitmask coalitions.

Coalitions are bitmasks over agents 0..n-1 (agent i is bit i); the empty
coalition is worth exactly 0. Allocations are length-n float vectors.
Feasibility tolerances are 1e-9 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .lp import LinearProgram, _tableau_width, solve_lp

MAX_AGENTS = 20
MAX_NUCLEOLUS_AGENTS = 12
MAX_PAIR_CHECK_AGENTS = 14   # superadditive/convex scan 4^n coalition pairs
TOL = 1e-9


@dataclass(frozen=True)
class CoalitionGame:
    n: int
    values: tuple        # value per mask, index = bitmask, length 2^n

    def __post_init__(self):
        if not 1 <= self.n <= MAX_AGENTS:
            raise CapacityError(f"agent count {self.n} outside 1..{MAX_AGENTS}")
        if len(self.values) != 1 << self.n:
            raise ValueError(
                f"need {1 << self.n} coalition values, got {len(self.values)}")
        if self.values[0] != 0.0:
            raise ValueError("the empty coalition must be worth 0")

    @staticmethod
    def from_dict(n: int, values: dict) -> "CoalitionGame":
        """Build from {mask: value}; unspecified masks default to 0."""
        table = [0.0] * (1 << n)
        for mask, v in values.items():
            if not 0 <= mask < (1 << n):
                raise ValueError(f"mask {mask} out of range for n={n}")
            table[mask] = float(v)
        return CoalitionGame(n, tuple(table))

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def value(self, mask: int) -> float:
        if not 0 <= mask <= self.full:
            raise ValueError(f"mask {mask} out of range for n={self.n}")
        return self.values[mask]


def members(mask: int):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _membership(n: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix whose row S marks the members of coalition S."""
    return (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(float)


def _subset_sums(x) -> np.ndarray:
    """x(S) for every mask S, by doubling. Each sum adds S's members in
    ascending order starting from 0, as `sum(x[i] for i in members(S))`
    does, so every bit matches that loop."""
    s = np.zeros(1 << len(x))
    for i, xi in enumerate(x):
        s[1 << i:2 << i] = s[:1 << i] + xi
    return s


def _value_array(game: CoalitionGame) -> np.ndarray:
    return np.asarray(game.values, dtype=float)


def _pair_check_values(game: CoalitionGame, check: str) -> np.ndarray:
    """The value array, once the 4^n pair scan of `check` is known to fit."""
    if game.n > MAX_PAIR_CHECK_AGENTS:
        raise CapacityError(f"{check} check capped at {MAX_PAIR_CHECK_AGENTS} "
                            f"agents (4^n coalition pairs), got {game.n}")
    return _value_array(game)


def is_superadditive(game: CoalitionGame) -> bool:
    """v(S) + v(T) <= v(S | T) for every disjoint S, T (tolerance 1e-9)."""
    v = _pair_check_values(game, "superadditive")
    masks = np.arange(1 << game.n)
    for s in range(1, game.full + 1):
        t = masks[(masks & s) == 0]
        if np.any(v[s] + v[t] > v[s | t] + TOL):
            return False
    return True


def is_convex(game: CoalitionGame) -> bool:
    """v(S) + v(T) <= v(S | T) + v(S & T) for all S, T (supermodularity)."""
    v = _pair_check_values(game, "convex")
    masks = np.arange(1 << game.n)
    for s in range(1, game.full + 1):
        if np.any(v[s] + v[masks] > v[s | masks] + v[s & masks] + TOL):
            return False
    return True


def cooperative_surplus(game: CoalitionGame) -> float:
    """Grand-coalition value minus the sum of singleton values."""
    return game.value(game.full) - sum(
        game.value(1 << i) for i in range(game.n))


def excess(game: CoalitionGame, mask: int, allocation) -> float:
    """e(S, r) = v(S) - sum of r over S members."""
    if mask == 0 or mask > game.full:
        raise ValueError(f"mask must name a nonempty coalition, got {mask}")
    r = np.asarray(allocation, dtype=float)
    if r.shape != (game.n,):
        raise ValueError(f"allocation must have length {game.n}")
    return game.value(mask) - float(sum(r[i] for i in members(mask)))


def in_core(game: CoalitionGame, allocation) -> bool:
    """Efficient and no coalition has positive excess (tolerance 1e-9)."""
    r = np.asarray(allocation, dtype=float)
    if r.shape != (game.n,):
        raise ValueError(f"allocation must have length {game.n}")
    if abs(float(r.sum()) - game.value(game.full)) > TOL:
        return False
    return bool(np.all(_value_array(game)[1:] - _subset_sums(r)[1:] <= TOL))


@dataclass(frozen=True)
class CoreReport:
    nonempty: bool
    certificate: np.ndarray | None     # a core allocation when nonempty
    lp_optimum: float                  # min total payout covering every coalition


def core_nonempty(game: CoalitionGame) -> CoreReport:
    """LP check: minimize total payout subject to coalition rationality.

    The core is nonempty iff the optimum is <= v(full) + 1e-9; the optimal
    allocation (padded up to efficiency) is returned as a certificate.
    """
    n, m = game.n, game.full
    v = _value_array(game)
    # Refuse an oversized tableau before building any row: each free
    # variable splits in two, and a >= row with a negative rhs is negated
    # into a <= row, which needs no artificial column.
    _tableau_width(m, 2 * n, m, int(np.count_nonzero(v[1:] >= 0)))
    lp = LinearProgram(
        objective=np.ones(n),
        lhs=_membership(n)[1:],
        senses=(">=",) * m,
        rhs=v[1:],
        lower=np.full(n, -np.inf),
    )
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise CapacityError(f"core LP ended {sol.status}")
    vfull = game.value(game.full)
    if sol.objective > vfull + TOL:
        return CoreReport(False, None, sol.objective)
    cert = sol.x.copy()
    cert[0] += vfull - cert.sum()      # pad to efficiency; only raises sums
    return CoreReport(True, cert, sol.objective)


def shapley(game: CoalitionGame) -> np.ndarray:
    """Exact Shapley value by subset enumeration.

    phi_i = sum over S not containing i of
            |S|! (n - |S| - 1)! / n! * (v(S + i) - v(S)).
    """
    n = game.n
    v = _value_array(game)
    size = _subset_sums(np.ones(n)).astype(np.int64)
    fact = [1] * (n + 1)
    for k in range(1, n + 1):
        fact[k] = fact[k - 1] * k
    weight_by_size = np.asarray(
        [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])
    masks = np.arange(1 << n)
    phi = np.zeros(n)
    for i in range(n):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        w = weight_by_size[size[without]]
        phi[i] = float(w @ (v[without | bit] - v[without]))
    return phi


@dataclass(frozen=True)
class NucleolusReport:
    allocation: np.ndarray
    stages: int
    levels: tuple        # max-excess value fixed at each stage


def nucleolus(game: CoalitionGame) -> NucleolusReport:
    """Successive-LP nucleolus.

    Each stage minimizes the maximum excess over coalitions not yet fixed,
    subject to efficiency and previously fixed excess levels. Coalitions
    whose row dual is nonzero at the stage optimum are fixed there (nonzero
    dual certifies the row binds in every optimal solution); if the stage is
    so degenerate that no dual is nonzero, all tight rows are fixed instead.
    Stages stop once efficiency plus the fixed rows pin the allocation.
    """
    n = game.n
    if n > MAX_NUCLEOLUS_AGENTS:
        raise CapacityError(
            f"nucleolus capped at {MAX_NUCLEOLUS_AGENTS} agents, got {n}")
    if n == 1:
        return NucleolusReport(np.asarray([game.value(1)]), 0, ())

    member = _membership(n)
    v = _value_array(game)
    tied = np.asarray([game.full])   # efficiency, then masks in fixing order
    tied_rhs = v[tied]               # v(S) less the level S was fixed at
    obj = np.zeros(n + 1)            # variables r_0..r_{n-1}, eps; all free
    obj[n] = 1.0
    levels = []
    stage = 0
    while True:
        stage += 1
        if stage > (1 << n):
            raise CapacityError("nucleolus stage count exceeded 2^n")
        unfixed = np.setdiff1d(np.arange(1, game.full), tied)
        # Rows: the tied ones as equalities, then r(S) + eps >= v(S)
        # (excess <= eps) for every unfixed S.
        k = tied.size
        lhs = np.zeros((k + unfixed.size, n + 1))
        lhs[:, :n] = member[np.concatenate((tied, unfixed))]
        lhs[k:, n] = 1.0
        sol = solve_lp(LinearProgram(
            obj, lhs, ("==",) * k + (">=",) * unfixed.size,
            np.concatenate((tied_rhs, v[unfixed])), lower=np.full(n + 1, -np.inf)))
        if sol.status != "optimal":
            raise CapacityError(f"nucleolus stage LP ended {sol.status}")
        eps = float(sol.x[n])
        levels.append(eps)

        newly = np.flatnonzero(np.abs(sol.duals[k:]) > TOL)
        if not newly.size:
            exc = v[unfixed] - _subset_sums(sol.x[:n])[unfixed]
            newly = np.flatnonzero(np.abs(exc - eps) <= 10 * TOL)
        tied = np.concatenate((tied, unfixed[newly]))
        tied_rhs = np.concatenate((tied_rhs, v[unfixed[newly]] - eps))
        mat = member[tied]
        if np.linalg.matrix_rank(mat, tol=1e-8) == n or tied.size == game.full:
            final = np.linalg.lstsq(mat, tied_rhs, rcond=None)[0]
            return NucleolusReport(final, stage, tuple(levels))
