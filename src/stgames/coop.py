"""Transferable-utility coalition games on bitmask coalitions.

Coalitions are bitmasks over agents 0..n-1 (agent i is bit i); the empty
coalition is worth exactly 0. Allocations are length-n float vectors.
Feasibility tolerances are 1e-9 throughout.
"""

from __future__ import annotations

from typing import NamedTuple

from ._np import np

from .errors import CapacityError, ComputationError
from .lp import LinearProgram, solve_lp

MAX_AGENTS = 20
MAX_PAIR_CHECK_AGENTS = 14   # superadditive/convex scan 4^n coalition pairs
TOL = 1e-9


class CoalitionGame:
    __slots__ = ("n", "values")

    def __init__(self, n: int, values: tuple):
        self.n = n
        self.values = values    # value per mask, index = bitmask, length 2^n
        if not 1 <= n <= MAX_AGENTS:
            raise CapacityError(f"agent count {n} outside 1..{MAX_AGENTS}")
        if len(values) != 1 << n:
            raise ValueError(
                f"need {1 << n} coalition values, got {len(values)}")
        if values[0] != 0.0:
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


def _incidence(masks, n: int) -> np.ndarray:
    """0/1 rows, one per coalition in `masks`, marking its members."""
    return (np.asarray(masks)[:, None] >> np.arange(n) & 1).astype(float)


def _subset_sums(x) -> np.ndarray:
    """x(S) for every mask S, by doubling. Each sum adds S's members in
    ascending order starting from 0, as `sum(x[i] for i in members(S))`
    does, so every bit matches that loop."""
    s = np.zeros(1 << len(x))
    for i, xi in enumerate(x):
        np.add(s[:1 << i], xi, out=s[1 << i:2 << i])
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


class CoreReport(NamedTuple):
    nonempty: bool
    certificate: np.ndarray | None     # a core allocation when nonempty
    lp_optimum: float                  # min total payout covering every coalition


def _outside_span(rows) -> np.ndarray:
    """Mask over all 2^n coalitions: True where the incidence row is not in
    the row space of `rows` (singular values above 1e-8). A coalition is
    outside it iff its row has a component along some basis vector q of the
    complement, and the sums x(S) @ q for every S take one subset-sum pass."""
    _, sing, vt = np.linalg.svd(rows)
    out = np.zeros(1 << rows.shape[1], dtype=bool)
    for q in vt[int(np.count_nonzero(sing > 1e-8)):]:
        out |= np.abs(_subset_sums(q)) > 1e-8
    return out


def _merge(work, new, n: int) -> np.ndarray:
    """The sorted masks in `work` or `new`, as `np.union1d` gives them.
    `np.union1d` sorts through `np.unique`, which imports all of `numpy.ma`
    on its first call; a membership mask over the 2^n coalitions does not."""
    hit = np.zeros(1 << n, dtype=bool)
    hit[work] = True
    hit[new] = True
    return np.flatnonzero(hit)


def _most_violated(gap, limit: int) -> np.ndarray:
    """Up to `limit` masks whose gap exceeds TOL, the largest gaps."""
    hit = np.flatnonzero(gap > TOL)
    if hit.size > limit:
        hit = hit[np.argpartition(-gap[hit], limit - 1)[:limit]]
    return hit


def core_nonempty(game: CoalitionGame) -> CoreReport:
    """LP check: minimize total payout subject to coalition rationality.

    The core is nonempty iff the optimum is <= v(full) + 1e-9; the optimal
    allocation (padded up to efficiency) is returned as a certificate.
    The LP is solved by row generation: starting from the singletons and
    the grand coalition, each round adds up to n of the coalitions that the
    last optimum underpays most, until none is underpaid by more than 1e-9.
    """
    n = game.n
    v = _value_array(game)
    work = _merge(1 << np.arange(n), game.full, n)
    while True:
        # Solving for x - shift puts the starting point x = shift strictly
        # inside every row, so the LP needs no phase 1. Columns run from
        # agent n-1 down to agent 0: Bland's rule lowers the first column
        # first, and in this order the certificate of the three-agent
        # fixture is the one the full (2^n - 1)-row LP gave.
        lhs = _incidence(work, n)[:, ::-1]
        shift = 1.0 + max(0.0, float(v[work].max()))
        sol = solve_lp(LinearProgram(
            objective=np.ones(n),
            lhs=lhs,
            senses=(">=",) * work.size,
            rhs=v[work] - shift * lhs.sum(axis=1),
            lower=np.full(n, -np.inf),
        ))
        if sol.status != "optimal":
            raise CapacityError(f"core LP ended {sol.status}")
        x = sol.x[::-1] + shift
        gap = v - _subset_sums(x)
        gap[work] = -np.inf
        new = _most_violated(gap, n)
        if not new.size:
            break
        work = _merge(work, new, n)
    vfull = game.value(game.full)
    total = float(x.sum())
    if total > vfull + TOL:
        return CoreReport(False, None, total)
    x[0] += vfull - total      # pad to efficiency; only raises sums
    return CoreReport(True, x, total)


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


class NucleolusReport(NamedTuple):
    allocation: np.ndarray
    stages: int
    levels: tuple        # max-excess value fixed at each stage


def nucleolus(game: CoalitionGame) -> NucleolusReport:
    """Successive-LP nucleolus (Maschler, Peleg and Shapley, 1979).

    Each stage minimizes the maximum excess eps over the free coalitions,
    subject to efficiency and the excess levels fixed so far. A coalition
    whose row dual is nonzero at the stage optimum binds in every optimum,
    so it is fixed at eps. A coalition whose incidence row lies in the span
    of the fixed rows has the same excess at every allocation left, so it
    is no longer free. Each stage therefore raises the rank of the fixed
    rows, and at most n - 1 stages pin the allocation.

    Each stage LP is solved by row generation. It starts from the free
    singletons, which with the fixed rows bound eps below, and the rows of
    the last stage's working set that are still free. Each round adds up to
    n of the free coalitions whose excess exceeds eps most, until none
    exceeds it by more than 1e-9. Rows never added have zero dual, so the
    duals are those of the full stage LP.
    """
    n = game.n
    if n == 1:
        return NucleolusReport(np.asarray([game.value(1)]), 0, ())

    v = _value_array(game)
    singletons = 1 << np.arange(n)
    tied = np.asarray([game.full])   # efficiency, then masks in fixing order
    tied_rhs = v[tied]               # v(S) less the level S was fixed at
    free = np.ones(1 << n, dtype=bool)   # proper, not fixed, not spanned
    free[[0, game.full]] = False
    obj = np.zeros(n + 1)            # variables r_0..r_{n-1}, eps; unbounded
    obj[n] = 1.0
    levels = []
    work = singletons
    while True:
        # Rows: the tied ones as equalities, then r(S) + eps >= v(S)
        # (excess <= eps) for every S in the working set. Solving for
        # eps - shift puts the starting point (r, eps) = (0, shift)
        # strictly inside every >= row, so only the tied rows need phase 1.
        k = tied.size
        work = _merge(singletons, work, n)
        work = work[free[work]]
        while True:
            lhs = np.zeros((k + work.size, n + 1))
            lhs[:, :n] = _incidence(np.concatenate((tied, work)), n)
            lhs[k:, n] = 1.0
            shift = 1.0 + max(0.0, float(v[work].max()))
            sol = solve_lp(LinearProgram(
                obj, lhs, ("==",) * k + (">=",) * work.size,
                np.concatenate((tied_rhs, v[work] - shift)),
                lower=np.full(n + 1, -np.inf)))
            if sol.status != "optimal":
                raise CapacityError(f"nucleolus stage LP ended {sol.status}")
            eps = float(sol.x[n]) + shift
            gap = v - _subset_sums(sol.x[:n]) - eps
            gap[~free] = -np.inf
            gap[work] = -np.inf
            new = _most_violated(gap, n)
            if not new.size:
                break
            work = _merge(work, new, n)
        levels.append(eps)

        # At an optimum the working-set duals sum to 1 (eps has cost 1), so
        # a stage that fixes nothing means the LP kernel failed.
        newly = work[np.abs(sol.duals[k:]) > TOL]
        if not newly.size:
            raise ComputationError(
                f"nucleolus stage {len(levels)} has no nonzero dual")
        tied = np.concatenate((tied, newly))
        tied_rhs = np.concatenate((tied_rhs, v[newly] - eps))
        mat = _incidence(tied, n)
        free &= _outside_span(mat)
        if not free.any():
            final = np.linalg.lstsq(mat, tied_rhs, rcond=None)[0]
            return NucleolusReport(final, len(levels), tuple(levels))
