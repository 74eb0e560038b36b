"""Coalition game tests.

Shapley values are cross-checked against a permutation-enumeration oracle,
the nucleolus against a lexicographic grid search over the efficient simplex
and against sequential LPs solved by scipy's HiGHS, and the core LP against
brute-force grid feasibility and HiGHS. Oracle code here is deliberately
independent of the library internals.
"""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from stgames import coop as coopmod
from stgames.coop import (CoalitionGame, cooperative_surplus, core_nonempty,
                          excess, in_core, is_convex, is_superadditive,
                          members, nucleolus, shapley)
from stgames.errors import CapacityError, ComputationError
from stgames.lp import LinearProgram

# three agents, no solo value, pairs worth 1/2, grand coalition worth 1
WORKED = CoalitionGame.from_dict(
    3, {0b001: 0.0, 0b010: 0.0, 0b100: 0.0,
        0b011: 0.5, 0b101: 0.5, 0b110: 0.5, 0b111: 1.0})

MAJORITY = CoalitionGame.from_dict(
    3, {0b011: 1.0, 0b101: 1.0, 0b110: 1.0, 0b111: 1.0})


# ---------------------------------------------------------------- oracles --

def shapley_by_permutations(game):
    """Average marginal contribution over all join orders."""
    n = game.n
    total = np.zeros(n)
    for perm in itertools.permutations(range(n)):
        mask = 0
        for i in perm:
            before = game.value(mask)
            mask |= 1 << i
            total[i] += game.value(mask) - before
    return total / math.factorial(n)


_IND3 = np.asarray([[1, 0, 0], [0, 1, 0], [1, 1, 0],
                    [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float)


def _simplex_grid_int(k):
    """Integer lattice points (i, j, k - i - j) with i, j >= 0, i + j <= k."""
    i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    keep = (i + j) <= k
    return np.column_stack([i[keep], j[keep], k - i[keep] - j[keep]])


def nucleolus_by_grid(game, step=1e-3):
    """Lexicographic minimum of sorted excess vectors over a simplex grid.

    Works in grid units (integer coalition sums) so points sharing a
    coalition total produce bit-identical excess entries; otherwise float
    noise, not the later vector components, would break ties. Only valid
    for 3-agent games with v(full) = 1 whose nucleolus is individually
    rational, e.g. superadditive games with zero singleton values.
    """
    k = round(1.0 / step)
    pts = _simplex_grid_int(k)
    v = np.asarray([game.value(m) * k for m in (1, 2, 3, 4, 5, 6)])
    exc = v[None, :] - (pts @ _IND3.T.astype(np.int64))
    exc.sort(axis=1)
    exc = exc[:, ::-1]
    order = np.lexsort(tuple(exc[:, c] for c in range(5, -1, -1)))
    return pts[order[0]].astype(float) * step


def core_feasible_by_grid(game, step=1e-2):
    k = round(1.0 / step)
    pts = _simplex_grid_int(k).astype(float) * step
    v = np.asarray([game.value(m) for m in (1, 2, 3, 4, 5, 6)])
    ok = np.all(pts @ _IND3.T >= v[None, :] - 1e-12, axis=1)
    return bool(ok.any())


def _incidence_rows(n):
    return np.asarray([[m >> i & 1 for i in range(n)] for m in range(1 << n)],
                      dtype=float)


def core_optimum_by_highs(game):
    """min x(N) subject to x(S) >= v(S) for every nonempty S, by HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    v = np.asarray(game.values, dtype=float)
    res = linprog(np.ones(game.n), A_ub=-_incidence_rows(game.n)[1:],
                  b_ub=-v[1:], bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def nucleolus_by_highs(game):
    """Sequential-LP nucleolus (Maschler, Peleg and Shapley, 1979) by HiGHS,
    one row per coalition. Each stage minimizes the largest excess t over
    the free coalitions and fixes those whose row has a nonzero dual; a
    coalition whose row lies in the span of the fixed rows leaves the free
    set, since its excess no longer varies."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = game.n
    v = np.asarray(game.values, dtype=float)
    if n == 1:
        return v[1:]
    inc = _incidence_rows(n)
    rows, rhs = [inc[game.full]], [v[game.full]]
    free = list(range(1, game.full))
    obj = np.zeros(n + 1)
    obj[n] = 1.0
    while True:
        res = linprog(
            obj, A_ub=-np.hstack([inc[free], np.ones((len(free), 1))]),
            b_ub=-v[free], A_eq=np.hstack([rows, np.zeros((len(rows), 1))]),
            b_eq=rhs, bounds=(None, None), method="highs")
        assert res.status == 0, res.message
        newly = [s for s, d in zip(free, res.ineqlin.marginals) if abs(d) > 1e-9]
        assert newly
        for s in newly:
            rows.append(inc[s])
            rhs.append(v[s] - res.x[n])
        rank = np.linalg.matrix_rank(np.asarray(rows))
        if rank == n:
            return np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)[0]
        free = [s for s in free if s not in newly
                and np.linalg.matrix_rank(np.vstack([rows, inc[s]])) > rank]


def size_symmetric_game(n, by_size):
    """v(S) = by_size[|S|]: every agent is alike, so the nucleolus is the
    equal split."""
    return CoalitionGame.from_dict(
        n, {m: float(by_size[len(members(m))]) for m in range(1, 1 << n)})


def random_game(rng, n):
    vals = {}
    for mask in range(1, 1 << n):
        vals[mask] = float(rng.uniform(-1.0, 2.0))
    return CoalitionGame.from_dict(n, vals)


def random_superadditive_3(rng):
    """Zero singletons, pairs in [0, 1], grand value 1."""
    return CoalitionGame.from_dict(
        3, {0b011: float(rng.uniform(0, 1)),
            0b101: float(rng.uniform(0, 1)),
            0b110: float(rng.uniform(0, 1)),
            0b111: 1.0})


def random_convex(rng, n):
    """v(S) = |S|^2 plus nonnegative pairwise synergies inside S."""
    w = rng.uniform(0.0, 1.0, size=(n, n))
    w = np.triu(w, 1)
    vals = {}
    for mask in range(1, 1 << n):
        group = members(mask)
        pair = sum(w[i][j] for i, j in itertools.combinations(group, 2))
        vals[mask] = float(len(group) ** 2 + pair)
    return CoalitionGame.from_dict(n, vals)


# ------------------------------------------------------------------ tests --

def test_worked_three_agent_game():
    g = WORKED
    assert is_superadditive(g)
    assert is_convex(g)
    assert cooperative_surplus(g) == pytest.approx(1.0)

    phi = shapley(g)
    assert phi == pytest.approx([1 / 3] * 3, abs=1e-12)
    assert in_core(g, phi)

    rep = core_nonempty(g)
    assert rep.nonempty
    assert in_core(g, rep.certificate)
    # equal split and a tilted point are stable; starving a pair is not
    assert in_core(g, [0.5, 0.25, 0.25])
    assert not in_core(g, [0.6, 0.2, 0.2])
    assert not in_core(g, [0.4, 0.3, 0.2])       # inefficient

    nuc = nucleolus(g)
    assert nuc.allocation == pytest.approx([1 / 3] * 3, abs=1e-9)


def test_members_and_dict_construction():
    assert members(0b101) == [0, 2]
    assert members(0) == []
    g = CoalitionGame.from_dict(2, {0b11: 4.0})
    assert g.value(0b01) == 0.0 and g.value(0b11) == 4.0
    with pytest.raises(ValueError):
        CoalitionGame.from_dict(2, {0b100: 1.0})
    with pytest.raises(ValueError):
        CoalitionGame(2, (1.0, 0.0, 0.0, 0.0))     # empty coalition paid
    with pytest.raises(ValueError):
        CoalitionGame(2, (0.0, 0.0, 0.0))
    with pytest.raises(CapacityError):
        CoalitionGame(21, tuple([0.0] * (1 << 21)))


def test_structure_predicates():
    additive = CoalitionGame.from_dict(
        3, {m: float(sum(i + 1 for i in members(m))) for m in range(1, 8)})
    assert is_superadditive(additive)
    assert is_convex(additive)

    spiky = CoalitionGame.from_dict(
        3, {0b011: 0.9, 0b101: 0.9, 0b110: 0.9, 0b111: 1.0})
    assert is_superadditive(spiky)
    assert not is_convex(spiky)          # two pairs overlap on one agent

    broken = CoalitionGame.from_dict(3, {0b011: 0.5, 0b111: 0.4})
    assert not is_superadditive(broken)


def test_excess_values_and_validation():
    g = WORKED
    r = [0.5, 0.3, 0.2]
    assert excess(g, 0b110, r) == pytest.approx(0.5 - 0.5)
    assert excess(g, 0b001, r) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        excess(g, 0, r)
    with pytest.raises(ValueError):
        excess(g, 0b1111, r)
    with pytest.raises(ValueError):
        in_core(g, [0.5, 0.5])


def test_shapley_matches_permutation_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        g = random_game(rng, n)
        assert shapley(g) == pytest.approx(
            shapley_by_permutations(g), abs=1e-9)


def test_shapley_axioms():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        g = random_game(rng, n)
        phi = shapley(g)
        # efficiency
        assert float(phi.sum()) == pytest.approx(g.value(g.full), abs=1e-9)
        # additivity
        h = random_game(rng, n)
        combo = CoalitionGame(
            n, tuple(a + b for a, b in zip(g.values, h.values)))
        assert shapley(combo) == pytest.approx(phi + shapley(h), abs=1e-9)
        # dummy agent: appending agent n with zero marginal contribution
        ext = {}
        for mask in range(1, 1 << (n + 1)):
            ext[mask] = g.values[mask & ((1 << n) - 1)]
        g_ext = CoalitionGame.from_dict(n + 1, ext)
        phi_ext = shapley(g_ext)
        assert phi_ext[n] == pytest.approx(0.0, abs=1e-9)
        assert phi_ext[:n] == pytest.approx(phi, abs=1e-9)

    # symmetry: coalition value depends on size only, so all agents tie
    for n in (3, 4, 5):
        sizes = np.random.default_rng(n).uniform(0, 5, size=n + 1)
        sizes[0] = 0.0
        g = CoalitionGame.from_dict(
            n, {m: float(sizes[len(members(m))]) for m in range(1, 1 << n)})
        phi = shapley(g)
        assert np.ptp(phi) <= 1e-12


def test_convex_games_put_shapley_in_core():
    rng = np.random.default_rng(5150)
    for _ in range(50):
        n = int(rng.integers(3, 6))
        g = random_convex(rng, n)
        assert is_convex(g)
        rep = core_nonempty(g)
        assert rep.nonempty
        assert in_core(g, shapley(g))


def test_nucleolus_closed_forms():
    # two agents: split the surplus over the disagreement values
    g = CoalitionGame.from_dict(2, {0b01: 1.0, 0b10: 3.0, 0b11: 10.0})
    nuc = nucleolus(g)
    assert nuc.allocation == pytest.approx([4.0, 6.0], abs=1e-9)

    # glove market: the scarce right glove captures everything
    g = CoalitionGame.from_dict(3, {0b101: 1.0, 0b110: 1.0, 0b111: 1.0})
    nuc = nucleolus(g)
    assert nuc.allocation == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)

    nuc = nucleolus(MAJORITY)
    assert nuc.allocation == pytest.approx([1 / 3] * 3, abs=1e-9)


def test_nucleolus_matches_grid_oracle():
    rng = np.random.default_rng(808)
    for _ in range(5):
        g = random_superadditive_3(rng)
        got = nucleolus(g).allocation
        want = nucleolus_by_grid(g)
        assert np.max(np.abs(got - want)) <= 2e-3


def test_nucleolus_in_core_and_relabeling():
    rng = np.random.default_rng(515)
    cored = 0
    for trial in range(40):
        n = 3 + trial % 2
        vals = {m: float(rng.uniform(0, 1)) for m in range(1, 1 << n)}
        vals[(1 << n) - 1] = 2.0
        g = CoalitionGame.from_dict(n, vals)
        nuc = nucleolus(g).allocation
        if core_nonempty(g).nonempty:
            assert in_core(g, nuc)
            cored += 1
        # relabeling agents permutes the allocation and nothing else
        perm = list(rng.permutation(n))
        relabeled = {}
        for mask, v in vals.items():
            moved = 0
            for i in members(mask):
                moved |= 1 << perm[i]
            relabeled[moved] = v
        nuc_p = nucleolus(CoalitionGame.from_dict(n, relabeled)).allocation
        assert np.max(np.abs(nuc_p[perm] - nuc)) <= 1e-7
    assert cored >= 10


def test_nucleolus_capacity():
    # Every size the schema accepts runs: a 20-agent nucleolus takes
    # 0.1-1.3 s on a 2-vCPU Xeon VM against a 10 s budget, and each stage
    # raises the rank of the fixed rows, so there are at most n - 1 stages.
    values = np.random.default_rng(20).uniform(-1.0, 2.0, 1 << 20)
    values[0] = 0.0
    game = CoalitionGame(20, tuple(values))
    start = time.perf_counter()
    nuc = nucleolus(game)
    assert time.perf_counter() - start < 10.0
    assert 1 <= nuc.stages <= 19
    assert float(nuc.allocation.sum()) == pytest.approx(game.value(game.full), abs=1e-9)


def test_size_symmetric_nucleolus_is_the_equal_split():
    # The sizes-1..7 values of corpus game 47, on which the nucleolus once
    # came out as [0.2886, -0.0340, 0.0576, ...] from a singular basis.
    game47 = size_symmetric_game(7, [0.0, 0.1584669969892103, 0.025261705658029432,
                                     1.0234535563428961, 2.1871357902992417,
                                     0.7763959649472558, 1.2839540200442565,
                                     2.0291826329361804])
    games = [game47]
    rng = np.random.default_rng(47)
    for n in range(2, 11):
        games.append(size_symmetric_game(n, rng.uniform(0.0, 3.0, size=n + 1)))
        games.append(size_symmetric_game(n, rng.integers(-2, 5, size=n + 1)))
    for g in games:
        want = g.value(g.full) / g.n
        assert nucleolus(g).allocation == pytest.approx([want] * g.n, abs=1e-9)


def test_nucleolus_matches_highs_on_seeded_games():
    rng = np.random.default_rng(1979)
    for n in range(2, 11):
        for g in (random_game(rng, n), random_convex(rng, n),
                  CoalitionGame.from_dict(n, {m: float(rng.integers(-2, 5))
                                              for m in range(1, 1 << n)})):
            nuc = nucleolus(g)
            assert np.max(np.abs(nuc.allocation - nucleolus_by_highs(g))) <= 1e-7
            assert nuc.stages <= n - 1


def test_core_optimum_matches_highs_on_seeded_games():
    rng = np.random.default_rng(1967)
    for n in range(2, 13):
        for g in (random_game(rng, n), random_convex(rng, n)):
            rep, want = core_nonempty(g), core_optimum_by_highs(g)
            assert rep.lp_optimum == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert rep.nonempty == (want <= g.value(g.full) + 1e-9)
            if rep.nonempty:
                assert in_core(g, rep.certificate)


def test_pair_checks_capped_before_the_scan():
    # n = 14 still runs; from 15 agents up both raise before any 4^n work
    tiny = CoalitionGame(14, tuple([0.0] * (1 << 14)))
    assert is_superadditive(tiny)
    for n in (15, 20):
        game = CoalitionGame(n, tuple([0.0] * (1 << n)))
        for check in (is_superadditive, is_convex):
            with pytest.raises(CapacityError, match="capped at 14 agents"):
                check(game)


def test_core_verdicts_match_grid():
    assert core_nonempty(WORKED).nonempty
    assert core_feasible_by_grid(WORKED)
    assert not core_nonempty(MAJORITY).nonempty
    assert not core_feasible_by_grid(MAJORITY)
    assert core_nonempty(MAJORITY).lp_optimum == pytest.approx(1.5, abs=1e-9)

    rng = np.random.default_rng(31415)
    seen = {True: 0, False: 0}
    for _ in range(100):
        pairs = rng.uniform(0.0, 1.2, size=3)
        # skip borderline games the coarse grid cannot certify either way
        margin = min(1 - pairs.max(), 1 - 0.5 * pairs.sum())
        if -1e-6 < margin < 0.08:
            continue
        g = CoalitionGame.from_dict(
            3, {0b011: float(pairs[0]), 0b101: float(pairs[1]),
                0b110: float(pairs[2]), 0b111: 1.0})
        rep = core_nonempty(g)
        assert rep.nonempty == core_feasible_by_grid(g)
        if rep.nonempty:
            assert in_core(g, rep.certificate)
        seen[rep.nonempty] += 1
    assert seen[True] >= 10 and seen[False] >= 10


def test_core_of_20_agents_within_budget():
    # Row generation never builds the 2^20 - 1 rows, whose tableau would
    # need over 150 GiB: on a 2-vCPU Xeon VM a 20-agent core takes 0.1-0.4 s
    # against a 5 s budget, with a traced peak of about 33 MiB.
    rng = np.random.default_rng(20)
    size = coopmod._subset_sums(np.ones(20))
    for values in (rng.uniform(-1.0, 2.0, 1 << 20),
                   size ** 2 + rng.uniform(0.0, 0.1, 1 << 20) * size):
        values[0] = 0.0
        game = CoalitionGame(20, tuple(values))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rep = core_nonempty(game)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 5.0
        assert peak < 64 * 2 ** 20
        if rep.nonempty:
            assert in_core(game, rep.certificate)
    assert rep.nonempty      # the convex game's core holds its certificate


# ------------------------------------------------------ reference kernels --
#
# The full-row kernels that row generation and the subset-sum pass replaced.
# Shapley values and core membership must match them bit for bit. The core
# LP may end on another optimal vertex, so the core is compared by verdict,
# optimum and certificate; the nucleolus is unique and is compared with the
# HiGHS oracle.

def core_nonempty_by_rows(game):
    n = game.n
    rows, rhs = [], []
    for s in range(1, game.full + 1):
        row = np.zeros(n)
        for i in members(s):
            row[i] = 1.0
        rows.append(row)
        rhs.append(game.value(s))
    sol = coopmod.solve_lp(LinearProgram(
        np.ones(n), np.asarray(rows), (">=",) * len(rows), np.asarray(rhs),
        lower=np.full(n, -np.inf)))
    vfull = game.value(game.full)
    if sol.objective > vfull + 1e-9:
        return coopmod.CoreReport(False, None, sol.objective)
    cert = sol.x.copy()
    cert[0] += vfull - cert.sum()
    return coopmod.CoreReport(True, cert, sol.objective)


def in_core_by_excess(game, allocation):
    r = np.asarray(allocation, dtype=float)
    if abs(float(r.sum()) - game.value(game.full)) > 1e-9:
        return False
    return all(excess(game, s, r) <= 1e-9 for s in range(1, game.full + 1))


def shapley_by_popcount(game):
    n = game.n
    v = np.asarray(game.values, dtype=float)
    size = np.zeros(1 << n, dtype=np.int64)
    for m in range(1, 1 << n):
        size[m] = size[m >> 1] + (m & 1)
    weight = np.asarray([math.factorial(s) * math.factorial(n - s - 1)
                         / math.factorial(n) for s in range(n)])
    masks = np.arange(1 << n)
    phi = np.zeros(n)
    for i in range(n):
        without = masks[(masks & (1 << i)) == 0]
        phi[i] = float(weight[size[without]] @ (v[without | (1 << i)] - v[without]))
    return phi


def nucleolus_by_rows(game):
    """Successive-LP nucleolus with one row per unfixed coalition, through
    `coopmod.solve_lp`. Its stage LPs are the ones whose basis matrix was
    singular on corpus games 34, 35, 46, 47 and 49."""
    n, tol = game.n, 1e-9
    fixed = {}
    while True:
        unfixed = [s for s in range(1, game.full) if s not in fixed]
        rows, senses, rhs = [], [], []
        eff = np.zeros(n + 1)
        eff[:n] = 1.0
        rows.append(eff); senses.append("=="); rhs.append(game.value(game.full))
        for s, level in fixed.items():
            row = np.zeros(n + 1)
            for i in members(s):
                row[i] = 1.0
            rows.append(row); senses.append("=="); rhs.append(game.value(s) - level)
        first_unfixed = len(rows)
        for s in unfixed:
            row = np.zeros(n + 1)
            for i in members(s):
                row[i] = 1.0
            row[n] = 1.0
            rows.append(row); senses.append(">="); rhs.append(game.value(s))
        obj = np.zeros(n + 1)
        obj[n] = 1.0
        sol = coopmod.solve_lp(LinearProgram(
            obj, np.asarray(rows), tuple(senses), np.asarray(rhs),
            lower=np.full(n + 1, -np.inf)))
        for k, s in enumerate(unfixed):
            if abs(sol.duals[first_unfixed + k]) > tol:
                fixed[s] = float(sol.x[n])
        mat = np.vstack([np.ones(n)] + [np.asarray([m >> i & 1 for i in range(n)],
                                                   dtype=float) for m in fixed])
        tgt = [game.value(game.full)] + [game.value(s) - lv for s, lv in fixed.items()]
        if np.linalg.matrix_rank(mat, tol=1e-8) == n or len(fixed) == game.full - 1:
            return np.linalg.lstsq(mat, np.asarray(tgt), rcond=None)[0]


def benchmark_shaped(rng, n, core_empty):
    """Random small coalitions under one symmetric layer of (n-1)-coalitions,
    the value shape of the coop benchmark documents."""
    grand = n * rng.uniform(1.0, 2.0)
    share = rng.uniform(1.03, 1.1) if core_empty else rng.uniform(0.9, 0.97)
    vals = {}
    for mask in range(1, 1 << n):
        k = len(members(mask))
        if k == n:
            vals[mask] = grand
        elif k == n - 1:
            vals[mask] = share * grand * (n - 1) / n
        else:
            vals[mask] = (rng.uniform(0.3, 0.8) * k / n
                          - max(0.0, 1.0 - share)) * grand
        vals[mask] = round(vals[mask], 6)
    return CoalitionGame.from_dict(n, vals)


def kernel_corpus():
    rng = np.random.default_rng(8128)
    for n in range(2, 9):
        for _ in range(3 if n < 7 else 1):
            yield random_game(rng, n)
            yield CoalitionGame.from_dict(n, {m: float(rng.integers(-2, 5))
                                              for m in range(1, 1 << n)})
            by_size = rng.uniform(0.0, 3.0, size=n + 1)
            yield CoalitionGame.from_dict(
                n, {m: float(by_size[len(members(m))]) for m in range(1, 1 << n)})
    for n in (3, 4, 7, 8):
        for empty in (False, True):
            yield benchmark_shaped(rng, n, empty)


def assert_kernels_agree(games):
    for g in games:
        phi = shapley(g)
        assert phi.tobytes() == shapley_by_popcount(g).tobytes()
        core, want = core_nonempty(g), core_nonempty_by_rows(g)
        assert core.nonempty == want.nonempty
        assert core.lp_optimum == pytest.approx(want.lp_optimum, rel=1e-9, abs=1e-9)
        nuc = nucleolus(g).allocation
        assert np.max(np.abs(nuc - nucleolus_by_highs(g))) <= 1e-7
        allocations = [phi, nuc, np.random.default_rng(g.n).uniform(-1, 2, g.n)]
        if core.nonempty:
            assert in_core(g, core.certificate)
            allocations.append(core.certificate)
        for r in allocations:
            r = r.copy()
            r[0] += g.value(g.full) - r.sum()
            assert in_core(g, r) is in_core_by_excess(g, r)


def test_coalition_sums_match_reference_kernels():
    x = np.random.default_rng(3).normal(size=10)
    want = [float(sum(x[i] for i in members(s))) for s in range(1 << 10)]
    assert coopmod._subset_sums(x).tobytes() == np.asarray(want).tobytes()
    assert_kernels_agree(kernel_corpus())


def test_working_set_merge_matches_union1d():
    # `np.union1d` is the reference: the same sorted masks, of the same dtype
    rng = np.random.default_rng(24)
    cases = [(1 << np.arange(n), (1 << n) - 1, n) for n in (1, 20)]   # core start
    for n in (1, 2, 5, 8, 13, 20):
        for _ in range(25):
            work = np.unique(rng.integers(1, 1 << n, size=rng.integers(1, 60)))
            # part of `new` repeats `work`, part may repeat itself; some are empty
            new = np.concatenate((
                rng.choice(work, size=rng.integers(0, 4)),
                rng.integers(1, 1 << n, size=rng.integers(0, 6))))
            cases.append((work, new, n))
        cases.append((work, np.flatnonzero(np.zeros(8)), n))
    for work, new, n in cases:
        got, want = coopmod._merge(work, new, n), np.union1d(work, new)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (work, new, n)


def test_full_row_nucleolus_matches_highs():
    # Duals read off the final tableau stay duals where the basis matrix is
    # singular; a least-squares stand-in for them fixed the wrong rows and
    # missed the equal split of game 47 by 0.32.
    for g in kernel_corpus():
        assert np.max(np.abs(nucleolus_by_rows(g) - nucleolus_by_highs(g))) <= 1e-7


def test_stage_without_a_nonzero_dual_is_an_error(monkeypatch):
    # At a stage optimum the working-set duals sum to 1, so a stage with
    # no nonzero dual means the LP kernel failed; fixing the rows that are
    # tight at one vertex instead gave allocations up to 3.5 away from the
    # nucleolus on corpus games.
    solve = coopmod.solve_lp

    def without_duals(lp):
        sol = solve(lp)
        return sol._replace(duals=np.zeros_like(sol.duals))

    monkeypatch.setattr(coopmod, "solve_lp", without_duals)
    for g in kernel_corpus():
        with pytest.raises(ComputationError, match="stage 1 has no nonzero dual"):
            nucleolus(g)
