"""Coalition game tests.

Shapley values are cross-checked against a permutation-enumeration oracle,
the nucleolus against a lexicographic grid search over the efficient simplex,
and the core LP against brute-force grid feasibility. Oracle code here is
deliberately independent of the library internals.
"""

import itertools
import math

import numpy as np
import pytest

from stgames.coop import (CoalitionGame, cooperative_surplus, core_nonempty,
                          excess, in_core, is_convex, is_superadditive,
                          members, nucleolus, shapley)
from stgames.errors import CapacityError

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
    with pytest.raises(CapacityError):
        nucleolus(CoalitionGame(13, tuple([0.0] * (1 << 13))))


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
