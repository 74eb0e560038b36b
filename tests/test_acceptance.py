"""Acceptance gate.

Thirteen numbered criteria, each verified against independent oracles or
hand-derived constants and printed as one [PASS]/[FAIL] line with its
runtime against the stated budget. Oracle code is local to this file and
shares nothing with the library internals.
"""

import itertools
import json
import math
import pathlib
import tempfile
import time
import warnings

import numpy as np

from stgames.congestion import (CongestionNetwork, Edge, braess_delta,
                                enumerate_paths, marginal_cost_tolls,
                                price_of_anarchy, system_optimum,
                                wardrop_equilibrium)
from stgames.coop import (CoalitionGame, cooperative_surplus, core_nonempty,
                          in_core, is_convex, is_superadditive, members,
                          nucleolus, shapley)
from stgames.coordination import stackelberg_solve
from stgames.incentives import (BudgetSpec, design_incentive, is_pareto_improving,
                                modified_payoff)
from stgames.learning import LearnerSpec, diagnostics, run_dynamics
from stgames.matching import MatchingMarket, deferred_acceptance, enumerate_stable
from stgames.resilience import (AdversaryModel, ConsensusScenario, DefenseSpec,
                                TrustMatrix, run_consensus_scenario)
from stgames.scenario import parse_scenario, run_scenario, write_outputs
from stgames.strategic import is_nash

from conftest import make_game

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def criterion(capsys, number, label, budget, body):
    """Run one acceptance check, print its verdict line, enforce the budget."""
    t0 = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as exc:        # report, then re-raise
        failure = exc
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if failure is None and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"[{verdict}] criterion {number:2d}: {label} "
              f"({elapsed:.2f} s, budget {budget:g} s)")
    if failure is not None:
        raise failure
    assert elapsed < budget, \
        f"criterion {number} exceeded its runtime budget: {elapsed:.2f} s"


# ------------------------------------------------------------- fixtures --

WORKED = CoalitionGame.from_dict(
    3, {0b001: 0.0, 0b010: 0.0, 0b100: 0.0,
        0b011: 0.5, 0b101: 0.5, 0b110: 0.5, 0b111: 1.0})

MAJORITY = CoalitionGame.from_dict(
    3, {0b011: 1.0, 0b101: 1.0, 0b110: 1.0, 0b111: 1.0})

PD = make_game(
    (("C", "D"), ("C", "D")),
    {"default": {("C", "C"): (3, 3), ("C", "D"): (0, 5),
                 ("D", "C"): (5, 0), ("D", "D"): (1, 1)}})

PENNIES = make_game(
    (("H", "T"), ("H", "T")),
    {"default": {("H", "H"): (1, -1), ("H", "T"): (-1, 1),
                 ("T", "H"): (-1, 1), ("T", "T"): (1, -1)}})

PIGOU = CongestionNetwork.of(
    [("o", "d", 1.0, 0.0), ("o", "d", 0.0, 1.0)], "o", "d", 1.0)

BRAESS = CongestionNetwork.of(
    [("o", "a", 0.0, 1.0), ("a", "d", 1.0, 0.0),
     ("o", "b", 1.0, 0.0), ("b", "d", 0.0, 1.0)], "o", "d", 1.0)

SHORTCUT = Edge("a", "b", 0.0, 0.0)

BRAESS_AUGMENTED = CongestionNetwork.of(
    [("o", "a", 0.0, 1.0), ("a", "d", 1.0, 0.0),
     ("o", "b", 1.0, 0.0), ("b", "d", 0.0, 1.0),
     ("a", "b", 0.0, 0.0)], "o", "d", 1.0)


def solve(solver, network):
    """`wardrop_equilibrium` or `system_optimum` of `network`, over its
    enumerated paths."""
    return solver(network, enumerate_paths(network))


def three_path_game():
    """Path p costs a_p + occupancy with a = (0, 3, 4); path 0 dominates."""
    a = (0.0, 3.0, 4.0)
    paths = ("p0", "p1", "p2")
    table = {}
    for profile in itertools.product(paths, paths):
        load = {p: profile.count(p) for p in paths}
        table[profile] = tuple(-(a[paths.index(p)] + load[p])
                               for p in profile)
    return make_game((paths, paths), {"default": table})


def leader_fixture():
    """Candidate A: equilibria worth 5 and 1 total; B: unique, worth 3."""
    tables = {
        "A": {("x", "x"): (2.5, 2.5), ("x", "y"): (-1, -1),
              ("y", "x"): (-1, -1), ("y", "y"): (0.5, 0.5)},
        "B": {("x", "x"): (1.5, 1.5), ("x", "y"): (1.5, 0),
              ("y", "x"): (0, 1.5), ("y", "y"): (0, 0)},
    }
    return make_game((("x", "y"), ("x", "y")), tables)


# --------------------------------------------------------------- oracles --

def shapley_by_permutations(game):
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
                    [0, 0, 1], [1, 0, 1], [0, 1, 1]])


def _simplex_grid_int(k):
    i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    keep = (i + j) <= k
    return np.column_stack([i[keep], j[keep], k - i[keep] - j[keep]])


def nucleolus_by_grid(game, step=1e-3):
    """Lexicographic minimum of sorted excesses over the efficient simplex.

    Integer grid units keep tied excess components bit-identical, so the
    lexicographic comparison is decided by the later components instead of
    float noise.
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
    pts = _simplex_grid_int(k)
    v = np.asarray([game.value(m) * k for m in (1, 2, 3, 4, 5, 6)])
    ok = np.all(pts @ _IND3.T >= v[None, :] - 1e-9, axis=1)
    return bool(ok.any())


def random_superadditive_3(rng):
    return CoalitionGame.from_dict(
        3, {0b011: float(rng.uniform(0, 1)),
            0b101: float(rng.uniform(0, 1)),
            0b110: float(rng.uniform(0, 1)),
            0b111: 1.0})


def blocking_pairs_brute(left, right, pairs):
    """Raw preference-list scan; a pair blocks when both sides trade up."""
    match_of_left = {l: r for l, r in pairs}
    match_of_right = {r: l for l, r in pairs}
    found = []
    for l in range(len(left)):
        for r in range(len(right)):
            if match_of_left[l] == r:
                continue
            likes_r = left[l].index(r) < left[l].index(match_of_left[l])
            likes_l = right[r].index(l) < right[r].index(match_of_right[r])
            if likes_r and likes_l:
                found.append((l, r))
    return found


def grid_cost_two_paths(inc, a, b, demand, potential):
    def value(x):
        f = np.outer(x, inc[0]) + np.outer(demand - x, inc[1])
        obj = f @ a + (0.5 if potential else 1.0) * (f * f) @ b
        return f, obj

    x = np.linspace(0.0, demand, 100001)
    f, obj = value(x)
    i = int(np.argmin(obj))
    x = np.linspace(x[max(i - 2, 0)], x[min(i + 2, len(x) - 1)], 40001)
    f, obj = value(x)
    j = int(np.argmin(obj))
    return float(f[j] @ (a + b * f[j])) / demand


def grid_cost_three_paths(inc, a, b, demand, potential, step=1e-3):
    def scan(x1_vals, x2_vals):
        x1, x2 = np.meshgrid(x1_vals, x2_vals, indexing="ij")
        keep = (x1 + x2) <= demand + 1e-12
        x1, x2 = x1[keep], x2[keep]
        xs = np.column_stack([x1, x2, demand - x1 - x2])
        f = xs @ inc
        obj = f @ a + (0.5 if potential else 1.0) * (f * f) @ b
        k = int(np.argmin(obj))
        return xs[k], f[k]

    grid = np.arange(0.0, demand + step / 2, step)
    best, _ = scan(grid, grid)
    fine = 2e-5
    _, f = scan(np.arange(max(best[0] - 2 * step, 0.0),
                          min(best[0] + 2 * step, demand) + fine / 2, fine),
                np.arange(max(best[1] - 2 * step, 0.0),
                          min(best[1] + 2 * step, demand) + fine / 2, fine))
    return float(f @ (a + b * f)) / demand


BRAESS_INC = np.asarray([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
BRAESS_AUG_INC = np.asarray(
    [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [1, 0, 0, 1, 1]], dtype=float)


def _coeffs(network):
    return (np.asarray([e.a for e in network.edges]),
            np.asarray([e.b for e in network.edges]))


# -------------------------------------------------------------- criteria --

def test_criterion_01_worked_coalition_example(capsys):
    def body():
        g = WORKED
        assert is_superadditive(g)
        assert is_convex(g)
        assert cooperative_surplus(g) == 1.0
        phi = shapley(g)
        assert all(float(p) == 1 / 3 for p in phi)
        assert in_core(g, phi)
        assert core_nonempty(g).nonempty
        nuc = nucleolus(g).allocation
        assert np.max(np.abs(nuc - 1 / 3)) <= 1e-6

    criterion(capsys, 1, "worked three-agent game solved exactly", 1.0, body)


def test_criterion_02_shapley_axioms(capsys):
    def body():
        rng = np.random.default_rng(20_01)
        for trial in range(200):
            n = 3 + trial % 4
            g_vals = {m: float(rng.uniform(-1, 2)) for m in range(1, 1 << n)}
            h_vals = {m: float(rng.uniform(-1, 2)) for m in range(1, 1 << n)}
            g = CoalitionGame.from_dict(n, g_vals)
            h = CoalitionGame.from_dict(n, h_vals)
            phi_g = shapley(g)
            # efficiency
            assert abs(phi_g.sum() - g.value((1 << n) - 1)) <= 1e-9
            # additivity
            s = CoalitionGame.from_dict(
                n, {m: g_vals[m] + h_vals[m] for m in g_vals})
            assert np.max(np.abs(shapley(s) - phi_g - shapley(h))) <= 1e-9
            # dummy: agent n joins any coalition for a flat fee c
            c = float(rng.uniform(-1, 1))
            d_vals = dict(g_vals)
            d_vals[1 << n] = c
            for m in g_vals:
                d_vals[m | (1 << n)] = g_vals[m] + c
            ext = shapley(CoalitionGame.from_dict(n + 1, d_vals))
            assert abs(ext[n] - c) <= 1e-9
            # symmetry: size-only games treat every agent alike
            size_vals = {m: float(bin(m).count("1") ** 1.5 + trial % 3)
                         for m in range(1, 1 << n)}
            sym = shapley(CoalitionGame.from_dict(n, size_vals))
            assert np.ptp(sym) <= 1e-9

    criterion(capsys, 2, "Shapley axioms on 200 seeded games", 10.0, body)


def test_criterion_03_convex_games_have_shapley_in_core(capsys):
    def body():
        rng = np.random.default_rng(30_01)
        for trial in range(200):
            n = 3 + trial % 4
            w = rng.uniform(0.1, 1.0, size=n)
            vals = {}
            for mask in range(1, 1 << n):
                total = sum(w[i] for i in members(mask))
                vals[mask] = float(total * total)
            g = CoalitionGame.from_dict(n, vals)
            phi = shapley(g)
            assert abs(phi.sum() - vals[(1 << n) - 1]) <= 1e-9
            for mask in range(1, 1 << n):
                share = sum(phi[i] for i in members(mask))
                assert share >= vals[mask] - 1e-9

    criterion(capsys, 3, "convexity puts Shapley in the core, 200 games",
              10.0, body)


def test_criterion_04_nucleolus_matches_grid_oracle(capsys):
    def body():
        rng = np.random.default_rng(1212)
        for _ in range(20):
            g = random_superadditive_3(rng)
            got = nucleolus(g).allocation
            want = nucleolus_by_grid(g, step=1e-3)
            assert np.max(np.abs(got - want)) <= 2e-3

    criterion(capsys, 4, "nucleolus within 2e-3 of the lexicographic grid",
              60.0, body)


def test_criterion_05_core_verdict_matches_grid(capsys):
    def body():
        assert not core_nonempty(MAJORITY).nonempty
        assert core_nonempty(WORKED).nonempty
        rng = np.random.default_rng(2024)
        for _ in range(100):
            p = rng.uniform(0.0, 1.2, size=3)
            g = CoalitionGame.from_dict(
                3, {0b001: 0.0, 0b010: 0.0, 0b100: 0.0,
                    0b011: float(p[0]), 0b101: float(p[1]),
                    0b110: float(p[2]), 0b111: 1.0})
            assert core_nonempty(g).nonempty == core_feasible_by_grid(g)

    criterion(capsys, 5, "core emptiness verdicts match grid feasibility",
              30.0, body)


def test_criterion_06_deferred_acceptance_stability(capsys):
    def body():
        rng = np.random.default_rng(606_01)
        for trial in range(500):
            n = 2 + trial % 7
            left = [list(rng.permutation(n)) for _ in range(n)]
            right = [list(rng.permutation(n)) for _ in range(n)]
            market = MatchingMarket(tuple(tuple(r) for r in left),
                                    tuple(tuple(r) for r in right))
            side = "left" if trial % 2 == 0 else "right"
            result = deferred_acceptance(market, proposing=side)
            assert blocking_pairs_brute(left, right, result.pairs) == []

        for trial in range(200):
            n = 2 + trial % 5
            left = [list(rng.permutation(n)) for _ in range(n)]
            right = [list(rng.permutation(n)) for _ in range(n)]
            market = MatchingMarket(tuple(tuple(r) for r in left),
                                    tuple(tuple(r) for r in right))
            mine = deferred_acceptance(market, proposing="left")
            stable = enumerate_stable(market)
            assert mine.pairs in [m.pairs for m in stable]
            for other in stable:
                for l in range(n):
                    got = left[l].index(mine.partner_of_left(l))
                    alt = left[l].index(other.partner_of_left(l))
                    assert got <= alt

    criterion(capsys, 6, "deferred acceptance stable and proposer-optimal",
              30.0, body)


def test_criterion_07_braess_and_pigou(capsys):
    def body():
        a, b = _coeffs(BRAESS)
        base = solve(wardrop_equilibrium, BRAESS)
        base_oracle = grid_cost_two_paths(BRAESS_INC, a, b, 1.0, potential=True)
        assert abs(base.per_unit_cost - 1.5) <= 1e-4
        assert abs(base.per_unit_cost - base_oracle) <= 1e-4

        report = braess_delta(base, solve(wardrop_equilibrium,
                                          BRAESS.with_edge(SHORTCUT)))
        aug_a, aug_b = _coeffs(BRAESS_AUGMENTED)
        aug_oracle = grid_cost_three_paths(BRAESS_AUG_INC, aug_a, aug_b, 1.0,
                                           potential=True)
        assert abs(report.augmented_per_unit_cost - 2.0) <= 1e-4
        assert abs(report.augmented_per_unit_cost - aug_oracle) <= 1e-4
        assert abs(report.delta - 0.5) <= 1e-4
        assert abs(report.delta - (aug_oracle - base_oracle)) <= 2e-4

        poa = price_of_anarchy(solve(wardrop_equilibrium, PIGOU),
                               solve(system_optimum, PIGOU))
        assert poa.defined
        assert abs(poa.ratio - 4 / 3) <= 1e-6

    criterion(capsys, 7, "Braess costs 1.5 -> 2.0 and Pigou PoA 4/3",
              5.0, body)


def test_criterion_08_marginal_cost_tolls_restore_optimum(capsys):
    def body():
        for net in (PIGOU, BRAESS_AUGMENTED):
            so = solve(system_optimum, net)
            toll = marginal_cost_tolls(net, so)
            gap = np.max(np.abs(toll.tolled_equilibrium.edge_flows - so.edge_flows))
            assert gap <= 1e-6
        toll = marginal_cost_tolls(BRAESS_AUGMENTED,
                                   solve(system_optimum, BRAESS_AUGMENTED))
        assert abs(toll.latency_per_unit_cost - 1.5) <= 1e-6

    criterion(capsys, 8, "tolled flows equal the system optimum", 5.0, body)


def test_criterion_09_learning_dynamics(capsys):
    def body():
        specs = [LearnerSpec("fictitious-play"), LearnerSpec("fictitious-play")]
        for seed in range(10):
            trace = run_dynamics(PENNIES, specs, 10 ** 5, seed=seed)
            for i in range(2):
                freq = np.bincount(trace.actions[:, i], minlength=2) / 10 ** 5
                assert np.max(np.abs(freq - 0.5)) <= 0.02
            diag = diagnostics(PENNIES, trace, gap_stride=10 ** 5)
            assert float(diag.external_regret.max()) < 0.02

        game = three_path_game()
        br = [LearnerSpec("best-response"), LearnerSpec("best-response")]
        for seed in range(50):
            trace = run_dynamics(game, br, 40, seed=seed)
            final = trace.actions[-1].tolist()
            assert trace.actions[-2].tolist() == final
            assert is_nash(game, final, 0.0).is_nash

    criterion(capsys, 9, "fictitious play mixes 50/50, best response settles",
              60.0, body)


def test_criterion_10_stackelberg_mode_ordering(capsys):
    def body():
        g = leader_fixture()
        opt = stackelberg_solve(g, ("A", "B"), "optimistic")
        pess = stackelberg_solve(g, ("A", "B"), "pessimistic")
        assert opt.leader_value == 5.0
        assert pess.leader_value == 3.0
        assert opt.leader_value > pess.leader_value

        rng = np.random.default_rng(1001)
        actions = (("x", "y"), ("x", "y"))
        profiles = list(itertools.product(*actions))
        compared = 0
        for _ in range(100):
            tables = {sig: {p: rng.integers(-4, 5, size=2).astype(float)
                            for p in profiles}
                      for sig in ("s0", "s1", "s2")}
            game = make_game(actions, tables)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                o = stackelberg_solve(game, ("s0", "s1", "s2"), "optimistic")
                p = stackelberg_solve(game, ("s0", "s1", "s2"), "pessimistic")
            if o.leader_value is None:
                assert p.leader_value is None
                continue
            assert o.leader_value >= p.leader_value - 1e-12
            compared += 1
        assert compared >= 60

    criterion(capsys, 10, "optimistic leader never below pessimistic",
              10.0, body)


def test_criterion_11_incentive_synthesis_on_dilemma(capsys):
    def body():
        budget = BudgetSpec(limit=100.0, delta=0.5)
        # profiles are action indices: 0 is C, 1 is D
        design = design_incentive(PD, (0, 0), baseline=(1, 1), budget=budget)
        assert design.status == "ok"
        assert abs(design.per_period_spend - 4.0) <= 1e-6
        # the design pays at (C, C) only
        modified = modified_payoff(PD, {"default": {(0, 0): design.payments}})
        assert is_nash(modified, (0, 0), 1e-9).is_nash
        assert is_pareto_improving(PD.payoff((1, 1)), modified.payoff((0, 0)))
        spent = sum(design.payments) / (1 - 0.5)       # the geometric series
        assert spent <= budget.limit
        assert abs(spent - design.discounted_spend) <= 1e-9

        tight = design_incentive(PD, (0, 0), baseline=(1, 1),
                                 budget=BudgetSpec(limit=7.9, delta=0.5))
        assert tight.status == "infeasible"

    criterion(capsys, 11, "dilemma repair spends exactly 4 per period",
              1.0, body)


def test_criterion_12_resilient_consensus(capsys):
    def body():
        adv = AdversaryModel((4,), "constant-injection", value=100.0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            honest = rng.uniform(0.0, 1.0, size=4)
            x = np.append(honest, 0.5)
            sc = ConsensusScenario(tuple(x), TrustMatrix.uniform(5))
            lo, hi = honest.min(), honest.max()

            trimmed = run_consensus_scenario(sc, 15, DefenseSpec(trim_f=1),
                                             adv, seed=seed)
            assert trimmed.values[:, :4].min() >= lo - 1e-12
            assert trimmed.values[:, :4].max() <= hi + 1e-12

            naive = run_consensus_scenario(sc, 15, DefenseSpec(trim_f=0),
                                           adv, seed=seed)
            assert naive.values[:, :4].max() > hi + 1e-9

        # nominal equivalence: no adversary, no trimming and uniform fixed
        # trust is plain averaging bit for bit
        rng = np.random.default_rng(99)
        x = rng.normal(0.0, 2.0, size=6)
        run = run_consensus_scenario(
            ConsensusScenario(tuple(x), TrustMatrix.uniform(6)), 10,
            DefenseSpec(trim_f=0))
        w = np.full((6, 6), 1.0 / 6.0)
        vals = x.copy()
        for t in range(10):
            vals = np.array([float(w[i] @ vals) for i in range(6)])
            assert np.array_equal(run.values[t + 1], vals)

    criterion(capsys, 12, "trimmed consensus confines honest values",
              30.0, body)


def test_criterion_13_golden_fixtures_are_deterministic(capsys):
    def body():
        # every fixture parsed, run and written twice: everything except
        # the wall-clock sidecar matches, and every JSON line parses
        with tempfile.TemporaryDirectory() as tmp:
            for path in sorted(FIXTURES.glob("*.yaml")):
                text = path.read_text(encoding="utf-8")
                d1 = pathlib.Path(tmp) / path.stem / "a"
                d2 = pathlib.Path(tmp) / path.stem / "b"
                write_outputs(run_scenario(parse_scenario(text)), d1, "run", fmt="jsonl")
                write_outputs(run_scenario(parse_scenario(text)), d2, "run", fmt="jsonl")
                for f1 in sorted(d1.iterdir()):
                    if f1.name.endswith("meta.json"):
                        continue
                    assert f1.read_bytes() == (d2 / f1.name).read_bytes(), \
                        f"{path.name} output changed between runs"
                    for line in f1.read_text(encoding="utf-8").splitlines():
                        json.loads(line)

    criterion(capsys, 13, "golden fixtures byte-identical on rerun",
              60.0, body)
