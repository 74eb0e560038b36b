"""Incentive design tests.

The synthesis LP decouples per agent, so the test oracle is the closed form
rho_i = max(best deviation gain, baseline shortfall, 0); random instances are
checked against it, plus Pareto/budget edge cases and the hand-solved
dilemma numbers. The LP that `design_incentive` solved before it took the
closed form, the numpy design of earlier releases and the schedule type and
trajectory budget check it priced its transfers with are kept here as
reference kernels.
"""

import itertools
import time
from typing import NamedTuple

import numpy as np
import pytest

from stgames.incentives import (TOL, BudgetSpec, design_incentive,
                                discounted_spend, is_pareto_improving,
                                modified_payoff)
from stgames.errors import ComputationError
from stgames.lp import LinearProgram, solve_lp
from stgames.strategic import (_check_profile, _max, _total,
                               counterfactual_payoffs, enumerate_pure_nash,
                               is_nash)

from conftest import make_game

PD = {("C", "C"): (3, 3), ("C", "D"): (0, 5),
      ("D", "C"): (5, 0), ("D", "D"): (1, 1)}
CC, CD, DC, DD = (0, 0), (0, 1), (1, 0), (1, 1)     # as action indices


def pd_game():
    return make_game((("C", "D"), ("C", "D")), {"default": PD})


def random_game(rng, n, k):
    actions = tuple(tuple(f"a{j}" for j in range(k)) for _ in range(n))
    table = {p: rng.uniform(-3, 3, size=n)
             for p in itertools.product(*actions)}
    return make_game(actions, {"default": table})


def transfers_of(game, tables):
    """The transfers paying at each profile that profile's slice of a whole
    transfer table per signal, shaped like the game's payoff tables."""
    return {sig: {p: tuple(table[(slice(None),) + p].tolist())
                  for p in game.profiles()}
            for sig, table in tables.items()}


def design_oracle(game, target, baseline):
    """Decoupled minimum transfers and whether strict improvement is possible."""
    tgt_pay = np.asarray(game.payoff(target))
    base_pay = np.asarray(game.payoff(baseline))
    rho = np.zeros(game.n_agents)
    for i in range(game.n_agents):
        best = -np.inf
        for alt in range(len(game.actions[i])):
            probe = list(target)
            probe[i] = alt
            best = max(best, game.payoff(tuple(probe))[i])
        rho[i] = max(best - tgt_pay[i], base_pay[i] - tgt_pay[i], 0.0)
    strict = bool(np.any(tgt_pay + rho > base_pay + 1e-9))
    return rho, strict


def design_lp_reference(game, target, baseline):
    """The minimum-transfer LP, one >= row per deviation and per agent's
    baseline, solved by the dense simplex (the former kernel)."""
    n = game.n_agents
    base_pay = game.payoff(baseline)
    tgt_pay = game.payoff(target)
    rows, rhs = [], []
    for i in range(n):
        vec = counterfactual_payoffs(game, i, target)
        for j in range(len(vec)):
            if j == target[i]:
                continue
            row = np.zeros(n)
            row[i] = 1.0
            rows.append(row)
            rhs.append(float(vec[j] - tgt_pay[i]))      # rho_i >= gain
        row = np.zeros(n)
        row[i] = 1.0
        rows.append(row)
        rhs.append(float(base_pay[i] - tgt_pay[i]))     # weak Pareto
    sol = solve_lp(LinearProgram(np.ones(n), np.asarray(rows),
                                 (">=",) * len(rows), np.asarray(rhs)))
    assert sol.status == "optimal"
    return np.maximum(sol.x, 0.0)


def test_modified_payoff_adds_on_one_profile():
    g = pd_game()
    mod = modified_payoff(g, {"default": {CC: (3.0, 3.0)}})
    assert mod.payoff(CC) == pytest.approx([6.0, 6.0])
    assert mod.payoff(CD) == pytest.approx([0.0, 5.0])
    assert mod.payoff(DD) == pytest.approx([1.0, 1.0])   # pays nothing
    assert g.payoff(CC) == pytest.approx([3.0, 3.0])   # untouched
    # mutual cooperation becomes an equilibrium of the modified game
    assert is_nash(mod, CC).is_nash


def test_modified_payoff_validation():
    g = pd_game()
    with pytest.raises(ValueError, match="missing signal 'default'"):
        modified_payoff(g, {})
    with pytest.raises(ValueError, match="agent 1: action index 2"):
        modified_payoff(g, {"default": {(0, 2): (1.0, 1.0)}})
    with pytest.raises(ValueError, match="need 2 transfers, got 3"):
        modified_payoff(g, {"default": {CC: (1.0, 1.0, 1.0)}})


def test_modified_payoff_adds_a_whole_table():
    # every payoff gets a transfer added, 0.0 where none is paid: the bits
    # of the payoff table plus a whole transfer table, down to signs of zero
    rng = np.random.default_rng(9)
    table = rng.choice([0.0, -0.0, 1.5, -2.0], size=(2, 3, 2))
    g = make_game((("a0", "a1", "a2"), ("b0", "b1")), {"default": table})
    paid = np.zeros_like(table)
    paid[:, 1, 0] = (-0.0, 0.5)
    mod = modified_payoff(g, {"default": {(1, 0): (-0.0, 0.5)}})
    assert np.signbit(table).any()
    assert mod.payoffs["default"].tobytes() == (table + paid).tobytes()


def test_negated_schedule_restores_tables():
    # dyadic payoffs and transfers keep the additions exact, so applying
    # transfers and then their negation must give back the original bits
    rng = np.random.default_rng(8)
    actions = (("a0", "a1", "a2"), ("b0", "b1", "b2"))
    table = {p: rng.integers(-12, 12, size=2) / 4.0
             for p in itertools.product(*actions)}
    g = make_game(actions, {"default": table})
    paid = rng.integers(-12, 12, size=g.payoffs["default"].shape) / 4.0
    sched = transfers_of(g, {"default": paid})
    neg = transfers_of(g, {"default": -paid})
    back = modified_payoff(modified_payoff(g, sched), neg)
    assert np.array_equal(back.payoffs["default"], g.payoffs["default"])


def test_constant_shift_keeps_equilibria():
    g = pd_game()
    sched = transfers_of(
        g, {"default": np.stack([np.full((2, 2), 7.0), np.full((2, 2), -2.0)])})
    mod = modified_payoff(g, sched)
    assert enumerate_pure_nash(mod) == enumerate_pure_nash(g)

    rng = np.random.default_rng(271)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        game = random_game(rng, n, k)
        shape = game.payoffs["default"].shape
        consts = rng.uniform(-5, 5, size=n)
        layer = np.stack([np.full(shape[1:], c) for c in consts])
        shifted = modified_payoff(game, transfers_of(game, {"default": layer}))
        assert enumerate_pure_nash(shifted) == enumerate_pure_nash(game)


def test_pareto_improvement_predicate():
    assert is_pareto_improving([1, 1], [2, 2])
    assert is_pareto_improving([1, 1], [1, 2])
    assert not is_pareto_improving([1, 1], [1, 1])
    assert not is_pareto_improving([1, 1], [2, 0.5])
    assert not is_pareto_improving([1, 1], [1 + 1e-12, 1])   # below tol
    with pytest.raises(ValueError):
        is_pareto_improving([1, 1], [1, 1, 1])


def test_budget_closed_form_and_finite():
    assert discounted_spend(BudgetSpec(2.0, 0.5), 1.0) == 2.0
    assert discounted_spend(BudgetSpec(5.0, 1.0, horizon=1), 1.0) == 1.0
    # discounted three-step series, hand sum: 1 + 0.5 + 0.25
    assert discounted_spend(BudgetSpec(2.0, 0.5, horizon=3), 1.0) == 1.75
    assert discounted_spend(BudgetSpec(2.0, 1.0, horizon=3), 0.5) == 1.5


def test_discounted_spend_at_the_horizon_cap_within_budget():
    # 10**6 steps took about 4 s with a schedule lookup per step
    budget = BudgetSpec(10.0, 0.5, horizon=10 ** 6)
    start = time.perf_counter()
    spent = discounted_spend(budget, 0.75)
    assert time.perf_counter() - start < 1.5
    assert spent == pytest.approx(1.5)


def test_budget_spec_validation():
    with pytest.raises(ValueError):
        BudgetSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        BudgetSpec(1.0, 1.2)
    with pytest.raises(ValueError):
        BudgetSpec(1.0, 0.5, horizon=0)
    with pytest.raises(ValueError):
        BudgetSpec(1.0, 1.0, horizon=None)


def test_design_on_dilemma_hand_numbers():
    g = pd_game()
    budget = BudgetSpec(limit=100.0, delta=0.5)
    design = design_incentive(g, CC, DD, budget)
    assert design.status == "ok"
    # each agent forgoes a defection gain of exactly 2
    assert design.per_period_spend == pytest.approx(4.0, abs=1e-6)
    assert design.discounted_spend == pytest.approx(8.0, abs=1e-6)
    assert design.payments == pytest.approx([2.0, 2.0], abs=1e-9)

    mod = modified_payoff(g, {"default": {CC: design.payments}})
    assert is_nash(mod, CC).is_nash
    assert is_pareto_improving(g.payoff(DD), mod.payoff(CC))
    assert discounted_spend(budget, design.per_period_spend) \
        == design.discounted_spend <= budget.limit


def test_design_tight_budget_reports_infeasible():
    g = pd_game()
    design = design_incentive(g, CC, DD, BudgetSpec(limit=7.9, delta=0.5))
    assert design.status == "infeasible"
    assert "budget" in design.reason
    assert design.discounted_spend == pytest.approx(8.0, abs=1e-6)


def test_design_without_strict_winner_is_infeasible():
    g = pd_game()
    design = design_incentive(g, DD, DD, BudgetSpec(limit=10.0, delta=0.5))
    assert design.status == "infeasible"
    assert "Pareto" in design.reason


def _grid_corpus():
    """20 seeded 2-agent, 3-action games, each with a drawn target and
    baseline profile."""
    rng = np.random.default_rng(565)
    for _ in range(20):
        g = random_game(rng, 2, 3)
        profiles = list(g.profiles())
        target = profiles[int(rng.integers(len(profiles)))]
        baseline = profiles[int(rng.integers(len(profiles)))]
        yield g, target, baseline


def test_design_minimality_matches_grid_search():
    # LP spend vs a brute scan over the (rho_0, rho_1) lattice at 5e-3; the
    # two-sided rounding error stays within 1e-2 of the true minimum
    budget = BudgetSpec(limit=1e9, delta=0.5)
    step = 5e-3
    grid = np.arange(0.0, 6.5 + step / 2, step)
    r0, r1 = np.meshgrid(grid, grid, indexing="ij")
    compared = 0
    for g, target, baseline in _grid_corpus():
        design = design_incentive(g, target, baseline, budget)
        if design.status != "ok":
            continue
        tgt, base = np.asarray(g.payoff(target)), np.asarray(g.payoff(baseline))
        gain = np.zeros(2)
        for i in range(2):
            for alt in range(len(g.actions[i])):
                probe = list(target)
                probe[i] = alt
                gain[i] = max(gain[i], g.payoff(tuple(probe))[i] - tgt[i])
        short = base - tgt
        feas = ((r0 >= gain[0] - 1e-12) & (r1 >= gain[1] - 1e-12)
                & (r0 >= short[0] - 1e-12) & (r1 >= short[1] - 1e-12)
                & ((r0 > short[0] + 1e-12) | (r1 > short[1] + 1e-12)))
        assert feas.any()
        grid_min = float((r0 + r1)[feas].min())
        assert abs(grid_min - design.per_period_spend) <= 1e-2
        compared += 1
    assert compared >= 8


def test_design_matches_decoupled_oracle():
    rng = np.random.default_rng(404)
    budget = BudgetSpec(limit=1e9, delta=0.9)
    oks = 0
    for _ in range(60):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        g = random_game(rng, n, k)
        profiles = list(g.profiles())
        target = profiles[int(rng.integers(len(profiles)))]
        baseline = profiles[int(rng.integers(len(profiles)))]
        rho_star, strict = design_oracle(g, target, baseline)
        design = design_incentive(g, target, baseline, budget)
        if strict:
            assert design.status == "ok"
            assert design.per_period_spend == pytest.approx(
                float(rho_star.sum()), abs=1e-9)
            assert design.payments == pytest.approx(rho_star, abs=1e-9)
            oks += 1
        else:
            assert design.status == "infeasible"
    assert oks >= 20


def test_design_matches_lp_reference():
    budget = BudgetSpec(limit=1e9, delta=0.5)
    # dilemma games as the benchmark draws them (4-digit payoffs) and the
    # fixture's: the closed form gives the LP's bits
    rng = np.random.default_rng(15)
    games = [pd_game()]
    for _ in range(200):
        t, r, p, s = np.round(rng.uniform((4.5, 2.5, 0.5, -1.0),
                                          (6.0, 3.5, 1.5, 0.0)), 4).tolist()
        games.append(make_game(
            (("C", "D"), ("C", "D")),
            {"default": {("C", "C"): (r, r), ("C", "D"): (s, t),
                         ("D", "C"): (t, s), ("D", "D"): (p, p)}}))
    for g in games:
        design = design_incentive(g, CC, DD, budget)
        got = np.asarray(design.payments)
        assert got.tobytes() == design_lp_reference(g, CC, DD).tobytes()

    # general games: the oracle's bits, and within one ulp of the LP, whose
    # pivots may round the largest right-hand side it returns
    rng = np.random.default_rng(1515)
    oks = 0
    for _ in range(300):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        g = random_game(rng, n, k)
        g = make_game(g.actions, {"default": g.payoffs["default"]
                                  * rng.uniform(1.0, 1000.0)})
        profiles = list(g.profiles())
        target = profiles[int(rng.integers(len(profiles)))]
        baseline = profiles[int(rng.integers(len(profiles)))]
        design = design_incentive(g, target, baseline, budget)
        rho_star, strict = design_oracle(g, target, baseline)
        assert (design.status == "ok") == strict
        if not strict:
            continue
        got = np.asarray(design.payments)
        assert got.tobytes() == rho_star.tobytes()
        ref = design_lp_reference(g, target, baseline)
        near = (ref == got) | (ref == np.nextafter(got, np.inf)) \
            | (ref == np.nextafter(got, -np.inf))
        assert near.all()
        oks += 1
    assert oks >= 100


# --- the numpy kernel of earlier releases, kept as the reference -------------

def design_incentive_numpy(game, target, baseline, budget, signal=None):
    """`design_incentive` as it ran on numpy payoff tables: a whole transfer
    table added to the game's, the equilibrium and Pareto checks as array
    comparisons, and numpy sums. It reads the game's numpy view only.
    Returns (status, transfers or None, per-period, discounted, reason)."""
    sig = game.resolve_signal(signal)
    table = game.payoffs[sig]
    n = game.n_agents

    def deviations(tab, i):
        return tab[(i,) + target[:i] + (slice(None),) + target[i + 1:]]

    base_pay = table[(slice(None),) + baseline]
    tgt_pay = table[(slice(None),) + target]
    rho = np.array([max(0.0, float(base_pay[i] - tgt_pay[i]),
                        float(deviations(table, i).max() - tgt_pay[i]))
                    for i in range(n)])
    transfers = np.zeros_like(table)
    transfers[(slice(None),) + target] = rho
    modified = table + transfers
    stay = modified[(slice(None),) + target]
    for i in range(n):
        vec = deviations(modified, i)
        if any(vec[j] > stay[i] + 1e-9 for j in range(len(vec))):
            raise ComputationError("synthesized transfers fail the equilibrium check")
    induced = tgt_pay + rho
    if np.any(induced < base_pay - 1e-9) or not np.any(induced > base_pay + 1e-9):
        return ("infeasible", None, None, None,
                "no strict Pareto improvement at minimal transfers")
    per_period = float(rho.sum())
    price = float(transfers[(slice(None),) + target].sum())
    if budget.horizon is None:
        spent = price / (1.0 - budget.delta)
    else:
        spent = 0.0
        for t in range(budget.horizon):
            spent += (budget.delta ** t) * price
    if not spent <= budget.limit + 1e-9:
        return ("infeasible", None, per_period, spent,
                f"discounted spend {spent} exceeds budget {budget.limit}")
    return ("ok", tuple(rho.tolist()), per_period, spent, "")


def _design_bits(run):
    try:
        result = run()
    except ComputationError as exc:
        return "error", str(exc)
    return tuple(float.hex(v) if isinstance(v, float) else
                 tuple(map(float.hex, v)) if isinstance(v, tuple) else v
                 for v in result)


def test_design_matches_numpy_reference():
    # 2-6 agents, two or three signals, payoffs with exact ties, +-0.0 and
    # (every fifth game) NaN, budgets on both sides of the spend
    rng = np.random.default_rng(2021)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.25, 3.0, -2.5])
    statuses = []
    for trial in range(300):
        n = 2 + trial % 5
        ks = tuple(int(k) for k in rng.integers(1, 4 if n < 5 else 3, size=n))
        actions = tuple(tuple(f"a{j}" for j in range(k)) for k in ks)
        tables = {}
        for sig in ("calm", "storm", "fog")[:2 + trial % 2]:
            table = rng.choice(pool, size=(n,) + ks)
            mixed = rng.random(size=table.shape) < 0.4
            table[mixed] = rng.normal(scale=3.0, size=int(mixed.sum()))
            if trial % 5 == 0:
                table[rng.random(size=table.shape) < 0.2] = np.nan
            tables[sig] = table
        game = make_game(actions, tables)
        profiles = list(game.profiles())
        target = profiles[int(rng.integers(len(profiles)))]
        baseline = profiles[int(rng.integers(len(profiles)))]
        sig = game.signals[int(rng.integers(len(game.signals)))]
        horizon = (None, 1, 4)[trial % 3]
        budget = BudgetSpec(float(rng.choice([0.5, 4.0, 1e9])),
                            float(rng.choice([0.5, 0.9])), horizon)
        want = _design_bits(lambda: design_incentive_numpy(
            game, target, baseline, budget, sig))

        def library():
            d = design_incentive(game, target, baseline, budget, sig)
            return (d.status, d.payments, d.per_period_spend, d.discounted_spend,
                    d.reason)

        assert _design_bits(library) == want, trial
        statuses.append(want[0])
    assert statuses.count("ok") > 20 and statuses.count("infeasible") > 20


# --- the schedule type and trajectory budget check of earlier releases, kept
# as the reference: `design_incentive` built an `IncentiveSchedule` paying at
# the target and priced it along `[target] * horizon`

class IncentiveSchedule(NamedTuple):
    """Per-signal transfers: signal -> {profile: per-agent transfer tuple}.
    A profile left out pays nothing."""

    transfers: dict

    @staticmethod
    def zero(game):
        return IncentiveSchedule({sig: {} for sig in game.signals})

    @staticmethod
    def on_profile(game, profile, per_agent, signal=None):
        sig = game.resolve_signal(signal)
        profile = _check_profile(game.actions, profile)
        sched = IncentiveSchedule.zero(game)
        vec = tuple(float(v) for v in per_agent)
        if len(vec) != game.n_agents:
            raise ValueError(f"need {game.n_agents} transfers, got {len(vec)}")
        sched.transfers[sig][profile] = vec
        return sched

    def per_agent(self, game, profile, signal=None):
        sig = game.resolve_signal(signal)
        profile = _check_profile(game.actions, profile)
        return self.transfers[sig].get(profile, (0.0,) * game.n_agents)


class BudgetReport(NamedTuple):
    spent: float
    within: bool
    mode: str              # "finite" | "closed-form"


def budget_check(budget, game, schedule, trajectory, signal=None):
    sig = game.resolve_signal(signal)
    profiles = list(map(tuple, trajectory))
    if budget.horizon is None:
        if len(set(profiles)) != 1:
            raise ValueError("infinite-horizon budget check needs a single "
                             "stationary profile")
        per_step = _total(schedule.per_agent(game, profiles[0], sig))
        spent = per_step / (1.0 - budget.delta)
        return BudgetReport(spent, spent <= budget.limit + TOL, "closed-form")
    if len(profiles) != budget.horizon:
        raise ValueError(
            f"trajectory length {len(profiles)} != horizon {budget.horizon}")
    price = {}
    spent = 0.0
    for t, profile in enumerate(profiles):
        if profile not in price:
            price[profile] = _total(schedule.per_agent(game, profile, sig))
        spent += (budget.delta ** t) * price[profile]
    return BudgetReport(spent, spent <= budget.limit + TOL, "finite")


def _spend_corpus():
    """(budget, per-agent transfers at the target) over delta 1.0 (finite
    horizons only), 0.5, 0.999999 and 1e-300, horizons of 1, 2, 500, 10**5
    and infinite, and per-agent transfers that pay 0.0, -0.0, 1e-300, 1e300
    or a seeded random price, beside 0.0 or -0.0 for the other agent."""
    rng = np.random.default_rng(2028)
    prices = [0.0, -0.0, 1e-300, 1e300,
              *rng.uniform(-5.0, 5.0, size=3).tolist(), float(rng.lognormal(10.0))]
    for delta in (1.0, 0.5, 0.999999, 1e-300):
        for horizon in (1, 2, 500, 10 ** 5, None):
            if horizon is None and delta == 1.0:
                continue
            for k, price in enumerate(prices):
                yield BudgetSpec(1e9, delta, horizon), (price, (0.0, -0.0)[k % 2])


def test_discounted_spend_matches_reference_kernel():
    # the total a schedule pays at its one profile, summed from 0.0 as the
    # reference prices it, discounted with the reference's own loop
    g = pd_game()
    cases = 0
    for budget, vec in _spend_corpus():
        schedule = IncentiveSchedule.on_profile(g, CC, vec)
        want = budget_check(budget, g, schedule, [CC] * (budget.horizon or 1))
        got = discounted_spend(budget, _total(vec))
        assert float.hex(got) == float.hex(want.spent), (budget.delta, budget.horizon, vec)
        cases += 1
    assert cases == 19 * 8


def design_incentive_reference(game, target, baseline, budget, signal=None):
    """`design_incentive` as it ran on a schedule: (status, the schedule's
    payments at the target or None, per-period, discounted, reason)."""
    sig = game.resolve_signal(signal)
    target, baseline = tuple(target), tuple(baseline)
    base_pay = game.payoff(baseline, sig)
    tgt_pay = game.payoff(target, sig)
    rho = tuple(max(0.0, base_pay[i] - tgt_pay[i],
                    _max(counterfactual_payoffs(game, i, target, sig)) - tgt_pay[i])
                for i in range(game.n_agents))
    schedule = IncentiveSchedule.on_profile(game, target, rho, sig)
    if not is_nash(modified_payoff(game, schedule.transfers), target, TOL, sig).is_nash:
        raise ComputationError("synthesized transfers fail the equilibrium check")
    induced = [t + r for t, r in zip(tgt_pay, rho)]
    if not is_pareto_improving(base_pay, induced):
        return ("infeasible", None, None, None,
                "no strict Pareto improvement at minimal transfers")
    per_period = _total(rho)
    report = budget_check(budget, game, schedule, [target] * (budget.horizon or 1), sig)
    if not report.within:
        return ("infeasible", None, per_period, report.spent,
                f"discounted spend {report.spent} exceeds budget {budget.limit}")
    return ("ok", schedule.per_agent(game, target, sig), per_period, report.spent, "")


def test_design_spend_and_payments_match_reference_kernel():
    # the grid-search corpus under finite and infinite budgets, the
    # smallest of which some designs exceed
    budgets = [BudgetSpec(1e9, 0.5), BudgetSpec(1e9, 0.999999, horizon=500),
               BudgetSpec(1e9, 1.0, horizon=7), BudgetSpec(3.0, 0.9),
               BudgetSpec(3.0, 0.5, horizon=2)]
    statuses = []
    for g, target, baseline in _grid_corpus():
        for budget in budgets:
            want = _design_bits(lambda: design_incentive_reference(
                g, target, baseline, budget))
            d = design_incentive(g, target, baseline, budget)
            assert _design_bits(lambda: tuple(d)) == want
            statuses.append((want[0], want[3] is None))
    # designs within budget, over it, and without a strict winner
    assert {("ok", False), ("infeasible", False), ("infeasible", True)} \
        <= set(statuses)
