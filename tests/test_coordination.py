"""Slow-coordinator / fast-learner loop, leader-follower choice, rollouts,
and greedy coalition-structure dynamics."""

import hashlib
import itertools

import numpy as np
import pytest

from stgames.coop import CoalitionGame
from stgames.coordination import (AdmissibleSetRule, CoordinatorPolicy,
                                  DynamicGame, EpochDigest, RolloutPolicy,
                                  apply_admissible_sets, coordinator_update,
                                  evolve_coalitions, rollout_dynamic_game,
                                  run_merge_split, run_two_timescale,
                                  stackelberg_solve)
from stgames.incentives import IncentiveSchedule
from stgames.learning import LearnerSpec, RateSchedule, run_dynamics
from stgames import strategic
from stgames.strategic import StrategicGame

PD = {("C", "D"): (0, 5), ("D", "C"): (5, 0),
      ("C", "C"): (3, 3), ("D", "D"): (1, 1)}
PD_HI = {("C", "C"): (6, 6), ("C", "D"): (0, 5),
         ("D", "C"): (5, 0), ("D", "D"): (1, 1)}


def two_signal_pd():
    return StrategicGame.from_tables((("C", "D"), ("C", "D")),
                                     {"lo": PD, "hi": PD_HI})


def leader_fixture():
    """Candidate A: two equilibria worth 5 and 1 total; B: unique, worth 3."""
    tables = {
        "A": {("x", "x"): (2.5, 2.5), ("x", "y"): (-1, -1),
              ("y", "x"): (-1, -1), ("y", "y"): (0.5, 0.5)},
        "B": {("x", "x"): (1.5, 1.5), ("x", "y"): (1.5, 0),
              ("y", "x"): (0, 1.5), ("y", "y"): (0, 0)},
    }
    return StrategicGame.from_tables((("x", "y"), ("x", "y")), tables)


def test_admissible_subgame():
    g = two_signal_pd()
    rule = AdmissibleSetRule({"lo": ((0,), (0, 1))})      # agent 0 held to C
    sub = apply_admissible_sets(g, rule, "lo")
    assert sub.actions == (("C",), ("C", "D"))
    assert sub.payoff((0, 1), "lo") == pytest.approx([0, 5])
    # unrestricted signal passes the full game through
    assert apply_admissible_sets(g, rule, "hi") is g
    assert apply_admissible_sets(
        g, AdmissibleSetRule({"lo": ((0, 1), (0, 1))}), "lo") is g
    flipped = apply_admissible_sets(
        g, AdmissibleSetRule({"lo": ((1, 0), (0, 1))}), "lo")
    assert flipped.actions == (("D", "C"), ("C", "D"))
    assert flipped.payoff((0, 0), "lo") == pytest.approx([5, 0])   # (D, C)
    with pytest.raises(ValueError, match="admissible set empty"):
        apply_admissible_sets(g, AdmissibleSetRule({"lo": ((), (0,))}), "lo")
    with pytest.raises(ValueError, match="must cover all agents"):
        apply_admissible_sets(g, AdmissibleSetRule({"lo": ((0,),)}), "lo")
    with pytest.raises(IndexError):
        apply_admissible_sets(g, AdmissibleSetRule({"lo": ((2,), (0,))}), "lo")


def test_coordinator_kinds():
    g = two_signal_pd()
    digest = EpochDigest("lo", ((1.0, 0.0), (1.0, 0.0)), 3.0, (1.5, 1.5))

    const = CoordinatorPolicy("constant", ("lo", "hi"))
    assert coordinator_update(const, g, "lo", digest) == "lo"

    rr = CoordinatorPolicy("round-robin", ("lo", "hi"))
    assert coordinator_update(rr, g, "lo", digest) == "hi"
    assert coordinator_update(rr, g, "hi", digest) == "lo"
    assert coordinator_update(rr, g, "elsewhere", digest) == "lo"

    greedy = CoordinatorPolicy("greedy", ("lo", "hi"))
    # everyone cooperating: hi pays (6,6) vs lo (3,3)
    assert coordinator_update(greedy, g, "lo", digest) == "hi"
    assert coordinator_update(greedy, g, "lo", None) == "lo"

    tied = EpochDigest("lo", ((0.0, 1.0), (0.0, 1.0)), 2.0, (1.0, 1.0))
    # mutual defection pays (1,1) under both signals: earliest candidate wins
    assert coordinator_update(greedy, g, "hi", tied) == "lo"

    with pytest.raises(ValueError):
        CoordinatorPolicy("epsilon", ("lo",))
    with pytest.raises(ValueError):
        CoordinatorPolicy("greedy", ())


def test_single_epoch_is_plain_dynamics():
    g = two_signal_pd()
    specs = [LearnerSpec("fictitious-play"),
             LearnerSpec("smoothed-best-response")]
    result = run_two_timescale(
        g, specs, CoordinatorPolicy("constant", ("lo",)),
        outer_steps=1, epoch_length=40, seed=12)
    direct = run_dynamics(g, specs, 40, seed=12,
                          signal_schedule=lambda t: "lo")
    epoch_trace = result.traces[0]
    assert np.array_equal(epoch_trace.actions, direct.actions)
    assert np.array_equal(epoch_trace.payoffs, direct.payoffs)
    for i in range(2):
        assert np.array_equal(epoch_trace.policies[i], direct.policies[i])
        assert np.array_equal(result.final_state.policies[i],
                              direct.final_state.policies[i])


def test_greedy_coordinator_locks_better_signal():
    g = two_signal_pd()
    # cooperation enforced by admissible sets so hi shows its higher welfare
    rule = AdmissibleSetRule({"lo": ((0,), (0,)), "hi": ((0,), (0,))})
    specs = [LearnerSpec("best-response")] * 2
    result = run_two_timescale(
        g, specs, CoordinatorPolicy("greedy", ("lo", "hi")),
        outer_steps=4, epoch_length=5, seed=0, admissible=rule,
        initial_signal="lo")
    assert result.final_signal == "hi"
    assert [e.signal for e in result.epochs] == ["lo", "hi", "hi", "hi"]
    digest = result.epochs[-1].digest
    assert digest.mean_welfare == pytest.approx(12.0)
    # frequencies are reported over the full action set
    assert digest.frequencies[0] == pytest.approx((1.0, 0.0))


def test_incentives_inside_the_loop():
    g = two_signal_pd()
    transfers = IncentiveSchedule.zero(g)
    arr = transfers.transfers["lo"]
    arr[0, 0] += (3.0, 3.0)     # (C,C) pays 6: beats the 5 from defecting
    arr[0, 1, 0] += 2.0         # C against D pays 2: beats mutual defection
    arr[1, 0, 1] += 2.0
    specs = [LearnerSpec("best-response")] * 2
    result = run_two_timescale(
        g, specs, CoordinatorPolicy("constant", ("lo",)),
        outer_steps=2, epoch_length=30, seed=4, incentives=transfers)
    digest = result.epochs[-1].digest
    # transfers make cooperation strictly dominant, so the epoch locks on it
    assert digest.frequencies[0][0] > 0.9
    # the digest reports base-game payoffs, not the transferred ones
    assert digest.mean_payoffs[0] == pytest.approx(3.0, abs=0.5)


def test_two_timescale_validation():
    g = two_signal_pd()
    specs = [LearnerSpec("best-response")] * 2
    coord = CoordinatorPolicy("constant", ("lo",))
    with pytest.raises(ValueError):
        run_two_timescale(g, specs, coord, outer_steps=0, epoch_length=5)
    with pytest.raises(ValueError):
        run_two_timescale(g, specs, coord, outer_steps=1, epoch_length=0)
    with pytest.raises(ValueError):
        run_two_timescale(g, specs, CoordinatorPolicy("constant", ("up",)),
                          outer_steps=1, epoch_length=5)


def test_admissible_reordering_keeps_policies_on_their_actions():
    # a set listing every action in another order permutes the policy along
    # with the estimates, so a frozen policy keeps playing the same action
    g = two_signal_pd()
    frozen = LearnerSpec("best-response", initial_policy=(1.0, 0.0),
                         policy_rate=RateSchedule("constant", 0.0))
    rule = AdmissibleSetRule({"lo": ((1, 0), (1, 0))})      # D, then C
    result = run_two_timescale(
        g, [frozen] * 2, CoordinatorPolicy("constant", ("lo",)),
        outer_steps=2, epoch_length=10, seed=3, admissible=rule)
    for epoch in result.epochs:
        assert epoch.digest.frequencies == ((1.0, 0.0), (1.0, 0.0))
    assert result.final_state.policies[0].tolist() == [1.0, 0.0]


def test_admissible_sets_resolve_no_labels_at_run_time(monkeypatch):
    # the rule holds action indices, so epochs never turn labels into them
    def refuse(*args):
        raise AssertionError("label lookup at run time")

    g = two_signal_pd()
    monkeypatch.setattr(strategic, "profile_index", refuse)
    rule = AdmissibleSetRule({"hi": ((0,), (0, 1))})
    result = run_two_timescale(g, [LearnerSpec("best-response")] * 2,
                               CoordinatorPolicy("round-robin", ("lo", "hi")),
                               outer_steps=4, epoch_length=3, seed=0,
                               admissible=rule, initial_signal="lo")
    # epochs 1 and 3 run under "hi", which holds agent 0 to C
    for epoch in result.epochs[1::2]:
        assert epoch.signal == "hi"
        assert epoch.digest.frequencies[0] == (1.0, 0.0)


def test_leader_prefers_optimism_on_multiplicity():
    g = leader_fixture()
    opt = stackelberg_solve(g, ("A", "B"), "optimistic")
    pess = stackelberg_solve(g, ("A", "B"), "pessimistic")
    assert opt.best_candidate == "A"
    assert opt.leader_value == pytest.approx(5.0)
    assert pess.best_candidate == "B"
    assert pess.leader_value == pytest.approx(3.0)
    assert opt.leader_value > pess.leader_value

    by_cand = {o.candidate: o for o in opt.outcomes}
    assert by_cand["A"].values == pytest.approx((5.0, 1.0))
    assert by_cand["A"].value == pytest.approx(5.0)
    assert by_cand["B"].equilibria == ((0, 0),)           # (x, x)
    with pytest.raises(ValueError):
        stackelberg_solve(g, ("A",), "hopeful")


def test_leader_reports_full_game_indices_under_reordered_sets():
    # both agents coordinate; (z, x) is worth 5 each but agent 0 may not
    # play z, and the admissible sets list y before x, so the subgame's
    # index 0 is the full game's 1
    pay = {"x": {"x": 1, "y": 0}, "y": {"x": 0, "y": 2}, "z": {"x": 5, "y": 0}}
    g = StrategicGame.single(
        (("x", "y", "z"), ("x", "y")),
        {(a, b): (v, v) for a, row in pay.items() for b, v in row.items()})
    seen = []

    def welfare(game, candidate, profile):
        seen.append((game, profile))
        return float(game.payoff(profile, candidate).sum())

    full = stackelberg_solve(g, ("default",))
    assert full.outcomes[0].equilibria == ((1, 1), (2, 0))     # (y, y), (z, x)
    rule = AdmissibleSetRule({"default": ((1, 0), (1, 0))})
    rep = stackelberg_solve(g, ("default",), leader_objective=welfare,
                            admissible=rule)
    out = rep.outcomes[0]
    # subgame order: (y, y) then (x, x), each named in full-game indices
    assert out.equilibria == ((1, 1), (0, 0))
    assert out.values == (4.0, 2.0)
    assert seen == [(g, (1, 1)), (g, (0, 0))]
    assert rep.leader_value == 4.0


def test_leader_skips_candidates_without_pure_equilibrium():
    tables = {
        "spin": {("x", "x"): (1, -1), ("x", "y"): (-1, 1),
                 ("y", "x"): (-1, 1), ("y", "y"): (1, -1)},
        "calm": {("x", "x"): (1, 1), ("x", "y"): (0, 0),
                 ("y", "x"): (0, 0), ("y", "y"): (0.5, 0.5)},
    }
    g = StrategicGame.from_tables((("x", "y"), ("x", "y")), tables)
    with pytest.warns(UserWarning):
        rep = stackelberg_solve(g, ("spin", "calm"), "pessimistic")
    assert rep.best_candidate == "calm"
    assert rep.outcomes[0].skipped
    assert rep.outcomes[0].value is None


def test_optimistic_dominates_pessimistic_randomly():
    rng = np.random.default_rng(606)
    import itertools
    actions = (("x", "y"), ("x", "y"))
    profiles = list(itertools.product(*actions))
    checked = 0
    for _ in range(40):
        tables = {sig: {p: rng.integers(-4, 5, size=2).astype(float)
                        for p in profiles}
                  for sig in ("s0", "s1", "s2")}
        g = StrategicGame.from_tables(actions, tables)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            opt = stackelberg_solve(g, ("s0", "s1", "s2"), "optimistic")
            pess = stackelberg_solve(g, ("s0", "s1", "s2"), "pessimistic")
        if opt.leader_value is None:
            assert pess.leader_value is None
            continue
        assert opt.leader_value >= pess.leader_value - 1e-12
        checked += 1
    assert checked >= 25


def test_rollout_geometric_series():
    only = (("go",), ("go",))
    stage = StrategicGame.single(only, {("go", "go"): (1.0, 1.0)})
    dyn = DynamicGame({"s": stage}, {}, "s")
    policies = [RolloutPolicy("feedback", table={"s": 0})] * 2
    rep = rollout_dynamic_game(dyn, policies, beta=0.5, rollouts=3, seed=0)
    assert rep.mean == pytest.approx([2.0, 2.0], abs=1e-5)
    assert rep.stderr == pytest.approx([0.0, 0.0], abs=1e-12)
    assert rep.truncation_bound < 1e-5
    assert 0.5 ** rep.horizon < 1e-6


def test_rollout_feedback_vs_open_loop():
    acts = (("a", "b"), ("a", "b"))
    calm = StrategicGame.single(
        acts, {("a", "a"): (1, 1), ("a", "b"): (0, 0),
               ("b", "a"): (0, 0), ("b", "b"): (0, 0)})
    storm = StrategicGame.single(
        acts, {("a", "a"): (0, 0), ("a", "b"): (0, 0),
               ("b", "a"): (0, 0), ("b", "b"): (4, 4)})
    # profiles and policies are action indices: 0 is a, 1 is b
    dyn = DynamicGame({"calm": calm, "storm": storm},
                      {("calm", (0, 0)): "storm"}, "calm")
    feedback = [RolloutPolicy("feedback", table={"calm": 0, "storm": 1})] * 2
    rep = rollout_dynamic_game(dyn, feedback, beta=0.5, rollouts=2, seed=1)
    # 1 at t=0, then 4 every step after: 1 + 4 * (0.5 / 0.5) ... hand sum
    want = 1.0 + 4.0 * sum(0.5 ** t for t in range(1, rep.horizon))
    assert rep.mean == pytest.approx([want, want], abs=1e-9)

    stuck = [RolloutPolicy("open-loop", plan=(0,))] * 2
    rep2 = rollout_dynamic_game(dyn, stuck, beta=0.5, rollouts=2, seed=1)
    assert rep2.mean == pytest.approx([1.0, 1.0], abs=1e-9)   # storm pays 0 to (a,a)

    with pytest.raises(ValueError):
        rollout_dynamic_game(dyn, feedback, beta=1.0, rollouts=2)
    with pytest.raises(ValueError):
        rollout_dynamic_game(dyn, feedback, beta=0.5, rollouts=0)
    with pytest.raises(ValueError):
        rollout_dynamic_game(dyn, feedback[:1], beta=0.5, rollouts=2)
    with pytest.raises(ValueError):
        DynamicGame({"s": calm}, {}, "missing")
    with pytest.raises(ValueError):
        DynamicGame({"calm": calm},
                    {("calm", (0, 0)): (("calm", 0.6), ("calm", 0.2))},
                    "calm")
    with pytest.raises(ValueError):
        DynamicGame({"calm": calm, "storm": storm},
                    {("calm", (0, 0)): (("calm", 1.5), ("storm", -0.5))},
                    "calm")
    with pytest.raises(ValueError):
        RolloutPolicy("feedback")
    with pytest.raises(ValueError, match="feedback policy needs a table"):
        RolloutPolicy("feedback", plan=(0,))
    with pytest.raises(ValueError, match="plan needs at least one action"):
        RolloutPolicy("open-loop", plan=())
    with pytest.raises(ValueError):
        RolloutPolicy("closed-loop", table={})


def test_merge_split_to_grand_coalition():
    g = CoalitionGame.from_dict(
        3, {m: float(bin(m).count("1") ** 2) for m in range(1, 8)})
    final, moves = run_merge_split(g, (0b001, 0b010, 0b100))
    assert final == (0b111,)
    assert all(m.kind == "merge" for m in moves)
    assert len(moves) == 2


def test_merge_split_improves_monotonically_on_random_games():
    # every accepted move raises the summed block value; a fixed point
    # arrives within 2^n moves and survives another evolve call
    rng = np.random.default_rng(64)
    for trial in range(60):
        n = 3 + trial % 4
        g = CoalitionGame.from_dict(
            n, {m: float(rng.uniform(-1, 2)) for m in range(1, 1 << n)})
        cur = tuple(1 << i for i in range(n))
        for step in range(1 << n):
            total = sum(g.value(b) for b in cur)
            nxt, move = evolve_coalitions(g, cur)
            if move.kind == "none":
                assert nxt == cur
                break
            assert sum(g.value(b) for b in nxt) > total
            cur = nxt
        else:
            raise AssertionError("no fixed point within 2^n moves")
        _, again = evolve_coalitions(g, cur)
        assert again.kind == "none"


def test_rollout_error_shrinks_with_sample_size():
    # quadrupling the rollout count should halve the standard error
    acts = (("go",), ("go",))
    cold = StrategicGame.single(acts, {("go", "go"): (0.0, 0.0)})
    hot = StrategicGame.single(acts, {("go", "go"): (1.0, 1.0)})
    dyn = DynamicGame(
        {"cold": cold, "hot": hot},
        {("cold", (0, 0)): (("cold", 0.5), ("hot", 0.5)),
         ("hot", (0, 0)): (("cold", 0.5), ("hot", 0.5))},
        "cold")
    pol = [RolloutPolicy("feedback", table={"cold": 0, "hot": 0})] * 2
    for seed in range(5):
        small = rollout_dynamic_game(dyn, pol, beta=0.9, rollouts=200, seed=seed)
        big = rollout_dynamic_game(dyn, pol, beta=0.9, rollouts=800, seed=seed)
        ratio = small.stderr[0] / big.stderr[0]
        assert 1.7 <= ratio <= 2.3
        # half the steps pay 1.0, discounted from t=1: 0.5 * 0.9 / 0.1
        assert abs(big.mean[0] - 4.5) < 0.2


def test_merge_split_prefers_splitting_bad_blocks():
    g = CoalitionGame.from_dict(2, {0b01: 1.0, 0b10: 1.0, 0b11: 0.5})
    final, moves = run_merge_split(g, (0b11,))
    assert final == (0b01, 0b10)
    assert moves[0].kind == "split"
    assert moves[0].gain == pytest.approx(1.5)

    stable, move = evolve_coalitions(g, (0b01, 0b10))
    assert move.kind == "none"
    assert stable == (0b01, 0b10)

    with pytest.raises(ValueError):
        evolve_coalitions(g, (0b01,))          # does not cover agent 1
    with pytest.raises(ValueError):
        evolve_coalitions(g, (0b11, 0b10))     # overlap


# --- the per-rollout loop of earlier releases, kept as a reference ------------

def _reference_rollouts(dyn, policies, beta, rollouts, seed):
    """One rollout at a time: a policy lookup, `payoff`, a dict transition
    and one `rng.choice` per stochastic step; returns (mean, stderr)."""
    rng = np.random.default_rng(seed)
    horizon = 1
    acc = beta
    while acc >= 1e-6:
        acc *= beta
        horizon += 1
    totals = np.zeros((rollouts, dyn.n_agents))
    for r in range(rollouts):
        state = dyn.initial_state
        disc = 1.0
        for t in range(horizon):
            stage = dyn.stage_games[state]
            profile = tuple(policies[i].action(t, state, dyn.initial_state)
                            for i in range(dyn.n_agents))
            totals[r] += disc * stage.payoff(profile)
            nxt = dyn.transitions.get((state, profile), state)
            if not isinstance(nxt, str):
                labels = [s for s, _ in nxt]
                probs = np.asarray([p for _, p in nxt])
                nxt = labels[int(rng.choice(len(labels), p=probs))]
            state = nxt
            disc *= beta
    stderr = (totals.std(axis=0, ddof=1) / np.sqrt(rollouts) if rollouts > 1
              else np.zeros(dyn.n_agents))
    return totals.mean(axis=0), stderr


def _random_dynamic_game(rng, stochastic):
    """Two to four reachable states plus "orphan", which no transition
    enters and no feedback table lists; some transitions are left out (the
    chain stays put), and policies mix feedback tables, open-loop tables
    and open-loop plans of one to four steps."""
    n = int(rng.integers(2, 4))
    actions = tuple(tuple(f"a{k}" for k in range(int(rng.integers(1, 4))))
                    for _ in range(n))
    states = [f"s{k}" for k in range(int(rng.integers(2, 5)))]
    labelled = list(itertools.product(*actions))
    profiles = list(itertools.product(*(range(len(a)) for a in actions)))
    stage_games = {
        s: StrategicGame.single(actions, {p: rng.normal(size=n) for p in labelled})
        for s in states + ["orphan"]}
    transitions = {}
    for s in states:
        for p in profiles:
            if rng.random() < 0.2:
                continue                             # no entry: stay put
            if not stochastic:
                transitions[s, p] = states[int(rng.integers(len(states)))]
                continue
            picks = rng.choice(len(states), size=int(rng.integers(1, 4)))
            w = rng.random(len(picks))
            w[rng.random(len(picks)) < 0.2] = 0.0    # zero-probability entries
            w[0] += 0.1
            transitions[s, p] = tuple((states[k], float(x))
                                      for k, x in zip(picks, w / w.sum()))
    policies = []
    for i in range(n):
        table = {s: int(rng.integers(len(actions[i]))) for s in states}
        kind = int(rng.integers(3))
        if kind == 0:
            policies.append(RolloutPolicy("feedback", table=table))
        elif kind == 1:
            policies.append(RolloutPolicy("open-loop", table=table))
        else:
            plan = tuple(int(rng.integers(len(actions[i])))
                         for _ in range(int(rng.integers(1, 5))))
            policies.append(RolloutPolicy("open-loop", plan=plan))
    return DynamicGame(stage_games, transitions, states[0]), policies


def test_deterministic_rollouts_match_reference_bit_for_bit():
    rng = np.random.default_rng(909)
    for trial in range(120):
        dyn, policies = _random_dynamic_game(rng, stochastic=False)
        beta = float(rng.choice([0.3, 0.5, 0.8]))
        rollouts = int(rng.integers(1, 6))
        rep = rollout_dynamic_game(dyn, policies, beta, rollouts, seed=trial)
        mean, stderr = _reference_rollouts(dyn, policies, beta, rollouts, trial)
        assert rep.mean.tobytes() == mean.tobytes(), trial
        assert rep.stderr.tobytes() == stderr.tobytes(), trial


def test_rollout_needs_no_entry_for_states_past_the_horizon():
    # a chain s0 -> s1 -> ... whose state H is entered only after the last
    # step: like the reference loop, the rollout never looks it up
    acts = (("go",), ("go",))
    horizon = rollout_dynamic_game(
        DynamicGame({"s": StrategicGame.single(acts, {("go", "go"): (1, 1)})},
                    {}, "s"),
        [RolloutPolicy("feedback", table={"s": 0})] * 2, 0.2, 1).horizon
    stage_games = {f"s{k}": StrategicGame.single(acts, {("go", "go"): (k, -k)})
                   for k in range(horizon)}
    transitions = {(f"s{k}", (0, 0)): f"s{k + 1}" for k in range(horizon)}
    dyn = DynamicGame(stage_games, transitions, "s0")
    policies = [RolloutPolicy("feedback", table={s: 0 for s in stage_games})] * 2
    rep = rollout_dynamic_game(dyn, policies, 0.2, 3, seed=0)
    mean, stderr = _reference_rollouts(dyn, policies, 0.2, 3, 0)
    assert rep.mean.tobytes() == mean.tobytes()
    assert rep.stderr.tobytes() == stderr.tobytes()


def test_stochastic_rollouts_agree_with_reference_in_mean():
    rng = np.random.default_rng(910)
    for trial in range(20):
        dyn, policies = _random_dynamic_game(rng, stochastic=True)
        rep = rollout_dynamic_game(dyn, policies, 0.5, 200, seed=trial)
        mean, stderr = _reference_rollouts(dyn, policies, 0.5, 200, trial)
        tol = 4.0 * np.sqrt(rep.stderr ** 2 + stderr ** 2) + 1e-12
        assert np.all(np.abs(rep.mean - mean) <= tol), trial


def test_rollout_draw_order_is_pinned():
    # step-major: step t takes rng.random(rollouts), one uniform per rollout.
    # This game (a feedback table, an open-loop table, a three-step plan, 41
    # transitions) draws at many steps, so the rollout-major order of the
    # reference loop gives other bytes.
    dyn, policies = _random_dynamic_game(np.random.default_rng(940),
                                         stochastic=True)
    rep = rollout_dynamic_game(dyn, policies, 0.7, 50, seed=5)
    digest = hashlib.sha256(rep.mean.tobytes() + rep.stderr.tobytes())
    assert digest.hexdigest() == (
        "aedacdcbbf21aeee95b5750352d7010d994af356f9522b6348fa118630b054fe")
