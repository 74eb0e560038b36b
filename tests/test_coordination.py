"""Slow-coordinator / fast-learner loop and leader-follower choice."""

import itertools
import tracemalloc

import numpy as np
import pytest

from stgames import learning
from stgames.coordination import (CoordinatorPolicy, EpochDigest, _restrict,
                                  coordinator_update, run_two_timescale,
                                  stackelberg_solve)
from stgames.learning import (LearnerSpec, LearningState, RateSchedule,
                              run_dynamics)
from stgames.strategic import StrategicGame

from conftest import make_game

PD = {("C", "D"): (0, 5), ("D", "C"): (5, 0),
      ("C", "C"): (3, 3), ("D", "D"): (1, 1)}
PD_HI = {("C", "C"): (6, 6), ("C", "D"): (0, 5),
         ("D", "C"): (5, 0), ("D", "D"): (1, 1)}


def two_signal_pd():
    return make_game((("C", "D"), ("C", "D")), {"lo": PD, "hi": PD_HI})


def leader_fixture():
    """Candidate A: two equilibria worth 5 and 1 total; B: unique, worth 3."""
    tables = {
        "A": {("x", "x"): (2.5, 2.5), ("x", "y"): (-1, -1),
              ("y", "x"): (-1, -1), ("y", "y"): (0.5, 0.5)},
        "B": {("x", "x"): (1.5, 1.5), ("x", "y"): (1.5, 0),
              ("y", "x"): (0, 1.5), ("y", "y"): (0, 0)},
    }
    return make_game((("x", "y"), ("x", "y")), tables)


def test_admissible_subgame():
    g = two_signal_pd()
    admissible = {"lo": ((0,), (0, 1))}                  # agent 0 held to C
    sub, keep = _restrict(g, admissible, "lo")
    assert sub.actions == (("C",), ("C", "D"))
    assert keep == [[0], [0, 1]]
    assert sub.payoff((0, 1), "lo") == pytest.approx([0, 5])
    # unrestricted signal passes the full game through
    assert _restrict(g, admissible, "hi")[0] is g
    assert _restrict(g, None, "lo")[0] is g
    assert _restrict(g, {"lo": ((0, 1), (0, 1))}, "lo")[0] is g
    flipped = _restrict(g, {"lo": ((1, 0), (0, 1))}, "lo")[0]
    assert flipped.actions == (("D", "C"), ("C", "D"))
    assert flipped.payoff((0, 0), "lo") == pytest.approx([5, 0])   # (D, C)
    with pytest.raises(ValueError, match="admissible set empty"):
        _restrict(g, {"lo": ((), (0,))}, "lo")
    with pytest.raises(ValueError, match="must cover all agents"):
        _restrict(g, {"lo": ((0,),)}, "lo")
    with pytest.raises(IndexError):
        _restrict(g, {"lo": ((2,), (0,))}, "lo")


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


def test_single_epoch_is_plain_dynamics(recorder):
    g = two_signal_pd()
    specs = [LearnerSpec("fictitious-play"),
             LearnerSpec("smoothed-best-response")]
    result = run_two_timescale(
        g, specs, CoordinatorPolicy("constant", ("lo",)),
        outer_steps=1, epoch_length=40, seed=12)
    [epoch_trace] = recorder.traces
    epoch_policies = recorder.histories(epoch_trace)[0]
    direct = run_dynamics(g, specs, 40, seed=12,
                          signal_schedule=lambda t: "lo")
    direct_policies = recorder.histories(direct)[0]
    assert np.array_equal(epoch_trace.actions, direct.actions)
    assert np.array_equal(epoch_trace.payoffs, direct.payoffs)
    for i in range(2):
        assert np.array_equal(epoch_policies[i], direct_policies[i])
        assert np.array_equal(result.final_state.policies[i],
                              direct.final_state.policies[i])


def test_result_holds_no_per_step_history():
    # the result keeps epoch digests and the final state only; keeping
    # every epoch's trace held about 1 MB here
    g = two_signal_pd()
    specs = [LearnerSpec("smoothed-best-response")] * 2
    coordinator = CoordinatorPolicy("round-robin", ("lo", "hi"))
    # a short run first, so what numpy builds on first use is not counted
    run_two_timescale(g, specs, coordinator, outer_steps=2, epoch_length=10, seed=2)
    tracemalloc.start()
    try:
        result = run_two_timescale(g, specs, coordinator, outer_steps=10,
                                   epoch_length=1000, seed=2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result.epochs) == 10
    assert held < 0.1 * 2 ** 20


def test_greedy_coordinator_locks_better_signal():
    g = two_signal_pd()
    # cooperation enforced by admissible sets so hi shows its higher welfare
    rule = {"lo": ((0,), (0,)), "hi": ((0,), (0,))}
    specs = [LearnerSpec("best-response")] * 2
    result = run_two_timescale(
        g, specs, CoordinatorPolicy("greedy", ("lo", "hi")),
        outer_steps=4, epoch_length=5, seed=0, admissible=rule,
        initial_signal="lo")
    assert [e.signal for e in result.epochs] == ["lo", "hi", "hi", "hi"]
    digest = result.epochs[-1]
    assert digest.mean_welfare == pytest.approx(12.0)
    # frequencies are reported over the full action set
    assert digest.frequencies[0] == pytest.approx((1.0, 0.0))


def test_incentives_inside_the_loop():
    g = two_signal_pd()
    # agent 0 gets 3 at (C, C) and (C, D) and 2 at (D, C); agent 1 gets 2
    # at (C, D)
    transfers = {"lo": {(0, 0): (3.0, 0.0), (0, 1): (3.0, 2.0), (1, 0): (2.0, 0.0)},
                 "hi": {}}
    specs = [LearnerSpec("best-response")] * 2
    result = run_two_timescale(
        g, specs, CoordinatorPolicy("constant", ("lo",)),
        outer_steps=2, epoch_length=30, seed=4, incentives=transfers)
    digest = result.epochs[-1]
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
    rule = {"lo": ((1, 0), (1, 0))}                   # D, then C
    result = run_two_timescale(
        g, [frozen] * 2, CoordinatorPolicy("constant", ("lo",)),
        outer_steps=2, epoch_length=10, seed=3, admissible=rule)
    for epoch in result.epochs:
        assert epoch.frequencies == ((1.0, 0.0), (1.0, 0.0))
    assert result.final_state.policies[0] == [1.0, 0.0]


def test_admissible_sets_resolve_no_labels_at_run_time():
    # the sets hold action indices, so epochs never turn labels into them
    class Unindexed(tuple):
        def index(self, *args):
            raise AssertionError("label lookup at run time")

    g = two_signal_pd()
    g.actions = tuple(map(Unindexed, g.actions))
    rule = {"hi": ((0,), (0, 1))}
    result = run_two_timescale(g, [LearnerSpec("best-response")] * 2,
                               CoordinatorPolicy("round-robin", ("lo", "hi")),
                               outer_steps=4, epoch_length=3, seed=0,
                               admissible=rule, initial_signal="lo")
    # epochs 1 and 3 run under "hi", which holds agent 0 to C
    for epoch in result.epochs[1::2]:
        assert epoch.signal == "hi"
        assert epoch.frequencies[0] == (1.0, 0.0)


def test_each_restricted_game_is_built_once(monkeypatch):
    builds = []
    subgame = StrategicGame.subgame

    def counted(game, keep):
        builds.append(keep)
        return subgame(game, keep)

    monkeypatch.setattr(StrategicGame, "subgame", counted)
    g = make_game((("C", "D", "E"), ("C", "D", "E")),
                  {sig: np.arange(18.0).reshape(2, 3, 3) % 5
                   for sig in ("lo", "hi", "mid", "all")})
    # "all" keeps every action in order, so it plays the full game
    rule = {"hi": ((0, 2), (1, 2)), "mid": ((2, 1, 0), (0, 1, 2)),
            "all": ((0, 1, 2), (0, 1, 2))}
    result = run_two_timescale(
        g, [LearnerSpec("best-response")] * 2,
        CoordinatorPolicy("round-robin", ("lo", "hi", "mid", "all")),
        outer_steps=12, epoch_length=1, seed=0, admissible=rule)
    assert [e.signal for e in result.epochs] == ["lo", "hi", "mid", "all"] * 3
    assert builds == [[[0, 2], [1, 2]], [[2, 1, 0], [0, 1, 2]]]


# --- the numpy learning state the float lists replaced, kept as the
# reference: the state as arrays, projected by fancy indexing and
# embedded in place, with `run_dynamics` converting it to lists on entry
# and back on return

def reference_fresh(game, specs):
    policies, estimates, counts = [], [], []
    for i, spec in enumerate(specs):
        k = len(game.actions[i])
        policies.append(np.full(k, 1.0 / k) if spec.initial_policy is None
                        else np.asarray(spec.initial_policy, dtype=float))
        estimates.append(np.zeros(k) if spec.initial_estimate is None
                         else np.asarray(spec.initial_estimate, dtype=float))
        counts.append(np.zeros(k))
    return LearningState(policies, estimates, counts)


def reference_project(state, keep, masses):
    policies = []
    for pi, idx in zip(state.policies, keep):
        sub = pi[idx]
        if len(idx) < len(pi):
            mass = sub.sum()
            masses.append((len(idx), mass))
            sub = sub / mass if mass > 0 else np.full(len(idx), 1.0 / len(idx))
        policies.append(sub)
    return LearningState(
        policies, [q[idx] for q, idx in zip(state.estimates, keep)],
        [c[idx] for c, idx in zip(state.counts, keep)], state.t)


def reference_embed(state, sub, keep):
    for i, idx in enumerate(keep):
        pi = np.zeros_like(state.policies[i])
        pi[idx] = sub.policies[i]
        state.policies[i] = pi
        state.estimates[i][idx] = sub.estimates[i]
        state.counts[i][idx] = sub.counts[i]
    state.t = sub.t


def reference_dynamics(game, specs, horizon, rng, signal, state):
    # the counts are whole numbers, so their totals do not depend on
    # whether numpy or Python sums them
    lists = LearningState([p.tolist() for p in state.policies],
                          [q.tolist() for q in state.estimates],
                          [c.tolist() for c in state.counts], state.t)
    trace = run_dynamics(game, specs, horizon, rng=rng,
                         signal_schedule=lambda t: signal, initial_state=lists)
    for c, tally in zip(state.counts, lists.counts):
        c[:] = tally
    state.policies = [np.array(p) for p in lists.policies]
    state.estimates = [np.array(q) for q in lists.estimates]
    state.t = lists.t
    return trace._replace(final_state=state)


def reference_two_timescale(game, specs, coordinator, outer_steps,
                            epoch_length, seed, admissible, states, masses):
    rng = np.random.default_rng(seed)
    signal = coordinator.candidates[0]
    state = reference_fresh(game, specs)
    epochs, digest = [], None
    for k in range(outer_steps):
        if k > 0:
            signal = coordinator_update(coordinator, game, signal, digest)
        before = [c.copy() for c in state.counts]
        restricted, keep = _restrict(game, admissible, signal)
        projected = reference_project(state, keep, masses)
        states.append(_state_hex(projected))
        trace = reference_dynamics(restricted, specs, epoch_length, rng, signal,
                                   projected)
        states.append(_state_hex(trace.final_state))
        reference_embed(state, trace.final_state, keep)
        freqs = tuple(tuple(((c - b) / epoch_length).tolist())
                      for c, b in zip(state.counts, before))
        mean_pay = trace.payoffs.mean(axis=0)
        digest = EpochDigest(signal, freqs, float(mean_pay.sum()),
                             tuple(float(v) for v in mean_pay))
        epochs.append(digest)
    return epochs, state


def _hex(values):
    return [float(v).hex() for v in values]


def _state_hex(state):
    return ([_hex(v) for v in state.policies], [_hex(v) for v in state.estimates],
            [_hex(v) for v in state.counts], state.t)


def _digest_hex(d):
    return (d.signal, [_hex(f) for f in d.frequencies],
            _hex((d.mean_welfare,) + d.mean_payoffs))


def _state_corpus():
    """Seeded multi-epoch runs over three signals: "hi" holds each agent
    to a shuffled subset of 8 or more of its 9-12 actions, "mid" to a
    reordering of all of them, "lo" to none. Agent 0 of every third run
    starts on one action, frozen, that "hi" leaves out: a restriction of
    zero mass, which projects to the uniform policy."""
    rng = np.random.default_rng(2026)
    for case in range(24):
        sizes = tuple(int(k) for k in rng.integers(9, 13, size=2))
        actions = tuple(tuple(f"a{j}" for j in range(k)) for k in sizes)
        tables = {sig: rng.integers(-4, 5, size=(2,) + sizes) * rng.choice([1.0, 0.37])
                  for sig in ("lo", "hi", "mid")}
        kinds = learning.KINDS[case % 5], learning.KINDS[(case + 2) % 5]
        specs = [LearnerSpec(kind, temperature=float(rng.uniform(0.2, 2.0)),
                             payoff_rate=RateSchedule(("constant", "harmonic")[j],
                                                      float(rng.uniform(0.2, 1.0))),
                             policy_rate=RateSchedule(("harmonic", "constant")[j],
                                                      float(rng.uniform(0.2, 1.0))))
                 for j, kind in enumerate(kinds)]
        hi = [tuple(int(a) for a in rng.permutation(k)[:rng.integers(8, k)])
              for k in sizes]
        if case % 3 == 0:
            frozen = hi[0][0]
            hi[0] = hi[0][1:]
            start = [0.0] * sizes[0]
            start[frozen] = 1.0
            specs[0] = LearnerSpec(kinds[0], initial_policy=tuple(start),
                                   policy_rate=RateSchedule("constant", 0.0))
        mid = [tuple(int(a) for a in rng.permutation(k)) for k in sizes]
        coordinator = CoordinatorPolicy(("round-robin", "greedy")[case % 4 == 1],
                                        ("lo", "hi", "mid"))
        yield (make_game(actions, tables), specs, coordinator,
               int(rng.integers(6, 10)), int(rng.integers(1, 16)), case,
               {"hi": tuple(hi), "mid": tuple(mid)})


def test_list_state_matches_numpy_reference(monkeypatch):
    seen = []

    def spied(game, specs, horizon, rng, signal_schedule, initial_state):
        seen.append(_state_hex(initial_state))
        trace = run_dynamics(game, specs, horizon, rng=rng,
                             signal_schedule=signal_schedule,
                             initial_state=initial_state)
        seen.append(_state_hex(trace.final_state))
        return trace

    monkeypatch.setattr(learning, "run_dynamics", spied)
    masses, signals = [], set()
    for game, specs, coordinator, outer, length, seed, rule in _state_corpus():
        seen.clear()
        states = []
        result = run_two_timescale(game, specs, coordinator, outer, length,
                                   seed=seed, admissible=rule)
        epochs, state = reference_two_timescale(game, specs, coordinator, outer,
                                                length, seed, rule, states, masses)
        assert seen == states
        assert [_digest_hex(d) for d in result.epochs] == [_digest_hex(d) for d in epochs]
        assert _state_hex(result.final_state) == _state_hex(state)
        signals.update(d.signal for d in epochs)
    assert signals == {"lo", "hi", "mid"}
    # the corpus projects sums of 8 or more entries, and zero masses
    assert any(n >= 8 and mass > 0 for n, mass in masses)
    assert any(mass == 0 for n, mass in masses)


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


def test_leader_scores_each_equilibrium_with_its_objective():
    # both agents coordinate; (y, y) is worth 2 each and (z, x) 5 each, and
    # the objective sees the game itself and each equilibrium in order
    pay = {"x": {"x": 1, "y": 0}, "y": {"x": 0, "y": 2}, "z": {"x": 5, "y": 0}}
    g = make_game(
        (("x", "y", "z"), ("x", "y")),
        {"default": {(a, b): (v, v) for a, row in pay.items() for b, v in row.items()}})
    seen = []

    def welfare(game, candidate, profile):
        seen.append((game, profile))
        return sum(game.payoff(profile, candidate))

    full = stackelberg_solve(g, ("default",))
    assert full.outcomes[0].equilibria == ((1, 1), (2, 0))     # (y, y), (z, x)
    rep = stackelberg_solve(g, ("default",), "pessimistic", leader_objective=welfare)
    out = rep.outcomes[0]
    assert out.equilibria == ((1, 1), (2, 0))
    assert out.values == (4.0, 10.0)
    assert seen == [(g, (1, 1)), (g, (2, 0))]
    assert rep.leader_value == 4.0


def test_leader_skips_candidates_without_pure_equilibrium():
    tables = {
        "spin": {("x", "x"): (1, -1), ("x", "y"): (-1, 1),
                 ("y", "x"): (-1, 1), ("y", "y"): (1, -1)},
        "calm": {("x", "x"): (1, 1), ("x", "y"): (0, 0),
                 ("y", "x"): (0, 0), ("y", "y"): (0.5, 0.5)},
    }
    g = make_game((("x", "y"), ("x", "y")), tables)
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
        g = make_game(actions, tables)
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
