"""Learning dynamics tests.

The core oracle is a from-scratch replay of the update loop (including the
inverse-CDF sampling) that shares no code with the library; it pins the
sampling order, the counts-before-targets convention, and the update
arithmetic. Remaining tests cover schedules, invariants, and diagnostics.
"""

import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from stgames.learning import (Diagnostics, LearnerSpec, LearningState,
                              RateSchedule, diagnostics, policy_target,
                              run_dynamics, softmax, step_payoff_estimate,
                              step_policy)
from stgames.coordination import CoordinatorPolicy, run_two_timescale
from stgames.errors import ComputationError
from stgames.strategic import is_nash

from conftest import make_game

PD = {("C", "C"): (3, 3), ("C", "D"): (0, 5),
      ("D", "C"): (5, 0), ("D", "D"): (1, 1)}


def pd_game():
    return make_game((("C", "D"), ("C", "D")), {"default": PD})


def pennies():
    table = {("H", "H"): (1, -1), ("H", "T"): (-1, 1),
             ("T", "H"): (-1, 1), ("T", "T"): (1, -1)}
    return make_game((("H", "T"), ("H", "T")), {"default": table})


def three_path_game(n_agents=2):
    """Shared-route pick game: path p costs a_p + b_p * occupancy.

    Free-flow costs (0, 3, 4) and unit slopes make path 0 a best response
    to every profile, so best-response play absorbs at everyone-on-0.
    """
    a = (0.0, 3.0, 4.0)
    paths = ("p0", "p1", "p2")
    actions = tuple(paths for _ in range(n_agents))
    table = {}
    for profile in itertools.product(*actions):
        load = {p: profile.count(p) for p in paths}
        table[profile] = tuple(-(a[paths.index(p)] + load[p]) for p in profile)
    return make_game(actions, {"default": table})


# ---------------------------------------------------------------- oracle --

def manual_run(game, specs, horizon, seed):
    """Independent replay of the coupled dynamics for two-agent games."""
    rng = np.random.default_rng(seed)
    sig = game.resolve_signal(None)
    pis, qs, counts = [], [], []
    for i, spec in enumerate(specs):
        k = len(game.actions[i])
        pis.append(np.full(k, 1.0 / k) if spec.initial_policy is None
                   else np.asarray(spec.initial_policy, dtype=float))
        qs.append(np.zeros(k) if spec.initial_estimate is None
                  else np.asarray(spec.initial_estimate, dtype=float))
        counts.append(np.zeros(k))
    acts = np.zeros((horizon, 2), dtype=np.int64)
    pol_hist = [np.zeros((horizon, len(game.actions[i]))) for i in range(2)]
    est_hist = [np.zeros((horizon, len(game.actions[i]))) for i in range(2)]
    for step in range(horizon):
        t = step + 1
        idx = []
        for i in range(2):
            u = rng.random()
            acc = 0.0
            choice = len(pis[i]) - 1
            for j in range(len(pis[i]) - 1):
                acc += pis[i][j]
                if u < acc:
                    choice = j
                    break
            idx.append(choice)
        pay = game.payoff(idx, sig)
        for i in range(2):
            counts[i][idx[i]] += 1.0
        for i in range(2):
            spec = specs[i]
            tbl = game.payoffs[sig][i]
            if spec.kind == "fictitious-play":
                opp = counts[1 - i] / counts[1 - i].sum()
                g = tbl @ opp if i == 0 else tbl.T @ opp
            elif spec.kind == "payoff-estimation":
                g = qs[i].copy()
                g[idx[i]] = pay[i]
            else:
                g = tbl[:, idx[1]].copy() if i == 0 else tbl[idx[0], :].copy()
            mu = spec.payoff_rate.at(t)
            lam = spec.policy_rate.at(t)
            qs[i] = (1.0 - mu) * qs[i] + mu * g
            if spec.kind in ("best-response", "fictitious-play"):
                psi = np.zeros(len(qs[i]))
                psi[int(np.argmax(qs[i]))] = 1.0
            elif spec.kind == "replicator":
                w = pis[i] * (qs[i] - qs[i].min() + 1.0)
                psi = w / w.sum()
            else:
                z = qs[i] / spec.temperature
                z = z - z.max()
                w = np.exp(z)
                psi = w / w.sum()
            pis[i] = (1.0 - lam) * pis[i] + lam * psi
        acts[step] = idx
        for i in range(2):
            pol_hist[i][step] = pis[i]
            est_hist[i][step] = qs[i]
    return acts, pol_hist, est_hist


# ----------------------------------------------------------------- tests --

def test_rate_schedules():
    assert RateSchedule("constant", 0.3).at(10) == 0.3
    assert RateSchedule("harmonic", 1.0).at(4) == 0.25
    with pytest.raises(ValueError):
        RateSchedule("linear", 0.5)
    with pytest.raises(ValueError):
        RateSchedule("constant", 1.5)
    with pytest.raises(ValueError):
        RateSchedule().at(0)


def test_spec_validation():
    with pytest.raises(ValueError):
        LearnerSpec("gradient")
    with pytest.raises(ValueError):
        LearnerSpec("best-response", temperature=0.0)
    with pytest.raises(ValueError):
        bad = LearnerSpec("best-response", initial_policy=(0.5, 0.2))
        LearningState.fresh(pd_game(), [bad, LearnerSpec("best-response")])
    # a distribution of the wrong length fails where the game is known
    wide = LearnerSpec("best-response", initial_policy=(0.5, 0.3, 0.2))
    with pytest.raises(ValueError, match="agent 1: initial policy needs length 2"):
        LearningState.fresh(pd_game(), [LearnerSpec("best-response"), wide])


def test_step_rate_bounds():
    with pytest.raises(ValueError):
        step_payoff_estimate(np.zeros(2), np.ones(2), 1.5)
    with pytest.raises(ValueError):
        step_policy(LearnerSpec("best-response"), np.array([1.0, 0.0]),
                    np.zeros(2), -0.1)


def test_best_response_absorbs_on_dilemma():
    # full-rate best response: one update is enough to lock mutual defection
    g = pd_game()
    specs = [LearnerSpec("best-response")] * 2
    trace = run_dynamics(g, specs, horizon=10, seed=3)
    assert trace.actions[1:].tolist() == [[1, 1]] * 9       # both play D
    for i in range(2):
        assert trace.final_state.policies[i] == pytest.approx([0.0, 1.0])


def test_three_path_template_reaches_pure_equilibrium():
    g = three_path_game()
    for seed in range(8):
        trace = run_dynamics(g, [LearnerSpec("best-response")] * 2,
                             horizon=6, seed=seed)
        assert trace.actions[1:].tolist() == [[0, 0]] * 5   # both on p0
        assert is_nash(g, trace.actions[-1]).is_nash


def test_payoff_estimation_writes_one_coordinate():
    g = pd_game()
    specs = [LearnerSpec("payoff-estimation", initial_estimate=(5.0, 7.0),
                         policy_rate=RateSchedule("constant", 0.0)),
             LearnerSpec("best-response")]
    trace = run_dynamics(g, specs, horizon=1, seed=0)
    played = trace.actions[0, 0]
    q = trace.final_state.estimates[0]
    assert q[played] == trace.payoffs[0, 0]
    assert q[1 - played] == (5.0, 7.0)[1 - played]


def test_policy_updates_stay_on_simplex():
    rng = np.random.default_rng(55)
    kinds = ("best-response", "smoothed-best-response", "replicator",
             "payoff-estimation", "fictitious-play")
    for _ in range(10_000):
        k = int(rng.integers(2, 5))
        w = rng.uniform(0.0, 1.0, size=k) + 1e-9
        pi = w / w.sum()
        q = rng.normal(scale=10.0, size=k)
        spec = LearnerSpec(kinds[int(rng.integers(len(kinds)))],
                           temperature=float(rng.uniform(0.05, 5.0)))
        lam = float(rng.uniform(0.0, 1.0))
        out = np.asarray(step_policy(spec, pi, q, lam))
        assert out.min() >= 0.0
        assert abs(out.sum() - 1.0) <= 1e-9


def test_replicator_keeps_vertices_fixed():
    spec = LearnerSpec("replicator")
    vertex = np.array([0.0, 1.0, 0.0])
    for q in (np.array([5.0, -1.0, 2.0]), np.array([0.0, 0.0, 0.0])):
        assert policy_target(spec, vertex, q) == pytest.approx(vertex)


def test_softmax_extremes():
    q = np.array([1.0, 2.0, 3.0])
    sharp = softmax(q, 1e-4)
    assert sharp[2] == pytest.approx(1.0, abs=1e-6)
    flat = softmax(q, 1e4)
    assert flat == pytest.approx([1 / 3] * 3, abs=1e-3)


def test_trace_matches_manual_replay(recorder):
    g = pennies()
    combos = [
        [LearnerSpec("fictitious-play"),
         LearnerSpec("smoothed-best-response", temperature=0.7)],
        [LearnerSpec("replicator", payoff_rate=RateSchedule("harmonic", 1.0),
                     policy_rate=RateSchedule("constant", 0.2)),
         LearnerSpec("payoff-estimation", temperature=2.0)],
        [LearnerSpec("best-response"),
         LearnerSpec("fictitious-play")],
    ]
    for seed, specs in enumerate(combos):
        trace = run_dynamics(g, specs, horizon=60, seed=seed)
        policies, estimates = recorder.histories(trace)
        acts, pols, ests = manual_run(g, specs, 60, seed)
        assert np.array_equal(trace.actions, acts)
        for i in range(2):
            assert policies[i] == pytest.approx(pols[i], abs=1e-12)
            assert estimates[i] == pytest.approx(ests[i], abs=1e-12)


def test_same_seed_reproduces_bitwise(recorder):
    g = pennies()
    specs = [LearnerSpec("fictitious-play"),
             LearnerSpec("smoothed-best-response")]
    t1 = run_dynamics(g, specs, horizon=200, seed=99)
    t2 = run_dynamics(g, specs, horizon=200, seed=99)
    assert np.array_equal(t1.actions, t2.actions)
    assert np.array_equal(t1.payoffs, t2.payoffs)
    p1, p2 = recorder.histories(t1)[0], recorder.histories(t2)[0]
    for i in range(2):
        assert np.array_equal(p1[i], p2[i])


def test_zero_rates_freeze_state(recorder):
    g = pd_game()
    frozen = RateSchedule("constant", 0.0)
    specs = [LearnerSpec("best-response", payoff_rate=frozen,
                         policy_rate=frozen)] * 2
    policies, estimates = recorder.histories(
        run_dynamics(g, specs, horizon=30, seed=1))
    for i in range(2):
        assert policies[i].shape == estimates[i].shape == (30, 2)
        assert np.all(policies[i] == 0.5)
        assert np.all(estimates[i] == 0.0)


def test_run_continuation_equals_single_run(recorder):
    g = pennies()
    specs = [LearnerSpec("fictitious-play",
                         policy_rate=RateSchedule("harmonic", 1.0))] * 2
    full = run_dynamics(g, specs, horizon=15, seed=5)
    full_policies = recorder.histories(full)[0]

    rng = np.random.default_rng(5)
    head = run_dynamics(g, specs, horizon=10, rng=rng)
    recorder.histories(head)
    tail = run_dynamics(g, specs, horizon=5, rng=rng,
                        initial_state=head.final_state)
    tail_policies = recorder.histories(tail)[0]
    assert np.array_equal(tail.actions, full.actions[10:])
    for i in range(2):
        assert np.array_equal(tail_policies[i], full_policies[i][10:])


def _plain(state):
    """Whether every field of `state` is a list of lists of Python floats."""
    return all(type(field) is list
               and all(type(v) is list and all(type(x) is float for x in v)
                       for v in field)
               for field in (state.policies, state.estimates, state.counts))


def test_learning_state_holds_plain_lists():
    g = pd_game()
    specs = [LearnerSpec("fictitious-play"),
             LearnerSpec("replicator", initial_policy=(0.25, 0.75),
                         initial_estimate=(1, 2))]
    assert _plain(LearningState.fresh(g, specs))
    assert _plain(run_dynamics(g, specs, 20, seed=1).final_state)
    two = make_game((("C", "D"), ("C", "D")), {"lo": PD, "hi": PD})
    rule = {"hi": ((1,), (1, 0))}
    result = run_two_timescale(two, specs,
                               CoordinatorPolicy("round-robin", ("lo", "hi")),
                               outer_steps=4, epoch_length=5, seed=2,
                               admissible=rule)
    assert _plain(result.final_state)


def test_run_that_raises_leaves_initial_state_as_it_was():
    g = pd_game()
    state = run_dynamics(g, [LearnerSpec("best-response")] * 2, 3, seed=0).final_state
    fields = (state.policies, state.estimates, state.counts)
    before = [[list(v) for v in field] for field in fields]
    # q / tau overflows at this temperature once q is nonzero
    specs = [LearnerSpec("smoothed-best-response", temperature=1e-320),
             LearnerSpec("best-response")]
    with pytest.raises(ComputationError, match="agent 0"), \
            np.errstate(over="ignore", invalid="ignore"):
        run_dynamics(g, specs, 5, seed=1, initial_state=state)
    assert (state.policies, state.estimates, state.counts) == fields
    assert [[list(v) for v in field] for field in fields] == before
    assert state.t == 3


def test_run_validation():
    g = pd_game()
    with pytest.raises(ValueError):
        run_dynamics(g, [LearnerSpec("best-response")], horizon=5, seed=0)
    with pytest.raises(ValueError):
        run_dynamics(g, [LearnerSpec("best-response")] * 2, horizon=0, seed=0)
    multi = make_game(
        (("C", "D"), ("C", "D")), {"a": PD, "b": PD})
    with pytest.raises(ValueError):
        run_dynamics(multi, [LearnerSpec("best-response")] * 2,
                     horizon=5, seed=0)


def test_failed_validation_draws_nothing():
    # a schedule naming an unknown signal at step 4 fails before any draw
    multi = make_game(
        (("C", "D"), ("C", "D")), {"a": PD, "b": PD})
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        run_dynamics(multi, [LearnerSpec("best-response")] * 2, horizon=6,
                     rng=rng, signal_schedule=lambda t: "a" if t < 4 else "c")
    assert rng.random() == np.random.default_rng(8).random()


def test_policy_target_argmax_matches_numpy():
    # first maximum on ties, and a NaN counts as the largest entry
    spec = LearnerSpec("best-response")
    for q in ([1.0, 3.0, 3.0], [2.0, np.nan, 5.0, np.nan], [np.nan, 1.0],
              [-0.0, 0.0], [0.0, -1.0, 0.0]):
        psi = policy_target(spec, [1.0 / len(q)] * len(q), q)
        assert psi.index(1.0) == int(np.argmax(q))
        assert sum(psi) == 1.0


def test_diagnostics_hand_computed_regret():
    # pin both agents to cooperation: regret is exactly the defection gain
    g = pd_game()
    frozen = RateSchedule("constant", 0.0)
    specs = [LearnerSpec("best-response", payoff_rate=frozen,
                         policy_rate=frozen, initial_policy=(1.0, 0.0))] * 2
    trace = run_dynamics(g, specs, horizon=8, seed=0)
    diag = diagnostics(g, trace, gap_stride=4)
    assert diag.external_regret == pytest.approx([2.0, 2.0], abs=1e-12)
    assert diag.empirical_frequencies[0] == pytest.approx([1.0, 0.0])
    assert diag.gap_times == (4, 8)
    assert diag.gap_series == pytest.approx([2.0, 2.0], abs=1e-12)
    with pytest.raises(ValueError):
        diagnostics(g, trace, gap_stride=0)


def test_fictitious_play_on_pennies_short():
    g = pennies()
    specs = [LearnerSpec("fictitious-play")] * 2
    trace = run_dynamics(g, specs, horizon=20_000, seed=0)
    diag = diagnostics(g, trace, gap_stride=20_000)
    for i in range(2):
        assert diag.empirical_frequencies[i] == pytest.approx(
            [0.5, 0.5], abs=0.05)
        assert diag.external_regret[i] < 0.05


def test_gap_series_at_stride_one_within_budget():
    # 10**5 gap samples by batched contractions; one mixed_gap call per
    # sample took about 6 s
    g = pennies()
    trace = run_dynamics(g, [LearnerSpec("fictitious-play")] * 2, 10 ** 5, seed=0)
    start = time.perf_counter()
    diag = diagnostics(g, trace, gap_stride=1)
    assert time.perf_counter() - start < 2.0
    assert len(diag.gap_series) == 10 ** 5


def test_gap_series_memory_does_not_grow_with_samples_times_grid():
    # 3 * 10**4 samples of a 1000-profile grid: blocks of samples peak near
    # 18 MiB, one batch of all samples near 42 MiB, and one mixed_gap call
    # per sample took over a minute
    labels = tuple(str(j) for j in range(10))
    rng = np.random.default_rng(4)
    g = make_game((labels,) * 3, {"default": rng.normal(size=(3, 10, 10, 10))})
    trace = run_dynamics(g, [LearnerSpec("best-response")] * 3, 3 * 10 ** 4, seed=0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        diagnostics(g, trace, gap_stride=1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert elapsed < 5.0


# -------------------------------------------------------- behaviour lock --
#
# sha256 digests of whole runs, recorded from the label-space loop that the
# index-space kernel replaced. Every array a run returns goes into its
# digest, and so does every step's policy and estimate vector (taken by the
# `recorder` fixture, as runs keep only the last), so any change to the
# random stream, the sampling order or the update arithmetic, down to the
# last bit, changes it. The digests were
# taken with numpy 2.4 and its bundled OpenBLAS on x86-64; a BLAS kernel
# or an exp implementation that rounds differently changes them too.

MIXED = {("a", "x"): (1.3, -0.7), ("a", "y"): (0.2, 2.1),
         ("b", "x"): (-0.4, 1.1), ("b", "y"): (2.6, -1.9),
         ("c", "x"): (0.9, 0.35), ("c", "y"): (-1.25, 0.6)}
MIXED_ALT = {("a", "x"): (0.15, 1.8), ("a", "y"): (-2.2, 0.45),
             ("b", "x"): (1.05, -0.3), ("b", "y"): (0.7, 1.35),
             ("c", "x"): (-0.55, 2.4), ("c", "y"): (3.1, -1.15)}
MIXED_ACTIONS = (("a", "b", "c"), ("x", "y"))


def mixed_game():
    return make_game(MIXED_ACTIONS, {"default": MIXED})


def two_signal_mixed_game():
    return make_game(MIXED_ACTIONS, {"lo": MIXED, "hi": MIXED_ALT})


def three_agent_game():
    actions = (("u", "v"), ("x", "y", "z"), ("l", "r"))
    table = {}
    for idx in itertools.product(range(2), range(3), range(2)):
        profile = tuple(actions[i][a] for i, a in enumerate(idx))
        table[profile] = tuple(
            ((7 * idx[0] + 3 * idx[1] + 5 * idx[2] + 11 * i) % 13) / 3.7 - 1.1
            for i in range(3))
    return make_game(actions, {"default": table})


def rated(kind, **kw):
    return LearnerSpec(kind, payoff_rate=RateSchedule("constant", 0.3),
                       policy_rate=RateSchedule("constant", 0.2), **kw)


def _digest(arrays, labels=()):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    h.update("|".join(labels).encode())
    return h.hexdigest()


def _trace_arrays(rec, trace):
    policies, estimates = rec.histories(trace)
    return ([trace.actions, trace.payoffs] + policies + estimates
            + list(trace.final_state.counts))


def _run_digest(rec, game, trace):
    diag = diagnostics(game, trace, gap_stride=7)
    return _digest(_trace_arrays(rec, trace)
                   + [diag.external_regret, diag.gap_series], trace.signals)


def _lock_kind(rec, kind, **kw):
    g = mixed_game()
    return _run_digest(rec, g, run_dynamics(g, [rated(kind, **kw)] * 2, 400,
                                            seed=11))


def _lock_harmonic(rec):
    g = mixed_game()
    specs = [LearnerSpec("fictitious-play",
                         policy_rate=RateSchedule("harmonic", 1.0)),
             LearnerSpec("replicator",
                         payoff_rate=RateSchedule("harmonic", 0.8),
                         policy_rate=RateSchedule("harmonic", 0.5))]
    return _run_digest(rec, g, run_dynamics(g, specs, 400, seed=12))


def _lock_two_signal(rec):
    g = two_signal_mixed_game()
    specs = [rated("fictitious-play"),
             rated("smoothed-best-response", temperature=0.4)]
    trace = run_dynamics(g, specs, 400, seed=13,
                         signal_schedule=lambda t: ("lo", "hi", "hi")[t % 3])
    return _run_digest(rec, g, trace)


def _lock_two_timescale(rec):
    g = two_signal_mixed_game()
    specs = [rated("fictitious-play"), rated("replicator")]
    rule = {"hi": ((0, 2), (0, 1))}     # (a, c), (x, y)
    result = run_two_timescale(g, specs,
                               CoordinatorPolicy("round-robin", ("lo", "hi")),
                               outer_steps=5, epoch_length=60, seed=15,
                               admissible=rule)
    arrays = []
    for trace in rec.traces:
        arrays += _trace_arrays(rec, trace)
    state = result.final_state
    arrays += list(state.policies) + list(state.estimates) + list(state.counts)
    return _digest(arrays, [e.signal for e in result.epochs])


def _lock_three_agents(rec):
    g = three_agent_game()
    specs = [rated("fictitious-play"), LearnerSpec("fictitious-play"),
             rated("smoothed-best-response", temperature=0.7)]
    return _run_digest(rec, g, run_dynamics(g, specs, 400, seed=16))


def _lock_long_horizon(rec):
    # more steps than one block of pre-drawn uniforms
    g = mixed_game()
    specs = [LearnerSpec("fictitious-play",
                         policy_rate=RateSchedule("harmonic", 1.0)),
             rated("smoothed-best-response", temperature=0.5)]
    return _run_digest(rec, g, run_dynamics(g, specs, 9000, seed=17))


LOCKED_RUNS = {
    "best-response": (
        lambda rec: _lock_kind(rec, "best-response"),
        "b5c74334602368375c5962de669d1c372f826868450f7e48e8fcc9a28821d5be"),
    "smoothed-best-response": (
        lambda rec: _lock_kind(rec, "smoothed-best-response", temperature=0.6),
        "035dae08ad718bc1064a266142ef4b6c0a5bd1c8043ba1be461ff5e68b9a77a4"),
    "fictitious-play": (
        lambda rec: _lock_kind(rec, "fictitious-play"),
        "41cb614b3bf8649cc89a0f1cf40612e574c517162654a6ce3d8ca221a4edb7b2"),
    "replicator": (
        lambda rec: _lock_kind(rec, "replicator"),
        "a80e4caeb07bf155b15b2f99c7162a41aaaee217a67937ed9380e823ecf493da"),
    "payoff-estimation": (
        lambda rec: _lock_kind(rec, "payoff-estimation", temperature=0.8),
        "1786d1075d805fc89127dd5d7bb0a684c45eb9a627bfc5b565b374f60d777769"),
    "harmonic": (
        _lock_harmonic,
        "5b9199d8c0983da240ab5440e30b7598c3c9e4f1099ab427f845901f94da84ef"),
    "two-signal": (
        _lock_two_signal,
        "cedb911a26b5c5ffa560530dc9a969d3a1df4975fea6b7a2a87a6535abaeeb2c"),
    "two-timescale": (
        _lock_two_timescale,
        "2cad969833d6abe2f1eda63fd17c8595f02a42fbe03513f91d22bfebd8da1025"),
    "long-horizon": (
        _lock_long_horizon,
        "3410eaef24a8f87cbfc26acbe797e74a279e2b0d45f22ddb5cd4be5970e220ae"),
    "three-agent": (
        _lock_three_agents,
        "ab11971f28b1787ffd22abc49bdc5d95d40eaa7aa539f9908473a6316c2eae96"),
}


@pytest.mark.parametrize("name", sorted(LOCKED_RUNS))
def test_behaviour_lock(name, recorder):
    run, expected = LOCKED_RUNS[name]
    assert run(recorder) == expected
