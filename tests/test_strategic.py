"""Strategic game representation and pure/mixed equilibrium checks."""

import itertools

import numpy as np
import pytest

from stgames import learning
from stgames.errors import CapacityError
from stgames.learning import LearnerSpec, RateSchedule, diagnostics, run_dynamics
from stgames.strategic import (StrategicGame, best_responses,
                               contract_others, counterfactual_payoffs,
                               enumerate_pure_nash, expected_payoffs, is_nash,
                               mixed_gap, welfare_and_poa)

PD = {("C", "C"): (3, 3), ("C", "D"): (0, 5),
      ("D", "C"): (5, 0), ("D", "D"): (1, 1)}


def pd_game():
    return StrategicGame.single((("C", "D"), ("C", "D")), PD)


def pennies():
    table = {("H", "H"): (1, -1), ("H", "T"): (-1, 1),
             ("T", "H"): (-1, 1), ("T", "T"): (1, -1)}
    return StrategicGame.single((("H", "T"), ("H", "T")), table)


def random_game(rng, n_agents, n_actions):
    actions = tuple(tuple(f"a{j}" for j in range(n_actions))
                    for _ in range(n_agents))
    table = {p: rng.normal(size=n_agents) for p in itertools.product(*actions)}
    return StrategicGame.single(actions, table)


def test_payoff_lookup():
    g = pd_game()
    assert g.payoff(("C", "D")) == pytest.approx([0, 5])
    assert g.payoff(("D", "C")) == pytest.approx([5, 0])
    assert g.n_agents == 2


def test_defection_dominates():
    g = pd_game()
    check = is_nash(g, ("D", "D"))
    assert check.is_nash
    check = is_nash(g, ("C", "C"))
    assert not check.is_nash
    assert check.agent == 0 and check.deviation == "D"
    assert check.gain == pytest.approx(2.0)
    # the deviation gain is exactly the eps that rescues the profile
    assert is_nash(g, ("C", "C"), eps=2.0).is_nash
    assert not is_nash(g, ("C", "C"), eps=2.0 - 1e-9).is_nash


def test_pure_equilibrium_enumeration():
    assert enumerate_pure_nash(pd_game()) == [("D", "D")]
    assert enumerate_pure_nash(pennies()) == []


def test_enumeration_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        g = random_game(rng, n, k)
        found = set(enumerate_pure_nash(g))
        for profile in g.profiles():
            base = g.payoff(profile)
            stable = True
            for i in range(n):
                for alt in g.actions[i]:
                    dev = list(profile)
                    dev[i] = alt
                    if g.payoff(tuple(dev))[i] > base[i]:
                        stable = False
            assert (profile in found) == stable


def test_counterfactual_row():
    g = pd_game()
    vec = counterfactual_payoffs(g, 0, ("C", "D"))
    # agent 0 sweeping C, D while agent 1 stays on D
    assert vec == pytest.approx([0, 1])
    assert best_responses(g, 0, ("C", "D")) == ("D",)


def test_best_response_ties_exact():
    table = {("a", "x"): (1, 2), ("a", "y"): (1, 0),
             ("b", "x"): (1, 1), ("b", "y"): (0, 0)}
    g = StrategicGame.single((("a", "b"), ("x", "y")), table)
    assert best_responses(g, 0, ("a", "x")) == ("a", "b")
    assert best_responses(g, 1, ("b", "x")) == ("x",)


def test_constant_shift_preserves_best_responses():
    # adding k to one agent's whole table cannot move any argmax
    rng = np.random.default_rng(314)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        k_actions = int(rng.integers(2, 4))
        g = random_game(rng, n, k_actions)
        agent = int(rng.integers(n))
        shift = float(rng.uniform(-9, 9))
        table = {p: g.payoff(p).copy() for p in g.profiles()}
        for p in table:
            table[p][agent] += shift
        shifted = StrategicGame.single(g.actions, table)
        assert enumerate_pure_nash(shifted) == enumerate_pure_nash(g)
        probe = next(iter(g.profiles()))
        assert best_responses(shifted, agent, probe) == best_responses(g, agent, probe)
        assert is_nash(shifted, probe).is_nash == is_nash(g, probe).is_nash


def test_welfare_ratio_on_dilemma():
    rep = welfare_and_poa(pd_game())
    assert rep.defined
    assert rep.optimal_welfare == pytest.approx(6.0)
    assert rep.optimal_profile == ("C", "C")
    assert rep.worst_equilibrium_welfare == pytest.approx(2.0)
    assert rep.ratio == pytest.approx(3.0)


def test_welfare_ratio_undefined_cases():
    rep = welfare_and_poa(pennies())
    assert not rep.defined and rep.ratio is None
    assert rep.reason == "no pure equilibrium"

    table = {("a", "x"): (0, 0), ("a", "y"): (-1, -1),
             ("b", "x"): (-1, -1), ("b", "y"): (-2, -2)}
    g = StrategicGame.single((("a", "b"), ("x", "y")), table)
    rep = welfare_and_poa(g)
    assert not rep.defined
    assert rep.reason == "zero-welfare equilibrium"
    assert rep.worst_equilibrium_welfare == pytest.approx(0.0)


def test_expected_payoffs_against_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        g = random_game(rng, n, k)
        mixed = []
        for _ in range(n):
            w = rng.uniform(0.1, 1.0, size=k)
            mixed.append(w / w.sum())
        want = np.zeros(n)
        for profile in g.profiles():
            prob = 1.0
            for i, label in enumerate(profile):
                prob *= mixed[i][g.action_index(i, label)]
            want += prob * g.payoff(profile)
        got = expected_payoffs(g, mixed)
        assert got == pytest.approx(want, abs=1e-12)


def test_contract_others_matches_tensordot_chain():
    # the float layout is pinned: bit-identical to contracting the other
    # agents' axes last to first with np.tensordot, for every agent
    rng = np.random.default_rng(21)
    for shape in ((2, 3), (3, 2), (2, 3, 2), (3, 2, 4), (2, 2, 3, 2)):
        for agent in range(len(shape)):
            table = rng.normal(size=shape)
            mixed = [rng.dirichlet(np.ones(k)) for k in shape]
            want = table
            for ax in range(len(shape) - 1, -1, -1):
                if ax != agent:
                    want = np.tensordot(want, mixed[ax], axes=([ax], [0]))
            assert np.array_equal(contract_others(table, agent, mixed), want)
            assert np.array_equal(
                contract_others(table, agent, [m.tolist() for m in mixed]), want)


# ------------------------------------------------------ reference kernels --
#
# The per-sample kernels that `expected_payoffs`, `mixed_gap` and the gap
# series of `diagnostics` ran before they moved onto one batched
# `contract_others`: an `np.tensordot` chain per agent and one gap per
# sampled step. They share no code with the library, and the library must
# reproduce their bytes.

def _tensordot_chain(table, mixed, keep=None):
    """Contract every axis of `table` but `keep`, last to first."""
    for ax in range(len(mixed) - 1, -1, -1):
        if ax != keep:
            table = np.tensordot(table, np.asarray(mixed[ax], dtype=float),
                                 axes=([ax], [0]))
    return table


def expected_payoffs_reference(game, mixed, signal=None):
    sig = game.resolve_signal(signal)
    out = np.zeros(game.n_agents)
    for i in range(game.n_agents):
        out[i] = _tensordot_chain(game.payoffs[sig][i], mixed)
    return out


def mixed_gap_reference(game, mixed, signal=None):
    sig = game.resolve_signal(signal)
    base = expected_payoffs_reference(game, mixed, sig)
    gap = 0.0
    for i in range(game.n_agents):
        vec = _tensordot_chain(game.payoffs[sig][i], mixed, keep=i)
        gap = max(gap, float(vec.max() - base[i]))
    return gap


def gap_series_reference(game, trace, stride):
    """One `mixed_gap_reference` per sampled step, on frequencies counted
    from the trace's actions up to that step, under the most frequent
    signal (the first to appear on ties)."""
    horizon, n = trace.actions.shape
    times = list(range(stride, horizon + 1, stride))
    if not times or times[-1] != horizon:
        times.append(horizon)
    signals = list(dict.fromkeys(trace.signals))
    main = max(signals, key=trace.signals.count)
    gaps = []
    for tau in times:
        mixed = [np.bincount(trace.actions[:tau, i],
                             minlength=len(game.actions[i])) / tau
                 for i in range(n)]
        gaps.append(mixed_gap_reference(game, mixed, main))
    return np.asarray(gaps), times, main


def _reference_corpus():
    """(game, trace) pairs: seeded random games of 2-4 agents with 2-5
    actions each, every learner kind, and one two-signal game whose most
    frequent signal is not the first to appear."""
    rng = np.random.default_rng(2024)
    for n in (2, 2, 3, 3, 3, 4, 4, 4):
        ks = tuple(int(rng.integers(2, 6)) for _ in range(n))
        actions = tuple(tuple(f"a{j}" for j in range(k)) for k in ks)
        game = StrategicGame(actions, {"default": rng.normal(size=(n,) + ks)})
        for kind in learning.KINDS:
            specs = [LearnerSpec(kind, RateSchedule("constant", 0.4),
                                 RateSchedule("harmonic", 1.0), temperature=0.5)
                     for _ in range(n)]
            yield game, run_dynamics(game, specs, 140,
                                     seed=int(rng.integers(1 << 30)))
    actions = (("a", "b", "c"), ("x", "y"))
    game = StrategicGame(actions, {"lo": rng.normal(size=(2, 3, 2)),
                                   "hi": rng.normal(size=(2, 3, 2))})
    specs = [LearnerSpec("fictitious-play"),
             LearnerSpec("smoothed-best-response", temperature=0.3)]
    yield game, run_dynamics(game, specs, 140, seed=5,
                             signal_schedule=lambda t: ("hi", "lo", "hi")[t % 3])


def test_batched_kernels_match_per_sample_reference(monkeypatch):
    default_block = learning.GAP_BLOCK_BYTES
    for game, trace in _reference_corpus():
        series = {}
        for stride in (1, 7, 40):            # 40 does not divide 140
            want, times, main = gap_series_reference(game, trace, stride)
            series[stride] = want
            # the default blocks, and blocks of one to six samples
            for block_bytes in (default_block, 200):
                monkeypatch.setattr(learning, "GAP_BLOCK_BYTES", block_bytes)
                diag = diagnostics(game, trace, gap_stride=stride)
                assert diag.gap_times == tuple(times)
                assert diag.gap_series.tobytes() == want.tobytes()
        # every step's frequencies, as one (steps, k) batch per agent
        steps = np.arange(1, len(trace.actions) + 1)[:, None]
        batch = [np.cumsum(np.eye(len(labels))[trace.actions[:, i]], axis=0)
                 / steps for i, labels in enumerate(game.actions)]
        assert mixed_gap(game, batch, main).tobytes() == series[1].tobytes()
        want = np.array([expected_payoffs_reference(game, [b[s] for b in batch], main)
                         for s in range(0, len(steps), 3)])
        got = np.array([expected_payoffs(game, [b[s] for b in batch], main)
                        for s in range(0, len(steps), 3)])
        assert got.tobytes() == want.tobytes()
        assert expected_payoffs(game, [b[::3] for b in batch], main).T.tobytes() \
            == want.tobytes()


def test_mixed_gap_vanishes_at_mixed_equilibrium():
    g = pennies()
    assert mixed_gap(g, [np.array([0.5, 0.5])] * 2) == pytest.approx(0.0, abs=1e-12)
    # off the fixed point the mismatcher profits from pure T
    assert mixed_gap(g, [np.array([0.9, 0.1]), np.array([0.5, 0.5])]) \
        == pytest.approx(0.8, abs=1e-12)
    assert mixed_gap(g, [np.array([0.9, 0.1]), np.array([0.6, 0.4])]) > 0.01


def test_mixed_gap_skips_nan_gains():
    # agent 0's NaN payoff makes its gain NaN; like Python's max, the gap
    # skips it and reports agent 1's gain, row by row in a batch
    g = pennies()
    g.payoffs["default"][0, 1, 1] = np.nan
    batch = [np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([[0.5, 0.5], [0.5, 0.5]])]
    want = [mixed_gap_reference(g, [b[s] for b in batch]) for s in range(2)]
    assert want == [0.8, pytest.approx(0.6)]
    assert mixed_gap(g, batch).tobytes() == np.asarray(want).tobytes()
    assert mixed_gap(g, [b[0] for b in batch]) == want[0]


def test_signal_tables():
    tables = {"lo": PD,
              "hi": {("C", "C"): (6, 6), ("C", "D"): (0, 5),
                     ("D", "C"): (5, 0), ("D", "D"): (1, 1)}}
    g = StrategicGame.from_tables((("C", "D"), ("C", "D")), tables)
    assert set(g.signals) == {"lo", "hi"}
    assert g.payoff(("C", "C"), "hi") == pytest.approx([6, 6])
    with pytest.raises(ValueError):
        g.payoff(("C", "C"))          # ambiguous without a signal
    with pytest.raises(ValueError):
        g.payoff(("C", "C"), "mid")
    assert is_nash(g, ("C", "C"), signal="hi").is_nash


def test_construction_validation():
    with pytest.raises(ValueError):
        StrategicGame.single((("C", "C"), ("C", "D")), PD)   # duplicate label
    with pytest.raises(ValueError):
        StrategicGame.single((("C", "D"), ("C", "D")),
                             {("C", "C"): (3, 3)})           # missing profiles
    with pytest.raises(ValueError):
        StrategicGame.single((("C", "D"), ("C", "D")),
                             {**PD, ("C", "C"): (3, 3, 3)})  # wrong arity
    with pytest.raises(ValueError):
        pd_game().payoff(("C", "E"))
    with pytest.raises(CapacityError):
        actions = tuple((("0", "1")) for _ in range(7))
        table = {p: [0.0] * 7 for p in itertools.product(*actions)}
        StrategicGame.single(actions, table)


def test_negative_eps_rejected():
    with pytest.raises(ValueError):
        is_nash(pd_game(), ("D", "D"), eps=-0.1)
