"""Strategic game representation and pure/mixed equilibrium checks."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from stgames import learning
from stgames.errors import CapacityError
from stgames.incentives import modified_payoff
from stgames.learning import LearnerSpec, RateSchedule, diagnostics, run_dynamics
from stgames.strategic import (NashCheck, StrategicGame, WelfareReport,
                               best_responses, contract_others,
                               counterfactual_payoffs, enumerate_pure_nash,
                               expected_payoffs, is_nash, mixed_gap,
                               welfare_and_poa)

from conftest import make_game

# tables are keyed by labels; every other profile is action indices, so in
# the dilemma 0 is C and 1 is D
PD = {("C", "C"): (3, 3), ("C", "D"): (0, 5),
      ("D", "C"): (5, 0), ("D", "D"): (1, 1)}


def pd_game():
    return make_game((("C", "D"), ("C", "D")), {"default": PD})


def pennies():
    table = {("H", "H"): (1, -1), ("H", "T"): (-1, 1),
             ("T", "H"): (-1, 1), ("T", "T"): (1, -1)}
    return make_game((("H", "T"), ("H", "T")), {"default": table})


def random_game(rng, n_agents, n_actions):
    actions = tuple(tuple(f"a{j}" for j in range(n_actions))
                    for _ in range(n_agents))
    table = {p: rng.normal(size=n_agents) for p in itertools.product(*actions)}
    return make_game(actions, {"default": table})


def test_payoff_lookup():
    g = pd_game()
    assert g.payoff((0, 1)) == pytest.approx([0, 5])
    assert g.payoff((1, 0)) == pytest.approx([5, 0])
    assert g.n_agents == 2


def test_defection_dominates():
    g = pd_game()
    check = is_nash(g, (1, 1))
    assert check.is_nash
    check = is_nash(g, (0, 0))
    assert not check.is_nash
    assert check.agent == 0 and check.deviation == 1
    assert check.gain == pytest.approx(2.0)
    # the deviation gain is exactly the eps that rescues the profile
    assert is_nash(g, (0, 0), eps=2.0).is_nash
    assert not is_nash(g, (0, 0), eps=2.0 - 1e-9).is_nash


def test_pure_equilibrium_enumeration():
    assert enumerate_pure_nash(pd_game()) == [(1, 1)]
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
                for alt in range(len(g.actions[i])):
                    dev = list(profile)
                    dev[i] = alt
                    if g.payoff(tuple(dev))[i] > base[i]:
                        stable = False
            assert (profile in found) == stable


def test_counterfactual_row():
    g = pd_game()
    vec = counterfactual_payoffs(g, 0, (0, 1))
    # agent 0 sweeping C, D while agent 1 stays on D
    assert vec == pytest.approx([0, 1])
    assert best_responses(g, 0, (0, 1)) == (1,)


def test_best_response_ties_exact():
    table = {("a", "x"): (1, 2), ("a", "y"): (1, 0),
             ("b", "x"): (1, 1), ("b", "y"): (0, 0)}
    g = make_game((("a", "b"), ("x", "y")), {"default": table})
    assert best_responses(g, 0, (0, 0)) == (0, 1)       # a and b tie
    assert best_responses(g, 1, (1, 0)) == (0,)         # x


def test_constant_shift_preserves_best_responses():
    # adding k to one agent's whole table cannot move any argmax
    rng = np.random.default_rng(314)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        k_actions = int(rng.integers(2, 4))
        g = random_game(rng, n, k_actions)
        agent = int(rng.integers(n))
        shift = float(rng.uniform(-9, 9))
        table = g.payoffs["default"].copy()
        table[agent] += shift
        shifted = make_game(g.actions, {"default": table})
        assert enumerate_pure_nash(shifted) == enumerate_pure_nash(g)
        probe = next(iter(g.profiles()))
        assert best_responses(shifted, agent, probe) == best_responses(g, agent, probe)
        assert is_nash(shifted, probe).is_nash == is_nash(g, probe).is_nash


def test_welfare_ratio_on_dilemma():
    game = pd_game()
    rep = welfare_and_poa(game, enumerate_pure_nash(game))
    assert rep.defined
    assert rep.optimal_welfare == pytest.approx(6.0)
    assert rep.optimal_profile == (0, 0)
    assert rep.worst_equilibrium_welfare == pytest.approx(2.0)
    assert rep.ratio == pytest.approx(3.0)


def test_welfare_ratio_undefined_cases():
    rep = welfare_and_poa(pennies(), enumerate_pure_nash(pennies()))
    assert not rep.defined and rep.ratio is None
    assert rep.reason == "no pure equilibrium"

    table = {("a", "x"): (0, 0), ("a", "y"): (-1, -1),
             ("b", "x"): (-1, -1), ("b", "y"): (-2, -2)}
    g = make_game((("a", "b"), ("x", "y")), {"default": table})
    rep = welfare_and_poa(g, enumerate_pure_nash(g))
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
            for i, a in enumerate(profile):
                prob *= mixed[i][a]
            want += prob * np.asarray(g.payoff(profile))
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
        game = make_game(actions, {"default": rng.normal(size=(n,) + ks)})
        for kind in learning.KINDS:
            specs = [LearnerSpec(kind, RateSchedule("constant", 0.4),
                                 RateSchedule("harmonic", 1.0), temperature=0.5)
                     for _ in range(n)]
            yield game, run_dynamics(game, specs, 140,
                                     seed=int(rng.integers(1 << 30)))
    actions = (("a", "b", "c"), ("x", "y"))
    game = make_game(actions, {"lo": rng.normal(size=(2, 3, 2)),
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
    table = pennies().payoffs["default"].copy()
    table[0, 1, 1] = np.nan
    g = make_game(pennies().actions, {"default": table})
    batch = [np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([[0.5, 0.5], [0.5, 0.5]])]
    want = [mixed_gap_reference(g, [b[s] for b in batch]) for s in range(2)]
    assert want == [0.8, pytest.approx(0.6)]
    assert mixed_gap(g, batch).tobytes() == np.asarray(want).tobytes()
    assert mixed_gap(g, [b[0] for b in batch]) == want[0]


def test_payoff_view_is_read_only():
    # a write would leave the view and the tables the kernels read apart
    g = pd_game()
    view = g.payoffs["default"]
    assert view.flags.c_contiguous and view.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        view[0, 1, 1] = 9.0
    assert g.payoffs["default"] is view
    assert g.payoff((1, 1)) == (1.0, 1.0)


def test_signal_tables():
    tables = {"lo": PD,
              "hi": {("C", "C"): (6, 6), ("C", "D"): (0, 5),
                     ("D", "C"): (5, 0), ("D", "D"): (1, 1)}}
    g = make_game((("C", "D"), ("C", "D")), tables)
    assert set(g.signals) == {"lo", "hi"}
    assert g.payoff((0, 0), "hi") == pytest.approx([6, 6])
    with pytest.raises(ValueError):
        g.payoff((0, 0))              # ambiguous without a signal
    with pytest.raises(ValueError):
        g.payoff((0, 0), "mid")
    assert is_nash(g, (0, 0), signal="hi").is_nash


def test_construction_validation():
    with pytest.raises(ValueError):
        make_game((("C", "C"), ("C", "D")), {"default": PD})   # duplicate label
    with pytest.raises(ValueError):
        make_game((("C", "D"), ("C", "D")),
                  {"default": {("C", "C"): (3, 3)}})           # missing profiles
    with pytest.raises(ValueError):
        make_game((("C", "D"), ("C", "D")),
                  {"default": {**PD, ("C", "C"): (3, 3, 3)}})  # wrong arity
    with pytest.raises(CapacityError):
        actions = tuple((("0", "1")) for _ in range(7))
        table = {p: [0.0] * 7 for p in itertools.product(*actions)}
        make_game(actions, {"default": table})


def test_direct_construction_names_from_tables():
    # a game built past `from_tables` would have no tables to fail on later
    for build in (lambda: StrategicGame(),
                  lambda: StrategicGame((("C", "D"), ("C", "D")), {"default": [0.0] * 8})):
        with pytest.raises(TypeError, match=r"StrategicGame\.from_tables"):
            build()


def test_negative_eps_rejected():
    with pytest.raises(ValueError):
        is_nash(pd_game(), (1, 1), eps=-0.1)
    with pytest.raises(ValueError):
        enumerate_pure_nash(pd_game(), eps=-0.1)


@pytest.mark.parametrize("call, message", [
    (lambda g: g.payoff((0,)), "profile length 1"),
    (lambda g: is_nash(g, (1,)), "profile length 1"),
    (lambda g: is_nash(g, (-1, -1)), "agent 0: action index -1"),
    (lambda g: modified_payoff(g, {"default": {(-1, 0): (1.0, 1.0)}}),
     "agent 0: action index -1"),
    (lambda g: modified_payoff(g, {"default": {(0, 2): (0.0, 0.0)}}),
     "agent 1: action index 2"),
    (lambda g: counterfactual_payoffs(g, 0, ("C", "D")), "agent 0: action index 'C'"),
    (lambda g: counterfactual_payoffs(g, -1, (0, 1)), r"agent -1 outside 0\.\.1"),
    (lambda g: counterfactual_payoffs(g, 2, (0, 1)), r"agent 2 outside 0\.\.1"),
    (lambda g: best_responses(g, 2, (0, 1)), r"agent 2 outside 0\.\.1"),
    (lambda g: best_responses(g, "0", (0, 1)), r"agent '0' outside 0\.\.1"),
], ids=["short-payoff", "short-nash", "negative-nash", "negative-transfer",
        "past-end-transfer", "label-counterfactual", "negative-agent",
        "past-end-agent", "past-end-best-response", "label-agent"])
def test_index_profiles_are_checked(call, message):
    # unchecked, numpy slices on a short profile and wraps a negative index
    with pytest.raises(ValueError, match=message):
        call(pd_game())


# --- the label loop of earlier releases, kept as a reference ------------------

def _is_nash_by_labels(game, profile, eps, signal):
    """`is_nash` on a profile of labels: one `tuple.index` per agent, then
    every deviation in (agent, action) order; the witness is a label."""
    idx = tuple(game.actions[i].index(label) for i, label in enumerate(profile))
    table = game.payoffs[signal]
    base = table[(slice(None),) + idx]
    for i in range(game.n_agents):
        sel = [i] + [slice(None) if k == i else idx[k] for k in range(game.n_agents)]
        vec = table[tuple(sel)]
        for j, label in enumerate(game.actions[i]):
            if vec[j] > base[i] + eps:
                return NashCheck(False, i, label, float(vec[j] - base[i]))
    return NashCheck(True)


def _enumerate_pure_nash_by_labels(game, signal, eps):
    return [p for p in itertools.product(*game.actions)
            if _is_nash_by_labels(game, p, eps, signal).is_nash]


def test_index_kernels_match_label_loop_reference():
    # 2-4 agents, integer payoffs 0-3 (ties everywhere), two signals; every
    # tenth game has a NaN payoff, which the label loop's `>` never counts
    rng = np.random.default_rng(1213)
    found = 0
    for trial in range(240):
        n = 2 + trial % 3
        ks = tuple(int(k) for k in rng.integers(1, 5 if n < 4 else 4, size=n))
        actions = tuple(tuple(f"{'pqrs'[i]}{j}" for j in range(k))
                        for i, k in enumerate(ks))
        tables = {sig: rng.integers(0, 4, size=(n,) + ks).astype(float)
                  for sig in ("calm", "storm")}
        if trial % 10 == 0:
            tables["storm"][(int(rng.integers(n)),) + (0,) * n] = np.nan
        game = make_game(actions, tables)

        def labels(profile):
            return tuple(game.actions[i][a] for i, a in enumerate(profile))

        for sig in tables:
            for eps in (0.0, 0.5):
                got = enumerate_pure_nash(game, sig, eps)
                assert all(type(a) is int for p in got for a in p)
                assert list(map(labels, got)) == \
                    _enumerate_pure_nash_by_labels(game, sig, eps), trial
                found += len(got)
                for profile in game.profiles():
                    check = is_nash(game, profile, eps, sig)
                    want = _is_nash_by_labels(game, labels(profile), eps, sig)
                    if check.deviation is not None:
                        check = check._replace(
                            deviation=game.actions[check.agent][check.deviation])
                    assert check == want, (trial, profile)
    assert found > 500


# --- the numpy kernels of earlier releases, kept as references -----------------
#
# `enumerate_pure_nash`, `is_nash`, `best_responses` and `welfare_and_poa`
# ran on the numpy payoff tables before the tables became tuples of floats.
# They read the game's numpy view, share no code with the library's plain
# Python kernels, and the library must reproduce their bits.

def _enumerate_pure_nash_numpy(game, signal, eps):
    stable = True
    for i, tab in enumerate(game.payoffs[signal]):
        stable = stable & ~(np.fmax.reduce(tab, axis=i, keepdims=True) > tab + eps)
    return list(map(tuple, np.argwhere(stable).tolist()))


def _deviations_numpy(table, agent, profile):
    return table[(agent,) + profile[:agent] + (slice(None),) + profile[agent + 1:]]


def _is_nash_numpy(game, profile, eps, signal):
    table = game.payoffs[signal]
    base = table[(slice(None),) + profile]
    for i in range(game.n_agents):
        vec = _deviations_numpy(table, i, profile)
        for j in range(len(vec)):
            if vec[j] > base[i] + eps:
                return NashCheck(False, i, j, float(vec[j] - base[i]))
    return NashCheck(True)


def _best_responses_numpy(game, agent, profile, signal):
    vec = _deviations_numpy(game.payoffs[signal], agent, profile)
    return tuple(np.flatnonzero(vec == vec.max()).tolist())


def _welfare_and_poa_numpy(game, signal):
    welfare = game.payoffs[signal].sum(axis=0)
    flat = int(np.argmax(welfare))
    opt_profile = tuple(int(a) for a in np.unravel_index(flat, welfare.shape))
    opt = float(welfare[opt_profile])
    eqs = tuple(_enumerate_pure_nash_numpy(game, signal, 0.0))
    if not eqs:
        return WelfareReport("maximize", opt, opt_profile, (), None, None,
                             False, "no pure equilibrium")
    worst = min(float(welfare[e]) for e in eqs)
    if worst == 0.0:
        return WelfareReport("maximize", opt, opt_profile, eqs, worst, None,
                             False, "zero-welfare equilibrium")
    return WelfareReport("maximize", opt, opt_profile, eqs, worst,
                         opt / worst, True)


def _bits(value):
    """`value` with every float as its hex string (so -0.0 and 0.0 differ)."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _numpy_reference_corpus():
    """Seeded games of 2-6 agents and two or three signals. Payoffs mix
    small integers (exact ties), +-0.0, magnitudes from 1e-3 to 1e16 (so a
    sum's order shows in its bits) and, in every fifth game, NaN; in every
    seventh they are all +-0.0 (so a sum's start shows in its sign)."""
    rng = np.random.default_rng(2020)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, 1e16, -1e16, 1e-3])
    for trial in range(150):
        n = 2 + trial % 5
        ks = tuple(int(k) for k in rng.integers(1, {2: 6, 3: 5, 4: 4}.get(n, 3), size=n))
        actions = tuple(tuple(f"{'pqrstu'[i]}{j}" for j in range(k))
                        for i, k in enumerate(ks))
        tables = {}
        for sig in ("calm", "storm", "fog")[:2 + trial % 2]:
            table = rng.choice(pool, size=(n,) + ks)
            mixed = rng.random(size=table.shape) < 0.3
            table[mixed] = rng.normal(scale=10.0, size=int(mixed.sum()))
            if trial % 7 == 3:
                table = rng.choice(pool[:2], size=table.shape)
            if trial % 5 == 0:
                table[rng.random(size=table.shape) < 0.15] = np.nan
            tables[sig] = table
        yield make_game(actions, tables)


def test_pure_kernels_match_numpy_reference():
    found = nan_games = 0
    for game in _numpy_reference_corpus():
        nan_games += any(np.isnan(t).any() for t in game.payoffs.values())
        for sig in game.signals:
            assert _bits(welfare_and_poa(game, enumerate_pure_nash(game, sig), sig)) \
                == _bits(_welfare_and_poa_numpy(game, sig))
            for eps in (0.0, 0.5, 1.0):
                got = enumerate_pure_nash(game, sig, eps)
                assert got == _enumerate_pure_nash_numpy(game, sig, eps)
                found += len(got)
            for profile in game.profiles():
                want = game.payoffs[sig][(slice(None),) + profile].tolist()
                assert _bits(game.payoff(profile, sig)) == _bits(tuple(want))
                for eps in (0.0, 0.5):
                    assert _bits(is_nash(game, profile, eps, sig)) \
                        == _bits(_is_nash_numpy(game, profile, eps, sig))
                for i in range(game.n_agents):
                    assert best_responses(game, i, profile, sig) \
                        == _best_responses_numpy(game, i, profile, sig)
    assert found > 1000 and nan_games >= 20


# --- the table conversions of earlier releases, kept as references ------------
#
# Games were built from label-keyed profile dicts (`from_tables`, `single`),
# from per-signal n-d arrays (`__init__`) and from per-profile rows
# (`from_rows`, which `subgame` and `modified_payoff` emitted). The library
# now takes one flat table per signal; the test helper and the library's
# own flat tables must give the bits these conversions gave.

def _rows_to_flat(rows):
    flat = []
    for row in rows:
        flat.extend(row)
    return tuple(map(float, flat))


def _label_tables_reference(actions, tables):
    """Each profile's row placed at its position, then joined."""
    out = {}
    for sig, entries in tables.items():
        rows = [None] * math.prod(len(labels) for labels in actions)
        for profile, values in entries.items():
            pos = 0
            for labels, label in zip(actions, profile):
                pos = pos * len(labels) + labels.index(label)
            rows[pos] = [float(v) for v in values]
        out[str(sig)] = _rows_to_flat(rows)
    return out


def _array_tables_reference(actions, payoffs):
    return {sig: tuple(np.asarray(table, dtype=float)
                       .reshape(len(actions), -1).T.ravel().tolist())
            for sig, table in payoffs.items()}


def _subgame_reference(game, keep):
    dims = tuple(len(labels) for labels in game.actions)
    n = game.n_agents
    starts = [int(np.ravel_multi_index(p, dims)) * n for p in itertools.product(*keep)]
    return {sig: _rows_to_flat([flat[k:k + n] for k in starts])
            for sig, flat in game._tables.items()}


def _modified_payoff_reference(game, transfers):
    zero = (0.0,) * game.n_agents
    return {sig: _rows_to_flat(
        [tuple(x + t for x, t in zip(row, transfers[sig].get(profile, zero)))
         for profile, row in zip(game.profiles(), game.rows(sig))])
        for sig in game.signals}


def _table_corpus():
    """Seeded games of 2-4 agents with 1-4 actions each (one-action agents
    included) and one to three signals; payoffs mix small integers (exact
    ties), +-0.0, normal draws and, in every sixth game, NaN. Each is given
    as arrays and as label dicts filled in a shuffled profile order."""
    rng = np.random.default_rng(2025)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5])
    for trial in range(120):
        n = 2 + trial % 3
        ks = tuple(int(k) for k in rng.integers(1, 5, size=n))
        actions = tuple(tuple(f"{'pqrs'[i]}{j}" for j in range(k))
                        for i, k in enumerate(ks))
        arrays = {}
        for sig in ("calm", "storm", "fog")[:1 + trial % 3]:
            table = rng.choice(pool, size=(n,) + ks)
            mixed = rng.random(size=table.shape) < 0.3
            table[mixed] = rng.normal(size=int(mixed.sum()))
            if trial % 6 == 0:
                table[rng.random(size=table.shape) < 0.1] = np.nan
            arrays[sig] = table
        profiles = list(itertools.product(*(range(k) for k in ks)))
        labelled = {}
        for sig, table in arrays.items():
            entries = labelled[sig] = {}
            for pos in rng.permutation(len(profiles)):
                p = profiles[pos]
                row = table[(slice(None),) + p]
                entries[tuple(actions[i][a] for i, a in enumerate(p))] = \
                    row if pos % 2 else row.tolist()
        yield rng, actions, arrays, labelled


def _hex_tables(tables):
    return {sig: _bits(tuple(flat)) for sig, flat in tables.items()}


def test_flat_tables_match_earlier_conversions():
    one_action = paid = 0
    for rng, actions, arrays, labelled in _table_corpus():
        one_action += 1 in map(len, actions)
        game = make_game(actions, labelled)
        want = _hex_tables(_label_tables_reference(actions, labelled))
        assert _hex_tables(game._tables) == want
        assert _hex_tables(make_game(actions, arrays)._tables) == want
        assert _hex_tables(_array_tables_reference(actions, arrays)) == want
        # a subgame of nonempty action subsets, each in a shuffled order
        keep = [rng.permutation(len(labels))[:int(rng.integers(1, len(labels) + 1))]
                .tolist() for labels in actions]
        sub = game.subgame(keep)
        assert sub.actions == tuple(tuple(labels[j] for j in idx)
                                    for labels, idx in zip(actions, keep))
        assert _hex_tables(sub._tables) == _hex_tables(_subgame_reference(game, keep))
        # transfers at a third of the profiles, +-0.0 among them
        transfers = {sig: {} for sig in game.signals}
        for sig in game.signals:
            for p in game.profiles():
                if rng.random() < 1 / 3:
                    transfers[sig][p] = tuple(
                        rng.choice([0.0, -0.0, 0.25, -1.5], size=game.n_agents).tolist())
                    paid += 1
        assert _hex_tables(modified_payoff(game, transfers)._tables) \
            == _hex_tables(_modified_payoff_reference(game, transfers))
    assert one_action > 20 and paid > 500


class _Unread:
    """A payoff table that fails the test when anything reads it."""

    def __len__(self, *args):
        raise AssertionError("the table was read")

    __iter__ = __getitem__ = __len__


def test_over_cap_shape_is_refused_before_any_table_is_read():
    # a 3000 x 3000 grid once built a 9e6-slot list before its check
    labels = tuple(f"a{j}" for j in range(3000))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="profile grid 9000000 exceeds"):
            StrategicGame.from_tables((labels, labels), {"default": _Unread()})
        with pytest.raises(CapacityError, match="agent count 7 outside"):
            StrategicGame.from_tables((("a", "b"),) * 7, {"default": _Unread()})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
