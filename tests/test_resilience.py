"""Byzantine message corruption, trust reweighting, trimmed consensus and
the attacked-observation wrapper for learning runs."""

import numpy as np
import pytest

from stgames.learning import LearnerSpec, run_dynamics
from stgames.resilience import (KINDS, AdversaryModel, ConsensusScenario,
                                DefenseSpec, TrustMatrix, corrupt_reports,
                                corrupted_observer, run_adversarial_dynamics,
                                run_consensus_scenario, trimmed_consensus_step,
                                update_trust)
from stgames.strategic import StrategicGame

PD = StrategicGame.single(
    (("C", "D"), ("C", "D")),
    {("C", "C"): (3, 3), ("C", "D"): (0, 5),
     ("D", "C"): (5, 0), ("D", "D"): (1, 1)})


def scenario(values):
    n = len(values)
    return ConsensusScenario(tuple(values), TrustMatrix.uniform(n))


def test_adversary_model_validation():
    adv = AdversaryModel((1,), "constant-injection", value=7.0, window=(2, 5))
    assert not adv.active_at(1)
    assert adv.active_at(2)
    assert adv.active_at(4)
    assert not adv.active_at(5)          # end is exclusive
    assert AdversaryModel((0,), "sign-flip").active_at(10 ** 9)
    with pytest.raises(ValueError):
        AdversaryModel((0,), "eavesdrop")
    with pytest.raises(ValueError):
        AdversaryModel((0,), "replay", lag=0)
    with pytest.raises(ValueError):
        AdversaryModel((0,), "channel-drop", drop_prob=1.5)
    with pytest.raises(ValueError):
        AdversaryModel((0,), "sign-flip", window=(5, 2))
    with pytest.raises(ValueError, match="repeated"):
        AdversaryModel((5, 5), "sign-flip")


def test_corrupt_reports_kinds():
    values = np.array([1.0, -2.0, 3.0])
    everyone = [True, True, True]
    rng = np.random.default_rng(0)

    def check(adversary, history, t, want_sent, want_delivered=everyone):
        sent, delivered = corrupt_reports(adversary, values, history, t, rng)
        assert sent.tolist() == want_sent
        assert delivered.tolist() == want_delivered

    check(AdversaryModel((1,), "constant-injection", value=9.0), None, 0,
          [1.0, 9.0, 3.0])
    check(AdversaryModel((1, 2), "sign-flip"), None, 0, [1.0, 2.0, -3.0])

    history = np.array([[0.5, 0.6, 0.7], [1.5, 1.6, 1.7], values])
    check(AdversaryModel((1,), "replay", lag=2), history, 2, [1.0, 0.6, 3.0])

    check(AdversaryModel((1,), "channel-drop", drop_prob=1.0), None, 0,
          [1.0, -2.0, 3.0], [True, False, True])
    check(AdversaryModel((1,), "channel-drop", drop_prob=0.0), None, 0,
          [1.0, -2.0, 3.0])

    # outside the window the message passes untouched
    adv = AdversaryModel((1,), "sign-flip", window=(5, 9))
    check(adv, None, 4, [1.0, -2.0, 3.0])
    check(adv, None, 9, [1.0, -2.0, 3.0])
    check(None, None, 0, [1.0, -2.0, 3.0])
    # the input vector is never written
    assert values.tolist() == [1.0, -2.0, 3.0]


def test_trust_matrix_validation():
    t = TrustMatrix.uniform(4)
    assert np.allclose(t.weights.sum(axis=1), 1.0)
    assert t.adjacency.all()
    ring = TrustMatrix.from_weights([[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]])
    assert ring.adjacency.sum() == 6
    with pytest.raises(ValueError):
        TrustMatrix(np.ones((2, 3)) / 3, np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        TrustMatrix.from_weights([[1.5, -0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        TrustMatrix(np.full((2, 2), 0.5), np.eye(2, dtype=bool))
    with pytest.raises(ValueError):
        TrustMatrix.from_weights([[0.9, 0.0], [0.5, 0.5]])


def test_update_trust():
    t = TrustMatrix.uniform(2)
    res = np.array([[0.0, 2.0], [0.0, 0.0]])
    out = update_trust(t, res, eta=1.0)
    want = np.exp(-2.0) * 0.5
    assert out.weights[0] == pytest.approx([0.5 / (0.5 + want),
                                            want / (0.5 + want)])
    assert np.array_equal(out.weights[1], t.weights[1])

    same = update_trust(t, np.zeros((2, 2)), eta=0.7)
    assert np.array_equal(same.weights, t.weights)

    # all weights underflow to zero: the row falls back to uniform
    starved = update_trust(t, np.full((2, 2), 1e6), eta=1.0)
    assert starved.weights[0] == pytest.approx([0.5, 0.5])

    rng = np.random.default_rng(99)
    cur = TrustMatrix.uniform(5, self_loops=False)
    for _ in range(10_000):
        cur = update_trust(cur, rng.exponential(1.0, (5, 5)), eta=0.3)
        assert abs(cur.weights.sum(axis=1) - 1.0).max() <= 1e-9
    assert not np.any(cur.weights[~cur.adjacency])
    with pytest.raises(ValueError):
        update_trust(t, np.zeros((2, 2)), eta=-0.1)
    with pytest.raises(ValueError):
        update_trust(t, np.zeros((3, 3)), eta=0.1)


def test_trimmed_step_drops_extremes():
    trust = TrustMatrix.uniform(3)
    everyone = np.ones((3, 3), dtype=bool)
    out = trimmed_consensus_step(np.array([0.0, 10.0, 5.0]), everyone, trust, 1)
    assert out.tolist() == [5.0, 5.0, 5.0]

    # trim ties cut by (value, sender): senders 0 low and 4 high survive 1,2,3
    tied = np.array([1.0, 1.0, 1.0, 1.0, 2.0])
    out = trimmed_consensus_step(tied, np.ones((5, 5), dtype=bool),
                                 TrustMatrix.uniform(5), 1)
    assert out[0] == pytest.approx(1.0)

    with pytest.raises(ValueError):
        trimmed_consensus_step(np.array([1.0, 2.0]), np.ones((2, 2), dtype=bool),
                               TrustMatrix.uniform(2), 1)
    with pytest.raises(ValueError):
        trimmed_consensus_step(np.array([0.0, 10.0, 5.0]), everyone, trust, -1)


def test_untrimmed_full_row_is_plain_averaging():
    rng = np.random.default_rng(31)
    x = rng.normal(0, 3, size=6)
    w = TrustMatrix.uniform(6)
    run = run_consensus_scenario(scenario(x), 10, DefenseSpec(trim_f=0))
    vals = x.copy()
    for t in range(10):
        nxt = np.array([float(w.weights[i] @ vals) for i in range(6)])
        assert np.array_equal(run.values[t + 1], nxt)
        vals = nxt
    assert run.metrics.max_honest_deviation == 0.0
    assert run.metrics.honest == tuple(range(6))
    d = run.metrics.diameter_series
    assert all(d[t + 1] <= d[t] + 1e-12 for t in range(10))
    with pytest.raises(ValueError):
        run_consensus_scenario(scenario(x), 0, DefenseSpec())
    with pytest.raises(ValueError):
        run_consensus_scenario(scenario(x), 3, DefenseSpec(),
                               AdversaryModel((9,), "sign-flip"))


def test_trimmed_confines_honest_values_naive_does_not():
    adv = AdversaryModel((4,), "constant-injection", value=100.0)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x = np.append(rng.uniform(0.0, 1.0, size=4), 0.5)
        sc = scenario(x)
        lo, hi = x[:4].min(), x[:4].max()

        run = run_consensus_scenario(sc, 15, DefenseSpec(trim_f=1), adv, seed=seed)
        honest = run.values[:, :4]
        assert honest.min() >= lo - 1e-12
        assert honest.max() <= hi + 1e-12

        naive = run_consensus_scenario(sc, 15, DefenseSpec(trim_f=0), adv, seed=seed)
        assert naive.values[:, :4].max() > hi + 1.0
        assert naive.metrics.max_honest_deviation > run.metrics.max_honest_deviation


def test_injection_magnitude_degrades_monotonically():
    # under naive averaging a louder injection never hurts less
    x = [0.1, 0.9, 0.4, 0.6, 0.5]
    devs = []
    for value in (1.0, 10.0, 100.0):
        adv = AdversaryModel((4,), "constant-injection", value=value)
        run = run_consensus_scenario(scenario(x), 12, DefenseSpec(trim_f=0),
                                     adv, seed=3)
        devs.append(run.metrics.max_honest_deviation)
    assert devs[0] <= devs[1] <= devs[2]


def test_trust_reweighting_downgrades_attacker():
    adv = AdversaryModel((3,), "sign-flip")
    x = [0.2, 0.4, 0.6, -5.0]
    run = run_consensus_scenario(scenario(x), 25,
                                 DefenseSpec(trim_f=1, trust_eta=2.0), adv, seed=1)
    assert run.metrics.diameter_series[-1] < 1e-3


def test_recovery_after_attack_window():
    adv = AdversaryModel((2,), "constant-injection", value=50.0, window=(0, 4))
    x = [0.0, 1.0, 0.3]
    run = run_consensus_scenario(scenario(x), 40, DefenseSpec(trim_f=1),
                                 adv, seed=0)
    assert run.metrics.recovery_time is not None
    end = 4 + run.metrics.recovery_time
    assert run.metrics.diameter_series[end] < 1e-3 * run.metrics.diameter_series[0]
    assert all(d >= 1e-3 * run.metrics.diameter_series[0]
               for d in run.metrics.diameter_series[4:end])

    # window past the horizon: no recovery to report
    late = AdversaryModel((2,), "sign-flip", window=(90, 95))
    run = run_consensus_scenario(scenario(x), 10, DefenseSpec(trim_f=1), late)
    assert run.metrics.recovery_time is None


def test_channel_drop_consensus_still_converges():
    adv = AdversaryModel((0,), "channel-drop", drop_prob=0.7)
    x = [4.0, 1.0, 2.0, 3.0]
    run = run_consensus_scenario(scenario(x), 60, DefenseSpec(trim_f=0),
                                 adv, seed=5)
    assert run.metrics.diameter_series[-1] < 1e-6
    # same seed, same drop pattern
    again = run_consensus_scenario(scenario(x), 60, DefenseSpec(trim_f=0),
                                   adv, seed=5)
    assert np.array_equal(run.values, again.values)


def test_observer_corruption_kinds():
    pin = corrupted_observer(PD, AdversaryModel((1,), "constant-injection",
                                                value=0.0), seed=0)
    assert pin(1, 0, ("D", "D")) == ("D", "C")
    # the compromised agent still sees its own action truthfully
    assert pin(2, 1, ("D", "D")) == ("D", "D")

    flip = corrupted_observer(PD, AdversaryModel((0,), "sign-flip"), seed=0)
    assert flip(1, 1, ("C", "D")) == ("D", "D")
    assert flip(2, 1, ("D", "C")) == ("C", "C")

    echo = corrupted_observer(PD, AdversaryModel((1,), "replay", lag=1), seed=0)
    assert echo(1, 0, ("C", "D")) == ("C", "D")     # nothing older to echo
    assert echo(2, 0, ("D", "C")) == ("D", "D")     # reports last step's action

    # seed 2's attack stream draws (0.81, 0.04): transmit, then drop
    stale = corrupted_observer(PD, AdversaryModel((1,), "channel-drop",
                                                  drop_prob=0.5), seed=2)
    assert stale(1, 0, ("C", "D")) == ("C", "D")    # delivered and recorded
    assert stale(2, 0, ("C", "C")) == ("C", "D")    # dropped: holds stale "D"


def test_zero_adversary_is_bit_identical():
    specs = [LearnerSpec("fictitious-play"), LearnerSpec("smoothed-best-response")]
    plain = run_dynamics(PD, specs, 60, seed=7)
    wrapped = run_adversarial_dynamics(PD, specs, 60, None, seed=7)
    assert np.array_equal(plain.actions, wrapped.actions)
    assert np.array_equal(plain.payoffs, wrapped.payoffs)
    for i in range(2):
        assert np.array_equal(plain.policies[i], wrapped.policies[i])
        assert np.array_equal(plain.estimates[i], wrapped.estimates[i])

    # an armed but never-active adversary also leaves the run untouched
    dormant = AdversaryModel((1,), "sign-flip", window=(10 ** 6, 10 ** 6 + 5))
    idle = run_adversarial_dynamics(PD, specs, 60, dormant, seed=7)
    assert np.array_equal(plain.actions, idle.actions)
    for i in range(2):
        assert np.array_equal(plain.policies[i], idle.policies[i])


def test_injection_poisons_estimates_not_payoffs():
    # reports pin agent 1 to "C" while it actually defects
    adv = AdversaryModel((1,), "constant-injection", value=0.0)
    specs = [LearnerSpec("best-response"), LearnerSpec("best-response")]
    trace = run_adversarial_dynamics(PD, specs, 80, adv, seed=3)
    # counterfactuals against the faked "C": agent 0 believes D earns 5
    assert trace.estimates[0][-1] == pytest.approx([3.0, 5.0])
    assert (trace.actions[-10:, 1] == 1).all()
    # realized payoffs follow true play, mutual defection worth 1 each
    assert trace.payoffs[-1] == pytest.approx([1.0, 1.0])
    assert trace.payoffs[-1][0] == PD.payoff(trace.action_labels[-1])[0]


# --- the dict-based kernel of earlier releases, kept as a reference -------------

def _dict_corrupt_reports(adversary, reports, history, t, rng):
    if adversary is None or not adversary.active_at(t):
        return dict(reports)
    out = dict(reports)
    for sender in adversary.compromised:
        if sender not in out:
            continue
        if adversary.kind == "constant-injection":
            out[sender] = adversary.value
        elif adversary.kind == "sign-flip":
            out[sender] = -out[sender]
        elif adversary.kind == "replay":
            back = max(0, t - adversary.lag)
            out[sender] = history[back][sender]
        else:                        # channel-drop
            if rng.random() < adversary.drop_prob:
                del out[sender]
    return out


def _dict_update_trust(trust, residuals, eta):
    res = np.abs(np.asarray(residuals, dtype=float))
    w = trust.weights * np.exp(-eta * res)
    w[~trust.adjacency] = 0.0
    sums = w.sum(axis=1, keepdims=True)
    for i in range(w.shape[0]):
        if sums[i, 0] <= 0:
            w[i, trust.adjacency[i]] = 1.0 / trust.adjacency[i].sum()
        else:
            w[i] = w[i] / sums[i, 0]
    return TrustMatrix(w, trust.adjacency)


def _dict_trimmed_step(reports_for, trust, trim_f, agents):
    new_values = {}
    for i in agents:
        inbox = [(j, v) for j, v in sorted(reports_for[i].items())
                 if trust.adjacency[i, j]]
        if len(inbox) < 2 * trim_f + 1:
            raise ValueError(
                f"agent {i}: {len(inbox)} reports cannot survive 2*{trim_f} discards")
        if trim_f:
            order = sorted(inbox, key=lambda jv: (jv[1], jv[0]))
            cut = {j for j, _ in order[:trim_f]} | {j for j, _ in order[-trim_f:]}
            survivors = [(j, v) for j, v in inbox if j not in cut]
        else:
            survivors = inbox
        weights = np.asarray([trust.weights[i, j] for j, _ in survivors])
        values = np.asarray([v for _, v in survivors])
        if len(survivors) != int(trust.adjacency[i].sum()):
            total = weights.sum()
            if total <= 0:
                weights = np.full(len(survivors), 1.0 / len(survivors))
            else:
                weights = weights / total
        new_values[i] = float(weights @ values)
    return new_values


def _dict_trajectory(scenario, horizon, defense, adversary, seed):
    vals = np.asarray(scenario.initial_values, dtype=float)
    n = len(vals)
    attack_rng = np.random.default_rng([0 if seed is None else seed, 0xAD])
    trust = scenario.trust
    agents = tuple(range(n))
    out = np.zeros((horizon + 1, n))
    out[0] = vals
    honest_history = []
    current = {j: float(vals[j]) for j in agents}
    for t in range(horizon):
        honest_history.append(dict(current))
        sent = _dict_corrupt_reports(adversary, current, honest_history, t, attack_rng)
        reports_for = {i: {j: sent[j] for j in agents
                           if trust.adjacency[i, j] and j in sent}
                       for i in agents}
        new_values = _dict_trimmed_step(reports_for, trust, defense.trim_f, agents)
        if defense.trust_eta is not None:
            res = np.zeros((n, n))
            for i in agents:
                for j in agents:
                    if trust.adjacency[i, j] and j in reports_for[i]:
                        res[i, j] = reports_for[i][j] - new_values[i]
            trust = _dict_update_trust(trust, res, defense.trust_eta)
        current = new_values
        out[t + 1] = [current[j] for j in agents]
    return out


def _dict_run(scenario, horizon, defense, adversary, seed):
    """(values, max deviation, diameters, recovery) as the dict kernel gave them."""
    out = _dict_trajectory(scenario, horizon, defense, adversary, seed)
    n = out.shape[1]
    honest = [i for i in range(n)
              if adversary is None or i not in adversary.compromised]
    hv = out[:, honest]
    diameters = tuple(float(v) for v in hv.max(axis=1) - hv.min(axis=1))
    max_dev = 0.0
    if adversary is not None:
        nominal = _dict_trajectory(scenario, horizon, defense, None, seed)
        max_dev = float(np.max(np.abs(hv - nominal[:, honest])))
    recovery = None
    if adversary is not None and adversary.window is not None:
        end = adversary.window[1]
        if end <= horizon:
            for t in range(end, horizon + 1):
                if diameters[t] < 1e-3 * diameters[0]:
                    recovery = t - end
                    break
    return out, max_dev, diameters, recovery


def _random_case(rng):
    """One seeded consensus scenario: size, trust rows, defense, attack."""
    n = int(rng.integers(3, 10))
    trim = int(rng.integers(0, 3))
    if rng.random() < 0.5:
        trust = TrustMatrix.uniform(n, self_loops=bool(rng.random() < 0.7))
    else:                            # sparse rows, some too thin for the trim
        w = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.7)
        np.fill_diagonal(w, rng.uniform(0.1, 1.0, n))
        trust = TrustMatrix.from_weights(w / w.sum(axis=1, keepdims=True))
    eta = None if rng.random() < 0.4 else float(rng.choice([0.3, 2.0, 50.0]))
    adversary = None
    if rng.random() < 0.85:
        kind = KINDS[int(rng.integers(len(KINDS)))]
        count = int(rng.integers(1, max(2, n // 2)))
        start = int(rng.integers(0, 10))
        window = (None if rng.random() < 0.4
                  else (start, start + int(rng.integers(0, 30))))
        adversary = AdversaryModel(
            tuple(int(c) for c in rng.choice(n, size=count, replace=False)), kind,
            value=float(rng.choice([-40.0, 0.0, 7.5, 1e3])),
            lag=int(rng.integers(1, 6)), drop_prob=float(rng.choice([0.2, 0.6, 1.0])),
            window=window)
    values = tuple(float(v) for v in rng.normal(0.0, 5.0, n))
    horizon = int(rng.integers(1, 31))
    return (ConsensusScenario(values, trust), horizon, DefenseSpec(trim, eta),
            adversary, int(rng.integers(0, 2 ** 31)))


def test_array_kernel_matches_dict_kernel():
    rng = np.random.default_rng(2013)
    seen = {"ok": 0, "refused": 0, "kinds": set(), "trims": set()}
    for _ in range(400):
        sc, horizon, defense, adversary, seed = _random_case(rng)
        try:
            want = _dict_run(sc, horizon, defense, adversary, seed)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                run_consensus_scenario(sc, horizon, defense, adversary, seed)
            assert str(got.value) == str(exc)
            seen["refused"] += 1
            continue
        run = run_consensus_scenario(sc, horizon, defense, adversary, seed)
        assert run.values.tobytes() == want[0].tobytes()
        m = run.metrics
        assert (m.max_honest_deviation, m.diameter_series, m.recovery_time) == want[1:]
        seen["ok"] += 1
        seen["trims"].add(defense.trim_f)
        if adversary is not None:
            seen["kinds"].add(adversary.kind)
    # the corpus exercises every attack kind and trim level, and some thin
    # rows that neither kernel can trim
    assert seen["kinds"] == set(KINDS)
    assert seen["trims"] == {0, 1, 2}
    assert seen["ok"] >= 200 and seen["refused"] >= 10

    # trust updates alone, with rows starved by huge residuals
    for n in range(2, 9):
        trust = TrustMatrix.from_weights(rng.dirichlet(np.ones(n), size=n))
        res = rng.exponential(1.0, (n, n)) * rng.choice([1.0, 1e4], (n, 1))
        want = _dict_update_trust(trust, res, 0.8).weights
        assert update_trust(trust, res, 0.8).weights.tobytes() == want.tobytes()
