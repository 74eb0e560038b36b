"""Adversarial corruption, trust adaptation and trimmed consensus.

Adversaries are Byzantine in what they send, never in what they do: a
compromised agent runs the same update rule as everyone else, but messages
it emits inside the activation window are replaced per the attack kind.
Defense is trimmed trust-weighted averaging, the MSR-type update of
LeBlanc, Zhang, Koutsoukos & Sundaram (IEEE JSAC, 2013): drop the f largest
and f smallest incoming values. Optional multiplicative-exponential trust
reweighting on residuals comes on top.

A consensus round runs on three arrays: the value vector, the `sent` vector
after corruption, and one mask `received = trust.adjacency & delivered` of
the messages that reach each agent. The trajectory array is the replay
history.

With no adversary, trimming disabled and fixed uniform trust, the pipeline
reproduces plain averaging bit-identically; attack randomness (channel
drops) lives on its own generator so the nominal path consumes no draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learning import Trace, run_dynamics
from .strategic import StrategicGame

KINDS = ("constant-injection", "sign-flip", "replay", "channel-drop")


@dataclass(frozen=True)
class AdversaryModel:
    compromised: tuple               # agent ids
    kind: str
    value: float = 0.0               # constant-injection payload
    lag: int = 1                     # replay distance
    drop_prob: float = 0.5           # channel-drop probability
    window: tuple | None = None      # (start, end) active steps, end exclusive; None = always

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}; valid: {KINDS}")
        if len(set(self.compromised)) != len(self.compromised):
            raise ValueError(f"repeated compromised ids in {list(self.compromised)}")
        if self.kind == "replay" and self.lag < 1:
            raise ValueError("replay lag must be >= 1")
        if self.kind == "channel-drop" and not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        if self.window is not None and self.window[0] > self.window[1]:
            raise ValueError(f"bad window {self.window}")

    def active_at(self, t: int) -> bool:
        if self.window is None:
            return True
        return self.window[0] <= t < self.window[1]


def corrupt_reports(adversary: AdversaryModel | None, values: np.ndarray,
                    history: np.ndarray, t: int, rng) -> tuple:
    """Apply the attack to the values broadcast at step t.

    `values` holds each agent's value at step t and `history[s]` the values
    at step s <= t, for replay. Returns `(sent, delivered)`: the broadcast
    vector after corruption and a mask of senders whose message arrives
    (channel drops clear it). Honest senders always pass through untouched.
    """
    sent = np.array(values, dtype=float)
    delivered = np.ones(len(sent), dtype=bool)
    if adversary is None or not adversary.active_at(t):
        return sent, delivered
    bad = list(adversary.compromised)
    if adversary.kind == "constant-injection":
        sent[bad] = adversary.value
    elif adversary.kind == "sign-flip":
        sent[bad] = -sent[bad]
    elif adversary.kind == "replay":
        sent[bad] = history[max(0, t - adversary.lag), bad]
    else:                            # channel-drop, one draw per sender in order
        delivered[bad] = rng.random(len(bad)) >= adversary.drop_prob
    return sent, delivered


@dataclass(frozen=True)
class TrustMatrix:
    """Row-stochastic weights over each agent's neighbor set.

    `adjacency[i][j]` marks j as a neighbor of i (self-loops allowed);
    weights are zero off the neighbor set and each row sums to 1.
    """

    weights: np.ndarray
    adjacency: np.ndarray

    def __post_init__(self):
        w = self.weights
        adj = self.adjacency
        if w.ndim != 2 or w.shape[0] != w.shape[1] or adj.shape != w.shape:
            raise ValueError("trust matrices must be square and aligned")
        if np.any(w < -1e-12):
            raise ValueError("trust weights must be nonnegative")
        if np.any((w > 1e-12) & ~adj):
            raise ValueError("positive weight outside the neighbor set")
        rows = w.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError(f"rows must sum to 1, got {rows}")

    @staticmethod
    def uniform(n: int, self_loops: bool = True) -> "TrustMatrix":
        adj = np.ones((n, n), dtype=bool)
        if not self_loops:
            np.fill_diagonal(adj, False)
        w = adj / adj.sum(axis=1, keepdims=True)
        return TrustMatrix(w, adj)

    @staticmethod
    def from_weights(weights) -> "TrustMatrix":
        w = np.asarray(weights, dtype=float)
        return TrustMatrix(w, w > 0)


def update_trust(trust: TrustMatrix, residuals: np.ndarray, eta: float) -> TrustMatrix:
    """w'_ij proportional to w_ij * exp(-eta * |residual_ij|), per row.

    Rows renormalize over the (unchanged) neighbor set; eta >= 0.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    res = np.abs(np.asarray(residuals, dtype=float))
    if res.shape != trust.weights.shape:
        raise ValueError("residual matrix must match the trust matrix")
    w = trust.weights * np.exp(-eta * res)
    w[~trust.adjacency] = 0.0
    sums = w.sum(axis=1, keepdims=True)
    # a starved row falls back to uniform over its neighbor set
    uniform = trust.adjacency / trust.adjacency.sum(axis=1, keepdims=True)
    return TrustMatrix(np.divide(w, sums, out=uniform, where=~(sums <= 0)),
                       trust.adjacency)


def trimmed_consensus_step(sent: np.ndarray, received: np.ndarray,
                           trust: TrustMatrix, trim_f: int) -> np.ndarray:
    """One trimmed trust-weighted averaging round; returns the new values.

    `sent[j]` is sender j's broadcast value and `received[i, j]` marks that
    it reached agent i (inside i's neighbor set). Each agent drops the
    trim_f largest and trim_f smallest values it received (ties broken by
    sender id) and averages the survivors under its trust weights
    renormalized to them. Fewer than 2 * trim_f + 1 reports is a domain
    error.
    """
    if trim_f < 0:
        raise ValueError("trim_f must be >= 0")
    counts = received.sum(axis=1)
    short = np.flatnonzero(counts < 2 * trim_f + 1)
    if short.size:
        i = short[0]
        raise ValueError(
            f"agent {i}: {counts[i]} reports cannot survive 2*{trim_f} discards")
    full = trust.adjacency.sum(axis=1)
    new_values = np.empty(len(sent))
    for i, row in enumerate(received):
        keep = np.flatnonzero(row)
        if trim_f:
            ranked = keep[np.lexsort((keep, sent[keep]))]
            keep = np.sort(ranked[trim_f:-trim_f])
        weights = trust.weights[i, keep]
        # Full neighbor row intact: use the row as-is so plain averaging is
        # reproduced bit for bit; renormalize only after drops or trimming.
        if keep.size != full[i]:
            total = weights.sum()
            weights = (np.full(keep.size, 1.0 / keep.size) if total <= 0
                       else weights / total)
        new_values[i] = weights @ sent[keep]
    return new_values


@dataclass(frozen=True)
class DefenseSpec:
    trim_f: int = 0
    trust_eta: float | None = None   # None = fixed trust


@dataclass(frozen=True)
class ConsensusScenario:
    initial_values: tuple
    trust: TrustMatrix


@dataclass(frozen=True)
class ResilienceMetrics:
    max_honest_deviation: float          # vs the adversary-free run
    diameter_series: tuple               # honest max-min per step (incl. t=0)
    recovery_time: int | None            # steps past window end until the honest
                                         # diameter drops below 1e-3 of its initial value
    honest: tuple


@dataclass(frozen=True)
class ConsensusRun:
    values: np.ndarray                   # (horizon + 1) x n
    metrics: ResilienceMetrics


def _trajectory(scenario: ConsensusScenario, horizon: int, defense: DefenseSpec,
                adversary: AdversaryModel | None, seed) -> np.ndarray:
    """The (horizon + 1) x n value array; row t also serves as replay history."""
    trust = scenario.trust
    out = np.empty((horizon + 1, len(scenario.initial_values)))
    out[0] = scenario.initial_values
    attack_rng = np.random.default_rng([0 if seed is None else seed, 0xAD])
    for t in range(horizon):
        sent, delivered = corrupt_reports(adversary, out[t], out, t, attack_rng)
        received = trust.adjacency & delivered
        out[t + 1] = trimmed_consensus_step(sent, received, trust, defense.trim_f)
        if defense.trust_eta is not None:
            residuals = np.where(received, sent - out[t + 1][:, None], 0.0)
            trust = update_trust(trust, residuals, defense.trust_eta)
    return out


def run_consensus_scenario(scenario: ConsensusScenario, horizon: int,
                           defense: DefenseSpec,
                           adversary: AdversaryModel | None = None,
                           seed=None) -> ConsensusRun:
    """Trimmed trust-weighted consensus under attack, with recovery metrics.

    Every agent broadcasts, messages from compromised agents are corrupted in
    transit, then every agent (compromised ones included) applies the same
    trimmed update. Metrics cover honest agents only; the deviation metric
    reruns the scenario without the adversary.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = len(scenario.initial_values)
    if scenario.trust.weights.shape != (n, n):
        raise ValueError("trust matrix size must match the value vector")
    compromised = tuple(adversary.compromised) if adversary is not None else ()
    for c in compromised:
        if not 0 <= c < n:
            raise ValueError(f"compromised id {c} out of range")
    honest = tuple(i for i in range(n) if i not in compromised)
    if not honest:
        raise ValueError("at least one honest agent required")
    out = _trajectory(scenario, horizon, defense, adversary, seed)

    hv = out[:, list(honest)]
    diameters = tuple(float(v) for v in hv.max(axis=1) - hv.min(axis=1))
    max_dev = 0.0
    if adversary is not None:
        nominal = _trajectory(scenario, horizon, defense, None, seed)
        max_dev = float(np.max(np.abs(hv - nominal[:, list(honest)])))
    recovery = None
    if adversary is not None and adversary.window is not None:
        end = adversary.window[1]
        if end <= horizon:
            threshold = 1e-3 * diameters[0]
            for t in range(end, horizon + 1):
                if diameters[t] < threshold:
                    recovery = t - end
                    break
    metrics = ResilienceMetrics(max_dev, diameters, recovery, honest)
    return ConsensusRun(out, metrics)


# --- corruption of learning-dynamics observations ------------------------------

def corrupted_observer(game: StrategicGame, adversary: AdversaryModel | None,
                       seed=None):
    """An `observe` hook for run_dynamics that tampers with reported actions.

    Messages here are the actions opponents report having played:
    constant-injection pins a compromised agent's reported action to index
    round(value); sign-flip reports the index-reversed action; replay reports
    the action from `lag` steps back; channel-drop withholds the report, so
    observers hold the last value they saw. Draws come from a dedicated
    generator, leaving the learning stream untouched.
    """
    attack_rng = np.random.default_rng([0 if seed is None else seed, 0xAD])
    history = []                     # true profiles per step
    last_seen = {}                   # (observer, sender) -> last reported label
    state = {"t": None, "dropped": None}

    def observe(t, observer, profile):
        if len(history) < t:
            history.append(tuple(profile))
        if adversary is None or not adversary.active_at(t - 1):
            return profile
        if state["t"] != t:          # one drop draw per sender per step
            state["t"] = t
            if adversary.kind == "channel-drop":
                state["dropped"] = {s: attack_rng.random() < adversary.drop_prob
                                    for s in adversary.compromised}
        seen = list(profile)
        for s in adversary.compromised:
            if s == observer:
                continue
            k = len(game.actions[s])
            true_label = profile[s]
            if adversary.kind == "constant-injection":
                idx = min(max(int(round(adversary.value)), 0), k - 1)
                seen[s] = game.actions[s][idx]
            elif adversary.kind == "sign-flip":
                idx = k - 1 - game.action_index(s, true_label)
                seen[s] = game.actions[s][idx]
            elif adversary.kind == "replay":
                back = max(0, t - 1 - adversary.lag)
                seen[s] = history[back][s]
            else:                    # channel-drop
                if state["dropped"].get(s, False):
                    seen[s] = last_seen.get((observer, s), true_label)
                    continue
            last_seen[(observer, s)] = seen[s]
        return tuple(seen)

    return observe


def run_adversarial_dynamics(game: StrategicGame, specs, horizon: int,
                             adversary: AdversaryModel | None, seed=None,
                             signal_schedule=None) -> Trace:
    """run_dynamics with the reported-action channel under attack.

    A None adversary reproduces the plain run bit-identically (the corruption
    layer draws from its own generator and never touches the learning one).
    """
    observe = corrupted_observer(game, adversary, seed) if adversary is not None else None
    return run_dynamics(game, specs, horizon, seed=seed,
                        signal_schedule=signal_schedule, observe=observe)
