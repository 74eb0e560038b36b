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

from typing import NamedTuple

from ._np import np

KINDS = ("constant-injection", "sign-flip", "replay", "channel-drop")


class AdversaryModel:
    __slots__ = ("compromised", "kind", "value", "lag", "drop_prob", "window")

    def __init__(self, compromised: tuple, kind: str, value: float = 0.0,
                 lag: int = 1, drop_prob: float = 0.5,
                 window: tuple | None = None):
        self.compromised = compromised  # agent ids
        self.kind = kind
        self.value = value              # constant-injection payload
        self.lag = lag                  # replay distance
        self.drop_prob = drop_prob      # channel-drop probability
        self.window = window    # (start, end) active steps, end exclusive; None = always
        if kind not in KINDS:
            raise ValueError(f"unknown adversary kind {kind!r}; valid: {KINDS}")
        if len(set(compromised)) != len(compromised):
            raise ValueError(f"repeated compromised ids in {list(compromised)}")
        if kind == "replay" and lag < 1:
            raise ValueError("replay lag must be >= 1")
        if kind == "channel-drop" and not 0.0 <= drop_prob <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        if window is not None and window[0] > window[1]:
            raise ValueError(f"bad window {window}")

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
    Only channel drops draw from `rng`; for the other kinds it may be None.
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


class TrustMatrix:
    """Row-stochastic weights over each agent's neighbor set.

    `adjacency[i][j]` marks j as a neighbor of i (self-loops allowed);
    weights are zero off the neighbor set and each row sums to 1.
    """

    __slots__ = ("weights", "adjacency")

    def __init__(self, weights: np.ndarray, adjacency: np.ndarray):
        self.weights = weights
        self.adjacency = adjacency
        w, adj = weights, adjacency
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

    The round runs on whole matrices, one block per distinct survivor
    count k. Each row keeps the bits of a one-row computation: its weight
    sum is a pairwise sum over its own k survivors in sender order, and its
    value is its own dot product in a stacked matmul.
    """
    if trim_f < 0:
        raise ValueError("trim_f must be >= 0")
    counts = received.sum(axis=1)
    short = np.flatnonzero(counts < 2 * trim_f + 1)
    if short.size:
        i = short[0]
        raise ValueError(
            f"agent {i}: {counts[i]} reports cannot survive 2*{trim_f} discards")
    keep = received
    if trim_f:
        # The (value, sender) order is the same for every receiver; a running
        # count of received messages in that order ranks each one per row.
        order = np.argsort(sent, kind="stable")
        ranked = received[:, order]
        rank = np.cumsum(ranked, axis=1)
        keep = np.empty(received.shape, dtype=bool)
        keep[:, order] = (ranked & (rank > trim_f)
                          & (rank <= (counts - trim_f)[:, None]))
    sizes = counts - 2 * trim_f
    full = trust.adjacency.sum(axis=1)
    new_values = np.empty(len(sent))
    for k in sorted(set(sizes.tolist())):   # np.unique would import numpy.ma, +0.6 MB
        rows = np.flatnonzero(sizes == k)
        cols = np.nonzero(keep[rows])[1].reshape(len(rows), k)
        weights = trust.weights[rows[:, None], cols]
        # Full neighbor row intact: use the row as-is so plain averaging is
        # reproduced bit for bit; renormalize only after drops or trimming.
        renorm = (full[rows] != k)[:, None]
        total = weights.sum(axis=1, keepdims=True)
        weights = np.divide(weights, total, out=np.where(renorm, 1.0 / k, weights),
                            where=renorm & ~(total <= 0))
        new_values[rows] = np.matmul(weights[:, None, :],
                                     sent[cols][:, :, None])[:, 0, 0]
    return new_values


class DefenseSpec(NamedTuple):
    trim_f: int = 0
    trust_eta: float | None = None   # None = fixed trust


class ConsensusScenario(NamedTuple):
    initial_values: tuple
    trust: TrustMatrix


class ResilienceMetrics(NamedTuple):
    max_honest_deviation: float          # vs the adversary-free run
    diameter_series: tuple               # honest max-min per step (incl. t=0)
    recovery_time: int | None            # steps past window end until the honest
                                         # diameter drops below 1e-3 of its initial value
    honest: tuple


class ConsensusRun(NamedTuple):
    values: np.ndarray                   # (horizon + 1) x n
    metrics: ResilienceMetrics


def _trajectory(scenario: ConsensusScenario, horizon: int, defense: DefenseSpec,
                adversary: AdversaryModel | None, seed) -> np.ndarray:
    """The (horizon + 1) x n value array; row t also serves as replay history."""
    trust = scenario.trust
    out = np.empty((horizon + 1, len(scenario.initial_values)))
    out[0] = scenario.initial_values
    # only channel drops draw, so only they load numpy.random
    attack_rng = None
    if adversary is not None and adversary.kind == "channel-drop":
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

    cols = list(honest)
    hv = out[:, cols]
    diameters = tuple(float(v) for v in hv.max(axis=1) - hv.min(axis=1))
    max_dev = 0.0
    if adversary is not None:
        # the deviation is formed in the rerun's own array, and max is exact,
        # so taking it per column first gives the same float
        dev = _trajectory(scenario, horizon, defense, None, seed)
        np.abs(np.subtract(out, dev, out=dev), out=dev)
        max_dev = float(dev.max(axis=0)[cols].max())
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

