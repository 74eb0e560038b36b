"""Coupled payoff-estimation / policy-update learning dynamics.

Each agent keeps an estimate vector q over its own actions and a mixed
policy pi. Per step, with rates mu_t and lambda_t from the agent's
schedules:

    q  <- (1 - mu) q + mu * G      (estimation target G, kind-specific)
    pi <- (1 - lambda) pi + lambda * Psi(q)   (policy target Psi)

Kinds:
  best-response          G = payoff vector vs the last opponent actions,
                         Psi = indicator of argmax q (smallest index on ties)
  smoothed-best-response same G, Psi = softmax(q / tau)
  replicator             same G, Psi = pi reweighted by q shifted positive
  fictitious-play        G = expected payoffs vs empirical opponent
                         frequencies, Psi = indicator of argmax q
  payoff-estimation      G writes the realized payoff into the realized
                         action's coordinate only, Psi = softmax(q / tau)

Observation model: agents see their own realized payoff and the opponents'
realized actions. Identical (game, specs, horizon, seed) reproduce traces
bit-identically. A trace keeps every step's signal, actions and payoffs,
and the policies and estimates of the last step only (its final state).

Actions are integer indices into the payoff tables, in the trace and in
the updates alike; action labels stay in `game.actions`. A
`LearningState` holds each agent's vectors as plain float lists, which the
helpers below take (arrays work too) and return. The helpers do the float
operations of the formulas above in the same order, so a trace does not
depend on this representation.
"""

from __future__ import annotations

import array
import math
from typing import NamedTuple

from ._np import np

from .errors import ComputationError
from .strategic import StrategicGame, contract_others, mixed_gap

KINDS = ("best-response", "smoothed-best-response", "fictitious-play",
         "replicator", "payoff-estimation")
SCHEDULES = ("constant", "harmonic")
GAP_BLOCK_BYTES = 8 * 2 ** 20


class RateSchedule:
    """constant: value; harmonic: value / t with t counted from 1."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str = "constant", value: float = 1.0):
        self.kind = kind
        self.value = value
        if kind not in SCHEDULES:
            raise ValueError(f"unknown schedule kind {kind!r}")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"rate value must be in [0, 1], got {value}")

    def at(self, t: int) -> float:
        if t < 1:
            raise ValueError("schedules are indexed from t = 1")
        if self.kind == "constant":
            return self.value
        return self.value / t


class LearnerSpec:
    __slots__ = ("kind", "payoff_rate", "policy_rate", "temperature",
                 "initial_policy", "initial_estimate")

    def __init__(self, kind: str,
                 payoff_rate: RateSchedule = RateSchedule("constant", 1.0),
                 policy_rate: RateSchedule = RateSchedule("constant", 1.0),
                 temperature: float = 1.0,
                 initial_policy: tuple | None = None,
                 initial_estimate: tuple | None = None):
        self.kind = kind
        self.payoff_rate = payoff_rate
        self.policy_rate = policy_rate
        self.temperature = temperature
        self.initial_policy = initial_policy        # None -> uniform
        self.initial_estimate = initial_estimate    # None -> zeros
        if kind not in KINDS:
            raise ValueError(f"unknown learner kind {kind!r}; valid: {KINDS}")
        if temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {temperature}")
        if initial_policy is not None:
            pi = np.asarray(initial_policy, dtype=float)
            if not (abs(pi.sum() - 1.0) <= 1e-9 and pi.min() >= 0):
                raise ValueError(f"initial policy must be nonnegative and sum "
                                 f"to 1, got {list(initial_policy)}")


class LearningState:
    """Mutable per-run state of float lists; `counts[i]` tallies agent i's actions."""

    __slots__ = ("policies", "estimates", "counts", "t")

    def __init__(self, policies: list, estimates: list, counts: list, t: int = 0):
        self.policies = policies
        self.estimates = estimates
        self.counts = counts
        self.t = t

    @staticmethod
    def fresh(game: StrategicGame, specs) -> "LearningState":
        policies, estimates, counts = [], [], []
        for i, spec in enumerate(specs):
            k = len(game.actions[i])
            pi = ([1.0 / k] * k if spec.initial_policy is None
                  else list(map(float, spec.initial_policy)))
            q = ([0.0] * k if spec.initial_estimate is None
                 else list(map(float, spec.initial_estimate)))
            for name, v in (("policy", pi), ("estimate", q)):
                if len(v) != k:
                    raise ValueError(f"agent {i}: initial {name} needs length {k}")
            policies.append(pi)
            estimates.append(q)
            counts.append([0.0] * k)
        return LearningState(policies, estimates, counts)


def softmax(q: np.ndarray, tau: float) -> np.ndarray:
    z = q / tau
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def estimation_target(spec: LearnerSpec, agent: int, table: np.ndarray,
                      q, profile: tuple, freqs) -> list:
    """The kind-specific target vector G for one update.

    `table` is the agent's payoff table under the step's signal (one axis
    per agent); `profile` is the realized profile as action indices;
    `freqs` holds every agent's empirical action frequencies (read by
    fictitious play only).
    """
    if spec.kind == "fictitious-play":
        return contract_others(table, agent, freqs).tolist()
    if spec.kind == "payoff-estimation":
        g = list(q)
        g[profile[agent]] = float(table[profile])
        return g
    return table[profile[:agent] + (slice(None),) + profile[agent + 1:]].tolist()


def _relax(x, target, rate: float) -> list:
    """(1 - rate) * x + rate * target, one coordinate at a time (a plain
    loop: on vectors this short it beats both numpy and a comprehension)."""
    keep = 1.0 - rate
    out = []
    for a, b in zip(x, target):
        out.append(keep * a + rate * b)
    return out


def step_payoff_estimate(q, target, mu: float) -> list:
    """q <- (1 - mu) q + mu G."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    return _relax(q, target, mu)


def _argmax(q) -> int:
    """The first index of the largest entry; a NaN counts as the largest,
    as in `np.argmax`."""
    best = 0
    for j, v in enumerate(q):
        if v != v:
            return j
        if v > q[best]:
            best = j
    return best


def policy_target(spec: LearnerSpec, pi, q) -> list:
    """The kind-specific policy target Psi."""
    if spec.kind in ("best-response", "fictitious-play"):
        psi = [0.0] * len(q)
        psi[_argmax(q)] = 1.0
        return psi
    q = np.asarray(q, dtype=float)
    if spec.kind in ("smoothed-best-response", "payoff-estimation"):
        return softmax(q, spec.temperature).tolist()
    # replicator: reweight pi by estimates shifted to be >= 1
    shifted = q - q.min() + 1.0
    w = np.asarray(pi, dtype=float) * shifted
    return (w / w.sum()).tolist()


def step_policy(spec: LearnerSpec, pi, q, lam: float) -> list:
    """pi <- (1 - lambda) pi + lambda Psi(q)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return _relax(pi, policy_target(spec, pi, q), lam)


class Trace(NamedTuple):
    signals: list            # signal label per step
    actions: np.ndarray      # horizon x n action indices
    payoffs: np.ndarray      # horizon x n realized payoffs
    final_state: LearningState


def _frequencies(tally, total: float) -> list:
    """Each count over the total."""
    out = []
    for c in tally:
        out.append(c / total)
    return out


def _uniform_rows(rng, horizon: int, n: int):
    """The stream's next horizon * n doubles in order, as rows of n, drawn
    4096 rows at a time (the same doubles as one draw per value)."""
    for start in range(0, horizon, 4096):
        yield from rng.random((min(4096, horizon - start), n)).tolist()


def _sample(u: float, pi) -> int:
    """Inverse-CDF draw: the first action whose cumulative mass exceeds u."""
    acc = 0.0
    for j in range(len(pi) - 1):
        acc += pi[j]
        if u < acc:
            return j
    return len(pi) - 1


def run_dynamics(game: StrategicGame, specs, horizon: int, seed=None,
                 rng=None, signal_schedule=None, initial_state=None) -> Trace:
    """Run the coupled dynamics for `horizon` steps.

    `signal_schedule(t)` picks the signal per step (default: the game's only
    signal). Exactly one of seed/rng is used; passing rng continues an
    existing stream.

    Draw order: step t uses the next n uniforms of the stream, one per
    agent in agent order, and nothing else draws from it, so a run consumes
    exactly horizon * n doubles and two runs sharing one `rng` see the same
    doubles as one run over both horizons. All validation, including the
    signal schedule of every step, happens before the first draw, so a run
    that fails validation leaves a passed `rng` untouched. A run whose
    policies or estimates stop being finite (an overflowing update, such as
    `q / tau` at a tiny temperature) raises `ComputationError` after its
    draws.
    """
    if len(specs) != game.n_agents:
        raise ValueError(f"need {game.n_agents} learner specs, got {len(specs)}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    state = initial_state if initial_state is not None else LearningState.fresh(game, specs)
    n = game.n_agents
    t0 = state.t
    if signal_schedule is None:
        if len(game.payoffs) != 1:
            raise ValueError("multi-signal game needs a signal schedule")
        signals = [game.resolve_signal(None)] * horizon
    else:
        signals = [game.resolve_signal(signal_schedule(t0 + step))
                   for step in range(1, horizon + 1)]
    if rng is None:
        rng = np.random.default_rng(seed)

    # copies, so a run that raises leaves `initial_state` as it was
    policies, estimates = list(state.policies), list(state.estimates)
    counts = [list(c) for c in state.counts]
    totals = [sum(c) for c in counts]      # whole numbers: exact in any order
    tables = {sig: list(game.payoffs[sig]) for sig in dict.fromkeys(signals)}
    fictitious = any(spec.kind == "fictitious-play" for spec in specs)
    freqs = None
    actions = array.array("q")       # flat C int64, one row of n per step
    learners = [(i, spec, spec.payoff_rate.at, spec.policy_rate.at)
                for i, spec in enumerate(specs)]
    for t, sig, u in zip(range(t0 + 1, t0 + horizon + 1), signals,
                         _uniform_rows(rng, horizon, n)):
        table = tables[sig]
        idx = []
        for i, x in enumerate(u):
            a = _sample(x, policies[i])
            idx.append(a)
            counts[i][a] += 1.0
            totals[i] += 1.0
        actions.fromlist(idx)
        idx = tuple(idx)
        if fictitious:
            freqs = [_frequencies(tally, total)
                     for tally, total in zip(counts, totals)]
        for i, spec, payoff_rate, policy_rate in learners:
            q = step_payoff_estimate(
                estimates[i],
                estimation_target(spec, i, table[i], estimates[i], idx, freqs),
                payoff_rate(t))
            pi = step_policy(spec, policies[i], q, policy_rate(t))
            estimates[i] = q
            policies[i] = pi
    # a non-finite coordinate stays non-finite under these updates, so the
    # final vectors show whether any step overflowed
    for i, (pi, q) in enumerate(zip(policies, estimates)):
        if not all(map(math.isfinite, pi + q)):
            raise ComputationError(f"agent {i}: policy or estimate is not "
                                   f"finite after step {t0 + horizon}")
    state.policies, state.estimates, state.counts = policies, estimates, counts
    state.t = t0 + horizon
    actions = np.frombuffer(actions, dtype=np.int64).reshape(horizon, n).copy()
    payoffs = np.zeros((horizon, n))
    for sig in tables:
        rows = np.array([s == sig for s in signals])
        payoffs[rows] = game.payoffs[sig][(slice(None),) + tuple(actions[rows].T)].T
    return Trace(signals, actions, payoffs, state)


class Diagnostics(NamedTuple):
    external_regret: np.ndarray      # per agent, time-averaged
    empirical_frequencies: list      # per agent, realized action frequencies
    gap_times: tuple                 # steps at which the gap was sampled
    gap_series: np.ndarray           # equilibrium gap of the empirical product profile


def diagnostics(game: StrategicGame, trace: Trace, gap_stride: int = 1) -> Diagnostics:
    """Regret, empirical frequencies and the equilibrium-gap series.

    External regret for agent i is
    max_a (1/T) sum_t [J_i(a, x_{-i,t}) - J_i(x_t)]; the gap series applies
    the unilateral-gain check to the product of empirical frequencies
    accumulated up to each sampled step. Multi-signal traces measure regret
    against the table active at each step.
    """
    if gap_stride < 1:
        raise ValueError("gap_stride must be >= 1")
    horizon, n = trace.actions.shape
    by_signal = {sig: np.flatnonzero([s == sig for s in trace.signals])
                 for sig in dict.fromkeys(trace.signals)}
    freqs = []
    regrets = np.zeros(n)
    for i in range(n):
        k = len(game.actions[i])
        counts = np.bincount(trace.actions[:, i], minlength=k).astype(float)
        freqs.append(counts / horizon)
        # every step's counterfactual payoff vector, signals in order of
        # first appearance and steps in time order, summed sequentially
        rows = [np.zeros((1, k))]
        for sig, steps in by_signal.items():
            table = np.moveaxis(game.payoffs[sig][i], i, -1)
            rows.append(table[tuple(trace.actions[steps, j]
                                    for j in range(n) if j != i)])
        best_sum = np.cumsum(np.concatenate(rows), axis=0)[-1]
        realized = trace.payoffs[:, i].sum()
        regrets[i] = (best_sum.max() - realized) / horizon

    times = list(range(gap_stride, horizon + 1, gap_stride))
    if not times or times[-1] != horizon:
        times.append(horizon)
    # step s falls in sampling segment s // gap_stride (the tail joins the
    # last one); per-segment action counts, accumulated, give the running
    # counts and so the frequencies at every sampled step
    segment = np.minimum(np.arange(horizon) // gap_stride, len(times) - 1)
    taus = np.asarray(times)[:, None]
    running = []
    for i in range(n):
        k = len(game.actions[i])
        per_segment = np.bincount(segment * k + trace.actions[:, i],
                                  minlength=len(times) * k)
        running.append(per_segment.reshape(-1, k).cumsum(axis=0) / taus)
    main_signal = max(by_signal, key=lambda s: len(by_signal[s]))
    # batches of samples whose contraction temporaries stay near
    # GAP_BLOCK_BYTES, so memory does not grow with samples times grid
    block = max(1, GAP_BLOCK_BYTES // (8 * game.payoffs[main_signal][0].size))
    gaps = [mixed_gap(game, [r[s:s + block] for r in running], main_signal)
            for s in range(0, len(times), block)]
    return Diagnostics(regrets, freqs, tuple(times), np.concatenate(gaps))
