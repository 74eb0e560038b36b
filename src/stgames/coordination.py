"""Coordination layer: signal selection, action restriction, slow/fast loops.

A coordinator picks a signal c on a slow clock; agents learn on a fast clock
under that signal. The pieces here are admissible-set restriction (what each
agent may play), coordinator update rules, the two-timescale driver,
Stackelberg signal selection against enumerated pure equilibria, Monte-Carlo
rollouts of a finite-state dynamic game, and greedy merge-split dynamics on
coalition structures.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .coop import CoalitionGame, members
from .incentives import IncentiveSchedule, modified_payoff
from .learning import LearningState, run_dynamics
from .strategic import StrategicGame, enumerate_pure_nash, expected_payoffs

COORDINATOR_KINDS = ("constant", "round-robin", "greedy")
STACKELBERG_MODES = ("optimistic", "pessimistic")

# --- admissible action sets --------------------------------------------------

class AdmissibleSetRule(NamedTuple):
    """signal -> per-agent tuples of allowed action indices, in the
    subgame's order. Signals missing from the map leave the game unrestricted.
    """

    allowed: dict


def _restrict(game: StrategicGame, rule: AdmissibleSetRule | None, signal):
    """The subgame held to `rule`'s admissible sets at `signal` (`game` if
    it keeps every action in order) and the index arrays of the kept actions."""
    if rule is None or signal not in rule.allowed:
        return game, [np.arange(len(a)) for a in game.actions]
    allowed = rule.allowed[signal]
    if len(allowed) != game.n_agents:
        raise ValueError(f"rule at {signal!r} must cover all agents")
    for i, idx in enumerate(allowed):
        if not len(idx):
            raise ValueError(f"agent {i}: admissible set empty at {signal!r}")
    actions = tuple(tuple(labels[j] for j in idx)
                    for labels, idx in zip(game.actions, allowed))
    keep = [np.asarray(idx, dtype=np.intp) for idx in allowed]
    if actions == game.actions:
        return game, keep
    sel = np.ix_(np.arange(game.n_agents), *keep)
    return StrategicGame(actions, {s: tab[sel] for s, tab in game.payoffs.items()}), keep


def apply_admissible_sets(game: StrategicGame, rule: AdmissibleSetRule,
                          signal) -> StrategicGame:
    """The subgame where each agent is held to its admissible actions."""
    return _restrict(game, rule, game.resolve_signal(signal))[0]


# --- coordinator updates -----------------------------------------------------

class EpochDigest(NamedTuple):
    """What the slow clock sees of one fast epoch."""

    signal: str
    frequencies: tuple           # per agent, over the full action set
    mean_welfare: float
    mean_payoffs: tuple


class CoordinatorPolicy:
    __slots__ = ("kind", "candidates", "welfare")

    def __init__(self, kind: str, candidates: tuple, welfare=None):
        self.kind = kind                # one of COORDINATOR_KINDS
        self.candidates = candidates
        self.welfare = welfare  # greedy: callable (game, candidate, digest) -> float
        if kind not in COORDINATOR_KINDS:
            raise ValueError(f"unknown coordinator kind {kind!r}")
        if not candidates:
            raise ValueError("candidate set must be nonempty")


def _expected_welfare(game: StrategicGame, candidate, digest: EpochDigest) -> float:
    mixed = [np.asarray(f, dtype=float) for f in digest.frequencies]
    return float(expected_payoffs(game, mixed, candidate).sum())


def coordinator_update(policy: CoordinatorPolicy, game: StrategicGame,
                       current, digest: EpochDigest | None):
    """Next signal. Greedy scores candidates on the last epoch's digest
    (expected welfare under the empirical frequency product by default) and
    keeps the earliest candidate on ties."""
    if policy.kind == "constant":
        return current
    if policy.kind == "round-robin":
        pos = policy.candidates.index(current) if current in policy.candidates else -1
        return policy.candidates[(pos + 1) % len(policy.candidates)]
    if digest is None:
        return current
    score = policy.welfare if policy.welfare is not None else _expected_welfare
    best, best_val = None, None
    for cand in policy.candidates:
        val = float(score(game, cand, digest))
        if best_val is None or val > best_val:
            best, best_val = cand, val
    return best


# --- two-timescale driver ----------------------------------------------------

class EpochRecord(NamedTuple):
    index: int
    signal: str
    digest: EpochDigest


class TwoTimescaleResult(NamedTuple):
    epochs: list
    traces: list                 # per-epoch Trace
    final_signal: str
    final_state: LearningState


def _project_state(state: LearningState, keep):
    """Restrict policies/estimates to the admissible index sets `keep`."""
    policies = []
    for pi, idx in zip(state.policies, keep):
        sub = pi[idx]
        if len(idx) < len(pi):
            mass = sub.sum()
            sub = sub / mass if mass > 0 else np.full(len(idx), 1.0 / len(idx))
        policies.append(sub)
    return LearningState(policies,
                         [q[idx] for q, idx in zip(state.estimates, keep)],
                         [c[idx] for c, idx in zip(state.counts, keep)], state.t)


def _embed_state(state: LearningState, sub: LearningState, keep):
    for i, idx in enumerate(keep):
        pi = np.zeros_like(state.policies[i])
        pi[idx] = sub.policies[i]
        state.policies[i] = pi
        state.estimates[i][idx] = sub.estimates[i]
        state.counts[i][idx] = sub.counts[i]
    state.t = sub.t


def run_two_timescale(game: StrategicGame, specs, coordinator: CoordinatorPolicy,
                      outer_steps: int, epoch_length: int, seed=None,
                      admissible: AdmissibleSetRule | None = None,
                      incentives: IncentiveSchedule | None = None,
                      initial_signal=None) -> TwoTimescaleResult:
    """K outer signal updates around T-step learning epochs.

    One learning state persists across epochs; each epoch runs on the game
    restricted to the signal's admissible sets (policies projected in, then
    embedded back) with any incentive transfers applied. With one outer step,
    no restriction and no transfers this is exactly `run_dynamics`.
    """
    if outer_steps < 1 or epoch_length < 1:
        raise ValueError("outer_steps and epoch_length must be >= 1")
    rng = np.random.default_rng(seed)
    played = modified_payoff(game, incentives) if incentives is not None else game
    signal = initial_signal if initial_signal is not None else coordinator.candidates[0]
    played.resolve_signal(signal)
    state = LearningState.fresh(game, specs)
    epochs, traces = [], []
    digest = None
    for k in range(outer_steps):
        if k > 0:
            signal = coordinator_update(coordinator, played, signal, digest)
        before = [c.copy() for c in state.counts]
        restricted, keep = _restrict(played, admissible, signal)
        trace = run_dynamics(restricted, specs, epoch_length, rng=rng,
                             signal_schedule=lambda t: signal,
                             initial_state=_project_state(state, keep))
        _embed_state(state, trace.final_state, keep)
        freqs = tuple(tuple((c - b) / epoch_length)
                      for c, b in zip(state.counts, before))
        mean_pay = trace.payoffs.mean(axis=0)
        digest = EpochDigest(signal, freqs, float(mean_pay.sum()),
                             tuple(float(v) for v in mean_pay))
        epochs.append(EpochRecord(k, signal, digest))
        traces.append(trace)
    return TwoTimescaleResult(epochs, traces, signal, state)


# --- Stackelberg signal selection ---------------------------------------------

class CandidateOutcome(NamedTuple):
    candidate: str
    equilibria: tuple
    values: tuple                # leader value per equilibrium
    value: float | None          # max (optimistic) or min (pessimistic)
    skipped: bool = False


class StackelbergReport(NamedTuple):
    mode: str
    best_candidate: str | None
    leader_value: float | None
    outcomes: tuple


def total_welfare_objective(game: StrategicGame, candidate, profile) -> float:
    return float(game.payoff(profile, candidate).sum())


def stackelberg_solve(game: StrategicGame, candidates, mode: str = "optimistic",
                      leader_objective=None,
                      admissible: AdmissibleSetRule | None = None) -> StackelbergReport:
    """Pick the signal maximizing the leader's value over follower equilibria.

    Per candidate signal the pure equilibria of the subgame `admissible`
    allows are enumerated, then scored by `leader_objective(game, candidate,
    profile)` and reported as profiles of the full game; optimistic takes the
    best equilibrium for the leader, pessimistic the worst. Candidates
    without a pure equilibrium are skipped with a warning. Ties keep the
    earliest candidate.
    """
    if mode not in STACKELBERG_MODES:
        raise ValueError(f"mode must be optimistic or pessimistic, got {mode!r}")
    objective = leader_objective if leader_objective is not None else total_welfare_objective
    outcomes = []
    best, best_val = None, None
    for cand in candidates:
        game.resolve_signal(cand)
        sub, keep = _restrict(game, admissible, cand)
        eqs = tuple(tuple(int(k[a]) for k, a in zip(keep, e))
                    for e in enumerate_pure_nash(sub, cand))
        if not eqs:
            warnings.warn(f"candidate {cand!r} has no pure equilibrium; skipped")
            outcomes.append(CandidateOutcome(cand, (), (), None, True))
            continue
        vals = tuple(float(objective(game, cand, e)) for e in eqs)
        val = max(vals) if mode == "optimistic" else min(vals)
        outcomes.append(CandidateOutcome(cand, eqs, vals, val))
        if best_val is None or val > best_val:
            best, best_val = cand, val
    return StackelbergReport(mode, best, best_val, tuple(outcomes))


# --- Monte-Carlo rollouts of a finite-state dynamic game ----------------------

class DynamicGame:
    """Finite-state stage games with table-driven transitions.

    `transitions[(state, profile)]`, profiles as action indices, is a state
    label (deterministic) or a tuple of (state, probability) pairs summing to 1.
    """

    __slots__ = ("stage_games", "transitions", "initial_state")

    def __init__(self, stage_games: dict, transitions: dict, initial_state: str):
        self.stage_games = stage_games      # state -> StrategicGame
        self.transitions = transitions
        self.initial_state = initial_state
        if initial_state not in stage_games:
            raise ValueError(f"unknown initial state {initial_state!r}")
        for key, nxt in transitions.items():
            if isinstance(nxt, str):
                continue
            probs = [p for _, p in nxt]
            if not (min(probs, default=-1.0) >= 0 and abs(sum(probs) - 1.0) <= 1e-9):
                raise ValueError(f"transition at {key} is not a distribution: {probs}")

    @property
    def n_agents(self) -> int:
        return next(iter(self.stage_games.values())).n_agents


class RolloutPolicy:
    """feedback: act on the current state; open-loop: on the initial state only.

    `table` maps state -> action index. An open-loop `plan` (action index
    sequence from t = 0, last action held) overrides the table when present.
    """

    __slots__ = ("kind", "table", "plan")

    def __init__(self, kind: str, table: dict | None = None,
                 plan: tuple | None = None):
        self.kind = kind                # "feedback" | "open-loop"
        self.table = table
        self.plan = plan
        if kind not in ("feedback", "open-loop"):
            raise ValueError(f"unknown policy kind {kind!r}")
        if kind == "feedback" and table is None:
            raise ValueError("a feedback policy needs a table")
        if plan is not None and not plan:
            raise ValueError("a plan needs at least one action")
        if table is None and plan is None:
            raise ValueError("policy needs a table or a plan")

    def action(self, t: int, state, initial_state):
        if self.kind == "feedback":
            return self.table[state]
        if self.plan is not None:
            return self.plan[min(t, len(self.plan) - 1)]
        return self.table[initial_state]


class RolloutReport(NamedTuple):
    mean: np.ndarray             # discounted value per agent
    stderr: np.ndarray
    horizon: int
    truncation_bound: float      # worst-case tail mass left out
    rollouts: int


def _index_chain(dyn: DynamicGame, policies, horizon: int):
    """Per (plan step, state) pair, with the plan step t capped at the
    longest plan, numbered in the order rollouts can reach them within the
    horizon along transitions of positive probability: the payoff row, the
    successor numbers and the next-state CDF, normalized by its last entry
    as `Generator.choice` does and padded with inf."""
    last = min(horizon, max([1] + [len(pol.plan) for pol in policies if pol.plan])) - 1
    number = {(0, dyn.initial_state): 0}
    rows, succs, cdfs = [], [], []
    queue = [(0, 0, dyn.initial_state)]
    for t, p, state in queue:
        # pairs are built in the order they are numbered, so a number below
        # len(rows) is built already
        if t == horizon or number[p, state] < len(rows):
            continue
        profile = tuple(pol.action(p, state, dyn.initial_state) for pol in policies)
        moves = dyn.transitions.get((state, profile), state)
        if isinstance(moves, str):
            moves = ((moves, 1.0),)
        moves = [((min(p + 1, last), lab), prob) for lab, prob in moves if prob > 0]
        rows.append(dyn.stage_games[state].payoff(profile))
        succs.append([number.setdefault(pair, len(number)) for pair, _ in moves])
        cdfs.append(np.cumsum([prob for _, prob in moves]))
        queue += [(t + 1,) + pair for pair, _ in moves]
    width = max(map(len, succs))
    return (np.array(rows), np.array([s + [0] * (width - len(s)) for s in succs]),
            np.array([list(c / c[-1]) + [np.inf] * (width - len(c)) for c in cdfs]))


def rollout_dynamic_game(dyn: DynamicGame, policies, beta: float,
                         rollouts: int, seed=None) -> RolloutReport:
    """Average discounted payoffs over seeded rollouts.

    The horizon is the smallest H with beta^H < 1e-6; the report carries the
    tail bound beta^H * max|stage payoff| / (1 - beta).

    Draw order: all rollouts step together. Step t draws
    `rng.random(rollouts)`, one uniform u per rollout in rollout order, and
    moves each rollout to the successor at the count of its CDF entries
    <= u, so a run consumes exactly H * rollouts doubles.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if rollouts < 1:
        raise ValueError("rollouts must be >= 1")
    if len(policies) != dyn.n_agents:
        raise ValueError(f"need {dyn.n_agents} policies")
    rng = np.random.default_rng(seed)
    horizon = 1
    acc = beta
    while acc >= 1e-6:
        acc *= beta
        horizon += 1
    max_abs = max(float(np.max(np.abs(g.payoffs[sig])))
                  for g in dyn.stage_games.values() for sig in g.payoffs)
    bound = (beta ** horizon) * max_abs / (1.0 - beta)

    pay, succ, cdf = _index_chain(dyn, policies, horizon)
    totals = np.zeros((rollouts, dyn.n_agents))
    at = np.zeros(rollouts, dtype=np.intp)
    disc = 1.0
    for _ in range(horizon):
        totals += disc * pay[at]
        at = succ[at, (cdf[at] <= rng.random(rollouts)[:, None]).sum(axis=1)]
        disc *= beta
    mean = totals.mean(axis=0)
    if rollouts > 1:
        stderr = totals.std(axis=0, ddof=1) / np.sqrt(rollouts)
    else:
        stderr = np.zeros(dyn.n_agents)
    return RolloutReport(mean, stderr, horizon, bound, rollouts)


# --- greedy merge-split coalition dynamics ------------------------------------

class StructureMove(NamedTuple):
    kind: str                    # "merge" | "split" | "none"
    gain: float
    detail: tuple                # masks involved


def _canonical(structure):
    return tuple(sorted(structure))


def evolve_coalitions(game: CoalitionGame, structure):
    """One greedy merge-split move on a coalition structure.

    Merges the block pair with the largest strictly positive merged-value
    gain; failing that, applies the best strictly improving bipartition of a
    block; otherwise the structure is a fixed point. Ties resolve in bitmask
    order.
    """
    blocks = _canonical(structure)
    union = 0
    for b in blocks:
        if b == 0:
            raise ValueError("structure blocks must be nonempty")
        if union & b:
            raise ValueError("structure blocks must be disjoint")
        union |= b
    if union != game.full:
        raise ValueError("structure must cover all agents")

    best_gain, best_pair = 0.0, None
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            gain = game.value(blocks[i] | blocks[j]) - game.value(blocks[i]) - game.value(blocks[j])
            if gain > best_gain + 1e-12:
                best_gain, best_pair = gain, (blocks[i], blocks[j])
    if best_pair is not None:
        merged = [b for b in blocks if b not in best_pair]
        merged.append(best_pair[0] | best_pair[1])
        return _canonical(merged), StructureMove("merge", best_gain, best_pair)

    best_gain, best_split = 0.0, None
    for b in blocks:
        low = b & -b
        rest_bits = [i for i in members(b) if (1 << i) != low]
        halves = []
        for r in range(1 << len(rest_bits)):
            a = low
            for k, bit in enumerate(rest_bits):
                if r >> k & 1:
                    a |= 1 << bit
            if a != b:
                halves.append(a)           # the half holding b's lowest bit
        halves.sort()
        for a in halves:
            other = b ^ a
            gain = game.value(a) + game.value(other) - game.value(b)
            if gain > best_gain + 1e-12:
                best_gain, best_split = gain, (b, a, other)
    if best_split is not None:
        b, a, rest = best_split
        out = [blk for blk in blocks if blk != b] + [a, rest]
        return _canonical(out), StructureMove("split", best_gain, (a, rest))
    return blocks, StructureMove("none", 0.0, ())


def run_merge_split(game: CoalitionGame, structure, max_steps: int = 64):
    """Iterate greedy moves to a fixed point; returns (structure, moves)."""
    cur = _canonical(structure)
    moves = []
    for _ in range(max_steps):
        nxt, move = evolve_coalitions(game, cur)
        if move.kind == "none":
            return cur, moves
        moves.append(move)
        cur = nxt
    return cur, moves
