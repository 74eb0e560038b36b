"""Coordination layer: signal selection, action restriction, slow/fast loops.

A coordinator picks a signal c on a slow clock; agents learn on a fast clock
under that signal. The pieces here are admissible-set restriction (what each
agent may play, `{signal: per-agent index tuples}`), coordinator update rules,
the two-timescale driver and Stackelberg signal selection over pure equilibria.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

from ._np import np

from . import incentives as incmod
from . import learning as learnmod
from .strategic import (StrategicGame, _total, enumerate_pure_nash,
                        expected_payoffs)

COORDINATOR_KINDS = ("constant", "round-robin", "greedy")
STACKELBERG_MODES = ("optimistic", "pessimistic")

# --- admissible action sets --------------------------------------------------

def _restrict(game: StrategicGame, admissible: dict | None, signal):
    """The subgame held to `admissible`'s sets at `signal` (`game` if it
    keeps every action in order) and the index lists of the kept actions.
    `admissible` maps signals to per-agent tuples of allowed action indices,
    in the subgame's order; a signal it leaves out leaves the game whole."""
    if admissible is None or signal not in admissible:
        return game, [range(len(a)) for a in game.actions]
    allowed = admissible[signal]
    if len(allowed) != game.n_agents:
        raise ValueError(f"rule at {signal!r} must cover all agents")
    for i, idx in enumerate(allowed):
        if not len(idx):
            raise ValueError(f"agent {i}: admissible set empty at {signal!r}")
    keep = [list(idx) for idx in allowed]
    if keep == [list(range(len(a))) for a in game.actions]:
        return game, keep
    return game.subgame(keep), keep


# --- coordinator updates -----------------------------------------------------

class EpochDigest(NamedTuple):
    """What the slow clock sees of one fast epoch."""

    signal: str
    frequencies: tuple           # per agent, over the full action set
    mean_welfare: float
    mean_payoffs: tuple


class CoordinatorPolicy:
    __slots__ = ("kind", "candidates")

    def __init__(self, kind: str, candidates: tuple):
        self.kind = kind                # one of COORDINATOR_KINDS
        self.candidates = candidates
        if kind not in COORDINATOR_KINDS:
            raise ValueError(f"unknown coordinator kind {kind!r}")
        if not candidates:
            raise ValueError("candidate set must be nonempty")
        if len(set(candidates)) != len(candidates):
            raise ValueError(f"repeated candidates in {list(candidates)}")


def coordinator_update(policy: CoordinatorPolicy, game: StrategicGame,
                       current, digest: EpochDigest | None):
    """Next signal. Greedy scores candidates on the last epoch's digest
    (expected welfare under the empirical frequency product) and keeps the
    earliest candidate on ties."""
    if policy.kind == "constant":
        return current
    if policy.kind == "round-robin":
        pos = policy.candidates.index(current) if current in policy.candidates else -1
        return policy.candidates[(pos + 1) % len(policy.candidates)]
    if digest is None:
        return current
    best, best_val = None, None
    for cand in policy.candidates:
        val = float(expected_payoffs(game, digest.frequencies, cand).sum())
        if best_val is None or val > best_val:
            best, best_val = cand, val
    return best


# --- two-timescale driver ----------------------------------------------------

class TwoTimescaleResult(NamedTuple):
    epochs: list                 # one EpochDigest per epoch, in order
    final_state: learnmod.LearningState


def _project_state(state: learnmod.LearningState, keep):
    """Restrict policies/estimates to the admissible index sets `keep`."""
    policies = []
    for pi, idx in zip(state.policies, keep):
        sub = [pi[j] for j in idx]
        if len(idx) < len(pi):
            mass = float(np.sum(sub))    # numpy's pairwise sum, not Python's
            sub = [p / mass for p in sub] if mass > 0 else [1.0 / len(idx)] * len(idx)
        policies.append(sub)
    return learnmod.LearningState(
        policies, [[q[j] for j in idx] for q, idx in zip(state.estimates, keep)],
        [[c[j] for j in idx] for c, idx in zip(state.counts, keep)], state.t)


def _embed_state(state: learnmod.LearningState, sub: learnmod.LearningState,
                 keep):
    for i, idx in enumerate(keep):
        pi = [0.0] * len(state.policies[i])
        for j, p, q, c in zip(idx, sub.policies[i], sub.estimates[i], sub.counts[i]):
            pi[j], state.estimates[i][j], state.counts[i][j] = p, q, c
        state.policies[i] = pi
    state.t = sub.t


def run_two_timescale(game: StrategicGame, specs, coordinator: CoordinatorPolicy,
                      outer_steps: int, epoch_length: int, seed=None,
                      admissible: dict | None = None, incentives: dict | None = None,
                      initial_signal=None) -> TwoTimescaleResult:
    """K outer signal updates around T-step learning epochs.

    One learning state persists across epochs; each epoch runs on the game
    restricted to the signal's admissible sets (built on the signal's first
    epoch; policies projected in, then embedded back) with any incentive
    transfers applied (`admissible` and `incentives` are dicts, as
    `_restrict` and `modified_payoff` take them). With one outer step, no
    restriction and no transfers this is exactly `run_dynamics`.
    """
    if outer_steps < 1 or epoch_length < 1:
        raise ValueError("outer_steps and epoch_length must be >= 1")
    rng = np.random.default_rng(seed)
    played = (incmod.modified_payoff(game, incentives) if incentives is not None
              else game)
    signal = initial_signal if initial_signal is not None else coordinator.candidates[0]
    played.resolve_signal(signal)
    state = learnmod.LearningState.fresh(game, specs)
    restricted = {}                  # signal -> (restricted game, kept indices)
    epochs = []
    for k in range(outer_steps):
        if k > 0:
            signal = coordinator_update(coordinator, played, signal, epochs[-1])
        if signal not in restricted:
            restricted[signal] = _restrict(played, admissible, signal)
        sub, keep = restricted[signal]
        trace = learnmod.run_dynamics(sub, specs, epoch_length, rng=rng,
                                      signal_schedule=lambda t: signal,
                                      initial_state=_project_state(state, keep))
        before = [list(c) for c in state.counts]
        _embed_state(state, trace.final_state, keep)
        freqs = tuple(tuple((c - b) / epoch_length for c, b in zip(after, prior))
                      for after, prior in zip(state.counts, before))
        mean_pay = trace.payoffs.mean(axis=0)
        epochs.append(EpochDigest(signal, freqs, float(mean_pay.sum()),
                                  tuple(float(v) for v in mean_pay)))
    return TwoTimescaleResult(epochs, state)


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
    return _total(game.payoff(profile, candidate))


def stackelberg_solve(game: StrategicGame, candidates, mode: str = "optimistic",
                      leader_objective=None) -> StackelbergReport:
    """Pick the signal maximizing the leader's value over follower equilibria.

    Per candidate signal the pure equilibria are enumerated, then scored by
    `leader_objective(game, candidate, profile)`; optimistic takes the best
    equilibrium for the leader, pessimistic the worst. Candidates without a
    pure equilibrium are skipped with a warning. Ties keep the earliest
    candidate.
    """
    if mode not in STACKELBERG_MODES:
        raise ValueError(f"mode must be optimistic or pessimistic, got {mode!r}")
    objective = leader_objective if leader_objective is not None else total_welfare_objective
    outcomes = []
    best, best_val = None, None
    for cand in candidates:
        game.resolve_signal(cand)
        eqs = tuple(enumerate_pure_nash(game, cand))
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
