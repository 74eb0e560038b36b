"""Shared fixtures and the one way tests build a game from its tables."""

import itertools

import numpy as np
import pytest

from stgames import learning
from stgames.strategic import StrategicGame


def make_game(actions, tables):
    """A game over `actions` from {signal: table}, through the library's one
    constructor. A table is either a dict of {profile of labels: per-agent
    payoffs}, read in profile order, where a missing profile leaves the
    table short; or an array of shape (n, |X_0|, ..., |X_{n-1}|) whose entry
    (i, a_0, ..., a_{n-1}) is agent i's payoff at profile (a_0, ..., a_{n-1}).
    Either becomes the flat table `StrategicGame.from_tables` takes."""
    flat = {}
    for sig, table in tables.items():
        if isinstance(table, dict):
            flat[sig] = [v for p in itertools.product(*actions)
                         for v in table.get(p, ())]
        else:
            flat[sig] = np.moveaxis(np.asarray(table, dtype=float), 0, -1) \
                .ravel().tolist()
    return StrategicGame.from_tables(actions, flat)


class Recorder:
    """Records what a learning run does not keep.

    `run_dynamics` keeps each agent's policy and estimate for the last step
    only, and `run_two_timescale` keeps no epoch's `Trace`. The recorder
    wraps `step_payoff_estimate` and `step_policy`, which every update of
    every agent calls once per step, in agent order, so their results, in
    call order, are each step's estimates and policies. It also wraps
    `run_dynamics`, which `coordination` reads from `learning` at call time,
    so `traces` holds every epoch's `Trace` in order.
    """

    def __init__(self, monkeypatch):
        self.estimates, self.policies, self.traces = [], [], []
        for module, name, into in ((learning, "step_payoff_estimate", self.estimates),
                                   (learning, "step_policy", self.policies),
                                   (learning, "run_dynamics", self.traces)):
            monkeypatch.setattr(module, name, self._keep(getattr(module, name), into))

    @staticmethod
    def _keep(fn, into):
        def kept(*args, **kwargs):
            out = fn(*args, **kwargs)
            into.append(out)
            return out
        return kept

    def histories(self, trace):
        """Per agent, the (horizon x k) policies and the (horizon x k)
        estimates after each step of `trace`'s run. Runs are taken in the
        order they ran, so call this once per run, in that order."""
        horizon, n = trace.actions.shape
        out = []
        for kept in (self.policies, self.estimates):
            steps = kept[:horizon * n]
            del kept[:horizon * n]
            out.append([np.array(steps[i::n]) for i in range(n)])
        return tuple(out)


@pytest.fixture
def recorder(monkeypatch):
    return Recorder(monkeypatch)
