"""Shared fixtures."""

import numpy as np
import pytest

from stgames import learning


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
