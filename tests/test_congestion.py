"""Routing game tests.

Equilibrium and optimum assignments are cross-checked against grid searches
over the path-flow simplex (coarse scan plus local refinement), computed here
from hardcoded path-edge incidence so nothing is shared with the library's
path enumeration or descent.
"""

import numpy as np
import pytest

from stgames.congestion import (BraessReport, CongestionNetwork, Edge,
                                braess_delta, enumerate_paths,
                                marginal_cost_tolls, price_of_anarchy,
                                system_optimum, wardrop_equilibrium)
from stgames import congestion
from stgames.errors import CapacityError, ComputationError

PIGOU = CongestionNetwork.of(
    [("o", "d", 1.0, 0.0), ("o", "d", 0.0, 1.0)], "o", "d", 1.0)

BRAESS = CongestionNetwork.of(
    [("o", "a", 0.0, 1.0), ("a", "d", 1.0, 0.0),
     ("o", "b", 1.0, 0.0), ("b", "d", 0.0, 1.0)], "o", "d", 1.0)

SHORTCUT = Edge("a", "b", 0.0, 0.0)

# path-edge incidence, hardcoded per fixture
PIGOU_INC = np.asarray([[1.0, 0.0], [0.0, 1.0]])
BRAESS_INC = np.asarray([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
BRAESS_AUG_INC = np.asarray(
    [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [1, 0, 0, 1, 1]], dtype=float)


def solve(solver, network):
    """`wardrop_equilibrium` or `system_optimum` of `network`, over its
    enumerated paths."""
    return solver(network, enumerate_paths(network))


def _coeffs(network):
    return (np.asarray([e.a for e in network.edges]),
            np.asarray([e.b for e in network.edges]))


def _per_unit(edge_flows, a, b, demand):
    return float(edge_flows @ (a + b * edge_flows)) / demand


def grid_cost_two_paths(inc, a, b, demand, potential):
    """Minimize over one split variable; two-stage scan."""
    def value(x):
        f = np.outer(x, inc[0]) + np.outer(demand - x, inc[1])
        if potential:
            obj = f @ a + 0.5 * (f * f) @ b
        else:
            obj = f @ a + (f * f) @ b
        return f, obj

    x = np.linspace(0.0, demand, 100001)
    f, obj = value(x)
    i = int(np.argmin(obj))
    lo, hi = x[max(i - 2, 0)], x[min(i + 2, len(x) - 1)]
    x = np.linspace(lo, hi, 40001)
    f, obj = value(x)
    j = int(np.argmin(obj))
    return _per_unit(f[j], a, b, demand)


def grid_cost_three_paths(inc, a, b, demand, potential, step=1e-3):
    def scan(x1_vals, x2_vals):
        x1, x2 = np.meshgrid(x1_vals, x2_vals, indexing="ij")
        keep = (x1 + x2) <= demand + 1e-12
        x1, x2 = x1[keep], x2[keep]
        xs = np.column_stack([x1, x2, demand - x1 - x2])
        f = xs @ inc
        if potential:
            obj = f @ a + 0.5 * (f * f) @ b
        else:
            obj = f @ a + (f * f) @ b
        k = int(np.argmin(obj))
        return xs[k], f[k]

    grid = np.arange(0.0, demand + step / 2, step)
    best, _ = scan(grid, grid)
    fine = 2e-5
    lo1, hi1 = max(best[0] - 2 * step, 0.0), min(best[0] + 2 * step, demand)
    lo2, hi2 = max(best[1] - 2 * step, 0.0), min(best[1] + 2 * step, demand)
    _, f = scan(np.arange(lo1, hi1 + fine / 2, fine),
                np.arange(lo2, hi2 + fine / 2, fine))
    return _per_unit(f, a, b, demand)


def test_pigou_equilibrium_all_on_variable_link():
    eq = solve(wardrop_equilibrium, PIGOU)
    assert eq.edge_flows == pytest.approx([0.0, 1.0], abs=1e-6)
    assert eq.per_unit_cost == pytest.approx(1.0, abs=1e-6)
    assert eq.gap <= 1e-6

    so = solve(system_optimum, PIGOU)
    assert so.edge_flows == pytest.approx([0.5, 0.5], abs=1e-6)
    assert so.total_cost == pytest.approx(0.75, abs=1e-6)


def test_pigou_price_of_anarchy():
    rep = price_of_anarchy(solve(wardrop_equilibrium, PIGOU),
                           solve(system_optimum, PIGOU))
    assert rep.defined
    assert rep.ratio == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_pigou_matches_grid():
    a, b = _coeffs(PIGOU)
    eq_grid = grid_cost_two_paths(PIGOU_INC, a, b, 1.0, potential=True)
    so_grid = grid_cost_two_paths(PIGOU_INC, a, b, 1.0, potential=False)
    assert solve(wardrop_equilibrium, PIGOU).per_unit_cost == pytest.approx(
        eq_grid, abs=1e-4)
    assert solve(system_optimum, PIGOU).per_unit_cost == pytest.approx(
        so_grid, abs=1e-4)


def test_braess_paradox_costs():
    rep = braess_delta(solve(wardrop_equilibrium, BRAESS),
                       solve(wardrop_equilibrium, BRAESS.with_edge(SHORTCUT)))
    assert rep.base_per_unit_cost == pytest.approx(1.5, abs=1e-6)
    assert rep.augmented_per_unit_cost == pytest.approx(2.0, abs=1e-6)
    assert rep.delta == pytest.approx(0.5, abs=1e-6)
    # base splits evenly; augmented routes everyone through the shortcut
    assert rep.base.path_flows == pytest.approx([0.5, 0.5], abs=1e-6)
    aug_paths = dict(zip(rep.augmented.paths, rep.augmented.path_flows))
    assert aug_paths[(0, 4, 3)] == pytest.approx(1.0, abs=1e-6)


def test_braess_matches_grid():
    a, b = _coeffs(BRAESS)
    base_grid = grid_cost_two_paths(BRAESS_INC, a, b, 1.0, potential=True)
    rep = braess_delta(solve(wardrop_equilibrium, BRAESS),
                       solve(wardrop_equilibrium, BRAESS.with_edge(SHORTCUT)))
    assert rep.base_per_unit_cost == pytest.approx(base_grid, abs=1e-4)

    aug = BRAESS.with_edge(SHORTCUT)
    a2, b2 = _coeffs(aug)
    aug_grid = grid_cost_three_paths(BRAESS_AUG_INC, a2, b2, 1.0,
                                     potential=True)
    assert rep.augmented_per_unit_cost == pytest.approx(aug_grid, abs=1e-4)
    assert rep.delta == pytest.approx(aug_grid - base_grid, abs=2e-4)

    so_grid = grid_cost_three_paths(BRAESS_AUG_INC, a2, b2, 1.0,
                                    potential=False)
    assert solve(system_optimum, aug).per_unit_cost == pytest.approx(so_grid, abs=1e-4)


def test_tolls_restore_system_optimum():
    for network in (PIGOU, BRAESS.with_edge(SHORTCUT)):
        rep = marginal_cost_tolls(network, solve(system_optimum, network))
        assert rep.max_edge_flow_gap <= 1e-6
        assert np.max(np.abs(rep.tolled_equilibrium.edge_flows
                             - rep.system_optimum.edge_flows)) <= 1e-6

    aug = BRAESS.with_edge(SHORTCUT)
    rep = marginal_cost_tolls(aug, solve(system_optimum, aug))
    # with tolls in place the travel time drops back to the pre-shortcut 1.5
    assert rep.latency_per_unit_cost == pytest.approx(1.5, abs=1e-6)
    assert rep.tolls == pytest.approx([0.5, 0.0, 0.0, 0.5, 0.0], abs=1e-6)


def test_path_enumeration():
    assert enumerate_paths(BRAESS) == ((0, 1), (2, 3))
    assert enumerate_paths(BRAESS.with_edge(SHORTCUT)) == (
        (0, 1), (0, 4, 3), (2, 3))
    with pytest.raises(ValueError):
        enumerate_paths(CongestionNetwork.of(
            [("o", "a", 1.0, 0.0)], "o", "d", 1.0))
    # a cycle must not trap the walk
    looped = CongestionNetwork.of(
        [("o", "a", 1.0, 0.0), ("a", "o", 1.0, 0.0), ("a", "d", 1.0, 0.0)],
        "o", "d", 1.0)
    assert enumerate_paths(looped) == ((0, 2),)


def test_path_capacity():
    # parallel two-edge stages: path count doubles per stage
    edges = []
    for stage in range(6):
        u = "o" if stage == 0 else f"n{stage}"
        v = "d" if stage == 5 else f"n{stage + 1}"
        edges.append((u, v, 1.0, 0.0))
        edges.append((u, v, 2.0, 0.0))
    with pytest.raises(CapacityError):
        enumerate_paths(CongestionNetwork.of(edges, "o", "d", 1.0))


def recursive_paths(network):
    """The recursive walk `enumerate_paths` replaced, kept as its
    reference: one call per edge of the trail."""
    by_tail = {}
    for idx, e in enumerate(network.edges):
        by_tail.setdefault(e.tail, []).append(idx)
    paths = []

    def walk(node, visited, trail):
        if node == network.destination:
            paths.append(tuple(trail))
            if len(paths) > 32:
                raise CapacityError("more than 32 paths")
            return
        for idx in by_tail.get(node, ()):
            head = network.edges[idx].head
            if head in visited:
                continue
            visited.add(head)
            trail.append(idx)
            walk(head, visited, trail)
            trail.pop()
            visited.remove(head)

    walk(network.origin, {network.origin}, [])
    if not paths:
        raise ValueError("no origin-destination path exists")
    return tuple(paths)


def _outcome(enumerate_fn, network):
    try:
        return enumerate_fn(network)
    except (CapacityError, ValueError) as exc:
        return type(exc), str(exc)


def test_path_enumeration_matches_recursive_walk():
    # random digraphs with parallel edges, self-loops and cycles, from
    # pathless to over the cap
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(400):
        nodes = int(rng.integers(2, 9))
        names = ["o", "d"] + [f"n{k}" for k in range(nodes - 2)]
        edges = [(names[int(rng.integers(nodes))], names[int(rng.integers(nodes))],
                  1.0, 0.0) for _ in range(int(rng.integers(1, 5 * nodes)))]
        net = CongestionNetwork.of(edges, "o", "d", 1.0)
        want = _outcome(recursive_paths, net)
        assert _outcome(enumerate_paths, net) == want
        seen.add(want[0] if isinstance(want[0], type) else len(want) > 1)
    assert seen == {CapacityError, ValueError, True, False}


def test_pruned_walk_matches_recursive_walk_on_dead_ends():
    # dense random digraphs whose edges into d leave from at most two nodes,
    # so most branches are dead ends (some only once the trail blocks them);
    # from pathless to over the cap
    rng = np.random.default_rng(1975)
    seen = set()
    for _ in range(300):
        nodes = int(rng.integers(3, 9))
        names = ["o"] + [f"n{k}" for k in range(nodes - 2)]
        into_d = set(rng.choice(names, size=int(rng.integers(1, 3))).tolist())
        density = rng.uniform(0.2, 1.0)
        edges = [(u, v, 1.0, 0.0) for u in names for v in names + ["d"]
                 if u != v and (v != "d" or u in into_d) and rng.random() < density]
        rng.shuffle(edges)
        if not edges:
            continue
        net = CongestionNetwork.of(edges, "o", "d", 1.0)
        want = _outcome(recursive_paths, net)
        assert _outcome(enumerate_paths, net) == want
        seen.add(want[0] if isinstance(want[0], type) else len(want) > 1)
    assert seen == {CapacityError, ValueError, True, False}


def dead_end_clique(k, back_to_trail):
    """Origin o with a direct edge to d and a two-edge path o-y-d; y also
    leads into a complete digraph of k nodes, which never leads on to d, or
    leads on only back to y, a node of the trail."""
    edges = [("o", "d", 1.0, 0.0), ("o", "y", 1.0, 0.0), ("y", "d", 1.0, 0.0),
             ("y", "c0", 1.0, 0.0)]
    edges += [(f"c{i}", f"c{j}", 1.0, 0.0) for i in range(k) for j in range(k) if i != j]
    if back_to_trail:
        edges += [(f"c{i}", "y", 1.0, 0.0) for i in range(k)]
    return CongestionNetwork.of(edges, "o", "d", 1.0)


@pytest.mark.parametrize("back_to_trail", [False, True])
def test_dead_end_clique_matches_recursive_walk(back_to_trail):
    # the unpruned walk visits every simple path of the clique: 0.02 s at
    # k = 8, about k-fold more per node (the CLI test pins k = 14)
    for k in (1, 2, 6):
        net = dead_end_clique(k, back_to_trail)
        assert enumerate_paths(net) == recursive_paths(net) == ((0,), (1, 2))


def test_long_chain_enumerates_without_recursion():
    edges = [(f"n{k}", f"n{k + 1}", 1.0, 0.0) for k in range(5000)]
    chain = CongestionNetwork.of(edges + [("n0", "n5000", 9.0, 0.0)],
                                 "n0", "n5000", 1.0)
    assert enumerate_paths(chain) == (tuple(range(5000)), (5000,))


def test_input_validation():
    with pytest.raises(ValueError):
        Edge("o", "d", -1.0, 0.0)
    with pytest.raises(ValueError):
        CongestionNetwork.of([("o", "d", 1.0, 0.0)], "o", "d", 0.0)
    with pytest.raises(ValueError):
        CongestionNetwork.of([("o", "o", 1.0, 0.0)], "o", "o", 1.0)


def test_poa_undefined_on_free_network():
    free = CongestionNetwork.of([("o", "d", 0.0, 0.0)], "o", "d", 1.0)
    rep = price_of_anarchy(solve(wardrop_equilibrium, free), solve(system_optimum, free))
    assert not rep.defined
    assert rep.reason == "zero-cost optimum"


@pytest.mark.parametrize("network, what", [
    # total cost demand * latency passes the double range
    (CongestionNetwork.of(BRAESS.edges, "o", "d", 1.0e308), "the gap"),
    # each edge's latency is finite, the path's sum of two is not
    (CongestionNetwork.of([("o", "m", 0.0, 1.0e308), ("m", "d", 0.0, 1.0e308),
                           ("o", "d", 1.0, 0.0)], "o", "d", 1.5), "a path latency"),
    # latencies and gap are finite, the line search's curvature is not; its
    # step of 0 would leave all flow on the dearer link
    (CongestionNetwork.of([("o", "d", 0.0, 1.0e308), ("o", "d", 1.0, 1.0e308)],
                          "o", "d", 1.0), "the line-search curvature")])
def test_overflowing_descent_stops_at_once(monkeypatch, network, what):
    # one shift allowed: an overflow found on the first pass is reported as
    # such, after numpy's own warning, not as a descent out of shifts
    monkeypatch.setattr(congestion, "MAX_SHIFTS", 1)
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(ComputationError, match=f"overflowed: {what} is not finite"):
        solve(wardrop_equilibrium, network)


def test_returned_flows_minimize_their_objectives():
    # the equilibrium minimizes the potential a.f + b.f^2/2 and the optimum
    # minimizes total cost, so neither is beaten by any sampled feasible flow
    rng = np.random.default_rng(1618)
    nets = [PIGOU, BRAESS,
            CongestionNetwork.of(
                [("o", "a", 0.0, 1.0), ("a", "d", 1.0, 0.0),
                 ("o", "b", 1.0, 0.0), ("b", "d", 0.0, 1.0),
                 ("a", "b", 0.0, 0.0)], "o", "d", 1.0)]
    for _ in range(5):
        k = int(rng.integers(2, 5))
        edges = [("o", "d", float(rng.uniform(0, 2)), float(rng.uniform(0.1, 2)))
                 for _ in range(k)]
        nets.append(CongestionNetwork.of(edges, "o", "d",
                                         float(rng.uniform(0.5, 3.0))))
    for net in nets:
        a, b = _coeffs(net)
        eq = solve(wardrop_equilibrium, net)
        so = solve(system_optimum, net)
        inc = np.zeros((len(eq.paths), len(net.edges)))
        for p, path in enumerate(eq.paths):
            for e in path:
                inc[p, e] += 1.0

        def potential(h):
            f = inc.T @ h
            return float(f @ a + 0.5 * (f * f) @ b)

        def cost(h):
            f = inc.T @ h
            return float(f @ (a + b * f))

        pot_eq = potential(eq.path_flows)
        cost_so = cost(so.path_flows)
        samples = rng.dirichlet(np.ones(len(eq.paths)), size=200) * net.demand
        for h in samples:
            assert pot_eq <= potential(h) + 1e-9
            assert cost_so <= cost(h) + 1e-9


def test_random_parallel_links():
    rng = np.random.default_rng(4242)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        edges = [("o", "d", float(rng.uniform(0, 2)), float(rng.uniform(0.1, 2)))
                 for _ in range(k)]
        demand = float(rng.uniform(0.5, 3.0))
        net = CongestionNetwork.of(edges, "o", "d", demand)
        eq = solve(wardrop_equilibrium, net)
        so = solve(system_optimum, net)
        assert so.total_cost <= eq.total_cost + 1e-9
        assert eq.gap <= 1e-6
        assert float(eq.path_flows.sum()) == pytest.approx(demand, abs=1e-9)
        # all used links share a common latency at equilibrium
        a, b = _coeffs(net)
        lat = a + b * eq.edge_flows
        used = lat[eq.edge_flows > 1e-6]
        if len(used) > 1:
            assert np.ptp(used) <= 1e-5
        rep = marginal_cost_tolls(net, so)
        assert rep.max_edge_flow_gap <= 1e-5
