"""Nonatomic congestion on single-commodity networks with affine latencies.

Edge e carries latency a_e + b_e * flow (a, b >= 0). One origin, one
destination, positive scalar demand, paths enumerated by deterministic DFS
in edge-declaration order. Costs are minimized in this module; every result
record says so explicitly.

Equilibrium and optimum both come from the same pairwise flow-shift descent:
the equilibrium minimizes the potential sum_e (a_e f_e + b_e f_e^2 / 2), the
system optimum minimizes total cost, which equals the potential of the
network with slopes doubled.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._np import np

from .errors import CapacityError, ComputationError

MAX_PATHS = 32
GAP_TOL = 1e-9
USED_TOL = 1e-12
MAX_SHIFTS = 500_000


class Edge:
    __slots__ = ("tail", "head", "a", "b")

    def __init__(self, tail: str, head: str, a: float, b: float):
        self.tail = tail
        self.head = head
        self.a = a      # free-flow latency
        self.b = b      # latency slope per unit flow
        if a < 0 or b < 0:
            raise ValueError("latency coefficients must be >= 0: Edge("
                             f"tail={tail!r}, head={head!r}, a={a!r}, b={b!r})")


class CongestionNetwork:
    __slots__ = ("edges", "origin", "destination", "demand")

    def __init__(self, edges: tuple, origin: str, destination: str,
                 demand: float):
        self.edges = edges
        self.origin = origin
        self.destination = destination
        self.demand = demand
        if demand <= 0:
            raise ValueError(f"demand must be positive, got {demand}")
        if origin == destination:
            raise ValueError("origin and destination must differ")

    @staticmethod
    def of(edges, origin, destination, demand) -> "CongestionNetwork":
        return CongestionNetwork(tuple(Edge(*e) if not isinstance(e, Edge) else e
                                       for e in edges),
                                 origin, destination, float(demand))

    def with_edge(self, edge: Edge) -> "CongestionNetwork":
        return CongestionNetwork(self.edges + (edge,), self.origin,
                                 self.destination, self.demand)


def enumerate_paths(network: CongestionNetwork):
    """Acyclic origin-destination paths as edge-index tuples, DFS order.

    Neighbors are explored in edge-declaration order; more than 32 paths is a
    capacity error, zero paths a ValueError. The walk keeps its own stack,
    so a path may have any number of edges.

    The walk enters a node only if the destination can be reached from it
    without the trail's nodes (the backtracking bound of Read & Tarjan
    1975), so every branch it takes ends in a path: the work before the cap
    is at most O(MAX_PATHS * nodes * edges), and the paths come out in the
    order of the unpruned walk. Each node of the trail keeps a witness, the
    nodes of one such path onward; a head that is the next node of its
    tail's witness passes without a search, so a chain costs linear time.
    """
    edges, dest = network.edges, network.destination
    by_tail = {}
    for idx, e in enumerate(edges):
        by_tail.setdefault(e.tail, []).append(idx)
    succ = {tail: tuple(dict.fromkeys(edges[idx].head for idx in out))
            for tail, out in by_tail.items()}

    def witness(node, visited):
        """The nodes after `node` on a path to the destination that avoids
        `visited`, as (nodes, 0), or None when there is none."""
        parent, todo = {node: None}, [node]
        while todo:
            cur = todo.pop()
            for nxt in succ.get(cur, ()):
                if nxt == dest:
                    path = [nxt]
                    while cur != node:
                        path.append(cur)
                        cur = parent[cur]
                    return tuple(reversed(path)), 0
                if nxt not in parent and nxt not in visited:
                    parent[nxt] = cur
                    todo.append(nxt)
        return None

    paths, trail, visited = [], [], {network.origin}
    # per node of the trail, origin first: the out-edges still to try, and
    # its witness as (nodes, position of the next node)
    stack = [iter(by_tail.get(network.origin, ()))]
    ahead = [None]
    while stack:
        idx = next(stack[-1], None)
        if idx is None:
            stack.pop()
            ahead.pop()
            if trail:
                visited.remove(edges[trail.pop()].head)
            continue
        head = edges[idx].head
        if head == dest:
            paths.append(tuple(trail) + (idx,))
            if len(paths) > MAX_PATHS:
                raise CapacityError(f"more than {MAX_PATHS} paths")
            continue
        if head in visited:
            continue
        w = ahead[-1]
        w = (w[0], w[1] + 1) if w and w[0][w[1]] == head else witness(head, visited)
        if w is not None:
            visited.add(head)
            trail.append(idx)
            stack.append(iter(by_tail.get(head, ())))
            ahead.append(w)
    if not paths:
        raise ValueError("no origin-destination path exists")
    return tuple(paths)


class FlowAssignment(NamedTuple):
    convention: str          # always "minimize" here
    kind: str                # "equilibrium" | "system-optimum"
    paths: tuple             # edge-index tuples
    path_flows: np.ndarray
    edge_flows: np.ndarray
    path_latencies: np.ndarray   # actual latencies at these flows
    total_cost: float
    per_unit_cost: float
    gap: float               # first-order gap of the minimized objective


def _arrays(network, paths):
    """The path-edge incidence matrix (a row per path, counting repeated
    edges) and the edges' a and b vectors."""
    inc = np.zeros((len(paths), len(network.edges)))
    for p, path in enumerate(paths):
        for e in path:
            inc[p, e] += 1.0
    return (inc, np.asarray([e.a for e in network.edges]),
            np.asarray([e.b for e in network.edges]))


def _descend(inc, a_vec, b_vec, demand):
    """Minimize sum_e (a_e f_e + b_e f_e^2 / 2) over the path-flow simplex.

    Pairwise shifts from the costliest used path to the cheapest path with
    exact line search; terminates when the total gap is below 1e-9 and every
    used path is within 5e-8 of the cheapest. Returns the path flows. The
    flows stay within the demand, but a latency, the gap or the line search's
    curvature may overflow (a gap that is not finite never counts as
    converged); the descent then stops at once with a ComputationError that
    names which.
    """
    h = np.zeros(inc.shape[0])
    h[0] = demand
    for it in range(MAX_SHIFTS):
        f = inc.T @ h
        lat = inc @ (a_vec + b_vec * f)
        p_min = int(np.argmin(lat))
        used = h > USED_TOL
        lat_used = np.where(used, lat, -np.inf)
        p_max = int(np.argmax(lat_used))
        gap = float(h @ lat - demand * lat[p_min])
        worst = float(lat[p_max] - lat[p_min])
        if gap < GAP_TOL and worst <= 5e-8:
            return h
        diff = inc[p_max] - inc[p_min]
        denom = float(b_vec @ (diff * diff))
        if not math.isfinite(gap + denom):
            what = ("a path latency" if not np.isfinite(lat).all() else
                    "the gap" if not math.isfinite(gap) else "the line-search curvature")
            raise ComputationError(f"flow-shift descent overflowed: {what} is not finite")
        if denom > 0:
            t = min(h[p_max], worst / denom)
        else:
            t = h[p_max]
        if t <= 0:
            return h
        h[p_max] -= t
        h[p_min] += t
    raise ComputationError("flow-shift descent did not converge")


def _assignment(network, paths, kind, slope):
    """The flow assignment at the minimum of the descent run with the given
    slope multiplier (1: equilibrium, 2: system optimum)."""
    inc, a_vec, b_vec = _arrays(network, paths)
    h = _descend(inc, a_vec, slope * b_vec, network.demand)
    f = inc.T @ h
    lat = inc @ (a_vec + b_vec * f)
    total = float(f @ (a_vec + b_vec * f))
    gap = float(h @ lat - network.demand * lat.min())
    return FlowAssignment("minimize", kind, paths, h, f, lat, total,
                          total / network.demand, gap)


def wardrop_equilibrium(network: CongestionNetwork, paths) -> FlowAssignment:
    """User equilibrium over `paths`, the network's `enumerate_paths`:
    every used path has minimal latency (within 1e-7)."""
    return _assignment(network, paths, "equilibrium", 1.0)


def system_optimum(network: CongestionNetwork, paths) -> FlowAssignment:
    """Total-cost minimizer over `paths`, the network's `enumerate_paths`;
    the descent runs on marginal costs a + 2 b f."""
    return _assignment(network, paths, "system-optimum", 2.0)


class PoaReport(NamedTuple):
    defined: bool
    ratio: float | None
    equilibrium_cost: float
    optimal_cost: float
    reason: str = ""


def price_of_anarchy(eq: FlowAssignment, so: FlowAssignment) -> PoaReport:
    """Total cost of the Wardrop equilibrium `eq` over that of the system
    optimum `so`, both assignments of one network."""
    if so.total_cost <= 1e-12:
        return PoaReport(False, None, eq.total_cost, so.total_cost,
                         "zero-cost optimum")
    ratio = eq.total_cost / so.total_cost
    if ratio < 1.0 - 1e-9:
        raise ComputationError(
            f"equilibrium cheaper than optimum ({ratio}); solver inconsistency")
    return PoaReport(True, ratio, eq.total_cost, so.total_cost)


class BraessReport(NamedTuple):
    base_per_unit_cost: float
    augmented_per_unit_cost: float
    delta: float                     # augmented - base; positive = paradox
    base: FlowAssignment
    augmented: FlowAssignment


def braess_delta(base: FlowAssignment, augmented: FlowAssignment) -> BraessReport:
    """Equilibrium cost change from adding one edge, from the Wardrop
    equilibria of the network without it (`base`) and with it."""
    return BraessReport(base.per_unit_cost, augmented.per_unit_cost,
                        augmented.per_unit_cost - base.per_unit_cost,
                        base, augmented)


class TollReport(NamedTuple):
    tolls: np.ndarray                # per edge: b_e * optimal flow
    tolled_equilibrium: FlowAssignment
    system_optimum: FlowAssignment
    max_edge_flow_gap: float         # tolled equilibrium vs optimum flows
    latency_cost: float              # tolled flows priced at latency only
    latency_per_unit_cost: float


def marginal_cost_tolls(network: CongestionNetwork, so: FlowAssignment) -> TollReport:
    """Tolls b_e * f_e* that make the system optimum `so` of `network` an equilibrium.

    The tolled network adds each toll to the edge's free-flow latency, so it
    has the same edges in the same order and its equilibrium runs over the
    paths of `so`. The report carries the largest edge-flow deviation of the
    tolled equilibrium from the system optimum, and the tolled flows
    re-priced at latency alone (tolls are transfers, not travel time).
    """
    _, a_vec, b_vec = _arrays(network, ())
    tolls = b_vec * so.edge_flows
    tolled = CongestionNetwork(
        tuple(Edge(e.tail, e.head, e.a + t, e.b) for e, t in zip(network.edges, tolls)),
        network.origin, network.destination, network.demand)
    eq = wardrop_equilibrium(tolled, so.paths)
    gap = float(np.max(np.abs(eq.edge_flows - so.edge_flows)))
    latency_cost = float(eq.edge_flows @ (a_vec + b_vec * eq.edge_flows))
    return TollReport(tolls, eq, so, gap, latency_cost,
                      latency_cost / network.demand)
