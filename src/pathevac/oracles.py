"""Exact reference solvers, used at small scale to certify the fast path.

Three independent routes: a subset DP for the packing problem, a memoized
state search over the path network, sending only inclusion-maximal
departures, for the evacuation problem, and a min-cost-flow solver for the
fractional relaxation. None of them share logic with the greedy solvers
they certify.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from . import kernels
from .model import Packing, PackingInstance, PathInstance, Schedule


class OracleBudgetExceeded(Exception):
    """The instance is outside the exhaustive-search budget."""


def horizon_bound(inst: PackingInstance) -> int:
    """A bin horizon guaranteed to contain some optimal packing.

    max ready + item count suffices: at most m bins are non-empty, so among
    the m + 1 bin indices from max ready to the bound one is empty, and any
    packing reaching past the bound can shift its latest bin down into it.
    """
    if not inst.ids:
        return 0
    return max(inst.ready) + len(inst.ids)


def exact_packing_opt(inst: PackingInstance) -> tuple[int, Packing]:
    """Exact optimum of the ready-time packing problem, with a witness.

    Searches bins 1..horizon_bound(inst), which contain some optimum.
    """
    m = len(inst.ids)
    if m > 15:
        raise OracleBudgetExceeded(f"{m} items exceeds the 15-item budget")
    if m == 0:
        return 0, Packing(bins={})
    t_max = horizon_bound(inst)
    if t_max > 64:
        raise OracleBudgetExceeded(f"horizon {t_max} exceeds the 64-bin budget")
    value, assignment = kernels.solve_packing_dp(
        inst.sizes, inst.weights, inst.ready, inst.capacity, t_max)
    bins: dict[int, list[str]] = {}
    for iid, b in zip(inst.ids, assignment):
        bins.setdefault(b, []).append(iid)
    return value, Packing(bins={b: tuple(bins[b]) for b in sorted(bins)})


# ---------------------------------------------------------------------------
# exact evacuation optimum

def _required_epochs(inst: PathInstance) -> int:
    """Epoch horizon guaranteed to contain an optimal evacuation."""
    a = inst.facility
    # pos[v]: the distance from node 1 to node v
    pos = [0, *itertools.accumulate(inst.distances, initial=0)]
    req = 0
    for lo, hi, near, edge in ((1, a - 1, a - 1, a - 1),
                               (a + 1, inst.nodes, a + 1, a)):
        side = [v for v in inst.origins if lo <= v <= hi]
        if not side:
            continue
        taus = [abs(pos[v] - pos[near]) + 1 for v in side]
        req = max(req, max(taus) + len(side) + inst.distance(edge) - 1)
    return req


def exact_dwsf_opt(inst: PathInstance) -> tuple[int, Schedule]:
    """Exact minsum evacuation optimum with a witness schedule.

    One search, `_state_search`, for every shape, under two budgets: up to
    12 groups when all of them sit on one node adjacent to the facility,
    otherwise up to 5 groups on up to 4 nodes within a 12-epoch horizon.
    The horizon is `_required_epochs`, derived from the instance. A group
    larger than an edge it must cross raises `ValueError`.
    """
    a = inst.facility
    # the groups off the facility, as positions in the group columns
    off = [k for k, v in enumerate(inst.origins) if v != a]
    if not off:
        return 0, Schedule.from_rows(())
    origins = {inst.origins[k] for k in off}
    if len(origins) == 1 and abs(next(iter(origins)) - a) == 1:
        if len(off) > 12:
            raise OracleBudgetExceeded(f"{len(off)} groups exceeds the "
                                       "12-group single-origin budget")
    elif len(off) > 5 or inst.nodes > 4:
        raise OracleBudgetExceeded(f"{len(off)} groups on {inst.nodes} nodes "
                                   "exceeds the 5-group/4-node budget")
    elif (horizon := _required_epochs(inst)) > 12:
        raise OracleBudgetExceeded(f"horizon {horizon} exceeds the "
                                   "12-epoch budget")
    return _state_search(inst, off)


def _maximal_departures(idxs: list[int], sizes: list[int], cap: int) \
        -> list[tuple[int, ...]]:
    """The inclusion-maximal subsets of `idxs` whose sizes fit in `cap`.

    Listed depth first, a subset that takes an earlier group before one
    that leaves it out. `()` alone means no group fits.
    """
    found = []
    # next position, groups taken, their load, smallest size left out
    stack = [(0, (), 0, cap + 1)]
    while stack:
        pos, taken, load, least_out = stack.pop()
        if pos == len(idxs):
            if load + least_out > cap:  # nothing left out still fits
                found.append(taken)
            continue
        i = idxs[pos]
        stack.append((pos + 1, taken, load, min(least_out, sizes[i])))
        if load + sizes[i] <= cap:
            stack.append((pos + 1, (*taken, i), load + sizes[i], least_out))
    return found


def _state_search(inst: PathInstance, off) -> tuple[int, Schedule]:
    """Memoized value iteration over the positions of the groups `off`.

    A position (node, k) is a group that joins that node's occupancy in k
    epochs; k = 0 means it is there. Each epoch sends, from each node, an
    inclusion-maximal set of its present groups that fits the node's edge
    toward the facility; the cost of an epoch is the total weight not yet
    at the facility. A group sent into the facility over an edge of length
    d is placed there at once, and its d - 1 epochs in transit are charged
    in that step. Groups only move toward the facility, so the state graph
    is acyclic.

    Maximal departures lose no optimum. If a group fits a departure it is
    not in, it can leave then instead of later: it lands earlier, keeps
    its later departures from the next node, frees room in the departure
    it left, and delays nothing, since nodes have no capacity. Each such
    exchange lowers the sum of departure times, so repeating it turns an
    optimal schedule into one whose every departure is maximal.
    """
    a = inst.facility
    weights = [inst.weights[k] for k in off]
    sizes = [inst.sizes[k] for k in off]
    done = (a, 0)
    init = tuple((inst.origins[k], 0) for k in off)

    memo: dict[tuple, int] = {}
    choice: dict[tuple, tuple[tuple, tuple]] = {}  # departures, next state

    def value(state: tuple) -> int:
        got = memo.get(state)
        if got is not None:
            return got
        w_rem = sum(w for w, p in zip(weights, state) if p != done)
        if w_rem == 0:
            memo[state] = 0
            return 0
        if len(memo) > 2_000_000:
            raise OracleBudgetExceeded("state space over 2e6 states")
        waiting = tuple((v, k - 1) if k else (v, k) for v, k in state)
        at_node: dict[int, list[int]] = {}
        for i, (v, k) in enumerate(state):
            if not k and v != a:
                at_node.setdefault(v, []).append(i)
        node_options = []
        for v, idxs in sorted(at_node.items()):
            edge = v if v < a else v - 1
            subs = _maximal_departures(idxs, sizes, inst.edge_capacity(edge))
            if subs == [()]:
                continue  # every group here is larger than the edge
            d = inst.distance(edge)
            u = v + 1 if v < a else v - 1
            landing, delay = (done, d - 1) if u == a else ((u, d - 1), 0)
            node_options.append([
                (v, chosen, landing, delay * sum(weights[i] for i in chosen))
                for chosen in subs])
        if not node_options and waiting == state:
            raise ValueError("no feasible departure from a blocked state")
        best = None
        for combo in itertools.product(*node_options):
            nxt = list(waiting)
            cost = w_rem
            for (_, chosen, landing, charge) in combo:
                cost += charge
                for i in chosen:
                    nxt[i] = landing
            after = tuple(nxt)
            val = cost + value(after)
            if best is None or val < best:
                best = val
                choice[state] = (combo, after)
        memo[state] = best
        return best

    try:
        total = value(init)
    finally:
        del value   # it refers to itself through its cell
    # t ascends, and a combo holds its nodes in ascending order, so the
    # rows come in (time, node) order
    rows = []
    state = init
    t = 1
    while state in choice:  # until every group is at the facility
        combo, state = choice[state]
        for (v, chosen, _, _) in combo:
            rows.append((t, v, tuple(inst.ids[off[i]] for i in chosen)))
        t += 1
    return total, Schedule.from_rows(rows)


# ---------------------------------------------------------------------------
# exact fractional optimum (independent route: min-cost flow)

def _min_cost_flow(nodes: int, arcs, s: int, t: int, need: int) \
        -> tuple[int, int]:
    """Successive shortest augmenting paths with Dijkstra and potentials.

    Each (u, v, capacity, cost) in `arcs` becomes arc e = 2k and its
    reverse e ^ 1. Arc e runs to head[e] with residual capacity cap[e] at
    cost[e], and adj[u] lists the arcs leaving u in the order they came.
    """
    adj: list[list[int]] = [[] for _ in range(nodes)]
    head, cap, cost = [], [], []
    for u, v, c, w in arcs:
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head += (v, u)
        cap += (c, 0)
        cost += (w, -w)
    potential = [0] * nodes
    flow = 0
    total = 0
    while flow < need:
        dist: list[int | None] = [None] * nodes
        prev = [0] * nodes
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            du = d + potential[u]
            for e in adj[u]:
                if cap[e] <= 0:
                    continue
                v = head[e]
                nd = du + cost[e] - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    prev[v] = e
                    heapq.heappush(heap, (nd, v))
        if dist[t] is None:
            break  # no augmenting path left
        for u in range(nodes):
            if dist[u] is not None:
                potential[u] += dist[u]
        push = need - flow
        v = t
        while v != s:
            push = min(push, cap[prev[v]])
            v = head[prev[v] ^ 1]
        v = t
        while v != s:
            e = prev[v]
            cap[e] -= push
            cap[e ^ 1] += push
            total += push * cost[e]
            v = head[e ^ 1]
        flow += push
    return flow, total


def exact_fractional_opt_mcf(inst: PackingInstance) -> Fraction:
    """Exact fractional optimum via a transportation network.

    Bins run from the smallest ready time to max ready + ceil(total size /
    capacity): no item may enter a bin below every ready time, and from the
    last ready time on, that many bins hold all the mass. Unit-mass costs
    j * weight / size are scaled by lcm(sizes) to keep the flow arithmetic
    in integers; the result is the exact rational optimum (the
    transportation polytope has integral vertices, so the flow optimum
    equals the linear-program optimum).
    """
    sizes = inst.sizes
    m = len(sizes)
    if m == 0:
        return Fraction(0)
    mass = sum(sizes)
    t_max = max(inst.ready) + -(-mass // inst.capacity)  # ceil division
    if m * t_max > 500_000:
        raise OracleBudgetExceeded(f"{m} items x {t_max} bins exceeds the "
                                   "flow-network budget")
    scale = math.lcm(*sizes)
    first = min(inst.ready)
    bin_node = m + 1 - first  # node of bin j is bin_node + j
    s = 0
    sink = bin_node + t_max + 1
    arcs = []
    for i, (size, weight, ready) in enumerate(zip(sizes, inst.weights,
                                                  inst.ready)):
        arcs.append((s, 1 + i, size, 0))
        unit = weight * (scale // size)
        arcs.extend((1 + i, bin_node + j, size, j * unit)
                    for j in range(ready, t_max + 1))
    arcs.extend((bin_node + j, sink, inst.capacity, 0)
                for j in range(first, t_max + 1))
    flow, cost = _min_cost_flow(sink + 1, arcs, s, sink, mass)
    if flow != mass:
        raise ValueError("transportation network failed to route all mass")
    return Fraction(cost, scale)
