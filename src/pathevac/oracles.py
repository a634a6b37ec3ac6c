"""Exact reference solvers, used at small scale to certify the fast path.

Three independent routes: a subset DP for the packing problem, a memoized
state search over the path network for the evacuation problem, and a
min-cost-flow solver for the fractional relaxation. None of them share
logic with the greedy solvers they certify.
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
    if not inst.items:
        return 0
    return max(it.ready for it in inst.items) + len(inst.items)


def exact_packing_opt(inst: PackingInstance) -> tuple[int, Packing]:
    """Exact optimum of the ready-time packing problem, with a witness.

    Searches bins 1..horizon_bound(inst), which contain some optimum.
    """
    m = len(inst.items)
    if m > 15:
        raise OracleBudgetExceeded(f"{m} items exceeds the 15-item budget")
    if m == 0:
        return 0, Packing(bins={})
    t_max = horizon_bound(inst)
    if t_max > 64:
        raise OracleBudgetExceeded(f"horizon {t_max} exceeds the 64-bin budget")
    value, assignment = kernels.solve_packing_dp(
        [it.size for it in inst.items],
        [it.weight for it in inst.items],
        [it.ready for it in inst.items],
        inst.capacity, t_max)
    bins: dict[int, list[str]] = {}
    for it, b in zip(inst.items, assignment):
        bins.setdefault(b, []).append(it.id)
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
        side = [g for g in inst.groups if lo <= g.node <= hi]
        if not side:
            continue
        taus = [abs(pos[g.node] - pos[near]) + 1 for g in side]
        req = max(req, max(taus) + len(side) + inst.distance(edge) - 1)
    return req


def exact_dwsf_opt(inst: PathInstance) -> tuple[int, Schedule]:
    """Exact minsum evacuation optimum with a witness schedule.

    Exhaustive-search budgets: up to 12 groups when all of them sit on one
    node adjacent to the facility, otherwise up to 5 groups on up to 4
    nodes within a 12-epoch horizon. The horizon is `_required_epochs`,
    derived from the instance.
    """
    a = inst.facility
    off = [g for g in inst.groups if g.node != a]
    if not off:
        return 0, Schedule(moves=())
    origins = {g.node for g in off}
    if len(origins) == 1 and abs(next(iter(origins)) - a) == 1:
        if len(off) > 12:
            raise OracleBudgetExceeded(f"{len(off)} groups exceeds the "
                                       "12-group single-origin budget")
        return _single_origin_opt(inst, off)
    if len(off) > 5 or inst.nodes > 4:
        raise OracleBudgetExceeded(f"{len(off)} groups on {inst.nodes} nodes "
                                   "exceeds the 5-group/4-node budget")
    horizon = _required_epochs(inst)
    if horizon > 12:
        raise OracleBudgetExceeded(f"horizon {horizon} exceeds the "
                                   "12-epoch budget")
    return _state_search(inst, off)


def _single_origin_opt(inst: PathInstance, off) -> tuple[int, Schedule]:
    """All groups on one node next to the facility.

    Every optimal schedule uses inclusion-maximal departure sets here:
    moving a group that fits into an earlier departure lowers its arrival
    and changes nothing else. So the search runs over remaining-set masks
    with maximal feasible departures only, at 3^m total work.
    """
    v = off[0].node
    a = inst.facility
    edge = v if v < a else v - 1
    cap = inst.edge_capacity(edge)
    d = inst.distance(edge)
    sizes = [g.size for g in off]
    weights = [g.weight for g in off]
    if any(s > cap for s in sizes):
        raise ValueError("group larger than the edge capacity")
    m = len(off)
    full = (1 << m) - 1
    wsum = [0] * (full + 1)
    for mask in range(1, full + 1):
        lsb = mask & -mask
        wsum[mask] = wsum[mask ^ lsb] + weights[lsb.bit_length() - 1]

    memo = {0: 0}
    choice: dict[int, int] = {}
    big = 1 << 62

    def value(rem: int) -> int:
        got = memo.get(rem)
        if got is not None:
            return got
        idxs = []
        r = rem
        while r:
            lsb = r & -r
            idxs.append(lsb.bit_length() - 1)
            r ^= lsb
        best = None
        best_mask = 0

        def dfs(pos: int, mask: int, load: int, min_excluded: int) -> None:
            nonlocal best, best_mask
            if pos == len(idxs):
                if load + min_excluded > cap:  # nothing excluded still fits
                    val = wsum[rem] + value(rem ^ mask)
                    if best is None or val < best:
                        best = val
                        best_mask = mask
                return
            i = idxs[pos]
            if load + sizes[i] <= cap:
                dfs(pos + 1, mask | (1 << i), load + sizes[i], min_excluded)
            dfs(pos + 1, mask, load, min(min_excluded, sizes[i]))

        try:
            dfs(0, 0, 0, big)
        finally:
            del dfs     # it refers to itself through its cell
        assert best is not None and best_mask  # sizes <= cap guarantees both
        memo[rem] = best
        choice[rem] = best_mask
        return best

    try:
        total = value(full) + (d - 1) * sum(weights)
    finally:
        del value   # it refers to itself through its cell
    moves: dict[tuple[int, int], tuple[str, ...]] = {}
    rem = full
    t = 1
    while rem:
        mask = choice[rem]
        ids = []
        r = mask
        while r:
            lsb = r & -r
            ids.append(off[lsb.bit_length() - 1].id)
            r ^= lsb
        moves[(t, v)] = tuple(ids)
        rem ^= mask
        t += 1
    return total, Schedule.from_map(moves)


def _state_search(inst: PathInstance, off) -> tuple[int, Schedule]:
    """Memoized value iteration over group positions.

    A position is either a node or an in-transit marker (landing node, k
    epochs until it joins that node's occupancy). Each epoch chooses, per
    node, a capacity-feasible subset to send toward the facility; the cost
    of an epoch is the total weight not yet at the facility. Groups only
    move toward the facility, so the state graph is acyclic.
    """
    a = inst.facility
    weights = [g.weight for g in off]
    sizes = [g.size for g in off]
    at_a = ("n", a)
    init = tuple(("n", g.node) for g in off)

    def advance(p):
        if p[0] == "t":
            u, k = p[1], p[2]
            return ("n", u) if k == 1 else ("t", u, k - 1)
        return p

    memo: dict[tuple, int] = {}
    choice: dict[tuple, tuple] = {}

    def value(state: tuple) -> int:
        got = memo.get(state)
        if got is not None:
            return got
        w_rem = sum(weights[i] for i, p in enumerate(state) if p != at_a)
        if w_rem == 0:
            memo[state] = 0
            return 0
        if len(memo) > 2_000_000:
            raise OracleBudgetExceeded("state space over 2e6 states")
        base_next = tuple(advance(p) for p in state)
        at_node: dict[int, list[int]] = {}
        for i, p in enumerate(state):
            if p[0] == "n" and p[1] != a:
                at_node.setdefault(p[1], []).append(i)
        node_options = []
        for v, idxs in sorted(at_node.items()):
            edge = v if v < a else v - 1
            cap = inst.edge_capacity(edge)
            d = inst.distance(edge)
            u = v + 1 if v < a else v - 1
            landing = ("n", u) if d == 1 else ("t", u, d - 1)
            subs = []
            for bits in range(1 << len(idxs)):
                chosen = [idxs[i] for i in range(len(idxs)) if bits >> i & 1]
                if sum(sizes[i] for i in chosen) <= cap:
                    subs.append((v, tuple(chosen), landing))
            node_options.append(subs)
        best = None
        best_combo: tuple = ()
        for combo in itertools.product(*node_options):
            if base_next == state and not any(ch for (_, ch, _) in combo):
                continue  # waiting with nothing in transit loops forever
            nxt = list(base_next)
            for (_, chosen, landing) in combo:
                for i in chosen:
                    nxt[i] = landing
            val = w_rem + value(tuple(nxt))
            if best is None or val < best:
                best = val
                best_combo = combo
        if best is None:
            raise ValueError("no feasible departure from a blocked state")
        memo[state] = best
        choice[state] = best_combo
        return best

    try:
        total = value(init)
    finally:
        del value   # it refers to itself through its cell
    moves: dict[tuple[int, int], tuple[str, ...]] = {}
    state = init
    t = 1
    while any(p != at_a for p in state):
        combo = choice[state]
        nxt = list(advance(p) for p in state)
        for (v, chosen, landing) in combo:
            if chosen:
                moves[(t, v)] = tuple(off[i].id for i in chosen)
            for i in chosen:
                nxt[i] = landing
        state = tuple(nxt)
        t += 1
    return total, Schedule.from_map(moves)


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
    items = inst.items
    m = len(items)
    if m == 0:
        return Fraction(0)
    total_size = inst.total_size
    t_max = max(it.ready for it in items) + \
        -(-total_size // inst.capacity)  # ceil division
    if m * t_max > 500_000:
        raise OracleBudgetExceeded(f"{m} items x {t_max} bins exceeds the "
                                   "flow-network budget")
    scale = math.lcm(*(it.size for it in items))
    first = min(it.ready for it in items)
    bin_node = m + 1 - first  # node of bin j is bin_node + j
    s = 0
    sink = bin_node + t_max + 1
    arcs = []
    for i, it in enumerate(items):
        arcs.append((s, 1 + i, it.size, 0))
        unit = it.weight * (scale // it.size)
        arcs.extend((1 + i, bin_node + j, it.size, j * unit)
                    for j in range(it.ready, t_max + 1))
    arcs.extend((bin_node + j, sink, inst.capacity, 0)
                for j in range(first, t_max + 1))
    flow, cost = _min_cost_flow(sink + 1, arcs, s, sink, total_size)
    if flow != total_size:
        raise ValueError("transportation network failed to route all mass")
    return Fraction(cost, scale)
