"""The exact evacuation oracle's two searches, kept as a test-only reference.

These are `pathevac.oracles._single_origin_opt` and `_state_search` as they
were when the oracle ran two searches: the first over masks of
inclusion-maximal departures, for groups on one node next to the facility,
and the second over every capacity-feasible subset at every node in every
epoch, for every other shape. They are deliberately left as they were, so
the differential tests can require the same optimum from the one search
that replaced them. Both take the instance and its groups off the facility.
"""

from __future__ import annotations

import itertools

from pathevac import PathInstance, Schedule
from pathevac.oracles import OracleBudgetExceeded


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
