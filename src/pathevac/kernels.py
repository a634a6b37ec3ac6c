"""Subset-DP kernel for the exact packing oracle.

State: f[j][mask] is the cheapest way to pack exactly the items of `mask`
into bins 1..j. Bin j receives a capacity-feasible subset of the items
ready by j; enumerating submasks keeps the whole table at 3^m work per
bin. Pure Python: the oracle's 15-item budget keeps it small.
"""

from __future__ import annotations

_INF = 1 << 62


def solve_packing_dp(sizes, weights, ready, capacity, horizon):
    """Exact min weighted-bin-index packing.

    Returns (value, assignment) where assignment[i] is the 1-based bin of
    item i. Raises ValueError if no packing exists within the horizon.
    """
    m = len(sizes)
    if m == 0:
        return 0, []
    if any(s > capacity for s in sizes):
        raise ValueError("item larger than the bin capacity")
    full = (1 << m) - 1
    size_sum = [0] * (full + 1)
    weight_sum = [0] * (full + 1)
    for mask in range(1, full + 1):
        lsb = mask & -mask
        i = lsb.bit_length() - 1
        size_sum[mask] = size_sum[mask ^ lsb] + sizes[i]
        weight_sum[mask] = weight_sum[mask ^ lsb] + weights[i]
    fits = [size_sum[mask] <= capacity for mask in range(full + 1)]

    ready_masks = [0] * (horizon + 1)
    for j in range(1, horizon + 1):
        rm = 0
        for i in range(m):
            if ready[i] <= j:
                rm |= 1 << i
        ready_masks[j] = rm

    f_prev = [_INF] * (full + 1)
    f_prev[0] = 0
    choices = []  # choices[j-1][mask]: submask added at bin j, 0 = inherited
    for j in range(1, horizon + 1):
        f_cur = f_prev.copy()
        choice = [0] * (full + 1)
        rm = ready_masks[j]
        for packed in range(full + 1):
            base = f_prev[packed]
            if base >= _INF:
                continue
            avail = (full ^ packed) & rm
            s = avail
            while s:
                if fits[s]:
                    cand = base + j * weight_sum[s]
                    tgt = packed | s
                    if cand < f_cur[tgt]:
                        f_cur[tgt] = cand
                        choice[tgt] = s
                s = (s - 1) & avail
        choices.append(choice)
        f_prev = f_cur

    if f_prev[full] >= _INF:
        raise ValueError(f"no feasible packing within horizon {horizon}")
    assignment = [0] * m
    mask = full
    j = horizon
    while mask:
        if j == 0:
            raise AssertionError("backtrack ran past bin 1")
        s = choices[j - 1][mask]
        mask ^= s
        while s:
            lsb = s & -s
            assignment[lsb.bit_length() - 1] = j
            s ^= lsb
        j -= 1
    return f_prev[full], assignment


def backend() -> str:
    """Label of the kernel implementation, as reported in benchmark runs."""
    return "pure"
