"""Evacuation on a path: side reduction, assembly, simulation, validation.

Each side of the facility funnels through its last edge (the bottleneck).
Groups on a side become packing items whose ready time is the earliest
epoch they can cross that edge (prefix distance + 1); the bin index chosen
for an item is its bottleneck crossing epoch, and walking backwards along
the route gives every intermediate departure with zero waiting.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from . import relax
from .model import (Packing, PackingInstance, PackingItem, PathInstance,
                    Schedule)
from .packing import GreedyTrace, packing_objective, solve_greedy


class NonUniformCapacityError(ValueError):
    """The solver requires one capacity shared by every edge."""


class SimulationInfeasible(ValueError):
    """A schedule broke presence, capacity, or direction rules."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class SideReduction:
    """What one side's reduction adds to its packing objective."""

    delay_cost: int    # (bottleneck distance - 1) * the side's weight sum


def _positions(inst: PathInstance) -> list[int]:
    """pos[v] is the distance from node 1 to node v (pos[0] is unused).

    One sweep of prefix sums, so the distance between nodes i and j is
    abs(pos[i] - pos[j]) in O(1).
    """
    return [0, *accumulate(inst.distances, initial=0)]


def reduce_side(inst: PathInstance, side: str) \
        -> tuple[PackingInstance, SideReduction]:
    """Turn one side of the facility into a ready-time packing instance.

    Item sizes and weights carry over; ready time is the prefix distance to
    the bottleneck's near node plus one. An empty side reduces to an empty
    instance with zero delay cost.
    """
    a = inst.facility
    if side == "left":
        groups = [g for g in inst.groups if g.node < a]
        near = a - 1
        edge = a - 1
    elif side == "right":
        groups = [g for g in inst.groups if g.node > a]
        near = a + 1
        edge = a
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not groups:
        return (PackingInstance(capacity=inst.capacity, items=()),
                SideReduction(delay_cost=0))
    pos = _positions(inst)
    items = tuple(PackingItem(id=g.id, size=g.size, weight=g.weight,
                              ready=abs(pos[g.node] - pos[near]) + 1)
                  for g in groups)
    weight_sum = sum(g.weight for g in groups)
    return (PackingInstance(capacity=inst.capacity, items=items),
            SideReduction(delay_cost=(inst.distance(edge) - 1) * weight_sum))


def fractional_lower_bound(inst: PathInstance,
                           reduced_tau: bool = False) -> Fraction:
    """Two-sided fractional lower bound on the evacuation objective.

    Sums, over the non-empty sides, `relax.fractional_bound` of the side's
    reduction (with the same `reduced_tau`) plus its delay cost.
    """
    total = Fraction(0)
    for side in ("left", "right"):
        pinst, red = reduce_side(inst, side)
        if pinst.items:
            total += relax.fractional_bound(pinst, reduced_tau) \
                + red.delay_cost
    return total


def assemble_schedule(inst: PathInstance, left: Packing | None,
                      right: Packing | None) -> Schedule:
    """Expand per-side packings into a full move list.

    An item in bin T' crosses the bottleneck at epoch T', so it departs
    node v on its route at T' minus the distance from v to the near node.
    A bin index below the item's ready time would mean a departure before
    epoch 1 and is rejected.
    """
    a = inst.facility
    by_id = inst.group_by_id()
    pos = _positions(inst)
    moves: dict[tuple[int, int], list[str]] = {}
    for side, packing in (("left", left), ("right", right)):
        if packing is None:
            continue
        near = a - 1 if side == "left" else a + 1
        for t_cross, bin_ in enumerate(packing.bins, start=1):
            for gid in bin_:
                g = by_id.get(gid)
                if g is None:
                    raise ValueError(f"packing references unknown group {gid!r}")
                route = range(g.node, near + 1) if side == "left" \
                    else range(g.node, near - 1, -1)
                for v in route:
                    t = t_cross - abs(pos[v] - pos[near])
                    if t < 1:
                        raise ValueError(
                            f"group {gid!r} in bin {t_cross} cannot reach the "
                            f"bottleneck in time (ready-time violation)")
                    moves.setdefault((t, v), []).append(gid)
    return Schedule.from_map(moves)


@dataclass(frozen=True)
class SolveReport:
    """Everything the solver produced, one side at a time."""

    schedule: Schedule
    objective: int
    left_instance: PackingInstance
    left_reduction: SideReduction
    left_packing: Packing
    left_trace: GreedyTrace
    right_instance: PackingInstance
    right_reduction: SideReduction
    right_packing: Packing
    right_trace: GreedyTrace

    def side_objective(self, side: str) -> int:
        """Packing objective plus delay cost of one side."""
        if side == "left":
            return packing_objective(self.left_packing, self.left_instance) \
                + self.left_reduction.delay_cost
        return packing_objective(self.right_packing, self.right_instance) \
            + self.right_reduction.delay_cost


def solve_report(inst: PathInstance) -> SolveReport:
    """Reduce, pack greedily, assemble, and simulate both sides."""
    if not inst.is_uniform:
        raise NonUniformCapacityError(
            "solver requires a uniform edge capacity; "
            "this instance declares per-edge overrides")
    left_inst, left_red = reduce_side(inst, "left")
    right_inst, right_red = reduce_side(inst, "right")
    left_packing, left_trace = solve_greedy(left_inst)
    right_packing, right_trace = solve_greedy(right_inst)
    schedule = assemble_schedule(inst, left_packing, right_packing)
    trace = simulate(inst, schedule)
    objective = schedule_objective(trace, inst)
    return SolveReport(
        schedule=schedule, objective=objective,
        left_instance=left_inst, left_reduction=left_red,
        left_packing=left_packing, left_trace=left_trace,
        right_instance=right_inst, right_reduction=right_red,
        right_packing=right_packing, right_trace=right_trace)


def solve(inst: PathInstance) -> tuple[Schedule, int]:
    """Solve an instance; returns the schedule and its exact objective."""
    report = solve_report(inst)
    return report.schedule, report.objective


@dataclass(frozen=True)
class SimulationTrace:
    """Occupancy and facility arrivals of a schedule walk.

    `occupancy` holds snapshots only at epoch 0 and at event epochs (epochs
    with a departure or a landing); between two events nothing moves, so
    `occupancy_at(t)` answers for any epoch from the latest snapshot.
    """

    occupancy: dict[int, dict[int, tuple[str, ...]]]  # event t -> node -> ids
    arrival_time: dict[str, int]                      # facility arrivals only
    horizon: int

    @cached_property
    def _epochs(self) -> list[int]:
        return sorted(self.occupancy)

    def occupancy_at(self, t: int) -> dict[int, tuple[str, ...]]:
        """Node -> ids at the end of epoch t: the latest snapshot at or
        before t, empty before epoch 0."""
        i = bisect_right(self._epochs, t)
        return self.occupancy[self._epochs[i - 1]] if i else {}

    def render_table(self) -> str:
        """Per-epoch occupancy table, one line per epoch."""
        nodes = sorted({v for occ in self.occupancy.values() for v in occ})
        lines = ["time  " + "  ".join(f"node {v}" for v in nodes)]
        for t in range(self.horizon + 1):
            occ = self.occupancy_at(t)
            cells = []
            for v in nodes:
                ids = occ.get(v, ())
                cells.append(",".join(ids) if ids else "-")
            lines.append(f"{t:>4}  " + "  ".join(cells))
        return "\n".join(lines)


def _walk(inst: PathInstance, sched: Schedule) \
        -> tuple[SimulationTrace, list[str]]:
    """Shared engine: run the schedule, collecting violations as they occur.

    Groups named in a bad move simply do not move, so one violation never
    cascades into spurious ones downstream. The walk jumps from one event
    epoch to the next (moves sorted once, landings in a heap), so its cost
    follows the number of moves, never the epoch values. Within an epoch,
    departures go first in node order, then landings in departure order,
    so a distance-1 hop lands in its own epoch and cannot leave again
    before the next one.
    """
    a = inst.facility
    by_id = inst.group_by_id()
    violations: list[str] = []
    moves: dict[tuple[int, int], tuple[str, ...]] = {}
    seen: set[tuple[int, int]] = set()
    for m in sched.moves:
        if m.node < 1 or m.node > inst.nodes:
            violations.append(f"unknown: node {m.node} outside the path "
                              f"(move at time {m.time})")
            continue
        if m.time < 1:
            violations.append(f"time: move at time {m.time}, node {m.node} "
                              "before epoch 1")
            continue
        key = (m.time, m.node)
        if key in seen:
            violations.append(f"duplicate: two moves at time {m.time}, "
                              f"node {m.node}")
            continue
        seen.add(key)
        kept: dict[str, None] = {}
        for gid in m.groups:
            if gid not in by_id:
                violations.append(f"unknown: group {gid!r} in move at time "
                                  f"{m.time}, node {m.node}")
            elif gid in kept:
                violations.append(f"duplicate: group {gid!r} twice in move "
                                  f"at time {m.time}, node {m.node}")
            else:
                kept[gid] = None
        if kept:
            moves[key] = tuple(kept)

    # insertion-ordered: instance order first, then landing order
    at: dict[int, dict[str, None]] = {v: {} for v in range(1, inst.nodes + 1)}
    for g in inst.groups:
        at[g.node][g.id] = None
    arrival_time = {g.id: 0 for g in inst.groups if g.node == a}
    horizon = max((t for (t, _v) in moves), default=0)
    occupancy = {0: {v: tuple(ids) for v, ids in at.items() if ids}}

    departures = sorted(moves)
    # (land epoch, departure index, node, ids): ties land in departure order
    landings: list[tuple[int, int, int, list[str]]] = []
    i = 0
    while i < len(departures) or landings:
        t = departures[i][0] if i < len(departures) else landings[0][0]
        if landings and landings[0][0] < t:
            t = landings[0][0]
        while i < len(departures) and departures[i][0] == t:
            v = departures[i][1]
            ids = moves[departures[i]]
            i += 1
            if v == a:
                violations.append(f"direction: move at the facility node {a} "
                                  f"at time {t}")
                continue
            here = at[v]
            present = []
            for gid in ids:
                if gid in here:
                    present.append(gid)
                else:
                    violations.append(f"presence: group {gid!r} not at node "
                                      f"{v} at time {t}")
            if not present:
                continue
            edge = v if v < a else v - 1
            cap = inst.edge_capacity(edge)
            size = sum(by_id[gid].size for gid in present)
            if size > cap:
                violations.append(f"capacity: departure from node {v} at time "
                                  f"{t} carries size {size} > capacity {cap}")
            d = inst.distance(edge)
            u = v + 1 if v < a else v - 1
            for gid in present:
                del here[gid]
            heapq.heappush(landings, (t + d - 1, i, u, present))
        while landings and landings[0][0] == t:
            _t, _seq, u, ids = heapq.heappop(landings)
            at[u].update(dict.fromkeys(ids))
            if u == a:
                for gid in ids:
                    arrival_time.setdefault(gid, t)
        occupancy[t] = {v: tuple(ids) for v, ids in at.items() if ids}
        horizon = max(horizon, t)

    trace = SimulationTrace(occupancy=occupancy, arrival_time=arrival_time,
                            horizon=horizon)
    return trace, violations


def simulate(inst: PathInstance, sched: Schedule) -> SimulationTrace:
    """Run a schedule; raises SimulationInfeasible on any violation."""
    trace, violations = _walk(inst, sched)
    if violations:
        raise SimulationInfeasible(violations)
    return trace


def schedule_objective(trace: SimulationTrace, inst: PathInstance) -> int:
    """Weighted sum of arrival epochs; every group must arrive."""
    total = 0
    for g in inst.groups:
        if g.id not in trace.arrival_time:
            raise ValueError(f"group {g.id!r} never arrives at the facility")
        total += g.weight * trace.arrival_time[g.id]
    return total


def validate_schedule(inst: PathInstance, sched: Schedule) -> list[str]:
    """All violations of a schedule; empty means feasible and complete."""
    trace, violations = _walk(inst, sched)
    for g in inst.groups:
        if g.id not in trace.arrival_time:
            violations.append(f"completion: group {g.id!r} never arrives "
                              "at the facility")
    return violations
