"""Evacuation on a path: side reduction, assembly, simulation, validation.

Each side of the facility funnels through its last edge (the bottleneck).
Groups on a side become packing items whose ready time is the earliest
epoch they can cross that edge (prefix distance + 1); the bin index chosen
for an item is its bottleneck crossing epoch, and walking backwards along
the route gives every intermediate departure with zero waiting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    """Bookkeeping of one side's reduction to a packing problem."""

    side: str                      # "left" | "right"
    near_node: int                 # neighbour of the facility on this side
    bottleneck_edge: int           # edge index k of {k, k+1}
    bottleneck_distance: int
    prefix: dict[str, int]        # group id -> distance from origin to near_node
    weight_sum: int
    delay_cost: int               # (bottleneck distance - 1) * weight_sum

    @property
    def is_empty(self) -> bool:
        return not self.prefix


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
                SideReduction(side=side, near_node=near, bottleneck_edge=edge,
                              bottleneck_distance=0, prefix={},
                              weight_sum=0, delay_cost=0))
    d_b = inst.distance(edge)
    prefix = {g.id: inst.path_distance(g.node, near) for g in groups}
    items = tuple(PackingItem(id=g.id, size=g.size, weight=g.weight,
                              ready=prefix[g.id] + 1) for g in groups)
    weight_sum = sum(g.weight for g in groups)
    return (PackingInstance(capacity=inst.capacity, items=items),
            SideReduction(side=side, near_node=near, bottleneck_edge=edge,
                          bottleneck_distance=d_b, prefix=prefix,
                          weight_sum=weight_sum,
                          delay_cost=(d_b - 1) * weight_sum))


def fractional_lower_bound(inst: PathInstance,
                           reduced_tau: bool = False) -> Fraction:
    """Two-sided fractional lower bound on the evacuation objective.

    Sums, over the non-empty sides, the fractional packing optimum of the
    side's reduction plus its delay cost. With `reduced_tau` each side's
    ready times are first reduced to their pair index, which gives the
    weaker bound the factor-2 certificate is stated against.
    """
    total = Fraction(0)
    for side in ("left", "right"):
        pinst, red = reduce_side(inst, side)
        if not pinst.items:
            continue
        target = relax.reduced_ready_times(pinst) if reduced_tau else pinst
        fp = relax.solve_fractional_greedy(target)
        total += relax.fractional_objective(fp, target) + red.delay_cost
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
                    t = t_cross - inst.path_distance(v, near)
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
    """Epoch-by-epoch occupancy of a schedule walk."""

    occupancy: dict[int, dict[int, tuple[str, ...]]]  # t -> node -> ids
    arrivals: dict[tuple[int, int], tuple[str, ...]]  # (t, node) -> landed ids
    arrival_time: dict[str, int]                      # facility arrivals only
    horizon: int

    def render_table(self) -> str:
        """Per-epoch occupancy table, one line per epoch."""
        nodes = sorted({v for occ in self.occupancy.values() for v in occ})
        lines = ["time  " + "  ".join(f"node {v}" for v in nodes)]
        for t in range(self.horizon + 1):
            occ = self.occupancy.get(t, {})
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
    cascades into spurious ones downstream.
    """
    a = inst.facility
    by_id = inst.group_by_id()
    violations: list[str] = []
    moves: dict[tuple[int, int], tuple[str, ...]] = {}
    for m in sched.moves:
        if m.node < 1 or m.node > inst.nodes:
            violations.append(f"unknown: node {m.node} outside the path "
                              f"(move at time {m.time})")
            continue
        bad = [gid for gid in m.groups if gid not in by_id]
        for gid in bad:
            violations.append(f"unknown: group {gid!r} in move at time "
                              f"{m.time}, node {m.node}")
        kept = tuple(gid for gid in m.groups if gid in by_id)
        if kept:
            moves[(m.time, m.node)] = kept

    at: dict[int, list[str]] = {v: [] for v in range(1, inst.nodes + 1)}
    for g in inst.groups:
        at[g.node].append(g.id)
    arrival_time = {g.id: 0 for g in inst.groups if g.node == a}
    pending: dict[int, list[tuple[int, str]]] = {}  # land epoch -> (node, id)
    horizon = max((t for (t, _v) in moves), default=0)
    occupancy = {0: {v: tuple(ids) for v, ids in at.items() if ids}}
    arrivals: dict[tuple[int, int], tuple[str, ...]] = {}

    t = 1
    while t <= horizon or any(e >= t for e in pending):
        for (mt, v) in sorted(k for k in moves if k[0] == t):
            ids = moves[(mt, v)]
            if v == a:
                violations.append(f"direction: move at the facility node {a} "
                                  f"at time {t}")
                continue
            present = []
            for gid in ids:
                if gid in at[v]:
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
                at[v].remove(gid)
            pending.setdefault(t + d - 1, []).append((u, present))
        if t in pending:
            landed = pending.pop(t)
            for (u, ids) in landed:
                at[u].extend(ids)
                key = (t, u)
                arrivals[key] = arrivals.get(key, ()) + tuple(ids)
                if u == a:
                    for gid in ids:
                        arrival_time.setdefault(gid, t)
        occupancy[t] = {v: tuple(ids) for v, ids in at.items() if ids}
        horizon = max(horizon, t)
        t += 1

    trace = SimulationTrace(occupancy=occupancy, arrivals=arrivals,
                            arrival_time=arrival_time, horizon=horizon)
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
