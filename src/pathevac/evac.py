"""Evacuation on a path: side reduction, assembly, simulation, validation.

Each side of the facility funnels through its last edge (the bottleneck).
Groups on a side become packing items whose ready time is the earliest
epoch they can cross that edge (prefix distance + 1); the bin index chosen
for an item is its bottleneck crossing epoch, and walking backwards along
the route gives every intermediate departure with zero waiting.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, mul

from . import relax
from .model import Packing, PackingInstance, PathInstance, Row, Schedule
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
    the bottleneck's near node plus one. One scan of `origins` finds the
    side's groups, and an `itemgetter` of their positions gathers each
    column; no `PackingItem` is built. An empty side reduces to an empty
    instance with zero delay cost. The reduction assumes one capacity on
    every edge, so per-edge overrides raise NonUniformCapacityError.
    """
    if not inst.is_uniform:
        raise NonUniformCapacityError(
            "solver requires a uniform edge capacity; "
            "this instance declares per-edge overrides")
    a = inst.facility
    if side == "left":
        ks = [k for k, v in enumerate(inst.origins) if v < a]
        near = a - 1
        edge = a - 1
    elif side == "right":
        ks = [k for k, v in enumerate(inst.origins) if v > a]
        near = a + 1
        edge = a
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not ks:
        return (PackingInstance(inst.capacity, (), (), (), ()),
                SideReduction(delay_cost=0))
    # `itemgetter` of one index gives the entry, not a 1-tuple
    take = itemgetter(*ks) if len(ks) > 1 else lambda col: (col[ks[0]],)
    pos = _positions(inst)
    ready_at = [abs(p - pos[near]) + 1 for p in pos]    # by node
    weights = take(inst.weights)
    pinst = PackingInstance(
        inst.capacity, take(inst.ids), take(inst.sizes), weights,
        tuple([ready_at[v] for v in take(inst.origins)]))
    return (pinst, SideReduction(
        delay_cost=(inst.distance(edge) - 1) * sum(weights)))


def fractional_lower_bound(inst: PathInstance,
                           reduced_tau: bool = False) -> Fraction:
    """Two-sided fractional lower bound on the evacuation objective.

    Sums, over the non-empty sides, `relax.fractional_bound` of the side's
    reduction (with the same `reduced_tau`) plus its delay cost.
    """
    total = Fraction(0)
    for side in ("left", "right"):
        pinst, red = reduce_side(inst, side)
        if pinst.ids:
            total += relax.fractional_bound(pinst, reduced_tau) \
                + red.delay_cost
    return total


def _raise_first_fault(packing: Packing, node_of: dict[str, int],
                       lag: dict[int, int]) -> None:
    """Raise the error of a side's first bad id in packing order: an
    unknown group, or a group whose bin is earlier than its ready time."""
    for t_cross, bin_ in packing.bins.items():
        for gid in bin_:
            o = node_of.get(gid)
            if o is None:
                raise ValueError(f"packing references unknown group {gid!r}")
            if o in lag and lag[o] >= t_cross:
                raise ValueError(
                    f"group {gid!r} in bin {t_cross} cannot reach the "
                    f"bottleneck in time (ready-time violation)")


def assemble_schedule(inst: PathInstance, left: Packing,
                      right: Packing) -> Schedule:
    """Expand per-side packings into a full schedule, its rows in
    (time, node) order as they are built.

    An item in bin T' crosses the bottleneck at epoch T', so it departs
    node v on its route at T' minus lag(v), the distance from v to the
    near node, with no waiting. On one side, a (time, node) key therefore
    belongs to one bin, and the move there is the part of that bin that
    has reached the node: its items whose route starts at that node or
    farther out, in bin order. Each bin's route is walked once, from its
    farthest origin to the near node, and the ids change only where
    another origin joins. An id whose group has no route on the side (it
    sits at the facility or on the other side) never moves. A bin index
    below an item's ready time would mean a departure before epoch 1 and
    is rejected; of several bad ids, the first in packing order, left
    side first, is reported.

    lag strictly grows away from the near node, so at one epoch the left
    side's later bins reach nodes nearer node 1, and so do the right
    side's earlier bins. Walking the left bins latest first, then the
    right bins earliest first, appends each epoch's rows to that epoch's
    list in ascending node order, and joining the lists over the sorted
    distinct epochs gives the schedule without sorting the moves. The cost
    is one (time, node, ids) row per move, plus a sort of the bin indices
    and one of the epochs that occur; nothing costs per epoch value.
    """
    a = inst.facility
    node_of = dict(zip(inst.ids, inst.origins))
    pos = _positions(inst)
    # epoch -> its rows, by node
    at: dict[int, list[Row]] = {}
    for packing, step in ((left, 1), (right, -1)):
        bins = packing.bins
        if not bins:
            continue
        # routes run toward the facility and end at the near node, which
        # lies off the path when the side has no node
        near = a - step
        side = range(1, a) if step == 1 else range(a + 1, inst.nodes + 1)
        # distance from each node of the side to the near node
        lag = {v: abs(pos[v] - pos[near]) for v in side}
        # left bins latest first, right bins earliest first: each epoch's
        # moves arrive in node order
        for t_cross in sorted(bins, reverse=step == 1):
            bin_ = bins[t_cross]
            starts = []     # the origin of each item, in bin order
            for gid in bin_:
                o = node_of.get(gid)
                if o is None or o in lag and lag[o] >= t_cross:
                    _raise_first_fault(packing, node_of, lag)
                starts.append(o)
            origins = set(starts)
            if len(origins) == 1:
                # one origin: every move takes the whole bin, and an origin
                # off the side gives an empty route
                far, = origins
                for v in range(far, a, step):
                    t = t_cross - lag[v]
                    at.setdefault(t, []).append((t, v, bin_))
                continue
            # the origins on the side, farthest first
            joins = sorted([o for o in origins if o in lag],
                           reverse=step == -1)
            whole = len(joins) == len(origins)     # no id is foreign
            for o, end in zip(joins, [*joins[1:], a]):
                if whole and end == a:
                    ids = bin_
                else:
                    # the items whose origin is o or farther out
                    ids = tuple([gid for gid, s in zip(bin_, starts)
                                 if (o - s) * step >= 0])
                for v in range(o, end, step):
                    t = t_cross - lag[v]
                    at.setdefault(t, []).append((t, v, ids))
    rows: list[Row] = []
    for t in sorted(at):
        rows += at[t]
    return Schedule.from_rows(rows)


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
            return _side_objective(self.left_packing, self.left_instance,
                                   self.left_reduction)
        return _side_objective(self.right_packing, self.right_instance,
                               self.right_reduction)


def _side_objective(packing: Packing, pinst: PackingInstance,
                    red: SideReduction) -> int:
    """Packing objective plus delay cost: a group in bin T' arrives at
    T' + d(bottleneck) - 1, so this is what one side adds to the objective."""
    return packing_objective(packing, pinst) + red.delay_cost


def solve_report(inst: PathInstance) -> SolveReport:
    """Reduce, pack greedily and assemble both sides. The objective is
    the sum of the two sides' `_side_objective`; nothing walks the schedule."""
    left_inst, left_red = reduce_side(inst, "left")
    right_inst, right_red = reduce_side(inst, "right")
    left_packing, left_trace = solve_greedy(left_inst)
    right_packing, right_trace = solve_greedy(right_inst)
    schedule = assemble_schedule(inst, left_packing, right_packing)
    objective = _side_objective(left_packing, left_inst, left_red) \
        + _side_objective(right_packing, right_inst, right_red)
    return SolveReport(
        schedule=schedule, objective=objective,
        left_instance=left_inst, left_reduction=left_red,
        left_packing=left_packing, left_trace=left_trace,
        right_instance=right_inst, right_reduction=right_red,
        right_packing=right_packing, right_trace=right_trace)


def _start(inst: PathInstance) -> dict[int, dict[str, None]]:
    """Node -> ids at epoch 0, in instance order, for every node of the
    path (insertion-ordered dicts used as ordered sets)."""
    at: dict[int, dict[str, None]] = {v: {} for v in range(1, inst.nodes + 1)}
    for gid, v in zip(inst.ids, inst.origins):
        at[v][gid] = None
    return at


# (epoch, node, ids, landing epoch, landing node)
_Departure = tuple[int, int, Sequence[str], int, int]


@dataclass(frozen=True)
class SimulationTrace:
    """What a schedule walk found: the facility arrivals and the horizon.

    The walk keeps no departure log and no occupancy snapshots, so it
    holds O(groups) beyond the schedule; `render_table` walks the schedule
    again to build the log it sweeps.
    """

    arrival_time: dict[str, int]                      # facility arrivals only
    horizon: int


def render_table(inst: PathInstance, sched: Schedule) -> str:
    """Per-epoch occupancy table of a schedule walk, one line per epoch.

    One walk of the schedule collects its departure log, and one forward
    sweep of that log from the instance's start state prints the rows up
    to the walk's horizon. At each epoch, that epoch's departures leave
    their nodes in log order, then the departures landing in it join their
    landing nodes in log order; each row is printed after both. The
    columns are the nodes occupied at the start or landed on later.
    """
    deps: list[_Departure] = []
    trace, _ = _walk(inst, sched, deps.append)
    at = _start(inst)
    # a stable sort: the departures landing in one epoch keep log order
    lands = sorted(deps, key=itemgetter(3))
    nodes = sorted({v for v, ids in at.items() if ids}
                   | {dep[4] for dep in deps})
    lines = ["time  " + "  ".join(f"node {v}" for v in nodes)]
    i = j = 0
    for t in range(trace.horizon + 1):
        while i < len(deps) and deps[i][0] == t:
            here = at[deps[i][1]]
            for gid in deps[i][2]:
                del here[gid]
            i += 1
        while j < len(lands) and lands[j][3] == t:
            at[lands[j][4]].update(dict.fromkeys(lands[j][2]))
            j += 1
        cells = [",".join(at[v]) if at[v] else "-" for v in nodes]
        lines.append(f"{t:>4}  " + "  ".join(cells))
    return "\n".join(lines)


def _walk(inst: PathInstance, sched: Schedule,
          log: Callable[[_Departure], object] | None = None) \
        -> tuple[SimulationTrace, list[str]]:
    """Shared engine: run the schedule, collecting violations as they occur.

    One pass over the schedule's (time, node, ids) rows, which it holds in
    (time, node) order; the walk builds no `Move`. Each group carries the
    node it is at or headed to and the first epoch it may leave: a group
    that departs at t over an edge of length d lands at t + d - 1 and may
    leave again from t + d on, so a distance-1 hop lands in its own epoch
    and cannot leave before the next one.
    Presence, capacity, direction, arrivals and the horizon all follow from
    that state, at a couple of dict operations per named group; the cost
    follows the number of moves, never the epoch values.

    A node's hop (its edge's length, the next node toward the facility and
    that edge's capacity) is worked out at the first move from it and kept
    for this walk only, so the walk does no per-node set-up. A move that
    names one group, off the facility and from epoch 1 on, makes the same
    checks in a short branch, without the duplicate scan or per-id loop.

    Groups named in a bad move simply do not move, so one violation never
    cascades into spurious ones downstream. The checks of a move on its
    own (off the path, before epoch 1, an unknown or doubled id) are
    reported first, then presence, direction and capacity, each part in
    the order of the moves.

    `log`, when given, is fed each departure as (epoch, node, ids,
    landing epoch, landing node), in (time, node) order; `render_table`
    is the one caller that passes it. Without it the walk keeps nothing
    per move: what it holds when it ends is the per-group state, the
    arrivals and the violations.
    """
    a = inst.facility
    nodes = inst.nodes
    # state: group id -> (the node it is at or headed to, the first epoch
    # it may leave); one loop fills it, `size_of` and the facility arrivals
    size_of, state, arrival_time = {}, {}, {}
    for gid, v, size in zip(inst.ids, inst.origins, inst.sizes):
        size_of[gid] = size
        state[gid] = (v, 0)
        if v == a:
            arrival_time[gid] = 0
    early: list[str] = []   # the checks of a move on its own
    violations: list[str] = []
    report = violations.append
    distances, caps = inst.distances, inst.edge_capacities
    # a node on the path other than the facility -> (its edge's length - 1,
    # the next node toward the facility, that edge's capacity)
    hops: dict[int, tuple[int, int, int]] = {}
    named_t = 0             # the epoch of the last move naming a group
    top = 0                 # the latest landing epoch
    for t, v, ids in sched.rows:
        hop = hops.get(v)
        if hop is None:
            if v < 1 or v > nodes:
                early.append(f"unknown: node {v} outside the path "
                             f"(move at time {t})")
                continue
            if v != a:
                k = v - 1 if v < a else v - 2     # edge v or v - 1
                hop = hops[v] = (distances[k] - 1, v + 1 if v < a else v - 1,
                                 inst.capacity if caps is None else caps[k])
        if t < 1:
            early.append(f"time: move at time {t}, node {v} before epoch 1")
            continue
        if len(ids) == 1 and hop is not None:
            # one group off the facility: it leaves whole or not at all
            gid = ids[0]
            s = state.get(gid)
            if s is None:
                early.append(f"unknown: group {gid!r} in move at time "
                             f"{t}, node {v}")
                continue
            named_t = t
            if s[0] != v or s[1] > t:
                report(f"presence: group {gid!r} not at node {v} at time {t}")
                continue
            lag, u, cap = hop
            land = t + lag
            state[gid] = (u, land + 1)
            size = size_of[gid]
        else:
            if len(ids) > 1 and len(set(ids)) != len(ids):
                kept: dict[str, None] = {}
                for gid in ids:
                    if gid not in size_of:
                        early.append(f"unknown: group {gid!r} in move at "
                                     f"time {t}, node {v}")
                    elif gid in kept:
                        early.append(f"duplicate: group {gid!r} twice in "
                                     f"move at time {t}, node {v}")
                    else:
                        kept[gid] = None
                ids = tuple(kept)
            if v == a:
                named = False
                for gid in ids:
                    if gid in size_of:
                        named = True
                    else:
                        early.append(f"unknown: group {gid!r} in move at "
                                     f"time {t}, node {v}")
                if named:
                    named_t = t
                    report(f"direction: move at the facility node {a} at "
                           f"time {t}")
                continue
            lag, u, cap = hop
            land = t + lag
            there = (u, land + 1)
            size = 0
            stay = ()   # the named ids that do not leave
            for gid in ids:
                s = state.get(gid)
                if s is None:
                    early.append(f"unknown: group {gid!r} in move at time "
                                 f"{t}, node {v}")
                    stay += (gid,)
                    continue
                named_t = t
                if s[0] == v and s[1] <= t:
                    state[gid] = there
                    size += size_of[gid]
                else:
                    report(f"presence: group {gid!r} not at node {v} at "
                           f"time {t}")
                    stay += (gid,)
            if len(stay) == len(ids):   # nothing leaves, or the move is empty
                continue
            if stay:
                # the ids are distinct here
                ids = [gid for gid in ids if gid not in stay]
        if size > cap:
            report(f"capacity: departure from node {v} at time {t} "
                   f"carries size {size} > capacity {cap}")
        if log is not None:
            log((t, v, ids, land, u))
        if land > top:
            top = land
        if u == a:
            # a group at the facility never departs, so it lands there at
            # most once
            for gid in ids:
                arrival_time[gid] = land

    trace = SimulationTrace(arrival_time=arrival_time,
                            horizon=max(named_t, top))
    return trace, early + violations


def simulate(inst: PathInstance, sched: Schedule) -> SimulationTrace:
    """Run a schedule; raises SimulationInfeasible on any violation."""
    trace, violations = _walk(inst, sched)
    if violations:
        raise SimulationInfeasible(violations)
    return trace


def schedule_objective(trace: SimulationTrace, inst: PathInstance) -> int:
    """Weighted sum of arrival epochs, in one C-level sum; the first group
    in instance order that never arrives raises ValueError."""
    try:
        return sum(map(mul, inst.weights,
                       map(trace.arrival_time.__getitem__, inst.ids)))
    except KeyError as missing:
        gid = missing.args[0]
    raise ValueError(f"group {gid!r} never arrives at the facility")


def check_schedule(inst: PathInstance, sched: Schedule) \
        -> tuple[SimulationTrace, list[str]]:
    """One walk of a schedule: its trace and all its violations, the
    groups that never reach the facility included, which are looked for
    only when fewer groups arrived than the instance holds."""
    trace, violations = _walk(inst, sched)
    if len(trace.arrival_time) < len(inst.ids):
        for gid in inst.ids:
            if gid not in trace.arrival_time:
                violations.append(f"completion: group {gid!r} never "
                                  "arrives at the facility")
    return trace, violations


def validate_schedule(inst: PathInstance, sched: Schedule) -> list[str]:
    """All violations of a schedule; empty means feasible and complete."""
    return check_schedule(inst, sched)[1]
