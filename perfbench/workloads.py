"""The benchmark's workloads: seeded input pools and the ops of one round.

Set-up generates a pool of cases from the seed with `instances.gen_*` and
serializes the path instances to JSON text; it is timed apart from the ops.
A run then works through the pool in a closed loop (one caller, each op
started after the previous one returned). A round takes the next case and
runs the workload's ops on it. After each op, untimed checks hold its
output to the solver's guarantees; a broken guarantee raises CheckFailed.

Every workload runs every op kind, so every end-to-end metric is defined on
every workload. What differs is the shape of the inputs, and so which layer
does most of the work.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from pathevac import evac, instances, model, oracles, packing, relax
from pathevac.instances import GenParams, PackParams
from pathevac.model import PackingInstance, PathInstance, Schedule

OP_KINDS = ("solve", "certify", "validate", "oracle")


class CheckFailed(Exception):
    """An op returned an output that breaks one of the solver's guarantees."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: int                           # cases generated at set-up
    paths: tuple[GenParams, ...]        # path instances of one case
    probe: PackParams                   # packing instances of one case ...
    probes: int                         # ... and how many
    corrupt: bool = False               # also validate a corrupted copy
    exact: bool = False                 # full oracle set, not the probe only


WORKLOADS = {w.name: w for w in (
    Workload(
        name="dense",
        why="about ten groups per bin on a short path: the greedy packer "
            "and the relaxation do most of the work, the simulator little",
        pool=8,
        paths=(GenParams(nodes=5, groups=2000, capacity=60, max_size=6,
                         max_weight=20, max_distance=2, facility=3),),
        probe=PackParams(items=8, capacity=60, max_size=6, max_weight=20),
        probes=8),
    Workload(
        name="sprawl",
        why="long routes and about one group per bin: assembly, the "
            "simulator and JSON scale with the 10k-move schedules",
        pool=5,
        paths=(GenParams(nodes=100, groups=600, capacity=10, max_size=10,
                         max_weight=20, max_distance=3, facility=50),),
        probe=PackParams(items=8, capacity=10, max_size=10, max_weight=20),
        probes=12),
    Workload(
        name="long-edge",
        why="few moves over edges thousands of epochs long, plus corrupted "
            "copies: cost follows epoch values, not output size",
        pool=128,
        paths=(GenParams(nodes=4, groups=20, capacity=10, max_size=10,
                         max_distance=1000, facility=1),),
        probe=PackParams(items=8, capacity=10, max_size=10), probes=1,
        corrupt=True),
    Workload(
        name="oracle",
        why="small instances for the three exact oracles, each paired with "
            "the greedy; measured nowhere else",
        pool=32,
        paths=(GenParams(nodes=4, groups=5, capacity=6, max_distance=2),
               GenParams(nodes=2, groups=12, capacity=20, facility=2)),
        probe=PackParams(items=10, capacity=10, max_ready=4), probes=1,
        exact=True),
)}


def tiny(w: Workload) -> Workload:
    """The same workload at smoke-test size: two small cases."""
    def shrink(p: GenParams) -> GenParams:
        nodes = min(p.nodes, 8)
        facility = None if p.facility is None else min(p.facility, nodes)
        return dataclasses.replace(p, nodes=nodes, facility=facility,
                                   groups=min(p.groups, 12),
                                   max_distance=min(p.max_distance, 50))
    return dataclasses.replace(
        w, pool=2, paths=tuple(shrink(p) for p in w.paths), probes=1,
        probe=dataclasses.replace(w.probe, items=min(w.probe.items, 6)))


@dataclass(frozen=True)
class PathCase:
    inst: PathInstance
    text: str                   # the instance as JSON, the input of solve
    corrupt_seed: int | None    # seeds the corrupted copy, when there is one


@dataclass(frozen=True)
class Case:
    paths: tuple[PathCase, ...]
    probes: tuple[PackingInstance, ...]


def make_pool(w: Workload, seed: int) -> list[Case]:
    """Generate and serialize the workload's inputs; same seed, same pool."""
    rng = instances.SplitMix64(seed)
    pool = []
    for _ in range(w.pool):
        paths = []
        for shape in w.paths:
            inst = instances.gen_random(rng.next_u64(), shape)
            paths.append(PathCase(
                inst=inst, text=model.serialize_instance(inst),
                corrupt_seed=rng.next_u64() if w.corrupt else None))
        probes = tuple(instances.gen_random_packing(rng.next_u64(), w.probe)
                       for _ in range(w.probes))
        pool.append(Case(paths=tuple(paths), probes=probes))
    return pool


# ---------------------------------------------------------------------------
# ops: what one timed call does

def solve(text: str):
    """`pathevac solve`: parse, solve, serialize the schedule."""
    inst = model.parse_instance(text)
    report = evac.solve_report(inst)
    return report, model.serialize_schedule(report.schedule)


def certify(inst: PathInstance) -> tuple[Fraction, int]:
    """`pathevac lowerbound --instance --reduced-tau`: the two-sided bound.

    Returns the bound and the number of fractional entries poured."""
    total = Fraction(0)
    entries = 0
    for side in ("left", "right"):
        pinst, red = evac.reduce_side(inst, side)
        if not pinst.items:
            continue
        target = relax.reduced_ready_times(pinst)
        fp = relax.solve_fractional_greedy(target)
        total += relax.fractional_objective(fp, target) + red.delay_cost
        entries += len(fp.entries)
    return total, entries


def validate(inst: PathInstance, text: str):
    """`pathevac validate`: violations, then objective and walk length of a
    feasible schedule."""
    sched = model.parse_schedule(text)
    violations = evac.validate_schedule(inst, sched)
    if violations:
        return violations, None, None
    trace = evac.simulate(inst, sched)
    return violations, evac.schedule_objective(trace, inst), trace.horizon


# ---------------------------------------------------------------------------
# corrupted copies of a solved schedule

def corrupt(sched: Schedule, inst: PathInstance, rng: random.Random) \
        -> Schedule:
    """A copy that must fail validation: one move dropped, shifted one epoch
    early, or merged into an earlier move from the same node.

    The solver's schedules never wait, so a group leaves every node after
    its origin in the epoch right after it lands there; shifting such a
    move earlier draws a group that is not there yet. A merge is only made
    where the two moves together exceed the edge capacity. When the drawn
    kind has no eligible move, the copy drops a move instead.
    """
    moves = list(sched.moves)
    kind = rng.choice(("drop", "shift", "merge"))
    origin = {g.id: g.node for g in inst.groups}
    if kind == "shift":
        eligible = [i for i, m in enumerate(moves) if m.time > 1
                    and all(origin[g] != m.node for g in m.groups)]
        if eligible:
            m = moves.pop(rng.choice(eligible))
            at = {(x.time, x.node): i for i, x in enumerate(moves)}
            key = (m.time - 1, m.node)
            if key in at:
                prev = moves[at[key]]
                moves[at[key]] = dataclasses.replace(
                    prev, groups=prev.groups + m.groups)
            else:
                moves.append(dataclasses.replace(m, time=m.time - 1))
            return Schedule.from_map({(x.time, x.node): x.groups
                                      for x in moves})
    if kind == "merge":
        size = {g.id: g.size for g in inst.groups}
        last: dict[int, int] = {}
        pairs = []
        for i, m in enumerate(moves):   # moves are sorted by time
            j = last.get(m.node)
            if j is not None and sum(size[g] for g in moves[j].groups) \
                    + sum(size[g] for g in m.groups) > inst.capacity:
                pairs.append((j, i))
            last[m.node] = i
        if pairs:
            j, i = rng.choice(pairs)
            moves[j] = dataclasses.replace(
                moves[j], groups=moves[j].groups + moves[i].groups)
            del moves[i]
            return Schedule(moves=tuple(moves))
    del moves[rng.randrange(len(moves))]
    return Schedule(moves=tuple(moves))


# ---------------------------------------------------------------------------
# one round

@dataclass
class Outcome:
    """What a round produced, kept from each case's first round."""

    digest: list[str] = dataclasses.field(default_factory=list)
    counts: Counter = dataclasses.field(default_factory=Counter)
    gaps: list[Fraction] = dataclasses.field(default_factory=list)
    ratios: list[Fraction] = dataclasses.field(default_factory=list)


def _ratio(value, bound) -> Fraction:
    """value / bound, where 0 / 0 is a tight certificate."""
    if bound == 0:
        check(value == 0, f"value {value} against a zero bound")
        return Fraction(1)
    return Fraction(value) / Fraction(bound)


def run_case(op, w: Workload, case: Case) -> Outcome:
    """Run one round; `op(kind, fn, *args)` times a call and returns its
    result."""
    out = Outcome()
    for pc in case.paths:
        _path_ops(op, w, pc, out)
    for pinst in case.probes:
        _probe_ops(op, w, pinst, out)
    return out


def _path_ops(op, w: Workload, pc: PathCase, out: Outcome) -> None:
    report, sched_text = op("solve", solve, pc.text)
    lb, entries = op("certify", certify, pc.inst)
    violations, objective, horizon = op("validate", validate, pc.inst,
                                        sched_text)
    check(not violations, f"solved schedule fails validation: "
                          f"{violations[:1]}")
    check(objective == report.objective,
          f"validate objective {objective} != solve {report.objective}")
    sides = report.side_objective("left") + report.side_objective("right")
    check(report.objective == sides,
          f"objective {report.objective} != side objectives {sides}")
    check(lb <= report.objective <= 2 * lb,
          f"objective {report.objective} outside [lb, 2 lb], lb = {lb}")
    out.gaps.append(_ratio(report.objective, lb))
    out.digest += [sched_text, str(report.objective), str(lb)]

    moves = report.schedule.moves
    c = out.counts
    c["evac.moves"] += len(moves)
    c["evac.route_steps"] += sum(len(m.groups) for m in moves)
    c["evac.horizon"] += horizon
    c["evac.horizon_x_moves"] += horizon * len(moves)
    for pinst, pk, trace in ((report.left_instance, report.left_packing,
                              report.left_trace),
                             (report.right_instance, report.right_packing,
                              report.right_trace)):
        c["packing.items"] += len(pinst.items)
        c["packing.bins"] += len(pk.bins)
        c["packing.steps"] += len(trace.steps)
        c["packing.jumps"] += sum(s.action == "jump" for s in trace.steps)
    c["relax.entries"] += entries

    if pc.corrupt_seed is not None:
        bad = corrupt(report.schedule, pc.inst, random.Random(pc.corrupt_seed))
        bad_violations, _, _ = op("validate", validate, pc.inst,
                                  model.serialize_schedule(bad))
        check(bool(bad_violations), "corrupted schedule passes validation")
        out.digest += bad_violations

    if w.exact:
        opt, _ = op("oracle", oracles.exact_dwsf_opt, pc.inst)
        check(opt <= report.objective,
              f"exact optimum {opt} above the solver's {report.objective}")
        out.ratios.append(_ratio(report.objective, opt))
        out.digest.append(str(opt))


def _probe_ops(op, w: Workload, pinst: PackingInstance, out: Outcome) -> None:
    opt, _ = op("oracle", oracles.exact_packing_opt, pinst)
    greedy = packing.packing_objective(packing.solve_greedy(pinst)[0], pinst)
    check(opt <= greedy <= 2 * opt,
          f"greedy {greedy} outside [opt, 2 opt], opt = {opt}")
    out.ratios.append(_ratio(greedy, opt))
    out.digest += [str(opt), str(greedy)]
    if w.exact:
        mcf = op("oracle", oracles.exact_fractional_opt_mcf, pinst)
        check(mcf <= opt, f"fractional optimum {mcf} above the exact {opt}")
        out.digest.append(str(mcf))
