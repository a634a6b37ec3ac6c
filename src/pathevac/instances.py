"""Seeded instance generators and bundled example fixtures.

Generation uses SplitMix64, a tiny named PRNG, so that a (seed, params)
pair produces byte-identical instances on every platform and Python
version; the stdlib generator makes no such cross-version promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import PathInstance, PackingInstance, Schedule

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: 64-bit state, one multiply-xorshift avalanche per draw."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (plain modulo; the tiny bias is
        irrelevant for instance generation and keeps the stream portable)."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


def _require_at_least(params: object, **least: int) -> None:
    """Raise ValueError naming the first field of `params` below its least
    value; a field left at None (its default) passes."""
    for name, low in least.items():
        value = getattr(params, name)
        if value is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class GenParams:
    """Knobs for random path instances."""

    nodes: int = 4
    groups: int = 5
    capacity: int = 6
    max_size: int | None = None     # defaults to the capacity
    max_weight: int = 9
    max_distance: int = 2
    facility: int | None = None     # None: drawn from the seed
    allow_at_facility: bool = True


def gen_random(seed: int, params: GenParams = GenParams()) -> PathInstance:
    """Deterministic random path instance for a (seed, params) pair."""
    _require_at_least(params, nodes=1, groups=0, capacity=1, max_size=1,
                      max_weight=1, max_distance=1)
    rng = SplitMix64(seed)
    facility = params.facility if params.facility is not None \
        else rng.randint(1, params.nodes)
    if not 1 <= facility <= params.nodes:
        raise ValueError(f"facility {facility} out of range 1..{params.nodes}")
    distances = tuple(rng.randint(1, params.max_distance)
                      for _ in range(params.nodes - 1))
    max_size = min(params.max_size or params.capacity, params.capacity)
    allowed_nodes = [v for v in range(1, params.nodes + 1)
                     if params.allow_at_facility or v != facility]
    if not allowed_nodes and params.groups:
        raise ValueError("no node left to place groups on")
    origins, sizes, weights = [], [], []
    for _ in range(params.groups):
        # one group's node, size and weight, drawn in that order
        origins.append(allowed_nodes[rng.randint(0, len(allowed_nodes) - 1)])
        sizes.append(rng.randint(1, max_size))
        weights.append(rng.randint(1, params.max_weight))
    width = len(str(params.groups))
    return PathInstance(
        params.nodes, facility, params.capacity, distances,
        tuple([f"G{i:0{width}d}" for i in range(1, params.groups + 1)]),
        tuple(origins), tuple(sizes), tuple(weights))


@dataclass(frozen=True)
class PackParams:
    """Knobs for random packing instances."""

    items: int = 8
    capacity: int = 10
    max_size: int | None = None     # defaults to the capacity
    max_weight: int = 9
    max_ready: int = 4


def gen_random_packing(seed: int, params: PackParams = PackParams()) \
        -> PackingInstance:
    """Deterministic random packing instance for a (seed, params) pair."""
    _require_at_least(params, items=0, capacity=1, max_size=1, max_weight=1,
                      max_ready=1)
    rng = SplitMix64(seed)
    max_size = min(params.max_size or params.capacity, params.capacity)
    width = len(str(params.items))
    sizes, weights, ready = [], [], []
    for _ in range(params.items):
        # one item's size, weight and ready time, drawn in that order
        sizes.append(rng.randint(1, max_size))
        weights.append(rng.randint(1, params.max_weight))
        ready.append(rng.randint(1, params.max_ready))
    return PackingInstance(
        params.capacity,
        tuple([f"I{i:0{width}d}" for i in range(1, params.items + 1)]),
        tuple(sizes), tuple(weights), tuple(ready))


def gen_from_partition(values: Sequence[int]) -> PathInstance:
    """Two-node instance whose optimum hits 3*C exactly when the values
    split into two halves of equal sum.

    Node 1 holds one group per value (size = weight = value), the facility
    is node 2 across a unit-distance edge, and the capacity is half the
    total. Each epoch can then move at most capacity worth of size-weight,
    so the weighted arrival sum is at least C + 2C, with equality exactly
    when two departures carry C each.
    """
    vals = list(values)
    if not vals:
        raise ValueError("need at least one value")
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 1
           for v in vals):
        raise ValueError("values must be positive integers")
    total = sum(vals)
    if total % 2:
        raise ValueError(f"values sum to {total}, which is odd; "
                         "no equal split exists")
    cap = total // 2
    if any(v > cap for v in vals):
        raise ValueError("a value exceeds half the total; it cannot cross")
    width = len(str(len(vals)))
    ids = tuple([f"G{i:0{width}d}" for i in range(1, len(vals) + 1)])
    return PathInstance(nodes=2, facility=2, capacity=cap, distances=(1,),
                        ids=ids, origins=(1,) * len(vals),
                        sizes=tuple(vals), weights=tuple(vals))


@dataclass(frozen=True)
class ExampleFixture:
    """A bundled instance with its reference schedule and exact optimum."""

    name: str
    description: str
    instance: PathInstance
    schedule: Schedule
    objective: int
    arrival_times: dict[str, int]


def _fig1a() -> ExampleFixture:
    # ten unit singletons, per-edge capacities 3 and 4: simulation/validation
    # territory (the solver itself requires a uniform capacity)
    inst = PathInstance(nodes=3, facility=3, capacity=3, distances=(1, 2),
                        ids=tuple([f"p{i:02d}" for i in range(1, 11)]),
                        origins=(1,) * 4 + (2,) * 6, sizes=(1,) * 10,
                        weights=(1,) * 10, edge_capacities=(3, 4))
    rows = [
        (1, 1, ("p01", "p02", "p03")),
        (1, 2, ("p05", "p06", "p07", "p08")),
        (2, 1, ("p04",)),
        (2, 2, ("p09", "p10", "p01", "p02")),
        (3, 2, ("p03", "p04")),
    ]
    arrivals = {**{f"p{i:02d}": 2 for i in range(5, 9)},
                "p09": 3, "p10": 3, "p01": 3, "p02": 3,
                "p03": 4, "p04": 4}
    return ExampleFixture(
        name="fig1a",
        description="ten unit singletons, per-edge capacities 3 and 4, "
                    "aggregate optimum 28 with makespan 4",
        instance=inst,
        schedule=Schedule.from_rows(rows),
        objective=28,
        arrival_times=arrivals)


def _fig1b() -> ExampleFixture:
    # four weighted groups; capacity 3 is the smallest value making the
    # reference schedule feasible
    inst = PathInstance(nodes=3, facility=3, capacity=3, distances=(1, 2),
                        ids=("G11", "G12", "G21", "G22"),
                        origins=(1, 1, 2, 2), sizes=(2, 2, 3, 3),
                        weights=(5, 3, 5, 3))
    rows = [
        (1, 1, ("G11",)),
        (1, 2, ("G21",)),
        (2, 1, ("G12",)),
        (2, 2, ("G11",)),
        (3, 2, ("G12",)),
        (4, 2, ("G22",)),
    ]
    return ExampleFixture(
        name="fig1b",
        description="four weighted groups on two origin nodes, "
                    "minsum optimum 52",
        instance=inst,
        schedule=Schedule.from_rows(rows),
        objective=52,
        arrival_times={"G21": 2, "G11": 3, "G12": 4, "G22": 5})


def bundled_examples() -> dict[str, ExampleFixture]:
    """The bundled walk-through fixtures, addressable by name."""
    fixtures = [_fig1a(), _fig1b()]
    return {f.name: f for f in fixtures}
