"""Differential tests: the schedule assembly and writer against the ones
they replaced.

The assembly in `ref_move_schedule` builds a `Move` per move where the one
in `pathevac.evac` builds a (time, node, ids) row, and its writer reads
the `Move`s; both assemblies build the moves in (time, node) order, and
both writers fill one template with one `%`. The assemblies must give
equal `Schedule`s, or raise the same first error, and the writers the
bytes `json.dumps` writes, on:
- `gen_random` instances in the shapes of the four benchmark workloads,
  at small sizes, with their greedy packings;
- those packings with foreign ids (groups at the facility or on the other
  side) added to the bins of both sides;
- those packings with their bins in descending or shuffled order;
- those packings with two bad bins (an unknown id, or a bin earlier than
  an item's ready time), in any order.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

import ref_move_schedule
from pathevac import (GenParams, Packing, PathInstance, Schedule,
                      assemble_schedule, gen_random, reduce_side,
                      serialize_schedule, solve_greedy)
from test_model import json_schedule_text

# the path shapes of the benchmark workloads; the group counts are the
# largest drawn here
_SHAPES = (
    # dense: many groups per bin on a short path
    GenParams(nodes=5, groups=60, capacity=60, max_size=6, max_weight=20,
              max_distance=2, facility=3),
    # sprawl: long routes, about one group per bin
    GenParams(nodes=24, groups=40, capacity=10, max_size=10, max_weight=20,
              max_distance=3, facility=12),
    # long-edge: edges up to 1000 epochs long, one side only
    GenParams(nodes=4, groups=20, capacity=10, max_size=10,
              max_distance=1000, facility=1),
    # oracle: a few groups anywhere, or twelve at one origin
    GenParams(nodes=4, groups=5, capacity=6, max_distance=2),
    GenParams(nodes=2, groups=12, capacity=20, facility=2),
)


@st.composite
def _solved(draw, shapes=_SHAPES):
    """A generated instance and its two greedy packings, as bin lists."""
    shape = draw(st.sampled_from(shapes))
    params = replace(shape, groups=draw(st.integers(0, shape.groups)))
    inst = gen_random(draw(st.integers(0, 2 ** 32)), params)
    return inst, *(list(solve_greedy(reduce_side(inst, side)[0])[0]
                        .bins.items()) for side in ("left", "right"))


def _same_outcome(inst: PathInstance, left: Packing, right: Packing):
    """What the two assemblies give, required equal: the schedule, or the
    error raised; a schedule must then give the bytes of `json.dumps` from
    both writers."""
    outcomes = []
    for assemble in (assemble_schedule, ref_move_schedule.assemble_schedule):
        try:
            outcomes.append(("ok", assemble(inst, left, right)))
        except ValueError as exc:
            outcomes.append(("raise", str(exc)))
    new, moved = outcomes
    assert moved[0] == new[0]
    if new[0] == "raise":
        assert moved == new
        return new
    assert type(moved[1]) is ref_move_schedule.Schedule
    assert Schedule(moves=moved[1].moves) == new[1]
    text = json_schedule_text(moved[1].moves)
    assert ref_move_schedule.serialize_schedule(moved[1]) == text
    assert serialize_schedule(new[1]) == text
    return new


@settings(max_examples=150, deadline=None)
@given(case=_solved())
def test_assembly_and_writer_match_the_references(case):
    inst, left, right = case
    kind, sched = _same_outcome(inst, Packing(dict(left)),
                                Packing(dict(right)))
    assert kind == "ok"
    assert len(sched.moves) == len({(m.time, m.node) for m in sched.moves})


@settings(max_examples=150, deadline=None)
@given(case=_solved(shapes=_SHAPES[:2] + _SHAPES[3:4]), data=st.data())
def test_foreign_ids_on_both_sides_match_the_references(case, data):
    inst, left, right = case
    a = inst.facility
    packings = []
    for bins, foreign in ((left, lambda v: v >= a),
                          (right, lambda v: v <= a)):
        others = [g.id for g in inst.groups if foreign(g.node)]
        bins = [(t, list(ids)) for t, ids in bins]
        if others:
            for _ in range(data.draw(st.integers(0, 6))):
                gid = data.draw(st.sampled_from(others))
                if bins and data.draw(st.booleans()):
                    ids = data.draw(st.sampled_from(bins))[1]
                    ids.insert(data.draw(st.integers(0, len(ids))), gid)
                else:
                    # a bin of foreign ids only, at a new index
                    t = data.draw(st.integers(1, 50))
                    if t not in dict(bins):
                        bins.append((t, [gid]))
        packings.append(Packing({t: tuple(ids) for t, ids in bins}))
    assert _same_outcome(inst, *packings)[0] == "ok"


@settings(max_examples=150, deadline=None)
@given(case=_solved(), shuffle=st.booleans(), data=st.data())
def test_bins_out_of_order_match_the_references(case, shuffle, data):
    inst, left, right = case
    packings = [Packing(dict(data.draw(st.permutations(bins)) if shuffle
                             else bins[::-1])) for bins in (left, right)]
    assert _same_outcome(inst, *packings)[0] == "ok"


@settings(max_examples=200, deadline=None)
@given(case=_solved(), data=st.data())
def test_the_first_of_two_bad_bins_matches_the_references(case, data):
    inst, left, right = case
    packings = {"left": dict(left), "right": dict(right)}
    for k in range(2):
        side = data.draw(st.sampled_from(("left", "right")))
        bins = packings[side]
        items = reduce_side(inst, side)[0].items
        if items and data.draw(st.booleans()):
            # a group in a bin before its ready time
            item = data.draw(st.sampled_from(items))
            gid = item.id
            t = data.draw(st.integers(item.ready - 3, item.ready - 1))
        else:
            gid = f"ghost{k}"
            t = data.draw(st.sampled_from(sorted(bins))) \
                if bins and data.draw(st.booleans()) \
                else data.draw(st.integers(1, 50))
        ids = list(bins.get(t, ()))
        ids.insert(data.draw(st.integers(0, len(ids))), gid)
        bins[t] = tuple(ids)
    packings = [Packing(dict(data.draw(st.permutations(list(bins.items())))))
                for bins in packings.values()]
    assert _same_outcome(inst, *packings)[0] == "raise"
