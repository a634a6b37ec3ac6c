"""Differential tests: the sparse packing helpers against the dense ones.

`ref_packing` keeps `packing_objective`, `pair_overflow_violations` and
`assemble_schedule` as they were while a packing listed every bin up to
the last, empty ones included. On greedy packings and on damaged ones
(unknown and duplicate ids, over-full bins, bins before an item's ready
time, emptied bins, runs of empty bins and far-away bin indices) both
versions must give the same objective, the same violations in the same
order and the same schedule, or fail with the same error. The one
difference: on an unknown id, where the dense `pair_overflow_violations`
raises a bare KeyError, the sparse one raises the ValueError
`packing_objective` raises.

The schedule assembly is compared on paths built so that one side, or
each side, reduces to the packing instance: on the right of a facility at
node 1, on the left of a facility at node n, and on both sides at once.
Every case also hands each side a foreign packing, one whose ids sit at
the facility or on the other side and so never move: the whole packing
to the empty side of a facility at either end of the path, and, on the
two-sided path, bins that mix both sides' ids with a group at the
facility.
"""

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

import ref_greedy
import ref_packing
from checkers import pair_overflow_violations
from pathevac import (Group, Packing, PackingInstance, PackingItem,
                      PathInstance, assemble_schedule, packing_objective,
                      reduce_side, solve_greedy)
from ref_items import packing_instance, path_instance
from test_greedy_reference import packing_instances


def _sparse(dense) -> Packing:
    return Packing(bins={j: tuple(bin_) for j, bin_ in
                         enumerate(dense, start=1) if bin_})


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (KeyError, ValueError) as exc:
        return "raise", type(exc), str(exc)


def _right_side(inst: PackingInstance) -> PathInstance:
    """A path whose right side reduces to `inst`: node 2 is the bottleneck's
    near node, and each other ready time r gets a node r - 1 epochs from
    it."""
    readies = sorted({it.ready for it in inst.items} - {1})
    node_of = {1: 2, **{r: k for k, r in enumerate(readies, start=3)}}
    gaps = [b - a for a, b in zip([1, *readies], readies)]
    path = path_instance(
        nodes=2 + len(readies), facility=1, capacity=inst.capacity,
        distances=(2, *gaps),
        groups=tuple(Group(id=it.id, node=node_of[it.ready], size=it.size,
                           weight=it.weight) for it in inst.items))
    assert reduce_side(path, "right")[0] == inst
    return path


def _left_side(inst: PackingInstance) -> PathInstance:
    """`_right_side` read from the other end: the facility is node n and
    the path's left side reduces to `inst`."""
    right = _right_side(inst)
    n = right.nodes
    path = replace(right, facility=n, distances=right.distances[::-1],
                   origins=tuple([n + 1 - v for v in right.origins]))
    assert reduce_side(path, "left")[0] == inst
    return path


def _two_sided(inst: PackingInstance) -> PathInstance:
    """`_right_side`'s groups, ids prefixed "R", right of the facility,
    and their mirror image, ids prefixed "L", left of it; group "F" sits
    at the facility."""
    right = _right_side(inst)
    m = right.nodes - 1                 # the nodes of one side
    path = path_instance(
        nodes=2 * m + 1, facility=m + 1, capacity=inst.capacity,
        distances=right.distances[::-1] + right.distances,
        groups=(*(replace(g, id="L" + g.id, node=m + 2 - g.node)
                  for g in right.groups),
                Group(id="F", node=m + 1, size=1, weight=1),
                *(replace(g, id="R" + g.id, node=g.node + m)
                  for g in right.groups)))
    for side, prefix in (("left", "L"), ("right", "R")):
        assert reduce_side(path, side)[0].items == tuple(
            replace(it, id=prefix + it.id) for it in inst.items)
    return path


def _same(new: tuple, old: tuple, packing: Packing) -> None:
    """Where the dense helper raises a bare KeyError on an unknown id, the
    sparse one raises ValueError("unknown item <id> in bin <j>") for a bin
    j that holds that id; otherwise the two outcomes are equal."""
    if old[:2] != ("raise", KeyError):
        assert new == old
        return
    unknown = old[2]                    # str(KeyError('x')) is "'x'"
    kind, exc_type, message = new
    assert (kind, exc_type) == ("raise", ValueError)
    prefix = f"unknown item {unknown} in bin "
    assert message.startswith(prefix)
    assert unknown in map(repr, packing.bins[int(message[len(prefix):])])


def _check(packing: Packing, dense: tuple, inst: PackingInstance) -> None:
    ref = ref_greedy.RefPacking(bins=dense)
    for new, old in ((packing_objective, ref_packing.packing_objective),
                     (pair_overflow_violations,
                      ref_packing.pair_overflow_violations)):
        _same(_outcome(new, packing, inst), _outcome(old, ref, inst), packing)
    _check_assembly(dense, inst)


def _check_assembly(dense: tuple, inst: PackingInstance) -> None:
    """`assemble_schedule` against the dense reference, one side at a
    time, both sides at once, and with foreign packings."""
    right = _right_side(inst)
    left = _left_side(inst)
    two = _two_sided(inst)
    lbins = tuple(tuple("L" + i for i in bin_) for bin_ in dense)
    rbins = tuple(tuple("R" + i for i in bin_) for bin_ in dense)
    cases = (
        (right, None, dense), (left, dense, None),
        # foreign: every id sits on the other side of the facility, and
        # the side named lies off the path
        (right, dense, None), (left, None, dense),
        (two, lbins, rbins),
        # foreign ids in every bin, bins holding only foreign ids among them
        (two, tuple(lb + ("F",) + rb for lb, rb in zip(lbins, rbins)),
         tuple(rb + lb + ("F",) for lb, rb in zip(lbins, rbins))))
    for path, lbin, rbin in cases:
        # a side without a packing is an empty one to `assemble_schedule`
        new = _outcome(assemble_schedule, path, _sparse(lbin or ()),
                       _sparse(rbin or ()))
        old = _outcome(ref_packing.assemble_schedule, path,
                       None if lbin is None else ref_greedy.RefPacking(lbin),
                       None if rbin is None else ref_greedy.RefPacking(rbin))
        assert new == old


@settings(max_examples=300, deadline=None)
@given(inst=packing_instances())
def test_greedy_packings_match_dense_reference(inst):
    packing, _ = solve_greedy(inst)
    dense = ref_greedy.solve_greedy(inst)[0].bins
    assert packing == _sparse(dense)
    _check(packing, dense, inst)


_DAMAGE = ("unknown", "duplicate", "merge", "early", "move", "empty", "gap")


def _damage(bins: list[list[str]], inst: PackingInstance, draw) -> None:
    """Apply one damage to a dense bin list in place."""
    ids = [i for bin_ in bins for i in bin_]
    ready = {it.id: it.ready for it in inst.items}

    def put(item_id: str, j: int) -> None:
        bins.extend([] for _ in range(j - len(bins)))
        bins[j - 1].append(item_id)

    def take() -> str:
        item_id = draw(st.sampled_from(ids))
        for bin_ in bins:
            if item_id in bin_:
                bin_.remove(item_id)
        return item_id

    far = st.integers(min_value=1, max_value=len(bins) + 20)
    kind = draw(st.sampled_from(_DAMAGE))
    if kind == "unknown":
        put("ghost", draw(far))
    elif kind == "duplicate" and ids:
        put(draw(st.sampled_from(ids)), draw(far))
    elif kind == "merge" and len(bins) > 1:
        # fold one bin into another: usually over the capacity
        a, b = draw(st.lists(st.integers(min_value=0, max_value=len(bins) - 1),
                             min_size=2, max_size=2, unique=True))
        bins[a].extend(bins[b])
        bins[b].clear()
    elif kind == "early" and any(ready.get(i, 1) > 1 for i in ids):
        ids = [i for i in ids if ready.get(i, 1) > 1]
        item_id = take()
        put(item_id, draw(st.integers(min_value=1,
                                      max_value=ready[item_id] - 1)))
    elif kind == "move" and ids:
        put(take(), draw(far))
    elif kind == "empty" and bins:
        bins[draw(st.integers(min_value=0, max_value=len(bins) - 1))].clear()
    elif kind == "gap":
        at = draw(st.integers(min_value=0, max_value=len(bins)))
        bins[at:at] = [[] for _ in range(draw(st.integers(min_value=1,
                                                          max_value=5)))]


@st.composite
def damaged_packings(draw):
    """A packing instance and its greedy dense bins after one to four
    damages."""
    inst = draw(packing_instances())
    bins = [list(bin_) for bin_ in ref_greedy.solve_greedy(inst)[0].bins]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        _damage(bins, inst, draw)
    return inst, tuple(tuple(bin_) for bin_ in bins)


# ready times 1, 3 and 2: three origins on a side; every case also runs
# the foreign packings and a facility at node n with a right packing
_ABC = packing_instance(10, (
    PackingItem(id="A", size=2, weight=1, ready=1),
    PackingItem(id="B", size=3, weight=2, ready=3),
    PackingItem(id="C", size=1, weight=3, ready=2)))


@settings(max_examples=400, deadline=None)
@given(case=damaged_packings())
# a bin whose items come from three origins, in no origin order
@example(case=(_ABC, ((), (), ("C", "A", "B"))))
# an id twice in one bin: with one origin, and with several
@example(case=(_ABC, (("A", "A"), (), ("B", "C", "B"))))
# several origins, an unknown id and a bin before its ready time
@example(case=(_ABC, (("C",), ("A", "ghost"), ("B",))))
def test_damaged_packings_match_dense_reference(case):
    inst, dense = case
    _check(_sparse(dense), dense, inst)
