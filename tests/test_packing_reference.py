"""Differential tests: the sparse packing helpers against the dense ones.

`ref_packing` keeps `packing_objective`, `validate_packing`, `paired_view`,
`pair_overflow_violations` and `assemble_schedule` as they were while a
packing listed every bin up to the last, empty ones included. On greedy
packings and on damaged ones (unknown and duplicate ids, over-full bins,
bins before an item's ready time, emptied bins, runs of empty bins and
far-away bin indices) both versions must give the same objective, the same
violations in the same order, the same paired objective with the same
rows for the non-empty pairs, and the same schedule, or fail with the
same error. The one difference: on an unknown id, where the dense
`paired_view` and `pair_overflow_violations` raise a bare KeyError, the
sparse ones raise the ValueError `packing_objective` raises.
"""

from hypothesis import given, settings, strategies as st

import ref_greedy
import ref_packing
from pathevac import (Group, Packing, PackingInstance, PathInstance,
                      assemble_schedule, packing_objective,
                      pair_overflow_violations, paired_view, reduce_side,
                      solve_greedy, validate_packing)
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
    path = PathInstance(
        nodes=2 + len(readies), facility=1, capacity=inst.capacity,
        distances=(2, *gaps),
        groups=tuple(Group(id=it.id, node=node_of[it.ready], size=it.size,
                           weight=it.weight) for it in inst.items))
    assert reduce_side(path, "right")[0] == inst
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
                     (validate_packing, ref_packing.validate_packing),
                     (pair_overflow_violations,
                      ref_packing.pair_overflow_violations)):
        _same(_outcome(new, packing, inst), _outcome(old, ref, inst), packing)
    old = _outcome(ref_packing.paired_view, ref, inst)
    if old[0] == "ok":
        rows, total = old[1]
        old = "ok", (tuple(r for r in rows if r.items), total)
    _same(_outcome(paired_view, packing, inst), old, packing)
    path = _right_side(inst)
    assert _outcome(assemble_schedule, path, None, packing) == \
        _outcome(ref_packing.assemble_schedule, path, None, ref)


@settings(max_examples=300, deadline=None)
@given(inst=packing_instances())
def test_greedy_packings_match_dense_reference(inst):
    packing, _ = solve_greedy(inst)
    dense = ref_greedy.solve_greedy(inst)[0].bins
    assert packing == _sparse(dense)
    _check(packing, dense, inst)


_DAMAGE = ("unknown", "duplicate", "merge", "early", "move", "empty", "gap")


def _damage(bins: list[list[str]], inst: PackingInstance, data) -> None:
    """Apply one damage to a dense bin list in place."""
    draw = data.draw
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


@settings(max_examples=400, deadline=None)
@given(inst=packing_instances(), data=st.data())
def test_damaged_packings_match_dense_reference(inst, data):
    bins = [list(bin_) for bin_ in ref_greedy.solve_greedy(inst)[0].bins]
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        _damage(bins, inst, data)
    dense = tuple(tuple(bin_) for bin_ in bins)
    _check(_sparse(dense), dense, inst)
