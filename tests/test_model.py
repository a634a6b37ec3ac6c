import copy
import dataclasses
import inspect
import io
import json
import pickle
import time
import types
from itertools import starmap

import pytest
from hypothesis import example, given, settings, strategies as st

from pathevac import (Group, InstanceError, PathInstance, bundled_examples,
                      exact_dwsf_opt, gen_random,
                      GenParams, PackParams, gen_from_partition,
                      gen_random_packing, model, parse_instance,
                      parse_packing_instance, parse_schedule,
                      serialize_instance, serialize_packing_instance,
                      serialize_schedule)
from pathevac.evac import _positions, fractional_lower_bound, solve_report
from pathevac.model import (Move, Packing, PackingInstance, PackingItem,
                            Schedule, write_schedule)
from checkers import parse_packing
from ref_items import packing_instance, path_instance
from ref_parse_schedule import ref_parse_schedule
from ref_serialize_instance import ref_serialize_instance
from ref_serialize_packing import (ref_serialize_packing,
                                   ref_serialize_packing_instance)
from ref_validate_instance import ref_validate_instance
import ref_move_schedule
import ref_value_types


def _doc(**overrides):
    doc = {
        "nodes": 3,
        "facility": 3,
        "capacity": 3,
        "edges": [
            {"from": 1, "to": 2, "distance": 1},
            {"from": 2, "to": 3, "distance": 2},
        ],
        "groups": [
            {"id": "G11", "node": 1, "size": 2, "weight": 5},
            {"id": "G21", "node": 2, "size": 3, "weight": 5},
        ],
    }
    doc.update(overrides)
    return doc


def _parse(doc):
    return parse_instance(json.dumps(doc))


def test_validate_accepts_well_formed():
    inst = _parse(_doc())
    assert inst.nodes == 3 and inst.facility == 3
    assert inst.distances == (1, 2)
    assert inst.groups[0] == Group(id="G11", node=1, size=2, weight=5)
    assert inst.is_uniform


def test_validate_collects_all_violations():
    doc = _doc(facility=9, capacity=0)
    doc["groups"].append({"id": "G11", "node": 1, "size": 1, "weight": 1})
    with pytest.raises(InstanceError) as err:
        _parse(doc)
    text = "; ".join(err.value.violations)
    assert "facility" in text
    assert "capacity" in text
    assert "duplicate id" in text
    assert len(err.value.violations) >= 3


def test_validate_edge_cover():
    doc = _doc(edges=[{"from": 1, "to": 2, "distance": 1}])
    with pytest.raises(InstanceError, match="expected 2 edges"):
        _parse(doc)
    doc = _doc()
    doc["edges"][1] = {"from": 3, "to": 2, "distance": 1}
    with pytest.raises(InstanceError, match="must join nodes 2 and 3"):
        _parse(doc)


@pytest.mark.parametrize("ends", [(True, 2), (1, 2.0), (True, 2.0),
                                  (1.0, 2), ("1", 2)])
def test_validate_edge_ends_must_be_ints(ends):
    doc = _doc()
    doc["edges"][0].update({"from": ends[0], "to": ends[1]})
    with pytest.raises(InstanceError) as err:
        _parse(doc)
    assert err.value.violations == [
        f"edges[0]: must join nodes 1 and 2 in order, "
        f"got {ends[0]!r}->{ends[1]!r}"]


def test_validate_rejects_bools():
    with pytest.raises(InstanceError, match="nodes"):
        _parse(_doc(nodes=True))


def test_group_must_fit_through_route():
    doc = _doc()
    doc["groups"][1]["size"] = 4  # capacity is 3 on every edge
    with pytest.raises(InstanceError, match="exceeds capacity"):
        _parse(doc)
    # per-edge override can unblock the same group
    doc["capacity"] = 4
    doc["edges"][0]["capacity"] = 3  # not on node 2's route to facility 3
    inst = _parse(doc)
    assert not inst.is_uniform
    assert inst.edge_capacity(1) == 3 and inst.edge_capacity(2) == 4


def test_group_behind_narrow_edge_rejected():
    doc = _doc()
    doc["edges"][1]["capacity"] = 2
    with pytest.raises(InstanceError, match=r"edge \{2,3\}"):
        _parse(doc)


def test_groups_over_overrides_on_different_edges():
    # both groups start at node 1 and cross both edges; each is too large
    # for one of them, and the messages follow the group order
    doc = _doc(capacity=5)
    doc["edges"][0]["capacity"] = 4
    doc["edges"][1]["capacity"] = 2
    doc["groups"] = [{"id": "big", "node": 1, "size": 5, "weight": 1},
                     {"id": "mid", "node": 1, "size": 3, "weight": 1},
                     {"id": "ok", "node": 2, "size": 2, "weight": 1}]
    with pytest.raises(InstanceError) as err:
        _parse(doc)
    assert err.value.violations == [
        "group 'big': size 5 exceeds capacity 4 on edge {1,2}",
        "group 'big': size 5 exceeds capacity 2 on edge {2,3}",
        "group 'mid': size 3 exceeds capacity 2 on edge {2,3}"]


def test_capacity_check_costs_one_step_per_group(monkeypatch):
    # every group crosses every edge; the check must not walk each route
    n = 20000
    text = json.dumps({
        "nodes": n, "facility": n, "capacity": 3,
        "edges": [{"from": k, "to": k + 1, "distance": 1}
                  for k in range(1, n)],
        "groups": [{"id": f"g{i}", "node": 1, "size": 1 + i % 3,
                    "weight": 1 + i % 7} for i in range(n)]})
    # the check makes no call; fail at the first, as a walk of every
    # route would make 19999 per group
    def walked(self, k):
        raise AssertionError(f"edge {k} walked")
    monkeypatch.setattr(PathInstance, "edge_capacity", walked)
    # CPU time: a loaded machine stretches wall time with no code at fault
    start = time.process_time()
    inst = parse_instance(text)
    bound = fractional_lower_bound(inst, True)
    assert time.process_time() - start < 1.0
    assert len(inst.ids) == n and bound > 0


def test_one_node_path_is_valid():
    inst = _parse({
        "nodes": 1, "facility": 1, "capacity": 1, "edges": [],
        "groups": [{"id": "A", "node": 1, "size": 1, "weight": 1}]})
    assert inst.distances == ()


def test_instance_round_trip_is_byte_stable():
    text = serialize_instance(_parse(_doc()))
    assert serialize_instance(parse_instance(text)) == text
    assert text.endswith("\n")


def test_instance_round_trip_is_the_identity():
    # every edge spells out the uniform capacity: the instance stores no
    # overrides, so the text written without them reads back equal
    doc = _doc(capacity=4)
    for edge in doc["edges"]:
        edge["capacity"] = 4
    inst = _parse(doc)
    assert inst.edge_capacities is None and inst.is_uniform
    assert parse_instance(serialize_instance(inst)) == inst
    assert dataclasses.replace(inst, edge_capacities=(4, 4)) == inst
    assert not dataclasses.replace(inst, edge_capacities=(4, 5)).is_uniform


def test_path_distance():
    inst = _parse(_doc())
    pos = _positions(inst)
    assert abs(pos[1] - pos[3]) == 3
    assert abs(pos[3] - pos[1]) == 3
    assert abs(pos[2] - pos[2]) == 0


def test_parse_rejects_bad_json():
    with pytest.raises(InstanceError, match="json"):
        parse_instance("{nope")


# the decoder raises RecursionError on the first and a bare ValueError
# (the int digit limit) on the second
_UNDECODABLE = {"deep": "[" * 100000 + "]" * 100000,
                "long-int": '{"moves": ' + "7" * 5000 + "}"}


@pytest.mark.parametrize("kind", sorted(_UNDECODABLE))
@pytest.mark.parametrize("parse", [parse_instance, parse_schedule,
                                   parse_packing_instance, parse_packing])
def test_parse_wraps_every_decoder_error(parse, kind):
    with pytest.raises(InstanceError) as err:
        parse(_UNDECODABLE[kind])
    assert len(err.value.violations) == 1
    assert err.value.violations[0].startswith("json: ")


def test_packing_round_trip():
    packing = Packing(bins={1: ("A",), 2: ("B", "D")})
    text = ref_serialize_packing(packing, 26)
    parsed, objective = parse_packing(text)
    assert parsed == packing and objective == 26
    assert ref_serialize_packing(parsed, objective) == text


def test_packing_file_keeps_empty_bins():
    # the file lists bins 1..max densely; parsing drops the empty ones
    packing = Packing(bins={2: ("A",), 5: ("B", "D")})
    text = ref_serialize_packing(packing, 7)
    assert json.loads(text)["bins"] == [[], ["A"], [], [], ["B", "D"]]
    assert parse_packing(text) == (packing, 7)
    assert json.loads(ref_serialize_packing(Packing(bins={}), 0))["bins"] \
        == []


def test_packing_parse_errors():
    with pytest.raises(InstanceError, match="bins"):
        parse_packing(json.dumps({"bins": [["A"], [1]]}))
    with pytest.raises(InstanceError, match="objective"):
        parse_packing(json.dumps({"bins": [["A"]], "objective": "x"}))


_ITEM = {"id": "a", "size": 1, "weight": 1, "ready": 1}


@pytest.mark.parametrize("doc, message", [
    ([], "document: expected a JSON object"),
    ({"capacity": 3, "items": {}}, "items: expected a list"),
    ({"capacity": 3, "items": [1]}, "items[0]: expected an object"),
    ({"capacity": 3, "items": [{**_ITEM, "id": ""}]},
     "items[0].id: expected a non-empty string"),
    ({"capacity": 3, "items": [_ITEM, _ITEM]}, "items: duplicate id 'a'"),
    ({"capacity": 3, "items": [{**_ITEM, "id": "\ud800"}]},
     "items[0].id: expected UTF-8 text, got '\\ud800'"),
], ids=["document", "items", "item", "id", "duplicate", "surrogate"])
def test_packing_instance_rejections(doc, message):
    with pytest.raises(InstanceError) as err:
        parse_packing_instance(json.dumps(doc))
    assert err.value.violations == [message]


@pytest.mark.parametrize("doc, message", [
    ([], "document: expected a JSON object"),
    ({"bins": {}}, "bins: expected a list of lists"),
], ids=["document", "bins"])
def test_packing_rejections(doc, message):
    with pytest.raises(InstanceError) as err:
        parse_packing(json.dumps(doc))
    assert err.value.violations == [message]


@pytest.mark.parametrize("doc, message", [
    ([], "document: expected a JSON object"),
    (_doc(edges=[1, {"from": 2, "to": 3, "distance": 2}]),
     "edges[0]: expected an object"),
    (_doc(groups=[{"id": "\ud800", "node": 1, "size": 1, "weight": 1}]),
     "groups[0].id: expected UTF-8 text, got '\\ud800'"),
], ids=["document", "edge", "surrogate"])
def test_instance_rejections(doc, message):
    with pytest.raises(InstanceError) as err:
        _parse(doc)
    assert err.value.violations == [message]


def test_non_ascii_ids_are_accepted():
    inst = _parse(_doc(groups=[
        {"id": "Gé", "node": 1, "size": 1, "weight": 1}]))
    assert inst.groups[0].id == "Gé"
    pinst = parse_packing_instance(json.dumps(
        {"capacity": 3, "items": [{**_ITEM, "id": "ü"}]}))
    assert pinst.items[0].id == "ü"


def test_packing_instance_round_trip():
    text = json.dumps({
        "capacity": 4,
        "items": [{"id": "a", "size": 3, "weight": 2, "ready": 1}]})
    inst = parse_packing_instance(text)
    assert serialize_packing_instance(
        parse_packing_instance(serialize_packing_instance(inst))) \
        == serialize_packing_instance(inst)


def test_packing_instance_is_columns_with_an_items_view():
    columns = (("a", "é"), (3, 2), (5, 1), (1, 3))
    inst = PackingInstance(4, *columns)
    # the one constructor takes the capacity and the columns, kept as given
    assert tuple(inspect.signature(PackingInstance).parameters) \
        == ("capacity", "ids", "sizes", "weights", "ready")
    assert (inst.ids, inst.sizes, inst.weights, inst.ready) == columns
    same = PackingInstance(capacity=4, ids=("a", "é"), sizes=(3, 2),
                           weights=(5, 1), ready=(1, 3))
    assert same == inst and hash(same) == hash(inst) and same is not inst
    assert inst != PackingInstance(5, *columns)
    # the view gives the items back, built anew on each read, and the
    # tests' item-form helper gives the instance back from them
    items = (PackingItem("a", 3, 5, 1), PackingItem("é", 2, 1, 3))
    assert inst.items == items
    assert inst.items is not inst.items
    assert packing_instance(4, items) == inst
    assert inst.positions() == {"a": 0, "é": 1}
    assert dataclasses.replace(inst, ready=(2, 2)) \
        == PackingInstance(4, ("a", "é"), (3, 2), (5, 1), (2, 2))
    for name in ("capacity", "ids", "sizes", "weights", "ready"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, name, ())
    assert not hasattr(inst, "__dict__")
    for again in (copy.copy(inst), copy.deepcopy(inst),
                  pickle.loads(pickle.dumps(inst))):
        assert type(again) is PackingInstance and again == inst
    empty = PackingInstance(1, (), (), (), ())
    assert empty.items == () and empty.positions() == {}


def test_path_instance_is_columns_with_a_groups_view():
    path = (3, 2, 4, (1, 2))
    columns = (("a", "é"), (1, 3), (3, 2), (5, 1))
    inst = PathInstance(*path, *columns)
    # the one constructor takes the path and the group columns, kept as
    # given
    assert tuple(inspect.signature(PathInstance).parameters) == (
        "nodes", "facility", "capacity", "distances", "ids", "origins",
        "sizes", "weights", "edge_capacities")
    assert (inst.ids, inst.origins, inst.sizes, inst.weights) == columns
    assert inst.edge_capacities is None and inst.is_uniform
    same = PathInstance(nodes=3, facility=2, capacity=4, distances=(1, 2),
                        ids=("a", "é"), origins=(1, 3), sizes=(3, 2),
                        weights=(5, 1))
    assert same == inst and hash(same) == hash(inst) and same is not inst
    assert inst != PathInstance(3, 2, 5, (1, 2), *columns)
    # the view gives the groups back, built anew on each read, and the
    # tests' group-form helper gives the instance back from them
    groups = (Group("a", 1, 3, 5), Group("é", 3, 2, 1))
    assert inst.groups == groups
    assert inst.groups is not inst.groups
    assert all(g is not h for g, h in zip(inst.groups, inst.groups))
    assert path_instance(*path, groups) == inst
    assert dataclasses.replace(inst, origins=(3, 1)) \
        == PathInstance(*path, ("a", "é"), (3, 1), (3, 2), (5, 1))
    # overrides that all equal the uniform capacity fold into None, through
    # the constructor and through `replace`
    assert PathInstance(*path, *columns, (4, 4)) == inst
    assert dataclasses.replace(inst, edge_capacities=(4, 4)) == inst
    wide = PathInstance(*path, *columns, (4, 5))
    assert wide.edge_capacities == (4, 5) and not wide.is_uniform
    assert wide != inst and wide.edge_capacity(2) == 5
    for name in ("nodes", "facility", "capacity", "distances", "ids",
                 "origins", "sizes", "weights", "edge_capacities"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, name, ())
    assert not hasattr(inst, "__dict__")
    for value in (inst, wide):
        for again in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert type(again) is PathInstance and again == value
    empty = PathInstance(1, 1, 1, (), (), (), (), ())
    assert empty.groups == () and empty.is_uniform


def test_packing_instance_size_over_capacity():
    with pytest.raises(InstanceError, match="exceeds"):
        parse_packing_instance(json.dumps({
            "capacity": 2,
            "items": [{"id": "a", "size": 3, "weight": 1, "ready": 1}]}))


def test_schedule_round_trip_and_canonical_order():
    sched = parse_schedule(json.dumps({"moves": [
        {"time": 2, "node": 1, "groups": ["B"]},
        {"time": 1, "node": 2, "groups": ["A", "C"]},
    ]}))
    assert sched.moves[0] == Move(time=1, node=2, groups=("A", "C"))
    text = serialize_schedule(sched)
    assert serialize_schedule(parse_schedule(text)) == text


_ids = st.text(alphabet=st.one_of(
    st.characters(),
    st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\ufeffé日\U0001f600')),
    min_size=1, max_size=6)
_group_lists = st.lists(_ids, max_size=4).map(tuple)


@st.composite
def _moves(draw, max_size=6):
    """Moves whose group tuples mostly come from a small pool, as the moves
    along a bin's route share theirs: a pool entry drawn twice is the same
    tuple, a copy of one an equal but distinct tuple. Keys are often small
    and distinct, and the list comes in (time, node) order, as a
    `Schedule` holds it."""
    pool = draw(st.lists(_group_lists, min_size=1, max_size=3))
    groups = st.one_of(st.sampled_from(pool),
                       st.sampled_from(pool).map(lambda ids: tuple(list(ids))),
                       _group_lists)
    moves = draw(st.lists(st.builds(
        Move,
        time=st.integers(min_value=0, max_value=3)
        | st.integers(min_value=0, max_value=10 ** 12),
        node=st.integers(min_value=1, max_value=3)
        | st.integers(min_value=1, max_value=300),
        groups=groups), max_size=max_size,
        unique_by=lambda m: (m.time, m.node)))
    moves.sort(key=lambda m: (m.time, m.node))
    return moves


def json_schedule_text(moves) -> str:
    """The schedule text as `json.dumps` writes it, which defines the
    writer's bytes."""
    return json.dumps({"moves": [
        {"time": m.time, "node": m.node, "groups": list(m.groups)}
        for m in moves]},
        indent=2, ensure_ascii=False) + "\n"


_AB = ("A", "B")


@settings(max_examples=200)
@given(moves=_moves(max_size=30))
@example(moves=[Move(1, 2, _AB), Move(1, 3, ("C",)), Move(2, 1, _AB)])
@example(moves=[Move(1, 2, _AB), Move(1, 3, ("A", "B")), Move(2, 1, _AB)])
@example(moves=[Move(0, 1, ()), Move(0, 2, ()), Move(3, 1, _AB)])
@example(moves=[Move(1, 1, ('"\\', "\x00\u2028", "\U0001f600")),
                Move(2, 1, ('"\\', "\x00\u2028", "\U0001f600"))])
def test_schedule_writer_matches_json_dumps(moves):
    expected = json_schedule_text(moves)
    assert serialize_schedule(Schedule(moves=tuple(moves))) == expected
    assert ref_move_schedule.serialize_schedule(
        ref_move_schedule.Schedule(moves=tuple(moves))) == expected
    fh = io.StringIO()
    write_schedule(Schedule(moves=tuple(moves)), fh)
    assert fh.getvalue() == expected


def test_schedule_writer_edge_cases():
    assert serialize_schedule(Schedule(moves=())) == \
        json.dumps({"moves": []}, indent=2) + "\n"
    # a move built in code may carry no groups; parse_schedule rejects one
    empty = Schedule(moves=(Move(time=3, node=1, groups=()),))
    assert serialize_schedule(empty) == json.dumps(
        {"moves": [{"time": 3, "node": 1, "groups": []}]}, indent=2) + "\n"


@settings(max_examples=60)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       nodes=st.integers(min_value=1, max_value=12),
       groups=st.integers(min_value=0, max_value=25),
       capacity=st.integers(min_value=1, max_value=8),
       max_distance=st.integers(min_value=1, max_value=4))
def test_schedule_writer_matches_reference_on_solver_schedules(
        seed, nodes, groups, capacity, max_distance):
    inst = gen_random(seed, GenParams(nodes=nodes, groups=groups,
                                      capacity=capacity,
                                      max_distance=max_distance))
    sched = solve_report(inst).schedule
    text = json_schedule_text(sched.moves)
    assert serialize_schedule(sched) == text
    assert ref_move_schedule.serialize_schedule(sched) == text
    # the parsed copy carries equal but distinct tuples
    assert serialize_schedule(parse_schedule(text)) == text
    if len(sched.moves) > 1:
        with pytest.raises(ValueError, match="must strictly ascend"):
            Schedule(moves=sched.moves[::-1])


_CHUNK = model._CHUNK
_ESCAPED = ('"\\', "\x00\u2028", "\U0001f600")


def _chunk_rows(n):
    """n rows in (time, node) order, two per epoch, with rows _CHUNK - 1
    and _CHUNK in one epoch; the group lists cycle through one that recurs
    in every chunk, none, ids that need escapes and an id of the row's
    own."""
    pool = (_AB, (), _ESCAPED)
    rows = []
    for k in range(n):
        j = k + 1 - _CHUNK
        rows.append((_CHUNK + j // 2, 1 + 40 * (j % 2),
                     pool[k % 4] if k % 4 < 3 else (f"g{k}",)))
    return rows


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               2 * _CHUNK + 1])
def test_schedule_writer_across_chunk_boundaries(n):
    rows = _chunk_rows(n)
    if n > _CHUNK:
        # an epoch and a recurring group list straddle the first boundary
        assert rows[_CHUNK - 1][0] == rows[_CHUNK][0]
        assert _AB in {r[2] for r in rows[:_CHUNK]} & \
            {r[2] for r in rows[_CHUNK:]}
    moves = tuple(starmap(Move, rows))
    expected = json_schedule_text(moves)
    assert ref_move_schedule.serialize_schedule(
        ref_move_schedule.Schedule(moves=moves)) == expected
    sched = Schedule.from_rows(rows)
    assert serialize_schedule(sched) == expected
    writes = []
    write_schedule(sched, types.SimpleNamespace(write=writes.append))
    assert "".join(writes) == expected
    # one write per chunk, each of _CHUNK entries but the last
    assert [w.count('"time": ') for w in writes] == \
        ([min(_CHUNK, n - k) for k in range(0, n, _CHUNK)] or [0])


def test_schedule_writer_renders_each_group_list_once(monkeypatch):
    encoded = []
    monkeypatch.setattr(model, "encode_basestring",
                        lambda gid: encoded.append(gid) or f'"{gid}"')
    sched = Schedule(moves=(Move(1, 1, _AB), Move(1, 2, ("C",)),
                            Move(2, 2, _AB), Move(3, 1, tuple(list(_AB)))))
    serialize_schedule(sched)
    assert encoded == ["A", "B", "C"]
    # a list that comes back in a later chunk is not rendered again
    sched = Schedule.from_rows(
        [(1, 1, _AB)] + [(2, v, ()) for v in range(1, _CHUNK + 1)]
        + [(3, 1, tuple(list(_AB)))])
    for write in (serialize_schedule,
                  lambda s: write_schedule(s, io.StringIO())):
        encoded.clear()
        write(sched)
        assert encoded == ["A", "B"]


def test_schedule_parse_errors():
    with pytest.raises(InstanceError, match="duplicate entry"):
        parse_schedule(json.dumps({"moves": [
            {"time": 1, "node": 2, "groups": ["A"]},
            {"time": 1, "node": 2, "groups": ["B"]}]}))
    with pytest.raises(InstanceError, match="duplicate group"):
        parse_schedule(json.dumps({"moves": [
            {"time": 1, "node": 2, "groups": ["A", "A"]}]}))
    with pytest.raises(InstanceError, match="groups"):
        parse_schedule(json.dumps({"moves": [
            {"time": 1, "node": 2, "groups": []}]}))


# schedule documents for the reader against the one it replaced: entries
# mostly well-formed over few (time, node) keys, so keys repeat and arrive
# in any order, mixed with damaged ones
_good_entry = st.fixed_dictionaries({
    "time": st.integers(min_value=1, max_value=4),
    "node": st.integers(min_value=1, max_value=3),
    "groups": st.lists(st.sampled_from("ABCD"), min_size=1, max_size=3,
                       unique=True)})
_junk = st.one_of(
    st.sampled_from((True, False, 0, -1, 1.0, 2.5, None, "", "1", [], {})),
    st.integers(min_value=10 ** 18, max_value=10 ** 30),
    st.floats(allow_nan=False), st.text(max_size=2))
_damaged_entry = st.fixed_dictionaries({}, optional={
    "time": st.one_of(st.integers(min_value=1, max_value=4), _junk),
    "node": st.one_of(st.integers(min_value=1, max_value=3), _junk),
    "groups": st.one_of(
        st.lists(st.one_of(st.sampled_from(("A", "B", "")), _junk),
                 max_size=3),
        _junk),
    "extra": _junk})
_twice_entry = st.fixed_dictionaries({
    "time": st.integers(min_value=1, max_value=4),
    "node": st.integers(min_value=1, max_value=3),
    "groups": st.lists(st.sampled_from("AB"), min_size=2, max_size=3)})


@st.composite
def _one_bad_field(draw):
    entry = draw(_good_entry)
    key = draw(st.sampled_from(("time", "node", "groups")))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        del entry[key]
    elif key == "groups":
        bad = draw(st.one_of(st.just(""), _junk))
        entry[key] = draw(st.sampled_from(([bad], [*entry[key], bad], bad)))
    else:
        entry[key] = draw(st.sampled_from((True, False, 0, -1, 1.0, "1")))
    return entry


_entries = st.lists(st.one_of(_good_entry, _good_entry, _twice_entry,
                              _one_bad_field(), _one_bad_field(),
                              _damaged_entry, _junk),
                    max_size=8)
_unique = st.lists(_good_entry, max_size=8,
                   unique_by=lambda m: (m["time"], m["node"]))
_schedule_docs = st.one_of(
    st.fixed_dictionaries({"moves": st.lists(_good_entry, max_size=8)}),
    st.fixed_dictionaries({"moves": _unique}),
    st.fixed_dictionaries({"moves": _unique.map(
        lambda ms: sorted(ms, key=lambda m: (m["time"], m["node"])))}),
    st.fixed_dictionaries({"moves": _entries}),
    st.fixed_dictionaries({"moves": _entries}),
    st.fixed_dictionaries({"moves": _entries}),
    st.fixed_dictionaries({}, optional={"moves": _junk}),
    _junk)


def _parsed(parse, text):
    try:
        return parse(text)
    except InstanceError as exc:
        return exc.violations


@settings(max_examples=500)
@given(doc=_schedule_docs)
@example(doc={"moves": [{"time": True, "node": 1, "groups": ["A"]}]})
@example(doc={"moves": [{"time": 1, "node": True, "groups": ["A"]}]})
@example(doc={"moves": [{"time": 0, "node": 1, "groups": ["A"]}]})
@example(doc={"moves": [{"time": 2, "node": 1, "groups": ["A"]},
                        {"time": 1, "node": 3, "groups": ["B"]}]})
# entries that break two rules at once, and a bad entry before a good one
# with the same key
@example(doc={"moves": [{"time": 0, "node": 1, "groups": ["A", "A"]}]})
@example(doc={"moves": [{"time": 1, "node": True, "groups": []}]})
@example(doc={"moves": [{"time": 1, "node": 2, "groups": [""]},
                        {"time": 1, "node": 2, "groups": ["A"]}]})
# move-shaped objects where no move entry is: the top-level object itself,
# with and without moves, one in a groups list and one under an extra key
@example(doc={"time": 1, "node": 2, "groups": ["A"]})
@example(doc={"time": 1, "node": 2, "groups": ["A"],
              "moves": [{"time": 2, "node": 1, "groups": ["B"]},
                        {"time": 1, "node": 3, "groups": ["A"]}]})
@example(doc={"moves": [{"time": 1, "node": 2, "groups": [
    {"time": 1, "node": 2, "groups": ["A"]}]}]})
@example(doc={"moves": [{"time": 1, "node": 2, "groups": ["A"],
                         "extra": {"time": 1, "node": 2, "groups": ["B"]}}]})
# a message quotes a bad time as written, keys in order and extra key kept
@example(doc={"moves": [{"time": [{"node": 1, "time": 2, "groups": ["A"],
                                   "x": 0}],
                         "node": 1, "groups": ["A"]}]})
# a canonical document reversed
@example(doc={"moves": [{"time": 3, "node": 1, "groups": ["A"]},
                        {"time": 2, "node": 2, "groups": ["A", "B"]},
                        {"time": 2, "node": 1, "groups": ["B"]},
                        {"time": 1, "node": 3, "groups": ["C"]}]})
def test_schedule_reader_matches_reference(doc):
    text = json.dumps(doc)
    parsed = _parsed(parse_schedule, text)
    assert parsed == _parsed(ref_parse_schedule, text)
    assert parsed == _parsed(_ref_move_parse_schedule, text)


def _ref_move_parse_schedule(text):
    """The `Move`-based reader's schedule, as a `Schedule` of rows."""
    return Schedule(moves=ref_move_schedule.parse_schedule(text).moves)


def test_schedule_reader_matches_reference_after_a_byte_order_mark():
    # the reader's decoder leaves this text to json.loads, for its message
    text = "\ufeff" + json.dumps({"moves": []})
    assert _parsed(parse_schedule, text) == _parsed(ref_parse_schedule, text)
    assert _parsed(parse_schedule, text) == \
        _parsed(_ref_move_parse_schedule, text)
    assert "BOM" in _parsed(parse_schedule, text)[0]


def test_schedule_reader_checks_no_field_of_a_file_in_order(monkeypatch):
    # the decoder builds each well-formed move: a document in order skips
    # the per-entry pass and calls no `_require_int`, and one out of order
    # is read again as written and goes through the pass once
    calls = []
    passes = []
    checked = model._require_int
    per_entry = model._checked_moves
    monkeypatch.setattr(model, "_require_int",
                        lambda *args: calls.append(args) or checked(*args))
    monkeypatch.setattr(model, "_checked_moves",
                        lambda raw: passes.append(len(raw)) or per_entry(raw))
    sched = Schedule(moves=tuple(Move(1 + k // 3, 1 + k % 3, (f"G{k}",))
                                 for k in range(1000)))
    text = serialize_schedule(sched)
    assert parse_schedule(text) == sched
    assert passes == []
    assert calls == []
    doc = json.loads(text)
    doc["moves"].reverse()
    assert parse_schedule(json.dumps(doc)) == sched
    assert passes == [1000]
    doc["moves"][0]["time"] = 0
    with pytest.raises(InstanceError, match=r"moves\[0\]\.time"):
        parse_schedule(json.dumps(doc))


def test_schedule_from_map_drops_empty_moves():
    sched = Schedule.from_map({(1, 2): ("A",), (2, 1): ()})
    assert sched.moves == (Move(time=1, node=2, groups=("A",)),)


def test_schedule_keys_strictly_ascend():
    assert Schedule(moves=()).moves == ()
    assert Schedule.from_rows(()) == Schedule(moves=()) == Schedule.from_map({})
    # equal times, ascending nodes
    moves = (Move(2, 1, ("A",)), Move(2, 3, ("B",)), Move(3, 1, ("A",)))
    rows = tuple((m.time, m.node, m.groups) for m in moves)
    sched = Schedule(moves=moves)
    assert sched.moves == moves
    assert sched.rows == rows
    # the three constructors give one schedule, `from_map` from keys in any
    # order, and its `Move` view gives the moves back
    same = (Schedule.from_rows(rows), Schedule.from_rows(list(rows)),
            Schedule.from_map({(t, v): ids for t, v, ids in rows[::-1]}))
    for other in same:
        assert other == sched and hash(other) == hash(sched)
        assert other.moves == moves
        assert Schedule(moves=other.moves) == sched
    # each raises the same text on a descending and on a repeated key
    for bad, text in (
            ((rows[1], rows[0]), "move at time 2, node 1 follows "
                                 "the move at time 2, node 3"),
            ((*rows[:2], (2, 3, ("C",))), "move at time 2, node 3 follows "
                                          "the move at time 2, node 3")):
        for build in (lambda: Schedule(moves=starmap(Move, bad)),
                      lambda: Schedule.from_rows(bad)):
            with pytest.raises(ValueError, match=text):
                build()
    # `replace` builds through the constructor, so it checks too
    assert dataclasses.replace(sched, moves=moves[1:]).moves == moves[1:]
    with pytest.raises(ValueError, match="move at time 2, node 3 follows "
                                         "the move at time 3, node 1"):
        dataclasses.replace(sched, moves=moves[::-1])


def _ascending(sched: Schedule) -> bool:
    keys = [(m.time, m.node) for m in sched.moves]
    return keys == sorted(set(keys))


def test_every_builder_gives_ascending_keys():
    assert _ascending(Schedule.from_map(
        {(3, 1): ("A",), (1, 2): ("B",), (1, 1): ("C",), (2, 2): ()}))
    for seed in range(20):
        inst = gen_random(seed, GenParams(nodes=2 + seed % 9,
                                          groups=1 + seed % 13,
                                          capacity=2 + seed % 5,
                                          max_distance=1 + seed % 4))
        sched = solve_report(inst).schedule
        assert _ascending(sched)
        doc = json.loads(serialize_schedule(sched))
        doc["moves"].reverse()
        parsed = parse_schedule(json.dumps(doc))
        assert _ascending(parsed) and parsed == sched
    for fx in bundled_examples().values():
        assert _ascending(fx.schedule)
    # the oracle's single-origin budget on two nodes, its 5-group one on more
    for seed in range(20):
        inst = gen_random(seed, GenParams(nodes=2 + seed % 3,
                                          groups=1 + seed % 4,
                                          capacity=2 + seed % 5,
                                          max_weight=9, max_distance=2,
                                          facility=2 if seed % 3 == 0
                                          else None))
        assert _ascending(exact_dwsf_opt(inst)[1])


@pytest.mark.parametrize("value, change", [
    (Move(3, 2, ("A", "B")), {"time": 2}),
    (Group("A", 2, 3, 4), {"node": 1}),
    (PackingItem("A", 3, 4, 2), {"ready": 1}),
    (Move(10 ** 12, 300, ()), {"groups": ("\u2028", "\U0001f600")}),
    (Group('"é"', 1, 2 ** 70, 1), {"id": "G"}),
    (PackingItem("\x00", 1, 1, 10 ** 9), {"weight": -1}),
])
def test_slotted_value_types_keep_their_contract(value, change):
    cls = type(value)
    names = {Move: ("time", "node", "groups"),
             Group: ("id", "node", "size", "weight"),
             PackingItem: ("id", "size", "weight", "ready")}[cls]
    assert tuple(f.name for f in dataclasses.fields(value)) == names
    values = tuple(getattr(value, name) for name in names)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 1)
    # a name that is no field has no slot; the frozen `__setattr__` of a
    # slotted class raises TypeError for it on Python 3.11
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        value.extra = 1
    assert tuple(getattr(value, name) for name in names) == values
    assert not hasattr(value, "__dict__")
    # `perfbench/workloads.corrupt` shifts moves with `replace`
    changed = dataclasses.replace(value, **change)
    assert changed == cls(**{**dict(zip(names, values)), **change})
    assert changed != value
    same = cls(*values)
    assert same == value and same is not value
    assert hash(same) == hash(value) == hash(values)
    assert value != values
    assert repr(value) == cls.__name__ + "(" + ", ".join(
        f"{name}={v!r}" for name, v in zip(names, values)) + ")"
    # `__init__`, generated or written by hand, takes the fields, in order,
    # and no more
    assert tuple(inspect.signature(cls).parameters) == names
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, 1)
    with pytest.raises(TypeError):
        cls(**dict(zip(names, values)), extra=1)
    for again in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(again) is cls and again == value


_FIELD_VALUES = {"id": _ids, "groups": _group_lists}  # the rest are ints
_ints = st.integers(min_value=-2 ** 70, max_value=2 ** 70)


@settings(max_examples=200)
@given(data=st.data())
def test_value_types_match_reference(data):
    cls, ref = PackingItem, ref_value_types.PackingItem
    fields = [(f.name, f.type) for f in dataclasses.fields(ref)]
    assert [(f.name, f.type) for f in dataclasses.fields(cls)] == fields
    assert cls.__slots__ == ref.__slots__
    assert cls.__match_args__ == ref.__match_args__
    names = [name for name, _ in fields]
    values = data.draw(st.tuples(*(_FIELD_VALUES.get(name, _ints)
                                   for name in names)))
    kwargs = dict(zip(names, values))
    expected = ref(*values)
    assert ref(**kwargs) == expected
    name = data.draw(st.sampled_from(names))
    change = {name: data.draw(_FIELD_VALUES.get(name, _ints))}
    expected_changed = dataclasses.replace(expected, **change)
    built = (cls(*values), cls(**kwargs))
    assert built[0] == built[1] and built[0] is not built[1]
    for value in built:
        assert type(value) is cls
        assert all(getattr(value, n) is v for n, v in zip(names, values))
        assert hash(value) == hash(expected)
        assert repr(value) == repr(expected)
        changed = dataclasses.replace(value, **change)
        assert type(changed) is cls
        assert all(getattr(changed, n) is getattr(expected_changed, n)
                   for n in names)
        assert hash(changed) == hash(expected_changed)
        assert repr(changed) == repr(expected_changed)


@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       nodes=st.integers(min_value=1, max_value=8),
       groups=st.integers(min_value=0, max_value=10))
def test_generated_instances_round_trip(seed, nodes, groups):
    inst = gen_random(seed, GenParams(nodes=nodes, groups=groups,
                                      capacity=5, max_distance=3))
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text


@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       nodes=st.integers(min_value=1, max_value=10),
       groups=st.integers(min_value=0, max_value=12),
       capacity=st.integers(min_value=1, max_value=8),
       max_distance=st.integers(min_value=1, max_value=10 ** 6),
       overrides=st.lists(st.integers(min_value=0, max_value=2),
                          max_size=9))
def test_instance_writer_matches_reference(seed, nodes, groups, capacity,
                                           max_distance, overrides):
    inst = gen_random(seed, GenParams(nodes=nodes, groups=groups,
                                      capacity=capacity,
                                      max_distance=max_distance))
    assert serialize_instance(inst) == ref_serialize_instance(inst)
    # per-edge overrides, some equal to the uniform capacity
    if overrides and nodes > 1:
        caps = tuple(capacity + overrides[k % len(overrides)]
                     for k in range(nodes - 1))
        inst = dataclasses.replace(inst, edge_capacities=caps)
        assert serialize_instance(inst) == ref_serialize_instance(inst)


def test_instance_writer_matches_reference_on_special_instances(fixtures):
    one_node = path_instance(nodes=1, facility=1, capacity=2, distances=(),
                             groups=(Group("A", 1, 1, 1),))
    no_groups = path_instance(nodes=3, facility=2, capacity=2,
                              distances=(1, 5), groups=())
    escaped = path_instance(
        nodes=2, facility=2, capacity=9, distances=(1,), groups=tuple(
            Group(gid, 1, 1, 1) for gid in ('"q"', "back\\slash", "\x00\x1f",
                                            "\u2028\u2029", "é日",
                                            "\U0001f600")))
    cases = [*(fx.instance for fx in fixtures.values()),
             gen_from_partition([3, 1, 4, 1, 5]), one_node, no_groups, escaped]
    for inst in cases:
        assert serialize_instance(inst) == ref_serialize_instance(inst)
    # fig1a's first edge override equals the uniform capacity: omitted
    edges = json.loads(serialize_instance(fixtures["fig1a"].instance))["edges"]
    assert [e.get("capacity") for e in edges] == [None, 4]
    assert '"edges": [],' in serialize_instance(one_node)
    assert serialize_instance(no_groups).endswith('"groups": []\n}\n')


@settings(max_examples=100)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       items=st.integers(min_value=0, max_value=30),
       capacity=st.integers(min_value=1, max_value=10 ** 6),
       max_ready=st.integers(min_value=1, max_value=100))
def test_packing_writers_match_reference(seed, items, capacity, max_ready):
    inst = gen_random_packing(seed, PackParams(
        items=items, capacity=capacity, max_size=min(capacity, 9),
        max_ready=max_ready))
    assert serialize_packing_instance(inst) \
        == ref_serialize_packing_instance(inst)


def test_packing_instance_writer_matches_reference_on_special_instances():
    empty = packing_instance(3, ())
    escaped = packing_instance(9, tuple(
        PackingItem(iid, 1, 1, 1) for iid in ('"q"', "back\\slash",
                                              "\x00\x1f", "\u2028\u2029",
                                              "é日", "\U0001f600")))
    for inst in (empty, escaped):
        assert serialize_packing_instance(inst) \
            == ref_serialize_packing_instance(inst)
    assert serialize_packing_instance(empty).endswith('"items": []\n}\n')


# instance documents for the reader against the one it replaced: small
# paths, about half of them clean (only sizes may exceed a capacity or an
# override on or off a group's route), the rest damaged with bools, 0,
# negatives, floats, huge ints, strings, missing keys, bad ids and non-dict
# entries; edge `from`/`to` stay exact ints, where the old reader let
# `true` and `2.0` pass
_bad_int = st.sampled_from((True, False, 0, -1, 1.0, 2.5, 10 ** 20, "1",
                            None))


@st.composite
def _instance_docs(draw):
    damaged = draw(st.booleans())

    def hurt(odds):
        return damaged and draw(st.integers(min_value=1, max_value=odds)) == 1

    def num(lo, hi):
        return draw(_bad_int) if hurt(6) else \
            draw(st.integers(min_value=lo, max_value=hi))

    def entry(obj):
        if hurt(6):
            del obj[draw(st.sampled_from(sorted(obj)))]
        return obj

    n = draw(st.integers(min_value=1, max_value=5))
    edges = []
    for k in range(1, n + (draw(st.sampled_from((-1, 1))) if hurt(8)
                           else 0)):
        edge = {"from": k, "to": k + 1, "distance": num(1, 3)}
        if hurt(10):
            edge[draw(st.sampled_from(("from", "to")))] = \
                draw(st.integers(min_value=-1, max_value=6))
        if draw(st.booleans()):
            edge["capacity"] = num(1, 4)
        edges.append(entry(edge))
    groups = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        if hurt(8):
            groups.append(draw(st.one_of(_bad_int, st.just([]))))
            continue
        gid = draw(st.sampled_from(("", 1, None, True))) if hurt(8) else \
            draw(st.sampled_from("ABCDEFG"))
        # past `nodes` now and then, whether it is valid or not
        groups.append(entry({"id": gid,
                             "node": num(1, n + 1 if damaged else n),
                             "size": num(1, 5), "weight": num(1, 3)}))
    if not damaged:
        seen = set()
        groups = [g for g in groups
                  if not (g["id"] in seen or seen.add(g["id"]))]
    doc = {"nodes": draw(_bad_int) if hurt(8) else n,
           "facility": num(1, n + 1 if damaged else n),
           "capacity": num(1, 4), "edges": edges, "groups": groups}
    if hurt(10):
        doc[draw(st.sampled_from(("edges", "groups")))] = draw(_bad_int)
    return entry(doc)


def _validated(parse, text):
    # repr, so a `True` kept where an int belongs does not compare as 1
    try:
        return repr(parse(text))
    except InstanceError as exc:
        return exc.violations


def _ref_parse_instance(text):
    return ref_validate_instance(json.loads(text))


@settings(max_examples=600)
@given(doc=_instance_docs())
@example(doc=_doc(groups=[{"id": "A", "node": True, "size": 1,
                           "weight": 1}]))
@example(doc=_doc(groups=[{"id": "A", "node": 1, "size": True,
                           "weight": 1}]))
@example(doc=_doc(groups=[{"id": "A", "node": 1, "size": 1,
                           "weight": True}]))
@example(doc=_doc(nodes=True, groups=[{"id": "A", "node": 4, "size": 1,
                                       "weight": 1}]))
@example(doc=_doc(edges=[{"from": 1, "to": 2, "distance": 1},
                         {"from": 2, "to": 3, "distance": 2, "capacity": 1}]))
# a group that breaks three rules, and a bad group before a good one with
# the same id
@example(doc=_doc(groups=[{"id": "A", "node": 4, "size": True,
                           "weight": 0}]))
@example(doc=_doc(groups=[{"id": "A", "node": True, "size": 1, "weight": 1},
                          {"id": "A", "node": 1, "size": 1, "weight": 1}]))
def test_instance_reader_matches_reference(doc):
    text = json.dumps(doc)
    assert _validated(parse_instance, text) == \
        _validated(_ref_parse_instance, text)
