import functools
import json
import math
import random

import numpy as np
import pytest

from replicasim import ConfigError
from replicasim.scene import (
    EDIT_CODEC,
    INVALID_HIGHLIGHT,
    UNKNOWN_TARGET,
    AddAnnotation,
    Annotation,
    EditError,
    NodeKind,
    Overlay,
    Pose,
    RemoveAnnotation,
    Role,
    SceneNode,
    SetHighlight,
    SetIndication,
    SetPose,
    SetValveState,
    ValveState,
    VisualState,
    _edited_node,
    anchor_model,
    apply_edit,
    canonical_json,
    edit_to_dict,
    load_model,
)
from replicasim.records import replace
from replicasim.scenario import default_model


def small_descriptor():
    return {
        "marker_offset": {"pos": [0.0, 0.0, 0.0], "quat": [1.0, 0.0, 0.0, 0.0]},
        "nodes": [
            {"id": "EX1", "kind": "ExchangerUnit", "pose": {"pos": [0.0, 1.0, 0.0]}},
            {"id": "V1", "kind": "Valve", "parent": "EX1", "valve_state": "Open", "handedness": "OneHanded"},
            {"id": "V2", "kind": "Valve", "parent": "EX1", "valve_state": "Closed", "handedness": "TwoHanded"},
            {"id": "V3", "kind": "Valve", "valve_state": "Closed", "handedness": "OneHanded"},
        ],
    }


def random_edit(rng, model, role=Role.EXPERT, seq=0):
    valves = [n.id for n in model.valves()]
    kind = rng.randrange(5)
    if kind == 0:
        return SetValveState(rng.choice(valves), rng.choice([ValveState.OPEN, ValveState.CLOSED]), role, seq)
    if kind == 1:
        color = None if rng.random() < 0.3 else (round(rng.random(), 3), 0.5, 0.1)
        return SetHighlight(rng.choice(valves), color, role, seq)
    if kind == 2:
        return SetIndication(rng.choice(valves), rng.random() < 0.5, role, seq)
    if kind == 3:
        pose = Pose((round(rng.random(), 3), 0.0, 1.0))
        return SetPose(rng.choice(valves), pose, role, seq)
    existing = sorted(model.annotations)
    if existing and rng.random() < 0.5:
        return RemoveAnnotation(rng.choice(existing), role, seq)
    ann_id = f"a{rng.randrange(10_000)}"
    while ann_id in model.annotations:
        ann_id = f"a{rng.randrange(10_000)}"
    return AddAnnotation(Annotation(ann_id, role, rng.choice(valves), "note"), role, seq)


class TestLoadModel:
    def test_default_plant_counts(self):
        model = default_model()
        kinds = [n.kind for n in model.nodes.values()]
        assert kinds.count(NodeKind.VALVE) == 14
        assert kinds.count(NodeKind.EXCHANGER_UNIT) == 2
        assert model.version == 0

    def test_empty_descriptor(self):
        model = load_model({"nodes": []})
        assert model.nodes == {} and model.version == 0

    def test_duplicate_node_id(self):
        doc = {"nodes": [
            {"id": "2V4", "kind": "Valve", "valve_state": "Open", "handedness": "TwoHanded"},
            {"id": "2V4", "kind": "Valve", "valve_state": "Closed", "handedness": "TwoHanded"},
        ]}
        with pytest.raises(ConfigError, match="duplicate"):
            load_model(doc)

    def test_dangling_parent(self):
        doc = {"nodes": [{"id": "V1", "kind": "Valve", "parent": "nope",
                          "valve_state": "Open", "handedness": "OneHanded"}]}
        with pytest.raises(ConfigError, match="dangling"):
            load_model(doc)

    def test_valve_missing_handedness(self):
        doc = {"nodes": [{"id": "V1", "kind": "Valve", "valve_state": "Open"}]}
        with pytest.raises(ConfigError, match="handedness"):
            load_model(doc)

    def test_null_valve_fields_on_a_non_valve_read_as_absent(self):
        model = load_model({"nodes": [{"id": "P1", "kind": "Pipe", "valve_state": None, "handedness": None}]})
        assert model.nodes["P1"].valve_state is None and model.nodes["P1"].handedness is None

    def test_parent_cycle(self):
        doc = {"nodes": [
            {"id": "A", "kind": "Pipe", "parent": "B"},
            {"id": "B", "kind": "Pipe", "parent": "A"},
        ]}
        with pytest.raises(ConfigError, match="cycle"):
            load_model(doc)

    @pytest.mark.parametrize("build, refusal", [
        (lambda: SceneNode("", NodeKind.PIPE), "node id must be non-empty"),
        (lambda: SceneNode("P1", NodeKind.PIPE, valve_state=ValveState.OPEN),
         "non-valve 'P1' must not carry valve_state/handedness"),
        # load_model reads a valve field on any kind, so that the node refuses it.
        (lambda: load_model({"nodes": [{"id": "P1", "kind": "Pipe", "valve_state": "Open"}]}),
         "node 'P1': non-valve 'P1' must not carry valve_state/handedness"),
        (lambda: load_model({"nodes": [{"id": "L1", "kind": "Label", "handedness": "OneHanded"}]}),
         "node 'L1': non-valve 'L1' must not carry valve_state/handedness"),
        (lambda: load_model({"nodes": [{"id": "P1", "kind": "Pipe", "valve_state": "Open", "handedness": "bogus"}]}),
         "node 'P1': handedness must be one of 'OneHanded', 'TwoHanded', got 'bogus'"),
    ], ids=["empty-id", "pipe-with-valve-state", "load-pipe-valve-state", "load-label-handedness",
            "load-pipe-bogus-handedness"])
    def test_refused_node_is_config_error(self, build, refusal):
        with pytest.raises(ConfigError, match=f"^{refusal}$"):
            build()

    def test_non_finite_pose_component(self):
        node = {"id": "V1", "kind": "Valve", "valve_state": "Open", "handedness": "OneHanded",
                "pose": {"quat": ["NaN", 0, 0, 0]}}
        with pytest.raises(ConfigError, match="quaternion norm"):
            load_model({"nodes": [node]})
        with pytest.raises(ConfigError, match="marker_offset"):
            load_model({"marker_offset": {"pos": ["Infinity", 0, 0]}, "nodes": []})


class TestPose:
    def test_quaternion_norm_enforced(self):
        nan, inf = math.nan, math.inf
        for position, orientation in [
            ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0)),
            ((0.0, 0.0, 0.0), (nan, 0.0, 0.0, 0.0)),
            ((0.0, 0.0, 0.0), (inf, 0.0, 0.0, 0.0)),
            ((inf, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
            ((0.0, nan, 0.0), (1.0, 0.0, 0.0, 0.0)),
            ((10**400, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),  # an int past float range
        ]:
            with pytest.raises(ValueError):
                Pose(position, orientation)

    def test_rotation(self):
        yaw90 = Pose(orientation=(math.cos(math.pi / 4), 0.0, math.sin(math.pi / 4), 0.0))
        rx, ry, rz = yaw90.rotate((0.0, 0.0, 1.0))
        assert abs(rx - 1.0) < 1e-12 and abs(ry) < 1e-12 and abs(rz) < 1e-12


def pose_to_matrix(pose):
    w, x, y, z = pose.orientation
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])
    mat = np.eye(4)
    mat[:3, :3] = rot
    mat[:3, 3] = pose.position
    return mat


class TestAnchor:
    def test_identity(self):
        model = load_model(small_descriptor())
        anchored = anchor_model(model, Pose())
        assert anchored.world_anchor == Pose()

    def test_translation_only(self):
        model = load_model(small_descriptor())
        anchored = anchor_model(model, Pose((1.0, 0.0, 0.0)))
        assert anchored.world_anchor.position == (1.0, 0.0, 0.0)

    def test_yaw_marker_with_offset_matches_matrix_oracle(self):
        doc = small_descriptor()
        doc["marker_offset"] = {"pos": [0.0, 0.0, 1.0], "quat": [1.0, 0.0, 0.0, 0.0]}
        model = load_model(doc)
        yaw90 = Pose((0.5, 0.2, -0.3), (math.cos(math.pi / 4), 0.0, math.sin(math.pi / 4), 0.0))
        anchored = anchor_model(model, yaw90)
        expected = pose_to_matrix(yaw90) @ pose_to_matrix(model.marker_offset)
        got = pose_to_matrix(anchored.world_anchor)
        assert np.allclose(got, expected, atol=1e-12)

    def test_rigid_transform_preserves_relative_poses(self):
        model = load_model(small_descriptor())
        marker = Pose((2.0, 1.0, 0.0), (math.cos(0.3), 0.0, math.sin(0.3), 0.0))
        anchored = anchor_model(model, marker)
        assert anchored.nodes == model.nodes  # local poses untouched
        assert anchored.version == model.version


class TestApplyEdit:
    def test_set_valve_state(self):
        model = default_model()
        assert model.nodes["2V4"].valve_state is ValveState.CLOSED
        out = apply_edit(model, SetValveState("2V4", ValveState.OPEN, Role.OPERATOR, 1))
        assert out.nodes["2V4"].valve_state is ValveState.OPEN
        assert out.version == model.version + 1
        assert model.nodes["2V4"].valve_state is ValveState.CLOSED  # input untouched

    def test_annotation_inverse_pair(self):
        model = load_model(small_descriptor())
        ann = Annotation("a1", Role.OPERATOR, "V1", "check packing gland")
        out = apply_edit(model, AddAnnotation(ann, Role.OPERATOR, 1))
        out = apply_edit(out, RemoveAnnotation("a1", Role.OPERATOR, 2))
        assert out.annotations == model.annotations

    def test_annotation_offset_must_be_finite(self):
        for offset in [(math.nan, 0.0, 0.0), (0.0, 0.0, -math.inf)]:
            with pytest.raises(ValueError, match="non-finite"):
                Annotation("a1", Role.OPERATOR, "V1", "x", offset)

    def test_unknown_node(self):
        model = load_model(small_descriptor())
        with pytest.raises(EditError, match="XX"):
            apply_edit(model, SetValveState("XX", ValveState.OPEN, Role.OPERATOR, 1))

    @pytest.mark.parametrize("act, refusal", [
        (lambda model: model.node("ghost"), "unknown node 'ghost'"),
        (lambda model: apply_edit(model, AddAnnotation(Annotation("a1", Role.OPERATOR, "ghost", "x"), Role.OPERATOR)),
         "annotation 'a1' anchors unknown node 'ghost'"),
    ], ids=["node-lookup", "annotation-anchor"])
    def test_unknown_node_is_edit_error_with_its_reason(self, act, refusal):
        with pytest.raises(EditError, match=f"^{refusal}$") as info:
            act(load_model(small_descriptor()))
        assert info.value.reason == UNKNOWN_TARGET

    def test_random_sequence_is_fold(self):
        rng = random.Random(11)
        model = load_model(small_descriptor())
        edits = []
        cursor = model
        for i in range(40):
            edit = random_edit(rng, cursor, seq=i)
            edits.append(edit)
            cursor = apply_edit(cursor, edit)
        assert canonical_json(functools.reduce(apply_edit, edits, model)) == canonical_json(cursor)
        assert cursor.version == model.version + len(edits)

    def test_apply_is_deterministic_bit_equal(self):
        model = load_model(small_descriptor())
        edit = SetHighlight("V1", (1.0, 0.8, 0.0), Role.EXPERT, 3)
        assert canonical_json(apply_edit(model, edit)) == canonical_json(apply_edit(model, edit))

    def test_version_monotonicity(self):
        rng = random.Random(5)
        model = load_model(small_descriptor())
        for i in range(30):
            out = apply_edit(model, random_edit(rng, model, seq=i))
            assert out.version >= model.version
            model = out


class TestOverlay:
    """An overlay reads as the dict ``{**base, **delta}`` it stands for."""

    def test_reads_match_the_flat_dict(self):
        base = {"a": 1, "b": 2, "c": 3}
        overlay = Overlay({"b": 20, "d": 4}, base)
        flat = {"a": 1, "b": 20, "c": 3, "d": 4}
        assert overlay.flat() == flat
        assert [overlay[k] for k in "abcd"] == [flat[k] for k in "abcd"]
        assert [overlay.get(k, "missing") for k in "abcdz"] == [flat.get(k, "missing") for k in "abcdz"]
        assert overlay.get("z") is None
        assert [k in overlay for k in "abcdz"] == [k in flat for k in "abcdz"]
        with pytest.raises(KeyError):
            overlay["z"]
        assert sorted(overlay) == sorted(flat) and len(overlay) == len(flat)
        assert sorted(overlay.items()) == sorted(flat.items())
        assert sorted(overlay.values()) == sorted(flat.values())

    def test_len_in_and_get_match_the_flat_dict(self):
        rng = random.Random(17)
        for _ in range(50):
            base = {k: rng.random() for k in rng.sample(range(40), rng.randint(0, 30))}
            delta = {k: rng.random() for k in rng.sample(range(50), rng.randint(0, 20))}
            overlay = Overlay(delta, base)
            flat = overlay.flat()
            assert len(overlay) == len(flat) == len(set(base) | set(delta))
            for key in range(55):
                assert (key in overlay) == (key in flat)
                assert overlay.get(key) == flat.get(key) and overlay.get(key, "missing") == flat.get(key, "missing")

    def test_len_reads_only_the_delta(self):
        class Unlisted(dict):
            def __iter__(self):
                raise AssertionError("the base was iterated")

        overlay = Overlay({"b": 20, "d": 4}, Unlisted(a=1, b=2, c=3))
        assert len(overlay) == 4 and "c" in overlay and "z" not in overlay

    def test_equality_is_the_flat_dicts_in_either_order(self):
        overlay = Overlay({"b": 20}, {"a": 1, "b": 2})
        assert overlay == {"a": 1, "b": 20} and {"a": 1, "b": 20} == overlay
        assert overlay == Overlay({"a": 1}, {"a": 0, "b": 20})
        assert overlay != {"a": 1, "b": 2} and {"a": 1, "b": 2} != overlay
        assert overlay != Overlay({}, {"a": 1, "b": 2})
        assert overlay != [("a", 1), ("b", 20)]

    def test_model_with_overlaid_nodes_equals_its_flat_copy(self):
        model = default_model()
        edit = SetValveState("2V4", ValveState.OPEN, Role.OPERATOR, 1)
        flat = apply_edit(model, edit)
        overlaid = apply_edit(replace(model, nodes=Overlay({}, model.nodes)), edit)
        assert type(overlaid.nodes) is Overlay and overlaid.nodes.maps[1] is model.nodes
        assert set(overlaid.nodes.maps[0]) == {"2V4"}
        assert overlaid == flat and flat == overlaid
        assert overlaid.valves() == flat.valves()
        assert canonical_json(overlaid) == canonical_json(flat)


class TestEditedNode:
    """``_edited_node`` builds each node with its constructor; ``records.replace`` is the oracle."""

    def test_every_field_edit_on_every_default_node_matches_replace(self):
        model = default_model()
        pose = Pose((0.25, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0))
        for node in model.nodes.values():
            visual = node.visual
            cases = [
                (SetPose(node.id, pose), replace(node, local_pose=pose)),
                (SetHighlight(node.id, (1.0, 0.5, 0.0)),
                 replace(node, visual=replace(visual, highlight_color=(1.0, 0.5, 0.0)))),
                (SetHighlight(node.id, None),
                 replace(node, visual=replace(visual, highlight_color=None))),
                (SetIndication(node.id, True),
                 replace(node, visual=replace(visual, indication_animation=True))),
                (SetIndication(node.id, False),
                 replace(node, visual=replace(visual, indication_animation=False))),
            ]
            if node.kind is NodeKind.VALVE:
                for state in ValveState:
                    cases.append((SetValveState(node.id, state), replace(node, valve_state=state)))
            for edit, oracle in cases:
                assert _edited_node(edit, model.nodes, model.annotations) == oracle, edit
            # A highlight on top of an indication keeps both flags.
            playing = _edited_node(SetIndication(node.id, True), model.nodes, model.annotations)
            both = _edited_node(SetHighlight(node.id, (0.0, 0.0, 1.0)), {node.id: playing}, {})
            assert both == replace(playing, visual=VisualState((0.0, 0.0, 1.0), True))

    def test_invalid_edits_raise_as_before(self):
        model = default_model()
        pipe = next(n for n in model.nodes.values() if n.kind is not NodeKind.VALVE)
        valve = model.valves()[0]
        with pytest.raises(EditError) as info:
            _edited_node(SetValveState(pipe.id, ValveState.OPEN), model.nodes, model.annotations)
        assert info.value.reason == UNKNOWN_TARGET
        with pytest.raises(EditError) as info:
            _edited_node(SetPose("no-such-node", Pose()), model.nodes, model.annotations)
        assert info.value.reason == UNKNOWN_TARGET
        # The node's own __post_init__ still runs: a valve needs a valve_state.
        with pytest.raises(ValueError, match="requires valve_state") as oracle:
            replace(valve, valve_state=None)
        with pytest.raises(ValueError, match="requires valve_state") as built:
            _edited_node(SetValveState(valve.id, None), model.nodes, model.annotations)
        assert str(built.value) == str(oracle.value)

    @pytest.mark.parametrize("color", [(2.0, 0.0, 0.0), (-0.1, 0.5, 0.5), (0.5, 0.5), ("a", 0, 0)])
    def test_out_of_range_highlight_is_edit_error(self, color):
        model = default_model()
        with pytest.raises(ValueError):
            VisualState(highlight_color=color)  # the range check itself is kept
        with pytest.raises(EditError, match="highlight_color") as info:
            apply_edit(model, SetHighlight("1V1", color, Role.EXPERT, 1))
        assert info.value.reason == INVALID_HIGHLIGHT

    def test_int_wire_color_commits_the_model_of_its_float_form(self):
        model = default_model()
        committed = [apply_edit(model, EDIT_CODEC.decode({"op": "set_highlight", "role": "Expert", "seq": 1,
                                                          "node": "1V1", "color": color}))
                     for color in ([1, 0, 0], [1.0, 0.0, 0.0])]
        assert canonical_json(committed[0]) == canonical_json(committed[1])
        assert committed[0].nodes["1V1"].visual.highlight_color == (1.0, 0.0, 0.0)

    def test_highlight_color_is_kept_as_a_tuple_of_floats(self):
        visual = VisualState([1.0, 0.5, 0.0])
        assert visual == VisualState((1.0, 0.5, 0.0)) and hash(visual) == hash(VisualState((1.0, 0.5, 0.0)))
        assert type(visual.highlight_color) is tuple
        assert list(map(type, VisualState((1, 0, 0)).highlight_color)) == [float] * 3


class TestEditCodec:
    def test_round_trip_all_kinds(self):
        rng = random.Random(31)
        model = load_model(small_descriptor())
        model = apply_edit(model, AddAnnotation(Annotation("a1", Role.EXPERT, "V1", "x"), Role.EXPERT, 0))
        for i in range(60):
            edit = random_edit(rng, model, seq=i)
            doc = edit_to_dict(edit)
            assert EDIT_CODEC.decode(json.loads(json.dumps(doc))) == edit
