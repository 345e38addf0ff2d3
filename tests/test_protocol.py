import hashlib
import json
import math
import random
import struct
import typing
from types import SimpleNamespace

import pytest

from replicasim import ConfigError, checks
from replicasim.protocol import (
    GAZE_NORM_TOL,
    Avatar,
    AvatarState,
    CallEnd,
    CallStart,
    Envelope,
    Instruction,
    MediaSignal,
    Payload,
    ReportTemperature,
    RoomError,
    RoomState,
    StepDone,
    SyncCommit,
    SyncReq,
    decode_envelope,
    detect_gaps,
    encode_envelope,
    payload_to_dict,
    envelope_from_dict,
    envelope_to_dict,
    join_room,
    place_expert_avatar,
    submit_sync,
    update_avatar,
)
from replicasim.records import replace
from replicasim.replica import SyncRequest, apply_commit
from replicasim.scene import (
    QUAT_NORM_TOL,
    AddAnnotation,
    Annotation,
    Edit,
    Pose,
    RemoveAnnotation,
    Role,
    SetHighlight,
    SetIndication,
    SetPose,
    SetValveState,
    ValveState,
    canonical_json,
    edit_from_dict,
    load_model,
)
from replicasim.scenario import default_model

from test_fuzz import MUTATIONS
from test_scene import small_descriptor


def fresh_room():
    return RoomState(room="r1", shared=load_model(small_descriptor()))


class TestRooms:
    def test_operator_joins_empty_room(self):
        state = join_room(fresh_room(), "op", Role.OPERATOR)
        assert state.members == {"op": Role.OPERATOR}
        assert state.next_host_seq == 1  # joining stamps nothing

    def test_both_roles_join(self):
        state = join_room(fresh_room(), "op", Role.OPERATOR)
        state = join_room(state, "ex", Role.EXPERT)
        assert set(state.members.values()) == {Role.OPERATOR, Role.EXPERT}
        assert state.next_host_seq == 1

    def test_second_expert_rejected(self):
        state = join_room(fresh_room(), "ex", Role.EXPERT)
        with pytest.raises(RoomError, match="already has an"):
            join_room(state, "ex2", Role.EXPERT)

    @pytest.mark.parametrize("client, refusal", [("", "client id must be non-empty"),
                                                 ("op", "client 'op' already joined")], ids=["empty-id", "rejoin"])
    def test_refused_join_is_room_error(self, client, refusal):
        state = join_room(fresh_room(), "op", Role.OPERATOR)
        with pytest.raises(RoomError, match=f"^{refusal}$"):
            join_room(state, client, Role.EXPERT)

    def test_host_seq_strictly_increasing(self):
        state = fresh_room()
        for client, role in [("op", Role.OPERATOR), ("ex", Role.EXPERT)]:
            state = join_room(state, client, role)
        seqs = []
        for _ in range(3):
            state, env, _ = submit_sync(state, SyncRequest("op", Role.OPERATOR, 0, ()))
            seqs.append(env.host_seq)
        assert seqs == [1, 2, 3]


class TestSubmitSync:
    def test_empty_request_commit(self):
        state = join_room(fresh_room(), "op", Role.OPERATOR)
        old_version = state.shared.version
        state, env, outcome = submit_sync(state, SyncRequest("op", Role.OPERATOR, 0, ()))
        assert isinstance(env.payload, SyncCommit)
        assert env.payload.new_version == old_version
        assert env.payload.accepted == ()

    def test_claimed_role_must_match_joined_role(self):
        # The Operator claims the Expert role to overwrite an Expert-owned valve.
        state = RoomState(room="r", shared=default_model())
        state = join_room(state, "op", Role.OPERATOR)
        state = join_room(state, "ex", Role.EXPERT)
        expert = SyncRequest("ex", Role.EXPERT, 0, (SetValveState("1V1", ValveState.CLOSED, Role.EXPERT, 1),))
        state, _, _ = submit_sync(state, expert)
        forged = SyncRequest(
            "op", Role.EXPERT, state.shared.version, (SetValveState("1V1", ValveState.OPEN, Role.EXPERT, 1),)
        )
        with pytest.raises(RoomError, match="joined as Operator"):
            submit_sync(state, forged)
        assert state.shared.nodes["1V1"].valve_state is ValveState.CLOSED

    def test_indication_flow_reaches_operator_model(self):
        # Guide indicates the valve; the commit replayed on the operator side shows it.
        model = default_model()
        state = RoomState(room="r", shared=model)
        state = join_room(state, "op", Role.OPERATOR)
        state = join_room(state, "ex", Role.EXPERT)
        operator_model = model
        req = SyncRequest("ex", Role.EXPERT, 0, (SetIndication("2V4", True, Role.EXPERT, 1),))
        state, env, _ = submit_sync(state, req)
        operator_model = apply_commit(operator_model, env.payload.accepted, env.payload.new_version)
        assert operator_model.nodes["2V4"].visual.indication_animation is True
        assert canonical_json(operator_model) == canonical_json(state.shared)

    def test_racing_requests_serialize_and_converge(self):
        state = fresh_room()
        state = join_room(state, "op", Role.OPERATOR)
        state = join_room(state, "ex", Role.EXPERT)
        req_a = SyncRequest("op", Role.OPERATOR, 0, (SetIndication("V1", True, Role.OPERATOR, 1),))
        req_b = SyncRequest("ex", Role.EXPERT, 0, (SetIndication("V3", True, Role.EXPERT, 1),))
        replay_a = state.shared
        replay_b = state.shared
        state, env1, _ = submit_sync(state, req_a)
        state, env2, _ = submit_sync(state, req_b)
        assert env2.host_seq > env1.host_seq
        for env in (env1, env2):
            replay_a = apply_commit(replay_a, env.payload.accepted, env.payload.new_version)
            replay_b = apply_commit(replay_b, env.payload.accepted, env.payload.new_version)
        assert canonical_json(replay_a) == canonical_json(replay_b) == canonical_json(state.shared)

    @pytest.mark.parametrize(
        "owner, owner_role, author_role, ahead, cause",
        [
            ("ghost", Role.OPERATOR, Role.OPERATOR, 0, "sync from non-member 'ghost'"),
            ("op", Role.EXPERT, Role.EXPERT, 0, "claims Expert, joined as Operator"),
            ("op", Role.OPERATOR, Role.EXPERT, 0, "edit authored as Expert in a request from the Operator"),
            ("op", Role.OPERATOR, Role.OPERATOR, 1, "base_version 1 is ahead of shared version 0"),
        ],
        ids=["owner-not-member", "claimed-role-not-joined-role", "author-role-not-owner-role", "base-version-ahead"],
    )
    def test_refused_request_is_room_error(self, owner, owner_role, author_role, ahead, cause):
        state = join_room(join_room(fresh_room(), "op", Role.OPERATOR), "ex", Role.EXPERT)
        edit = SetValveState("V1", ValveState.CLOSED, author_role, 1)
        with pytest.raises(RoomError, match=cause):
            submit_sync(state, SyncRequest(owner, owner_role, state.shared.version + ahead, (edit,)))


class TestAvatar:
    def operator_avatar(self, y=1.7, x=0.0, z=0.0):
        return AvatarState("op", Role.OPERATOR, Pose((x, y, z)))

    def test_elevation_arithmetic(self):
        pose = place_expert_avatar(self.operator_avatar())
        assert abs(pose.position[1] - 3.2) < 1e-12

    def test_always_above_operator(self):
        rng = random.Random(3)
        for _ in range(100):
            y = rng.uniform(0.5, 2.2)
            pose = place_expert_avatar(self.operator_avatar(y))
            assert pose.position[1] > y

    def test_orientation_looks_at_anchor(self):
        anchor = (0.0, 0.0, 0.0)
        pose = place_expert_avatar(self.operator_avatar(x=-1.0, z=-2.0))
        forward = pose.rotate((0.0, 0.0, 1.0))
        direction = tuple(a - p for a, p in zip(anchor, pose.position))
        norm = math.sqrt(sum(c * c for c in direction))
        direction = tuple(c / norm for c in direction)
        assert all(abs(f - d) < 1e-9 for f, d in zip(forward, direction))

    def test_gaze_must_be_normalized(self):
        for gaze in [(0.0, 0.0, 2.0), (math.nan, 0.0, 1.0), (0.0, math.inf, 0.0)]:
            with pytest.raises(ValueError):
                AvatarState("op", Role.OPERATOR, Pose(), gaze_direction=gaze)


class TestUpdateAvatar:
    def room(self):
        return join_room(join_room(fresh_room(), "op", Role.OPERATOR), "ex", Role.EXPERT)

    def test_non_member_is_refused(self):
        with pytest.raises(RoomError, match="avatar from non-member 'ghost'"):
            update_avatar(self.room(), AvatarState("ghost", Role.OPERATOR, Pose()))

    def test_claimed_role_must_match_joined_role(self):
        state = self.room()
        with pytest.raises(RoomError, match="avatar from 'op' claims Expert, joined as Operator"):
            update_avatar(state, AvatarState("op", Role.EXPERT, Pose((0.0, 1.7, 0.0))))
        assert state.avatar_map == {}

    def test_relay_is_stamped_by_the_member(self):
        state = self.room()
        avatar = AvatarState("op", Role.OPERATOR, Pose((0.0, 1.7, 0.0)))
        state, env = update_avatar(state, avatar)
        assert env == Envelope(sender="op", sender_seq=1, room="r1", payload=Avatar(avatar), host_seq=1)
        state, env = update_avatar(state, replace(avatar, head_pose=Pose((0.5, 1.7, 0.0))))
        assert (env.sender_seq, env.host_seq) == (2, 2)
        _, env = update_avatar(state, AvatarState("ex", Role.EXPERT, Pose((0.0, 3.2, 0.0))))
        assert (env.sender, env.sender_seq, env.host_seq) == ("ex", 1, 3)

    def test_avatar_map_holds_each_members_latest(self):
        before = self.room()
        first = AvatarState("op", Role.OPERATOR, Pose((0.0, 1.7, 0.0)))
        latest = replace(first, head_pose=Pose((0.5, 1.7, 0.0)))
        expert = AvatarState("ex", Role.EXPERT, Pose((0.0, 3.2, 0.0)))
        state, _ = update_avatar(before, first)
        state, _ = update_avatar(state, latest)
        state, _ = update_avatar(state, expert)
        assert state.avatar_map == {"op": latest, "ex": expert}
        assert before.avatar_map == {}  # a new room state; the old one is unchanged
        assert state.shared is before.shared


class TestStampedState:
    """``submit_sync`` and ``update_avatar`` return the one state that the stamp
    builds, with the changed field in place, and leave their input as it was."""

    def busy_room(self):
        state = join_room(join_room(fresh_room(), "op", Role.OPERATOR), "ex", Role.EXPERT)
        state, _ = update_avatar(state, AvatarState("op", Role.OPERATOR, Pose((0.0, 1.7, 0.0))))
        request = SyncRequest("op", Role.OPERATOR, 0, (SetIndication("V1", True, Role.OPERATOR, 1),))
        state, _, _ = submit_sync(state, request)
        return state

    def fields(self, state):
        return (state.room, state.shared, dict(state.members), dict(state.avatar_map), state.next_host_seq,
                dict(state.sender_counters), canonical_json(state.shared))

    def test_submit_sync(self):
        before = self.busy_room()
        kept = self.fields(before)
        req = SyncRequest("ex", Role.EXPERT, 1, (SetValveState("V3", ValveState.OPEN, Role.EXPERT, 1),))
        state, env, outcome = submit_sync(before, req)
        assert self.fields(before) == kept
        assert (state.next_host_seq, state.sender_counters) == (4, {"op": 1, "host": 2})
        assert state.avatar_map == before.avatar_map and state.members == before.members
        assert state.shared is outcome.merged and state.shared.version == 2
        assert state.shared.nodes["V3"].valve_state is ValveState.OPEN
        assert (env.sender, env.sender_seq, env.host_seq) == ("host", 2, 3)

    def test_update_avatar(self):
        before = self.busy_room()
        kept = self.fields(before)
        avatar = AvatarState("ex", Role.EXPERT, Pose((0.0, 3.2, 0.0)))
        state, env = update_avatar(before, avatar)
        assert self.fields(before) == kept
        assert (state.next_host_seq, state.sender_counters) == (4, {"op": 1, "host": 1, "ex": 1})
        assert state.avatar_map == {"op": before.avatar_map["op"], "ex": avatar}
        assert state.shared is before.shared and state.members == before.members
        assert env == Envelope("ex", 1, "r1", Avatar(avatar), 3)


class TestRelay:
    """A media blob crosses the wire codec bit-exact."""

    def test_zero_byte_blob(self):
        env = Envelope(sender="op", sender_seq=1, room="r1", payload=MediaSignal(b""))
        decoded, rest = decode_envelope(encode_envelope(env))
        assert rest == b"" and decoded.payload.blob == b""

    def test_random_blob_bit_exact(self):
        blob = random.Random(7).randbytes(1024)
        env = Envelope(sender="ex", sender_seq=1, room="r1", payload=MediaSignal(blob))
        decoded, rest = decode_envelope(encode_envelope(env))
        assert rest == b""
        assert hashlib.sha256(decoded.payload.blob).digest() == hashlib.sha256(blob).digest()


class TestWireCodec:
    def test_envelope_round_trip(self):
        env = Envelope(sender="op", sender_seq=4, room="r1", payload=Instruction("set valve 2V4 to Open"),
                       host_seq=9)
        assert envelope_from_dict(envelope_to_dict(env)) == env
        decoded, rest = decode_envelope(encode_envelope(env))
        assert decoded == env and rest == b""

    def test_frames_concatenate(self):
        env1 = Envelope(sender="op", sender_seq=1, room="r", payload=CallStart())
        env2 = Envelope(sender="op", sender_seq=2, room="r", payload=MediaSignal(b"\x00\x01\xff"))
        data = encode_envelope(env1) + encode_envelope(env2)
        first, rest = decode_envelope(data)
        second, tail = decode_envelope(rest)
        assert first == env1 and second == env2 and tail == b""

    def test_valve_instruction_round_trip(self):
        instruction = Instruction("set valve 2V4 to Closed", "2V4", ValveState.CLOSED)
        env = Envelope(sender="expert", sender_seq=3, room="r1", payload=instruction, host_seq=5)
        assert payload_to_dict(instruction) == {
            "kind": "instruction", "text": "set valve 2V4 to Closed", "valve": "2V4", "target": "Closed"
        }
        decoded, rest = decode_envelope(encode_envelope(env))
        assert decoded == env and rest == b""

    def test_text_instruction_keeps_its_wire_dict(self):
        assert payload_to_dict(Instruction("tick")) == {"kind": "instruction", "text": "tick"}

    def test_encoding_a_value_that_is_no_payload_is_a_fault(self):
        # The sender's own bug, not a message a peer refuses: not a RoomError.
        with pytest.raises(TypeError, match="unsupported payload"):
            encode_envelope(Envelope(sender="op", sender_seq=1, room="r", payload=object()))

    def test_encoding_a_value_that_is_no_edit_is_a_fault(self):
        # Likewise for an edit: not an EditError, which says that an edit does not fit a model.
        lookalike = SimpleNamespace(node="V1", state=ValveState.CLOSED, author_role=Role.EXPERT, author_seq=1)
        with pytest.raises(TypeError, match="unsupported edit"):
            encode_envelope(Envelope("host", 1, "r", SyncCommit((lookalike,), 1), 1))

    @pytest.mark.parametrize(
        "body",
        [
            b'{"sender":"op","room":"r","payload":{"kind":"call_start"}}',
            b"{not json",
            b"\xff\xfe",
            b"[]",
            b'{"sender":"op","sender_seq":1,"room":"r","payload":{"kind":"avatar","client":"op",'
            b'"role":"Operator","head_pose":{"pos":[NaN,0,0]},"gaze":[0,0,1]}}',
            b'{"sender":"ex","sender_seq":1,"room":"r","payload":{"kind":"instruction","text":"t",'
            b'"valve":"2V4","target":"Ajar"}}',
            b'{"sender":"op","sender_seq":1e999,"room":"r","payload":{"kind":"call_start"}}',
            b'{"sender":"op","sender_seq":1,"room":"r","payload":{"kind":"sync_commit","new_version":1,'
            b'"accepted":[{"op":"paint","role":"Expert","seq":1}]}}',
            b"[" * 100_000 + b"]" * 100_000,
            b'{"host_seq":"x","sender":"op","sender_seq":1,"room":"r","payload":{"kind":"call_start"}}',
            b'{"sender":"ex","sender_seq":1,"room":"r","payload":{"kind":"sync_req","owner":"ex",'
            b'"owner_role":"Expert","base_version":0,'
            b'"edits":[{"op":"set_valve_state","node":[],"state":"Open","role":"Expert","seq":1}]}}',
            b'{"sender":"host","sender_seq":1,"room":"r","payload":{"kind":"sync_commit","new_version":1,'
            b'"accepted":[{"op":"set_indication","node":"V1","playing":"x","role":"Expert","seq":1}]}}',
            b'{"sender":"ex","sender_seq":1,"room":"r","payload":{"kind":"sync_req","owner":"ex",'
            b'"owner_role":"Expert","base_version":true,"edits":[]}}',
            b'{"sender":5,"sender_seq":1,"room":"r","payload":{"kind":"call_start"}}',
            b'{"sender":"op","sender_seq":1,"room":"r","payload":{"kind":"media","blob_b64":"AAH"}}',
            '{"sender":"op","sender_seq":1,"room":"r","payload":{"kind":"media","blob_b64":"AAH\u00e9"}}'.encode(),
            b'{"sender":"op","sender_seq":1,"room":"r","payload":{"kind":"media","blob_b64":"A!A-H+/w=="}}',
        ],
        ids=["missing-sender-seq", "not-json", "not-utf8", "array-body", "nan-pose", "ajar-target",
             "infinite-sender-seq", "unknown-edit-op", "deep-nesting", "string-host-seq", "list-edit-node",
             "string-playing", "bool-base-version", "numeric-sender", "media-bad-padding", "media-non-ascii",
             "media-non-alphabet"],
    )
    def test_malformed_body_is_room_error(self, body):
        with pytest.raises(RoomError, match="malformed frame body"):
            decode_envelope(struct.pack(">I", len(body)) + body)

    @pytest.mark.parametrize("frame, refusal", [
        (b"\x00\x00", "truncated frame: missing length prefix"),
        (encode_envelope(Envelope("op", 1, "r", CallEnd()))[:-1], "truncated frame: expected 87 payload bytes"),
    ], ids=["no-length-prefix", "short-body"])
    def test_truncated_frame_is_room_error(self, frame, refusal):
        with pytest.raises(RoomError, match=f"^{refusal}$"):
            decode_envelope(frame)

    def test_avatar_payload_round_trip(self):
        avatar = AvatarState("op", Role.OPERATOR, Pose((0.0, 1.7, 0.0)), (0.0, 0.0, 1.0))
        env = Envelope(sender="op", sender_seq=1, room="r", payload=Avatar(avatar))
        assert envelope_from_dict(envelope_to_dict(env)) == env


# One frame per payload kind, byte for byte as the codec writes it.
GOLDEN_PAYLOAD_FRAMES = {
    "avatar": (
        Envelope("op", 1, "r1", Avatar(AvatarState("op", Role.OPERATOR, Pose((0.5, 1.7, -0.25)), (0.0, 0.6, 0.8)))),
        b'\x00\x00\x00\xc8{"host_seq":null,"payload":{"client":"op","gaze":[0.0,0.6,0.8],"head_pose":'
        b'{"pos":[0.5,1.7,-0.25],"quat":[1.0,0.0,0.0,0.0]},"kind":"avatar","role":"Operator"},'
        b'"room":"r1","sender":"op","sender_seq":1}',
    ),
    "sync_req": (
        Envelope("op", 2, "r1", SyncReq(SyncRequest("op", Role.OPERATOR, 3, (
            SetHighlight("V1", (1.0, 0.5, 0.0), Role.OPERATOR, 4), SetIndication("V2", True, Role.OPERATOR, 5))))),
        b'\x00\x00\x018{"host_seq":null,"payload":{"base_version":3,"edits":[{"color":[1.0,0.5,0.0],'
        b'"node":"V1","op":"set_highlight","role":"Operator","seq":4},{"node":"V2","op":"set_indication",'
        b'"playing":true,"role":"Operator","seq":5}],"kind":"sync_req","owner":"op","owner_role":"Operator"},'
        b'"room":"r1","sender":"op","sender_seq":2}',
    ),
    "sync_commit": (
        Envelope("host", 7, "r1", SyncCommit((SetValveState("V1", ValveState.OPEN, Role.EXPERT, 2),), 4), 9),
        b'\x00\x00\x00\xc3{"host_seq":9,"payload":{"accepted":[{"node":"V1","op":"set_valve_state",'
        b'"role":"Expert","seq":2,"state":"Open"}],"kind":"sync_commit","new_version":4},'
        b'"room":"r1","sender":"host","sender_seq":7}',
    ),
    "instruction": (
        Envelope("ex", 3, "r1", Instruction("set valve 2V4 to Closed", "2V4", ValveState.CLOSED), 5),
        b'\x00\x00\x00\x99{"host_seq":5,"payload":{"kind":"instruction","target":"Closed",'
        b'"text":"set valve 2V4 to Closed","valve":"2V4"},"room":"r1","sender":"ex","sender_seq":3}',
    ),
    "report_temperature": (
        Envelope("ex", 4, "r1", ReportTemperature(), 6),
        b'\x00\x00\x00_{"host_seq":6,"payload":{"kind":"report_temperature"},"room":"r1","sender":"ex",'
        b'"sender_seq":4}',
    ),
    "step_done": (
        Envelope("op", 5, "r1", StepDone(41.25)),
        b'\x00\x00\x00o{"host_seq":null,"payload":{"kind":"step_done","temperature_c":41.25},"room":"r1",'
        b'"sender":"op","sender_seq":5}',
    ),
    "call_start": (
        Envelope("op", 1, "r1", CallStart()),
        b'\x00\x00\x00Z{"host_seq":null,"payload":{"kind":"call_start"},"room":"r1","sender":"op","sender_seq":1}',
    ),
    "call_end": (
        Envelope("ex", 9, "r1", CallEnd(), 12),
        b'\x00\x00\x00V{"host_seq":12,"payload":{"kind":"call_end"},"room":"r1","sender":"ex","sender_seq":9}',
    ),
    "media": (
        Envelope("op", 6, "r1", MediaSignal(b"\x00\x01\xfe\xff")),
        b'\x00\x00\x00k{"host_seq":null,"payload":{"blob_b64":"AAH+/w==","kind":"media"},"room":"r1",'
        b'"sender":"op","sender_seq":6}',
    ),
}

# One frame per edit op, each carried alone in a commit, byte for byte.
GOLDEN_EDIT_FRAMES = {
    "set_pose": (
        SetPose("V1", Pose((1.0, 0.0, -2.5), (0.0, 1.0, 0.0, 0.0)), Role.EXPERT, 1),
        b'\x00\x00\x00\xe4{"host_seq":1,"payload":{"accepted":[{"node":"V1","op":"set_pose","pose":'
        b'{"pos":[1.0,0.0,-2.5],"quat":[0.0,1.0,0.0,0.0]},"role":"Expert","seq":1}],"kind":"sync_commit",'
        b'"new_version":1},"room":"r1","sender":"host","sender_seq":1}',
    ),
    "set_valve_state": (
        SetValveState("V2", ValveState.CLOSED, Role.OPERATOR, 2),
        b'\x00\x00\x00\xc7{"host_seq":1,"payload":{"accepted":[{"node":"V2","op":"set_valve_state",'
        b'"role":"Operator","seq":2,"state":"Closed"}],"kind":"sync_commit","new_version":1},'
        b'"room":"r1","sender":"host","sender_seq":1}',
    ),
    "set_highlight": (
        SetHighlight("V3", None, Role.EXPERT, 3),
        b'\x00\x00\x00\xbf{"host_seq":1,"payload":{"accepted":[{"color":null,"node":"V3","op":"set_highlight",'
        b'"role":"Expert","seq":3}],"kind":"sync_commit","new_version":1},"room":"r1","sender":"host",'
        b'"sender_seq":1}',
    ),
    "set_indication": (
        SetIndication("V4", False, Role.OPERATOR, 4),
        b'\x00\x00\x00\xc5{"host_seq":1,"payload":{"accepted":[{"node":"V4","op":"set_indication",'
        b'"playing":false,"role":"Operator","seq":4}],"kind":"sync_commit","new_version":1},'
        b'"room":"r1","sender":"host","sender_seq":1}',
    ),
    "add_annotation": (
        AddAnnotation(Annotation("a1", Role.EXPERT, "V1", "check this", (0.0, 0.1, 0.0)), Role.EXPERT, 5),
        b'\x00\x00\x01\x10{"host_seq":1,"payload":{"accepted":[{"annotation":{"anchor":"V1",'
        b'"author_role":"Expert","id":"a1","offset":[0.0,0.1,0.0],"text":"check this"},"op":"add_annotation",'
        b'"role":"Expert","seq":5}],"kind":"sync_commit","new_version":1},"room":"r1","sender":"host",'
        b'"sender_seq":1}',
    ),
    "remove_annotation": (
        RemoveAnnotation("a1", Role.EXPERT, 6),
        b'\x00\x00\x00\xbf{"host_seq":1,"payload":{"accepted":[{"annotation_id":"a1","op":"remove_annotation",'
        b'"role":"Expert","seq":6}],"kind":"sync_commit","new_version":1},"room":"r1","sender":"host",'
        b'"sender_seq":1}',
    ),
}


def _sync_req_frame(edit_doc: str) -> bytes:
    body = ('{"sender":"ex","sender_seq":1,"room":"r","payload":{"kind":"sync_req","owner":"ex",'
            '"owner_role":"Expert","base_version":0,"edits":[' + edit_doc + "]}}").encode()
    return struct.pack(">I", len(body)) + body


class TestGoldenFrames:
    """The wire bytes are pinned: each kind and each op encodes to these frames and decodes back."""

    def test_every_payload_kind_and_edit_op_is_pinned(self):
        payload_types = set(typing.get_args(Payload))
        assert {type(env.payload) for env, _ in GOLDEN_PAYLOAD_FRAMES.values()} == payload_types
        assert {type(edit) for edit, _ in GOLDEN_EDIT_FRAMES.values()} == set(typing.get_args(Edit))

    @pytest.mark.parametrize("kind", sorted(GOLDEN_PAYLOAD_FRAMES))
    def test_payload_frame(self, kind):
        env, frame = GOLDEN_PAYLOAD_FRAMES[kind]
        assert encode_envelope(env) == frame
        assert decode_envelope(frame) == (env, b"")

    @pytest.mark.parametrize("op", sorted(GOLDEN_EDIT_FRAMES))
    def test_edit_frame(self, op):
        edit, frame = GOLDEN_EDIT_FRAMES[op]
        env = Envelope("host", 1, "r1", SyncCommit((edit,), 1), 1)
        assert encode_envelope(env) == frame
        assert decode_envelope(frame) == (env, b"")


class TestEditRefusals:
    """An edit's fields are refused in one order: shape, role, seq, op, node, value."""

    def test_role_is_refused_before_seq_and_op(self):
        doc = {"op": "paint", "node": "V1", "role": "Admin", "seq": -1}
        with pytest.raises(ConfigError, match="^role must be one of 'Expert', 'Operator', got 'Admin'$"):
            edit_from_dict(doc)
        frame = _sync_req_frame('{"op":"paint","node":"V1","role":"Admin","seq":-1}')
        with pytest.raises(RoomError, match="role must be one of"):
            decode_envelope(frame)

    def test_seq_is_refused_before_op(self):
        with pytest.raises(ConfigError, match="^seq must be an integer in"):
            edit_from_dict({"op": "paint", "node": "V1", "role": "Expert", "seq": True})

    def test_op_is_refused_before_node_and_value(self):
        with pytest.raises(ConfigError, match="^unknown edit op 'paint'$"):
            edit_from_dict({"op": "paint", "node": [], "role": "Expert", "seq": 1})
        with pytest.raises(ConfigError, match="^node must be a non-empty string"):
            edit_from_dict({"op": "set_valve_state", "node": "", "state": "Ajar", "role": "Expert", "seq": 1})

    @pytest.mark.parametrize(
        "edit_doc",
        [
            '{"op":[],"node":"V1","state":"Open","role":"Expert","seq":1}',
            '{"op":"set_valve_state","node":"V1","state":"Open","role":[],"seq":1}',
            '{"op":"set_valve_state","node":"V1","state":[],"role":"Expert","seq":1}',
            '{"op":{},"node":"V1","state":"Open","role":"Expert","seq":1}',
        ],
        ids=["list-op", "list-role", "list-state", "object-op"],
    )
    def test_unhashable_field_is_room_error(self, edit_doc):
        with pytest.raises(RoomError, match="malformed frame body"):
            decode_envelope(_sync_req_frame(edit_doc))


class IntSubclass(int):
    pass


class FloatSubclass(float):
    pass


def golden_values() -> list:
    """Every value in the golden frames' bodies: each object, each list and each leaf."""
    def walk(value):
        yield value
        for child in value.values() if isinstance(value, dict) else value if isinstance(value, list) else ():
            yield from walk(child)

    frames = [frame for _, frame in (*GOLDEN_PAYLOAD_FRAMES.values(), *GOLDEN_EDIT_FRAMES.values())]
    return [value for frame in frames for value in walk(json.loads(frame[4:]))]


# Each check that the field tables use, with the parameters they give it.
TABLE_CHECKS = [
    (checks.count, ()), (checks.ident, ()), (checks.finite, ()), (checks.color, ()),
    *((checks.typed, (kind,)) for kind in (dict, list, str, bool)),
    (checks.member, (Role,)), (checks.member, (ValveState,)),
    (checks.vector, (3,)), (checks.unit, (3, GAZE_NORM_TOL)), (checks.unit, (4, QUAT_NORM_TOL)),
]
SUBSET_VALUES = [
    *MUTATIONS, *golden_values(), IntSubclass(3), FloatSubclass(0.5), True, -0.0, 2**53, [1, 2, 3], [1, 0, 0, 0],
    (0.5, 1.7, -0.25), (-0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0), (2.0, 0.5, 0.0), [1.0, 0.5, 0.0],
    [1e308, 1e308, 1e308], [FloatSubclass(1.0), 0.0, 0.0, 0.0], "", "Open", {},
]


class TestAcceptTests:
    """A check's accept test, which the built codecs and ``__post_init__``s
    inline, holds only where the check returns the test's result."""

    def test_each_declared_test_is_exercised(self):
        declared = {value for value in vars(checks).values() if callable(value) and hasattr(value, "accept")}
        assert declared == {check for check, _ in TABLE_CHECKS}

    @pytest.mark.parametrize("check, params", TABLE_CHECKS, ids=[
        "-".join([check.__name__, *(getattr(param, "__name__", str(param)) for param in params[:1])])
        for check, params in TABLE_CHECKS])
    def test_accept_test_is_a_subset_of_its_check(self, check, params):
        scope = dict(zip(check.__code__.co_varnames[2:check.__code__.co_argcount], params))
        scope.update((name, eval(expression, vars(checks), scope)) for name, expression in check.given.items())
        accepted = []
        for value in SUBSET_VALUES:
            scope["v"] = value
            if eval(check.accept, vars(checks), scope):
                result, returned = eval(check.result, vars(checks), scope), check(value, "field", *params)
                assert (type(returned), repr(returned)) == (type(result), repr(result)), value
                accepted.append(value)
        assert accepted

    def test_an_int_subclass_and_a_bool_reach_the_check(self, monkeypatch):
        calls = []
        count = checks.count
        monkeypatch.setattr(checks, "count", lambda value, name: calls.append((value, name)) or count(value, name))
        doc = {"op": "remove_annotation", "annotation_id": "a1", "role": "Expert", "seq": IntSubclass(3)}
        assert type(edit_from_dict(doc).author_seq) is IntSubclass
        with pytest.raises(ConfigError, match="^seq must be an integer in"):
            edit_from_dict({**doc, "seq": True})
        assert calls == [(3, "seq"), (True, "seq")]
        assert [type(value) for value, _ in calls] == [IntSubclass, bool]


class TestGapDetection:
    def test_missing_seq_detected(self):
        envs = [Envelope(sender="op", sender_seq=s, room="r", payload=CallStart()) for s in (1, 2, 4, 6)]
        gaps = detect_gaps(envs)
        assert gaps == {"op": [3, 5]}

    def test_no_gaps(self):
        envs = [Envelope(sender="op", sender_seq=s, room="r", payload=CallStart()) for s in (1, 2, 3)]
        assert detect_gaps(envs) == {}
