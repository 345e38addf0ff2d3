"""Rooms, roles, message envelopes and host-ordered commit sequencing.

The room host is a pure sequencer: it stamps every broadcast with a strictly
increasing host sequence number, merges sync requests against the one
authoritative shared model, and re-broadcasts accepted edits. Endpoints hold
no shared mutable state; everything travels by message value.

Wire format (documented in docs/protocol.md): length-prefixed JSON, a 4-byte
big-endian payload length followed by a UTF-8 JSON envelope object.
"""
from __future__ import annotations

import base64
import json
import math
import struct
from typing import Optional, Union

from replicasim import checks
from replicasim.records import field, record
from replicasim.replica import MergeOutcome, SyncRequest, synchronize
from replicasim.scene import Edit, Pose, Role, SceneModel, ValveState, edit_from_dict, edit_to_dict

GAZE_NORM_TOL = 1e-9
EXPERT_ELEVATION_M = 1.5
HOST_ID = "host"


class RoomError(Exception):
    pass


class RoleOccupiedError(RoomError):
    pass


@record(frozen=True)
class AvatarState:
    client: str
    role: Role
    head_pose: Pose
    gaze_direction: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        checks.ident(self.client, "client")
        object.__setattr__(self, "gaze_direction", checks.unit(self.gaze_direction, "gaze_direction", 3, GAZE_NORM_TOL))


# --- Payload union -------------------------------------------------------------


@record(frozen=True)
class Join:
    role: Role


@record(frozen=True)
class Avatar:
    state: AvatarState


@record(frozen=True)
class SyncReq:
    request: SyncRequest


@record(frozen=True)
class SyncCommit:
    accepted: tuple[Edit, ...]
    new_version: int


@record(frozen=True)
class Instruction:
    """Spoken guidance; ``text`` is what the operator hears and logs.

    A valve operation also carries its ``valve`` and ``target``, which the
    operator acts on.
    """

    text: str
    valve: Optional[str] = None
    target: Optional[ValveState] = None


@record(frozen=True)
class CallStart:
    pass


@record(frozen=True)
class CallEnd:
    pass


@record(frozen=True)
class MediaSignal:
    blob: bytes


Payload = Union[Join, Avatar, SyncReq, SyncCommit, Instruction, CallStart, CallEnd, MediaSignal]


@record(frozen=True)
class Envelope:
    sender: str
    sender_seq: int
    room: str
    payload: Payload
    host_seq: Optional[int] = None


@record
class RoomState:
    """Membership, the authoritative shared model, and sequencing counters."""

    room: str
    shared: SceneModel
    members: dict[str, Role] = field(default_factory=dict)
    avatar_map: dict[str, AvatarState] = field(default_factory=dict)
    next_host_seq: int = 1
    sender_counters: dict[str, int] = field(default_factory=dict)

    def _stamp(self, sender: str, payload: Payload) -> "tuple[RoomState, Envelope]":
        counters = dict(self.sender_counters)
        counters[sender] = counters.get(sender, 0) + 1
        env = Envelope(
            sender=sender,
            sender_seq=counters[sender],
            room=self.room,
            payload=payload,
            host_seq=self.next_host_seq,
        )
        state = RoomState(self.room, self.shared, self.members, self.avatar_map, self.next_host_seq + 1, counters)
        return state, env


def join_room(state: RoomState, client: str, role: Role) -> tuple[RoomState, Envelope]:
    """Add a member; at most one Expert and one Operator per room."""
    if not client:
        raise RoomError("client id must be non-empty")
    if role in state.members.values():
        raise RoleOccupiedError(f"room {state.room!r} already has an {role.value}")
    if client in state.members:
        raise RoomError(f"client {client!r} already joined")
    members = dict(state.members)
    members[client] = role
    state = RoomState(state.room, state.shared, members, state.avatar_map, state.next_host_seq, state.sender_counters)
    return state._stamp(client, Join(role))


def update_avatar(state: RoomState, avatar: AvatarState) -> tuple[RoomState, Envelope]:
    if avatar.client not in state.members:
        raise RoomError(f"client {avatar.client!r} is not a member")
    avatars = dict(state.avatar_map)
    avatars[avatar.client] = avatar
    state = RoomState(state.room, state.shared, state.members, avatars, state.next_host_seq, state.sender_counters)
    return state._stamp(avatar.client, Avatar(avatar))


def submit_sync(state: RoomState, req: SyncRequest) -> tuple[RoomState, Envelope, MergeOutcome]:
    """Merge a sync request against the authoritative model and broadcast the commit."""
    if req.owner not in state.members:
        raise RoomError(f"sync from non-member {req.owner!r}")
    joined = state.members[req.owner]
    if req.owner_role is not joined:
        raise RoomError(f"sync from {req.owner!r} claims {req.owner_role.value}, joined as {joined.value}")
    outcome = synchronize(req, state.shared)
    state = RoomState(
        state.room, outcome.merged, state.members, state.avatar_map, state.next_host_seq, state.sender_counters
    )
    state, env = state._stamp(HOST_ID, SyncCommit(outcome.accepted, outcome.merged.version))
    return state, env, outcome


def place_expert_avatar(operator_avatar: AvatarState) -> Pose:
    """God-point-of-view placement: the expert hovers above the operator.

    Returns a pose ``EXPERT_ELEVATION_M`` meters straight above the operator's
    head, oriented to look at the model anchor at the origin.
    """
    ox, oy, oz = operator_avatar.head_pose.position
    position = (ox, oy + EXPERT_ELEVATION_M, oz)
    direction = tuple(0.0 - c for c in position)  # toward the anchor; 0.0 - 0.0 keeps zeros positive
    return Pose(position, _look_rotation(direction))


def _look_rotation(direction: tuple[float, ...]) -> tuple[float, float, float, float]:
    """Shortest-arc quaternion turning +Z onto ``direction``; identity if degenerate."""
    norm = math.sqrt(sum(c * c for c in direction))
    if norm < 1e-12:
        return (1.0, 0.0, 0.0, 0.0)
    dx, dy, dz = (c / norm for c in direction)
    w = 1.0 + dz  # 1 + dot((0,0,1), d)
    if w < 1e-12:
        return (0.0, 0.0, 1.0, 0.0)  # 180 degrees about +Y
    x, y, z = -dy, dx, 0.0  # cross((0,0,1), d)
    qn = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / qn, x / qn, y / qn, z / qn)


# --- Wire codec ----------------------------------------------------------------


def payload_to_dict(payload: Payload) -> dict:
    if isinstance(payload, Join):
        return {"kind": "join", "role": payload.role.value}
    if isinstance(payload, Avatar):
        a = payload.state
        return {
            "kind": "avatar",
            "client": a.client,
            "role": a.role.value,
            "head_pose": a.head_pose.to_dict(),
            "gaze": list(a.gaze_direction),
        }
    if isinstance(payload, SyncReq):
        r = payload.request
        return {
            "kind": "sync_req",
            "owner": r.owner,
            "owner_role": r.owner_role.value,
            "base_version": r.base_version,
            "edits": [edit_to_dict(e) for e in r.edits],
        }
    if isinstance(payload, SyncCommit):
        return {
            "kind": "sync_commit",
            "accepted": [edit_to_dict(e) for e in payload.accepted],
            "new_version": payload.new_version,
        }
    if isinstance(payload, Instruction):
        doc = {"kind": "instruction", "text": payload.text}
        if payload.valve is not None:
            doc["valve"] = payload.valve
        if payload.target is not None:
            doc["target"] = payload.target.value
        return doc
    if isinstance(payload, CallStart):
        return {"kind": "call_start"}
    if isinstance(payload, CallEnd):
        return {"kind": "call_end"}
    if isinstance(payload, MediaSignal):
        return {"kind": "media", "blob_b64": base64.b64encode(payload.blob).decode("ascii")}
    raise RoomError(f"unsupported payload {payload!r}")


def payload_from_dict(doc: dict) -> Payload:
    kind = checks.typed(doc, "payload", dict).get("kind")
    if kind == "join":
        return Join(checks.member(doc.get("role"), "role", Role))
    if kind == "avatar":
        return Avatar(
            AvatarState(
                client=doc.get("client"),
                role=checks.member(doc.get("role"), "role", Role),
                head_pose=Pose.from_dict(doc.get("head_pose")),
                gaze_direction=doc.get("gaze"),
            )
        )
    if kind == "sync_req":
        return SyncReq(
            SyncRequest(
                owner=checks.ident(doc.get("owner"), "owner"),
                owner_role=checks.member(doc.get("owner_role"), "owner_role", Role),
                base_version=checks.count(doc.get("base_version"), "base_version"),
                edits=tuple(map(edit_from_dict, checks.typed(doc.get("edits"), "edits", list))),
            )
        )
    if kind == "sync_commit":
        return SyncCommit(
            accepted=tuple(map(edit_from_dict, checks.typed(doc.get("accepted"), "accepted", list))),
            new_version=checks.count(doc.get("new_version"), "new_version"),
        )
    if kind == "instruction":
        valve, target = doc.get("valve"), doc.get("target")
        return Instruction(
            checks.typed(doc.get("text"), "text", str),
            None if valve is None else checks.ident(valve, "valve"),
            None if target is None else checks.member(target, "target", ValveState),
        )
    if kind == "call_start":
        return CallStart()
    if kind == "call_end":
        return CallEnd()
    if kind == "media":
        return MediaSignal(base64.b64decode(checks.typed(doc.get("blob_b64"), "blob_b64", str)))
    raise ValueError(f"unknown payload kind {kind!r}")


def envelope_to_dict(env: Envelope) -> dict:
    return {
        "host_seq": env.host_seq,
        "sender": env.sender,
        "sender_seq": env.sender_seq,
        "room": env.room,
        "payload": payload_to_dict(env.payload),
    }


def envelope_from_dict(doc: dict) -> Envelope:
    host_seq = checks.typed(doc, "envelope", dict).get("host_seq")
    return Envelope(
        sender=checks.ident(doc.get("sender"), "sender"),
        sender_seq=checks.count(doc.get("sender_seq"), "sender_seq"),
        room=checks.ident(doc.get("room"), "room"),
        payload=payload_from_dict(doc.get("payload")),
        host_seq=None if host_seq is None else checks.count(host_seq, "host_seq"),
    )


def encode_envelope(env: Envelope) -> bytes:
    body = checks.dumps(envelope_to_dict(env)).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def decode_envelope(data: bytes) -> tuple[Envelope, bytes]:
    """Decode one length-prefixed envelope; returns (envelope, remaining bytes).

    A truncated frame or a malformed body raises ``RoomError``.
    """
    if len(data) < 4:
        raise RoomError("truncated frame: missing length prefix")
    (length,) = struct.unpack(">I", data[:4])
    if len(data) < 4 + length:
        raise RoomError(f"truncated frame: expected {length} payload bytes")
    try:
        env = envelope_from_dict(json.loads(data[4 : 4 + length].decode("utf-8")))
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested past the interpreter's limit
        raise RoomError(f"malformed frame body: {exc!r}") from exc
    return env, data[4 + length :]


def detect_gaps(received: list[Envelope]) -> dict[str, list[int]]:
    """Missing sender sequence numbers per sender, for loss detection."""
    by_sender: dict[str, list[int]] = {}
    for env in received:
        by_sender.setdefault(env.sender, []).append(env.sender_seq)
    gaps: dict[str, list[int]] = {}
    for sender, seqs in by_sender.items():
        expected = set(range(1, max(seqs) + 1))
        missing = sorted(expected - set(seqs))
        if missing:
            gaps[sender] = missing
    return gaps
