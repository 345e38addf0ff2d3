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
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from replicasim.replica import MergeOutcome, SyncRequest, synchronize
from replicasim.scene import Edit, Pose, Role, SceneModel, edit_from_dict, edit_to_dict

GAZE_NORM_TOL = 1e-9
DEFAULT_EXPERT_ELEVATION_M = 1.5
HOST_ID = "host"


class RoomError(Exception):
    pass


class RoleOccupiedError(RoomError):
    pass


class NoPeerError(RoomError):
    pass


@dataclass(frozen=True)
class AvatarState:
    client: str
    role: Role
    head_pose: Pose
    gaze_direction: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        norm = math.sqrt(sum(c * c for c in self.gaze_direction))
        if abs(norm - 1.0) > GAZE_NORM_TOL:
            raise ValueError(f"gaze_direction norm {norm!r} deviates from 1 beyond {GAZE_NORM_TOL}")


# --- Payload union -------------------------------------------------------------


@dataclass(frozen=True)
class Join:
    role: Role


@dataclass(frozen=True)
class Avatar:
    state: AvatarState


@dataclass(frozen=True)
class SyncReq:
    request: SyncRequest


@dataclass(frozen=True)
class SyncCommit:
    accepted: tuple[Edit, ...]
    new_version: int


@dataclass(frozen=True)
class Instruction:
    text: str


@dataclass(frozen=True)
class CallStart:
    pass


@dataclass(frozen=True)
class CallEnd:
    pass


@dataclass(frozen=True)
class MediaSignal:
    blob: bytes


Payload = Union[Join, Avatar, SyncReq, SyncCommit, Instruction, CallStart, CallEnd, MediaSignal]


@dataclass(frozen=True)
class Envelope:
    sender: str
    sender_seq: int
    room: str
    payload: Payload
    host_seq: Optional[int] = None


@dataclass
class RoomState:
    """Membership, the authoritative shared model, and sequencing counters."""

    room: str
    shared: SceneModel
    members: dict[str, Role] = field(default_factory=dict)
    avatar_map: dict[str, AvatarState] = field(default_factory=dict)
    next_host_seq: int = 1
    sender_counters: dict[str, int] = field(default_factory=dict)
    host_id: str = HOST_ID

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
        state = replace(self, sender_counters=counters, next_host_seq=self.next_host_seq + 1)
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
    state = replace(state, members=members)
    return state._stamp(client, Join(role))


def update_avatar(state: RoomState, avatar: AvatarState) -> tuple[RoomState, Envelope]:
    if avatar.client not in state.members:
        raise RoomError(f"client {avatar.client!r} is not a member")
    avatars = dict(state.avatar_map)
    avatars[avatar.client] = avatar
    state = replace(state, avatar_map=avatars)
    return state._stamp(avatar.client, Avatar(avatar))


def submit_sync(state: RoomState, req: SyncRequest) -> tuple[RoomState, Envelope, MergeOutcome]:
    """Merge a sync request against the authoritative model and broadcast the commit."""
    if req.owner not in state.members:
        raise RoomError(f"sync from non-member {req.owner!r}")
    joined = state.members[req.owner]
    if req.owner_role is not joined:
        raise RoomError(f"sync from {req.owner!r} claims {req.owner_role.value}, joined as {joined.value}")
    outcome = synchronize(req, state.shared)
    state = replace(state, shared=outcome.merged)
    state, env = state._stamp(state.host_id, SyncCommit(outcome.accepted, outcome.merged.version))
    return state, env, outcome


def relay_media(state: RoomState, from_client: str, blob: bytes) -> tuple[RoomState, Envelope, str]:
    """Blind passthrough of an opaque media blob to the other member, bit-exact."""
    if from_client not in state.members:
        raise RoomError(f"relay from non-member {from_client!r}")
    if len(state.members) < 2:
        raise NoPeerError("no peer present to relay to")
    peer = next(c for c in state.members if c != from_client)
    state, env = state._stamp(from_client, MediaSignal(blob))
    return state, env, peer


def place_expert_avatar(
    operator_avatar: AvatarState,
    elevation: float = DEFAULT_EXPERT_ELEVATION_M,
    anchor_position: tuple[float, float, float] = (0.0, 0.0, 0.0),
    horizontal_offset: tuple[float, float] = (0.0, 0.0),
) -> Pose:
    """God-point-of-view placement: the expert hovers above the operator.

    Returns a pose ``elevation`` meters above the operator's head (X/Z offset
    configurable), oriented to look at the model anchor.
    """
    if elevation <= 0:
        raise ValueError(f"elevation must be positive, got {elevation!r}")
    ox, oy, oz = operator_avatar.head_pose.position
    position = (ox + horizontal_offset[0], oy + elevation, oz + horizontal_offset[1])
    direction = tuple(a - p for a, p in zip(anchor_position, position))
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
        return {"kind": "instruction", "text": payload.text}
    if isinstance(payload, CallStart):
        return {"kind": "call_start"}
    if isinstance(payload, CallEnd):
        return {"kind": "call_end"}
    if isinstance(payload, MediaSignal):
        return {"kind": "media", "blob_b64": base64.b64encode(payload.blob).decode("ascii")}
    raise RoomError(f"unsupported payload {payload!r}")


def payload_from_dict(doc: dict) -> Payload:
    kind = doc.get("kind")
    if kind == "join":
        return Join(Role(doc["role"]))
    if kind == "avatar":
        return Avatar(
            AvatarState(
                client=doc["client"],
                role=Role(doc["role"]),
                head_pose=Pose.from_dict(doc["head_pose"]),
                gaze_direction=tuple(float(c) for c in doc["gaze"]),  # type: ignore[arg-type]
            )
        )
    if kind == "sync_req":
        return SyncReq(
            SyncRequest(
                owner=doc["owner"],
                owner_role=Role(doc["owner_role"]),
                base_version=int(doc["base_version"]),
                edits=tuple(edit_from_dict(e) for e in doc["edits"]),
            )
        )
    if kind == "sync_commit":
        return SyncCommit(
            accepted=tuple(edit_from_dict(e) for e in doc["accepted"]),
            new_version=int(doc["new_version"]),
        )
    if kind == "instruction":
        return Instruction(doc["text"])
    if kind == "call_start":
        return CallStart()
    if kind == "call_end":
        return CallEnd()
    if kind == "media":
        return MediaSignal(base64.b64decode(doc["blob_b64"]))
    raise RoomError(f"unknown payload kind {kind!r}")


def envelope_to_dict(env: Envelope) -> dict:
    return {
        "host_seq": env.host_seq,
        "sender": env.sender,
        "sender_seq": env.sender_seq,
        "room": env.room,
        "payload": payload_to_dict(env.payload),
    }


def envelope_from_dict(doc: dict) -> Envelope:
    return Envelope(
        sender=doc["sender"],
        sender_seq=int(doc["sender_seq"]),
        room=doc["room"],
        payload=payload_from_dict(doc["payload"]),
        host_seq=doc.get("host_seq"),
    )


def encode_envelope(env: Envelope) -> bytes:
    body = json.dumps(envelope_to_dict(env), sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def decode_envelope(data: bytes) -> tuple[Envelope, bytes]:
    """Decode one length-prefixed envelope; returns (envelope, remaining bytes)."""
    if len(data) < 4:
        raise RoomError("truncated frame: missing length prefix")
    (length,) = struct.unpack(">I", data[:4])
    if len(data) < 4 + length:
        raise RoomError(f"truncated frame: expected {length} payload bytes")
    env = envelope_from_dict(json.loads(data[4 : 4 + length].decode("utf-8")))
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
