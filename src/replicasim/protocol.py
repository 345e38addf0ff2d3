"""Rooms, roles, message envelopes and host-ordered commit sequencing.

The room host is a pure sequencer: it stamps every envelope it sends with a
strictly increasing host sequence number, merges sync requests against the one
authoritative shared model, and re-broadcasts accepted edits. Joining a room
stamps nothing and every stamped envelope is sent, so on a lossless link the
sequence numbers arrive without holes. Endpoints hold no shared mutable state;
everything travels by message value.

The payloads are what a session sends, one type per meaning: the call's start
and end, avatars, sync requests and commits, the guide's steps
(``Instruction``, ``ReportTemperature``) and the operator's ``StepDone``. No
session sends a ``MediaSignal``; the replica-sync benchmark carries each
encoded frame in one.

Wire format (documented in docs/protocol.md): length-prefixed JSON, a 4-byte
big-endian payload length followed by a UTF-8 JSON envelope object.
"""
from __future__ import annotations

import base64
import binascii
import math
import struct
from typing import Callable, Optional, Union

from replicasim import ConfigError, RoomError, checks
from replicasim.checks import MAX_COUNT
from replicasim.records import field, record
from replicasim.replica import MergeOutcome, SyncRequest, synchronize
from replicasim.scene import (_ROLES, _VALVE_STATES, Edit, Pose, Role, SceneModel, ValveState, edit_from_dict,
                              edit_to_dict)

GAZE_NORM_TOL = 1e-9
EXPERT_ELEVATION_M = 1.5
HOST_ID = "host"


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
class ReportTemperature:
    """The guide asks for the plant's outlet temperature."""


@record(frozen=True)
class StepDone:
    """The operator's reply to each of the guide's steps; the reply to a
    ``ReportTemperature`` carries the reading in degrees Celsius."""

    temperature_c: Optional[float] = None

    def __post_init__(self) -> None:
        if self.temperature_c is not None:
            object.__setattr__(self, "temperature_c", checks.finite(self.temperature_c, "temperature_c"))


@record(frozen=True)
class CallStart:
    pass


@record(frozen=True)
class CallEnd:
    pass


@record(frozen=True)
class MediaSignal:
    blob: bytes


Payload = Union[Avatar, SyncReq, SyncCommit, Instruction, ReportTemperature, StepDone, CallStart, CallEnd, MediaSignal]


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

    def _stamp(
        self, sender: str, payload: Payload, shared: Optional[SceneModel] = None, avatar_map: Optional[dict] = None
    ) -> "tuple[RoomState, Envelope]":
        """The state once ``sender`` sends ``payload``, with ``shared`` or ``avatar_map`` in place
        of its own when given, and the stamped envelope. ``self`` is left as it was."""
        counters = self.sender_counters.copy()
        seq = counters[sender] = counters.get(sender, 0) + 1
        room, host_seq = self.room, self.next_host_seq
        state = RoomState(room, self.shared if shared is None else shared, self.members,
                          self.avatar_map if avatar_map is None else avatar_map, host_seq + 1, counters)
        return state, Envelope(sender, seq, room, payload, host_seq)


def join_room(state: RoomState, client: str, role: Role) -> RoomState:
    """Add a member; at most one Expert and one Operator per room. Joining
    sends nothing, so it stamps nothing."""
    if not client:
        raise RoomError("client id must be non-empty")
    if role in state.members.values():
        raise RoomError(f"room {state.room!r} already has an {role.value}")
    if client in state.members:
        raise RoomError(f"client {client!r} already joined")
    members = dict(state.members)
    members[client] = role
    return RoomState(state.room, state.shared, members, state.avatar_map, state.next_host_seq, state.sender_counters)


def _check_claim(state: RoomState, client: str, role: Role, kind: str) -> None:
    """Refuse a ``kind`` of message that speaks for a non-member, or in a role its client did not join with."""
    joined = state.members.get(client)
    if joined is None:
        raise RoomError(f"{kind} from non-member {client!r}")
    if role is not joined:
        raise RoomError(f"{kind} from {client!r} claims {role.value}, joined as {joined.value}")


def update_avatar(state: RoomState, avatar: AvatarState) -> tuple[RoomState, Envelope]:
    """Record a member's avatar and stamp its relay, sent by the member."""
    _check_claim(state, avatar.client, avatar.role, "avatar")
    return state._stamp(avatar.client, Avatar(avatar), avatar_map={**state.avatar_map, avatar.client: avatar})


def submit_sync(state: RoomState, req: SyncRequest) -> tuple[RoomState, Envelope, MergeOutcome]:
    """Merge a sync request against the authoritative model and broadcast the commit."""
    _check_claim(state, req.owner, req.owner_role, "sync")
    outcome = synchronize(req, state.shared)
    state, env = state._stamp(HOST_ID, SyncCommit(outcome.accepted, outcome.merged.version), shared=outcome.merged)
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
# One encoder and one decoder per payload kind: encoders keyed by exact type,
# decoders by wire name. As in the edit codec of ``replicasim.scene``, whose enum
# value maps it shares, an enum is written from ``_value_``, and a decoder takes a
# field's usual value inline and calls its check in ``checks`` only to refuse it.

def _avatar_to_dict(payload: Avatar) -> dict:
    a = payload.state
    return {
        "kind": "avatar",
        "client": a.client,
        "role": a.role._value_,
        "head_pose": a.head_pose.to_dict(),
        "gaze": list(a.gaze_direction),
    }


def _avatar_from_dict(doc: dict) -> Avatar:
    role = doc.get("role")
    return Avatar(
        AvatarState(
            doc.get("client"),
            _ROLES[role] if type(role) is str and role in _ROLES else checks.member(role, "role", Role),
            Pose.from_dict(doc.get("head_pose")),
            doc.get("gaze"),
        )
    )


def _sync_req_to_dict(payload: SyncReq) -> dict:
    r = payload.request
    return {
        "kind": "sync_req",
        "owner": r.owner,
        "owner_role": r.owner_role._value_,
        "base_version": r.base_version,
        "edits": list(map(edit_to_dict, r.edits)),
    }


def _sync_req_from_dict(doc: dict) -> SyncReq:
    owner, role, base, edits = doc.get("owner"), doc.get("owner_role"), doc.get("base_version"), doc.get("edits")
    owner = owner if type(owner) is str and owner else checks.ident(owner, "owner")
    role = _ROLES[role] if type(role) is str and role in _ROLES else checks.member(role, "owner_role", Role)
    base = base if type(base) is int and 0 <= base <= MAX_COUNT else checks.count(base, "base_version")
    if type(edits) is not list:
        edits = checks.typed(edits, "edits", list)
    return SyncReq(SyncRequest(owner, role, base, tuple(map(edit_from_dict, edits))))


def _sync_commit_to_dict(payload: SyncCommit) -> dict:
    return {
        "kind": "sync_commit",
        "accepted": list(map(edit_to_dict, payload.accepted)),
        "new_version": payload.new_version,
    }


def _sync_commit_from_dict(doc: dict) -> SyncCommit:
    accepted, version = doc.get("accepted"), doc.get("new_version")
    if type(accepted) is not list:
        accepted = checks.typed(accepted, "accepted", list)
    accepted = tuple(map(edit_from_dict, accepted))
    version = version if type(version) is int and 0 <= version <= MAX_COUNT else checks.count(version, "new_version")
    return SyncCommit(accepted, version)


def _instruction_to_dict(payload: Instruction) -> dict:
    doc = {"kind": "instruction", "text": payload.text}
    if payload.valve is not None:
        doc["valve"] = payload.valve
    if payload.target is not None:
        doc["target"] = payload.target._value_
    return doc


def _instruction_from_dict(doc: dict) -> Instruction:
    text, valve, target = doc.get("text"), doc.get("valve"), doc.get("target")
    text = text if type(text) is str else checks.typed(text, "text", str)
    if valve is not None and not (type(valve) is str and valve):
        valve = checks.ident(valve, "valve")
    if target is not None:
        target = _VALVE_STATES[target] if type(target) is str and target in _VALVE_STATES else checks.member(
            target, "target", ValveState)
    return Instruction(text, valve, target)


def _step_done_to_dict(payload: StepDone) -> dict:
    if payload.temperature_c is None:
        return {"kind": "step_done"}
    return {"kind": "step_done", "temperature_c": payload.temperature_c}


def _media_to_dict(payload: MediaSignal) -> dict:
    return {"kind": "media", "blob_b64": base64.b64encode(payload.blob).decode("ascii")}


def _media_from_dict(doc: dict) -> MediaSignal:
    blob = doc.get("blob_b64")
    blob = blob if type(blob) is str else checks.typed(blob, "blob_b64", str)
    # As bytes, since b64decode refuses a non-ASCII str with a bare ValueError.
    return MediaSignal(base64.b64decode(blob.encode("ascii")))


_PAYLOAD_ENCODERS: dict[type, Callable[[Payload], dict]] = {
    Avatar: _avatar_to_dict,
    SyncReq: _sync_req_to_dict,
    SyncCommit: _sync_commit_to_dict,
    Instruction: _instruction_to_dict,
    ReportTemperature: lambda payload: {"kind": "report_temperature"},
    StepDone: _step_done_to_dict,
    CallStart: lambda payload: {"kind": "call_start"},
    CallEnd: lambda payload: {"kind": "call_end"},
    MediaSignal: _media_to_dict,
}
_PAYLOAD_DECODERS: dict[str, Callable[[dict], Payload]] = {
    "avatar": _avatar_from_dict,
    "sync_req": _sync_req_from_dict,
    "sync_commit": _sync_commit_from_dict,
    "instruction": _instruction_from_dict,
    "report_temperature": lambda doc: ReportTemperature(),
    "step_done": lambda doc: StepDone(doc.get("temperature_c")),
    "call_start": lambda doc: CallStart(),
    "call_end": lambda doc: CallEnd(),
    "media": _media_from_dict,
}


def payload_to_dict(payload: Payload) -> dict:
    encode = _PAYLOAD_ENCODERS.get(type(payload))
    if encode is None:
        raise TypeError(f"unsupported payload {payload!r}")  # a fault of the sender, not a refusal
    return encode(payload)


def payload_from_dict(doc: dict) -> Payload:
    if type(doc) is not dict:
        doc = checks.typed(doc, "payload", dict)
    kind = doc.get("kind")
    decode = _PAYLOAD_DECODERS.get(kind) if type(kind) is str else None
    if decode is None:
        raise ConfigError(f"unknown payload kind {kind!r}")
    return decode(doc)


def envelope_to_dict(env: Envelope) -> dict:
    return {
        "host_seq": env.host_seq,
        "sender": env.sender,
        "sender_seq": env.sender_seq,
        "room": env.room,
        "payload": payload_to_dict(env.payload),
    }


def envelope_from_dict(doc: dict) -> Envelope:
    if type(doc) is not dict:
        doc = checks.typed(doc, "envelope", dict)
    sender, seq, room, host_seq = doc.get("sender"), doc.get("sender_seq"), doc.get("room"), doc.get("host_seq")
    sender = sender if type(sender) is str and sender else checks.ident(sender, "sender")
    seq = seq if type(seq) is int and 0 <= seq <= MAX_COUNT else checks.count(seq, "sender_seq")
    room = room if type(room) is str and room else checks.ident(room, "room")
    payload = payload_from_dict(doc.get("payload"))
    if host_seq is not None and not (type(host_seq) is int and 0 <= host_seq <= MAX_COUNT):
        host_seq = checks.count(host_seq, "host_seq")
    return Envelope(sender, seq, room, payload, host_seq)


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
    # UnicodeError: a body not in UTF-8 or a media blob not in ASCII; binascii.Error: a blob not in base64.
    try:
        env = envelope_from_dict(checks.loads(data[4 : 4 + length].decode("utf-8")))
    except (ConfigError, UnicodeError, binascii.Error) as exc:
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
