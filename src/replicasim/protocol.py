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
from typing import Optional, Union

from replicasim import ConfigError, RoomError, checks
from replicasim.checks import OMITTED, REQUIRED
from replicasim.records import field, record
from replicasim.replica import MergeOutcome, SyncRequest, synchronize
from replicasim.scene import EDIT_CODEC, POSE_CODEC, Edit, Pose, Role, SceneModel, ValveState

GAZE_NORM_TOL = 1e-9
EXPERT_ELEVATION_M = 1.5
HOST_ID = "host"


@record(frozen=True)
class AvatarState:
    client: str
    role: Role
    head_pose: Pose
    gaze_direction: tuple[float, float, float] = (0.0, 0.0, 1.0)
    # The wire fields, in refusal order (see ``replicasim.checks``); ``gaze`` is required on the wire.
    __post_init__ = checks.post_init((("role", "role", Role, REQUIRED),
                                      ("head_pose", "head_pose", POSE_CODEC, REQUIRED),
                                      ("client", "client", checks.ident, REQUIRED),
                                      ("gaze", "gaze_direction", (checks.unit, 3, GAZE_NORM_TOL), REQUIRED,
                                       "gaze_direction")))


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
    __post_init__ = checks.post_init((("temperature_c", "temperature_c", checks.finite, OMITTED),))


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
# One encoder per payload type and one decoder per kind, as for edits. A blob is
# decoded from bytes, since b64decode refuses a non-ASCII str with a bare
# ValueError, and as strict base64, which refuses a character outside the
# alphabet instead of dropping it.
_BLOB = checks.Codec(lambda blob: base64.b64encode(blob).decode("ascii"), lambda text: base64.b64decode(
    checks.typed(text, "blob_b64", str).encode("ascii"), validate=True))
PAYLOAD_CODEC = checks.union("payload", "kind", (
    ("avatar", AvatarState, AvatarState.__post_init__.fields, Avatar),
    ("sync_req", SyncRequest, (("owner", "owner", checks.ident, REQUIRED),
                               ("owner_role", "owner_role", Role, REQUIRED),
                               ("base_version", "base_version", checks.count, REQUIRED),
                               ("edits", "edits", (list, EDIT_CODEC), REQUIRED)), SyncReq),
    ("sync_commit", SyncCommit, (("accepted", "accepted", (list, EDIT_CODEC), REQUIRED),
                                 ("new_version", "new_version", checks.count, REQUIRED))),
    ("instruction", Instruction, (("text", "text", (checks.typed, str), REQUIRED),
                                  ("valve", "valve", checks.ident, OMITTED),
                                  ("target", "target", ValveState, OMITTED))),
    ("report_temperature", ReportTemperature, ()),
    ("step_done", StepDone, StepDone.__post_init__.fields),
    ("call_start", CallStart, ()),
    ("call_end", CallEnd, ()),
    ("media", MediaSignal, (("blob_b64", "blob", _BLOB, REQUIRED),)),
))
payload_to_dict, payload_from_dict = PAYLOAD_CODEC

envelope_to_dict, envelope_from_dict = checks.codec(Envelope, (("sender", "sender", checks.ident, REQUIRED),
                                                              ("sender_seq", "sender_seq", checks.count, REQUIRED),
                                                              ("room", "room", checks.ident, REQUIRED),
                                                              ("payload", "payload", PAYLOAD_CODEC, REQUIRED),
                                                              ("host_seq", "host_seq", checks.count, None)), "envelope")


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
