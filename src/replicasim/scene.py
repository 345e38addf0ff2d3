"""Shared scene model: node graph, edit vocabulary and anchoring.

The model is a versioned snapshot value. Every operation is a pure function
returning a new model; nothing here mutates its inputs, which is what makes
replicas, merges and network replay safe to reason about.
"""
from __future__ import annotations

import math
from collections import ChainMap
from enum import Enum
from typing import Callable, Iterable, Mapping, Optional, Union

from replicasim import ConfigError, checks
from replicasim.checks import OPTIONAL, REQUIRED
from replicasim.records import field, record, replace

QUAT_NORM_TOL = 1e-9


# Why an edit does not fit a model; sync rejections report these reasons.
UNKNOWN_TARGET = "unknown-target"
DUPLICATE_ANNOTATION = "duplicate-annotation"
INVALID_HIGHLIGHT = "invalid-highlight"


class EditError(Exception):
    """Raised when an edit cannot be applied to a model; ``reason`` names why."""

    def __init__(self, message: str, reason: str = UNKNOWN_TARGET) -> None:
        super().__init__(message)
        self.reason = reason


class Role(Enum):
    EXPERT = "Expert"
    OPERATOR = "Operator"


class NodeKind(Enum):
    VALVE = "Valve"
    EXCHANGER_UNIT = "ExchangerUnit"
    PIPE = "Pipe"
    LABEL = "Label"


class ValveState(Enum):
    OPEN = "Open"
    CLOSED = "Closed"


class Handedness(Enum):
    ONE_HANDED = "OneHanded"
    TWO_HANDED = "TwoHanded"


# An enum member read from the class goes through a descriptor in Python; the hot paths read these once.
_VALVE = NodeKind.VALVE


@record(frozen=True)
class Pose:
    """Rigid transform: position in meters plus a unit quaternion (w, x, y, z)."""

    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    orientation: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)
    # The wire fields, in refusal order (see ``replicasim.checks``); ``to_dict`` and ``from_dict`` are built below.
    __post_init__ = checks.post_init((("pos", "position", (checks.vector, 3), OPTIONAL, "position"),
                                      ("quat", "orientation", (checks.unit, 4, QUAT_NORM_TOL), OPTIONAL, "quaternion")))

    def rotate(self, v: tuple[float, float, float]) -> tuple[float, float, float]:
        """Rotate a vector by this pose's orientation."""
        w, x, y, z = self.orientation
        vx, vy, vz = v
        # q * (0, v) * q^-1, expanded
        tx = 2.0 * (y * vz - z * vy)
        ty = 2.0 * (z * vx - x * vz)
        tz = 2.0 * (x * vy - y * vx)
        return (
            vx + w * tx + (y * tz - z * ty),
            vy + w * ty + (z * tx - x * tz),
            vz + w * tz + (x * ty - y * tx),
        )

    def compose(self, other: "Pose") -> "Pose":
        """Transform ``other`` by ``self`` (self applied after other's frame)."""
        px, py, pz = self.rotate(other.position)
        sx, sy, sz = self.position
        w1, x1, y1, z1 = self.orientation
        w2, x2, y2, z2 = other.orientation
        quat = (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )
        norm = math.sqrt(sum(c * c for c in quat))
        quat = tuple(c / norm for c in quat)
        return Pose((sx + px, sy + py, sz + pz), quat)  # type: ignore[arg-type]


POSE_CODEC = checks.codec(Pose, Pose.__post_init__.fields, "pose")
Pose.to_dict, Pose.from_dict = POSE_CODEC.encode, staticmethod(POSE_CODEC.decode)


@record(frozen=True)
class VisualState:
    """Presentation flags on a node: optional highlight color, indication animation."""

    highlight_color: Optional[tuple[float, float, float]] = None
    indication_animation: bool = False

    __post_init__ = checks.post_init((("highlight_color", "highlight_color", checks.color, None),))


@record(frozen=True)
class SceneNode:
    id: str
    kind: NodeKind
    parent: Optional[str] = None
    local_pose: Pose = field(default_factory=Pose)
    valve_state: Optional[ValveState] = None
    handedness: Optional[Handedness] = None
    visual: VisualState = field(default_factory=VisualState)

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigError("node id must be non-empty")
        is_valve = self.kind is _VALVE
        if is_valve and (self.valve_state is None or self.handedness is None):
            raise ConfigError(f"valve {self.id!r} requires valve_state and handedness")
        if not is_valve and (self.valve_state is not None or self.handedness is not None):
            raise ConfigError(f"non-valve {self.id!r} must not carry valve_state/handedness")


@record(frozen=True)
class Annotation:
    id: str
    author_role: Role
    anchor: str
    text: str
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    # ``author_role`` is read from the wire; the record checks the rest when built.
    __post_init__ = checks.post_init((("author_role", "author_role", Role, REQUIRED),
                                      ("id", "id", checks.ident, REQUIRED, "annotation id"),
                                      ("anchor", "anchor", checks.ident, REQUIRED, "annotation anchor"),
                                      ("text", "text", (checks.typed, str), REQUIRED, "annotation text"),
                                      ("offset", "offset", (checks.vector, 3), OPTIONAL, "annotation offset")))


ANNOTATION_CODEC = checks.codec(Annotation, Annotation.__post_init__.fields, "annotation")


# --- Edit vocabulary ---------------------------------------------------------
# Atomic single-field operations; compound gestures are sequences of these.


@record(frozen=True)
class SetPose:
    node: str
    pose: Pose
    author_role: Role = Role.EXPERT
    author_seq: int = 0


@record(frozen=True)
class SetValveState:
    node: str
    state: ValveState
    author_role: Role = Role.EXPERT
    author_seq: int = 0


@record(frozen=True)
class SetHighlight:
    node: str
    color: Optional[tuple[float, float, float]]
    author_role: Role = Role.EXPERT
    author_seq: int = 0


@record(frozen=True)
class SetIndication:
    node: str
    playing: bool
    author_role: Role = Role.EXPERT
    author_seq: int = 0


@record(frozen=True)
class AddAnnotation:
    annotation: Annotation
    author_role: Role = Role.EXPERT
    author_seq: int = 0


@record(frozen=True)
class RemoveAnnotation:
    annotation_id: str
    author_role: Role = Role.EXPERT
    author_seq: int = 0


Edit = Union[SetPose, SetValveState, SetHighlight, SetIndication, AddAnnotation, RemoveAnnotation]

# Length from which a commit writes a mapping as an overlay, not a full copy.
# A full copy costs about 9 ns per entry; an overlay, a copy of its delta and a
# few microseconds of Python. A one-edit commit on a freshly loaded model costs
# the same both ways at about 256 entries (timeit, CPython 3.11, 2 CPUs). The
# rule sits at four times that: whole-model reads of an overlay build a flat
# copy, and its delta grows with every entry edited since load.
OVERLAY_MIN_NODES = 1024


class Overlay(ChainMap):
    """A ``ChainMap(delta, base)`` that reads at dict speed: a key from the
    delta, then the base; ``len`` from the base and the delta keys it lacks;
    ``==``, ``values()`` and ``items()`` from one flat copy. Only
    :func:`_apply_batch` writes a delta, one it has just copied."""

    def __getitem__(self, key):
        delta, base = self.maps
        return delta[key] if key in delta else base[key]

    def get(self, key, default=None):
        delta, base = self.maps
        return delta[key] if key in delta else base.get(key, default)

    def __contains__(self, key):
        delta, base = self.maps
        return key in delta or key in base

    def __len__(self):
        delta, base = self.maps
        return len(base) + sum(key not in base for key in delta)

    def __eq__(self, other):
        return self.flat() == other

    def values(self):
        return self.flat().values()

    def items(self):
        return self.flat().items()

    def flat(self) -> dict:
        return {**self.maps[1], **self.maps[0]}


# The four node-field edits and the provenance field each one writes.
_FIELD_NAME = {SetPose: "pose", SetValveState: "valve_state", SetHighlight: "highlight", SetIndication: "indication"}


def edit_field_key(edit: Edit) -> Optional[tuple[str, str]]:
    """(field, node) key for node-field edits; None for annotation edits."""
    name = _FIELD_NAME.get(type(edit))
    return (name, edit.node) if name else None


@record
class SceneModel:
    """Versioned snapshot of the shared scene.

    ``field_authors`` tracks, per (field, node), the role and version of the
    last committed write; the merge rules in :mod:`replicasim.replica` depend
    on it. ``marker_offset`` is the descriptor-declared marker-to-model
    transform consumed by :func:`anchor_model`.

    ``nodes`` and ``field_authors`` are read-only mappings: a plain dict or,
    from ``OVERLAY_MIN_NODES`` entries on, an :class:`Overlay` of the entries
    written since over the dict they had then; for ``nodes`` that is the dict
    the model was loaded with. Write only through :func:`_apply_batch`, which
    copies before it writes.
    """

    nodes: Mapping[str, SceneNode] = field(default_factory=dict)
    annotations: dict[str, Annotation] = field(default_factory=dict)
    version: int = 0
    world_anchor: Pose = field(default_factory=Pose)
    marker_offset: Pose = field(default_factory=Pose)
    field_authors: Mapping[tuple[str, str], tuple[Role, int]] = field(default_factory=dict)

    def node(self, node_id: str) -> SceneNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise EditError(f"unknown node {node_id!r}") from None

    def valves(self) -> list[SceneNode]:
        return [n for n in self.nodes.values() if n.kind is _VALVE]


# --- Operations --------------------------------------------------------------


def load_model(descriptor: dict) -> SceneModel:
    """Build a version-0 model from a descriptor document.

    Descriptor schema::

        {"marker_offset": {"pos": [x,y,z], "quat": [w,x,y,z]},
         "nodes": [{"id", "kind", "parent"?, "pose"?, "valve_state"?, "handedness"?}, ...]}
    """
    nodes: dict[str, SceneNode] = {}
    for doc in checks.typed(checks.typed(descriptor, "descriptor", dict).get("nodes", []), "nodes", list):
        node_id = checks.ident(checks.typed(doc, "node", dict).get("id"), "node id")
        if node_id in nodes:
            raise ConfigError(f"duplicate node id {node_id!r}")
        try:
            kind = checks.member(doc.get("kind"), "kind", NodeKind)
            valve = kind is NodeKind.VALVE
            parent, state, hand = doc.get("parent"), doc.get("valve_state"), doc.get("handedness")
            # A valve field given on another kind is read too, so that SceneNode refuses it.
            nodes[node_id] = SceneNode(
                node_id,
                kind,
                None if parent is None else checks.ident(parent, "parent"),
                Pose.from_dict(doc.get("pose", {})),
                checks.member(state, "valve_state", ValveState) if valve or state is not None else None,
                checks.member(hand, "handedness", Handedness) if valve or hand is not None else None,
            )
        except ConfigError as exc:
            raise ConfigError(f"node {node_id!r}: {exc}") from None
    try:
        marker_offset = Pose.from_dict(descriptor.get("marker_offset", {}))
    except ConfigError as exc:
        raise ConfigError(f"marker_offset: {exc}") from None
    for node in nodes.values():
        if node.parent is not None and node.parent not in nodes:
            raise ConfigError(f"node {node.id!r} has dangling parent {node.parent!r}")
    _check_parent_cycles(nodes)
    return SceneModel(nodes=nodes, marker_offset=marker_offset)


def _check_parent_cycles(nodes: dict[str, SceneNode]) -> None:
    for start in nodes:
        seen = set()
        cur: Optional[str] = start
        while cur is not None:
            if cur in seen:
                raise ConfigError(f"parent cycle through node {cur!r}")
            seen.add(cur)
            cur = nodes[cur].parent


def anchor_model(model: SceneModel, marker: Pose) -> SceneModel:
    """Re-anchor the model at a detected marker pose.

    The world anchor becomes ``marker ∘ marker_offset``; node-local poses are
    untouched, so the whole scene moves as one rigid body.
    """
    return replace(model, world_anchor=marker.compose(model.marker_offset))


def apply_edit(model: SceneModel, edit: Edit) -> SceneModel:
    """Apply one edit as a one-edit commit: a new model at version + 1."""
    return _apply_batch(model, (edit,), model.version + 1)[0]


def _apply_batch(
    model: SceneModel,
    edits: Iterable[Edit],
    version: int,
    rule: Optional[Callable[[Edit, dict], Optional[str]]] = None,
) -> tuple[SceneModel, tuple[Edit, ...], tuple[tuple[Edit, str], ...]]:
    """Apply ``edits`` in order as one commit, stamping field provenance with ``version``.

    This is the only code that checks an edit against a model and the only
    code that writes nodes, annotations and field provenance. Each edit is
    checked against the model as the earlier edits of the batch left it, and
    each mapping is copied at most once per batch, on its first write: a dict
    of fewer than ``OVERLAY_MIN_NODES`` entries whole, a larger one as an empty
    :class:`Overlay` over it, and an overlay as a copy of its delta over the
    same base; so overlays never nest, and no commit writes a base.

    Without ``rule`` a failed check raises :class:`EditError`. With ``rule``,
    a failed check rejects the edit with the error's ``reason``, and
    ``rule(edit, field_authors)`` may reject an edit that passes by returning
    a reason; rejected edits are skipped and the rest of the batch applies.
    Returns the new model (always at ``version``), the applied edits and the
    rejected ``(edit, reason)`` pairs.
    """
    nodes, annotations, authors = model.nodes, model.annotations, model.field_authors
    accepted: list[Edit] = []
    rejected: list[tuple[Edit, str]] = []
    for edit in edits:
        try:
            node = _edited_node(edit, nodes, annotations)
        except EditError as error:
            if rule is None:
                raise
            reason = error.reason
        else:
            reason = rule(edit, authors) if rule else None
        if reason is not None:
            rejected.append((edit, reason))
            continue
        accepted.append(edit)
        if node is not None:
            if nodes is model.nodes:  # every node edit writes both, so both are copied together
                nodes, node_writes = _writable(nodes)
                authors, author_writes = _writable(authors)
            node_writes[node.id] = node
            author_writes[(_FIELD_NAME[type(edit)], node.id)] = (edit.author_role, version)
            continue
        if annotations is model.annotations:
            annotations = dict(annotations)
        if type(edit) is AddAnnotation:
            annotations[edit.annotation.id] = edit.annotation
        else:
            del annotations[edit.annotation_id]
    committed = SceneModel(nodes, annotations, version, model.world_anchor, model.marker_offset, authors)
    return committed, tuple(accepted), tuple(rejected)


def _writable(mapping: Mapping) -> tuple[Mapping, dict]:
    """A copy of ``mapping`` to commit, and the dict a write to it goes into.

    A dict of fewer than ``OVERLAY_MIN_NODES`` entries is copied whole and
    written itself. A larger one gets an overlay: an overlay's delta copied over
    the same base, or an empty delta over a dict; a write goes into the delta.
    """
    if type(mapping) is dict and len(mapping) < OVERLAY_MIN_NODES:
        copy = dict(mapping)
        return copy, copy
    overlay = mapping.copy() if type(mapping) is Overlay else Overlay({}, mapping)
    return overlay, overlay.maps[0]


def _edited_node(edit: Edit, nodes: Mapping[str, SceneNode], annotations: dict[str, Annotation]) -> Optional[SceneNode]:
    """Check ``edit`` against a model; the node it produces, or None for annotation edits.

    The node is built with its constructor, so every ``__post_init__`` check runs.
    Edits dispatch on their exact type; any other value is an unsupported edit.
    """
    edit_type = type(edit)
    if edit_type in _FIELD_NAME:
        node = nodes.get(edit.node)
        if node is None:
            raise EditError(f"unknown node {edit.node!r}")
        pose, valve_state, visual = node.local_pose, node.valve_state, node.visual
        if edit_type is SetPose:
            pose = edit.pose
        elif edit_type is SetValveState:
            if node.kind is not _VALVE:
                raise EditError(f"cannot set valve_state on non-valve {edit.node!r}")
            valve_state = edit.state
        elif edit_type is SetHighlight:
            try:
                visual = VisualState(edit.color, visual.indication_animation)
            except ConfigError as exc:
                raise EditError(f"node {edit.node!r}: {exc}", INVALID_HIGHLIGHT) from None
        else:
            visual = VisualState(visual.highlight_color, edit.playing)
        return SceneNode(node.id, node.kind, node.parent, pose, valve_state, node.handedness, visual)
    if edit_type is AddAnnotation:
        ann = edit.annotation
        if ann.anchor not in nodes:
            raise EditError(f"annotation {ann.id!r} anchors unknown node {ann.anchor!r}")
        if ann.id in annotations:
            raise EditError(f"annotation id {ann.id!r} already present", DUPLICATE_ANNOTATION)
        return None
    if edit_type is RemoveAnnotation:
        if edit.annotation_id not in annotations:
            raise EditError(f"unknown annotation {edit.annotation_id!r}")
        return None
    raise EditError(f"unsupported edit {edit!r}")


def field_equal(a: SceneModel, b: SceneModel) -> bool:
    """Structural equality of nodes, annotations and world anchor, ignoring version/provenance."""
    return a.nodes == b.nodes and a.annotations == b.annotations and a.world_anchor == b.world_anchor


# --- Canonical serialization --------------------------------------------------


def _node_to_dict(node: SceneNode) -> dict:
    doc: dict = {"id": node.id, "kind": node.kind._value_, "pose": node.local_pose.to_dict()}
    if node.parent is not None:
        doc["parent"] = node.parent
    if node.valve_state is not None:
        doc["valve_state"] = node.valve_state._value_
    if node.handedness is not None:
        doc["handedness"] = node.handedness._value_
    visual: dict = {}
    if node.visual.highlight_color is not None:
        visual["highlight_color"] = list(node.visual.highlight_color)
    if node.visual.indication_animation:
        visual["indication_animation"] = True
    if visual:
        doc["visual"] = visual
    return doc


def to_canonical_dict(model: SceneModel) -> dict:
    return {
        "version": model.version,
        "world_anchor": model.world_anchor.to_dict(),
        "marker_offset": model.marker_offset.to_dict(),
        "nodes": [_node_to_dict(model.nodes[i]) for i in sorted(model.nodes)],
        "annotations": [ANNOTATION_CODEC.encode(model.annotations[i]) for i in sorted(model.annotations)],
        "field_authors": {
            f"{fld}:{node}": [role._value_, version]
            for (fld, node), (role, version) in sorted(model.field_authors.items())
        },
    }


def canonical_json(model: SceneModel) -> str:
    """Stable byte-for-byte serialization (sorted node ids, sorted keys)."""
    return checks.dumps(to_canonical_dict(model))


# --- Edit wire codec -----------------------------------------------------------
# One encoder per edit type, as ``_edited_node`` dispatches, and one decoder per op. A color need only be
# a list here: its range is the model's check, so a bad one is a rejected edit, not a malformed frame.
_NODE = ("node", "node", checks.ident, REQUIRED)
EDIT_CODEC = checks.union("edit", "op", (
    ("set_pose", SetPose, (_NODE, ("pose", "pose", POSE_CODEC, REQUIRED))),
    ("set_valve_state", SetValveState, (_NODE, ("state", "state", ValveState, REQUIRED))),
    ("set_highlight", SetHighlight, (_NODE, ("color", "color", (list,), None))),
    ("set_indication", SetIndication, (_NODE, ("playing", "playing", (checks.typed, bool), REQUIRED))),
    ("add_annotation", AddAnnotation, (("annotation", "annotation", ANNOTATION_CODEC, REQUIRED),)),
    ("remove_annotation", RemoveAnnotation, (("annotation_id", "annotation_id", checks.ident, REQUIRED),)),
), common=(("role", "author_role", Role, REQUIRED), ("seq", "author_seq", checks.count, REQUIRED)))
edit_to_dict = EDIT_CODEC.encode
