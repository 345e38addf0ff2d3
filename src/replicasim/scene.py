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
from replicasim.records import field, record, replace

QUAT_NORM_TOL = 1e-9


class SceneError(Exception):
    """Base class for scene model failures."""


class DescriptorError(SceneError, ConfigError):
    """Raised when a model descriptor document is malformed."""


# Why an edit does not fit a model; sync rejections report these reasons.
UNKNOWN_TARGET = "unknown-target"
DUPLICATE_ANNOTATION = "duplicate-annotation"
INVALID_HIGHLIGHT = "invalid-highlight"


class EditError(SceneError):
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


@record(frozen=True)
class Pose:
    """Rigid transform: position in meters plus a unit quaternion (w, x, y, z)."""

    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    orientation: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", checks.vector(self.position, "position", 3))
        object.__setattr__(self, "orientation", checks.unit(self.orientation, "quaternion", 4, QUAT_NORM_TOL))

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

    def to_dict(self) -> dict:
        return {"pos": list(self.position), "quat": list(self.orientation)}

    @staticmethod
    def from_dict(doc: dict) -> "Pose":
        doc = checks.typed(doc, "pose", dict)
        return Pose(doc.get("pos", (0.0, 0.0, 0.0)), doc.get("quat", (1.0, 0.0, 0.0, 0.0)))


@record(frozen=True)
class VisualState:
    """Presentation flags on a node: optional highlight color, indication animation."""

    highlight_color: Optional[tuple[float, float, float]] = None
    indication_animation: bool = False

    def __post_init__(self) -> None:
        if self.highlight_color is not None:
            for c in checks.vector(self.highlight_color, "highlight_color", 3):
                checks.probability(c, "highlight_color component")


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
            raise ValueError("node id must be non-empty")
        is_valve = self.kind is NodeKind.VALVE
        if is_valve and (self.valve_state is None or self.handedness is None):
            raise ValueError(f"valve {self.id!r} requires valve_state and handedness")
        if not is_valve and (self.valve_state is not None or self.handedness is not None):
            raise ValueError(f"non-valve {self.id!r} must not carry valve_state/handedness")


@record(frozen=True)
class Annotation:
    id: str
    author_role: Role
    anchor: str
    text: str
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        checks.ident(self.id, "annotation id")
        checks.ident(self.anchor, "annotation anchor")
        checks.typed(self.text, "annotation text", str)
        object.__setattr__(self, "offset", checks.vector(self.offset, "annotation offset", 3))


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

    ``nodes`` and ``field_authors`` are read-only mappings: a plain dict, or
    on a large replica's working copy a ``ChainMap(delta, base)`` overlay of
    the nodes its pending edits touched over the shared model's dict. Write
    only through :func:`_apply_batch`, which copies before it writes.
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
        return [n for n in self.nodes.values() if n.kind is NodeKind.VALVE]


# --- Operations --------------------------------------------------------------


def load_model(descriptor: dict) -> SceneModel:
    """Build a version-0 model from a descriptor document.

    Descriptor schema::

        {"marker_offset": {"pos": [x,y,z], "quat": [w,x,y,z]},
         "nodes": [{"id", "kind", "parent"?, "pose"?, "valve_state"?, "handedness"?}, ...]}
    """
    nodes: dict[str, SceneNode] = {}
    try:
        for doc in checks.typed(checks.typed(descriptor, "descriptor", dict).get("nodes", []), "nodes", list):
            node_id = checks.ident(checks.typed(doc, "node", dict).get("id"), "node id")
            if node_id in nodes:
                raise ValueError(f"duplicate node id {node_id!r}")
            try:
                kind = checks.member(doc.get("kind"), "kind", NodeKind)
                valve = kind is NodeKind.VALVE
                parent = doc.get("parent")
                nodes[node_id] = SceneNode(
                    node_id,
                    kind,
                    None if parent is None else checks.ident(parent, "parent"),
                    Pose.from_dict(doc.get("pose", {})),
                    checks.member(doc.get("valve_state"), "valve_state", ValveState) if valve else None,
                    checks.member(doc.get("handedness"), "handedness", Handedness) if valve else None,
                )
            except ValueError as exc:
                raise ValueError(f"node {node_id!r}: {exc}") from None
    except ValueError as exc:
        raise DescriptorError(str(exc)) from None
    try:
        marker_offset = Pose.from_dict(descriptor.get("marker_offset", {}))
    except ValueError as exc:
        raise DescriptorError(f"marker_offset: {exc}") from None
    for node in nodes.values():
        if node.parent is not None and node.parent not in nodes:
            raise DescriptorError(f"node {node.id!r} has dangling parent {node.parent!r}")
    _check_parent_cycles(nodes)
    return SceneModel(nodes=nodes, marker_offset=marker_offset)


def _check_parent_cycles(nodes: dict[str, SceneNode]) -> None:
    for start in nodes:
        seen = set()
        cur: Optional[str] = start
        while cur is not None:
            if cur in seen:
                raise DescriptorError(f"parent cycle through node {cur!r}")
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
    each dict is copied at most once per batch, on its first write. Of a
    ``ChainMap(delta, base)`` overlay only the delta is copied; the result
    shares the base, so overlays never nest.

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
            if nodes is model.nodes:
                nodes = dict(nodes) if type(nodes) is dict else _copy_delta(nodes)
            if authors is model.field_authors:
                authors = dict(authors) if type(authors) is dict else _copy_delta(authors)
            nodes[node.id] = node
            authors[(_FIELD_NAME[type(edit)], node.id)] = (edit.author_role, version)
            continue
        if annotations is model.annotations:
            annotations = dict(annotations)
        if type(edit) is AddAnnotation:
            annotations[edit.annotation.id] = edit.annotation
        else:
            del annotations[edit.annotation_id]
    committed = SceneModel(nodes, annotations, version, model.world_anchor, model.marker_offset, authors)
    return committed, tuple(accepted), tuple(rejected)


def _copy_delta(overlay: ChainMap) -> ChainMap:
    """A writable copy of a ``ChainMap(delta, base)`` overlay: a copy of the delta over the same base."""
    return ChainMap(dict(overlay.maps[0]), overlay.maps[1])


def _edited_node(
    edit: Edit, nodes: Mapping[str, SceneNode], annotations: dict[str, Annotation]
) -> Optional[SceneNode]:
    """Check ``edit`` against a model; the node it produces, or None for annotation edits.

    The node is built with its constructor, so every ``__post_init__`` check runs.
    An overlay is read as its delta, then its base: ``ChainMap.get`` and ``in``
    run in Python. Edits replace nodes and never add one, so the base holds
    every node id. Edits dispatch on their exact type; any other value is
    an unsupported edit.
    """
    edit_type = type(edit)
    if edit_type in _FIELD_NAME:
        if type(nodes) is dict:
            node = nodes.get(edit.node)
        else:
            delta, base = nodes.maps
            node = delta.get(edit.node) or base.get(edit.node)
        if node is None:
            raise EditError(f"unknown node {edit.node!r}")
        pose, valve_state, visual = node.local_pose, node.valve_state, node.visual
        if edit_type is SetPose:
            pose = edit.pose
        elif edit_type is SetValveState:
            if node.kind is not NodeKind.VALVE:
                raise EditError(f"cannot set valve_state on non-valve {edit.node!r}")
            valve_state = edit.state
        elif edit_type is SetHighlight:
            try:
                visual = VisualState(edit.color, visual.indication_animation)
            except ValueError as exc:
                raise EditError(f"node {edit.node!r}: {exc}", INVALID_HIGHLIGHT) from None
        else:
            visual = VisualState(visual.highlight_color, edit.playing)
        return SceneNode(node.id, node.kind, node.parent, pose, valve_state, node.handedness, visual)
    if edit_type is AddAnnotation:
        ann = edit.annotation
        if ann.anchor not in (nodes if type(nodes) is dict else nodes.maps[1]):
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
    doc: dict = {"id": node.id, "kind": node.kind.value, "pose": node.local_pose.to_dict()}
    if node.parent is not None:
        doc["parent"] = node.parent
    if node.valve_state is not None:
        doc["valve_state"] = node.valve_state.value
    if node.handedness is not None:
        doc["handedness"] = node.handedness.value
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
        "annotations": [annotation_to_dict(model.annotations[i]) for i in sorted(model.annotations)],
        "field_authors": {
            f"{fld}:{node}": [role.value, version]
            for (fld, node), (role, version) in sorted(model.field_authors.items())
        },
    }


def canonical_json(model: SceneModel) -> str:
    """Stable byte-for-byte serialization (sorted node ids, sorted keys)."""
    return checks.dumps(to_canonical_dict(model))


# --- Edit wire codec -----------------------------------------------------------


def annotation_to_dict(ann: Annotation) -> dict:
    return {
        "id": ann.id,
        "author_role": ann.author_role.value,
        "anchor": ann.anchor,
        "text": ann.text,
        "offset": list(ann.offset),
    }


def annotation_from_dict(doc: dict) -> Annotation:
    doc = checks.typed(doc, "annotation", dict)
    return Annotation(
        id=doc.get("id"),
        author_role=checks.member(doc.get("author_role"), "author_role", Role),
        anchor=doc.get("anchor"),
        text=doc.get("text"),
        offset=doc.get("offset", (0.0, 0.0, 0.0)),
    )


def edit_to_dict(edit: Edit) -> dict:
    base = {"role": edit.author_role.value, "seq": edit.author_seq}
    if isinstance(edit, SetPose):
        return {"op": "set_pose", "node": edit.node, "pose": edit.pose.to_dict(), **base}
    if isinstance(edit, SetValveState):
        return {"op": "set_valve_state", "node": edit.node, "state": edit.state.value, **base}
    if isinstance(edit, SetHighlight):
        color = list(edit.color) if edit.color is not None else None
        return {"op": "set_highlight", "node": edit.node, "color": color, **base}
    if isinstance(edit, SetIndication):
        return {"op": "set_indication", "node": edit.node, "playing": edit.playing, **base}
    if isinstance(edit, AddAnnotation):
        return {"op": "add_annotation", "annotation": annotation_to_dict(edit.annotation), **base}
    if isinstance(edit, RemoveAnnotation):
        return {"op": "remove_annotation", "annotation_id": edit.annotation_id, **base}
    raise EditError(f"unsupported edit {edit!r}")


def edit_from_dict(doc: dict) -> Edit:
    """An edit from its wire form. A highlight color is only required to be a
    list here; its range is the model's check, so a bad one is a rejected edit."""
    op = checks.typed(doc, "edit", dict).get("op")
    role = checks.member(doc.get("role"), "role", Role)
    seq = checks.count(doc.get("seq"), "seq")
    if op == "add_annotation":
        return AddAnnotation(annotation_from_dict(doc.get("annotation")), role, seq)
    if op == "remove_annotation":
        return RemoveAnnotation(checks.ident(doc.get("annotation_id"), "annotation_id"), role, seq)
    if op not in ("set_pose", "set_valve_state", "set_highlight", "set_indication"):
        raise ValueError(f"unknown edit op {op!r}")
    node = checks.ident(doc.get("node"), "node")
    if op == "set_pose":
        return SetPose(node, Pose.from_dict(doc.get("pose")), role, seq)
    if op == "set_valve_state":
        return SetValveState(node, checks.member(doc.get("state"), "state", ValveState), role, seq)
    if op == "set_highlight":
        color = doc.get("color")
        return SetHighlight(node, None if color is None else tuple(checks.typed(color, "color", list)), role, seq)
    return SetIndication(node, checks.typed(doc.get("playing"), "playing", bool), role, seq)
