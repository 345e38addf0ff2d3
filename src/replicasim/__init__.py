"""Replica-based collaborative state synchronization and session simulation.

A headless engine for two-party remote maintenance collaboration: a shared
scene model of a valve/heat-exchanger plant, client-private replicas with
role-aware merge semantics, a deterministic simulated transport, scripted
inspection sessions, and the metrics/statistics pipeline used to compare
collaboration conditions.
"""

from replicasim.scene import (
    Annotation,
    Edit,
    Handedness,
    NodeKind,
    Pose,
    Role,
    SceneModel,
    SceneNode,
    ValveState,
    VisualState,
    anchor_model,
    apply_edit,
    canonical_json,
    diff,
    field_equal,
    load_model,
)
from replicasim.replica import (
    MergeOutcome,
    Replica,
    SyncRequest,
    acknowledge_commit,
    apply_commit,
    create_replica,
    edit_replica,
    make_sync_request,
    synchronize,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "Edit",
    "Handedness",
    "MergeOutcome",
    "NodeKind",
    "Pose",
    "Replica",
    "Role",
    "SceneModel",
    "SceneNode",
    "SyncRequest",
    "ValveState",
    "VisualState",
    "acknowledge_commit",
    "anchor_model",
    "apply_commit",
    "apply_edit",
    "canonical_json",
    "create_replica",
    "diff",
    "edit_replica",
    "field_equal",
    "load_model",
    "make_sync_request",
    "synchronize",
]
