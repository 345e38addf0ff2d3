"""Replica-based collaborative state synchronization and session simulation.

A headless engine for two-party remote maintenance collaboration: a shared
scene model of a valve/heat-exchanger plant, client-private replicas with
role-aware merge semantics, a deterministic simulated transport, scripted
inspection sessions, and the metrics/statistics pipeline used to compare
collaboration conditions.

Importing the package loads none of its submodules: each name in ``__all__``
is looked up in the module that defines it on first use, so a CLI command
loads only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"


class ConfigError(ValueError):
    """Bad input: a malformed file, option, document or field.

    The CLI reports it as a message naming its source and exits 2. Being a
    ``ValueError``, it also lets argparse refuse an option's value.
    """


class RoomError(Exception):
    """A frame, sync request or commit that a peer refuses."""


_SCENE_NAMES = (
    "Annotation",
    "Edit",
    "Handedness",
    "NodeKind",
    "Pose",
    "Role",
    "SceneModel",
    "SceneNode",
    "ValveState",
    "VisualState",
    "anchor_model",
    "apply_edit",
    "canonical_json",
    "field_equal",
    "load_model",
)
_REPLICA_NAMES = (
    "MergeOutcome",
    "Replica",
    "SyncRequest",
    "acknowledge_commit",
    "apply_commit",
    "create_replica",
    "edit_replica",
    "make_sync_request",
    "synchronize",
)
_HOME = {**dict.fromkeys(_SCENE_NAMES, "scene"), **dict.fromkeys(_REPLICA_NAMES, "replica")}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
