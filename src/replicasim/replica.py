"""Client-private replicas and role-aware synchronization with the shared model.

Merge policy, per field per node:

* annotation adds always append, first writer keeps a contested id;
* annotations already shared survive any sync that is not an Expert removal;
* an Expert edit wins every field conflict, in either request order;
* an Operator edit never overwrites a field whose current value was
  authored by the Expert (even a stale one);
* same-role conflicts resolve by host commit order (last writer wins).

Rejected edits never abort a batch; the remaining edits still apply. A
refusal under these rules is final, so a replica drops a refused edit from its
pending log on the next acknowledged commit instead of resending it.
"""
from __future__ import annotations

from replicasim import RoomError
from replicasim.records import record
from replicasim.scene import (
    _FIELD_NAME,
    Edit,
    RemoveAnnotation,
    Role,
    SceneModel,
    _apply_batch,
    apply_edit,
    edit_to_dict,
)

REJECT_EXPERT_PRECEDENCE = "expert-precedence"
REJECT_ANNOTATION_RETENTION = "annotation-retention"


@record(frozen=True)
class Replica:
    """A client-owned copy of the shared model with a private edit log.

    ``working`` is the shared model at ``base_version`` with ``pending``
    applied, written by the same batch applier as every model. So on a model
    of ``scene.OVERLAY_MIN_NODES`` nodes or more its ``nodes`` overlays the
    dict the model was loaded with, and a private edit copies what was
    edited since load, not the model.
    """

    owner: str
    owner_role: Role
    base_version: int
    working: SceneModel
    pending: tuple[Edit, ...] = ()


@record(frozen=True)
class SyncRequest:
    owner: str
    owner_role: Role
    base_version: int
    edits: tuple[Edit, ...] = ()


@record(frozen=True)
class MergeOutcome:
    merged: SceneModel
    accepted: tuple[Edit, ...]
    rejected: tuple[tuple[Edit, str], ...]


def create_replica(shared: SceneModel, owner: str, role: Role) -> Replica:
    """Take a private snapshot of the shared model at its current version.

    Node poses are the shared model's; the reduced size at which a client
    displays its replica is not part of the model.
    """
    return Replica(owner=owner, owner_role=role, base_version=shared.version, working=shared)


def edit_replica(replica: Replica, edit: Edit) -> Replica:
    """Apply an edit privately. The shared model is untouched by construction."""
    working = apply_edit(replica.working, edit)
    return Replica(replica.owner, replica.owner_role, replica.base_version, working, replica.pending + (edit,))


def make_sync_request(replica: Replica) -> SyncRequest:
    return SyncRequest(
        owner=replica.owner,
        owner_role=replica.owner_role,
        base_version=replica.base_version,
        edits=replica.pending,
    )


def _expert_rule(edit: Edit, field_authors: dict) -> str | None:
    """The Expert's rule: every edit that fits the model applies."""
    return None


_EXPERT = Role.EXPERT


def _operator_rule(edit: Edit, field_authors: dict) -> str | None:
    """The Operator's rule: no annotation removal, and no write over a field the Expert authored."""
    edit_type = type(edit)
    if edit_type is RemoveAnnotation:
        return REJECT_ANNOTATION_RETENTION
    name = _FIELD_NAME.get(edit_type)  # the field key of edit_field_key, without the call
    if name is not None:
        author = field_authors.get((name, edit.node))
        if author is not None and author[0] is _EXPERT:
            return REJECT_EXPERT_PRECEDENCE
    # Same-role conflicts fall to the incoming request, which holds the
    # later host sequence.
    return None


# The merge rule of each role: the host's for a request, and a replica's for
# its own pending edits.
_RULE = {Role.EXPERT: _expert_rule, Role.OPERATOR: _operator_rule}


def synchronize(request: SyncRequest, shared: SceneModel) -> MergeOutcome:
    """Merge a replica's pending edits into the shared model.

    Pure function: identical (request, shared) inputs produce a bit-identical
    outcome. The version bumps once per accepted batch, not per edit. An edit
    that does not fit the model is rejected with the reason its check names;
    the rest pass the request role's rule: ``_expert_rule`` accepts them all,
    ``_operator_rule`` applies the Operator's two restrictions.
    """
    if request.base_version > shared.version:
        raise RoomError(f"base_version {request.base_version} is ahead of shared version {shared.version}")
    role, edits = request.owner_role, request.edits
    for edit in edits:
        if edit.author_role is not role:
            raise RoomError(f"edit authored as {edit.author_role.value} in a request from the {role.value}")
    merged, accepted, rejected = _apply_batch(shared, edits, shared.version + 1, _RULE[role])
    return MergeOutcome(merged=merged if accepted else shared, accepted=accepted, rejected=rejected)


def apply_commit(shared: SceneModel, accepted: tuple[Edit, ...], new_version: int) -> SceneModel:
    """Replay a committed batch onto a model copy.

    Host and clients both build their post-commit state through the same
    batch applier, which is what makes replayed models bit-equal to the host's.
    """
    return _apply_batch(shared, accepted, new_version)[0]


def acknowledge_commit(replica: Replica, outcome_accepted: tuple[Edit, ...], shared: SceneModel) -> Replica:
    """Rebuild a replica on ``shared`` once a commit lands.

    The replica's own accepted edits, identified by (author_role, author_seq),
    leave ``pending``. The rest are merged onto ``shared`` in one batch at
    ``shared.version`` under the owner's own rule, as the host would merge
    them now, and only the edits that pass stay pending. So an edit that no
    longer fits (target removed remotely, annotation id now taken) and an
    edit the host must refuse (an Operator write over an Expert-authored
    field, an Operator annotation removal) are dropped, and ``working`` shows
    the committed value instead. Both refusals are final: ``shared`` is a
    prefix of the host's commits, an Expert-authored field stays
    Expert-authored, and an Operator removal is always refused; so dropping
    them loses no edit the host would accept. With nothing left pending,
    ``working`` is ``shared`` itself; on a large model it otherwise overlays
    the same base as ``shared``.
    """
    if shared.version < replica.base_version:
        raise RoomError(f"shared version {shared.version} is behind replica base {replica.base_version}")
    pending = replica.pending
    if pending:
        accepted_keys = {(e.author_role, e.author_seq) for e in outcome_accepted}
        pending = tuple(e for e in pending if (e.author_role, e.author_seq) not in accepted_keys)
    if not pending:
        return Replica(replica.owner, replica.owner_role, shared.version, shared)
    working, pending, _ = _apply_batch(shared, pending, shared.version, _RULE[replica.owner_role])
    return Replica(replica.owner, replica.owner_role, shared.version, working, pending)


# --- Canonical JSON forms (wire and JSONL logs; see docs/protocol.md) ------------


def merge_outcome_to_dict(outcome: MergeOutcome) -> dict:
    return {
        "new_version": outcome.merged.version,
        "accepted": [edit_to_dict(e) for e in outcome.accepted],
        "rejected": [{"edit": edit_to_dict(e), "reason": reason} for e, reason in outcome.rejected],
    }
