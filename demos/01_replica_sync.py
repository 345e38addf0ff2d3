"""
Replicas, private edits, and role-aware synchronization
=======================================================

Two clients share a plant model. Each works on a private replica; nothing is
visible to the other side until a replica is synchronized, and the merge obeys
expert precedence and annotation retention. A refused edit is final: the
operator's replica drops it on the next commit instead of resending it.
"""
from replicasim import (
    Annotation,
    Role,
    ValveState,
    acknowledge_commit,
    canonical_json,
    create_replica,
    edit_replica,
    make_sync_request,
    synchronize,
)
from replicasim.scene import AddAnnotation, SetHighlight, SetValveState
from replicasim.scenario import default_model

shared = default_model()
print(f"shared model: {len(shared.nodes)} nodes at version {shared.version}")

# Each client snapshots the shared model into a reduced private copy.
expert = create_replica(shared, "expert", Role.EXPERT)
operator = create_replica(shared, "operator", Role.OPERATOR)

# Private edits: the expert highlights 2V4, the operator annotates a pump.
expert = edit_replica(expert, SetHighlight("2V4", (1.0, 0.9, 0.0), Role.EXPERT, 1))
operator = edit_replica(
    operator,
    AddAnnotation(Annotation("a1", Role.OPERATOR, "1V3", "spindle is stiff"), Role.OPERATOR, 1),
)
print("pending on expert replica:", len(expert.pending))
print("shared model unchanged:", canonical_json(shared) == canonical_json(default_model()))

# The operator synchronizes first: the annotation lands in the shared model.
outcome = synchronize(make_sync_request(operator), shared)
shared = outcome.merged
print("after operator sync: annotations =", sorted(shared.annotations))

# The expert synchronizes next: the highlight applies, the annotation is retained.
outcome = synchronize(make_sync_request(expert), shared)
shared = outcome.merged
print("after expert sync: highlight on 2V4 =", shared.nodes["2V4"].visual.highlight_color)
print("annotation retained:", "a1" in shared.annotations)

# Conflict: both set the same valve, based on the same version. The expert
# value wins no matter which request the host commits first.
ex_edit = SetValveState("2V4", ValveState.OPEN, Role.EXPERT, 2)
op_edit = SetValveState("2V4", ValveState.CLOSED, Role.OPERATOR, 2)
from replicasim import SyncRequest

base = shared.version
m = synchronize(SyncRequest("operator", Role.OPERATOR, base, (op_edit,)), shared).merged
m = synchronize(SyncRequest("expert", Role.EXPERT, base, (ex_edit,)), m).merged
print("operator-first order: 2V4 =", m.nodes["2V4"].valve_state.value)

m = synchronize(SyncRequest("expert", Role.EXPERT, base, (ex_edit,)), shared).merged
operator = edit_replica(create_replica(shared, "operator", Role.OPERATOR), op_edit)
late = synchronize(make_sync_request(operator), m)
print("expert-first order:   2V4 =", late.merged.nodes["2V4"].valve_state.value)
print("operator edit rejected with:", late.rejected[0][1])

# The refusal is final, so acknowledging the commit drops the refused edit
# from the operator's pending log, and its replica shows the expert's value.
print(f"operator before acknowledge: {len(operator.pending)} pending, 2V4 =",
      operator.working.nodes["2V4"].valve_state.value)
operator = acknowledge_commit(operator, late.accepted, late.merged)
print(f"operator after acknowledge:  {len(operator.pending)} pending, 2V4 =",
      operator.working.nodes["2V4"].valve_state.value)
