import random
from types import SimpleNamespace

import pytest

from replicasim import RoomError
from replicasim import scene as scene_module
from replicasim.replica import (
    REJECT_ANNOTATION_RETENTION,
    REJECT_DUPLICATE_ANNOTATION,
    REJECT_EXPERT_PRECEDENCE,
    REJECT_INVALID_HIGHLIGHT,
    REJECT_UNKNOWN_TARGET,
    Replica,
    SyncRequest,
    _operator_rule,
    acknowledge_commit,
    apply_commit,
    create_replica,
    edit_replica,
    make_sync_request,
    synchronize,
)
from replicasim.scene import (
    AddAnnotation,
    Annotation,
    EditError,
    Pose,
    RemoveAnnotation,
    Role,
    SetHighlight,
    SetIndication,
    SetPose,
    SetValveState,
    ValveState,
    apply_edit,
    canonical_json,
    edit_field_key,
    edit_from_dict,
    edit_to_dict,
    field_equal,
    load_model,
)
from replicasim.records import replace
from replicasim.scenario import default_model

from test_scene import random_edit, small_descriptor


# Edits every mixed batch of five or more carries, in this order: one field
# set twice, an annotation added and removed again, and between them a valve
# write to a non-valve node, which the host must reject without aborting.
SPECIALS = ("highlight", "add", "non-valve", "remove", "highlight")


def mixed_batch(rng, model, role, ann_id):
    size = rng.randrange(1, 33)
    valve = rng.choice([n.id for n in model.valves()])
    make = {
        "highlight": lambda: SetHighlight(valve, (rng.random(), 0.5, 0.5), role),
        "add": lambda: AddAnnotation(Annotation(ann_id, role, valve, "temp"), role),
        "non-valve": lambda: SetValveState("EX1", ValveState.OPEN, role),
        "remove": lambda: RemoveAnnotation(ann_id, role),
    }
    slots = set(rng.sample(range(size), len(SPECIALS))) if size >= len(SPECIALS) else set()
    specials = iter(SPECIALS)
    return [make[next(specials)]() if i in slots else random_edit(rng, model, role) for i in range(size)]


@pytest.fixture
def shared():
    return load_model(small_descriptor())


class TestCreateReplica:
    def test_scale_one_snapshot(self, shared):
        replica = create_replica(shared, "op", Role.OPERATOR)
        assert field_equal(replica.working, shared)
        assert replica.base_version == shared.version
        assert replica.pending == ()

    def test_reduced_scale_is_metadata(self, shared):
        # The reduced display size is no part of the replica: poses stay the shared model's.
        replica = create_replica(shared, "op", Role.OPERATOR)
        assert [n.local_pose for n in replica.working.nodes.values()] == [n.local_pose for n in shared.nodes.values()]


class TestEditReplica:
    def test_private_edit_leaves_shared_untouched(self, shared):
        before = canonical_json(shared)
        replica = create_replica(shared, "op", Role.OPERATOR)
        replica = edit_replica(replica, SetHighlight("V1", (1.0, 1.0, 0.0), Role.OPERATOR, 1))
        assert len(replica.pending) == 1
        assert canonical_json(shared) == before

    def test_privacy_over_random_edit_sequences(self, shared):
        before = canonical_json(shared)
        rng = random.Random(17)
        replica = create_replica(shared, "op", Role.OPERATOR)
        for i in range(50):
            try:
                replica = edit_replica(replica, random_edit(rng, replica.working, Role.OPERATOR, i))
            except EditError:
                pass
        assert canonical_json(shared) == before

    def test_earlier_working_copies_are_unchanged(self, shared):
        rng = random.Random(19)
        replica = create_replica(shared, "op", Role.OPERATOR)
        snapshots = []
        for i in range(30):
            snapshots.append((replica.working, canonical_json(replica.working)))
            try:
                replica = edit_replica(replica, random_edit(rng, replica.working, Role.OPERATOR, i))
            except EditError:
                pass
        assert all(canonical_json(working) == before for working, before in snapshots)

    def test_invalid_target_does_not_mutate(self, shared):
        replica = create_replica(shared, "op", Role.OPERATOR)
        with pytest.raises(EditError):
            edit_replica(replica, SetValveState("XX", ValveState.OPEN, Role.OPERATOR, 1))
        assert replica.pending == ()


class TestSynchronize:
    def test_empty_request_is_identity(self, shared):
        outcome = synchronize(SyncRequest("op", Role.OPERATOR, shared.version, ()), shared)
        assert field_equal(outcome.merged, shared)
        assert outcome.merged.version == shared.version
        assert outcome.accepted == () and outcome.rejected == ()

    def test_expert_precedence_rejects_stale_operator_write(self, shared):
        # Operator replica at base version; Expert then commits Closed into shared.
        op_replica = create_replica(shared, "op", Role.OPERATOR)
        op_replica = edit_replica(op_replica, SetValveState("V2", ValveState.OPEN, Role.OPERATOR, 1))
        expert_req = SyncRequest("ex", Role.EXPERT, shared.version,
                                 (SetValveState("V2", ValveState.CLOSED, Role.EXPERT, 1),))
        shared2 = synchronize(expert_req, shared).merged
        outcome = synchronize(make_sync_request(op_replica), shared2)
        assert outcome.accepted == ()
        assert outcome.rejected[0][1] == REJECT_EXPERT_PRECEDENCE
        assert outcome.merged.nodes["V2"].valve_state is ValveState.CLOSED

    def test_expert_wins_in_either_order(self, shared):
        op_edit = (SetValveState("V1", ValveState.CLOSED, Role.OPERATOR, 1),)
        ex_edit = (SetValveState("V1", ValveState.OPEN, Role.EXPERT, 1),)
        # Operator commits first, expert second.
        m1 = synchronize(SyncRequest("op", Role.OPERATOR, 0, op_edit), shared).merged
        m1 = synchronize(SyncRequest("ex", Role.EXPERT, 0, ex_edit), m1).merged
        # Expert first, operator second.
        m2 = synchronize(SyncRequest("ex", Role.EXPERT, 0, ex_edit), shared).merged
        m2 = synchronize(SyncRequest("op", Role.OPERATOR, 0, op_edit), m2).merged
        assert m1.nodes["V1"].valve_state is ValveState.OPEN
        assert m2.nodes["V1"].valve_state is ValveState.OPEN

    def test_annotation_retention_across_sync(self, shared):
        ann = Annotation("a1", Role.OPERATOR, "V1", "leaking")
        shared = synchronize(
            SyncRequest("op", Role.OPERATOR, 0, (AddAnnotation(ann, Role.OPERATOR, 1),)), shared
        ).merged
        outcome = synchronize(
            SyncRequest("ex", Role.EXPERT, 0, (SetHighlight("V2", (1.0, 0.0, 0.0), Role.EXPERT, 1),)),
            shared,
        )
        assert "a1" in outcome.merged.annotations
        assert outcome.merged.nodes["V2"].visual.highlight_color == (1.0, 0.0, 0.0)

    def test_duplicate_annotation_first_writer_kept(self, shared):
        first = Annotation("note", Role.OPERATOR, "V1", "first")
        second = Annotation("note", Role.EXPERT, "V2", "second")
        shared = synchronize(
            SyncRequest("op", Role.OPERATOR, 0, (AddAnnotation(first, Role.OPERATOR, 1),)), shared
        ).merged
        outcome = synchronize(
            SyncRequest("ex", Role.EXPERT, 0, (AddAnnotation(second, Role.EXPERT, 1),)), shared
        )
        assert outcome.rejected[0][1] == REJECT_DUPLICATE_ANNOTATION
        assert outcome.merged.annotations["note"].text == "first"

    def test_operator_removal_rejected_expert_removal_applies(self, shared):
        ann = Annotation("a1", Role.OPERATOR, "V1", "x")
        shared = synchronize(
            SyncRequest("op", Role.OPERATOR, 0, (AddAnnotation(ann, Role.OPERATOR, 1),)), shared
        ).merged
        op_out = synchronize(
            SyncRequest("op", Role.OPERATOR, shared.version, (RemoveAnnotation("a1", Role.OPERATOR, 2),)),
            shared,
        )
        assert op_out.rejected[0][1] == REJECT_ANNOTATION_RETENTION
        assert "a1" in op_out.merged.annotations
        ex_out = synchronize(
            SyncRequest("ex", Role.EXPERT, shared.version, (RemoveAnnotation("a1", Role.EXPERT, 1),)),
            shared,
        )
        assert "a1" not in ex_out.merged.annotations

    def test_disjoint_requests_commute(self, shared):
        rng = random.Random(23)
        for _ in range(50):
            req_a = SyncRequest("op", Role.OPERATOR, 0,
                                (SetValveState("V1", rng.choice([ValveState.OPEN, ValveState.CLOSED]),
                                               Role.OPERATOR, 1),))
            req_b = SyncRequest("ex", Role.EXPERT, 0,
                                (SetHighlight("V3", (rng.random(), 0.2, 0.2), Role.EXPERT, 1),))
            ab = synchronize(req_b, synchronize(req_a, shared).merged).merged
            ba = synchronize(req_a, synchronize(req_b, shared).merged).merged
            assert field_equal(ab, ba)

    def test_rejected_edit_does_not_abort_batch(self, shared):
        ex_req = SyncRequest("ex", Role.EXPERT, 0, (SetValveState("V1", ValveState.CLOSED, Role.EXPERT, 1),))
        shared2 = synchronize(ex_req, shared).merged
        op_req = SyncRequest(
            "op",
            Role.OPERATOR,
            0,
            (
                SetValveState("V1", ValveState.OPEN, Role.OPERATOR, 1),  # conflicts with expert
                SetValveState("V2", ValveState.OPEN, Role.OPERATOR, 2),  # independent
            ),
        )
        outcome = synchronize(op_req, shared2)
        assert len(outcome.accepted) == 1 and len(outcome.rejected) == 1
        assert outcome.merged.nodes["V2"].valve_state is ValveState.OPEN

    def test_non_valve_target_rejected_without_aborting_batch(self):
        model = default_model()
        req = SyncRequest(
            "ex",
            Role.EXPERT,
            0,
            (
                SetHighlight("1V1", (1.0, 0.0, 0.0), Role.EXPERT, 1),
                SetValveState("hot-header", ValveState.OPEN, Role.EXPERT, 2),  # a pipe, not a valve
            ),
        )
        outcome = synchronize(req, model)
        assert outcome.accepted == req.edits[:1]
        assert outcome.rejected == ((req.edits[1], REJECT_UNKNOWN_TARGET),)
        assert outcome.merged.nodes["1V1"].visual.highlight_color == (1.0, 0.0, 0.0)

    def test_out_of_range_highlight_rejected_without_aborting_batch(self, shared):
        out_of_range = edit_to_dict(SetHighlight("V1", (2.0, 0.0, 0.0), Role.EXPERT, 1))
        non_numeric = {"op": "set_highlight", "node": "V1", "color": ["a", 0, 0], "role": "Expert", "seq": 1}
        for wire in (out_of_range, non_numeric):
            req = SyncRequest(
                "ex",
                Role.EXPERT,
                0,
                (edit_from_dict(wire), SetValveState("V2", ValveState.OPEN, Role.EXPERT, 2)),
            )
            outcome = synchronize(req, shared)
            assert outcome.accepted == req.edits[1:], wire
            assert outcome.rejected == ((req.edits[0], REJECT_INVALID_HIGHLIGHT),)
            assert outcome.merged.nodes["V1"].visual.highlight_color is None
            assert outcome.merged.nodes["V2"].valve_state is ValveState.OPEN

    def test_non_edit_value_is_an_unsupported_edit(self, shared):
        # Edits dispatch on their exact type: a value with an edit's fields is not one.
        for role in Role:
            lookalike = SimpleNamespace(node="V1", state=ValveState.CLOSED, author_role=role, author_seq=1)
            with pytest.raises(EditError, match="unsupported edit") as info:
                apply_commit(shared, (lookalike,), shared.version + 1)
            assert info.value.reason == REJECT_UNKNOWN_TARGET
            valid = SetValveState("V2", ValveState.OPEN, role, 2)
            outcome = synchronize(SyncRequest("c", role, 0, (lookalike, valid)), shared)
            assert outcome.rejected == ((lookalike, REJECT_UNKNOWN_TARGET),)
            assert outcome.accepted == (valid,)
            assert outcome.merged.nodes["V1"] == shared.nodes["V1"]

    def test_edit_authored_under_other_role_is_protocol_error(self, shared):
        # The edit keeps the record default author_role, Expert, inside an Operator request.
        req = SyncRequest("op", Role.OPERATOR, 0, (SetValveState("V1", ValveState.CLOSED),))
        with pytest.raises(RoomError, match="authored as"):
            synchronize(req, shared)

    def test_future_base_version_is_protocol_error(self, shared):
        with pytest.raises(RoomError, match="ahead of shared version"):
            synchronize(SyncRequest("op", Role.OPERATOR, shared.version + 1, ()), shared)

    def test_version_bumps_once_per_batch(self, shared):
        req = SyncRequest(
            "ex",
            Role.EXPERT,
            0,
            (
                SetValveState("V1", ValveState.CLOSED, Role.EXPERT, 1),
                SetHighlight("V2", (0.0, 1.0, 0.0), Role.EXPERT, 2),
            ),
        )
        outcome = synchronize(req, shared)
        assert outcome.merged.version == shared.version + 1

    def test_determinism_bit_identical(self, shared):
        req = SyncRequest(
            "ex", Role.EXPERT, 0,
            (SetValveState("V1", ValveState.CLOSED, Role.EXPERT, 1),
             AddAnnotation(Annotation("a9", Role.EXPERT, "V2", "z"), Role.EXPERT, 2)),
        )
        a = synchronize(req, shared)
        b = synchronize(req, shared)
        assert canonical_json(a.merged) == canonical_json(b.merged)
        assert a.accepted == b.accepted and a.rejected == b.rejected


class TestRebase:
    def test_no_remote_changes_keeps_replica(self, shared):
        replica = create_replica(shared, "op", Role.OPERATOR)
        replica = edit_replica(replica, SetValveState("V1", ValveState.CLOSED, Role.OPERATOR, 1))
        rebased = acknowledge_commit(replica, (), shared)
        assert rebased.pending == replica.pending
        assert field_equal(rebased.working, replica.working)

    def test_remote_removal_drops_pending_remove(self, shared):
        ann = Annotation("a1", Role.OPERATOR, "V1", "x")
        shared = apply_edit(shared, AddAnnotation(ann, Role.OPERATOR, 1))
        replica = create_replica(shared, "op", Role.OPERATOR)
        replica = edit_replica(replica, RemoveAnnotation("a1", Role.OPERATOR, 1))
        replica = edit_replica(replica, SetValveState("V1", ValveState.CLOSED, Role.OPERATOR, 2))
        # Expert removes the same annotation remotely.
        remote = synchronize(
            SyncRequest("ex", Role.EXPERT, shared.version, (RemoveAnnotation("a1", Role.EXPERT, 1),)),
            shared,
        ).merged
        rebased = acknowledge_commit(replica, (), remote)
        assert not any(isinstance(e, RemoveAnnotation) for e in rebased.pending)
        assert len(rebased.pending) == 1
        assert rebased.base_version == remote.version

    def test_remote_taken_annotation_id_drops_pending_add(self, shared):
        replica = create_replica(shared, "op", Role.OPERATOR)
        mine = AddAnnotation(Annotation("a1", Role.OPERATOR, "V1", "mine"), Role.OPERATOR, 1)
        replica = edit_replica(replica, mine)
        theirs = AddAnnotation(Annotation("a1", Role.EXPERT, "V2", "theirs"), Role.EXPERT, 1)
        remote = synchronize(SyncRequest("ex", Role.EXPERT, shared.version, (theirs,)), shared).merged
        rebased = acknowledge_commit(replica, (), remote)
        assert rebased.pending == ()
        assert rebased.working.annotations == remote.annotations

    def test_random_interleavings_match_sequential_oracle(self, shared):
        rng = random.Random(41)
        dropped = refused = emptied = 0
        for _ in range(50):
            base = shared
            if rng.random() < 0.5:
                seeded = Annotation("a0", Role.EXPERT, "V1", "shared")
                base = apply_edit(shared, AddAnnotation(seeded, Role.EXPERT, 0))
            replica = create_replica(base, "op", Role.OPERATOR)
            for i in range(rng.randrange(1, 6)):
                try:
                    replica = edit_replica(replica, random_edit(rng, replica.working, Role.OPERATOR, i))
                except EditError:
                    pass
            # Annotation ids the replica edits; the remote side removes or takes them.
            touched = sorted(
                e.annotation.id if isinstance(e, AddAnnotation) else e.annotation_id
                for e in replica.pending
                if isinstance(e, (AddAnnotation, RemoveAnnotation))
            )
            own = SyncRequest("op", Role.OPERATOR, replica.base_version, replica.pending)
            own_turn = rng.randrange(-1, 4)  # -1: the replica's own request is never merged
            remote, accepted = base, ()
            for i in range(rng.randrange(0, 4)):
                if i == own_turn:
                    outcome = synchronize(own, remote)
                    remote, accepted = outcome.merged, outcome.accepted
                edit = random_edit(rng, remote, Role.EXPERT, 100 + i)
                if touched and rng.random() < 0.6:
                    ann_id = rng.choice(touched)
                    if ann_id in remote.annotations:
                        edit = RemoveAnnotation(ann_id, Role.EXPERT, 100 + i)
                    else:
                        edit = AddAnnotation(Annotation(ann_id, Role.EXPERT, "V2", "taken"), Role.EXPERT, 100 + i)
                req = SyncRequest("ex", Role.EXPERT, remote.version, (edit,))
                remote = synchronize(req, remote).merged
            rebased = acknowledge_commit(replica, accepted, remote)
            # Oracle: re-apply the edits the host did not accept one at a time
            # onto the remote snapshot, keeping those that still apply and
            # that the host would not refuse under the Operator's rule.
            keys = {(e.author_role, e.author_seq) for e in accepted}
            remaining = [e for e in replica.pending if (e.author_role, e.author_seq) not in keys]
            oracle, survivors = remote, []
            for edit in remaining:
                try:
                    applied = apply_edit(oracle, edit)
                except EditError:
                    dropped += 1
                    continue
                if _operator_rule(edit, oracle.field_authors) is not None:
                    refused += 1
                    continue
                oracle = applied
                survivors.append(edit)
            assert field_equal(rebased.working, oracle)
            assert rebased.pending == tuple(survivors)
            assert rebased.base_version == remote.version
            emptied += not remaining
        assert dropped > 0  # some pending edit no longer applied and was dropped
        assert refused > 0  # some pending edit the host must refuse was dropped
        assert emptied > 0  # some acknowledge left nothing pending

    def test_expert_commit_on_a_pending_field_drops_the_edit(self, shared):
        # The operator's write never reached the host; the expert's commit makes it one the host must refuse.
        replica = create_replica(shared, "op", Role.OPERATOR)
        replica = edit_replica(replica, SetValveState("V1", ValveState.CLOSED, Role.OPERATOR, 1))
        outcome = synchronize(
            SyncRequest("ex", Role.EXPERT, shared.version, (SetValveState("V1", ValveState.OPEN, Role.EXPERT, 1),)),
            shared,
        )
        rebased = acknowledge_commit(replica, outcome.accepted, outcome.merged)
        assert rebased.pending == ()
        assert rebased.working.nodes["V1"].valve_state is ValveState.OPEN
        assert field_equal(rebased.working, outcome.merged)

    def test_refused_removal_leaves_pending_and_the_annotation_shows_again(self, shared):
        shared = apply_edit(shared, AddAnnotation(Annotation("a1", Role.OPERATOR, "V1", "x"), Role.OPERATOR, 0))
        replica = create_replica(shared, "op", Role.OPERATOR)
        replica = edit_replica(replica, RemoveAnnotation("a1", Role.OPERATOR, 1))
        assert "a1" not in replica.working.annotations
        outcome = synchronize(make_sync_request(replica), shared)
        assert outcome.rejected == ((replica.pending[0], REJECT_ANNOTATION_RETENTION),)
        rebased = acknowledge_commit(replica, outcome.accepted, outcome.merged)
        assert rebased.pending == ()
        assert rebased.working.annotations["a1"] == shared.annotations["a1"]

    def test_expert_replica_rebases_under_the_expert_rule(self, shared):
        # Edits the Operator's rule would refuse pass the Expert's, so they stay pending.
        shared = apply_edit(shared, AddAnnotation(Annotation("a1", Role.OPERATOR, "V1", "x"), Role.OPERATOR, 0))
        replica = create_replica(shared, "ex", Role.EXPERT)
        replica = edit_replica(replica, RemoveAnnotation("a1", Role.EXPERT, 1))
        replica = edit_replica(replica, SetValveState("V1", ValveState.CLOSED, Role.EXPERT, 2))
        outcome = synchronize(
            SyncRequest("ex", Role.EXPERT, shared.version, (SetValveState("V1", ValveState.OPEN, Role.EXPERT, 3),)),
            shared,
        )
        rebased = acknowledge_commit(replica, outcome.accepted, outcome.merged)
        assert rebased.pending == replica.pending
        assert "a1" not in rebased.working.annotations
        assert rebased.working.nodes["V1"].valve_state is ValveState.CLOSED

    def test_each_refused_edit_is_sent_once(self, shared):
        shared = apply_edit(shared, SetValveState("V1", ValveState.CLOSED, Role.EXPERT, 0))
        replica = create_replica(shared, "op", Role.OPERATOR)
        sizes = []
        for i in range(1, 6):
            replica = edit_replica(replica, SetValveState("V1", ValveState.OPEN, Role.OPERATOR, i))
            request = make_sync_request(replica)
            sizes.append(len(request.edits))
            outcome = synchronize(request, shared)
            assert [reason for _, reason in outcome.rejected] == [REJECT_EXPERT_PRECEDENCE] * len(request.edits)
            shared = outcome.merged
            replica = acknowledge_commit(replica, outcome.accepted, shared)
        assert sizes == [1] * 5

    def test_operator_refusal_is_final_under_random_commit_walks(self, shared):
        rng = random.Random(59)
        checked = 0
        for _ in range(20):
            model, refused = shared, []
            for step in range(30):
                role = rng.choice((Role.EXPERT, Role.OPERATOR))
                edits = tuple(random_edit(rng, model, role, 10 * step + i) for i in range(rng.randrange(1, 4)))
                model = synchronize(SyncRequest(role.value, role, model.version, edits), model).merged
                candidate = random_edit(rng, model, Role.OPERATOR, 1000 + step)
                if _operator_rule(candidate, model.field_authors) is not None:
                    refused.append(candidate)
                for edit in refused:
                    outcome = synchronize(SyncRequest("op", Role.OPERATOR, model.version, (edit,)), model)
                    assert outcome.accepted == (), (edit, model.version)
                    checked += 1
        assert checked > 0

    def test_host_model_is_the_same_whether_or_not_refused_edits_are_resent(self, shared):
        def resending_acknowledge(replica, accepted, model):
            """The rebase under a rule that passes every edit that fits, so a refused edit stays pending."""
            keys = {(e.author_role, e.author_seq) for e in accepted}
            remaining = tuple(e for e in replica.pending if (e.author_role, e.author_seq) not in keys)
            working, pending, _ = scene_module._apply_batch(model, remaining, model.version, lambda edit, authors: None)
            return Replica(replica.owner, replica.owner_role, model.version, working, pending)

        acknowledges = (acknowledge_commit, resending_acknowledge)
        rng = random.Random(53)
        refusals = [[], []]
        for episode in range(40):
            hosts = [shared, shared]
            replicas = [create_replica(shared, "op", Role.OPERATOR)] * 2
            for step in range(rng.randrange(5, 25)):
                action = rng.random()
                if action < 0.45:  # one operator edit, the same on both replicas, or on neither
                    edit = random_edit(rng, replicas[0].working, Role.OPERATOR, step)
                    try:
                        replicas = [edit_replica(r, edit) for r in replicas]
                    except EditError:
                        pass
                    continue
                if action < 0.75:  # an expert commit, which the operator acknowledges
                    edit = random_edit(rng, hosts[0], Role.EXPERT, step)
                    outcomes = [synchronize(SyncRequest("ex", Role.EXPERT, h.version, (edit,)), h) for h in hosts]
                    accepted = [(), ()]
                else:  # an operator sync
                    outcomes = [synchronize(make_sync_request(r), h) for r, h in zip(replicas, hosts)]
                    accepted = [o.accepted for o in outcomes]
                    for refused, outcome in zip(refusals, outcomes):
                        refused += [(episode, e.author_seq) for e, _ in outcome.rejected]
                hosts = [o.merged for o in outcomes]
                assert hosts[0] == hosts[1]
                replicas = [ack(r, a, h) for ack, r, a, h in zip(acknowledges, replicas, accepted, hosts)]
        dropping, resending = refusals
        assert len(set(dropping)) == len(dropping) > 0  # each edit is refused at most once
        assert len(set(resending)) < len(resending)  # resent edits are refused again

    def test_nothing_left_pending_takes_shared(self, shared):
        replica = create_replica(shared, "op", Role.OPERATOR)
        replica = edit_replica(replica, SetValveState("V1", ValveState.CLOSED, Role.OPERATOR, 1))
        outcome = synchronize(make_sync_request(replica), shared)
        rebased = acknowledge_commit(replica, outcome.accepted, outcome.merged)
        assert rebased.pending == ()
        assert rebased.base_version == outcome.merged.version
        assert canonical_json(rebased.working) == canonical_json(outcome.merged)

    def test_snapshot_older_than_base_is_refused(self, shared):
        newer = apply_edit(shared, SetValveState("V1", ValveState.CLOSED, Role.EXPERT, 1))
        replica = create_replica(newer, "op", Role.OPERATOR)
        with pytest.raises(RoomError, match="behind replica base"):
            acknowledge_commit(replica, (), shared)


class TestCanonicalJson:
    def test_sync_request_round_trip(self, shared):
        import json

        from replicasim.protocol import SyncReq, payload_from_dict, payload_to_dict

        req = SyncRequest(
            "op", Role.OPERATOR, 3,
            (SetValveState("V1", ValveState.OPEN, Role.OPERATOR, 1),
             AddAnnotation(Annotation("a1", Role.OPERATOR, "V2", "hi"), Role.OPERATOR, 2)),
        )
        doc = json.loads(json.dumps(payload_to_dict(SyncReq(req)), sort_keys=True))
        assert payload_from_dict(doc) == SyncReq(req)

    def test_merge_outcome_serialization(self, shared):
        from replicasim.replica import merge_outcome_to_dict

        ex_req = SyncRequest("ex", Role.EXPERT, 0, (SetValveState("V1", ValveState.CLOSED, Role.EXPERT, 1),))
        shared2 = synchronize(ex_req, shared).merged
        op_req = SyncRequest("op", Role.OPERATOR, 0, (SetValveState("V1", ValveState.OPEN, Role.OPERATOR, 1),))
        outcome = synchronize(op_req, shared2)
        doc = merge_outcome_to_dict(outcome)
        assert doc["new_version"] == shared2.version
        assert doc["accepted"] == []
        assert doc["rejected"][0]["reason"] == REJECT_EXPERT_PRECEDENCE


class TestCommitReplay:
    def test_client_replay_is_bit_equal_to_host(self, shared):
        rng = random.Random(67)
        host = shared
        client = shared
        for i in range(30):
            role = Role.EXPERT if rng.random() < 0.5 else Role.OPERATOR
            edit = random_edit(rng, host, role, i)
            outcome = synchronize(SyncRequest("x", role, host.version, (edit,)), host)
            host = outcome.merged
            client = apply_commit(client, outcome.accepted, outcome.merged.version)
            assert canonical_json(client) == canonical_json(host)

    def test_client_replay_of_mixed_batches_is_bit_equal_to_host(self, shared):
        rng = random.Random(71)
        host = client = shared
        seq = 0
        for batch in range(40):
            role = rng.choice([Role.EXPERT, Role.OPERATOR])
            edits = mixed_batch(rng, host, role, f"t{batch}")
            edits = [replace(e, author_seq=seq + i) for i, e in enumerate(edits)]
            seq += len(edits)
            outcome = synchronize(SyncRequest("x", role, host.version, tuple(edits)), host)
            if len(edits) >= len(SPECIALS):
                non_valve = next(e for e in edits if isinstance(e, SetValveState) and e.node == "EX1")
                assert (non_valve, REJECT_UNKNOWN_TARGET) in outcome.rejected
            client = apply_commit(client, outcome.accepted, outcome.merged.version)
            assert canonical_json(client) == canonical_json(outcome.merged)
            host = outcome.merged

    def test_apply_edit_is_the_one_edit_commit(self, shared):
        model = apply_edit(shared, AddAnnotation(Annotation("a1", Role.EXPERT, "V1", "x"), Role.EXPERT, 0))
        edits = (
            SetPose("V1", Pose((0.5, 0.0, 0.0)), Role.EXPERT, 1),
            SetValveState("V2", ValveState.OPEN, Role.EXPERT, 2),
            SetHighlight("V3", (0.0, 1.0, 0.0), Role.EXPERT, 3),
            SetIndication("V1", True, Role.EXPERT, 4),
            AddAnnotation(Annotation("a2", Role.EXPERT, "V2", "y"), Role.EXPERT, 5),
            RemoveAnnotation("a1", Role.EXPERT, 6),
        )
        for edit in edits:
            assert apply_edit(model, edit) == apply_commit(model, (edit,), model.version + 1)

    def test_acknowledge_clears_accepted_and_refused(self, shared):
        ex_req = SyncRequest("ex", Role.EXPERT, 0, (SetValveState("V1", ValveState.CLOSED, Role.EXPERT, 1),))
        shared2 = synchronize(ex_req, shared).merged
        replica = create_replica(shared, "op", Role.OPERATOR)
        replica = edit_replica(replica, SetValveState("V1", ValveState.OPEN, Role.OPERATOR, 1))
        replica = edit_replica(replica, SetValveState("V2", ValveState.OPEN, Role.OPERATOR, 2))
        outcome = synchronize(make_sync_request(replica), shared2)
        assert [e.author_seq for e, _ in outcome.rejected] == [1]
        replica = acknowledge_commit(replica, outcome.accepted, outcome.merged)
        assert replica.pending == ()  # the refused edit is final, so it is not resent
        assert replica.working.nodes["V1"].valve_state is ValveState.CLOSED  # the expert's value shows
        assert replica.base_version == outcome.merged.version


class Overlaid:
    """Runs the tests of the class it is mixed into with every written model,
    shared or working copy, an overlay of its base, as on a model of
    OVERLAY_MIN_NODES nodes or more."""

    @pytest.fixture(autouse=True)
    def every_written_model_overlaid(self, monkeypatch):
        monkeypatch.setattr(scene_module, "OVERLAY_MIN_NODES", 0)


class TestCreateReplicaOverlaid(Overlaid, TestCreateReplica):
    pass


class TestEditReplicaOverlaid(Overlaid, TestEditReplica):
    pass


class TestSynchronizeOverlaid(Overlaid, TestSynchronize):
    pass


class TestRebaseOverlaid(Overlaid, TestRebase):
    pass


class TestCanonicalJsonOverlaid(Overlaid, TestCanonicalJson):
    pass


class TestCommitReplayOverlaid(Overlaid, TestCommitReplay):
    pass


def large_model():
    """250 exchanger units of 19 valves each: 5,000 nodes."""
    nodes = []
    for u in range(250):
        nodes.append({"id": f"u{u}", "kind": "ExchangerUnit"})
        nodes += [{"id": f"u{u}-v{j}", "kind": "Valve", "parent": f"u{u}", "valve_state": "Open",
                   "handedness": "OneHanded"} for j in range(19)]
    return load_model({"nodes": nodes})


def test_private_edits_on_a_large_model_copy_only_what_they_touch():
    shared = large_model()
    assert len(shared.nodes) >= scene_module.OVERLAY_MIN_NODES
    before = canonical_json(shared)
    valves = sorted(n.id for n in shared.valves())
    rng = random.Random(5)
    replica = create_replica(shared, "op", Role.OPERATOR)
    for i in range(50):
        valve = rng.choice(valves)
        edit = rng.choice([
            SetValveState(valve, ValveState.CLOSED, Role.OPERATOR, i),
            SetHighlight(valve, (1.0, 0.5, 0.0), Role.OPERATOR, i),
            SetPose(valve, Pose((0.1 * i, 0.0, 0.0)), Role.OPERATOR, i),
            AddAnnotation(Annotation(f"a{i}", Role.OPERATOR, valve, "note"), Role.OPERATOR, i),
        ])
        replica = edit_replica(replica, edit)
    working = replica.working
    field_edits = [e for e in replica.pending if edit_field_key(e) is not None]
    assert working.nodes.maps[1] is shared.nodes
    assert set(working.nodes.maps[0]) == {e.node for e in field_edits}
    # Each mapping is judged on its own length: the few provenance entries stay a dict.
    assert type(working.field_authors) is dict
    assert set(working.field_authors) == {edit_field_key(e) for e in field_edits}
    assert canonical_json(shared) == before

    # The host accepts the first half; the rest is re-applied onto the new shared model.
    outcome = synchronize(SyncRequest("op", Role.OPERATOR, replica.base_version, replica.pending[:25]), shared)
    remaining = replica.pending[25:]
    rebased = acknowledge_commit(replica, outcome.accepted, outcome.merged)
    assert rebased.pending == remaining
    assert rebased.working == apply_commit(outcome.merged, remaining, outcome.merged.version)
    # The shared model and the rebased copy overlay the same load-time dict;
    # the copy's delta holds every node edited since load, committed or pending.
    assert outcome.merged.nodes.maps[1] is shared.nodes
    assert rebased.working.nodes.maps[1] is shared.nodes
    assert set(rebased.working.nodes.maps[0]) == {
        e.node for e in outcome.accepted + remaining if edit_field_key(e) is not None}


def commit_sequence(loaded, requests):
    """Each request merged by the host and replayed by a second holder; both models after every commit."""
    host = holder = loaded
    steps = []
    for request in requests:
        outcome = synchronize(request, host)
        host = outcome.merged
        holder = apply_commit(holder, outcome.accepted, host.version)
        steps.append((outcome.accepted, host, holder))
    return steps


def test_commits_on_a_large_shared_model_copy_only_what_they_touch(monkeypatch):
    loaded = large_model()
    before = canonical_json(loaded)
    valves = sorted(n.id for n in loaded.valves())[:80]  # few enough that roles collide
    rng = random.Random(21)
    requests = []
    for r in range(40):
        role = rng.choice((Role.EXPERT, Role.OPERATOR))
        edits = []
        for j in range(rng.randint(1, 8)):
            valve, seq = rng.choice(valves), r * 8 + j
            edits.append(rng.choice([
                SetValveState(valve, ValveState.CLOSED, role, seq),
                SetHighlight(valve, (1.0, 0.5, 0.0), role, seq),
                SetPose(valve, Pose((0.01 * seq, 0.0, 0.0)), role, seq),
                AddAnnotation(Annotation(f"a{seq}", role, valve, "note"), role, seq),
            ]))
        requests.append(SyncRequest(role.value, role, 0, tuple(edits)))

    steps = commit_sequence(loaded, requests)
    edited = set()
    for accepted, host, holder in steps:
        edited |= {e.node for e in accepted if edit_field_key(e) is not None}
        for model in (host, holder):
            assert model.nodes.maps[1] is loaded.nodes
            assert set(model.nodes.maps[0]) == edited
            assert type(model.field_authors) is dict
    assert any(len(accepted) < len(request.edits) for (accepted, _, _), request in zip(steps, requests))
    assert canonical_json(loaded) == before

    monkeypatch.setattr(scene_module, "OVERLAY_MIN_NODES", len(loaded.nodes) + 1)
    flat = commit_sequence(loaded, requests)[-1][1]
    assert type(flat.nodes) is dict
    _, host, holder = steps[-1]
    for model in (host, holder):
        assert model == flat and flat == model
        assert canonical_json(model) == canonical_json(flat)
