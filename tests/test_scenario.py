import gc
import hashlib
from collections import Counter
import itertools
import random
import sys
import weakref

import pytest

from replicasim.netsim import LinkConfig
from replicasim.plant import (
    Exchanger,
    FlowMode,
    PlantState,
    RoutingRow,
    RoutingTable,
    outlet_temperature,
    route,
)
from replicasim.protocol import Avatar, Instruction, SyncCommit, SyncReq, detect_gaps, payload_to_dict
from replicasim import ConfigError, netsim, records, replica, scenario, scene
from replicasim.scene import Handedness, SetIndication, ValveState
from replicasim.scenario import (
    CALL_END,
    CALL_START,
    DEFAULT_SESSION_LINK,
    IDENTIFY,
    INSTRUCTION,
    MANIPULATE,
    NO_MANIPULATION,
    REPLICA_INDICATION,
    TEMPERATURE_REPORT,
    Condition,
    ManipulationBlock,
    OperatorProfile,
    block_kind_name,
    build_default_plan,
    default_model,
    default_profiles,
    default_routing_table,
    run_session,
    session_log_from_jsonl,
    session_log_to_jsonl,
    validate_session_log,
    valve_registry,
)

QUIET_PROFILE = OperatorProfile(
    p_simple=0.0,
    p_critical=0.0,
    p_repeat=0.0,
    identify_latency_ms=(2000, 200),
    manipulate_latency_1h_ms=(1500, 100),
    manipulate_latency_2h_ms=(2500, 200),
    describe_latency_ms=(4000, 500),
    tablet_putdown_penalty_ms=1000,
)


def run_quiet(condition, seed=1, profile=QUIET_PROFILE, **kwargs):
    plan = build_default_plan(valve_registry(default_model()))
    return run_session(plan, condition, profile, seed=seed, **kwargs)


def indicated_valves(entry):
    """Valves a traced SyncCommit starts indicating."""
    return [e.node for e in entry.envelope.payload.accepted if isinstance(e, SetIndication) and e.playing]


class TestRouting:
    def table(self):
        return default_routing_table()

    def test_all_closed_is_mixed(self):
        states = {v: ValveState.CLOSED for v in valve_registry(default_model())}
        assert route(states, self.table()) == (Exchanger.MIXED, FlowMode.UNDEFINED)

    def test_plate_counter_row(self):
        states = {v: ValveState.CLOSED for v in valve_registry(default_model())}
        for v in ("2V1", "2V2", "2V4", "2V5"):
            states[v] = ValveState.OPEN
        assert route(states, self.table()) == (Exchanger.PLATE, FlowMode.COUNTER)

    def test_route_matches_enumeration_oracle(self):
        # Exhaustive check over every configuration of the referenced valves.
        table = self.table()
        referenced = sorted(table.valves_referenced())
        others = sorted(set(valve_registry(default_model())) - set(referenced))
        for bits in itertools.product((ValveState.OPEN, ValveState.CLOSED), repeat=len(referenced)):
            states = dict(zip(referenced, bits))
            states.update({v: ValveState.CLOSED for v in others})
            expected = (Exchanger.MIXED, FlowMode.UNDEFINED)
            for row in table.rows:  # first-match predicate, written out longhand
                if all(states[v] is s for v, s in row.requires):
                    expected = (row.exchanger, row.flow)
                    break
            assert route(states, table) == expected

    def test_toggling_valve_outside_path_no_effect(self):
        table = self.table()
        states = {v: ValveState.CLOSED for v in valve_registry(default_model())}
        for v in ("1V1", "1V2", "1V3", "1V5"):
            states[v] = ValveState.OPEN
        before = route(states, table)
        assert before == (Exchanger.SHELL_AND_TUBE, FlowMode.PARALLEL)
        for outside in ("1V6", "1V7", "2V6", "2V7"):
            flipped = dict(states)
            flipped[outside] = ValveState.OPEN
            assert route(flipped, table) == before


class TestOutletTemperature:
    def test_zero_effectiveness_keeps_inlet(self):
        table = default_routing_table()
        states = {v: ValveState.CLOSED for v in valve_registry(default_model())}
        plant = PlantState(states, table)
        assert outlet_temperature(plant) == table.hot_inlet_c

    def test_forced_arithmetic(self):
        table = RoutingTable(
            rows=(RoutingRow(Exchanger.PLATE, FlowMode.COUNTER, (("V", ValveState.OPEN),), 0.5),),
            hot_inlet_c=60.0,
            cold_inlet_c=20.0,
        )
        plant = PlantState({"V": ValveState.OPEN}, table)
        assert outlet_temperature(plant) == 40.0

    def test_counter_flow_cooler_than_parallel_in_shipped_config(self):
        table = default_routing_table()
        eps = {(r.exchanger, r.flow): r.effectiveness for r in table.rows}
        for exchanger in (Exchanger.SHELL_AND_TUBE, Exchanger.PLATE):
            assert eps[(exchanger, FlowMode.COUNTER)] > eps[(exchanger, FlowMode.PARALLEL)]

    def test_outlet_bounded_by_inlets_over_all_configs(self):
        table = default_routing_table()
        referenced = sorted(table.valves_referenced())
        others = sorted(set(valve_registry(default_model())) - set(referenced))
        for bits in itertools.product((ValveState.OPEN, ValveState.CLOSED), repeat=len(referenced)):
            states = dict(zip(referenced, bits))
            states.update({v: ValveState.CLOSED for v in others})
            plant = PlantState(states, table)
            assert table.cold_inlet_c <= outlet_temperature(plant) <= table.hot_inlet_c

    def test_bad_effectiveness_rejected(self):
        with pytest.raises(ValueError, match="effectiveness"):
            RoutingRow(Exchanger.PLATE, FlowMode.COUNTER, (("V", ValveState.OPEN),), 1.2)


class TestPlan:
    def test_default_plan_block_sizes(self):
        plan = build_default_plan(valve_registry(default_model()))
        for part in plan.parts:
            sizes = {b.kind: len(b.operations) for b in part.blocks if isinstance(b, ManipulationBlock)}
            assert sizes[Handedness.ONE_HANDED] == 4
            assert sizes[Handedness.TWO_HANDED] == 2

    def test_empty_registry_rejected(self):
        with pytest.raises(ConfigError, match="references unknown valve"):
            build_default_plan({})

    def test_missing_valve_rejected(self):
        registry = valve_registry(default_model())
        del registry["2V4"]
        with pytest.raises(ConfigError, match="2V4"):
            build_default_plan(registry)

    def test_handedness_mismatch_rejected(self):
        registry = valve_registry(default_model())
        registry["2V4"] = Handedness.ONE_HANDED
        with pytest.raises(ConfigError, match="2V4"):
            build_default_plan(registry)

    def test_stock_plan_contents_pinned(self):
        plan = build_default_plan(valve_registry(default_model()))
        contents = {
            part.name: [
                (b.id, block_kind_name(b), [(op.valve, op.target.value) for op in getattr(b, "operations", ())])
                for b in part.blocks
            ]
            for part in plan.parts
        }
        assert contents == {
            "inspect_system": [
                ("p1-brief", NO_MANIPULATION, []),
                ("p1-one-handed", "OneHanded", [("2V1", "Open"), ("2V2", "Open"), ("1V1", "Closed"), ("1V2", "Closed")]),
                ("p1-two-handed", "TwoHanded", [("2V4", "Open"), ("2V5", "Open")]),
            ],
            "initial_state": [
                ("p2-brief", NO_MANIPULATION, []),
                ("p2-one-handed", "OneHanded", [("1V1", "Open"), ("1V2", "Open"), ("2V1", "Closed"), ("2V2", "Closed")]),
                ("p2-two-handed", "TwoHanded", [("2V4", "Closed"), ("2V5", "Closed")]),
            ],
        }


class TestRunSession:
    def test_zero_error_session_restores_plant(self):
        for condition in Condition:
            log = run_quiet(condition, seed=5)
            incorrect = [e for e in log.events
                         if e.kind in (IDENTIFY, MANIPULATE) and not e.data["correct"]]
            assert incorrect == []
            assert log.initial_valve_states == log.final_valve_states

    def test_same_seed_bit_identical_logs(self):
        a = run_quiet(Condition.HMD, seed=12)
        b = run_quiet(Condition.HMD, seed=12)
        assert session_log_to_jsonl(a) == session_log_to_jsonl(b)

    def test_different_seeds_differ(self):
        a = run_quiet(Condition.HMD, seed=1)
        b = run_quiet(Condition.HMD, seed=2)
        assert session_log_to_jsonl(a) != session_log_to_jsonl(b)

    def test_hmd_instructions_paired_with_indications(self):
        log = run_quiet(Condition.HMD, seed=9)
        indications = [e for e in log.events if e.kind == REPLICA_INDICATION]
        commits = [t for t in log.transcript
                   if isinstance(t.envelope.payload, SyncCommit) and t.dst == "operator" and indicated_valves(t)]
        instructions = [e for e in log.events
                        if e.kind == INSTRUCTION and e.block_kind in ("OneHanded", "TwoHanded")]
        assert len(instructions) == 12  # (4 + 2) operations x 2 parts
        for instr in instructions:
            valve = instr.data["text"].split(" ")[2]
            paired = [e for e in indications if e.data["valve"] == valve and e.t_ms <= instr.t_ms]
            assert paired, f"no indication for {valve} before t={instr.t_ms}"
            assert any(valve in indicated_valves(t) and t.t_ms <= instr.t_ms for t in commits)

    def test_hmd_session_builds_values_without_dataclasses_replace(self):
        # A call count, not a timing: the session hot path builds scene, replica
        # and room values with their constructors.
        watched = {records.replace.__code__: "replace", scene._apply_batch.__code__: "batch"}
        calls = {"replace": 0, "batch": 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        plan = build_default_plan(valve_registry(default_model()))
        sys.setprofile(count)
        try:
            run_session(plan, Condition.HMD, default_profiles()[Condition.HMD], seed=0)
        finally:
            sys.setprofile(None)
        assert calls["batch"] > 0  # the hook saw the replica path run
        assert calls["replace"] == 0

    @pytest.mark.parametrize("condition, batches, replays, edits, acks",
                             [(Condition.HMD, 36, 0, 12, 24), (Condition.TABLET, 0, 0, 0, 0)])
    def test_session_applies_each_commit_once(self, condition, batches, replays, edits, acks):
        # Call counts, not timings. Of the seed-0 hmd session's 24 commits the
        # operator replays none: each time, it adopts the model the host merged.
        # Every batch it would have replayed is one the host already applied.
        # The host commits its own 12 indication batches with no private
        # replica, so every private edit and acknowledge is the operator's:
        # one edit per valve operation, one acknowledge per commit.
        watched = {
            scene._apply_batch.__code__: "batch",
            replica.apply_commit.__code__: "replay",
            replica.edit_replica.__code__: "edit",
            replica.acknowledge_commit.__code__: "ack",
        }
        calls = {"batch": 0, "replay": 0, "edit": 0, "ack": 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        plan = build_default_plan(valve_registry(default_model()))
        sys.setprofile(count)
        try:
            run_session(plan, condition, default_profiles()[condition], seed=0)
        finally:
            sys.setprofile(None)
        assert calls == {"batch": batches, "replay": replays, "edit": edits, "ack": acks}

    def test_session_names_each_block_kind_once(self):
        # A call count, not a timing: the recorder names a block's kind when
        # the guide enters it, not once per logged event (62 calls before).
        # validate_plan, which names each block again, runs once per corpus.
        calls = {"all": 0, "recorder": 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code is scenario.block_kind_name.__code__:
                calls["all"] += 1
                calls["recorder"] += frame.f_back.f_code is scenario._Recorder.enter.__code__

        plan = build_default_plan(valve_registry(default_model()))
        blocks = sum(len(part.blocks) for part in plan.parts)
        sys.setprofile(count)
        try:
            run_session(plan, Condition.HMD, default_profiles()[Condition.HMD], seed=0)
        finally:
            sys.setprofile(None)
        assert calls == {"all": blocks, "recorder": blocks}

    @pytest.mark.parametrize("condition", [Condition.HMD, Condition.TABLET])
    def test_session_builds_no_instruction_and_checks_no_plan(self, condition):
        # Call counts, not timings: the plan holds the guide's 14 instructions,
        # built once when it is read, and it was validated before the session.
        watched = {Instruction.__new__.__code__: "instruction", scenario.validate_plan.__code__: "validate_plan"}
        calls = {"instruction": 0, "validate_plan": 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        plan = build_default_plan(valve_registry(default_model()))
        sys.setprofile(count)
        try:
            run_session(plan, condition, default_profiles()[condition], seed=0)
        finally:
            sys.setprofile(None)
        assert calls == {"instruction": 0, "validate_plan": 0}

    @pytest.mark.parametrize("link, seeded", [(LinkConfig(0, 0), 1), (None, 3)], ids=["zero-latency", "default-link"])
    def test_session_seeds_only_the_generators_it_draws_from(self, link, seeded):
        # A call count, not a timing: the operator always draws, and each of the
        # two links draws only when its config has jitter or loss.
        calls = {"seed": 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code is random.Random.seed.__code__:
                calls["seed"] += 1

        plan = build_default_plan(valve_registry(default_model()))
        sys.setprofile(count)
        try:
            run_session(plan, Condition.HMD, default_profiles()[Condition.HMD], seed=0, link_config=link)
        finally:
            sys.setprofile(None)
        assert calls["seed"] == seeded

    # sha256 of the JSONL of the hmd sessions of seeds 0-4, computed on the tree
    # before the host dropped its private replica. In each of these sessions the
    # operator's commits advance the shared version between two of the host's
    # own indication commits (11 of 12 times), so the host's old replica was one
    # version behind when it made its request.
    @pytest.mark.parametrize("link, digests", [
        pytest.param(DEFAULT_SESSION_LINK, (
            "b8dca3d7e4cf7d0fc405b780204cbc10abd0c3ffc6dcb896d7d6b347cb0ee3e7",
            "a508bb9e52bf41a6a77fa076fc2cb82692cc0d5751ba2a5bc1d1e71293590416",
            "83499522c12b2e8107e6bf5e2d5796de72d2d8335a3cc979e12158802fc768ef",
            "048b4ff440abf97df228d6603cab3b045a2778a0e40bec0be5ffbb24afd9b6d3",
            "8ad08c8ee359ee8c27f2c6cba504c49765e8e41818e91e48609e793fececc769",
        ), id="default-link"),
        pytest.param(LinkConfig(40, 30), (
            "efe6a99ad8ae0ed8f02a881a4d416807bf32bbf79e407341c6036934fe0f25f2",
            "896547e6caa6982487f836eb82136cd67d94114897cb4d1207ac7ef598980657",
            "59832b7227e59a93dcdff625c0cdd5461139fda8b06091bc38aaa94a13e783b1",
            "48d583addb4bb93fe1f5124b744117f8cb60866c5f8f4fbe905cc828325579dc",
            "950dd5491d6119bbd24c69f6a15f2e1c841b14520bec3a64b618fb464df8d207",
        ), id="40ms-30ms"),
    ])
    def test_hmd_session_bytes_are_pinned(self, link, digests):
        model = default_model()
        plan = build_default_plan(valve_registry(model))
        profile = default_profiles()[Condition.HMD]
        assert digests == tuple(
            hashlib.sha256(session_log_to_jsonl(
                run_session(plan, Condition.HMD, profile, seed=seed, model=model, link_config=link)
            ).encode("utf-8")).hexdigest()
            for seed in range(5)
        )

    # sha256 of the JSONL of the tablet sessions of seeds 0-4, computed on the
    # tree before the guide's plan walk became one generator.
    @pytest.mark.parametrize("link, digests", [
        pytest.param(DEFAULT_SESSION_LINK, (
            "117e21826c211ea4405ee4181ba7ed65a8aa27bfd10f9adb41ec7ab8abf63c2e",
            "c7c810d889699f08b50c92f1b9963fe1fcd13e8562e11db81541c553833f9c4c",
            "1f90389a5af50c264855f849530401989026a5440d192be8de0164d8233d93ec",
            "87d6e7a4ec0eb4c8bb85700824514d063912f20eb73fb5127cc0cf3277370dac",
            "d3bb73a3aef7b9eca4f0e4755345bbf28452e5b9078e637fd0ab30f22a5f0d9b",
        ), id="default-link"),
        pytest.param(LinkConfig(40, 30), (
            "caf69c312391a5dbe9312123c2bd3c7a65758eab75ad52be32558736b184650b",
            "943d2b21e14d5c6c3d960d967f4676904b5f4235a22a55b69dd69826675fc503",
            "c3d7a6f1717fac8c076cc2c45cdabd1770e143bb098ab5448f33ba603a4d664f",
            "08afb9ca702a6496f0c822b6bf292c131c3a1e2b7ce578221abd2a2b11d62d16",
            "8c34dae2a7307742b50b551b20e3c27db6dedd0739b039b3ebeac915058e21a1",
        ), id="40ms-30ms"),
    ])
    def test_tablet_session_bytes_are_pinned(self, link, digests):
        model = default_model()
        plan = build_default_plan(valve_registry(model))
        profile = default_profiles()[Condition.TABLET]
        assert digests == tuple(
            hashlib.sha256(session_log_to_jsonl(
                run_session(plan, Condition.TABLET, profile, seed=seed, model=model, link_config=link)
            ).encode("utf-8")).hexdigest()
            for seed in range(5)
        )

    @pytest.mark.parametrize("link", [DEFAULT_SESSION_LINK, LinkConfig(40, 30)], ids=["default-link", "40ms-30ms"])
    @pytest.mark.parametrize("condition", list(Condition))
    def test_sequence_numbers_arrive_without_holes(self, condition, link):
        # Every stamped envelope is sent, so on a lossless link each endpoint
        # receives each sender's sequence numbers 1..n and the operator the
        # host's 1..n, in order; the operator stamps no host sequence number.
        model = default_model()
        plan = build_default_plan(valve_registry(model))
        profile = default_profiles()[condition]
        for seed in range(5):
            log = run_session(plan, condition, profile, seed=seed, model=model, link_config=link)
            to_operator = [t.envelope for t in log.transcript if t.dst == scenario.OPERATOR_ID]
            to_expert = [t.envelope for t in log.transcript if t.dst == scenario.EXPERT_ID]
            assert detect_gaps(to_operator) == {} and detect_gaps(to_expert) == {}
            assert [e.host_seq for e in to_operator] == list(range(1, len(to_operator) + 1))
            assert [e.host_seq for e in to_expert if e.host_seq is not None] == []

    # What the seed-0 session sends, by direction and payload kind; the tablet
    # session sends no sync requests or commits.
    SEED_0_SENDS = {
        ("operator", "expert"): {"call_start": 1, "avatar": 1, "sync_req": 12, "step_done": 15, "call_end": 1},
        ("expert", "operator"): {"instruction": 14, "report_temperature": 1, "sync_commit": 24, "avatar": 1,
                                 "call_end": 1},
    }

    @pytest.mark.parametrize("condition", list(Condition))
    def test_what_a_session_sends_is_pinned(self, condition):
        plan = build_default_plan(valve_registry(default_model()))
        log = run_session(plan, condition, default_profiles()[condition], seed=0)
        sent = {}
        for t in log.transcript:
            sent.setdefault((t.src, t.dst), Counter())[payload_to_dict(t.envelope.payload)["kind"]] += 1
        expected = {
            direction: {kind: n for kind, n in kinds.items()
                        if condition is Condition.HMD or kind not in ("sync_req", "sync_commit")}
            for direction, kinds in self.SEED_0_SENDS.items()
        }
        assert sent == expected

    @pytest.mark.parametrize("condition", list(Condition))
    def test_finished_session_leaves_no_reference_cycle(self, monkeypatch, condition):
        # Reference counting alone frees a session's World, and with it the
        # trace and models, when run_session returns: no agent, generator or
        # frame holds a cycle back to it, so the cyclic collector has no work.
        worlds = []

        def tracked_world(*args, **kwargs):
            world = netsim.World(*args, **kwargs)
            worlds.append(weakref.ref(world))
            return world

        monkeypatch.setattr(scenario, "World", tracked_world)
        gc.disable()
        try:
            log = run_quiet(condition, seed=3)
            assert len(worlds) == 1 and worlds[0]() is None
            assert log.transcript
        finally:
            gc.enable()

    def test_host_edit_rejected_by_its_own_commit_raises(self):
        # The host's indication edits go straight into its merge; one the merge
        # rejects stops the session with the edit and the reason named.
        plan = build_default_plan(valve_registry(default_model()))
        blocks = list(plan.parts[0].blocks)
        i = next(i for i, b in enumerate(blocks) if isinstance(b, ManipulationBlock))
        ghost = records.replace(blocks[i].operations[0], valve="ghost-valve")
        blocks[i] = records.replace(blocks[i], operations=(ghost,) + blocks[i].operations[1:])
        parts = (records.replace(plan.parts[0], blocks=tuple(blocks)),) + plan.parts[1:]
        with pytest.raises(scene.EditError, match=r"SetIndication\(node='ghost-valve'.*unknown-target") as info:
            run_session(records.replace(plan, parts=parts), Condition.HMD, QUIET_PROFILE, seed=0)
        assert info.value.reason == scene.UNKNOWN_TARGET

    # sha256 of the seed-0 hmd session's JSONL when the k-th of its 24 SyncCommit
    # sends is dropped, computed by replaying every commit the operator receives.
    DROPPED_COMMIT_DIGESTS = {
        1: "1d1ba1a4564c42d4c5adbeb14f98109309dab8700f4c442f9b480b82c3b846d1",
        2: "7e95c4af51bdb22215ad5e5aec712a8e8d1caa97a2b7f81c3ac9924a6670ac6a",
        5: "18c4b4bc08b6cd766fe4556ffbc92175d315718d127ecdc7fb8cbcd38fecacb0",
        13: "cee57e082bb51f7211dde27bc58ac8dcf9837d56419775fe473ec869c4b5a379",
        24: "4dd60a36e0e438768f1d5573bfc219c6fac0f746d5eb37d403e06a11acbb3c2d",
    }

    @pytest.mark.parametrize("k", sorted(DROPPED_COMMIT_DIGESTS))
    def test_commits_after_a_lost_commit_are_replayed(self, monkeypatch, k):
        # After a lost commit the operator's model is no longer the one the host
        # merged from, so each later commit is replayed, and the log is the one a
        # replay of every commit gives.
        send = netsim.World.send
        seen = []

        def drop_kth_commit(world, src, dst, envelope, extra_delay_ms=0):
            if type(envelope.payload) is SyncCommit:
                seen.append(envelope)
                if len(seen) == k:
                    return None
            return send(world, src, dst, envelope, extra_delay_ms)

        replays = []
        apply_commit = replica.apply_commit

        def counted_apply_commit(*args):
            replays.append(args)
            return apply_commit(*args)

        monkeypatch.setattr(netsim.World, "send", drop_kth_commit)
        monkeypatch.setattr(scenario, "apply_commit", counted_apply_commit)
        plan = build_default_plan(valve_registry(default_model()))
        log = run_session(plan, Condition.HMD, default_profiles()[Condition.HMD], seed=0)
        assert len(seen) == 24
        assert len(replays) == 24 - k
        digest = hashlib.sha256(session_log_to_jsonl(log).encode("utf-8")).hexdigest()
        assert digest == self.DROPPED_COMMIT_DIGESTS[k]

    def test_tablet_has_no_sync_traffic(self):
        log = run_quiet(Condition.TABLET, seed=9)
        assert not [t for t in log.transcript if isinstance(t.envelope.payload, (SyncReq, SyncCommit))]
        assert not [e for e in log.events if e.kind == REPLICA_INDICATION]

    def test_putdown_penalty_only_for_tablet_two_handed(self):
        profile = OperatorProfile(
            p_simple=0.0, p_critical=0.0, p_repeat=0.0,
            identify_latency_ms=(2000, 1), manipulate_latency_1h_ms=(1500, 1),
            manipulate_latency_2h_ms=(2500, 1), describe_latency_ms=(4000, 1),
            tablet_putdown_penalty_ms=30_000,
        )
        from replicasim.metrics import block_times

        tablet = block_times(run_quiet(Condition.TABLET, seed=4, profile=profile))
        hmd = block_times(run_quiet(Condition.HMD, seed=4, profile=profile))
        diff_2h = tablet.totals_by_kind["TwoHanded"] - hmd.totals_by_kind["TwoHanded"]
        assert abs(diff_2h - 4 * 30.0) < 1.0  # four 2-handed ops pay the penalty
        diff_1h = tablet.totals_by_kind["OneHanded"] - hmd.totals_by_kind["OneHanded"]
        assert abs(diff_1h) < 1.0

    def test_temperature_report_value_from_routing(self):
        log = run_quiet(Condition.HMD, seed=2)
        reports = [e for e in log.events if e.kind == TEMPERATURE_REPORT]
        assert len(reports) == 1
        # Part 1 moves the plant to plate/counter-flow: 60 - 0.7 * (60 - 20).
        assert reports[0].data["temperature_c"] == 32.0

    def test_log_satisfies_invariants(self):
        log = run_quiet(Condition.TABLET, seed=8)
        validate_session_log(log)
        assert log.events[0].kind == CALL_START and log.events[-1].kind == CALL_END

    def test_log_jsonl_round_trip(self):
        log = run_quiet(Condition.HMD, seed=3)
        text = session_log_to_jsonl(log)
        parsed = session_log_from_jsonl(text)
        assert parsed.condition == log.condition and parsed.seed == log.seed
        assert [e.kind for e in parsed.events] == [e.kind for e in log.events]
        assert session_log_to_jsonl(parsed) == text

    def test_malformed_log_rejected(self):
        log = run_quiet(Condition.HMD, seed=3)
        truncated = type(log)(condition=log.condition, seed=log.seed, events=log.events[:-1])
        with pytest.raises(ConfigError, match="must end with CallEnd"):
            validate_session_log(truncated)

    def test_reader_validates_the_log(self):
        # A log that parses but breaks a log rule is refused where it is read.
        text = session_log_to_jsonl(run_quiet(Condition.HMD, seed=3))
        with pytest.raises(ConfigError, match="must end with CallEnd"):
            session_log_from_jsonl(text.rsplit("\n", 2)[0] + "\n")

    def test_god_view_avatar_elevation(self):
        log = run_quiet(Condition.HMD, seed=6)
        avatars = [t.envelope.payload.state for t in log.transcript if isinstance(t.envelope.payload, Avatar)]
        operator_y = [a.head_pose.position[1] for a in avatars if a.client == "operator"]
        expert_y = [a.head_pose.position[1] for a in avatars if a.client == "expert"]
        assert operator_y and expert_y
        assert min(expert_y) > max(operator_y)

    def test_error_probabilities_produce_error_events(self):
        profile = OperatorProfile(
            p_simple=1.0, p_critical=1.0, p_repeat=1.0,
            identify_latency_ms=(800, 10), manipulate_latency_1h_ms=(800, 10),
            manipulate_latency_2h_ms=(800, 10), describe_latency_ms=(800, 10),
        )
        log = run_quiet(Condition.TABLET, seed=2, profile=profile)
        wrong_ids = [e for e in log.events if e.kind == IDENTIFY and not e.data["correct"]]
        wrong_manips = [e for e in log.events if e.kind == MANIPULATE and not e.data["correct"]]
        assert len(wrong_ids) == 12 and len(wrong_manips) == 12
        # Recovery keeps the plant on script even with forced errors.
        assert log.initial_valve_states == log.final_valve_states

    def test_custom_link_config(self):
        log = run_quiet(Condition.HMD, seed=13, link_config=LinkConfig(0, 0))
        validate_session_log(log)

    def test_plan_must_match_model(self):
        registry = {"A1": Handedness.ONE_HANDED}
        with pytest.raises(ConfigError, match="references unknown valve"):
            build_default_plan(registry)
