import gc
import hashlib
import importlib
import importlib.util
from collections import Counter
import itertools
import json
import random
import sys
import weakref
from pathlib import Path

import pytest

from replicasim.netsim import LinkConfig
from replicasim.plant import (
    Exchanger,
    FlowMode,
    PlantState,
    RoutingRow,
    RoutingTable,
    outlet_temperature,
    plant_from_model,
    route,
    routing_table_from_dict,
)
from replicasim.protocol import (
    Avatar,
    AvatarState,
    Envelope,
    Instruction,
    SyncCommit,
    SyncReq,
    detect_gaps,
    payload_to_dict,
)
from replicasim import ConfigError, cli, netsim, protocol, records, replica, scenario, scene
from replicasim.scene import Handedness, Pose, Role, SetIndication, ValveState
from replicasim.metrics import (
    CALL_END,
    CALL_START,
    IDENTIFY,
    INSTRUCTION,
    MANIPULATE,
    NO_MANIPULATION,
    REPLICA_INDICATION,
    TEMPERATURE_REPORT,
    Condition,
    session_log_from_jsonl,
    session_log_to_jsonl,
    validate_session_log,
)
from replicasim.scenario import (
    DEFAULT_SESSION_LINK,
    OperatorProfile,
    build_default_plan,
    default_model,
    default_profiles,
    default_routing_table,
    run_session,
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

    def test_setting_an_unknown_valve_is_config_error(self):
        plant = PlantState({v: ValveState.CLOSED for v in valve_registry(default_model())}, default_routing_table())
        with pytest.raises(ConfigError, match="^unknown valve 'ghost'$"):
            plant.set_valve("ghost", ValveState.OPEN)

    def test_bad_effectiveness_rejected(self):
        with pytest.raises(ValueError, match="effectiveness"):
            RoutingRow(Exchanger.PLATE, FlowMode.COUNTER, (("V", ValveState.OPEN),), 1.2)


class TestPlan:
    def test_default_plan_block_sizes(self):
        plan = build_default_plan(valve_registry(default_model()))
        for part in plan.parts:
            sizes = {b.kind: len(b.steps) for b in part.blocks if b.kind != NO_MANIPULATION}
            assert sizes[Handedness.ONE_HANDED.value] == 4
            assert sizes[Handedness.TWO_HANDED.value] == 2

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

    # Each refusal of a plan file, made by one edit of the shipped plan: (edit, exact message).
    REFUSALS = {
        "one-part": (lambda d: d["parts"].pop(), "plan must have exactly two parts"),
        "no-brief": (lambda d: d["parts"][0]["blocks"].pop(0),
                     "part 'inspect_system' must contain 1-handed, 2-handed and no-manipulation blocks"),
        "duplicate-id": (lambda d: d["parts"][1]["blocks"][0].update(id="p1-brief"), "duplicate block id 'p1-brief'"),
        "short-block": (lambda d: d["parts"][0]["blocks"][1]["operations"].pop(),
                        "block 'p1-one-handed': OneHanded blocks take exactly 4 operations, got 3"),
        "wrong-hand": (lambda d: d["parts"][0]["blocks"][1]["operations"][0].update(valve="2V4"),
                       "block 'p1-one-handed': valve '2V4' is TwoHanded, not OneHanded"),
        "unknown-type": (lambda d: d["parts"][1]["blocks"][2].update(type="bogus"), "unknown block type 'bogus'"),
        "unknown-valve": (lambda d: d["parts"][1]["blocks"][2]["operations"][1].update(valve="ghost"),
                          "block 'p2-two-handed' references unknown valve 'ghost'"),
    }

    @staticmethod
    def shipped_plan_with(mutate) -> dict:
        doc = scenario._load_data("default_plan.json")
        mutate(doc)
        return doc

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_each_plan_refusal_names_its_fault(self, monkeypatch, case):
        mutate, message = self.REFUSALS[case]
        doc = self.shipped_plan_with(mutate)
        load_data = scenario._load_data
        monkeypatch.setattr(scenario, "_load_data", lambda name: doc if name == "default_plan.json" else load_data(name))
        with pytest.raises(ConfigError) as info:
            build_default_plan(valve_registry(default_model()))
        assert str(info.value) == message

    def test_simulate_refuses_a_plan_file_with_its_fault(self, tmp_path, capsys):
        mutate, message = self.REFUSALS["wrong-hand"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.shipped_plan_with(mutate)), encoding="utf-8")
        assert cli.main(["simulate", "--plan", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert f"cannot load {str(path)!r}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_stock_plan_contents_pinned(self):
        plan = build_default_plan(valve_registry(default_model()))
        contents = {
            part.name: [
                (b.id, b.kind, [(op.valve, op.target.value) for op in b.steps if op.valve is not None])
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

    @pytest.mark.parametrize("condition", [Condition.HMD, Condition.TABLET])
    def test_session_builds_no_instruction_and_checks_no_plan(self, condition):
        # Call counts, not timings: the plan holds the guide's 14 instructions,
        # built once when it is read, and it was validated before the session.
        watched = {Instruction.__new__.__code__: "instruction", scenario.plan_from_dict.__code__: "plan_from_dict"}
        calls = {"instruction": 0, "plan_from_dict": 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        plan = build_default_plan(valve_registry(default_model()))
        sys.setprofile(count)
        try:
            run_session(plan, condition, default_profiles()[condition], seed=0)
        finally:
            sys.setprofile(None)
        assert calls == {"instruction": 0, "plan_from_dict": 0}

    @pytest.mark.parametrize("condition, room_states, stamps", [(Condition.HMD, 44, 41), (Condition.TABLET, 20, 17)])
    def test_session_builds_one_room_state_per_stamp_and_places_no_avatar(self, condition, room_states, stamps):
        # Call counts, not timings, of the seed-1 session: the opening room and
        # its two joins, then one state per stamp (69 and 21 when submit_sync
        # and update_avatar built a state of their own before stamping). The
        # expert's reply to the constant opening avatar was placed at import.
        watched = {
            protocol.RoomState.__init__.__code__: "room",
            protocol.RoomState._stamp.__code__: "stamp",
            protocol.place_expert_avatar.__code__: "place",
        }
        calls = {"room": 0, "stamp": 0, "place": 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        plan = build_default_plan(valve_registry(default_model()))
        sys.setprofile(count)
        try:
            log = run_session(plan, condition, default_profiles()[condition], seed=1)
        finally:
            sys.setprofile(None)
        assert calls == {"room": room_states, "stamp": stamps, "place": 0}
        sent = [t.envelope.payload for t in log.transcript if isinstance(t.envelope.payload, Avatar)]
        placed = protocol.place_expert_avatar(scenario.OPERATOR_AVATAR.state)
        assert sent == [scenario.OPERATOR_AVATAR, Avatar(AvatarState(scenario.EXPERT_ID, Role.EXPERT, placed))]

    def test_expert_places_any_other_avatar(self):
        model = default_model()
        room = protocol.join_room(protocol.join_room(protocol.RoomState("r", model), "operator", Role.OPERATOR),
                                  "expert", Role.EXPERT)
        expert = scenario._ExpertAgent(build_default_plan(valve_registry(model)), scenario._Recorder(), Condition.TABLET,
                                       room, {})
        world = netsim.World()
        received = []
        world.add_endpoint(scenario.OPERATOR_ID, lambda net, now, src, env: received.append(env.payload))
        moved = AvatarState(scenario.OPERATOR_ID, Role.OPERATOR, Pose((1.0, 1.6, -2.0)))
        envelope = Envelope(scenario.OPERATOR_ID, 1, "r", Avatar(moved))
        expert.handle(world, 0, scenario.OPERATOR_ID, envelope)
        world.run_until_quiescent()
        placed = protocol.place_expert_avatar(moved)
        assert placed != scenario.EXPERT_AVATAR.head_pose
        assert received == [Avatar(AvatarState(scenario.EXPERT_ID, Role.EXPERT, placed))]

    def test_default_model_and_routing_are_read_once_per_process(self):
        assert default_model() is default_model()
        assert default_routing_table() is default_routing_table()
        default_model.cache_clear()
        default_routing_table.cache_clear()
        watched = {scene.load_model.__code__: "model", routing_table_from_dict.__code__: "routing"}
        calls = {"model": 0, "routing": 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        sys.setprofile(count)
        try:
            for condition in (Condition.TABLET, Condition.HMD, Condition.TABLET):
                run_quiet(condition)
        finally:
            sys.setprofile(None)
        assert calls == {"model": 1, "routing": 1}
        # The sessions left the shared model as it was loaded.
        loaded = scene.load_model(scenario._load_data("default_model.json"))
        assert scene.canonical_json(default_model()) == scene.canonical_json(loaded)

    def test_recorder_keeps_logging_order_at_equal_times(self):
        recorder = scenario._Recorder()
        for t_ms, kind in [(5, "a"), (3, "b"), (5, "c"), (3, "d"), (4, "e"), (3, "f"), (0, "g")]:
            recorder.log(t_ms, kind)
        events = recorder.events()
        assert [(e.t_ms, e.kind) for e in events] == [
            (0, "g"), (3, "b"), (3, "d"), (3, "f"), (4, "e"), (5, "a"), (5, "c")]
        assert recorder.events() == events  # reading the events leaves the recorder as it was

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
        i = next(i for i, b in enumerate(blocks) if b.kind != NO_MANIPULATION)
        ghost = records.replace(blocks[i].steps[0], valve="ghost-valve")
        blocks[i] = records.replace(blocks[i], steps=(ghost,) + blocks[i].steps[1:])
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

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
    def test_a_line_break_inside_a_json_string_ends_no_record(self, separator):
        # JSON takes these raw inside a string, and str.splitlines breaks at each: only "\n" ends a record.
        records = [json.loads(line) for line in session_log_to_jsonl(run_quiet(Condition.TABLET)).split("\n") if line]
        first = next(i for i, r in enumerate(records) if r.get("kind") == INSTRUCTION)
        records[first]["data"]["text"] = f"open{separator}the valve"

        def jsonl():
            return "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)

        assert session_log_from_jsonl(jsonl()).events[first - 1].data["text"] == f"open{separator}the valve"
        records[first + 1]["kind"] = "Bogus"
        with pytest.raises(ConfigError, match=rf"^unknown event kind 'Bogus' at line {first + 2}$"):
            session_log_from_jsonl(jsonl())

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

    def test_routing_that_names_a_valve_the_model_lacks_is_refused_before_the_first_send(self, monkeypatch):
        table = default_routing_table()
        ghost = RoutingRow(Exchanger.PLATE, FlowMode.PARALLEL, (("ghost", ValveState.OPEN),), 0.5)
        unfitting = records.replace(table, rows=table.rows + (ghost,))
        message = "routing table references unknown valves ['ghost']"
        with pytest.raises(ConfigError) as info:
            plant_from_model(default_model(), unfitting)
        assert str(info.value) == message
        send, sends = netsim.World.send, []

        def counted_send(world, *args, **kwargs):
            sends.append(args)
            return send(world, *args, **kwargs)

        monkeypatch.setattr(netsim.World, "send", counted_send)
        with pytest.raises(ConfigError) as info:
            run_quiet(Condition.HMD, routing=unfitting)
        assert str(info.value) == message and sends == []


class TestTracerReach:
    """The benchmark's tracer times a function by patching every ``replicasim``
    module attribute bound to it, and a method on its class. A hot function
    bound in a closure or a default argument would escape it, and a traced
    sweep would report it uncalled."""

    # The functions of bench/tracer.py's TIMED that a session runs.
    SESSION_TIMED = {
        "scene": ("apply_edit",),
        "replica": ("create_replica", "edit_replica", "make_sync_request", "synchronize", "apply_commit",
                    "acknowledge_commit"),
        "protocol": ("submit_sync", "update_avatar"),
        "netsim": ("World.send", "World.run_until_quiescent"),
        "scenario": ("run_session",),
        "plant": ("outlet_temperature", "PlantState.set_valve"),
    }

    def test_the_functions_are_timed_by_the_tracer(self):
        path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for module, names in self.SESSION_TIMED.items():
            assert set(names) <= set(tracer.TIMED[module]), module

    def test_an_hmd_session_calls_each_through_its_patched_names(self, monkeypatch):
        # The first commit is lost, so that the operator replays the 23 after it
        # through apply_commit, which a lossless session never calls.
        send = netsim.World.send
        commits = []

        def drop_first_commit(world, src, dst, envelope, extra_delay_ms=0):
            if type(envelope.payload) is SyncCommit:
                commits.append(envelope)
                if len(commits) == 1:
                    return None
            return send(world, src, dst, envelope, extra_delay_ms)

        monkeypatch.setattr(netsim.World, "send", drop_first_commit)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        loaded = [module for name, module in list(sys.modules.items())
                  if module is not None and (name == "replicasim" or name.startswith("replicasim."))]
        for module_name, names in self.SESSION_TIMED.items():
            module = importlib.import_module(f"replicasim.{module_name}")
            for qualname in names:
                name = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    cls = getattr(module, cls_name)
                    monkeypatch.setattr(cls, method, counted(name, cls.__dict__[method]))
                    continue
                original = getattr(module, qualname)
                wrapper = counted(name, original)
                for owner in loaded:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            monkeypatch.setattr(owner, attr, wrapper)
        plan = build_default_plan(valve_registry(default_model()))
        scenario.run_session(plan, Condition.HMD, default_profiles()[Condition.HMD], seed=0)
        assert len(commits) == 24
        timed = [f"{module}.{name}" for module, names in self.SESSION_TIMED.items() for name in names]
        assert [name for name in timed if not calls[name]] == []
