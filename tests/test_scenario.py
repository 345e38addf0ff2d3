import itertools

import pytest

from replicasim.netsim import LinkConfig
from replicasim.plant import (
    Exchanger,
    FlowMode,
    PlantConfigError,
    PlantState,
    RoutingRow,
    RoutingTable,
    effectiveness,
    outlet_temperature,
    plant_from_model,
    route,
)
from replicasim.scene import Handedness, ValveState
from replicasim.scenario import (
    CALL_END,
    CALL_START,
    IDENTIFY,
    INSTRUCTION,
    MANIPULATE,
    NO_MANIPULATION,
    REPLICA_INDICATION,
    TEMPERATURE_REPORT,
    Condition,
    ExpertPolicy,
    LogError,
    ManipulationBlock,
    OperatorProfile,
    PlanError,
    block_kind_name,
    build_default_plan,
    default_model,
    default_profiles,
    default_routing_table,
    run_session,
    session_log_from_jsonl,
    session_log_to_jsonl,
    validate_plan,
    validate_session_log,
    valve_registry,
    zero_error_profile,
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

FAST_POLICY = ExpertPolicy(intro_pause_ms=2000, explanation_pause_ms=3000, summary_pause_ms=1500)


def run_quiet(condition, seed=1, profile=QUIET_PROFILE, **kwargs):
    plan = build_default_plan(valve_registry(default_model()))
    return run_session(plan, condition, profile, expert_policy=FAST_POLICY, seed=seed, **kwargs)


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
        table = RoutingTable(
            rows=(RoutingRow(Exchanger.PLATE, FlowMode.COUNTER, (("V", ValveState.OPEN),), 1.2),),
            hot_inlet_c=60.0,
            cold_inlet_c=20.0,
        )
        with pytest.raises(PlantConfigError, match="effectiveness"):
            effectiveness({"V": ValveState.OPEN}, table)


class TestPlan:
    def test_default_plan_block_sizes(self):
        plan = build_default_plan(valve_registry(default_model()))
        for part in plan.parts:
            sizes = {b.kind: len(b.operations) for b in part.blocks if isinstance(b, ManipulationBlock)}
            assert sizes[Handedness.ONE_HANDED] == 4
            assert sizes[Handedness.TWO_HANDED] == 2

    def test_empty_registry_rejected(self):
        with pytest.raises(PlanError):
            build_default_plan({})

    def test_missing_valve_rejected(self):
        registry = valve_registry(default_model())
        del registry["2V4"]
        with pytest.raises(PlanError, match="2V4"):
            build_default_plan(registry)

    def test_handedness_mismatch_rejected(self):
        registry = valve_registry(default_model())
        registry["2V4"] = Handedness.ONE_HANDED
        with pytest.raises(PlanError, match="2V4"):
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
                   if t["kind"] == "SyncCommit" and t["to"] == "operator" and t["indicated_valves"]]
        instructions = [e for e in log.events
                        if e.kind == INSTRUCTION and e.block_kind in ("OneHanded", "TwoHanded")]
        assert len(instructions) == 12  # (4 + 2) operations x 2 parts
        for instr in instructions:
            valve = instr.data["text"].split(" ")[2]
            paired = [e for e in indications if e.data["valve"] == valve and e.t_ms <= instr.t_ms]
            assert paired, f"no indication for {valve} before t={instr.t_ms}"
            assert any(valve in t["indicated_valves"] and t["t_ms"] <= instr.t_ms for t in commits)

    def test_tablet_has_no_sync_traffic(self):
        log = run_quiet(Condition.TABLET, seed=9)
        kinds = {t["kind"] for t in log.transcript}
        assert "SyncCommit" not in kinds and "SyncReq" not in kinds
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
        with pytest.raises(LogError):
            validate_session_log(truncated)

    def test_god_view_avatar_elevation(self):
        log = run_quiet(Condition.HMD, seed=6)
        avatars = [t for t in log.transcript if t["kind"] == "Avatar"]
        operator_y = [t["head_y"] for t in avatars if t["client"] == "operator"]
        expert_y = [t["head_y"] for t in avatars if t["client"] == "expert"]
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

    def test_zero_error_profile_helper(self):
        noisy = default_profiles()[Condition.TABLET]
        quiet = zero_error_profile(noisy)
        assert (quiet.p_simple, quiet.p_critical, quiet.p_repeat) == (0.0, 0.0, 0.0)
        assert quiet.identify_latency_ms == noisy.identify_latency_ms

    def test_custom_link_config(self):
        log = run_quiet(Condition.HMD, seed=13, link_config=LinkConfig(0, 0))
        validate_session_log(log)

    def test_plan_must_match_model(self):
        registry = {"A1": Handedness.ONE_HANDED}
        with pytest.raises(PlanError):
            build_default_plan(registry)
