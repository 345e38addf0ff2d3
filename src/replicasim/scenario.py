"""Scripted inspection sessions: plan, agents, and the deterministic runner.

A session wires two scripted agents (guide and maintainer) through the room
protocol over the simulated transport. The guide walks a two-part inspection
plan; the maintainer draws identification/manipulation outcomes and latencies
from a profile. Everything is a pure function of the session seed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources
from typing import Optional, Union

from replicasim import plant as plant_mod
from replicasim.netsim import LinkConfig, World, derive_seed
from replicasim.plant import PlantState, RoutingTable, plant_from_model, routing_table_from_dict
from replicasim.protocol import (
    Avatar,
    AvatarState,
    CallEnd,
    CallStart,
    Envelope,
    Instruction,
    RoomState,
    SyncCommit,
    SyncReq,
    join_room,
    place_expert_avatar,
    submit_sync,
    update_avatar,
)
from replicasim.replica import (
    acknowledge_commit,
    apply_commit,
    create_replica,
    edit_replica,
    make_sync_request,
)
from replicasim.scene import (
    Handedness,
    Pose,
    Role,
    SceneModel,
    SetIndication,
    SetValveState,
    ValveState,
    load_model,
)

MIN_LATENCY_DRAW_MS = 500
DEFAULT_SESSION_LINK = LinkConfig(base_latency_ms=25, jitter_ms=10)

# Log event kinds
CALL_START = "CallStart"
INSTRUCTION = "Instruction"
REPLICA_INDICATION = "ReplicaIndication"
IDENTIFY = "Identify"
MANIPULATE = "Manipulate"
REPEAT_REQUEST = "RepeatRequest"
BREAKPOINT = "Breakpoint"
TEMPERATURE_REPORT = "TemperatureReport"
CALL_END = "CallEnd"

NO_MANIPULATION = "NoManipulation"


class PlanError(Exception):
    pass


class LogError(Exception):
    pass


class Condition(Enum):
    TABLET = "tablet"
    HMD = "hmd"


# --- Inspection plan -----------------------------------------------------------


@dataclass(frozen=True)
class ValveOp:
    valve: str
    target: ValveState


@dataclass(frozen=True)
class ManipulationBlock:
    id: str
    kind: Handedness
    operations: tuple[ValveOp, ...]


@dataclass(frozen=True)
class NoManipulationBlock:
    id: str
    prompt: str


Block = Union[ManipulationBlock, NoManipulationBlock]


@dataclass(frozen=True)
class PlanPart:
    name: str
    blocks: tuple[Block, ...]


@dataclass(frozen=True)
class InspectionPlan:
    parts: tuple[PlanPart, ...]

    def blocks(self) -> list[Block]:
        return [b for part in self.parts for b in part.blocks]


def block_kind_name(block: Block) -> str:
    return block.kind.value if isinstance(block, ManipulationBlock) else NO_MANIPULATION


OPS_PER_KIND = {Handedness.ONE_HANDED: 4, Handedness.TWO_HANDED: 2}


def validate_plan(plan: InspectionPlan, registry: dict[str, Handedness]) -> None:
    """Check block sizes, valve existence and handedness consistency."""
    if len(plan.parts) != 2:
        raise PlanError("plan must have exactly two parts")
    seen_ids: set[str] = set()
    for part in plan.parts:
        kinds = {block_kind_name(b) for b in part.blocks}
        if not {"OneHanded", "TwoHanded", NO_MANIPULATION} <= kinds:
            raise PlanError(f"part {part.name!r} must contain 1-handed, 2-handed and no-manipulation blocks")
        for block in part.blocks:
            if block.id in seen_ids:
                raise PlanError(f"duplicate block id {block.id!r}")
            seen_ids.add(block.id)
            if not isinstance(block, ManipulationBlock):
                continue
            expected = OPS_PER_KIND[block.kind]
            if len(block.operations) != expected:
                raise PlanError(
                    f"block {block.id!r}: {block.kind.value} blocks take exactly {expected} operations,"
                    f" got {len(block.operations)}"
                )
            for op in block.operations:
                if op.valve not in registry:
                    raise PlanError(f"block {block.id!r} references unknown valve {op.valve!r}")
                if registry[op.valve] is not block.kind:
                    raise PlanError(
                        f"block {block.id!r}: valve {op.valve!r} is {registry[op.valve].value},"
                        f" not {block.kind.value}"
                    )


def plan_from_dict(doc: dict) -> InspectionPlan:
    parts = []
    for part in doc["parts"]:
        blocks: list[Block] = []
        for b in part["blocks"]:
            if b["type"] == "manipulation":
                blocks.append(
                    ManipulationBlock(
                        id=b["id"],
                        kind=Handedness(b["kind"]),
                        operations=tuple(ValveOp(o["valve"], ValveState(o["target"])) for o in b["operations"]),
                    )
                )
            elif b["type"] == "no_manipulation":
                blocks.append(NoManipulationBlock(id=b["id"], prompt=b["prompt"]))
            else:
                raise PlanError(f"unknown block type {b.get('type')!r}")
        parts.append(PlanPart(name=part["name"], blocks=tuple(blocks)))
    return InspectionPlan(parts=tuple(parts))


# --- Profiles and policies -------------------------------------------------------


@dataclass(frozen=True)
class OperatorProfile:
    """Per-instruction error probabilities and latency distributions (ms)."""

    p_simple: float
    p_critical: float
    p_repeat: float
    identify_latency_ms: tuple[float, float]
    manipulate_latency_1h_ms: tuple[float, float]
    manipulate_latency_2h_ms: tuple[float, float]
    describe_latency_ms: tuple[float, float]
    tablet_putdown_penalty_ms: int = 0

    def __post_init__(self) -> None:
        for name in ("p_simple", "p_critical", "p_repeat"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        for name in (
            "identify_latency_ms",
            "manipulate_latency_1h_ms",
            "manipulate_latency_2h_ms",
            "describe_latency_ms",
        ):
            mean, sd = getattr(self, name)
            if mean <= 0 or sd < 0:
                raise ValueError(f"{name} needs a positive mean and non-negative sd")

    @staticmethod
    def from_dict(doc: dict) -> "OperatorProfile":
        def pair(key):
            mean, sd = doc[key]
            return (float(mean), float(sd))

        return OperatorProfile(
            p_simple=float(doc["p_simple"]),
            p_critical=float(doc["p_critical"]),
            p_repeat=float(doc["p_repeat"]),
            identify_latency_ms=pair("identify_latency_ms"),
            manipulate_latency_1h_ms=pair("manipulate_latency_1h_ms"),
            manipulate_latency_2h_ms=pair("manipulate_latency_2h_ms"),
            describe_latency_ms=pair("describe_latency_ms"),
            tablet_putdown_penalty_ms=int(doc.get("tablet_putdown_penalty_ms", 0)),
        )


def zero_error_profile(base: OperatorProfile) -> OperatorProfile:
    return replace(base, p_simple=0.0, p_critical=0.0, p_repeat=0.0)


@dataclass(frozen=True)
class ExpertPolicy:
    """Deterministic guide behavior: fixed speech pauses, single-actor style."""

    intro_pause_ms: int = 30_000
    explanation_pause_ms: int = 60_000
    summary_pause_ms: int = 30_000
    avatar_elevation_m: float = 1.5
    replica_scale: float = 0.2


# --- Defaults shipped as package data --------------------------------------------


def _load_data(name: str) -> dict:
    with resources.files("replicasim.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def default_model() -> SceneModel:
    return load_model(_load_data("default_model.json"))


def default_routing_table() -> RoutingTable:
    return routing_table_from_dict(_load_data("default_routing.json"))


def build_default_plan(registry: dict[str, Handedness]) -> InspectionPlan:
    """The stock two-part plan: reroute to the plate exchanger in counter-flow,
    then restore the initial state.

    The shipped ``data/default_plan.json`` is the plan's only source; it is
    validated against ``registry``.
    """
    plan = plan_from_dict(_load_data("default_plan.json"))
    validate_plan(plan, registry)
    return plan


def profiles_from_dict(doc: dict) -> dict[Condition, OperatorProfile]:
    return {Condition(name): OperatorProfile.from_dict(profile) for name, profile in doc.items()}


def default_profiles() -> dict[Condition, OperatorProfile]:
    return profiles_from_dict(_load_data("default_profiles.json"))


def valve_registry(model: SceneModel) -> dict[str, Handedness]:
    return {n.id: n.handedness for n in model.valves()}


# --- Session log -----------------------------------------------------------------


@dataclass(frozen=True)
class LogEvent:
    t_ms: int
    kind: str
    data: dict = field(default_factory=dict)
    block: Optional[str] = None
    block_kind: Optional[str] = None

    def to_dict(self) -> dict:
        doc: dict = {"record": "event", "t_ms": self.t_ms, "kind": self.kind}
        if self.block is not None:
            doc["block"] = self.block
            doc["block_kind"] = self.block_kind
        if self.data:
            doc["data"] = self.data
        return doc


@dataclass
class SessionLog:
    condition: Condition
    seed: int
    events: list[LogEvent]
    # Auxiliary context for tests and replay tooling; not part of the JSONL schema.
    initial_valve_states: dict[str, ValveState] = field(default_factory=dict)
    final_valve_states: dict[str, ValveState] = field(default_factory=dict)
    transcript: list[dict] = field(default_factory=list)


def session_log_to_jsonl(log: SessionLog) -> str:
    lines = [json.dumps({"record": "session", "condition": log.condition.value, "seed": log.seed},
                        sort_keys=True, separators=(",", ":"))]
    lines += [json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":")) for e in log.events]
    return "\n".join(lines) + "\n"


def session_log_from_jsonl(text: str) -> SessionLog:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise LogError("empty session log")
    header = json.loads(lines[0])
    if header.get("record") != "session":
        raise LogError("first record must be the session header")
    events = []
    for line in lines[1:]:
        doc = json.loads(line)
        if doc.get("record") != "event":
            raise LogError(f"unexpected record {doc.get('record')!r}")
        events.append(
            LogEvent(
                t_ms=int(doc["t_ms"]),
                kind=doc["kind"],
                data=doc.get("data", {}),
                block=doc.get("block"),
                block_kind=doc.get("block_kind"),
            )
        )
    return SessionLog(condition=Condition(header["condition"]), seed=int(header["seed"]), events=events)


def validate_session_log(log: SessionLog) -> None:
    events = log.events
    if not events or events[0].kind != CALL_START:
        raise LogError("log must start with CallStart")
    if events[-1].kind != CALL_END:
        raise LogError("log must end with CallEnd")
    last_t = events[0].t_ms
    for event in events:
        if event.t_ms < last_t:
            raise LogError(f"timestamps decrease at {event.kind} t={event.t_ms}")
        last_t = event.t_ms
    # Every manipulation block mentioned in events must be closed by a breakpoint.
    manipulation_blocks = {
        e.block for e in events if e.block is not None and e.block_kind != NO_MANIPULATION
    }
    closed = {e.block for e in events if e.kind == BREAKPOINT}
    unclosed = manipulation_blocks - closed
    if unclosed:
        raise LogError(f"manipulation blocks without a closing breakpoint: {sorted(unclosed)}")


class _Recorder:
    def __init__(self) -> None:
        self._entries: list[tuple[int, int, LogEvent]] = []
        self._n = 0
        self.current_block: Optional[Block] = None

    def log(self, t_ms: int, kind: str, data: Optional[dict] = None) -> None:
        block = self.current_block
        event = LogEvent(
            t_ms=int(t_ms),
            kind=kind,
            data=data or {},
            block=block.id if block else None,
            block_kind=block_kind_name(block) if block else None,
        )
        self._entries.append((event.t_ms, self._n, event))
        self._n += 1

    def events(self) -> list[LogEvent]:
        return [e for _, _, e in sorted(self._entries, key=lambda item: (item[0], item[1]))]


# --- Agents ------------------------------------------------------------------------

OPERATOR_ID = "operator"
EXPERT_ID = "expert"


class _ExpertAgent:
    """Guide-side state machine; also carries the room host role."""

    def __init__(self, session: "_Session"):
        self.s = session
        self.steps: list[tuple] = []
        for i, part in enumerate(session.plan.parts):
            self.steps.extend(("block", block) for block in part.blocks)
            if i == 0:
                self.steps.append(("temperature",))
        self.steps.append(("wrapup",))
        self.step_index = 0
        self.op_index = 0
        self.pending_pause_ms = 0
        self.edit_seq = 0
        self.indicated: Optional[str] = None
        self.replica = None

    def _next_seq(self) -> int:
        self.edit_seq += 1
        return self.edit_seq

    def _send(self, net: World, payload, extra_delay_ms: int = 0) -> None:
        room, env = self.s.room._stamp(EXPERT_ID, payload)
        self.s.room = room
        net.send(EXPERT_ID, OPERATOR_ID, env, extra_delay_ms=extra_delay_ms)

    def _sync_indication(self, net: World, valve: str, pause: int) -> None:
        edits = []
        if self.indicated is not None:
            edits.append(SetIndication(self.indicated, False, Role.EXPERT, self._next_seq()))
        edits.append(SetIndication(valve, True, Role.EXPERT, self._next_seq()))
        for edit in edits:
            self.replica = edit_replica(self.replica, edit)
        self.indicated = valve
        request = make_sync_request(self.replica)
        room, env, outcome = submit_sync(self.s.room, request)
        self.s.room = room
        self.replica = acknowledge_commit(self.replica, outcome.accepted, room.shared)
        net.send(EXPERT_ID, OPERATOR_ID, env, extra_delay_ms=pause)

    def _advance(self, net: World, now: int) -> None:
        if self.step_index >= len(self.steps):
            return
        step = self.steps[self.step_index]
        pause = self.pending_pause_ms
        self.pending_pause_ms = 0
        if step[0] == "block":
            block = step[1]
            self.s.recorder.current_block = block
            if isinstance(block, NoManipulationBlock):
                self._send(net, Instruction(f"describe: {block.prompt}"), pause)
            else:
                op = block.operations[self.op_index]
                if self.s.condition is Condition.HMD:
                    self._sync_indication(net, op.valve, pause)
                self._send(net, Instruction(f"set valve {op.valve} to {op.target.value}"), pause)
        elif step[0] == "temperature":
            self._send(net, Instruction("report-temperature"), pause)
        else:
            self._send(net, Instruction("wrap-up"), pause + self.s.policy.summary_pause_ms)

    def _complete_block_step(self, net: World, now: int) -> None:
        self.s.recorder.log(now, BREAKPOINT)
        self.s.recorder.current_block = None
        self.step_index += 1
        self.op_index = 0
        self._advance(net, now)

    def handle(self, net: World, now: int, src: str, env: Envelope) -> None:
        payload = env.payload
        if isinstance(payload, CallStart):
            self.pending_pause_ms = self.s.policy.intro_pause_ms
            self._advance(net, now)
        elif isinstance(payload, Avatar):
            room, _ = update_avatar(self.s.room, payload.state)
            pose = place_expert_avatar(payload.state, self.s.policy.avatar_elevation_m)
            mine = AvatarState(client=EXPERT_ID, role=Role.EXPERT, head_pose=pose)
            room, env_out = update_avatar(room, mine)
            self.s.room = room
            net.send(EXPERT_ID, OPERATOR_ID, env_out)
        elif isinstance(payload, SyncReq):
            room, env_out, _ = submit_sync(self.s.room, payload.request)
            self.s.room = room
            net.send(EXPERT_ID, OPERATOR_ID, env_out)
        elif isinstance(payload, Instruction):
            text = payload.text
            if text == "done":
                block = self.steps[self.step_index][1]
                self.op_index += 1
                if self.op_index < len(block.operations):
                    self._advance(net, now)
                else:
                    self._complete_block_step(net, now)
            elif text == "described":
                self._complete_block_step(net, now)
            elif text.startswith("temperature"):
                self.step_index += 1
                self.pending_pause_ms = self.s.policy.explanation_pause_ms
                self._advance(net, now)


class _OperatorAgent:
    """Maintainer-side state machine: draws outcomes/latencies from the profile."""

    def __init__(self, session: "_Session"):
        self.s = session
        self.rng = random.Random(derive_seed(session.seed, "operator"))
        self.sender_seq = 0
        self.edit_seq = 0
        self.local_shared = session.room.shared
        self.replica = create_replica(self.local_shared, OPERATOR_ID, Role.OPERATOR)
        self.valve_ids = sorted(session.plant.valve_states)

    def _next_seq(self) -> int:
        self.edit_seq += 1
        return self.edit_seq

    def _send(self, net: World, payload, extra_delay_ms: int = 0) -> None:
        self.sender_seq += 1
        env = Envelope(sender=OPERATOR_ID, sender_seq=self.sender_seq, room=self.s.room.room, payload=payload)
        net.send(OPERATOR_ID, EXPERT_ID, env, extra_delay_ms=extra_delay_ms)

    def _draw(self, mean_sd: tuple[float, float]) -> int:
        mean, sd = mean_sd
        return max(MIN_LATENCY_DRAW_MS, round(self.rng.gauss(mean, sd)))

    def _wrong_valve(self, target: str) -> str:
        candidates = [v for v in self.valve_ids if v != target]
        return self.rng.choice(candidates)

    def _handle_operation(self, net: World, now: int, valve: str, target: ValveState) -> None:
        profile = self.s.profile
        handedness = self.local_shared.node(valve).handedness
        manip = (
            profile.manipulate_latency_2h_ms
            if handedness is Handedness.TWO_HANDED
            else profile.manipulate_latency_1h_ms
        )
        putdown = (
            profile.tablet_putdown_penalty_ms
            if self.s.condition is Condition.TABLET and handedness is Handedness.TWO_HANDED
            else 0
        )
        t = now
        if self.rng.random() < profile.p_repeat:
            t += self._draw(profile.identify_latency_ms)
            self.s.recorder.log(t, REPEAT_REQUEST, {"valve": valve})
        if self.rng.random() < profile.p_simple:
            t += self._draw(profile.identify_latency_ms)
            self.s.recorder.log(t, IDENTIFY, {"valve": self._wrong_valve(valve), "correct": False})
        t += self._draw(profile.identify_latency_ms)
        self.s.recorder.log(t, IDENTIFY, {"valve": valve, "correct": True})
        if self.rng.random() < profile.p_critical:
            # The wrong grab is interrupted before the valve state changes.
            t += self._draw(manip) + putdown
            self.s.recorder.log(t, MANIPULATE, {"valve": self._wrong_valve(valve), "correct": False})
        t += self._draw(manip) + putdown
        self.s.recorder.log(t, MANIPULATE, {"valve": valve, "correct": True})
        self.s.plant.set_valve(valve, target)
        delay = t - now
        if self.s.condition is Condition.HMD:
            edit = SetValveState(valve, target, Role.OPERATOR, self._next_seq())
            self.replica = edit_replica(self.replica, edit)
            self._send(net, SyncReq(make_sync_request(self.replica)), extra_delay_ms=delay)
        self._send(net, Instruction("done"), extra_delay_ms=delay)

    def handle(self, net: World, now: int, src: str, env: Envelope) -> None:
        payload = env.payload
        if isinstance(payload, SyncCommit):
            self.local_shared = apply_commit(self.local_shared, payload.accepted, payload.new_version)
            self.replica = acknowledge_commit(self.replica, payload.accepted, self.local_shared)
            for edit in payload.accepted:
                if isinstance(edit, SetIndication) and edit.playing:
                    self.s.recorder.log(now, REPLICA_INDICATION, {"valve": edit.node})
        elif isinstance(payload, Instruction):
            text = payload.text
            if text.startswith("set valve "):
                _, _, valve, _, state = text.split(" ")
                self.s.recorder.log(now, INSTRUCTION, {"text": text})
                self._handle_operation(net, now, valve, ValveState(state))
            elif text.startswith("describe:"):
                self.s.recorder.log(now, INSTRUCTION, {"text": text})
                self._send(net, Instruction("described"), extra_delay_ms=self._draw(self.s.profile.describe_latency_ms))
            elif text == "report-temperature":
                self.s.recorder.log(now, INSTRUCTION, {"text": text})
                delay = self._draw(self.s.profile.describe_latency_ms)
                temp = plant_mod.outlet_temperature(self.s.plant)
                self.s.recorder.log(now + delay, TEMPERATURE_REPORT, {"temperature_c": round(temp, 2)})
                self._send(net, Instruction(f"temperature {temp:.2f}"), extra_delay_ms=delay)
            elif text == "wrap-up":
                self.s.recorder.log(now, CALL_END)
                self._send(net, CallEnd())


def _transcript_entry(entry) -> dict:
    payload = entry.envelope.payload
    doc = {
        "t_ms": entry.t_ms,
        "from": entry.src,
        "to": entry.dst,
        "kind": type(payload).__name__,
    }
    if isinstance(payload, SyncCommit):
        doc["indicated_valves"] = [
            e.node for e in payload.accepted if isinstance(e, SetIndication) and e.playing
        ]
        doc["new_version"] = payload.new_version
    elif isinstance(payload, Avatar):
        doc["client"] = payload.state.client
        doc["head_y"] = payload.state.head_pose.position[1]
    return doc


@dataclass
class _Session:
    condition: Condition
    seed: int
    plan: InspectionPlan
    profile: OperatorProfile
    policy: ExpertPolicy
    plant: PlantState
    room: RoomState
    recorder: _Recorder


def run_session(
    plan: InspectionPlan,
    condition: Condition,
    operator_profile: OperatorProfile,
    expert_policy: Optional[ExpertPolicy] = None,
    seed: int = 0,
    model: Optional[SceneModel] = None,
    routing: Optional[RoutingTable] = None,
    link_config: Optional[LinkConfig] = None,
) -> SessionLog:
    """Simulate one full inspection call and return its event log."""
    policy = expert_policy or ExpertPolicy()
    model = model if model is not None else default_model()
    routing = routing if routing is not None else default_routing_table()
    validate_plan(plan, valve_registry(model))
    plant = plant_from_model(model, routing)
    initial_states = dict(plant.valve_states)

    room = RoomState(room=f"session-{seed}", shared=model)
    room, _ = join_room(room, OPERATOR_ID, Role.OPERATOR)
    room, _ = join_room(room, EXPERT_ID, Role.EXPERT)
    recorder = _Recorder()
    session = _Session(
        condition=condition,
        seed=seed,
        plan=plan,
        profile=operator_profile,
        policy=policy,
        plant=plant,
        room=room,
        recorder=recorder,
    )

    world = World(master_seed=derive_seed(seed, "net"))
    link = link_config or DEFAULT_SESSION_LINK
    world.add_link(OPERATOR_ID, EXPERT_ID, link)
    world.add_link(EXPERT_ID, OPERATOR_ID, link)
    expert = _ExpertAgent(session)
    expert.replica = create_replica(room.shared, EXPERT_ID, Role.EXPERT, policy.replica_scale)
    operator = _OperatorAgent(session)
    world.add_endpoint(EXPERT_ID, expert)
    world.add_endpoint(OPERATOR_ID, operator)

    recorder.log(0, CALL_START)
    operator._send(world, CallStart())
    operator_avatar = AvatarState(client=OPERATOR_ID, role=Role.OPERATOR, head_pose=Pose((0.0, 1.7, 0.0)))
    operator._send(world, Avatar(operator_avatar))
    trace = world.run_until_quiescent()

    log = SessionLog(
        condition=condition,
        seed=seed,
        events=recorder.events(),
        initial_valve_states=initial_states,
        final_valve_states=dict(plant.valve_states),
        transcript=[_transcript_entry(entry) for entry in trace],
    )
    validate_session_log(log)
    return log
