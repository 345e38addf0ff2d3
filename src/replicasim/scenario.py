"""Scripted inspection sessions: plan, agents, and the deterministic runner.

A session wires two scripted agents (guide and maintainer) through the room
protocol over the simulated transport. The guide walks a two-part inspection
plan and sends each step as a typed payload: an ``Instruction`` to operate a
valve or describe, a ``ReportTemperature``, and ``CallEnd`` to wrap up. The
maintainer draws identification/manipulation outcomes and latencies from a
profile, answers each step with a ``StepDone`` and the wrap-up with its own
``CallEnd``. Everything is a pure function of the session seed.
"""
from __future__ import annotations

import json
import os
import random
from typing import Optional, Union

from replicasim import ConfigError, checks
from replicasim import plant as plant_mod
from replicasim.metrics import Condition
from replicasim.netsim import LinkConfig, TraceEntry, World, derive_seed
from replicasim.plant import PlantState, RoutingTable, plant_from_model, routing_table_from_dict
from replicasim.protocol import (
    Avatar,
    AvatarState,
    CallEnd,
    CallStart,
    Envelope,
    Instruction,
    ReportTemperature,
    RoomState,
    StepDone,
    SyncCommit,
    SyncReq,
    join_room,
    place_expert_avatar,
    submit_sync,
    update_avatar,
)
from replicasim.records import field, record
from replicasim.replica import (
    MergeOutcome,
    SyncRequest,
    acknowledge_commit,
    apply_commit,
    create_replica,
    edit_replica,
    make_sync_request,
)
from replicasim.scene import (
    EditError,
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

# The guide's fixed speech pauses (ms): before the first instruction, after
# the temperature report, and before the wrap-up.
INTRO_PAUSE_MS = 30_000
EXPLANATION_PAUSE_MS = 60_000
SUMMARY_PAUSE_MS = 30_000

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
# Every block kind name, as a log's ``block_kind`` and the metrics name them.
BLOCK_KINDS = (Handedness.ONE_HANDED.value, Handedness.TWO_HANDED.value, NO_MANIPULATION)

# The instruction text the operator logs for a ReportTemperature step.
REPORT_TEMPERATURE = "report-temperature"


# --- Inspection plan -----------------------------------------------------------


@record(frozen=True)
class ManipulationBlock:
    """A block of valve operations of one handedness. Each operation is the
    ``Instruction`` the guide sends for it, with its ``valve`` and ``target``,
    built once when the plan is read."""

    id: str
    kind: Handedness
    operations: tuple[Instruction, ...]


@record(frozen=True)
class NoManipulationBlock:
    id: str
    instruction: Instruction  # the guide's ``describe: …`` prompt


Block = Union[ManipulationBlock, NoManipulationBlock]


@record(frozen=True)
class PlanPart:
    name: str
    blocks: tuple[Block, ...]


@record(frozen=True)
class InspectionPlan:
    parts: tuple[PlanPart, ...]


def block_kind_name(block: Block) -> str:
    return block.kind.value if isinstance(block, ManipulationBlock) else NO_MANIPULATION


OPS_PER_KIND = {Handedness.ONE_HANDED: 4, Handedness.TWO_HANDED: 2}


def validate_plan(plan: InspectionPlan, registry: dict[str, Handedness]) -> InspectionPlan:
    """Check block sizes, valve existence and handedness consistency; returns ``plan``."""
    if len(plan.parts) != 2:
        raise ConfigError("plan must have exactly two parts")
    seen_ids: set[str] = set()
    for part in plan.parts:
        kinds = {block_kind_name(b) for b in part.blocks}
        if not kinds.issuperset(BLOCK_KINDS):
            raise ConfigError(f"part {part.name!r} must contain 1-handed, 2-handed and no-manipulation blocks")
        for block in part.blocks:
            if block.id in seen_ids:
                raise ConfigError(f"duplicate block id {block.id!r}")
            seen_ids.add(block.id)
            if not isinstance(block, ManipulationBlock):
                continue
            expected = OPS_PER_KIND[block.kind]
            if len(block.operations) != expected:
                raise ConfigError(
                    f"block {block.id!r}: {block.kind.value} blocks take exactly {expected} operations,"
                    f" got {len(block.operations)}"
                )
            for op in block.operations:
                if op.valve not in registry:
                    raise ConfigError(f"block {block.id!r} references unknown valve {op.valve!r}")
                if registry[op.valve] is not block.kind:
                    raise ConfigError(
                        f"block {block.id!r}: valve {op.valve!r} is {registry[op.valve].value},"
                        f" not {block.kind.value}"
                    )
    return plan


def plan_from_dict(doc: dict) -> InspectionPlan:
    parts = []
    for part in checks.typed(checks.typed(doc, "plan", dict).get("parts"), "parts", list):
        blocks: list[Block] = []
        for b in checks.typed(checks.typed(part, "part", dict).get("blocks"), "blocks", list):
            block_id = checks.ident(checks.typed(b, "block", dict).get("id"), "block id")
            if b.get("type") == "manipulation":
                kind = checks.member(b.get("kind"), f"block {block_id!r} kind", Handedness)
                operations = []
                for o in checks.typed(b.get("operations"), f"block {block_id!r} operations", list):
                    valve = checks.ident(checks.typed(o, "operation", dict).get("valve"), f"block {block_id!r} valve")
                    target = checks.member(o.get("target"), f"block {block_id!r} target", ValveState)
                    operations.append(Instruction(f"set valve {valve} to {target.value}", valve, target))
                blocks.append(ManipulationBlock(block_id, kind, tuple(operations)))
            elif b.get("type") == "no_manipulation":
                prompt = checks.typed(b.get("prompt"), "prompt", str)
                blocks.append(NoManipulationBlock(block_id, Instruction(f"describe: {prompt}")))
            else:
                raise ConfigError(f"unknown block type {b.get('type')!r}")
        parts.append(PlanPart(checks.typed(part.get("name"), "part name", str), tuple(blocks)))
    return InspectionPlan(parts=tuple(parts))


# --- Profiles ---------------------------------------------------------------------


_PROBABILITIES = ("p_simple", "p_critical", "p_repeat")
_LATENCIES = ("identify_latency_ms", "manipulate_latency_1h_ms", "manipulate_latency_2h_ms", "describe_latency_ms")


@record(frozen=True)
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
        for name in _PROBABILITIES:
            object.__setattr__(self, name, checks.probability(getattr(self, name), name))
        top = checks.MAX_LATENCY_MS
        for name in _LATENCIES:
            mean, sd = checks.vector(getattr(self, name), name, 2)
            if not (0 < mean <= top and 0 <= sd <= top):
                raise ConfigError(f"{name} needs a mean in (0, {top}] and an sd in [0, {top}]")
            object.__setattr__(self, name, (mean, sd))
        if checks.count(self.tablet_putdown_penalty_ms, "tablet_putdown_penalty_ms") > top:
            raise ConfigError(f"tablet_putdown_penalty_ms must be at most {top}, got {self.tablet_putdown_penalty_ms}")

    @staticmethod
    def from_dict(doc: dict) -> "OperatorProfile":
        doc = checks.typed(doc, "profile", dict)
        return OperatorProfile(
            *(doc.get(name) for name in _PROBABILITIES + _LATENCIES), doc.get("tablet_putdown_penalty_ms", 0)
        )


# --- Defaults shipped as package data --------------------------------------------


def _load_data(name: str) -> dict:
    # Through the module's own loader, which reads from a directory or a zip
    # archive alike, so that no run pays for importing importlib.resources.
    # json.loads, not checks.loads: a corrupt shipped file is a fault, not bad input.
    return json.loads(__loader__.get_data(os.path.join(os.path.dirname(__file__), "data", name)).decode("utf-8"))


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
    return validate_plan(plan_from_dict(_load_data("default_plan.json")), registry)


def profiles_from_dict(doc: dict) -> dict[Condition, OperatorProfile]:
    return {
        checks.member(name, "condition", Condition): OperatorProfile.from_dict(profile)
        for name, profile in checks.typed(doc, "profiles", dict).items()
    }


def default_profiles() -> dict[Condition, OperatorProfile]:
    return profiles_from_dict(_load_data("default_profiles.json"))


def valve_registry(model: SceneModel) -> dict[str, Handedness]:
    return {n.id: n.handedness for n in model.valves()}


# --- Session log -----------------------------------------------------------------


@record(frozen=True)
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


@record
class SessionLog:
    condition: Condition
    seed: int
    events: list[LogEvent]
    # Auxiliary context for tests and replay tooling; not part of the JSONL schema.
    initial_valve_states: dict[str, ValveState] = field(default_factory=dict)
    final_valve_states: dict[str, ValveState] = field(default_factory=dict)
    transcript: list[TraceEntry] = field(default_factory=list)


def session_log_to_jsonl(log: SessionLog) -> str:
    lines = [checks.dumps({"record": "session", "condition": log.condition.value, "seed": log.seed})]
    lines += [checks.dumps(e.to_dict()) for e in log.events]
    return "\n".join(lines) + "\n"


def session_log_from_jsonl(text: str) -> SessionLog:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigError("empty session log")
    header = checks.typed(checks.loads(lines[0]), "session header", dict)
    if header.get("record") != "session":
        raise ConfigError("first record must be the session header")
    events = []
    for line in lines[1:]:
        doc = checks.typed(checks.loads(line), "log record", dict)
        if doc.get("record") != "event":
            raise ConfigError(f"unexpected record {doc.get('record')!r}")
        kind = checks.typed(doc.get("kind"), "kind", str)
        data = checks.typed(doc.get("data", {}), f"{kind} data", dict)
        if kind in (IDENTIFY, MANIPULATE, REPEAT_REQUEST):  # the errors that replay counts
            checks.ident(data.get("valve"), f"{kind} valve")
        if kind in (IDENTIFY, MANIPULATE):
            checks.typed(data.get("correct"), f"{kind} correct", bool)
        block, block_kind = doc.get("block"), doc.get("block_kind")
        events.append(LogEvent(
            t_ms=checks.count(doc.get("t_ms"), "t_ms"),
            kind=kind,
            data=data,
            block=None if block is None else checks.ident(block, "block"),
            block_kind=None if block_kind is None else checks.typed(block_kind, "block_kind", str),
        ))
    condition = checks.member(header.get("condition"), "condition", Condition)
    log = SessionLog(condition=condition, seed=checks.integer(header.get("seed"), "seed"), events=events)
    validate_session_log(log)
    return log


def validate_session_log(log: SessionLog) -> None:
    """Check every rule of a session log, the rules that the metrics rely on among them."""
    events = log.events
    if not events or events[0].kind != CALL_START:
        raise ConfigError("log must start with CallStart")
    if events[-1].kind != CALL_END:
        raise ConfigError("log must end with CallEnd")
    last_t = events[0].t_ms
    for event in events:
        if event.t_ms < last_t:
            raise ConfigError(f"timestamps decrease at {event.kind} t={event.t_ms}")
        last_t = event.t_ms
    # Every manipulation block mentioned in events must be closed by a breakpoint.
    manipulation_blocks = {
        e.block for e in events if e.block is not None and e.block_kind != NO_MANIPULATION
    }
    breakpoints = [e for e in events if e.kind == BREAKPOINT]
    unclosed = manipulation_blocks - {e.block for e in breakpoints}
    if unclosed:
        raise ConfigError(f"manipulation blocks without a closing breakpoint: {sorted(unclosed)}")
    if any(e.block is None for e in breakpoints):
        raise ConfigError("breakpoint without block context")
    for e in breakpoints:
        if e.block_kind not in BLOCK_KINDS:
            raise ConfigError(f"unknown block kind {e.block_kind or ''!r}")


class _Recorder:
    def __init__(self) -> None:
        # (t_ms, n, event) with n the entry's index: sorting the tuples orders
        # by time, then by logging order, and never compares two events.
        self._entries: list[tuple[int, int, LogEvent]] = []
        self._block: tuple[Optional[str], Optional[str]] = (None, None)

    def enter(self, block: Optional[Block]) -> None:
        """Stamp later events with ``block``'s id and kind name, or with none."""
        self._block = (None, None) if block is None else (block.id, block_kind_name(block))

    def log(self, t_ms: int, kind: str, data: Optional[dict] = None) -> None:
        t_ms = int(t_ms)
        self._entries.append((t_ms, len(self._entries), LogEvent(t_ms, kind, data or {}, *self._block)))

    def events(self) -> list[LogEvent]:
        return [e for _, _, e in sorted(self._entries)]


# --- Agents ------------------------------------------------------------------------

OPERATOR_ID = "operator"
EXPERT_ID = "expert"
# The operator's opening avatar, the same in every session.
OPERATOR_AVATAR = Avatar(AvatarState(client=OPERATOR_ID, role=Role.OPERATOR, head_pose=Pose((0.0, 1.7, 0.0))))


def _guide_steps(plan: InspectionPlan, recorder: _Recorder):
    """The guide's walk of ``plan``, resumed with the time the operator reports
    each step done: yields ``(step, pause_ms)`` per step, a block's
    instructions as the plan holds them; tells ``recorder`` which block it is
    in and logs a block's closing ``BREAKPOINT``.

    It holds neither its agent nor the ``World``: a generator that held its
    agent would close a cycle (agent, generator, frame, agent) that keeps each
    session's world, trace and models alive until the cyclic collector runs."""
    yield  # started by the agent; the call's start resumes it
    pause = INTRO_PAUSE_MS
    for i, part in enumerate(plan.parts):
        for block in part.blocks:
            recorder.enter(block)
            instructions = block.operations if isinstance(block, ManipulationBlock) else (block.instruction,)
            for instruction in instructions:
                now = yield instruction, pause
                pause = 0
            recorder.log(now, BREAKPOINT)
            recorder.enter(None)
        if i == 0:
            yield ReportTemperature(), pause
            pause = EXPLANATION_PAUSE_MS
    yield CallEnd(), pause + SUMMARY_PAUSE_MS


class _ExpertAgent:
    """The guide and room host. It walks the plan through :func:`_guide_steps`;
    as host it commits its own edits through ``synchronize`` with no private
    replica; only the operator holds one."""

    def __init__(self, session: "_Session"):
        self.s = session
        self.steps = _guide_steps(session.plan, session.recorder)
        next(self.steps)
        self.edit_seq = 0
        self.indicated: Optional[str] = None

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
        self.indicated = valve
        env, outcome = self._commit(SyncRequest(EXPERT_ID, Role.EXPERT, self.s.room.shared.version, tuple(edits)))
        if outcome.rejected:
            edit, reason = outcome.rejected[0]
            raise EditError(f"the host rejected its own edit {edit!r}: {reason}", reason)
        net.send(EXPERT_ID, OPERATOR_ID, env, extra_delay_ms=pause)

    def _commit(self, request: SyncRequest) -> tuple[Envelope, MergeOutcome]:
        """Merge ``request`` as the host and record the commit for the operator."""
        before = self.s.room.shared
        room, env, outcome = submit_sync(self.s.room, request)
        self.s.room = room
        self.s.commits[outcome.merged.version] = (before, outcome.accepted, outcome.merged)
        return env, outcome

    def handle(self, net: World, now: int, src: str, env: Envelope) -> None:
        payload = env.payload
        if isinstance(payload, (CallStart, StepDone)):  # the call starts, or the operator has done a step
            step, pause = self.steps.send(now)
            if isinstance(step, Instruction) and step.valve is not None and self.s.condition is Condition.HMD:
                self._sync_indication(net, step.valve, pause)
            self._send(net, step, pause)
        elif isinstance(payload, Avatar):
            # The host is the room's only other member, so the operator's
            # avatar has no one to be relayed to; only the expert's is sent.
            pose = place_expert_avatar(payload.state)
            mine = AvatarState(client=EXPERT_ID, role=Role.EXPERT, head_pose=pose)
            self.s.room, env_out = update_avatar(self.s.room, mine)
            net.send(EXPERT_ID, OPERATOR_ID, env_out)
        elif isinstance(payload, SyncReq):
            env_out, _ = self._commit(payload.request)
            net.send(EXPERT_ID, OPERATOR_ID, env_out)


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
        self._send(net, StepDone(), extra_delay_ms=delay)

    def handle(self, net: World, now: int, src: str, env: Envelope) -> None:
        payload = env.payload
        if isinstance(payload, SyncCommit):
            # Replay is a pure function of (model, accepted edits, version), so
            # when its inputs are the very objects the host merged, the host's
            # merged model is its result and is adopted as is; any other commit
            # (one that follows a lost commit, say) is replayed. An empty commit
            # keeps its version and ``()`` is one object, so it may pop another
            # empty commit's entry; the hit is still exact, because an empty
            # commit's merged model is its pre-commit model.
            before, accepted, merged = self.s.commits.pop(payload.new_version, (None, None, None))
            if before is self.local_shared and accepted is payload.accepted:
                self.local_shared = merged
            else:
                self.local_shared = apply_commit(self.local_shared, payload.accepted, payload.new_version)
            self.replica = acknowledge_commit(self.replica, payload.accepted, self.local_shared)
            for edit in payload.accepted:
                if isinstance(edit, SetIndication) and edit.playing:
                    self.s.recorder.log(now, REPLICA_INDICATION, {"valve": edit.node})
        elif isinstance(payload, Instruction):
            self.s.recorder.log(now, INSTRUCTION, {"text": payload.text})
            if payload.valve is not None:
                self._handle_operation(net, now, payload.valve, payload.target)
            else:  # a description prompt
                self._send(net, StepDone(), extra_delay_ms=self._draw(self.s.profile.describe_latency_ms))
        elif isinstance(payload, ReportTemperature):
            self.s.recorder.log(now, INSTRUCTION, {"text": REPORT_TEMPERATURE})
            delay = self._draw(self.s.profile.describe_latency_ms)
            reading = round(plant_mod.outlet_temperature(self.s.plant), 2)
            self.s.recorder.log(now + delay, TEMPERATURE_REPORT, {"temperature_c": reading})
            self._send(net, StepDone(reading), extra_delay_ms=delay)
        elif isinstance(payload, CallEnd):
            self.s.recorder.log(now, CALL_END)
            self._send(net, CallEnd())


@record
class _Session:
    condition: Condition
    seed: int
    plan: InspectionPlan
    profile: OperatorProfile
    plant: PlantState
    room: RoomState
    recorder: _Recorder
    # Host commits on their way to the operator, by new version: (pre-commit
    # model, accepted edits, merged model). The operator pops each on arrival.
    commits: dict[int, tuple[SceneModel, tuple, SceneModel]] = field(default_factory=dict)


def run_session(
    plan: InspectionPlan,
    condition: Condition,
    operator_profile: OperatorProfile,
    seed: int = 0,
    model: Optional[SceneModel] = None,
    routing: Optional[RoutingTable] = None,
    link_config: Optional[LinkConfig] = None,
) -> SessionLog:
    """Simulate one full inspection call and return its event log.

    ``plan`` must already have passed :func:`validate_plan` against ``model``
    (the default model when it is None); the session does not check it again.
    """
    model = model if model is not None else default_model()
    routing = routing if routing is not None else default_routing_table()
    plant = plant_from_model(model, routing)
    initial_states = dict(plant.valve_states)

    room = RoomState(room=f"session-{seed}", shared=model)
    room = join_room(room, OPERATOR_ID, Role.OPERATOR)
    room = join_room(room, EXPERT_ID, Role.EXPERT)
    recorder = _Recorder()
    session = _Session(
        condition=condition,
        seed=seed,
        plan=plan,
        profile=operator_profile,
        plant=plant,
        room=room,
        recorder=recorder,
    )

    world = World(master_seed=derive_seed(seed, "net"))
    link = link_config or DEFAULT_SESSION_LINK
    world.add_link(OPERATOR_ID, EXPERT_ID, link)
    world.add_link(EXPERT_ID, OPERATOR_ID, link)
    expert = _ExpertAgent(session)
    operator = _OperatorAgent(session)
    world.add_endpoint(EXPERT_ID, expert)
    world.add_endpoint(OPERATOR_ID, operator)

    recorder.log(0, CALL_START)
    operator._send(world, CallStart())
    operator._send(world, OPERATOR_AVATAR)
    trace = world.run_until_quiescent()

    log = SessionLog(
        condition=condition,
        seed=seed,
        events=recorder.events(),
        initial_valve_states=initial_states,
        final_valve_states=dict(plant.valve_states),
        transcript=trace,
    )
    validate_session_log(log)
    return log
