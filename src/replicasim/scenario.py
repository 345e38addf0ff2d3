"""Scripted inspection sessions: plan, agents, and the deterministic runner.

A session wires two scripted agents (guide and maintainer) through the room
protocol over the simulated transport. The guide walks a two-part inspection
plan and sends each step as a typed payload: an ``Instruction`` to operate a
valve or describe, a ``ReportTemperature``, and ``CallEnd`` to wrap up. The
maintainer draws identification/manipulation outcomes and latencies from a
profile, answers each step with a ``StepDone`` and the wrap-up with its own
``CallEnd``. Everything is a pure function of the session seed.

Field-less payloads are immutable, so each is built once and every send
reuses it. Both agents dispatch on a payload's exact type, as the codec does.
"""
from __future__ import annotations

import json
import os
import random
from functools import cache
from operator import attrgetter
from typing import Optional

from replicasim import ConfigError, checks, metrics
from replicasim import plant as plant_mod
from replicasim.metrics import (BREAKPOINT, CALL_END, CALL_START, IDENTIFY, INSTRUCTION, MANIPULATE, REPEAT_REQUEST,
                                REPLICA_INDICATION, TEMPERATURE_REPORT, Condition, LogEvent,
                                session_log_to_jsonl)  # bench/ times the writer under this name
from replicasim.netsim import LinkConfig, World, derive_seed
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
from replicasim.records import record
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

# The instruction text the operator logs for a ReportTemperature step.
REPORT_TEMPERATURE = "report-temperature"


# --- Inspection plan -----------------------------------------------------------


@record(frozen=True)
class Block:
    """A plan block: ``kind`` is the name the log writes (one of
    ``metrics.BLOCK_KINDS``); ``steps`` are the ``Instruction``s the guide sends,
    built once when the plan is read: valve operations, or one ``describe: …``."""

    id: str
    kind: str
    steps: tuple[Instruction, ...]


@record(frozen=True)
class PlanPart:
    name: str
    blocks: tuple[Block, ...]


@record(frozen=True)
class InspectionPlan:
    parts: tuple[PlanPart, ...]


OPS_PER_KIND = {Handedness.ONE_HANDED: 4, Handedness.TWO_HANDED: 2}


def plan_from_dict(doc: dict, registry: dict[str, Handedness]) -> InspectionPlan:
    """The plan ``doc`` describes, each block checked as it is read: a unique id,
    the operation count of its kind, and valves that ``registry`` holds with the
    block's handedness. A plan has two parts, each with a block of every kind."""
    parts = checks.typed(checks.typed(doc, "plan", dict).get("parts"), "parts", list)
    if len(parts) != 2:
        raise ConfigError("plan must have exactly two parts")
    seen_ids: set[str] = set()
    read = []
    for part in parts:
        blocks = []
        for b in checks.typed(checks.typed(part, "part", dict).get("blocks"), "blocks", list):
            block_id = checks.ident(checks.typed(b, "block", dict).get("id"), "block id")
            if block_id in seen_ids:
                raise ConfigError(f"duplicate block id {block_id!r}")
            seen_ids.add(block_id)
            if b.get("type") == "no_manipulation":
                prompt = checks.typed(b.get("prompt"), "prompt", str)
                blocks.append(Block(block_id, metrics.NO_MANIPULATION, (Instruction(f"describe: {prompt}"),)))
                continue
            if b.get("type") != "manipulation":
                raise ConfigError(f"unknown block type {b.get('type')!r}")
            kind = checks.member(b.get("kind"), f"block {block_id!r} kind", Handedness)
            operations = checks.typed(b.get("operations"), f"block {block_id!r} operations", list)
            if len(operations) != OPS_PER_KIND[kind]:
                raise ConfigError(f"block {block_id!r}: {kind.value} blocks take exactly {OPS_PER_KIND[kind]}"
                                  f" operations, got {len(operations)}")
            steps = []
            for o in operations:
                valve = checks.ident(checks.typed(o, "operation", dict).get("valve"), f"block {block_id!r} valve")
                target = checks.member(o.get("target"), f"block {block_id!r} target", ValveState)
                if valve not in registry:
                    raise ConfigError(f"block {block_id!r} references unknown valve {valve!r}")
                if registry[valve] is not kind:
                    raise ConfigError(f"block {block_id!r}: valve {valve!r} is {registry[valve].value},"
                                      f" not {kind.value}")
                steps.append(Instruction(f"set valve {valve} to {target.value}", valve, target))
            blocks.append(Block(block_id, kind.value, tuple(steps)))
        name = checks.typed(part.get("name"), "part name", str)
        if not {b.kind for b in blocks}.issuperset(metrics.BLOCK_KINDS):
            raise ConfigError(f"part {name!r} must contain 1-handed, 2-handed and no-manipulation blocks")
        read.append(PlanPart(name, tuple(blocks)))
    return InspectionPlan(parts=tuple(read))


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


@cache  # one per process: no code writes a model, and _apply_batch copies before it writes
def default_model() -> SceneModel:
    return load_model(_load_data("default_model.json"))


@cache
def default_routing_table() -> RoutingTable:
    return routing_table_from_dict(_load_data("default_routing.json"))


def build_default_plan(registry: dict[str, Handedness]) -> InspectionPlan:
    """The stock two-part plan: reroute to the plate exchanger in counter-flow,
    then restore the initial state.

    The shipped ``data/default_plan.json`` is the plan's only source; it is
    checked against ``registry`` as it is read.
    """
    return plan_from_dict(_load_data("default_plan.json"), registry)


def profiles_from_dict(doc: dict) -> dict[Condition, OperatorProfile]:
    return {
        checks.member(name, "condition", Condition): OperatorProfile.from_dict(profile)
        for name, profile in checks.typed(doc, "profiles", dict).items()
    }


def default_profiles() -> dict[Condition, OperatorProfile]:
    return profiles_from_dict(_load_data("default_profiles.json"))


def valve_registry(model: SceneModel) -> dict[str, Handedness]:
    return {n.id: n.handedness for n in model.valves()}


class _Recorder:
    """A session's events, kept in logging order; ``events`` sorts them stably by
    time, so that events of equal time keep the order they were logged in."""

    def __init__(self) -> None:
        self._events: list[LogEvent] = []
        self.enter(None)

    def enter(self, block: Optional[Block]) -> None:
        """Stamp later events with ``block``'s id and kind name, or with none."""
        self._block, self._block_kind = (None, None) if block is None else (block.id, block.kind)

    def log(self, t_ms: int, kind: str, data: Optional[dict] = None) -> None:
        self._events.append(LogEvent(int(t_ms), kind, data or {}, self._block, self._block_kind))

    def events(self) -> list[LogEvent]:
        return sorted(self._events, key=attrgetter("t_ms"))


# --- Agents ------------------------------------------------------------------------

OPERATOR_ID = "operator"
EXPERT_ID = "expert"
# The operator's opening avatar, the same in every session, and the expert's placed above it once.
OPERATOR_AVATAR = Avatar(AvatarState(client=OPERATOR_ID, role=Role.OPERATOR, head_pose=Pose((0.0, 1.7, 0.0))))
EXPERT_AVATAR = AvatarState(client=EXPERT_ID, role=Role.EXPERT, head_pose=place_expert_avatar(OPERATOR_AVATAR.state))
# The field-less payloads, shared by every send; and the enum members the agents test, which read
# faster as module globals than through their class.
CALL_START_MSG, CALL_END_MSG, STEP_DONE_MSG = CallStart(), CallEnd(), StepDone()
REPORT_TEMPERATURE_MSG = ReportTemperature()
_HMD, _TABLET, _EXPERT, _OPERATOR = Condition.HMD, Condition.TABLET, Role.EXPERT, Role.OPERATOR
_TWO_HANDED = Handedness.TWO_HANDED


def _guide_steps(plan: InspectionPlan, recorder: _Recorder):
    """The guide's walk of ``plan``, resumed with the time the operator reports
    each step done: yields ``(step, pause_ms)`` per step, a block's
    instructions as the plan holds them; tells ``recorder`` which block it is
    in and logs a block's closing ``Breakpoint``.

    It holds neither its agent nor the ``World``: a generator that held its
    agent would close a cycle (agent, generator, frame, agent) that keeps each
    session's world, trace and models alive until the cyclic collector runs."""
    yield  # started by the agent; the call's start resumes it
    pause = INTRO_PAUSE_MS
    for i, part in enumerate(plan.parts):
        for block in part.blocks:
            recorder.enter(block)
            for instruction in block.steps:
                now = yield instruction, pause
                pause = 0
            recorder.log(now, BREAKPOINT)
            recorder.enter(None)
        if i == 0:
            yield REPORT_TEMPERATURE_MSG, pause
            pause = EXPLANATION_PAUSE_MS
    yield CALL_END_MSG, pause + SUMMARY_PAUSE_MS


class _ExpertAgent:
    """The guide and room host. It walks the plan through :func:`_guide_steps`;
    as host it commits its own edits through ``synchronize`` with no private
    replica; only the operator holds one. It owns the room state, and records
    each commit in ``commits`` for the operator."""

    def __init__(self, plan: InspectionPlan, recorder: _Recorder, condition: Condition, room: RoomState, commits):
        self.steps = _guide_steps(plan, recorder)
        next(self.steps)
        self.condition, self.room, self.commits = condition, room, commits
        self.edit_seq = 0
        self.indicated: Optional[str] = None

    def _next_seq(self) -> int:
        self.edit_seq += 1
        return self.edit_seq

    def _send(self, net: World, payload, extra_delay_ms: int = 0) -> None:
        self.room, env = self.room._stamp(EXPERT_ID, payload)
        net.send(EXPERT_ID, OPERATOR_ID, env, extra_delay_ms)

    def _sync_indication(self, net: World, valve: str, pause: int) -> None:
        edits = []
        if self.indicated is not None:
            edits.append(SetIndication(self.indicated, False, _EXPERT, self._next_seq()))
        edits.append(SetIndication(valve, True, _EXPERT, self._next_seq()))
        self.indicated = valve
        env, outcome = self._commit(SyncRequest(EXPERT_ID, _EXPERT, self.room.shared.version, tuple(edits)))
        if outcome.rejected:
            edit, reason = outcome.rejected[0]
            raise EditError(f"the host rejected its own edit {edit!r}: {reason}", reason)
        net.send(EXPERT_ID, OPERATOR_ID, env, pause)

    def _commit(self, request: SyncRequest) -> tuple[Envelope, MergeOutcome]:
        """Merge ``request`` as the host and record the commit for the operator."""
        before = self.room.shared
        self.room, env, outcome = submit_sync(self.room, request)
        self.commits[outcome.merged.version] = (before, outcome.accepted, outcome.merged)
        return env, outcome

    def handle(self, net: World, now: int, src: str, env: Envelope) -> None:
        kind = type(env.payload)
        if kind is StepDone or kind is CallStart:  # the operator has done a step, or the call starts
            step, pause = self.steps.send(now)
            if type(step) is Instruction and step.valve is not None and self.condition is _HMD:
                self._sync_indication(net, step.valve, pause)
            self._send(net, step, pause)
        elif kind is SyncReq:
            env_out, _ = self._commit(env.payload.request)
            net.send(EXPERT_ID, OPERATOR_ID, env_out)
        elif kind is Avatar:
            # The host is the room's only other member, so the operator's
            # avatar has no one to be relayed to; only the expert's is sent.
            payload, mine = env.payload, EXPERT_AVATAR
            if payload is not OPERATOR_AVATAR:
                mine = AvatarState(client=EXPERT_ID, role=_EXPERT, head_pose=place_expert_avatar(payload.state))
            self.room, env_out = update_avatar(self.room, mine)
            net.send(EXPERT_ID, OPERATOR_ID, env_out)


class _OperatorAgent:
    """Maintainer-side state machine: draws outcomes/latencies from the profile, works
    the plant, logs through ``log`` and takes the host's merges from ``commits``."""

    def __init__(self, seed: int, condition: Condition, profile: OperatorProfile, plant: PlantState,
                 room: RoomState, log, commits):
        self.rng = random.Random(derive_seed(seed, "operator"))
        self.condition, self.profile, self.plant = condition, profile, plant
        self.log, self.commits = log, commits
        self.sender_seq = 0
        self.edit_seq = 0
        self.room_id = room.room
        self.local_shared = room.shared
        self.replica = create_replica(self.local_shared, OPERATOR_ID, _OPERATOR)
        self.valve_ids = sorted(plant.valve_states)

    def _send(self, net: World, payload, extra_delay_ms: int = 0) -> None:
        self.sender_seq += 1
        net.send(OPERATOR_ID, EXPERT_ID, Envelope(OPERATOR_ID, self.sender_seq, self.room_id, payload), extra_delay_ms)

    def _draw(self, mean_sd: tuple[float, float]) -> int:
        mean, sd = mean_sd
        return max(MIN_LATENCY_DRAW_MS, round(self.rng.gauss(mean, sd)))

    def _wrong_valve(self, target: str) -> str:
        candidates = [v for v in self.valve_ids if v != target]
        return self.rng.choice(candidates)

    def _handle_operation(self, net: World, now: int, valve: str, target: ValveState) -> None:
        random_, draw, profile, log = self.rng.random, self._draw, self.profile, self.log
        identify = profile.identify_latency_ms
        two_handed = self.local_shared.node(valve).handedness is _TWO_HANDED
        manip = profile.manipulate_latency_2h_ms if two_handed else profile.manipulate_latency_1h_ms
        putdown = profile.tablet_putdown_penalty_ms if two_handed and self.condition is _TABLET else 0
        t = now
        if random_() < profile.p_repeat:
            t += draw(identify)
            log(t, REPEAT_REQUEST, {"valve": valve})
        if random_() < profile.p_simple:
            t += draw(identify)
            log(t, IDENTIFY, {"valve": self._wrong_valve(valve), "correct": False})
        t += draw(identify)
        log(t, IDENTIFY, {"valve": valve, "correct": True})
        if random_() < profile.p_critical:
            # The wrong grab is interrupted before the valve state changes.
            t += draw(manip) + putdown
            log(t, MANIPULATE, {"valve": self._wrong_valve(valve), "correct": False})
        t += draw(manip) + putdown
        log(t, MANIPULATE, {"valve": valve, "correct": True})
        self.plant.set_valve(valve, target)
        delay = t - now
        if self.condition is _HMD:
            self.edit_seq += 1
            self.replica = edit_replica(self.replica, SetValveState(valve, target, _OPERATOR, self.edit_seq))
            self._send(net, SyncReq(make_sync_request(self.replica)), delay)
        self._send(net, STEP_DONE_MSG, delay)

    def handle(self, net: World, now: int, src: str, env: Envelope) -> None:
        payload = env.payload
        kind = type(payload)
        if kind is Instruction:
            self.log(now, INSTRUCTION, {"text": payload.text})
            if payload.valve is not None:
                self._handle_operation(net, now, payload.valve, payload.target)
            else:  # a description prompt
                self._send(net, STEP_DONE_MSG, self._draw(self.profile.describe_latency_ms))
        elif kind is SyncCommit:
            # Replay is a pure function of (model, accepted edits, version), so
            # when its inputs are the very objects the host merged, the host's
            # merged model is its result and is adopted as is; any other commit
            # (one that follows a lost commit, say) is replayed. An empty commit
            # keeps its version and ``()`` is one object, so it may pop another
            # empty commit's entry; the hit is still exact, because an empty
            # commit's merged model is its pre-commit model.
            before, accepted, merged = self.commits.pop(payload.new_version, (None, None, None))
            if before is self.local_shared and accepted is payload.accepted:
                self.local_shared = merged
            else:
                self.local_shared = apply_commit(self.local_shared, payload.accepted, payload.new_version)
            self.replica = acknowledge_commit(self.replica, payload.accepted, self.local_shared)
            for edit in payload.accepted:
                if type(edit) is SetIndication and edit.playing:
                    self.log(now, REPLICA_INDICATION, {"valve": edit.node})
        elif kind is ReportTemperature:
            self.log(now, INSTRUCTION, {"text": REPORT_TEMPERATURE})
            delay = self._draw(self.profile.describe_latency_ms)
            reading = round(plant_mod.outlet_temperature(self.plant), 2)
            self.log(now + delay, TEMPERATURE_REPORT, {"temperature_c": reading})
            self._send(net, StepDone(reading), delay)
        elif kind is CallEnd:
            self.log(now, CALL_END)
            self._send(net, CALL_END_MSG)


def run_session(
    plan: InspectionPlan,
    condition: Condition,
    operator_profile: OperatorProfile,
    seed: int = 0,
    model: Optional[SceneModel] = None,
    routing: Optional[RoutingTable] = None,
    link_config: Optional[LinkConfig] = None,
) -> metrics.SessionLog:
    """Simulate one full inspection call and return its event log.

    ``plan`` must have been read by :func:`plan_from_dict` against ``model``'s
    valves (the default model when it is None); the session does not check it
    again.
    """
    model = model if model is not None else default_model()
    routing = routing if routing is not None else default_routing_table()
    plant = plant_from_model(model, routing)
    initial_states = dict(plant.valve_states)

    room = RoomState(room=f"session-{seed}", shared=model)
    room = join_room(room, OPERATOR_ID, Role.OPERATOR)
    room = join_room(room, EXPERT_ID, Role.EXPERT)
    recorder = _Recorder()
    # Host commits on their way to the operator, by new version: (pre-commit
    # model, accepted edits, merged model). The operator pops each on arrival.
    commits: dict[int, tuple[SceneModel, tuple, SceneModel]] = {}

    world = World(master_seed=derive_seed(seed, "net"))
    link = link_config or DEFAULT_SESSION_LINK
    world.add_link(OPERATOR_ID, EXPERT_ID, link)
    world.add_link(EXPERT_ID, OPERATOR_ID, link)
    operator = _OperatorAgent(seed, condition, operator_profile, plant, room, recorder.log, commits)
    world.add_endpoint(EXPERT_ID, _ExpertAgent(plan, recorder, condition, room, commits))
    world.add_endpoint(OPERATOR_ID, operator)

    recorder.log(0, CALL_START)
    operator._send(world, CALL_START_MSG)
    operator._send(world, OPERATOR_AVATAR)
    trace = world.run_until_quiescent()

    log = metrics.SessionLog(
        condition=condition,
        seed=seed,
        events=recorder.events(),
        initial_valve_states=initial_states,
        final_valve_states=dict(plant.valve_states),
        transcript=trace,
    )
    metrics.validate_session_log(log)
    return log
