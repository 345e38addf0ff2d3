"""replica-sync: a criterion-4-style room on a large generated model.

An expert, an operator, the room host and an observer talk over ``netsim``;
every message crosses the link as an encoded frame that the receiver decodes
with ``decode_envelope``. The model has 5,000 nodes and each client tick
applies a batch of 1-32 mixed edits to the client's replica and syncs it.
Operator edits are steered onto expert-owned fields, so some are rejected for
expert precedence; annotation adds and removes are mixed in, and syncs sent
before the previous commit arrived resend pending edits, which produces
duplicate-annotation and unknown-target rejections. This is the only workload
where model size N and batch size k matter, and the only one that exercises
the wire codec.

One op is one episode: a fresh room on the shared 5,000-node model, 12 ticks
per client, run until the network is quiet. Every episode carries the same
batch sizes in a different order, so runs with different seeds do the same
amount of new-edit work. The target is the host's time from
receiving a SyncReq frame to producing its encoded SyncCommit; the control is
the host's time for an avatar frame, which shares the codec and the room but
never touches the model. The lossy link mode is left out on purpose: sessions
cannot complete under loss yet.
"""
from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field

from harness import Ledger, Samples, Workload, quantile_entries, sha256_hex
from replicasim import protocol, replica, scene
from replicasim.netsim import LinkConfig, World, derive_seed
from replicasim.scene import (
    AddAnnotation,
    Annotation,
    Pose,
    RemoveAnnotation,
    Role,
    SetHighlight,
    SetIndication,
    SetPose,
    SetValveState,
    ValveState,
)

UNITS = 250
VALVES, PIPES, LABELS = 8, 6, 5  # children per exchanger unit: 250 * (1 + 19) = 5,000 nodes
EPISODES = 32  # distinct episode scripts, cycled
TICKS = 12
TICK_SPAN_MS = 4000
# Batch sizes of one episode's 24 ticks: spread evenly over 1-32 and shuffled,
# so that every episode carries the same number of new edits.
BATCH_SIZES = tuple(round(1 + j * 31 / (2 * TICKS - 1)) for j in range(2 * TICKS))
FULL_CHECKS = 4  # episodes checked by canonical_json; the rest by model equality
ANNOTATION_IDS = tuple(f"a{i:02d}" for i in range(16))
OPERATOR_STEER = 0.25  # share of operator field edits aimed at an expert-owned field
HOST, EXPERT, OPERATOR, OBSERVER, CLOCK = "host", "expert", "operator", "observer", "clock"
ROOM = "bench"


@dataclass(frozen=True)
class Tick:
    at_ms: int
    draws: tuple  # per edit: (kind, a, b, c) uniform draws, resolved against the replica
    avatar: tuple | None  # head position, or None when no avatar update this tick


@dataclass(frozen=True)
class Episode:
    base_latency_ms: int
    jitter_ms: int
    link_seed: int
    ticks: dict  # client -> tuple[Tick, ...]


@dataclass
class Inputs:
    model: scene.SceneModel
    valves: tuple
    node_ids: tuple
    episodes: list
    first: dict = field(default_factory=dict)  # episode index -> host model of its first run


def model_descriptor(rng: random.Random) -> dict:
    def pose():
        return {"pos": [round(rng.uniform(-2, 2), 3), round(rng.uniform(0, 2), 3), round(rng.uniform(-2, 2), 3)]}

    nodes = []
    for u in range(UNITS):
        unit = f"u{u:03d}"
        nodes.append({"id": unit, "kind": "ExchangerUnit", "pose": pose()})
        for j in range(VALVES):
            nodes.append({"id": f"{unit}-v{j}", "kind": "Valve", "parent": unit, "pose": pose(),
                          "valve_state": rng.choice(("Open", "Closed")),
                          "handedness": "OneHanded" if j % 2 else "TwoHanded"})
        nodes += [{"id": f"{unit}-p{j}", "kind": "Pipe", "parent": unit, "pose": pose()} for j in range(PIPES)]
        nodes += [{"id": f"{unit}-l{j}", "kind": "Label", "parent": unit, "pose": pose()} for j in range(LABELS)]
    return {"marker_offset": {"pos": [0.0, 0.0, 0.6]}, "nodes": nodes}


def episode_script(rng: random.Random) -> Episode:
    base = rng.randint(10, 60)
    sizes = list(BATCH_SIZES)
    rng.shuffle(sizes)
    ticks = {}
    for n, client in enumerate((EXPERT, OPERATOR)):
        times = sorted(rng.randint(0, TICK_SPAN_MS) for _ in range(TICKS))
        ticks[client] = tuple(
            Tick(at, tuple((rng.random(), rng.random(), rng.random(), rng.random()) for _ in range(k)),
                 (round(rng.uniform(-1, 1), 3), 1.7, round(rng.uniform(-1, 1), 3)) if rng.random() < 0.5 else None)
            for at, k in zip(times, sizes[n * TICKS:(n + 1) * TICKS]))
    return Episode(base, rng.randint(0, min(10, base)), rng.getrandbits(32), ticks)


def frame(env: protocol.Envelope) -> protocol.Envelope:
    """The envelope as it crosses the link: its encoded bytes."""
    return protocol.Envelope(env.sender, env.sender_seq, env.room, protocol.MediaSignal(protocol.encode_envelope(env)),
                             env.host_seq)


def unframe(carrier: protocol.Envelope) -> protocol.Envelope:
    env, rest = protocol.decode_envelope(carrier.payload.blob)
    if rest:
        raise protocol.RoomError(f"{len(rest)} trailing bytes after one frame")
    return env


class Client:
    def __init__(self, name: str, role: Role, inputs: Inputs, ticks: tuple) -> None:
        self.name, self.role, self.inputs, self.ticks = name, role, inputs, ticks
        self.local = inputs.model
        self.replica = replica.create_replica(inputs.model, name, role)
        self.expert_keys: list = []
        self.edit_seq = self.sender_seq = self.tick_index = 0
        self.edits_made = 0
        self.last_avatar = None

    def _send(self, net: World, payload) -> None:
        self.sender_seq += 1
        net.send(self.name, HOST, frame(protocol.Envelope(self.name, self.sender_seq, ROOM, payload)))

    def _resolve(self, draw: tuple):
        kind, a, b, c = draw
        working = self.replica.working
        self.edit_seq += 1
        seq = self.edit_seq
        if self.role is Role.OPERATOR and kind < 0.8 and a < OPERATOR_STEER and self.expert_keys:
            field_name, node = self.expert_keys[int(b * len(self.expert_keys))]
        elif kind < 0.3:
            field_name, node = "valve_state", self.inputs.valves[int(b * len(self.inputs.valves))]
        elif kind < 0.8:
            field_name = ("highlight", "indication", "pose")[int((kind - 0.3) / 0.5 * 3)]
            node = self.inputs.node_ids[int(b * len(self.inputs.node_ids))]
        elif kind < 0.92:
            free = [i for i in ANNOTATION_IDS if i not in working.annotations]
            if not free:
                return SetHighlight(self.inputs.node_ids[int(b * len(self.inputs.node_ids))], None, self.role, seq)
            anchor = self.inputs.node_ids[int(c * len(self.inputs.node_ids))]
            return AddAnnotation(Annotation(free[int(b * len(free))], self.role, anchor, f"note {seq}"), self.role, seq)
        else:
            present = sorted(working.annotations)
            if not present:
                return SetIndication(self.inputs.node_ids[int(b * len(self.inputs.node_ids))], True, self.role, seq)
            return RemoveAnnotation(present[int(b * len(present))], self.role, seq)
        if field_name == "valve_state":
            return SetValveState(node, ValveState.OPEN if c < 0.5 else ValveState.CLOSED, self.role, seq)
        if field_name == "highlight":
            return SetHighlight(node, None if c > 0.9 else (round(c, 3), 0.5, 0.5), self.role, seq)
        if field_name == "indication":
            return SetIndication(node, c < 0.5, self.role, seq)
        return SetPose(node, Pose((round(c, 3), round(b, 3), 0.0)), self.role, seq)

    def handle(self, net: World, now: int, src: str, carrier: protocol.Envelope) -> None:
        if src == CLOCK:
            tick = self.ticks[self.tick_index]
            self.tick_index += 1
            for draw in tick.draws:
                self.replica = replica.edit_replica(self.replica, self._resolve(draw))
            self.edits_made += len(tick.draws)
            self._send(net, protocol.SyncReq(replica.make_sync_request(self.replica)))
            if tick.avatar is not None:
                self.last_avatar = protocol.AvatarState(self.name, self.role, Pose(tick.avatar))
                self._send(net, protocol.Avatar(self.last_avatar))
            return
        payload = unframe(carrier).payload
        if isinstance(payload, protocol.SyncCommit):
            self.local = replica.apply_commit(self.local, payload.accepted, payload.new_version)
            self.replica = replica.acknowledge_commit(self.replica, payload.accepted, self.local)
            if self.role is Role.OPERATOR and payload.accepted:
                self.expert_keys = sorted(k for k, (role, _) in self.local.field_authors.items()
                                          if role is Role.EXPERT)


class Observer:
    def __init__(self, model) -> None:
        self.local = model

    def handle(self, net: World, now: int, src: str, carrier: protocol.Envelope) -> None:
        payload = unframe(carrier).payload
        if isinstance(payload, protocol.SyncCommit):
            self.local = replica.apply_commit(self.local, payload.accepted, payload.new_version)


class Host:
    def __init__(self, model, samples: Samples) -> None:
        self.room = protocol.RoomState(room=ROOM, shared=model, members={EXPERT: Role.EXPERT, OPERATOR: Role.OPERATOR})
        self.samples = samples
        self.requests: list = []

    def handle(self, net: World, now: int, src: str, carrier: protocol.Envelope) -> None:
        start = time.perf_counter()
        env = unframe(carrier)
        if isinstance(env.payload, protocol.SyncReq):
            self.room, commit, _ = protocol.submit_sync(self.room, env.payload.request)
            out = frame(commit)
            self.samples.add("commit_ms", (time.perf_counter() - start) * 1e3)
            self.requests.append(env.payload.request)
            recipients = (EXPERT, OPERATOR, OBSERVER)
        else:
            self.room, relay = protocol.update_avatar(self.room, env.payload.state)
            out = frame(relay)
            self.samples.add("avatar_ms", (time.perf_counter() - start) * 1e3)
            recipients = tuple(c for c in (EXPERT, OPERATOR, OBSERVER) if c != env.sender)
        for dst in recipients:
            net.send(HOST, dst, out)


# Field edit type -> (field name, attribute holding the new value).
FIELD_OF = {SetValveState: ("valve_state", "state"), SetHighlight: ("highlight", "color"),
            SetIndication: ("indication", "playing"), SetPose: ("pose", "pose")}


def field_value(model: scene.SceneModel, field_name: str, node_id: str):
    node = model.nodes[node_id]
    return {"valve_state": node.valve_state, "highlight": node.visual.highlight_color,
            "indication": node.visual.indication_animation, "pose": node.local_pose}[field_name]


def oracle_errors(base: scene.SceneModel, requests: list, host: scene.SceneModel) -> list[str]:
    """Sequential application of every request with the precedence policy, as in criterion 4."""
    fields: dict = {}  # (field, node) -> (value, author role)
    annotations = dict(base.annotations)
    for request in requests:
        for edit in request.edits:
            if isinstance(edit, AddAnnotation):
                ann = edit.annotation
                if ann.anchor in base.nodes and ann.id not in annotations:
                    annotations[ann.id] = ann
            elif isinstance(edit, RemoveAnnotation):
                if edit.annotation_id in annotations and request.owner_role is Role.EXPERT:
                    del annotations[edit.annotation_id]
            else:
                field_name, attr = FIELD_OF[type(edit)]
                key = (field_name, edit.node)
                author = fields.get(key, (None, None))[1]
                if request.owner_role is Role.EXPERT or author is not Role.EXPERT:
                    fields[key] = (getattr(edit, attr), request.owner_role)
    errors = []
    for node_id in base.nodes:
        for field_name in ("valve_state", "highlight", "indication", "pose"):
            want = fields.get((field_name, node_id), (field_value(base, field_name, node_id),))[0]
            if field_value(host, field_name, node_id) != want:
                errors.append(f"{field_name} of {node_id}")
    if host.annotations != annotations:
        errors.append("annotation set")
    return errors


class ReplicaSync(Workload):
    name = "replica-sync"
    trace_ops_per_s = 0.4

    def setup(self, seed: int) -> Inputs:
        rng = random.Random(derive_seed(seed, "replica-sync"))
        model = scene.load_model(model_descriptor(rng))
        node_ids = tuple(sorted(model.nodes))
        valves = tuple(n for n in node_ids if model.nodes[n].kind is scene.NodeKind.VALVE)
        return Inputs(model, valves, node_ids, [episode_script(rng) for _ in range(EPISODES)])

    def run_op(self, inputs: Inputs, i: int, ledger: Ledger, samples: Samples, tracer=None) -> str:
        script = inputs.episodes[i % EPISODES]
        world = World(master_seed=script.link_seed)
        link = LinkConfig(script.base_latency_ms, script.jitter_ms)
        for src, dst in ((EXPERT, HOST), (OPERATOR, HOST), (HOST, EXPERT), (HOST, OPERATOR), (HOST, OBSERVER)):
            world.add_link(src, dst, link)
        host = Host(inputs.model, samples)
        clients = [Client(EXPERT, Role.EXPERT, inputs, script.ticks[EXPERT]),
                   Client(OPERATOR, Role.OPERATOR, inputs, script.ticks[OPERATOR])]
        observer = Observer(inputs.model)
        for name, endpoint in ((HOST, host), (EXPERT, clients[0]), (OPERATOR, clients[1]), (OBSERVER, observer)):
            world.add_endpoint(name, endpoint)
        for client in clients:
            world.add_link(CLOCK, client.name, LinkConfig(0, 0))
            for n, tick in enumerate(client.ticks):
                world.send(CLOCK, client.name, protocol.Envelope(CLOCK, n + 1, ROOM, protocol.Instruction("tick")),
                           extra_delay_ms=tick.at_ms)
        start = time.perf_counter()
        world.run_until_quiescent()
        elapsed = time.perf_counter() - start
        samples.add("episode_ms", elapsed * 1e3)
        samples.add_units(sum(c.edits_made for c in clients), elapsed)

        op_id = (self.name, i)
        shared = host.room.shared
        first = inputs.first.get(i % EPISODES)
        if first is None:
            inputs.first[i % EPISODES] = shared
            for error in oracle_errors(inputs.model, host.requests, shared)[:3]:
                ledger.fail(op_id, "oracle-mismatch", error)
        else:
            ledger.check(shared == first, op_id, "episode-not-repeatable")
        if i < FULL_CHECKS:
            host_json = scene.canonical_json(shared)
            for holder in (*clients, observer):
                ledger.check(scene.canonical_json(holder.local) == host_json, op_id, "replica-diverged")
        else:
            # SceneModel equality compares every field canonical_json serializes.
            for holder in (*clients, observer):
                ledger.check(holder.local == shared, op_id, "replica-diverged")
        avatars = {c.name: c.last_avatar for c in clients if c.last_avatar is not None}
        ledger.check(host.room.avatar_map == avatars, op_id, "avatar-relay-mismatch")
        return sha256_hex(shared.version, sorted(shared.field_authors.items()),
                          [(k, field_value(shared, *k)) for k in sorted(shared.field_authors)],
                          sorted(shared.annotations.items()))

    def metrics(self, series: dict) -> tuple[float, float]:
        return statistics.median(series["commit_ms"]), statistics.median(series["avatar_ms"])

    def named(self, samples: Samples):
        s = samples.series
        return ([("sync_edits_per_s", "1/s", f"{samples.units / samples.unit_s:.1f} (edits={samples.units})")]
                + quantile_entries("sync_commit_ms", "ms", s["commit_ms"])
                + quantile_entries("avatar_relay_ms", "ms", s["avatar_ms"])
                + quantile_entries("episode_ms", "ms", s["episode_ms"], qs=(50,)))
