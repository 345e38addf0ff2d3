"""Acceptance gate: each criterion prints one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""
import hashlib
import json
import random
import time

import pytest

from replicasim.cli import EXIT_OK, main as cli_main
from replicasim.netsim import LinkConfig, World, derive_seed
from replicasim.protocol import Envelope, Instruction, RoomState, SyncCommit, SyncReq, submit_sync
from replicasim.replica import (
    SyncRequest,
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
    Pose,
    RemoveAnnotation,
    Role,
    SetHighlight,
    SetIndication,
    SetPose,
    SetValveState,
    ValveState,
    canonical_json,
    load_model,
)
from replicasim.records import replace
from replicasim.scenario import (
    INSTRUCTION,
    MANIPULATE,
    IDENTIFY,
    REPLICA_INDICATION,
    Condition,
    ManipulationBlock,
    build_default_plan,
    default_model,
    default_profiles,
    default_routing_table,
    run_session,
    valve_registry,
)
from replicasim.metrics import ErrorCounts, percent_improvement, weighted_total
from replicasim.stats import (
    GroupSummary,
    Sample,
    anova_oneway_raw,
    anova_oneway_summary,
    compare_groups,
    mann_whitney,
    shapiro_wilk,
)

from test_stats import (
    SW_ORACLE_W,
    enumeration_p,
    moment_matched,
    pairwise_u,
    uniform_sample_n20,
)
from test_scenario import indicated_valves


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


# --- Criterion 1: ANOVA reconstruction ----------------------------------------------


def test_criterion_1_anova_reconstruction():
    groups = [GroupSummary(19, 763.65, 76.80), GroupSummary(20, 623.55, 67.70)]
    start = time.perf_counter()
    runs = 100
    for _ in range(runs):
        res = anova_oneway_summary(groups)
    per_call = (time.perf_counter() - start) / runs
    assert 36.3 <= res.statistic <= 36.9
    assert res.df == (1, 37)
    assert res.p_value < 1e-6
    assert per_call < 1e-3
    report(1, f"F={res.statistic:.3f} in [36.3, 36.9], df=(1,37), p={res.p_value:.2e} < 1e-6, "
              f"{per_call * 1e6:.0f} us/call")


# --- Criterion 2: ponderation ---------------------------------------------------------


def test_criterion_2_ponderation():
    assert weighted_total(ErrorCounts(49, 6, 3)) == 64
    assert weighted_total(ErrorCounts(3, 1, 0)) == 5
    report(2, "weighted_total(49,6,3)=64 and weighted_total(3,1,0)=5 exactly")


# --- Criterion 3: percentage suite ----------------------------------------------------


def test_criterion_3_percentages():
    cases = [
        (763.65, 623.55, 18.35),
        (193.26, 146.43, 24.24),
        (146.7, 105.86, 27.84),
        (3.37, 0.25, 92.58),
        (49.0, 3.0, 93.88),
        (6.0, 1.0, 83.33),
    ]
    for baseline, treatment, expected_pct in cases:
        got = percent_improvement(baseline, treatment) * 100.0
        assert abs(got - expected_pct) <= 0.01, (baseline, treatment, got)
    report(3, "all six improvement percentages within 0.01 points of the published figures")


# --- Criterion 4: replica convergence over the simulated network ----------------------

TINY_DESCRIPTOR = {
    "nodes": [
        {"id": "EXA", "kind": "ExchangerUnit"},
        {"id": "VA", "kind": "Valve", "valve_state": "Open", "handedness": "OneHanded"},
        {"id": "VB", "kind": "Valve", "valve_state": "Closed", "handedness": "OneHanded"},
        {"id": "VC", "kind": "Valve", "valve_state": "Closed", "handedness": "TwoHanded"},
        {"id": "VD", "kind": "Valve", "valve_state": "Open", "handedness": "TwoHanded"},
    ]
}
TINY_VALVES = ("VA", "VB", "VC", "VD")
ANNOTATION_POOL = ("n0", "n1", "n2", "n3")


class _SyncClient:
    def __init__(self, name, role, shared, rng):
        self.name = name
        self.role = role
        self.rng = rng
        self.local = shared
        self.replica = create_replica(shared, name, role)
        self.edit_seq = 0
        self.sender_seq = 0

    def _random_edit(self):
        rng = self.rng
        model = self.replica.working
        self.edit_seq += 1
        seq = self.edit_seq
        kind = rng.randrange(6)
        if kind == 0:
            return SetValveState(rng.choice(TINY_VALVES), rng.choice((ValveState.OPEN, ValveState.CLOSED)),
                                 self.role, seq)
        if kind == 1:
            color = (round(rng.random(), 2), 0.2, 0.8) if rng.random() < 0.8 else None
            return SetHighlight(rng.choice(TINY_VALVES), color, self.role, seq)
        if kind == 2:
            return SetIndication(rng.choice(TINY_VALVES), rng.random() < 0.5, self.role, seq)
        if kind == 3:
            return SetPose(rng.choice(TINY_VALVES), Pose((round(rng.random(), 2), 0.0, 0.5)), self.role, seq)
        if kind == 4:
            free = [a for a in ANNOTATION_POOL if a not in model.annotations]
            if not free:
                return None
            return AddAnnotation(Annotation(rng.choice(free), self.role, rng.choice(TINY_VALVES), "note"),
                                 self.role, seq)
        existing = sorted(model.annotations)
        if not existing:
            return None
        return RemoveAnnotation(rng.choice(existing), self.role, seq)

    def handle(self, net, now, src, envelope):
        payload = envelope.payload
        if isinstance(payload, Instruction):  # scheduled tick
            if self.rng.random() < 0.6:
                edit = self._random_edit()
                if edit is not None:
                    self.replica = edit_replica(self.replica, edit)
            elif self.replica.pending:
                self.sender_seq += 1
                net.send(self.name, "host",
                         Envelope(sender=self.name, sender_seq=self.sender_seq, room="r",
                                  payload=SyncReq(make_sync_request(self.replica))))
        elif isinstance(payload, SyncCommit):
            self.local = apply_commit(self.local, payload.accepted, payload.new_version)
            self.replica = acknowledge_commit(self.replica, payload.accepted, self.local)


class _Observer:
    def __init__(self, shared):
        self.local = shared

    def handle(self, net, now, src, envelope):
        if isinstance(envelope.payload, SyncCommit):
            self.local = apply_commit(self.local, envelope.payload.accepted, envelope.payload.new_version)


class _Host:
    def __init__(self, room, recipients):
        self.room = room
        self.recipients = recipients
        self.requests = []

    def handle(self, net, now, src, envelope):
        if isinstance(envelope.payload, SyncReq):
            request = envelope.payload.request
            self.room, commit, _ = submit_sync(self.room, request)
            self.requests.append(request)
            for dst in self.recipients:
                net.send("host", dst, commit)


def reference_merge(base, requests):
    """Independent sequential-application oracle with the precedence policy."""
    nodes = set(base.nodes)
    fields = {}  # (field, node) -> (value, author_role)
    annotations = dict(base.annotations)
    for request in requests:
        for edit in request.edits:
            if isinstance(edit, AddAnnotation):
                ann = edit.annotation
                if ann.anchor in nodes and ann.id not in annotations:
                    annotations[ann.id] = ann
            elif isinstance(edit, RemoveAnnotation):
                if edit.annotation_id in annotations and request.owner_role is Role.EXPERT:
                    del annotations[edit.annotation_id]
            else:
                if isinstance(edit, SetValveState):
                    key, value = ("valve_state", edit.node), edit.state
                elif isinstance(edit, SetHighlight):
                    key, value = ("highlight", edit.node), edit.color
                elif isinstance(edit, SetIndication):
                    key, value = ("indication", edit.node), edit.playing
                else:
                    key, value = ("pose", edit.node), edit.pose
                if edit.node not in nodes:
                    continue
                author = fields.get(key, (None, None))[1]
                if request.owner_role is Role.EXPERT or author is not Role.EXPERT:
                    fields[key] = (value, request.owner_role)
    return fields, annotations


def extract_field(model, key):
    field_name, node_id = key
    node = model.nodes[node_id]
    if field_name == "valve_state":
        return node.valve_state
    if field_name == "highlight":
        return node.visual.highlight_color
    if field_name == "indication":
        return node.visual.indication_animation
    return node.local_pose


def run_convergence_trial(trial_seed):
    rng = random.Random(derive_seed(trial_seed, "trial"))
    base_latency = rng.randint(0, 120)
    jitter = rng.randint(0, min(40, base_latency))
    shared = load_model(TINY_DESCRIPTOR)
    room = RoomState(room="r", shared=shared,
                     members={"alice": Role.EXPERT, "bob": Role.OPERATOR})
    world = World(master_seed=derive_seed(trial_seed, "net"))
    for a, b in (("alice", "host"), ("bob", "host"), ("host", "alice"), ("host", "bob"), ("host", "watch")):
        world.add_link(a, b, LinkConfig(base_latency, jitter, seed=derive_seed(trial_seed, f"{a}->{b}")))
    alice = _SyncClient("alice", Role.EXPERT, shared, random.Random(derive_seed(trial_seed, "alice")))
    bob = _SyncClient("bob", Role.OPERATOR, shared, random.Random(derive_seed(trial_seed, "bob")))
    observer = _Observer(shared)
    host = _Host(room, ("alice", "bob", "watch"))
    for name, endpoint in (("alice", alice), ("bob", bob), ("watch", observer), ("host", host)):
        world.add_endpoint(name, endpoint)

    for client in (alice, bob):
        ticks = sorted(rng.randint(0, 3000) for _ in range(rng.randint(3, 8)))
        world.add_link("driver", client.name, LinkConfig(0, 0))
        for i, at in enumerate(ticks):
            world.send("driver", client.name,
                       Envelope(sender="driver", sender_seq=i + 1, room="r", payload=Instruction("tick")),
                       extra_delay_ms=at)
    world.run_until_quiescent()

    # Final drain: both clients sync leftovers so every intended edit reaches the host.
    for client in (alice, bob):
        if client.replica.pending:
            outcome = synchronize(make_sync_request(client.replica), host.room.shared)
            host.room = RoomState(room="r", shared=outcome.merged, members=host.room.members,
                                  next_host_seq=host.room.next_host_seq,
                                  sender_counters=host.room.sender_counters)
            host.requests.append(make_sync_request(client.replica))
            for replica_holder in (alice, bob, observer):
                replica_holder.local = apply_commit(replica_holder.local, outcome.accepted,
                                                    outcome.merged.version)
            client.replica = acknowledge_commit(client.replica, outcome.accepted, client.local)
    return host, (alice, bob, observer), shared


def test_criterion_4_convergence_property():
    trials = 1000
    start = time.perf_counter()
    for k in range(trials):
        host, clients, base = run_convergence_trial(k)
        host_json = canonical_json(host.room.shared)
        for client in clients:
            assert canonical_json(client.local) == host_json, f"trial {k}: divergent client"
        fields, annotations = reference_merge(base, host.requests)
        for key, (value, _) in fields.items():
            assert extract_field(host.room.shared, key) == value, f"trial {k}: oracle mismatch at {key}"
        assert host.room.shared.annotations == annotations, f"trial {k}: annotation set mismatch"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"convergence suite took {elapsed:.1f}s"
    report(4, f"{trials} seeded interleaving trials converged and matched the sequential oracle "
              f"in {elapsed:.1f}s")


# --- Criterion 5: expert precedence and retention --------------------------------------


def _random_field_edit(rng, role, seq, value_pool):
    kind, valve = value_pool
    if kind == "valve_state":
        return SetValveState(valve, rng.choice((ValveState.OPEN, ValveState.CLOSED)), role, seq)
    if kind == "highlight":
        return SetHighlight(valve, (round(rng.random(), 2), 0.5, 0.5), role, seq)
    if kind == "indication":
        return SetIndication(valve, rng.random() < 0.5, role, seq)
    return SetPose(valve, Pose((round(rng.random(), 2), 0.0, 0.0)), role, seq)


def test_criterion_5_precedence_and_retention():
    shared0 = load_model(TINY_DESCRIPTOR)
    rng = random.Random(20_240_517)
    conflict_cases = 5000
    retention_cases = 5000

    for case in range(conflict_cases):
        field_kind = rng.choice(("valve_state", "highlight", "indication", "pose"))
        valve = rng.choice(TINY_VALVES)
        expert_edit = _random_field_edit(rng, Role.EXPERT, 1, (field_kind, valve))
        operator_edit = _random_field_edit(rng, Role.OPERATOR, 1, (field_kind, valve))
        key = (field_kind, valve)
        ex_req = SyncRequest("ex", Role.EXPERT, 0, (expert_edit,))
        op_req = SyncRequest("op", Role.OPERATOR, 0, (operator_edit,))
        expert_value = extract_field(synchronize(ex_req, shared0).merged, key)
        # Order A: operator commits first, expert second.
        m = synchronize(ex_req, synchronize(op_req, shared0).merged).merged
        assert extract_field(m, key) == expert_value, f"case {case}: operator-first order"
        # Order B: expert first, operator second.
        m = synchronize(op_req, synchronize(ex_req, shared0).merged).merged
        assert extract_field(m, key) == expert_value, f"case {case}: expert-first order"

    for case in range(retention_cases):
        shared = shared0
        expected_ids = set()
        for i in range(rng.randint(1, 3)):
            role = rng.choice((Role.EXPERT, Role.OPERATOR))
            ann = Annotation(f"keep{i}", role, rng.choice(TINY_VALVES), "pinned")
            shared = synchronize(
                SyncRequest("seed", role, shared.version, (AddAnnotation(ann, role, i + 1),)), shared
            ).merged
            expected_ids.add(ann.id)
        role = rng.choice((Role.EXPERT, Role.OPERATOR))
        edits = []
        for seq in range(rng.randint(1, 4)):
            choice = rng.random()
            if choice < 0.5:
                edits.append(_random_field_edit(
                    rng, role, seq + 10,
                    (rng.choice(("valve_state", "highlight", "indication", "pose")), rng.choice(TINY_VALVES)),
                ))
            elif choice < 0.8:
                edits.append(AddAnnotation(
                    Annotation(f"new{case}-{seq}", role, rng.choice(TINY_VALVES), "x"), role, seq + 10))
            elif role is Role.OPERATOR:
                # Operator removal attempts must bounce off retention.
                edits.append(RemoveAnnotation(rng.choice(sorted(expected_ids)), role, seq + 10))
        outcome = synchronize(SyncRequest("c", role, shared.version, tuple(edits)), shared)
        assert expected_ids <= set(outcome.merged.annotations), f"retention case {case}"

    report(5, f"{conflict_cases} conflicts resolved to the expert value in both orders; "
              f"{retention_cases} non-expert-removal syncs retained all shared annotations")


# --- Criterion 6: statistics oracles ----------------------------------------------------


def test_criterion_6_statistics_oracles():
    rng = random.Random(33)
    checked = 0
    for n1 in range(1, 10):
        for n2 in range(1, 11 - n1):
            for _ in range(3):
                a = tuple(float(rng.randrange(6)) for _ in range(n1))
                b = tuple(float(rng.randrange(6)) for _ in range(n2))
                res = mann_whitney(Sample(a), Sample(b))
                assert res.exact
                assert abs(res.p_value - enumeration_p(a, b)) < 1e-12
                assert abs(res.statistic - pairwise_u(a, b)) < 1e-9
                checked += 1

    res = shapiro_wilk(Sample((1.0, 2.0, 3.0)))
    assert abs(res.statistic - 1.0) < 1e-9
    x = tuple(rng.gauss(0.0, 1.0) for _ in range(20))
    assert abs(shapiro_wilk(Sample(x)).statistic
               - shapiro_wilk(Sample(tuple(7.3 * v - 20.0 for v in x))).statistic) < 1e-12
    assert abs(shapiro_wilk(Sample(uniform_sample_n20())).statistic - SW_ORACLE_W) < 1e-3

    for _ in range(100):
        groups, raws = [], []
        for _ in range(rng.randrange(2, 5)):
            n = rng.randrange(3, 25)
            mean = rng.uniform(-10.0, 10.0)
            sd = rng.uniform(0.5, 5.0)
            raws.append(Sample(moment_matched(n, mean, sd, rng)))
            groups.append(GroupSummary(n, mean, sd))
        f_raw = anova_oneway_raw(raws).statistic
        f_sum = anova_oneway_summary(groups).statistic
        assert abs(f_raw - f_sum) < 1e-9 * max(1.0, abs(f_raw))

    report(6, f"MWW exact p matched enumeration on {checked} pooled-size<=10 samples; "
              f"SW analytic/MC oracles hold; ANOVA raw/summary agree to 1e-9 on 100 cases")


# --- Criterion 7: pipeline power and false positives -------------------------------------


def _corpus_total_times(plan, model, routing, profile_by_condition, rep_seed):
    link = LinkConfig(0, 0)
    totals = {}
    for condition, count in ((Condition.TABLET, 19), (Condition.HMD, 20)):
        profile = profile_by_condition[condition]
        values = []
        for i in range(count):
            seed = derive_seed(rep_seed, f"{condition.value}:{i}")
            log = run_session(plan, condition, profile, seed=seed, model=model, routing=routing,
                              link_config=link)
            start, end = log.events[0].t_ms, log.events[-1].t_ms
            values.append((end - start) / 1000.0)
        totals[condition] = values
    return totals


def test_criterion_7_pipeline_power_and_false_positives():
    model = default_model()
    routing = default_routing_table()
    plan = build_default_plan(valve_registry(model))
    profiles = default_profiles()
    start = time.perf_counter()

    power_reps, power_hits = 100, 0
    for rep in range(power_reps):
        totals = _corpus_total_times(plan, model, routing, profiles, derive_seed(811, f"power:{rep}"))
        comparison = compare_groups(Sample(tuple(totals[Condition.TABLET])),
                                    Sample(tuple(totals[Condition.HMD])), measure="total_s")
        if comparison.result.p_value < 0.01:
            power_hits += 1

    # A true null: one profile for both conditions, with the putdown penalty
    # zeroed so the engine's tablet-only time cost cannot masquerade as a
    # pipeline false positive.
    null_profile = replace(profiles[Condition.TABLET], tablet_putdown_penalty_ms=0)
    null_profiles = {Condition.TABLET: null_profile, Condition.HMD: null_profile}
    fp_reps, fp_hits = 200, 0
    for rep in range(fp_reps):
        totals = _corpus_total_times(plan, model, routing, null_profiles, derive_seed(812, f"null:{rep}"))
        comparison = compare_groups(Sample(tuple(totals[Condition.TABLET])),
                                    Sample(tuple(totals[Condition.HMD])), measure="total_s")
        if comparison.result.p_value < 0.05:
            fp_hits += 1
    elapsed = time.perf_counter() - start

    fp_rate = fp_hits / fp_reps
    assert power_hits >= 95, f"power: only {power_hits}/100 repetitions significant at p<0.01"
    assert 0.01 <= fp_rate <= 0.12, f"false-positive rate {fp_rate:.3f} outside [0.01, 0.12]"
    assert elapsed < 60.0, f"power suite took {elapsed:.1f}s"
    report(7, f"{power_hits}/100 calibrated corpora significant at p<0.01; "
              f"false-positive rate {fp_rate:.3f} under identical profiles; {elapsed:.1f}s")


# --- Criterion 8: scenario integrity ------------------------------------------------------


def test_criterion_8_scenario_integrity():
    model = default_model()
    plan = build_default_plan(valve_registry(model))
    for part in plan.parts:
        sizes = {b.kind.value: len(b.operations) for b in part.blocks if isinstance(b, ManipulationBlock)}
        assert sizes == {"OneHanded": 4, "TwoHanded": 2}

    profiles = default_profiles()
    for condition in Condition:
        quiet = replace(profiles[condition], p_simple=0.0, p_critical=0.0, p_repeat=0.0)
        for seed in (1, 2, 3):
            log = run_session(plan, condition, quiet, seed=seed, model=model)
            assert log.initial_valve_states == log.final_valve_states
            wrong = [e for e in log.events
                     if e.kind in (IDENTIFY, MANIPULATE) and not e.data["correct"]]
            assert wrong == []

    log = run_session(plan, Condition.HMD, profiles[Condition.HMD], seed=99, model=model)
    indications = [e for e in log.events if e.kind == REPLICA_INDICATION]
    commits = [t for t in log.transcript if isinstance(t.envelope.payload, SyncCommit) and t.dst == "operator"]
    instructions = [e for e in log.events
                    if e.kind == INSTRUCTION and e.block_kind in ("OneHanded", "TwoHanded")]
    assert len(instructions) == 12
    for instr in instructions:
        valve = instr.data["text"].split(" ")[2]
        assert any(e.data["valve"] == valve and e.t_ms <= instr.t_ms for e in indications)
        assert any(valve in indicated_valves(t) and t.t_ms <= instr.t_ms for t in commits)

    report(8, "zero-error sessions restore the plant; every HMD manipulation instruction is paired "
              "with an indication + commit; plan blocks carry exactly 4 and 2 operations")


# --- Criterion 9: end-to-end determinism ---------------------------------------------------


# sha256 of json.dumps({file name: sha256 of its bytes}, sort_keys=True) over the
# output of `simulate --sessions 3:3 --seed 424242`.
SIMULATE_424242_DIGEST = "1709559b403fd5717f98a83d6a59740f182d48d4d22bd534279d48c46dffb995"


def test_criterion_9_simulate_determinism(tmp_path):
    digests = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        code = cli_main(["simulate", "--sessions", "3:3", "--seed", "424242", "--out", str(out)])
        assert code == EXIT_OK
        bundle = {}
        for file in sorted(out.rglob("*")):
            if file.is_file():
                bundle[file.name] = hashlib.sha256(file.read_bytes()).hexdigest()
        digests.append(bundle)
    assert digests[0] == digests[1]
    assert len(digests[0]) == 7  # 6 session logs + metrics.csv
    bundle_digest = hashlib.sha256(json.dumps(digests[0], sort_keys=True).encode("utf-8")).hexdigest()
    assert bundle_digest == SIMULATE_424242_DIGEST
    report(9, "cmd_simulate with a fixed seed produced byte-identical logs and CSV across two runs,"
              " matching the pinned digest")


# sha256 of report.md and report.csv from `analyze` on the output of
# `simulate --sessions T:H --seed 424242`. Both corpora pool 16 sessions, so
# every Mann-Whitney comparison in them takes the exact p-value.
ANALYZE_424242_DIGESTS = {
    "8:8": {
        "report.md": "1d018fa1334a631379b62894a961c407c9dd06f1e2f093af561b26587ae0fea4",
        "report.csv": "37ed410af2ea2649aa9de9f56d8fccd397445f0e9553aaea67de26d6a5c7a0cc",
    },
    "5:11": {
        "report.md": "c73c48707243fd5b17d3c9cc419f2695ee8b4102aaabdae33da8097096fc83fc",
        "report.csv": "0d243143fb5b168dcb1b566a8c6c5cefd4d50f4e39a0258535973ae2aa6a2608",
    },
}


@pytest.mark.parametrize("sessions", sorted(ANALYZE_424242_DIGESTS))
def test_criterion_9_analyze_determinism(tmp_path, sessions):
    out = tmp_path / "corpus"
    assert cli_main(["simulate", "--sessions", sessions, "--seed", "424242", "--out", str(out)]) == EXIT_OK
    assert cli_main(["analyze", str(out / "metrics.csv"), "--out", str(out)]) == EXIT_OK
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("report.md", "report.csv")}
    assert "| MWW |" in (out / "report.md").read_text(encoding="utf-8")
    assert digests == ANALYZE_424242_DIGESTS[sessions]
    report(9, f"cmd_analyze on a {sessions} corpus with a fixed seed wrote report.md and report.csv"
              " matching the pinned digests")
