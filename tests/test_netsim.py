import random

import pytest

from replicasim import netsim
from replicasim.netsim import LinkConfig, World, derive_seed, trace_to_jsonl
from replicasim.protocol import (
    CallStart,
    Envelope,
    Instruction,
    SyncCommit,
    SyncReq,
    detect_gaps,
)
from replicasim.replica import SyncRequest, apply_commit, synchronize
from replicasim.scene import Role, SetValveState, ValveState, canonical_json, load_model

from test_scene import small_descriptor


def env(sender, seq, payload=None):
    return Envelope(sender=sender, sender_seq=seq, room="r", payload=payload or CallStart())


class TestDelivery:
    def test_zero_latency_delivers_now(self):
        world = World()
        world.add_link("a", "b", LinkConfig(0, 0))
        assert world.send("a", "b", env("a", 1)) == world.now == 0

    def test_base_latency_offsets_now(self):
        world = World()
        world.add_link("a", "b", LinkConfig(50, 0))
        world.now = 100
        assert world.send("a", "b", env("a", 1)) == 150

    def test_jitter_bounds_and_fifo_over_1000_sends(self):
        world = World()
        world.add_link("a", "b", LinkConfig(50, 20, seed=42))
        deliveries = []
        for i in range(1000):
            world.now = i * 10
            deliveries.append((world.now, world.send("a", "b", env("a", i + 1))))
        # Brute-force check over the generated schedule.
        last = 0
        for sent_at, deliver_at in deliveries:
            assert deliver_at >= sent_at
            assert deliver_at >= last  # FIFO clamp
            if deliver_at > last:  # unclamped draws stay inside the jitter window
                assert sent_at + 30 <= deliver_at <= sent_at + 70
            last = deliver_at

    def test_negative_extra_delay_is_refused(self):
        # Sending into the past is a program fault: nothing is queued, and the clock stays.
        world = World()
        world.add_link("a", "b", LinkConfig(0, 0))
        world.now = 100
        with pytest.raises(ValueError, match="extra_delay_ms must not be negative, got -50"):
            world.send("a", "b", env("a", 1), extra_delay_ms=-50)
        assert world._heap == []
        assert world.run_until_quiescent() == [] and world.now == 100

    def test_only_a_link_that_draws_holds_a_generator(self):
        world = World(master_seed=5)
        world.add_link("a", "b", LinkConfig(0, 0))
        world.add_link("b", "a", LinkConfig(50, 0, seed=3))
        assert world.links[("a", "b")].rng is None and world.links[("b", "a")].rng is None
        assert world.send("a", "b", env("a", 1)) == 0

    @pytest.mark.parametrize("master, seed", [(5, 42), (5, 0)])
    def test_jittery_link_draws_its_split_stream(self, master, seed):
        # A link without a seed of its own splits the world's master seed.
        world = World(master_seed=master)
        world.add_link("a", "b", LinkConfig(50, 20, seed=seed))
        expected = random.Random(derive_seed(seed or master, "link:a->b"))
        for i in range(20):
            world.now = i * 1000  # far apart, so the FIFO clamp never binds
            assert world.send("a", "b", env("a", i + 1)) == world.now + 50 + expected.randint(-20, 20)

    def test_lossy_link_draws_its_split_stream(self):
        world = World()
        world.add_link("a", "b", LinkConfig(0, 0, seed=9, loss_rate=0.5))
        expected = random.Random(derive_seed(9, "link:a->b"))
        delivered = [world.send("a", "b", env("a", i + 1)) is not None for i in range(40)]
        assert delivered == [expected.random() >= 0.5 for _ in range(40)]
        assert 0 < sum(delivered) < 40

    def test_invalid_link_config(self):
        with pytest.raises(ValueError):
            LinkConfig(base_latency_ms=10, jitter_ms=20)


class TestRun:
    def test_no_events_empty_trace(self):
        world = World()
        assert world.run_until_quiescent() == []

    def test_run_twice_bit_identical(self):
        def build():
            world = World(master_seed=99)
            world.add_link("a", "b", LinkConfig(40, 15, seed=7))
            world.add_link("b", "a", LinkConfig(40, 15, seed=7))
            pending = {"count": 0}

            def ponger(net, now, src, envelope):
                if pending["count"] < 20:
                    pending["count"] += 1
                    net.send("b", "a", env("b", pending["count"], Instruction("pong")))

            world.add_endpoint("b", ponger)
            world.add_endpoint("a", lambda net, now, src, envelope: None)
            for i in range(5):
                world.send("a", "b", env("a", i + 1))
            return world.run_until_quiescent()

        assert trace_to_jsonl(build()) == trace_to_jsonl(build())

    def test_livelock_cap(self, monkeypatch):
        monkeypatch.setattr(netsim, "EVENT_CAP", 100)
        world = World()
        world.add_link("a", "a", LinkConfig(1, 0))

        def echo(net, now, src, envelope):
            net.send("a", "a", envelope)

        world.add_endpoint("a", echo)
        world.send("a", "a", env("a", 1))
        with pytest.raises(RuntimeError, match="event safety cap"):
            world.run_until_quiescent()

    def test_clock_monotone_over_trace(self):
        world = World(master_seed=3)
        world.add_link("a", "b", LinkConfig(30, 10, seed=5))
        world.add_endpoint("b", lambda net, now, src, envelope: None)
        for i in range(50):
            world.now = i * 7
            world.send("a", "b", env("a", i + 1))
        world.now = 0
        trace = world.run_until_quiescent()
        times = [entry.t_ms for entry in trace]
        assert times == sorted(times)


class TestConvergenceOverNet:
    def test_ten_syncs_converge(self):
        shared = load_model(small_descriptor())

        class Host:
            def __init__(self):
                self.shared = shared
                self.commits = []

            def handle(self, net, now, src, envelope):
                if isinstance(envelope.payload, SyncReq):
                    outcome = synchronize(envelope.payload.request, self.shared)
                    self.shared = outcome.merged
                    commit = Envelope(sender="host", sender_seq=len(self.commits) + 1, room="r",
                                      payload=SyncCommit(outcome.accepted, outcome.merged.version),
                                      host_seq=len(self.commits) + 1)
                    self.commits.append(commit)
                    net.send("host", "client", commit)

        class Client:
            def __init__(self):
                self.model = shared

            def handle(self, net, now, src, envelope):
                if isinstance(envelope.payload, SyncCommit):
                    self.model = apply_commit(self.model, envelope.payload.accepted,
                                              envelope.payload.new_version)

        world = World(master_seed=1)
        world.add_link("client", "host", LinkConfig(60, 20, seed=11))
        world.add_link("host", "client", LinkConfig(60, 20, seed=12))
        host, client = Host(), Client()
        world.add_endpoint("host", host)
        world.add_endpoint("client", client)

        oracle = shared
        for i in range(10):
            state = ValveState.OPEN if i % 2 == 0 else ValveState.CLOSED
            req = SyncRequest("client", Role.OPERATOR, 0, (SetValveState("V1", state, Role.OPERATOR, i + 1),))
            world.now = i * 5
            world.send("client", "host", Envelope(sender="client", sender_seq=i + 1, room="r",
                                                  payload=SyncReq(req)))
        world.run_until_quiescent()
        # Sequential-application oracle over the host's commit order.
        for commit in host.commits:
            oracle = apply_commit(oracle, commit.payload.accepted, commit.payload.new_version)
        assert canonical_json(client.model) == canonical_json(host.shared) == canonical_json(oracle)


class TestLossMode:
    def test_drops_leave_detectable_gaps(self):
        world = World()
        world.add_link("a", "b", LinkConfig(10, 0, seed=21, loss_rate=0.3))
        received = []
        world.add_endpoint("b", lambda net, now, src, envelope: received.append(envelope))
        dropped = []
        for i in range(50):
            world.now = i
            if world.send("a", "b", env("a", i + 1)) is None:
                dropped.append(i + 1)
        world.run_until_quiescent()
        assert dropped  # the seeded stream drops something at 30%
        assert [e.sender_seq for e in received] == [seq for seq in range(1, 51) if seq not in dropped]
        gaps = detect_gaps(received)
        assert set(gaps.get("a", [])) == set(dropped)


def test_derive_seed_is_stable():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x") != derive_seed(2, "x")
