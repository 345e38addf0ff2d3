"""Deterministic discrete-event transport between endpoints.

One single-threaded event loop delivers envelopes in (deliver_at, host_seq,
sender_seq) order. All randomness comes from per-link generators seeded by a
documented splitting rule, so a trace is a pure function of the initial world
and its seeds. A link seeds its generator only if its config draws from it
(jitter or loss); a zero-latency link holds none. Links are reliable and FIFO;
the optional loss mode exists only so receivers can demonstrate gap detection
via sender sequence numbers.
"""
from __future__ import annotations

import hashlib
import random
from heapq import heappop, heappush
from typing import Callable, Optional

from replicasim import ConfigError, checks
from replicasim.protocol import Envelope, envelope_to_dict
from replicasim.records import record

EVENT_CAP = 500_000


def derive_seed(master: int, label: str) -> int:
    """Stable 64-bit stream split: sha256 over ``master:label``."""
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@record(frozen=True)
class LinkConfig:
    base_latency_ms: int = 0
    jitter_ms: int = 0
    seed: int = 0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if checks.count(self.base_latency_ms, "base_latency_ms") < checks.count(self.jitter_ms, "jitter_ms"):
            raise ConfigError("base_latency must be at least jitter (delivery cannot precede send)")
        checks.integer(self.seed, "seed")
        checks.probability(self.loss_rate, "loss_rate", True)


@record
class _Link:
    config: LinkConfig
    rng: Optional[random.Random]  # None on a link without jitter or loss
    last_delivery_ms: int = 0


@record(frozen=True)
class TraceEntry:
    t_ms: int
    src: str
    dst: str
    envelope: Envelope

    def to_dict(self) -> dict:
        return {"t_ms": self.t_ms, "from": self.src, "to": self.dst, "envelope": envelope_to_dict(self.envelope)}


class World:
    """Endpoints, links and the pending-event heap, advanced synchronously.

    An endpoint is any object with ``handle(net, now_ms, src, envelope)``; a
    bare callable with that signature works too. Handlers send follow-up
    traffic through :meth:`send`, optionally padded with ``extra_delay_ms`` to
    model local think/act time before transmission.
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self.now = 0
        self.endpoints: dict[str, Callable] = {}  # endpoint id -> its handle
        self.links: dict[tuple[str, str], _Link] = {}
        # (deliver_at, host_seq or 0, sender_seq, counter, src, dst, envelope); the
        # counter is unique, so entries never compare past it.
        self._heap: list[tuple] = []
        self._counter = 0
        self.trace: list[TraceEntry] = []

    def add_endpoint(self, endpoint_id: str, handler: object) -> None:
        self.endpoints[endpoint_id] = getattr(handler, "handle", handler)

    def add_link(self, src: str, dst: str, config: Optional[LinkConfig] = None) -> None:
        config = config or LinkConfig()
        draws = config.jitter_ms or config.loss_rate > 0.0
        rng = random.Random(derive_seed(config.seed or self.master_seed, f"link:{src}->{dst}")) if draws else None
        self.links[(src, dst)] = _Link(config=config, rng=rng)

    def send(self, src: str, dst: str, envelope: Envelope, extra_delay_ms: int = 0) -> Optional[int]:
        """Queue an envelope for delivery; returns its delivery time, or None if
        the loss mode drops it. A negative ``extra_delay_ms`` is a program fault."""
        if extra_delay_ms < 0:
            raise ValueError(f"extra_delay_ms must not be negative, got {extra_delay_ms}")
        link = self.links.get((src, dst))
        if link is None:
            self.add_link(src, dst)
            link = self.links[(src, dst)]
        cfg = link.config
        deliver_at = self.now + extra_delay_ms + cfg.base_latency_ms
        if cfg.jitter_ms:
            deliver_at += link.rng.randint(-cfg.jitter_ms, cfg.jitter_ms)
        # Reliable ordered contract: never deliver before an earlier send on this link.
        if deliver_at < link.last_delivery_ms:
            deliver_at = link.last_delivery_ms
        if cfg.loss_rate > 0.0 and link.rng.random() < cfg.loss_rate:
            return None
        link.last_delivery_ms = deliver_at
        self._counter += 1
        entry = (deliver_at, envelope.host_seq or 0, envelope.sender_seq, self._counter, src, dst, envelope)
        heappush(self._heap, entry)
        return deliver_at

    def run_until_quiescent(self) -> list[TraceEntry]:
        """Deliver pending events in order until none remain; returns the full trace. Raises
        ``RuntimeError`` if events still wait after ``EVENT_CAP`` deliveries, a livelock."""
        heap, pop, record_entry, endpoints = self._heap, heappop, self.trace.append, self.endpoints
        for _ in range(EVENT_CAP):
            if not heap:
                return self.trace
            deliver_at, _, _, _, src, dst, envelope = pop(heap)
            if deliver_at > self.now:
                self.now = deliver_at
            record_entry(TraceEntry(deliver_at, src, dst, envelope))
            handle = endpoints.get(dst)
            if handle is not None:
                handle(self, deliver_at, src, envelope)
        if heap:
            raise RuntimeError(f"exceeded event safety cap of {EVENT_CAP}")
        return self.trace


def trace_to_jsonl(trace: list[TraceEntry]) -> str:
    return "\n".join(checks.dumps(e.to_dict()) for e in trace) + ("\n" if trace else "")
