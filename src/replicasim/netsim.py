"""Deterministic discrete-event transport between endpoints.

One single-threaded event loop delivers envelopes in (deliver_at, host_seq,
sender_seq) order. All randomness comes from per-link generators seeded by a
documented splitting rule, so a trace is a pure function of the initial world
and its seeds. Links are reliable and FIFO; the optional loss mode exists only
so receivers can demonstrate gap detection via sender sequence numbers.
"""
from __future__ import annotations

import hashlib
import heapq
import random
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
    rng: random.Random
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
        self.endpoints: dict[str, object] = {}
        self.links: dict[tuple[str, str], _Link] = {}
        # (deliver_at, host_seq or 0, sender_seq, counter, src, dst, envelope); the
        # counter is unique, so entries never compare past it.
        self._heap: list[tuple] = []
        self._counter = 0
        self.trace: list[TraceEntry] = []
        self.drops: list[TraceEntry] = []

    def add_endpoint(self, endpoint_id: str, handler: object) -> None:
        self.endpoints[endpoint_id] = handler

    def add_link(self, src: str, dst: str, config: Optional[LinkConfig] = None) -> None:
        config = config or LinkConfig()
        seed = config.seed or self.master_seed
        rng = random.Random(derive_seed(seed, f"link:{src}->{dst}"))
        self.links[(src, dst)] = _Link(config=config, rng=rng)

    def send(self, src: str, dst: str, envelope: Envelope, extra_delay_ms: int = 0) -> Optional[int]:
        """Queue an envelope for delivery; returns its delivery time, or None if
        the loss mode drops it."""
        link = self.links.get((src, dst))
        if link is None:
            self.add_link(src, dst)
            link = self.links[(src, dst)]
        cfg = link.config
        send_at = self.now + extra_delay_ms
        jitter = link.rng.randint(-cfg.jitter_ms, cfg.jitter_ms) if cfg.jitter_ms else 0
        deliver_at = send_at + cfg.base_latency_ms + jitter
        # Reliable ordered contract: never deliver before an earlier send on this link.
        deliver_at = max(deliver_at, link.last_delivery_ms)
        if cfg.loss_rate > 0.0 and link.rng.random() < cfg.loss_rate:
            self.drops.append(TraceEntry(deliver_at, src, dst, envelope))
            return None
        link.last_delivery_ms = deliver_at
        host_key = envelope.host_seq if envelope.host_seq is not None else 0
        self._counter += 1
        heapq.heappush(self._heap, (deliver_at, host_key, envelope.sender_seq, self._counter, src, dst, envelope))
        return deliver_at

    def run_until_quiescent(self) -> list[TraceEntry]:
        """Deliver pending events in order until none remain; returns the full trace."""
        processed = 0
        while self._heap:
            processed += 1
            if processed > EVENT_CAP:
                raise RuntimeError(f"exceeded event safety cap of {EVENT_CAP}")
            deliver_at, _, _, _, src, dst, envelope = heapq.heappop(self._heap)
            self.now = max(self.now, deliver_at)
            self.trace.append(TraceEntry(deliver_at, src, dst, envelope))
            handler = self.endpoints.get(dst)
            if handler is None:
                continue
            handle: Callable = getattr(handler, "handle", handler)  # type: ignore[assignment]
            handle(self, deliver_at, src, envelope)
        return self.trace


def trace_to_jsonl(trace: list[TraceEntry]) -> str:
    return "\n".join(checks.dumps(e.to_dict()) for e in trace) + ("\n" if trace else "")
