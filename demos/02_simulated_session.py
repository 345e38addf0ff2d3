"""
One simulated inspection call, end to end
=========================================

Runs the two-part inspection plan under the head-mounted-display condition:
the guide indicates each valve on their replica, synchronizes it so the
maintainer sees the indication, and the maintainer identifies and operates the
valve. Everything below is a pure function of the seed.
"""
from replicasim.metrics import block_times, error_counts, weighted_total
from replicasim.protocol import SyncCommit, SyncReq
from replicasim.scenario import (
    Condition,
    build_default_plan,
    default_model,
    default_profiles,
    run_session,
    valve_registry,
)

model = default_model()
plan = build_default_plan(valve_registry(model))
profile = default_profiles()[Condition.HMD]

log = run_session(plan, Condition.HMD, profile, seed=7, model=model)

print(f"condition={log.condition.value} seed={log.seed} events={len(log.events)}")
print("\nfirst ten events:")
for event in log.events[:10]:
    where = f" [{event.block}]" if event.block else ""
    print(f"  {event.t_ms / 1000.0:8.1f}s {event.kind:<18}{where} {event.data}")

timing = block_times(log)
print("\nblock timings:")
for block in timing.blocks:
    print(f"  {block.block:<16} ({block.kind:<14}) {block.duration_s:7.1f}s")
print(f"  total call span {timing.total_s:.1f}s")

counts = error_counts(log)
print(f"\nerrors: simple={counts.simple} critical={counts.critical} "
      f"repetition={counts.repetition} weighted={weighted_total(counts)}")
print("plant restored to initial state:", log.initial_valve_states == log.final_valve_states)

wire = [t for t in log.transcript if isinstance(t.envelope.payload, (SyncReq, SyncCommit))]
print(f"sync traffic on the simulated link: {len(wire)} envelopes")
