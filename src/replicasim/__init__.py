"""Replica-based collaborative state synchronization and session simulation.

A headless engine for two-party remote maintenance collaboration: a shared
scene model of a valve/heat-exchanger plant, client-private replicas with
role-aware merge semantics, a deterministic simulated transport, scripted
inspection sessions, and the metrics/statistics pipeline used to compare
collaboration conditions.
"""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """Bad input: a malformed file, option, document or field.

    The CLI reports it as a message naming its source and exits 2. Being a
    ``ValueError``, it also lets argparse refuse an option's value.
    """


class RoomError(Exception):
    """A frame, sync request or commit that a peer refuses."""

