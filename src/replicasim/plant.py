"""Heat-exchanger plant: valve routing table and the effectiveness thermal model.

The plant's hydraulic topology is configuration, not code: a routing table maps
valve-state predicates to an (exchanger, flow mode) pair, each carrying a heat
transfer effectiveness. Outlet temperature follows
``T_hot_out = T_hot_in - eps * (T_hot_in - T_cold_in)``, a monotone,
configuration-sensitive signal rather than real thermodynamics.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from replicasim.scene import SceneModel, ValveState


class PlantConfigError(Exception):
    pass


class Exchanger(Enum):
    SHELL_AND_TUBE = "ShellAndTube"
    PLATE = "Plate"
    MIXED = "Mixed"


class FlowMode(Enum):
    PARALLEL = "Parallel"
    COUNTER = "Counter"
    UNDEFINED = "Undefined"


@dataclass(frozen=True)
class RoutingRow:
    exchanger: Exchanger
    flow: FlowMode
    requires: tuple[tuple[str, ValveState], ...]
    effectiveness: float


@dataclass(frozen=True)
class RoutingTable:
    rows: tuple[RoutingRow, ...]
    hot_inlet_c: float
    cold_inlet_c: float

    def valves_referenced(self) -> set[str]:
        return {valve for row in self.rows for valve, _ in row.requires}


def routing_table_from_dict(doc: dict) -> RoutingTable:
    rows = []
    for row in doc.get("rows", []):
        rows.append(
            RoutingRow(
                exchanger=Exchanger(row["exchanger"]),
                flow=FlowMode(row["flow"]),
                requires=tuple(sorted((v, ValveState(s)) for v, s in row["requires"].items())),
                effectiveness=float(row["effectiveness"]),
            )
        )
    return RoutingTable(
        rows=tuple(rows),
        hot_inlet_c=float(doc.get("hot_inlet_temp_c", 60.0)),
        cold_inlet_c=float(doc.get("cold_inlet_temp_c", 20.0)),
    )


def _matching_row(valve_states: dict[str, ValveState], table: RoutingTable) -> RoutingRow | None:
    missing = table.valves_referenced() - set(valve_states)
    if missing:
        raise PlantConfigError(f"routing table references unknown valves {sorted(missing)}")
    for row in table.rows:
        if all(valve_states[valve] is state for valve, state in row.requires):
            return row
    return None


def route(valve_states: dict[str, ValveState], table: RoutingTable) -> tuple[Exchanger, FlowMode]:
    """First routing row whose predicate matches; (Mixed, Undefined) when none does."""
    row = _matching_row(valve_states, table)
    return (row.exchanger, row.flow) if row else (Exchanger.MIXED, FlowMode.UNDEFINED)


def effectiveness(valve_states: dict[str, ValveState], table: RoutingTable) -> float:
    """Effectiveness of the routed row; 0.0 when the routing is Mixed."""
    row = _matching_row(valve_states, table)
    if row is None or row.exchanger is Exchanger.MIXED:
        return 0.0
    if not 0.0 <= row.effectiveness < 1.0:
        raise PlantConfigError(
            f"effectiveness {row.effectiveness!r} for ({row.exchanger.value}, {row.flow.value}) outside [0, 1)"
        )
    return row.effectiveness


@dataclass
class PlantState:
    """Physical-twin state: valve positions plus the routing table with its inlet temperatures."""

    valve_states: dict[str, ValveState]
    table: RoutingTable

    def set_valve(self, valve: str, state: ValveState) -> None:
        if valve not in self.valve_states:
            raise PlantConfigError(f"unknown valve {valve!r}")
        self.valve_states[valve] = state


def plant_from_model(model: SceneModel, table: RoutingTable) -> PlantState:
    states = {n.id: n.valve_state for n in model.valves()}
    return PlantState(valve_states=states, table=table)


def outlet_temperature(plant: PlantState) -> float:
    """Hot-side outlet temperature under the active routing's effectiveness."""
    eps = effectiveness(plant.valve_states, plant.table)
    hot, cold = plant.table.hot_inlet_c, plant.table.cold_inlet_c
    return hot - eps * (hot - cold)
