"""Heat-exchanger plant: valve routing table and the effectiveness thermal model.

The plant's hydraulic topology is configuration, not code: a routing table maps
valve-state predicates to an (exchanger, flow mode) pair, each carrying a heat
transfer effectiveness. Outlet temperature follows
``T_hot_out = T_hot_in - eps * (T_hot_in - T_cold_in)``, a monotone,
configuration-sensitive signal rather than real thermodynamics.
"""
from __future__ import annotations

from enum import Enum

from replicasim import ConfigError, checks
from replicasim.records import record
from replicasim.scene import SceneModel, ValveState


class Exchanger(Enum):
    SHELL_AND_TUBE = "ShellAndTube"
    PLATE = "Plate"
    MIXED = "Mixed"


class FlowMode(Enum):
    PARALLEL = "Parallel"
    COUNTER = "Counter"
    UNDEFINED = "Undefined"


@record(frozen=True)
class RoutingRow:
    exchanger: Exchanger
    flow: FlowMode
    requires: tuple[tuple[str, ValveState], ...]
    effectiveness: float

    def __post_init__(self) -> None:
        name = f"effectiveness of ({self.exchanger.value}, {self.flow.value})"
        object.__setattr__(self, "effectiveness", checks.probability(self.effectiveness, name, True))


@record(frozen=True)
class RoutingTable:
    rows: tuple[RoutingRow, ...]
    hot_inlet_c: float
    cold_inlet_c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "hot_inlet_c", checks.finite(self.hot_inlet_c, "hot_inlet_temp_c"))
        object.__setattr__(self, "cold_inlet_c", checks.finite(self.cold_inlet_c, "cold_inlet_temp_c"))

    def valves_referenced(self) -> set[str]:
        return {valve for row in self.rows for valve, _ in row.requires}


def routing_table_from_dict(doc: dict) -> RoutingTable:
    rows = []
    for row in checks.typed(checks.typed(doc, "routing table", dict).get("rows", []), "rows", list):
        requires = checks.typed(checks.typed(row, "routing row", dict).get("requires"), "requires", dict)
        rows.append(
            RoutingRow(
                exchanger=checks.member(row.get("exchanger"), "exchanger", Exchanger),
                flow=checks.member(row.get("flow"), "flow", FlowMode),
                requires=tuple(sorted((v, checks.member(s, f"{v} state", ValveState)) for v, s in requires.items())),
                effectiveness=row.get("effectiveness"),
            )
        )
    return RoutingTable(
        rows=tuple(rows),
        hot_inlet_c=doc.get("hot_inlet_temp_c", 60.0),
        cold_inlet_c=doc.get("cold_inlet_temp_c", 20.0),
    )


def _check_fits(valve_states: dict[str, ValveState], table: RoutingTable) -> None:
    missing = table.valves_referenced() - valve_states.keys()
    if missing:
        raise ConfigError(f"routing table references unknown valves {sorted(missing)}")


def _matching_row(valve_states: dict[str, ValveState], table: RoutingTable) -> RoutingRow | None:
    _check_fits(valve_states, table)
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
    return row.effectiveness


@record
class PlantState:
    """Physical-twin state: valve positions plus the routing table with its inlet temperatures."""

    valve_states: dict[str, ValveState]
    table: RoutingTable

    def set_valve(self, valve: str, state: ValveState) -> None:
        if valve not in self.valve_states:
            raise ConfigError(f"unknown valve {valve!r}")
        self.valve_states[valve] = state


def plant_from_model(model: SceneModel, table: RoutingTable) -> PlantState:
    """The plant in ``model``'s valve states; a ``table`` that names a valve the model lacks is refused."""
    states = {n.id: n.valve_state for n in model.valves()}
    _check_fits(states, table)
    return PlantState(valve_states=states, table=table)


def outlet_temperature(plant: PlantState) -> float:
    """Hot-side outlet temperature under the active routing's effectiveness."""
    eps = effectiveness(plant.valve_states, plant.table)
    hot, cold = plant.table.hot_inlet_c, plant.table.cold_inlet_c
    return hot - eps * (hot - cold)
