"""``records`` against ``dataclasses`` itself, on twin classes that differ only in their decorator."""
import ast
import copy
import dataclasses
import importlib
import pickle
import types
from pathlib import Path

import pytest

from replicasim import metrics, netsim, plant, protocol, records, replica, scenario, scene
from replicasim.metrics import Condition
from replicasim.scene import Role


def twin(decorate, field):
    """The same class body, built by ``decorate``; ``field`` is its module's field()."""

    class Twin:
        name: str
        size: int = 2
        tags: list = field(default_factory=list)
        note: str = ""

        def __post_init__(self) -> None:
            object.__setattr__(self, "note", self.note.strip())

    return decorate(Twin)


FROZEN = (twin(records.record(frozen=True), records.field),
          twin(dataclasses.dataclass(frozen=True, slots=True), dataclasses.field))
MUTABLE = (twin(records.record, records.field), twin(dataclasses.dataclass(slots=True), dataclasses.field))
REPLACE = {FROZEN[0]: records.replace, MUTABLE[0]: records.replace,
           FROZEN[1]: dataclasses.replace, MUTABLE[1]: dataclasses.replace}


def both(pair, *args, **kwargs):
    return [cls(*args, **kwargs) for cls in pair]


def fields(value) -> dict:
    """The fields of a slotted ``value``, which has no ``vars()``."""
    return {name: getattr(value, name) for name in value.__match_args__}


@pytest.mark.parametrize("pair", [FROZEN, MUTABLE], ids=["frozen", "mutable"])
class TestAgainstDataclasses:
    def test_repr(self, pair):
        ours, theirs = both(pair, "a", 3, ["x"], note="  hi ")
        assert repr(ours) == repr(theirs) == "twin.<locals>.Twin(name='a', size=3, tags=['x'], note='hi')"

    def test_equality(self, pair):
        for cls in pair:
            assert cls("a") == cls("a", 2, [], "")
            assert not cls("a") != cls("a")
            assert cls("a") != cls("a", 3)
            assert cls("a") != cls("b")
            other = next(c for c in FROZEN + MUTABLE if c is not cls)
            assert cls("a") != other("a")
            assert cls("a").__eq__(other("a")) is NotImplemented
            assert cls("a").__eq__(("a", 2, [], "")) is NotImplemented

    def test_fresh_default_per_instance(self, pair):
        for cls in pair:
            first, second = cls("a"), cls("a")
            assert first.tags == [] and first.tags is not second.tags
            assert first.size == 2
            assert all(isinstance(cls.__dict__[name], types.MemberDescriptorType) for name in cls.__match_args__)

    def test_copy(self, pair):
        for cls in pair:
            value = cls("a", 3, [["x"]], "b")
            for copied in (copy.copy(value), copy.deepcopy(value)):
                assert copied == value and copied is not value
            assert copy.copy(value).tags is value.tags
            assert copy.deepcopy(value).tags[0] is not value.tags[0]

    def test_match_args(self, pair):
        assert pair[0].__match_args__ == pair[1].__match_args__ == ("name", "size", "tags", "note")

    def test_replace(self, pair):
        results = [REPLACE[cls](cls("a", 3, ["x"], " hi"), size=4, note=" there ") for cls in pair]
        assert [fields(r) for r in results] == [{"name": "a", "size": 4, "tags": ["x"], "note": "there"}] * 2
        for cls in pair:
            with pytest.raises(TypeError):
                REPLACE[cls](cls("a"), colour="red")


def test_frozen_hash_and_refusals():
    for cls in FROZEN:
        assert hash(cls("a", 3, (), "b")) == hash(("a", 3, (), "b"))
        value = cls("a")
        with pytest.raises(AttributeError, match="cannot assign to field 'size'"):
            value.size = 3
        with pytest.raises(AttributeError, match="cannot delete field 'name'"):
            del value.name
        assert fields(value) == {"name": "a", "size": 2, "tags": [], "note": ""}
    # A name that is not a field. The dataclasses twin is left out: on Python
    # 3.11 its frozen __setattr__ calls super() on the class that slots=True
    # discarded, and raises TypeError.
    with pytest.raises(AttributeError, match="cannot assign to field 'colour'"):
        FROZEN[0]("a").colour = "red"
    # a record of one field hashes its 1-tuple, and one of none the empty tuple
    assert hash(protocol.StepDone(21.5)) == hash((21.5,))
    assert hash(protocol.CallStart()) == hash(())


def test_mutable_is_unhashable_and_assignable():
    for cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(cls("a"))
        value = cls("a")
        value.size = 3
        del value.note
        with pytest.raises(AttributeError):
            value.note
        with pytest.raises(AttributeError):
            value.colour = "red"
        assert {name: getattr(value, name) for name in ("name", "size", "tags")} == {"name": "a", "size": 3, "tags": []}



SIMULATOR_MODULES = ("scene", "replica", "protocol", "netsim", "plant", "scenario", "metrics")


def record_classes():
    """``(class, its ClassDef)`` for every ``@record`` class of the simulator modules, read from the source."""
    found = []
    for name in SIMULATOR_MODULES:
        module = importlib.import_module(f"replicasim.{name}")
        for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any("record" in ast.unparse(d) for d in node.decorator_list):
                found.append((getattr(module, node.name), node))
    return found


def test_package_records_are_slotted():
    classes = record_classes()
    assert len(classes) == 41
    for cls, node in classes:
        assert cls.__slots__ == cls.__match_args__, cls
        assert not hasattr(object.__new__(cls), "__dict__"), cls
        assert cls.__qualname__ == node.name and cls.__doc__ == ast.get_docstring(node, clean=False)
        for method in (n.name for n in node.body if isinstance(n, ast.FunctionDef)):
            # a zero-argument super() or __class__ would name the class the rebuild discarded
            function = getattr(cls.__dict__[method], "__func__", cls.__dict__[method])
            assert "__class__" not in function.__code__.co_freevars, (cls, method)
    assert isinstance(scene.Pose.__dict__["from_dict"], staticmethod)
    assert isinstance(scenario.OperatorProfile.__dict__["from_dict"], staticmethod)
    assert callable(plant.PlantState.__dict__["set_valve"])  # patched on the class by bench/tracer.py


def test_package_records_pickle():
    model = scenario.default_model()  # a mutable record of frozen nodes and poses
    assert pickle.loads(pickle.dumps(model)) == model


def test_post_init_sees_its_record_class():
    # A frozen record is filled as its mutable twin, but __post_init__ runs on the record.
    seen = []

    @records.record(frozen=True)
    class Doubled:
        value: int

        def __post_init__(self) -> None:
            seen.append(type(self))
            object.__setattr__(self, "value", self.doubled())

        def doubled(self) -> int:
            return 2 * self.value

    assert Doubled(3).value == 6 and records.replace(Doubled(3)).value == 12
    assert seen == [Doubled] * 3


def hmd_session() -> metrics.SessionLog:
    plan = scenario.build_default_plan(scenario.valve_registry(scenario.default_model()))
    return scenario.run_session(plan, Condition.HMD, scenario.default_profiles()[Condition.HMD], seed=0)


def record_examples() -> dict[type, object]:
    """One instance of each package record: the first reachable through the fields
    of an hmd session and its inputs, and a few built by hand."""
    log, model = hmd_session(), scenario.default_model()
    plan = scenario.build_default_plan(scenario.valve_registry(model))
    profile, table = scenario.default_profiles()[Condition.HMD], scenario.default_routing_table()
    room = protocol.join_room(protocol.RoomState(room="r", shared=model), "operator", Role.OPERATOR)
    world = netsim.World()
    world.add_link("a", "b", netsim.LinkConfig(10, 5))
    mine = replica.create_replica(model, "expert", Role.EXPERT)
    highlight = scene.SetHighlight("1V1", (1.0, 0.0, 0.0), Role.EXPERT, 1)
    outcome = replica.synchronize(replica.make_sync_request(replica.edit_replica(mine, highlight)), model)
    plant_state = plant.plant_from_model(model, table)
    by_hand = [protocol.MediaSignal(b"\x00"),
               scene.AddAnnotation(scene.Annotation("note-1", Role.EXPERT, "1V1", "check"), Role.EXPERT, 2),
               scene.RemoveAnnotation("note-1", Role.EXPERT, 3),
               scene.SetPose("1V1", scene.Pose((1.0, 0.0, 0.0)), Role.EXPERT, 4)]
    roots = [log, model, plan, profile, table, world.links, mine, outcome, plant_state, room,
             metrics.error_counts(log), metrics.block_times(log), *by_hand]
    found, seen = {}, {}  # seen keeps each value alive, so that no id is reused
    while roots:
        value = roots.pop()
        if id(value) in seen:
            continue
        seen[id(value)] = value
        if type(value).__module__.startswith("replicasim.") and hasattr(type(value), "__match_args__"):
            found.setdefault(type(value), value)
            roots.extend(getattr(value, name) for name in value.__match_args__)
        elif isinstance(value, (tuple, list)):
            roots.extend(value)
        elif isinstance(value, dict):
            roots.extend(value.items())
    return found


def test_package_records_keep_their_class_through_every_copy():
    examples = record_examples()
    classes = [cls for cls, _ in record_classes()]
    assert set(examples) == set(classes)
    for cls in classes:
        value = examples[cls]
        copies = [records.replace(value), copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
        assert type(value) is cls and all(type(c) is cls for c in copies), cls
        if cls.__hash__ is not None:  # frozen: a value, so every copy is equal
            assert all(c == value for c in copies), cls


def test_frozen_package_records_refuse_changes_once_built():
    for cls, value in record_examples().items():
        if cls.__hash__ is None:
            continue
        built = cls(*(getattr(value, name) for name in cls.__match_args__))
        name = cls.__match_args__[0] if cls.__match_args__ else "extra"
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(built, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(built, name)
        assert built == value


def test_session_values_survive_pickle():
    log = hmd_session()
    envelopes = [entry.envelope for entry in log.transcript]
    assert len(envelopes) == 71
    assert pickle.loads(pickle.dumps(envelopes)) == envelopes
    assert pickle.loads(pickle.dumps(log.events)) == log.events


def test_package_record_constructors_compile_under_their_own_names():
    # cProfile keys its rows by (file, line, name), so a shared "<string>" would fold every constructor into one.
    filenames = {}
    for cls, _ in record_classes():
        constructor = cls.__new__ if cls.__hash__ is not None else cls.__init__
        filenames[cls] = constructor.__code__.co_filename
    assert len(set(filenames.values())) == len(filenames) == 41
    assert filenames[protocol.Envelope] == "<record Envelope>"
