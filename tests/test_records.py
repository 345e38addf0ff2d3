"""``records`` against ``dataclasses`` itself, on twin classes that differ only in their decorator."""
import ast
import copy
import dataclasses
import importlib
import pickle
import types
from pathlib import Path

import pytest

from replicasim import plant, records, scenario, scene


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
    assert len(classes) == 43
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
