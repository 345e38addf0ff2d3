"""``records`` against ``dataclasses`` itself, on twin classes that differ only in their decorator."""
import dataclasses

import pytest

from replicasim import records


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


FROZEN = (twin(records.record(frozen=True), records.field), twin(dataclasses.dataclass(frozen=True), dataclasses.field))
MUTABLE = (twin(records.record, records.field), twin(dataclasses.dataclass, dataclasses.field))
REPLACE = {FROZEN[0]: records.replace, MUTABLE[0]: records.replace,
           FROZEN[1]: dataclasses.replace, MUTABLE[1]: dataclasses.replace}


def both(pair, *args, **kwargs):
    return [cls(*args, **kwargs) for cls in pair]


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
            assert "tags" not in cls.__dict__ and cls.size == 2

    def test_match_args(self, pair):
        assert pair[0].__match_args__ == pair[1].__match_args__ == ("name", "size", "tags", "note")

    def test_replace(self, pair):
        results = [REPLACE[cls](cls("a", 3, ["x"], " hi"), size=4, note=" there ") for cls in pair]
        assert [vars(r) for r in results] == [{"name": "a", "size": 4, "tags": ["x"], "note": "there"}] * 2
        for cls in pair:
            with pytest.raises(TypeError):
                REPLACE[cls](cls("a"), colour="red")


def test_frozen_hash_and_refusals():
    for cls in FROZEN:
        assert hash(cls("a", 3, (), "b")) == hash(("a", 3, (), "b"))
        value = cls("a")
        with pytest.raises(AttributeError, match="cannot assign to field 'size'"):
            value.size = 3
        with pytest.raises(AttributeError, match="cannot assign to field 'colour'"):
            value.colour = "red"
        with pytest.raises(AttributeError, match="cannot delete field 'name'"):
            del value.name
        assert vars(value) == {"name": "a", "size": 2, "tags": [], "note": ""}


def test_mutable_is_unhashable_and_assignable():
    for cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(cls("a"))
        value = cls("a")
        value.size = 3
        del value.note
        assert vars(value) == {"name": "a", "size": 3, "tags": []}

