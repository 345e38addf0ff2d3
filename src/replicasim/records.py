"""Slotted value classes built with one compile each: the part of ``dataclasses`` the simulator uses.

``@record`` gives a class the ``__init__`` (defaults, :class:`field` factories,
then ``__post_init__``), ``__repr__``, ``__eq__``, ``__match_args__`` and
``__hash__ = None`` of ``@dataclass(slots=True)``; ``frozen=True`` hashes the
fields and refuses assignment and deletion. ``dataclasses`` compiles each method
on its own and imports ``inspect`` for docstrings, most of ``simulate``'s import
time. ``stats`` and ``report`` keep ``@dataclass``: ``simulate`` never loads
them, and ``bench/selftest.py`` calls ``dataclasses.replace`` on their results.

The decorator returns a new class, rebuilt from the body with ``__slots__`` set
to the fields: an instance has no ``__dict__``, a field read is a slot load, and
assigning a name that is not a field raises ``AttributeError``, on a mutable
record too. Defaults and factories leave the class body, since a slot and a
class attribute cannot share a name; ``__init__`` binds them. A frozen
``__init__`` writes each field through its slot's descriptor, bound once per
class; a ``__post_init__`` may still normalise a field with
``object.__setattr__``. Trap: a method with a zero-argument ``super()`` or a
``__class__`` reference would still see the discarded class. No record has one.
"""

_MISSING = object()  # a field without a default
_FACTORY = object()  # the __init__ default of a field built by a factory


class field:
    """A field whose default is ``default_factory()``, called once per instance."""

    def __init__(self, *, default_factory) -> None:
        self.default_factory = default_factory


def record(cls=None, /, *, frozen=False):
    """``cls`` rebuilt with slots and the generated methods; ``@record(frozen=True)``
    for an immutable, hashable record."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    ns["__slots__"], ns["__qualname__"] = names, cls.__qualname__
    defaults = {name: ns.pop(name) for name in names if name in ns}
    cls = type(cls)(cls.__name__, cls.__bases__, ns)
    env = {"_FACTORY": _FACTORY}
    params, body = ["self"], []
    for name in names:
        default, value = defaults.get(name, _MISSING), name
        if isinstance(default, field):
            env[f"_f_{name}"] = default.default_factory
            default, value = _FACTORY, f"_f_{name}() if {name} is _FACTORY else {name}"
        if default is _MISSING:
            params.append(name)
        else:
            env[f"_d_{name}"] = default
            params.append(f"{name}=_d_{name}")
        if frozen:
            env[f"_s_{name}"] = cls.__dict__[name].__set__
            body.append(f"_s_{name}(self, {value})")
        else:
            body.append(f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine, theirs = ("".join(f"{who}.{name}," for name in names) for who in ("self", "other"))
    source = [f"def __init__({', '.join(params)}):\n    {'; '.join(body) or 'pass'}",
              f"def __eq__(self, other):\n    return ({mine}) == ({theirs}) if other.__class__ is self.__class__"
              " else NotImplemented"]
    if frozen:
        source.append(f"def __hash__(self):\n    return hash(({mine}))")
    exec("\n".join(source), env)
    cls.__init__, cls.__repr__, cls.__eq__, cls.__match_args__ = env["__init__"], _repr, env["__eq__"], names
    if frozen:
        cls.__hash__, cls.__setattr__, cls.__delattr__ = env["__hash__"], _refuse_assignment, _refuse_deletion
        cls.__getstate__, cls.__setstate__ = _get_state, _set_state  # for copy and pickle, as dataclasses does
    else:
        cls.__hash__ = None
    return cls


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({shown})"


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _get_state(self) -> list:
    return [getattr(self, name) for name in self.__match_args__]


def _set_state(self, state) -> None:
    for name, value in zip(self.__match_args__, state):
        object.__setattr__(self, name, value)


def replace(obj, **changes):
    """``dataclasses.replace`` for records: a copy with ``changes``, built by ``__init__``."""
    for name in obj.__match_args__:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)
