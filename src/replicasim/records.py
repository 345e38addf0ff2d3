"""Value classes built with one compile each: the part of ``dataclasses`` the simulator uses.

``@record`` gives a class the ``__init__`` (defaults, :class:`field` factories,
then ``__post_init__``), ``__repr__``, ``__eq__``, ``__match_args__`` and
``__hash__ = None`` of ``@dataclass``; ``frozen=True`` hashes the fields and
refuses assignment and deletion. ``dataclasses`` compiles each method on its own
and imports ``inspect`` for docstrings, most of ``simulate``'s import time.
``stats`` and ``report`` keep ``@dataclass``: ``simulate`` never loads them, and
``bench/selftest.py`` calls ``dataclasses.replace`` on their results.
"""

_MISSING = object()  # a field without a default
_FACTORY = object()  # the __init__ default of a field built by a factory


class field:
    """A field whose default is ``default_factory()``, called once per instance."""

    def __init__(self, *, default_factory) -> None:
        self.default_factory = default_factory


def record(cls=None, /, *, frozen=False):
    """``cls`` with the generated methods; ``@record(frozen=True)`` for an immutable, hashable record."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    env = {"_FACTORY": _FACTORY, "_set": object.__setattr__}
    params, body = ["self"], []
    for name in names:
        default, value = cls.__dict__.get(name, _MISSING), name
        if isinstance(default, field):
            env[f"_f_{name}"] = default.default_factory
            delattr(cls, name)
            default, value = _FACTORY, f"_f_{name}() if {name} is _FACTORY else {name}"
        if default is _MISSING:
            params.append(name)
        else:
            env[f"_d_{name}"] = default
            params.append(f"{name}=_d_{name}")
        body.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
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


def replace(obj, **changes):
    """``dataclasses.replace`` for records: a copy with ``changes``, built by ``__init__``."""
    for name in obj.__match_args__:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)
