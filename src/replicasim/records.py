"""Slotted value classes built with one compile each: the part of ``dataclasses`` the simulator uses.

``@record`` gives a class the constructor (defaults, :class:`field` factories,
then ``__post_init__``), ``__repr__``, ``__eq__``, ``__match_args__`` and
``__hash__ = None`` of ``@dataclass(slots=True)``; ``frozen=True`` hashes the
fields and refuses assignment and deletion. ``dataclasses`` compiles each method
on its own and imports ``inspect`` for docstrings, most of ``simulate``'s import
time. Only ``stats.TestResult`` and ``stats.Comparison`` keep ``@dataclass``:
``bench/selftest.py`` calls ``dataclasses.replace`` on them.

The decorator returns a new class, rebuilt from the body with ``__slots__`` set
to the fields: an instance has no ``__dict__``, a field read is a slot load, and
assigning a name that is not a field raises ``AttributeError``, on a mutable
record too. Defaults and factories leave the class body, since a slot and a
class attribute cannot share a name; the constructor binds them. A mutable
record's constructor is ``__init__``. A frozen record's is ``__new__``: it fills
a mutable twin, a sibling class with the same ``__slots__``, with plain slot
stores, stores the record's class into ``__class__`` once, and only then runs
``__post_init__``, which so sees its real class and may still normalise a field
with ``object.__setattr__``. Copy, deepcopy and pickle rebuild a frozen record
through ``__reduce__``: its class and field tuple. ``__eq__``, ``__hash__`` and
``__reduce__`` are closures over the fields' ``attrgetter``, so each class
compiles only its constructor, under the filename ``<record Name>``, which a
profile keys its rows by. Trap: a method with a zero-argument ``super()`` or a
``__class__`` reference would still see the discarded class. No record has one.
"""
from operator import attrgetter

_MISSING = object()  # a field without a default
_FACTORY = object()  # the constructor default of a field built by a factory


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
    params, stores = [], []
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
        stores.append(f"self.{name} = {value}")
    post = ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    if frozen:
        env["_new"], env["_twin"] = object.__new__, type(cls)(cls.__name__, cls.__bases__, {"__slots__": names})
        head, body = ["cls", *params], ["self = _new(_twin)", *stores, "self.__class__ = cls", *post, "return self"]
    else:
        head, body = ["self", *params], [*stores, *post] or ["pass"]
    constructor = "__new__" if frozen else "__init__"
    source = f"def {constructor}({', '.join(head)}):\n    {'; '.join(body)}"
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), env)
    cls.__repr__, cls.__match_args__ = _repr, names
    cls.__eq__, cls.__hash__, reduce = _shared(names)
    if frozen:
        cls.__new__ = staticmethod(env["__new__"])  # as a class statement makes it
        cls.__setattr__, cls.__delattr__, cls.__reduce__ = _refuse_assignment, _refuse_deletion, reduce
    else:
        cls.__init__, cls.__hash__ = env["__init__"], None
    return cls


def _shared(names: tuple):
    """``__eq__``, ``__hash__`` and ``__reduce__`` over the tuple of the fields ``names``."""
    # attrgetter of one name returns the bare value, and of none is refused
    values = attrgetter(*names) if len(names) > 1 else lambda self: tuple(getattr(self, n) for n in names)

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __reduce__(self):
        return self.__class__, values(self)

    return __eq__, __hash__, __reduce__


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({shown})"


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def replace(obj, **changes):
    """``dataclasses.replace`` for records: a copy with ``changes``, built by the constructor."""
    for name in obj.__match_args__:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)
