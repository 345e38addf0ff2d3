"""Field checks shared by every reader of outside input and every ``__post_init__``.

Each check takes a value and the name of its field, returns the value in the
type the program uses, and raises ``ConfigError`` naming the field when the
value does not fit. A bool is never a number, and an integer field takes an
int only: never a bool, never a float. ``numeral`` reads a number written as
text, a CSV cell or a command-line option, in JSON's number grammar, and
``loads`` is the one parse of JSON from outside the program. The CLI reports a
``ConfigError`` with the file or option it came from; ``decode_envelope``
refuses the frame with a ``RoomError``. ``dumps`` writes all of the program's
JSON, in one form, with one encoder built at import; it raises ``TypeError`` on
a value of no JSON type and ``RecursionError`` on one that contains itself.

A check that a wire record uses declares its accept test: an expression true of
a subset of what the check accepts, with the same result. :func:`codec`,
:func:`union` and :func:`post_init` compile code from a record's field table
that inlines each test and calls the check only to refuse, with its message.
"""
from __future__ import annotations

import json
import math
import re
import reprlib
import sys
from collections import namedtuple
from enum import Enum
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Callable, TypeVar

from replicasim import ConfigError

E = TypeVar("E", bound=Enum)

_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}
_NUMBER_TYPES = {int, float}
_ARRAYS, _INF, _hypot = (list, tuple), math.inf, math.hypot  # for the accept tests

# The bound of each field type. A count, a log's t_ms among them, is exact in
# every JSON reader: at most 2**53 - 1, the integer range of I-JSON (RFC 7493,
# section 2.2). A metrics time column (s) is at most a call of MAX_COUNT ms, so
# its sums and squares stay finite. A profile's latency or penalty (ms) is at
# most a day, so that even a call of a million steps ends within MAX_COUNT ms.
MAX_COUNT = 2**53 - 1
MAX_SECONDS = MAX_COUNT / 1000
MAX_LATENCY_MS = 86_400_000

# ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, the form of
# every log line, trace line, wire frame and model digest, from one C encoder
# built once (``JSONEncoder.encode`` builds one per call). It keeps no cycle
# markers, so a value that contains itself raises ``RecursionError``.
if c_make_encoder is None:  # an interpreter without the _json accelerator
    dumps = JSONEncoder(sort_keys=True, separators=(",", ":")).encode
else:
    _encode = c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, True)

    def dumps(value: object) -> str:
        return "".join(_encode(value, 0))


_INTEGER = re.compile(r"-?(?:0|[1-9][0-9]*)")
_NUMBER = re.compile(_INTEGER.pattern + r"(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _accepts(test: str, result: str = "v", write: Callable = None, **given: str):
    """Declare the accept test of the check below, in ``v`` and its parameters; its result where the
    test holds; what writes that to JSON, if not itself; and names for expressions in the parameters."""
    def declare(check):
        check.accept, check.result, check.write, check.given = test, result, write, given
        return check
    return declare


def _refuse(name: str, expected: str, value: object) -> ConfigError:
    return ConfigError(f"{name} must be {expected}, got {reprlib.repr(value)}")


def numeral(text: str, name: str, convert):
    """``convert(text)``, int or float, once ``text`` is a JSON number (RFC 8259, section 6) of
    that type in ASCII digits; int() and float() also take spaces, "_", "+1" and digits such as "٣"."""
    grammar, kind = (_INTEGER, "an integer") if convert is int else (_NUMBER, "a number")
    if grammar.fullmatch(text) is None:
        raise _refuse(name, f"{kind} in JSON form", text)
    # int() refuses more digits than the interpreter's limit (Python 3.10.7 on) with a bare ValueError.
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if convert is int and 0 < digits < len(text.lstrip("-")):
        raise _refuse(name, f"an integer of at most {digits} digits", text)
    return convert(text)


def loads(text: str) -> object:
    """The JSON document ``text``; malformed JSON, or JSON nested past the
    interpreter's recursion limit, is a ``ConfigError``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(str(exc)) from None


def _float(value: object) -> float:
    """``value`` as a float when it is an int or a float in float range, else NaN."""
    if isinstance(value, float):
        return value
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    return math.nan


@_accepts("type(v) is float and -_INF < v < _INF")
def finite(value: object, name: str) -> float:
    """A finite int or float, as a float."""
    number = _float(value)
    if not math.isfinite(number):
        raise _refuse(name, "a finite number", value)
    return number


def seconds(value: object, name: str) -> float:
    """A time column: an int or float of magnitude at most ``MAX_SECONDS``, as a float."""
    number = _float(value)
    if not abs(number) <= MAX_SECONDS:  # written so that NaN fails
        raise _refuse(name, f"a number of magnitude at most {MAX_SECONDS}", value)
    return number


def integer(value: object, name: str) -> int:
    """An int of either sign."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise _refuse(name, "an integer", value)
    return value


@_accepts("type(v) is int and 0 <= v <= MAX_COUNT")
def count(value: object, name: str) -> int:
    """A non-negative int of at most ``MAX_COUNT``."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= MAX_COUNT:
        raise _refuse(name, f"an integer in [0, {MAX_COUNT}]", value)
    return value


def probability(value: object, name: str, below_one: bool = False) -> float:
    """A number in [0, 1], or in [0, 1) when ``below_one``."""
    number = _float(value)
    if not (0.0 <= number < 1.0 if below_one else 0.0 <= number <= 1.0):
        raise _refuse(name, "in [0, 1)" if below_one else "in [0, 1]", value)
    return number


@_accepts("type(v) is str and v")
def ident(value: object, name: str) -> str:
    """A non-empty string, as ids are."""
    if not isinstance(value, str) or not value:
        raise _refuse(name, "a non-empty string", value)
    return value


@_accepts("type(v) is kind")
def typed(value: object, name: str, kind: type) -> object:
    """A JSON object, list, string or bool, by ``kind``."""
    if not isinstance(value, kind):
        raise _refuse(name, _KIND_NAMES[kind], value)
    return value


# An attribute of an Enum class is read through ``EnumType.__getattr__``: slow.
@_accepts("type(v) is str and v in values", result="values[v]", values="enum._value2member_map_")
def member(value: object, name: str, enum: type[E]) -> E:
    """The member of ``enum`` whose value is ``value``, looked up in the
    enum's value map, which is what ``enum(value)`` does after more calls."""
    try:
        return enum._value2member_map_[value]  # type: ignore[attr-defined]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise _refuse(name, f"one of {', '.join(repr(m.value) for m in enum)}", value) from None


def _components(values: object, name: str, length: int) -> tuple[float, ...]:
    """``length`` values as floats, NaN for each that is not a number."""
    if not isinstance(values, (list, tuple)) or len(values) != length:
        raise _refuse(name, f"a list of {length} numbers", values)
    if _NUMBER_TYPES.issuperset(map(type, values)):
        try:
            return tuple(map(float, values))
        except OverflowError:  # an int beyond float range
            pass
    return tuple(map(_float, values))


# The tests of ``vector`` and ``unit`` take 3 or 4 floats: v[-1] is the last.
_FLOATS = ("type(v) in _ARRAYS and 3 <= len(v) == length <= 4"
           " and type(v[0]) is type(v[1]) is type(v[2]) is type(v[-1]) is float")


@_accepts(_FLOATS + " and -_INF < v[0] + v[1] + v[2] + v[-1] < _INF", result="tuple(v)", write=list)
def vector(values: object, name: str, length: int) -> tuple[float, ...]:
    """``length`` finite numbers, as a tuple of floats."""
    components = _components(values, name, length)
    if not all(map(math.isfinite, components)):
        raise ConfigError(f"{name} {reprlib.repr(values)} has a non-finite component")
    return components


@_accepts(_FLOATS + " and abs(_hypot(*v) - 1.0) <= tol", result="tuple(v)", write=list)
def unit(values: object, name: str, length: int, tol: float) -> tuple[float, ...]:
    """``length`` numbers whose Euclidean norm is within ``tol`` of 1, as a tuple
    of floats; a non-number component makes the norm NaN, which fails."""
    components = _components(values, name, length)
    norm = math.hypot(*components)
    if not abs(norm - 1.0) <= tol:  # written so that a NaN norm fails
        raise ConfigError(f"{name} norm {norm!r} of {reprlib.repr(values)} deviates from 1 beyond {tol}")
    return components


@_accepts("type(v) is tuple and len(v) == 3 and type(v[0]) is type(v[1]) is type(v[2]) is float "
          "and 0.0 <= v[0] <= 1.0 and 0.0 <= v[1] <= 1.0 and 0.0 <= v[2] <= 1.0")
def color(values: object, name: str) -> tuple[float, ...]:
    """Three numbers in [0, 1], as a highlight color is, as a tuple of floats."""
    components = vector(values, name, 3)
    for component in components:
        probability(component, f"{name} component")
    return components


# --- Field tables ---------------------------------------------------------------
# A wire record declares its fields once, in refusal order, as (wire name,
# attribute, check, wire default[, name in messages, if not the wire name]).
# The check is a function of this module, or one and its parameters after the
# name, as ``(vector, 3)``; an ``Enum``, read with ``member``, written as its
# value; a :class:`Codec`, for a nested record; or ``(list,)`` or ``(list,
# codec)``, a JSON list read as a tuple, item by item through the codec. The
# wire default is None, where absent and null read as None, unchecked, and None
# is written as null; or one of:
REQUIRED = object()  # absent reads as None, which the check refuses
OPTIONAL = object()  # absent reads as the record's own default
OMITTED = object()   # as None, but None is not written
_checks, _set = sys.modules[__name__], object.__setattr__  # for the compiled code
Codec = namedtuple("Codec", "encode decode")  # a wire record's encoder to a JSON object, and its decoder


def _entries(fields):
    """Each entry as (wire name, attribute, check, its parameters, wire default, name in messages)."""
    for wire, attr, check, default, *label in fields:
        check, *params = check if type(check) is tuple else (check,)
        if isinstance(check, type) and issubclass(check, Enum):
            check, params = member, [check]
        yield wire, attr, check, params, default, label[0] if label else wire


def _bind(env: dict, value: object) -> str:
    env[f"_k{len(env)}"] = value
    return f"_k{len(env) - 1}"


def _read(env: dict, check, params, default, label: str) -> tuple:
    """Lines that bind what a field's check uses, and the expression that reads its value ``v``."""
    if type(check) is Codec:
        setup, read = [], f"{_bind(env, check.decode)}(v)"
    elif check is list:
        setup, items = _read(env, typed, [list], REQUIRED, label)
        read = f"tuple(map({_bind(env, params[0].decode)}, {items}))" if params else f"tuple({items})"
    else:
        names = check.__code__.co_varnames[2:check.__code__.co_argcount]
        bound = dict(zip(names, params))
        bound.update((name, eval(expression, globals(), bound)) for name, expression in check.given.items())
        setup = [f"{name} = {_bind(env, value)}" for name, value in bound.items()]
        call = ", ".join(("v", repr(label), *names))
        read = f"({check.result}) if ({check.accept}) else _checks.{check.__name__}({call})"
    return setup, f"v if v is None else {read}" if default is None or default is OMITTED else read


def _reads(env: dict, cls, entries, label) -> list:
    """Lines that refuse a ``doc`` that is no JSON object, as ``label`` if given, then read each
    field into ``f_<attribute>``, but for the checks that the record's :func:`post_init` makes."""
    setup, read = _read(env, typed, [dict], REQUIRED, label)
    lines = ["v = doc", *setup, f"doc = {read}"] if label else []
    checked = getattr(getattr(cls, "__post_init__", None), "checked", ())
    for wire, attr, check, params, default, name in entries:
        if default is OPTIONAL:  # the defaults of a record's constructor are those of its last fields
            own = cls.__new__.__defaults__[cls.__match_args__.index(attr) - len(cls.__match_args__)]
        get = f"doc.get({wire!r}, {_bind(env, own)})" if default is OPTIONAL else f"doc.get({wire!r})"
        setup, read = ([], "v") if attr in checked else _read(env, check, params, default, name)
        lines += [f"v = {get}", *setup, f"f_{attr} = {read}"]
    return lines


def _compile(env: dict, name: str, signature: str, lines: list, eager: bool = False):
    """The function ``signature`` with body ``lines``, in ``env``: compiled now if ``eager``, else on its first call."""
    if not eager:
        stub = type(_first_call)(_first_call.__code__, env, signature[:signature.index("(")])
        stub.__kwdefaults__ = {"stub": stub, "source": (env, name, signature, lines, True)}
        return stub
    exec(compile(f"def {signature}:\n    " + "\n    ".join(lines), f"<{name}>", "exec"), env)
    return env[signature[:signature.index("(")]]


def _first_call(v, *, stub, source):  # the stub takes the body's code, so that each holder of it then runs the body
    stub.__code__, stub.__kwdefaults__ = _compile(*source).__code__, None
    return stub(v)


def post_init(fields):
    """A ``__post_init__`` that reads each field checked by a function of this module, and stores
    what it reads; it keeps ``fields`` for the record's codec, and the attributes it checks."""
    env, lines = dict(globals()), []
    entries = [entry for entry in _entries(fields) if entry[2] not in (member, list) and type(entry[2]) is not Codec]
    for wire, attr, check, params, default, label in entries:
        setup, read = _read(env, check, params, default, label)
        lines += [f"v = self.{attr}", *setup, f"r = {read}", f"if r is not v: _set(self, {attr!r}, r)"]
    built = _compile(env, "post_init", "__post_init__(self)", lines, eager=True)
    built.fields, built.checked = fields, frozenset(attr for _, attr, *_ in entries)
    return built


def codec(cls, fields, label: str = None, tag: tuple = (), wrap=None) -> Codec:
    """The codec of the frozen record ``cls`` from its field table. The decoder refuses a value
    that is not a JSON object, as ``label``, then each field in table order. A variant of a
    :func:`union` is written with its ``tag`` (wire name, value), and sent in the record ``wrap``."""
    env, entries = {**globals(), "_cls": cls, "_wrap": wrap}, [*_entries(fields)]
    made = f"_cls({', '.join(f'f_{name}' for name in cls.__match_args__)})"
    lines = [*_reads(env, cls, entries, label), f"return _wrap({made})" if wrap else f"return {made}"]
    decode = _compile(env, f"codec {cls.__qualname__}", "decode(doc)", lines)
    items, omitted = [f"{tag[0]!r}: {tag[1]!r}"] if tag else [], []
    for wire, attr, check, params, default, _ in entries:
        value = f"p.{attr}"
        if type(check) is Codec:
            written = f"{_bind(env, check.encode)}({value})"
        elif check is list:
            written = f"list(map({_bind(env, params[0].encode)}, {value}))" if params else f"list({value})"
        elif check is member:
            written = f"{value}._value_"  # a slot read, not the ``value`` property
        else:
            written = f"{_bind(env, check.write)}({value})" if check.write else value
        if default is OMITTED:
            omitted.append(f"if {value} is not None: d[{wire!r}] = {written}")
        else:
            items.append(f"{wire!r}: None if {value} is None else {written}" if default is None and written != value
                         else f"{wire!r}: {written}")
    unwrap = [f"p = p.{wrap.__match_args__[0]}"] if wrap else []
    lines = [*unwrap, f"d = {{{', '.join(items)}}}", *omitted, "return d"]
    return Codec(_compile(env, f"codec {cls.__qualname__}", "encode(p)", lines), decode)


def union(label: str, tag: str, variants, common=()) -> Codec:
    """One codec for the records of one JSON object form, told apart by the field ``tag``:
    ``variants`` holds (tag value, record, field table[, one-field record that wraps it]). The
    decoder refuses a value that is not a JSON object, as ``label``, then the ``common`` fields,
    then the tag, looked up only if a string, then the variant's own fields."""
    encoders, decoders = {}, {}
    for value, cls, fields, *wrap in variants:
        wrap = wrap[0] if wrap else None
        encoders[wrap or cls], decoders[value] = codec(cls, (*common, *fields), tag=(tag, value), wrap=wrap)

    def unknown(value):
        raise ConfigError(f"unknown {label} {tag} {value!r}")

    def unsupported(value):  # a fault of the sender, not a refusal
        raise TypeError(f"unsupported {label} {value!r}")

    env = {**globals(), "_variants": decoders}
    refuse = _entries((*common, (tag, tag, Codec(None, unknown), REQUIRED)))
    env["_unknown"] = _compile(env, f"codec {label}", "unknown(doc)", _reads(env, None, refuse, None))
    lines = [*_reads(env, None, (), label), f"v = doc.get({tag!r})",
             "return (_variants.get(v, _unknown) if type(v) is str else _unknown)(doc)"]
    return Codec(lambda value: encoders.get(type(value), unsupported)(value),
                 _compile(env, f"codec {label}", "decode(doc)", lines))
