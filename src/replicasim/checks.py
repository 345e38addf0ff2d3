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
"""
from __future__ import annotations

import json
import math
import re
import reprlib
import sys
from enum import Enum
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import TypeVar

from replicasim import ConfigError

E = TypeVar("E", bound=Enum)

_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}
_NUMBER_TYPES = {int, float}

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


def ident(value: object, name: str) -> str:
    """A non-empty string, as ids are."""
    if not isinstance(value, str) or not value:
        raise _refuse(name, "a non-empty string", value)
    return value


def typed(value: object, name: str, kind: type) -> object:
    """A JSON object, list, string or bool, by ``kind``."""
    if not isinstance(value, kind):
        raise _refuse(name, _KIND_NAMES[kind], value)
    return value


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


def vector(values: object, name: str, length: int) -> tuple[float, ...]:
    """``length`` finite numbers, as a tuple of floats."""
    components = _components(values, name, length)
    if not all(map(math.isfinite, components)):
        raise ConfigError(f"{name} {reprlib.repr(values)} has a non-finite component")
    return components


def unit(values: object, name: str, length: int, tol: float) -> tuple[float, ...]:
    """``length`` numbers whose Euclidean norm is within ``tol`` of 1, as a tuple
    of floats; a non-number component makes the norm NaN, which fails."""
    components = _components(values, name, length)
    norm = math.hypot(*components)
    if not abs(norm - 1.0) <= tol:  # written so that a NaN norm fails
        raise ConfigError(f"{name} norm {norm!r} of {reprlib.repr(values)} deviates from 1 beyond {tol}")
    return components
