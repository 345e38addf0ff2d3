"""Field checks shared by every reader of outside input and every ``__post_init__``.

Each check takes a value and the name of its field, returns the value in the
type the program uses, and raises ``ValueError`` naming the field when the
value does not fit. A bool is never a number, and an integer field takes an
int only: never a bool, never a float. Each boundary maps the ``ValueError``
to its own error: a ``ConfigError`` for a file, a ``RoomError`` for a frame.
``dumps`` writes all of the program's JSON, in one form.
"""
from __future__ import annotations

import json
import math
import reprlib
import sys
from enum import Enum
from typing import TypeVar

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
# every log line, trace line, wire frame and model digest, from one encoder
# built once instead of one per call.
dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _refuse(name: str, expected: str, value: object) -> ValueError:
    return ValueError(f"{name} must be {expected}, got {reprlib.repr(value)}")


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
        raise ValueError(f"{name} {reprlib.repr(values)} has a non-finite component")
    return components


def unit(values: object, name: str, length: int, tol: float) -> tuple[float, ...]:
    """``length`` numbers whose Euclidean norm is within ``tol`` of 1, as a tuple
    of floats; a non-number component makes the norm NaN, which fails."""
    components = _components(values, name, length)
    norm = math.hypot(*components)
    if not abs(norm - 1.0) <= tol:  # written so that a NaN norm fails
        raise ValueError(f"{name} norm {norm!r} of {reprlib.repr(values)} deviates from 1 beyond {tol}")
    return components
