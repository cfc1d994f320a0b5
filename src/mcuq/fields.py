"""Boundary checks for config and spec fields: one rule each for a number, a
choice, a mapping's keys and JSON text.  A rejection is a ``ValueError`` naming
the field, the bad value and what the field accepts; ``name`` is printed just
before the value, as a key (``"epochs"``), a section and key (``"dataset:
spread"``) or a top-level config field with a colon (``"Ts:"``)."""

from __future__ import annotations

import json
import math

import numpy as np

_INTEGERS = (int, np.integer)
_FLOATS = (float, np.floating)


def number(name: str, value, lo=None, hi=None, *, integer: bool = False,
           open_lo: bool = False, open_hi: bool = False):
    """Return ``value`` if it is an int or a float (numpy scalars included;
    an int only, if ``integer``), never a bool, NaN or infinite, and within
    the bounds, which are closed unless opened; ``hi`` needs a ``lo``."""
    is_int = isinstance(value, _INTEGERS) and not isinstance(value, bool)
    is_float = isinstance(value, _FLOATS) and math.isfinite(value)
    if ((is_int or (is_float and not integer))
            and (lo is None or (value > lo if open_lo else value >= lo))
            and (hi is None or (value < hi if open_hi else value <= hi))):
        return value
    kind = "integer" if integer else "number"
    if hi is not None:
        span = f"{'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
        rule = f"an integer in {span}" if integer else f"in {span}"
    elif lo is None:
        rule = "an integer" if integer else "a finite number"
    elif lo == 0 or (integer and lo == 1 and not open_lo):
        sign = "non-negative" if lo == 0 and not open_lo else "positive"
        rule = f"a {sign} {kind}"
    else:
        rule = f"a {kind} {'>' if open_lo else '>='} {lo}"
    raise ValueError(f"{name} {value!r} is not {rule}")


def choice(name: str, value, choices):
    """Return ``value`` if it is one of ``choices``."""
    if value not in tuple(choices):
        raise ValueError(f"{name} {value!r} is not one of {tuple(choices)}")
    return value


def check_keys(name: str, d, allowed=None, required=()) -> None:
    """Reject anything but a mapping whose keys all lie in ``allowed`` (any
    key, if None) and include every key in ``required``."""
    if not isinstance(d, dict):
        raise ValueError(f"{name}: {d!r} is not a mapping")
    unknown = set(d) - set(d if allowed is None else allowed)
    if unknown:
        raise ValueError(f"{name}: unknown keys {sorted(unknown)}; "
                         f"known keys are {list(allowed)}")
    for key in required:
        if key not in d:
            raise ValueError(f"{name}: missing key {key!r}")


def parse_json(name: str, text: str | bytes):
    """``text``, or UTF-8, -16 or -32 bytes, as JSON; an error names
    ``name``."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSON or a Unicode decode error
        raise ValueError(f"{name}: {exc}") from None
