"""Strict reading of the JSON documents that describe a run: each one is read
against a table of key -> ``parse(key, value)``, and specs pick their
constructor and table by ``kind``. :func:`dump` writes every JSON document
of a run in one form; POVM files use an exact template of the same form."""

import json
import math
import numbers

import numpy as np


def integer(name: str, value) -> int:
    """``value`` as an int in the int64 range: an integer or an integral float, never a bool;
    builtins skip the slow ABC test."""
    integral = isinstance(value, (int, numbers.Integral)) or isinstance(value, float) and value.is_integer()
    if not integral or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{name} lies outside the int64 range")
    return int(value)


def real(name: str, value) -> float:
    """``value`` as a float: any finite real number, never a bool; builtins skip the slow ABC test."""
    if not isinstance(value, (float, int, numbers.Real)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} lies beyond the float range") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def pairs(name: str, value) -> np.ndarray:
    """``value``, nested arrays of [re, im] pairs of numbers (never strings, booleans or nulls), as a float array."""
    arr = np.asarray(value, dtype=object)  # entries keep their types: a boolean is not read as 0 or 1
    numeric = (int, float, np.integer, np.floating)
    if arr.shape[-1:] != (2,) or any(t is bool or not issubclass(t, numeric) for t in set(map(type, arr.flat))):
        raise ValueError(f"{name} must be an array of [re, im] pairs of numbers")
    try:
        return arr.astype(float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} has an entry beyond the float range") from None


def read(what: str, doc, parsers: dict, defaults: dict | None = None) -> dict:
    """The values of the JSON object ``doc`` (``what`` in errors), parsed in table order. Keys outside
    ``parsers`` are rejected; an absent key takes its ``defaults`` value and is required without one."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    if set(doc) - set(parsers):
        raise ValueError(f"unknown {what} keys: {sorted(set(doc) - set(parsers))}")
    for key in parsers:
        if key not in doc and key not in (defaults or {}):
            raise ValueError(f"{what} is missing required key {key!r}")
    return {key: parse(key, doc[key]) if key in doc else defaults[key] for key, parse in parsers.items()}


def build(what: str, spec, kinds: dict):
    """``constructor(*values)`` for ``(constructor, parsers) = kinds[spec["kind"]]``,
    where ``parsers`` reads the values of the spec's other keys."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"{what} must be a JSON object with a 'kind' in {sorted(kinds)}, got {spec!r}")
    constructor, parsers = kinds[kind]
    return constructor(*read(what, {key: v for key, v in spec.items() if key != "kind"}, parsers).values())


def dump(doc, path=None) -> str:
    """``doc`` as JSON with sorted keys, indented by 2 and ending in a newline; written to ``path`` if given.
    A NaN or infinite float, which JSON cannot hold, is a ``ValueError``."""
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
