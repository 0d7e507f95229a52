"""Strict reading of the JSON documents that describe a run: each one is read
against a table of key -> ``parse(key, value)``, and specs pick their
constructor and table by ``kind``."""

import math
import numbers


def integer(name: str, value) -> int:
    """``value`` as an int: an integer or an integral float, never a bool; builtins skip the slow ABC test."""
    integral = isinstance(value, (int, numbers.Integral)) or isinstance(value, float) and value.is_integer()
    if integral and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def real(name: str, value) -> float:
    """``value`` as a float: any finite real number, never a bool; builtins skip the slow ABC test."""
    if not isinstance(value, (float, int, numbers.Real)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


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
