"""Lightweight argument validation helpers.

The workflow accepts user configuration at many entry points (prediction
engine settings, NAS settings, dataset settings).  These helpers give
uniform, early, human-readable errors instead of deep numpy stack traces.
"""

from __future__ import annotations

import dataclasses
import enum
import typing
from pathlib import PurePath

__all__ = [
    "ValidationError",
    "load_fields",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_in_range",
    "ensure_plain_name",
]


class ValidationError(ValueError):
    """Raised when a user-supplied configuration value is invalid."""


def load_fields(payload: dict, cls: type, section: str) -> dict:
    """The keyword arguments of dataclass ``cls`` that stored ``section`` holds.

    The section must be a JSON object whose every key is a field of
    ``cls`` and whose every leaf value has its field's JSON type; a list
    comes back as a tuple, an enum's label as the member, and a nested
    section (a dataclass field) as its dataclass, loaded the same way.
    ``null`` turns an optional section off; a required one has no off.
    """
    if not isinstance(payload, dict):
        raise ValidationError(f"{section} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValidationError(f"unknown key in {section}: {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    fields = dict(payload)
    for key, value in payload.items():
        hint = hints[key]
        nested = next(
            (h for h in typing.get_args(hint) or (hint,) if dataclasses.is_dataclass(h)), None
        )
        if nested is not None:
            if value is None and hint is nested:
                raise ValidationError(f"{key} cannot be null: omit it to take its defaults")
            fields[key] = None if value is None else nested(**load_fields(value, nested, key))
        elif not _stores(value, hint):
            raise ValidationError(f"{section}.{key} must be {_describe(hint)}, got {value!r}")
        elif typing.get_origin(hint) is tuple:
            fields[key] = tuple(value)
        elif isinstance(hint, enum.EnumMeta):
            fields[key] = hint[value.upper()]
    return fields


def _stores(value, hint) -> bool:
    """Whether JSON ``value`` stores a ``hint``: an enum as its label, a tuple as a list."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        args = args[:1] * len(value) if args[1:] == (...,) else args
        return len(args) == len(value) and all(map(_stores, value, args))
    if args:  # a union
        return any(_stores(value, arg) for arg in args)
    if isinstance(hint, enum.EnumMeta):
        return isinstance(value, str) and value.upper() in hint.__members__
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _describe(hint) -> str:
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        count = "" if args[1:] == (...,) else f"{len(args)} "
        return f"a list of {count}{_describe(args[0])}"
    if args:
        return " or ".join(map(_describe, args))
    if isinstance(hint, enum.EnumMeta):
        return "one of " + ", ".join(repr(name.lower()) for name in hint.__members__)
    return "null" if hint is type(None) else hint.__name__


def ensure_positive(value: float, name: str) -> float:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")
    return value


def ensure_non_negative(value: float, name: str) -> float:
    """Require ``value >= 0``."""
    if not value >= 0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")
    return value


def ensure_in_range(
    value: float, name: str, low: float, high: float, *, inclusive: bool = True
) -> float:
    """Require ``low <= value <= high`` (or strict if ``inclusive=False``)."""
    ok = low <= value <= high if inclusive else low < value < high
    if not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ValidationError(f"{name} must be in {bounds}, got {value!r}")
    return value


def ensure_plain_name(value: str, name: str) -> str:
    """Require one path component: not ``''``, ``'.'``, ``'..'`` or a path."""
    if value in ("", "..") or PurePath(value).name != value:
        raise ValidationError(f"{name} must be one plain directory name, got {value!r}")
    return value
