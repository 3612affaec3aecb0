"""Generic dataclass <-> JSON-dict codec for configuration trees.

The configuration layer is built from frozen dataclasses whose fields
are primitives, enums, or further such dataclasses. That regularity
makes a schema-free codec possible: :func:`encode` walks values into
plain JSON types and :func:`decode` rebuilds them from the resolved type
hints — no per-class ``to_dict``/``from_dict`` boilerplate, and new
config fields serialise automatically (with dataclass defaults filling
in anything a stored payload predates).

Used by :class:`repro.sim.spec.SimSpec` and anything else that needs a
faithful round trip of :class:`~repro.config.gpu.GPUConfig` /
:class:`~repro.config.scheduler.SchedulerConfig` trees.
"""

from __future__ import annotations

import dataclasses
import enum
import typing
from typing import Any, Optional, TypeVar, Union

from repro.errors import ConfigError

T = TypeVar("T")


def encode(value: Any) -> Any:
    """JSON-serialisable form of a config value (recursively)."""
    if value is None:
        return None
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)):
        return value
    raise ConfigError(
        f"cannot encode {type(value).__name__!r} values: {value!r}"
    )


def _strip_optional(hint: Any) -> Any:
    """``Optional[X]`` / ``X | None`` -> ``X``; other hints unchanged."""
    origin = typing.get_origin(hint)
    if origin is Union or (
        origin is not None and origin.__module__ == "types"
        and origin.__name__ == "UnionType"
    ):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return hint


def _join(path: str, key: str) -> str:
    """Extend a dotted key path (``"scheduler" + "dms" -> "scheduler.dms"``)."""
    return f"{path}.{key}" if path else key


def _at(path: str) -> str:
    """Human form of a key path for error messages."""
    return f" at {path!r}" if path else ""


def _admits_none(hint: Any) -> bool:
    """Whether a field typed ``hint`` may hold ``None``: ``Any``,
    ``Optional[X]`` or ``X | None``."""
    return hint is Any or type(None) in typing.get_args(hint)


def _wrong_type(hint: Any, data: Any, path: str) -> ConfigError:
    got = "null" if data is None else f"{type(data).__name__} ({data!r})"
    expected = getattr(hint, "__name__", str(hint))
    return ConfigError(f"wrong type{_at(path)}: expected {expected}, got {got}")


def decode_value(hint: Any, data: Any, path: str = "") -> Any:
    """Decode one value of a field typed ``hint``, naming ``path`` in
    any :class:`ConfigError`."""
    if data is None:
        if _admits_none(hint):
            return None
        raise _wrong_type(hint, data, path)
    hint = _strip_optional(hint)
    if isinstance(hint, type):
        if dataclasses.is_dataclass(hint):
            return decode(hint, data, path=path)
        if issubclass(hint, enum.Enum):
            try:
                return hint(data)
            except ValueError:
                valid = ", ".join(repr(m.value) for m in hint)
                raise ConfigError(
                    f"invalid {hint.__name__}{_at(path)}: {data!r} "
                    f"(valid: {valid})"
                ) from None
        if hint in (int, float) and isinstance(data, bool):
            raise _wrong_type(hint, data, path)
        if hint is float and isinstance(data, int):
            try:
                return float(data)
            except OverflowError:
                raise ConfigError(
                    f"number out of range{_at(path)}: {data!r}"
                ) from None
        if hint in (int, float, str, bool) and not isinstance(data, hint):
            raise _wrong_type(hint, data, path)
    origin = typing.get_origin(hint)
    if origin in (list, tuple):
        if not isinstance(data, list):
            raise _wrong_type(list, data, path)
        args = typing.get_args(hint)
        item_hint = args[0] if args else Any
        items = [
            decode_value(item_hint, item, f"{path}[{i}]")
            for i, item in enumerate(data)
        ]
        return tuple(items) if origin is tuple else items
    return data


def decode(cls: type[T], data: Any, *, path: str = "") -> T:
    """Rebuild a dataclass ``cls`` from :func:`encode` output.

    Unknown keys in ``data`` are rejected (they signal a payload from a
    newer schema — silently dropping them would decode to a *different*
    configuration than the one stored); missing keys fall back to the
    dataclass defaults, and a missing field without one is named.
    ``None`` decodes only into an ``Optional`` or ``Any`` field. Every
    :class:`ConfigError` raised below names the full dotted key path of
    the offending value (``path`` seeds the
    prefix — e.g. ``"scheduler"`` when decoding the scheduler subtree of
    a :class:`~repro.sim.spec.SimSpec` wire payload), so a client
    submitting a malformed nested payload is told *which* key to fix,
    not just which dataclass choked.
    """
    if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
        raise ConfigError(f"decode target must be a dataclass, got {cls!r}")
    if not isinstance(data, dict):
        raise ConfigError(
            f"cannot decode {cls.__name__}{_at(path)} from "
            f"{type(data).__name__} ({data!r})"
        )
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} field(s) in payload: "
            + ", ".join(_join(path, k) for k in sorted(unknown))
        )
    missing = [
        f.name for f in dataclasses.fields(cls)
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(
            f"missing {cls.__name__} field(s) in payload: "
            + ", ".join(_join(path, k) for k in missing)
        )
    kwargs = {
        name: decode_value(hints.get(name, Any), value, _join(path, name))
        for name, value in data.items()
    }
    return cls(**kwargs)


def decode_optional(
    cls: type[T], data: Any, *, path: str = ""
) -> Optional[T]:
    """Like :func:`decode` but maps ``None`` through."""
    if data is None:
        return None
    return decode(cls, data, path=path)
