"""Flat key-value config files: `key = value`, `#` comments, UTF-8.

Repeated keys accumulate (used for pattern lists). Unknown keys are
rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

from dataclasses import fields, replace

from milsent.corpus import UsageError, utf8_lines

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


class ConfigError(UsageError):
    """A config file is unreadable or malformed."""


def load_flat_config(path, known_keys) -> dict[str, list[tuple[int, str]]]:
    """Map each key to its `(line number, raw value)` occurrences, in file order."""
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, list[tuple[int, str]]] = {}
    with handle:
        for line_no, line in enumerate(utf8_lines(handle, path, ConfigError), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                raise ConfigError(f"{path}: line {line_no}: expected 'key = value'")
            key = key.strip()
            if key not in known_keys:
                raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
            values.setdefault(key, []).append((line_no, value.strip()))
    return values


def apply(path, values: dict[str, list[tuple[int, str]]], base, keys: dict[str, str]):
    """Return the dataclass `base` with each key of `keys` found in `values`
    set on its field, cast to the type of the field's default.

    A tuple field takes every occurrence of its key, in file order; any other
    field takes the last. Each value passes through `dataclasses.replace`, so
    the dataclass's own checks run on it.
    """
    defaults = {f.name: f.default for f in fields(base)}
    config = base
    for key, field in keys.items():
        kind = type(defaults[field])
        occurrences = values.get(key, [])
        if kind is not tuple:
            occurrences = occurrences[-1:]
        for i, (line_no, raw) in enumerate(occurrences):
            try:
                if kind is tuple:
                    # one more entry per step, so a bad entry fails at its own line
                    value = tuple(r for _, r in occurrences[: i + 1])
                elif kind is bool:
                    value = _BOOL.get(raw.lower())
                    if value is None:
                        raise ValueError(f"expected one of {', '.join(_BOOL)}")
                else:
                    value = kind(raw)
                config = replace(config, **{field: value})
            except ValueError as exc:
                raise ConfigError(f"{path}: line {line_no}: {key} = {raw}: {exc}") from exc
    return config
