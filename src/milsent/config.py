"""Flat key-value config files: `key = value`, `#` comments, UTF-8.

Repeated keys accumulate (used for pattern lists). Unknown keys are
rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

KNOWN_KEYS = frozenset(
    {
        # preprocess
        "min_doc_words",
        "min_count",
        "length_percentile",
        "cutoff_pattern",
        "date_pattern",
        "url_pattern",
        # event study
        "penny_threshold",
        "outlier_level",
        "window",
        # training
        "lambda",
        "learning_rate",
        "momentum",
        "epochs",
        "groups_per_batch",
        "kernel_gamma",
        "use_bias",
    }
)

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


class ConfigError(Exception):
    """A config file is unreadable or malformed."""


def load_flat_config(path) -> dict[str, list[str]]:
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, list[str]] = {}
    with handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                raise ConfigError(f"{path}: line {line_no}: expected 'key = value'")
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
            values.setdefault(key, []).append(value.strip())
    return values


def get_scalar(values: dict[str, list[str]], key: str, cast, default):
    """Last occurrence wins for scalar keys."""
    if key not in values:
        return default
    raw = values[key][-1]
    try:
        if cast is bool:
            return _BOOL[raw.lower()]
        return cast(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"config key {key!r}: bad value {raw!r}") from exc


def get_list(values: dict[str, list[str]], key: str, default: tuple[str, ...]):
    return tuple(values[key]) if key in values else default
