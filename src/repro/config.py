"""Typed parsing of the ``REPRO_*`` environment knobs.

Before this module every tunable read its variable ad hoc —
``shortest_path.py`` / ``decoder.py`` / ``obs/log.py`` each had their
own copy of the try/except — and, worse, each copy *silently fell back
to the default* on a malformed value, so
``REPRO_DECODE_CACHE_BYTES=many`` quietly ran with the default budget
instead of telling the operator their deployment knob was ignored.
The variables are listed in ``docs/architecture.md`` ("Configuration").

These helpers centralize the contract:

* an **unset or empty** variable yields the default — unchanged;
* a **well-formed** value is parsed, then clamped to its documented
  floor (``minimum``) where one exists — unchanged;
* a **malformed** value raises :class:`ConfigError` with a one-line,
  operator-facing message naming the variable.  The CLI maps it to a
  one-line ``error:`` + exit status 2 (:class:`repro.cli.CliError`)
  instead of a traceback.

:class:`ConfigError` subclasses :class:`ValueError` so call sites that
already guarded resolution with ``except ValueError`` keep working.
"""

from __future__ import annotations

import os

__all__ = [
    "ConfigError",
    "env_choice",
    "env_int",
    "env_raw",
]


class ConfigError(ValueError):
    """A ``REPRO_*`` variable holds a value that cannot be used.

    The message is one line and names the variable and the offending
    value — what an operator needs to fix their environment, nothing
    more.
    """


def env_raw(name: str) -> str | None:
    """The variable's stripped value, or ``None`` when unset/empty."""
    raw = os.environ.get(name)
    if raw is None:
        return None
    raw = raw.strip()
    return raw or None


def env_int(
    name: str,
    default: int,
    *,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int:
    """An integer knob; malformed values raise :class:`ConfigError`.

    Well-formed values outside ``[minimum, maximum]`` are clamped, not
    rejected — the documented floors (e.g. a frontier cache of at least
    one entry) are safety rails, and a clamped value still does what
    the operator asked for as nearly as the system allows.
    """
    raw = env_raw(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if minimum is not None:
        value = max(minimum, value)
    if maximum is not None:
        value = min(maximum, value)
    return value


def env_choice(name: str, default: str, choices) -> str:
    """An enumerated knob; values are case-folded before matching."""
    raw = env_raw(name)
    if raw is None:
        return default
    value = raw.lower()
    if value not in choices:
        raise ConfigError(
            f"{name} must be one of {', '.join(sorted(choices))}; "
            f"got {raw!r}"
        )
    return value
