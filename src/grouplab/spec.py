"""The one grammar of ``head[:rest]`` spec strings: groups, lift profiles,
weights, test functions and test sets.

The head is case-insensitive.  A head with parameters reads its rest as
comma-separated ``key=value`` parts with case-insensitive keys, each value
converted by the type the head declares for its key.  Empty parts are
skipped; an unknown key, a part without ``=`` or a bad value is a
``ConfigError``.  ``is_finite`` and ``steps_of`` are the one finite-number
and the one multiple-of-a-step rule that every config value obeys;
``integer`` and ``real`` read every number a spec holds, in ASCII only, and
also a samples file's node index and the ``--tol`` flag.
"""
from __future__ import annotations

import numbers
import re
import sys


class ConfigError(ValueError):
    """Malformed configuration or unreadable referenced path (CLI exit 2)."""


def split_spec(spec: str) -> tuple[str, str]:
    """``(head, rest)`` of ``head[:rest]``: the head lower-cased, the rest stripped."""
    if not isinstance(spec, str):
        raise ConfigError(f"a spec must be a string, got {spec!r}")
    head, _, rest = spec.strip().partition(":")
    return head.lower(), rest.strip()


def is_finite(value) -> bool:
    """A real number within float range; bools, NaN and infinities never count."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def steps_of(value, per_unit: int) -> int | None:
    """The count of 1/per_unit steps in ``value`` when it is exactly a finite,
    nonnegative multiple of 1/per_unit; None for any other value."""
    if not is_finite(value) or value < 0:
        return None
    steps = per_unit * value
    return int(steps) if steps % 1 == 0 else None   # an overflow to inf leaves NaN


_INTEGER = re.compile(r"-?[0-9]+")


def integer(text) -> int:
    """The integer ``text`` spells in ASCII digits, with an optional leading '-'
    (a Python int, as a library caller may pass for a seed, spells itself).

    Python's ``int`` also reads other scripts' digits, '_' separators, a '+'
    and surrounding spaces, which would let ``zn:1_2`` run as ``zn:12``.
    """
    if not _INTEGER.fullmatch(str(text)):
        raise ValueError("an integer is ASCII digits with an optional leading '-'")
    return int(text)


def real(text: str) -> float:
    """``float(text)`` of ASCII text with no '_' separator."""
    if not text.isascii() or "_" in text:
        raise ValueError("a number is ASCII text with no '_'")
    return float(text)


def parse_value(text: str, kind, what: str):
    """``kind(text)``; a failed conversion, named with its reason, or a
    non-finite float is a ConfigError."""
    try:
        value = kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from exc
    if isinstance(value, float) and not is_finite(value):
        raise ConfigError(f"bad {what} {text!r}: not finite")
    return value


def parse_params(rest: str, what: str, **types) -> dict:
    """The ``key=value`` parts of ``rest``, each converted by ``types[key]``.

    Only the keys present are returned; the caller supplies defaults.  With no
    ``types`` the head takes no parameters and any part is an error.
    """
    params = {}
    for part in filter(None, (p.strip() for p in rest.split(","))):
        key, sep, value = part.partition("=")
        key = key.strip().lower()
        if not sep:
            raise ConfigError(f"malformed {what} parameter {part!r}")
        if key not in types:
            known = ", ".join(sorted(types)) or "none"
            raise ConfigError(f"unknown {what} parameter {key!r} (accepted: {known})")
        params[key] = parse_value(value.strip(), types[key], f"{what} {key}")
    return params
