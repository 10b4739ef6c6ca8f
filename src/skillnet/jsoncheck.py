"""The checks of every JSON object skillnet reads or writes (config sections,
checkpoint and trace-file headers, trace records, metrics events). A check
returns the value or raises ConfigError naming its dotted path; it never
coerces. A writer runs its reader's check through `plain`. Imports nothing
from skillnet, so every module can use it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, fields


class ConfigError(ValueError):
    """A malformed JSON field; the message names its dotted path, if any."""

    def __init__(self, fieldpath: str, message: str):
        super().__init__(f"{fieldpath}: {message}" if fieldpath else message)
        self.fieldpath = fieldpath


def join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def is_json_int(value) -> bool:
    """True for a loaded JSON integer: JSON true/false load as Python bools,
    which are ints too but are not counted."""
    return isinstance(value, int) and not isinstance(value, bool)


def typed(accepts, what: str):
    """A check that `accepts(value)` holds."""
    def check(value, fieldpath: str):
        if not accepts(value):
            raise ConfigError(fieldpath, f"must be {what}")
        return value
    return check


def INT(value, fieldpath: str):
    """A JSON integer in the signed 64-bit range: a larger one is an error
    here, not an overflow or a runaway loop where it is used."""
    if not is_json_int(value):
        raise ConfigError(fieldpath, "must be an integer")
    if not -2**63 <= value < 2**63:
        raise ConfigError(fieldpath, "must fit in a signed 64-bit integer")
    return value


def SEED(value, fieldpath: str):
    """A JSON integer >= 0: numpy's generators take no negative seed."""
    if INT(value, fieldpath) < 0:
        raise ConfigError(fieldpath, f"must be >= 0, got {value}")
    return value


def NUMBER(value, fieldpath: str):
    """A JSON number that is a finite float or an integer within the float
    range: a larger integer is an error here, not an OverflowError where it
    is used."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(fieldpath, f"must be a finite number, got {value}")
    elif not is_json_int(value):
        raise ConfigError(fieldpath, "must be a number")
    elif abs(value) > sys.float_info.max:
        raise ConfigError(fieldpath, f"must fit in a float (magnitude at most "
                                     f"{sys.float_info.max:.3g})")
    return value


STRING = typed(lambda v: isinstance(v, str), "a string")
BOOL = typed(lambda v: isinstance(v, bool), "a boolean")


def known(section: dict, path: str, keys) -> None:
    for key in section:
        if key not in keys:
            raise ConfigError(join(path, key), "unknown field")


def exact(obj, path: str, table: dict):
    """`obj`, if an object with exactly the keys of `table` (key -> check of its value)."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    known(obj, path, table)
    for key, check in table.items():
        if key not in obj:
            raise ConfigError(join(path, key), "missing required field")
        check(obj[key], join(path, key))
    return obj


def plain(check, *args):
    """check(*args), its ConfigError raised as a plain ValueError (a program fault)."""
    try:
        return check(*args)
    except ConfigError as exc:
        raise ValueError(str(exc)) from None


def fill(cls, section, path: str, table: dict, **given):
    """cls built from `given` and the keys of the JSON object `section`
    present in `table`, each checked; a key that is absent or null takes
    cls's default. A ValueError from cls names the key whose field its
    message starts with."""
    if not isinstance(section, dict):
        raise ConfigError(path, "must be an object")
    known(section, path, table)
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    kwargs = dict(given)
    for key, (name, check) in table.items():
        if section.get(key) is not None:
            kwargs[name] = check(section[key], join(path, key))
        elif name in required and name not in kwargs:
            raise ConfigError(join(path, key), "missing required field")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        message = str(exc)
        for key, (name, _) in table.items():
            if message.startswith(f"{name} "):
                raise ConfigError(join(path, key), message[len(name) + 1:]) from None
        raise ConfigError(path, message) from None


def versioned(header, version: int, path: str) -> dict:
    """The JSON object `header` without its format_version, which must be
    the JSON integer `version`."""
    if not isinstance(header, dict):
        raise ConfigError(path, "must be an object")
    found = header.get("format_version")
    if not is_json_int(found) or found != version:
        raise ConfigError(join(path, "format_version"), f"must be {version}, got {found!r}")
    return {key: value for key, value in header.items() if key != "format_version"}
