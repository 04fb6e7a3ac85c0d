"""The line-record text format every pipeline file uses.

A text file is UTF-8; each non-blank line is one record. Readers take
``(where, line)`` pairs from :func:`read_lines` and map each line to an
object inside :func:`parse_errors`, so a bad byte, a bad field count or a
value the object's constructor rejects all surface as one
:class:`ParseError` that names ``path:line``. This module is the only
place in the package that reads text from disk; config files, a single
JSON object each, are read here too. Every file the package writes, text
or binary, is written by :func:`write_bytes`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConfigError, ParseError, ValidationError

# what parsing one row may raise; parse_errors turns each into a ParseError
ROW_ERRORS = (ValueError, KeyError, TypeError, IndexError, ValidationError, ConfigError)


def read_text(path: str | Path) -> str:
    """The whole file, decoded as UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def read_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """``("path:lineno", line)`` for each non-blank line, numbered from 1."""
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if line.strip():
            yield f"{path}:{lineno}", line


def tab_fields(line: str, n: int) -> list[str]:
    """The line's tab-separated fields, which must number exactly ``n``."""
    fields = line.split("\t")
    if len(fields) != n:
        raise ValueError(f"expected {n} tab-separated fields, got {len(fields)}")
    return fields


@contextmanager
def parse_errors(where: str | Path, error: type[Exception] = ParseError):
    """Re-raise what parsing a row (or a whole file) raises as
    ``error("<where>: ...")``."""
    try:
        yield
    except ROW_ERRORS as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise error(f"{where}: {detail}") from exc


def write_bytes(path: str | Path, data: bytes) -> None:
    """The file at ``path``, created or replaced, holding exactly ``data``.

    The bytes go to a temporary file beside ``path`` that then replaces it
    in one rename, so a run killed or failing mid-write leaves the previous
    file (or none), never a truncated one; a failed write removes the
    temporary file. Nothing is synced to disk, so this guards against a
    dying process, not against a power cut.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: Iterable[str], end: str = "\n") -> None:
    """Each line followed by ``end``, UTF-8; no lines make an empty file."""
    write_bytes(path, "".join(line + end for line in lines).encode("utf-8"))


def fits(default, value) -> bool:
    """Whether a value can stand in for a field's default: an int for a
    float, a list or tuple for a tuple (each element fitting the first
    default element), never a bool for a number, and never NaN or an
    infinity for a float."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(fits(default[0], v) for v in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, type(default))


def read_config(cls, path: str | Path, error: type[Exception] = ConfigError):
    """Dataclass ``cls`` built from the JSON object at ``path``: its keys
    over the field defaults. A key that is not a field, a value of another
    type than the field's default, or a value ``cls`` rejects raises
    ``error`` naming the path."""
    with parse_errors(path, error):
        fields = json.loads(read_text(path))
        if not isinstance(fields, dict):
            raise ValueError("config must be a JSON object")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        unknown = set(fields) - set(defaults)
        if unknown:
            raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
        for name, value in fields.items():
            if not fits(defaults[name], value):
                raise TypeError(
                    f"{cls.__name__}.{name} expects {type(defaults[name]).__name__}, "
                    f"got {value!r}"
                )
            if isinstance(value, list):
                fields[name] = tuple(value)
        return cls(**fields)
