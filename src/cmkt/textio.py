"""The line-record text format every pipeline file uses, and the one
binary tensor container.

A text file is UTF-8; each non-blank line is one record. Readers take
``(where, line)`` pairs from :func:`read_lines` and map each line to an
object inside :func:`parse_errors`, so a bad byte, a bad field count or a
value the object's constructor rejects all surface as one
:class:`ParseError` that names ``path:line``. Config files, a single JSON
object each, are read here too, and so are the binary files, checkpoints
and feature banks alike, through :func:`read_tensors`. This module is the
only place in the package that reads a file from disk; every file the
package writes, text or binary, is written by :func:`write_bytes`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

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


def config_from(cls, fields):
    """Dataclass ``cls`` built from the JSON object ``fields``: its keys over
    the field defaults. A key that is not a field or a value of another type
    than the field's default (an int for a field without one) raises, and so
    does a value ``cls`` rejects. ``fields`` itself is left unchanged."""
    if not isinstance(fields, dict):
        raise ValueError("config must be a JSON object")
    defaults = {f.name: 0 if f.default is dataclasses.MISSING else f.default
                for f in dataclasses.fields(cls)}
    unknown = set(fields) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    for name, value in fields.items():
        if not fits(defaults[name], value):
            raise TypeError(
                f"{cls.__name__}.{name} expects {type(defaults[name]).__name__}, got {value!r}"
            )
    return cls(**{name: tuple(value) if isinstance(value, list) else value
                  for name, value in fields.items()})


def read_config(cls, path: str | Path, error: type[Exception] = ConfigError):
    """Dataclass ``cls`` built by :func:`config_from` from the JSON object at
    ``path``; whatever that rejects raises ``error`` naming the path."""
    with parse_errors(path, error):
        return config_from(cls, json.loads(read_text(path)))


def file_digest(path: str | Path) -> str:
    """The 32 hex digits of the blake2b digest of the file's bytes."""
    return hashlib.blake2b(Path(path).read_bytes(), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# the tensor container: magic, a u32 header length, a sorted-key compact
# JSON header {version, meta, tensors: [{name, shape}]}, then each tensor as
# little-endian float64 in sorted name order. Equal tensors and metadata
# always give equal bytes.
# ---------------------------------------------------------------------------


def write_tensors(path: str | Path, magic: bytes, version: int, meta: dict,
                  tensors: dict[str, np.ndarray]) -> None:
    """The container at ``path``: ``magic``, a header of ``version``, ``meta``
    (any JSON object) and each tensor's name and shape, then the tensors."""
    names = sorted(tensors)
    header = json.dumps(
        {"version": version, "meta": meta,
         "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names]},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    write_bytes(path, b"".join([magic, struct.pack("<I", len(header)), header,
                                *(tensors[n].astype("<f8").tobytes() for n in names)]))


def read_tensors(path: str | Path, magic: bytes, version: int,
                 what: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and the float64 tensors, by name, of a container that
    ``write_tensors`` wrote with this ``magic`` and ``version``; anything
    else is a :class:`ParseError` naming the path and, in its message,
    ``what`` the file should have been."""
    path = Path(path)
    raw = path.read_bytes()
    start = len(magic) + 4
    if len(raw) < start or raw[: len(magic)] != magic:
        raise ParseError(f"{path}: not a {what} file (bad magic)")
    (header_len,) = struct.unpack("<I", raw[len(magic) : start])
    if len(raw) < start + header_len:
        raise ParseError(f"{path}: truncated header")
    try:
        header = json.loads(raw[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header is not a JSON object")
    if header.get("version") != version:
        raise ParseError(f"{path}: unsupported {what} version {header.get('version')}")
    if not isinstance(header.get("meta"), dict):
        raise ParseError(f"{path}: header has no metadata object")
    tensors: dict[str, np.ndarray] = {}
    offset = start + header_len
    for name, shape in _tensor_index(header, path).items():
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(raw):
            raise ParseError(f"{path}: tensor {name!r} runs past end of file")
        tensors[name] = (
            np.frombuffer(raw[offset : offset + nbytes], dtype="<f8").reshape(shape).copy()
        )
        offset += nbytes
    if offset != len(raw):
        raise ParseError(f"{path}: {len(raw) - offset} trailing bytes after tensors")
    return header["meta"], tensors


def _tensor_index(header: dict, path: Path) -> dict[str, tuple[int, ...]]:
    """The shape of each tensor the header lists, by name in file order."""
    tensors = header.get("tensors")
    if not isinstance(tensors, list):
        raise ParseError(f"{path}: header has no tensor list")
    index = {}
    for position, entry in enumerate(tensors):
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise ParseError(f"{path}: tensor entry {position} has no name")
        if name in index:
            raise ParseError(f"{path}: tensor {name!r} listed twice")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise ParseError(f"{path}: tensor {name!r} has a bad shape {shape!r}")
        index[name] = tuple(shape)
    return index
