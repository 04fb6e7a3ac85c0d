"""Versioned parameter containers with byte-stable serialization.

The on-disk layout is magic, a length-prefixed JSON header (sorted keys,
no whitespace), then raw little-endian float64 tensor data concatenated
in sorted parameter-name order. Identical parameters and metadata always
produce identical bytes, which is what makes whole-pipeline reruns
byte-comparable.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Vocab
from .encoders import TextEncoder, TextEncoderConfig
from .errors import ParseError, ValidationError
from .textio import fits, parse_errors, write_bytes

CHECKPOINT_MAGIC = b"CMKTCKPT"
CHECKPOINT_VERSION = 1

TEXT_PREFIX = "text."
IMAGE_PREFIX = "image."


@dataclass
class Checkpoint:
    """Named tensors plus a JSON-serializable metadata dictionary."""

    params: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, arr in self.params.items():
            self.params[name] = np.asarray(arr, dtype=np.float64)

    def text_params(self) -> dict[str, np.ndarray]:
        return {
            k[len(TEXT_PREFIX):]: v
            for k, v in self.params.items()
            if k.startswith(TEXT_PREFIX)
        }

    def image_params(self) -> dict[str, np.ndarray]:
        return {
            k[len(IMAGE_PREFIX):]: v
            for k, v in self.params.items()
            if k.startswith(IMAGE_PREFIX)
        }


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    names = sorted(ckpt.params)
    index = [
        {"name": n, "shape": list(ckpt.params[n].shape)}
        for n in names
    ]
    header = {
        "version": CHECKPOINT_VERSION,
        "meta": ckpt.meta,
        "tensors": index,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", len(header_bytes))
    blob += header_bytes
    for n in names:
        blob += ckpt.params[n].astype("<f8").tobytes()
    write_bytes(path, bytes(blob))


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:8] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a checkpoint file (bad magic)")
    (header_len,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + header_len:
        raise ParseError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {header.get('version')}")
    if not isinstance(header.get("meta"), dict):
        raise ParseError(f"{path}: header has no metadata object")
    params: dict[str, np.ndarray] = {}
    offset = 12 + header_len
    for name, shape in _tensor_index(header, path).items():
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(raw):
            raise ParseError(f"{path}: tensor {name!r} runs past end of file")
        params[name] = (
            np.frombuffer(raw[offset : offset + nbytes], dtype="<f8").reshape(shape).copy()
        )
        offset += nbytes
    if offset != len(raw):
        raise ParseError(f"{path}: {len(raw) - offset} trailing bytes after tensors")
    return Checkpoint(params=params, meta=header["meta"])


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


def bundle_text_encoder(
    encoder: TextEncoder,
    vocab: Vocab,
    meta: dict,
    image_params: dict[str, np.ndarray] | None = None,
) -> Checkpoint:
    """Pack an encoder (and optional image projection) into a checkpoint
    that is self-contained: config and vocabulary travel in the metadata."""
    params = {TEXT_PREFIX + k: v.copy() for k, v in encoder.params.items()}
    if image_params is not None:
        params.update({IMAGE_PREFIX + k: v.copy() for k, v in image_params.items()})
    full_meta = dict(meta)
    full_meta["encoder_config"] = dataclasses.asdict(encoder.config)
    full_meta["vocab"] = [vocab.word_of(i) for i in range(len(vocab))]
    return Checkpoint(params=params, meta=full_meta)


def bundled_config(ckpt: Checkpoint) -> tuple[TextEncoderConfig, Vocab]:
    """The encoder config and vocabulary a bundle describes, checked
    against each other; no encoder is built."""
    if "encoder_config" not in ckpt.meta or "vocab" not in ckpt.meta:
        raise ValidationError("checkpoint does not carry an encoder bundle")
    with parse_errors("checkpoint encoder_config", ValidationError):
        config = TextEncoderConfig(**ckpt.meta["encoder_config"])
        for f in dataclasses.fields(config):  # shapes and slices need ints
            default = 0 if f.default is dataclasses.MISSING else f.default
            value = getattr(config, f.name)
            if not fits(default, value):
                raise TypeError(f"{f.name} expects {type(default).__name__}, got {value!r}")
    with parse_errors("checkpoint vocab", ValidationError):
        vocab = Vocab(ckpt.meta["vocab"])
    if len(vocab) != config.vocab_size:
        raise ValidationError(
            f"checkpoint vocab: {len(vocab)} words, but encoder_config.vocab_size is "
            f"{config.vocab_size}"
        )
    return config, vocab


def restore_text_encoder(ckpt: Checkpoint) -> tuple[TextEncoder, Vocab]:
    """Rebuild the encoder and vocabulary a bundle describes, the encoder
    on its own copy of the bundle's text tensors."""
    config, vocab = bundled_config(ckpt)
    return TextEncoder.from_params(config, ckpt.text_params()), vocab
