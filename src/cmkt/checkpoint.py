"""Versioned parameter containers with byte-stable serialization.

A checkpoint is a ``textio`` tensor container with the ``CMKTCKPT``
magic: identical parameters and metadata always produce identical bytes,
which is what makes whole-pipeline reruns byte-comparable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Vocab
from .encoders import TextEncoder, TextEncoderConfig
from .errors import ValidationError
from .textio import config_from, parse_errors, read_tensors, write_tensors

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
    write_tensors(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, ckpt.meta, ckpt.params)


def load_checkpoint(path: str | Path) -> Checkpoint:
    meta, params = read_tensors(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    return Checkpoint(params=params, meta=meta)


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
        config = config_from(TextEncoderConfig, ckpt.meta["encoder_config"])
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
