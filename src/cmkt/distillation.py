"""Cross-modal teacher/student transfer.

A fusion teacher (text encoder plus image projection) trains under a
cross-modal objective; a fresh text-only student then trains on captions
alone with masked prediction plus an activation-matching penalty pulling
its per-block pooled states toward the teacher's on the same clean text.

The student trains on the pre-training loop (``run_training_loop``) with
components ``mlm`` and ``nst``, the latter a closure over the frozen
teacher, so with a zero transfer weight the run is step-for-step
identical to plain masked-prediction pre-training. The teacher is frozen,
runs without dropout and sees clean text, so its activations are computed
once per distinct token sequence before training starts. Teacher and
student must have the same width and block count, since their pooled
block states are compared position by position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# bundle_text_encoder is not called here, but perfbench/tracing.py wraps it
# under this module's name as well and fails if the name is missing
from .checkpoint import Checkpoint, bundle_text_encoder, restore_text_encoder
from .encoders import TextEncoder
from .errors import ConfigError
from .objectives import nst_loss_with_grad
from .training import (
    EpochSink,
    MethodSpec,
    PretrainConfig,
    PretrainResult,
    TrainingData,
    _ComponentEngine,
    assemble_records,
    pretrain,
    run_training_loop,
)

TEACHER_OBJECTIVES = ("cmcl", "hinge")


@dataclass(frozen=True)
class TeacherSpec:
    """Which cross-modal objective the fusion teacher trains under."""

    objective: str = "cmcl"

    def __post_init__(self):
        if self.objective not in TEACHER_OBJECTIVES:
            raise ConfigError(
                f"teacher objective must be one of {TEACHER_OBJECTIVES}, "
                f"got {self.objective!r}"
            )


@dataclass(frozen=True)
class DistillSpec:
    """Loss mix for the student: masked prediction plus activation transfer."""

    mlm_weight: float = 1.0
    nst_weight: float = 1.0

    def __post_init__(self):
        weights = (self.mlm_weight, self.nst_weight)
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ConfigError(
                f"weights must be finite and non-negative, got mlm={self.mlm_weight}, "
                f"nst={self.nst_weight}"
            )
        if self.mlm_weight == 0 and self.nst_weight == 0:
            raise ConfigError("at least one of mlm_weight, nst_weight must be positive")


def train_teacher(spec: TeacherSpec, data: TrainingData, config: PretrainConfig,
                  on_epoch: Optional[EpochSink] = None) -> PretrainResult:
    """The fusion teacher: pre-training on image/caption pairs with the one
    component ``spec.objective``; each epoch's checkpoint goes to ``on_epoch``."""
    return pretrain(MethodSpec(f"teacher:{spec.objective}", (spec.objective,)), data, config,
                    on_epoch)


def nst_step(
    student: TextEncoder,
    tokens: np.ndarray,
    mask: np.ndarray,
    teacher_blocks: list[np.ndarray],
) -> tuple[float, dict[str, np.ndarray]]:
    """Activation-matching loss over a padded batch of clean text,
    averaged across blocks, with gradients for the student.
    ``teacher_blocks`` are the teacher's per-block activations on the
    same captions."""
    cache = student.forward(tokens, mask, dropout_seed=None)
    student_blocks = cache["block_pooled"]
    num_blocks = len(student_blocks)
    values = []
    d_blocks = []
    for b in range(num_blocks):
        value, d_acts = nst_loss_with_grad(teacher_blocks[b], student_blocks[b])
        values.append(value)
        d_blocks.append(d_acts / num_blocks)
    grads = student.backward(cache, d_block_pooled=d_blocks)
    return float(np.mean(values)), grads


def distill(
    teacher_checkpoint: Checkpoint,
    data: TrainingData,
    spec: DistillSpec,
    config: PretrainConfig,
    on_epoch: Optional[EpochSink] = None,
) -> PretrainResult:
    """Train a text-only student against the teacher over the caption
    corpus; hands each epoch's checkpoint to ``on_epoch`` and returns the
    final checkpoint and the loss log."""
    teacher, teacher_vocab = restore_text_encoder(teacher_checkpoint)
    corpus_words = [data.vocab.word_of(i) for i in range(len(data.vocab))]
    teacher_words = [teacher_vocab.word_of(i) for i in range(len(teacher_vocab))]
    if corpus_words != teacher_words:
        raise ConfigError(
            "teacher and corpus vocabularies differ; distillation compares "
            "activations on identical token sequences"
        )
    for field in ("num_blocks", "dim"):
        theirs, ours = getattr(teacher.config, field), getattr(config, field)
        if theirs != ours:
            raise ConfigError(
                f"teacher has {field} {theirs}, student config asks for {ours}; "
                "activation transfer compares each block's states entry by entry"
            )
    if config.max_len > teacher.config.max_len:
        raise ConfigError(
            f"student max_len {config.max_len} exceeds the teacher's "
            f"{teacher.config.max_len}"
        )

    records, _ = assemble_records(MethodSpec.named("MLM"), data, config)
    student = TextEncoder(config.encoder_config(len(data.vocab)), seed=config.seed)
    engine = _ComponentEngine(config, student, None, data.vocab, [])

    row_of = {}  # distinct token sequence -> row of the teacher targets
    for rec in records:
        row_of.setdefault(rec.tokens, len(row_of))
    distinct = list(row_of)
    chunks = [
        teacher.block_activations(distinct[start : start + config.batch_size])
        for start in range(0, len(distinct), config.batch_size)
    ]
    targets = [np.concatenate(blocks) for blocks in zip(*chunks)]

    def nst(batch, padded, epoch, step):
        rows = [row_of[r.tokens] for r in batch]
        loss, grads = nst_step(student, *padded, [t[rows] for t in targets])
        return loss, grads, {}

    return run_training_loop(
        config,
        student,
        None,
        vocab=data.vocab,
        records=records,
        steps={"mlm": (spec.mlm_weight, engine.fns["mlm"]), "nst": (spec.nst_weight, nst)},
        meta_base={
            "method": "CMKD",
            "seed": config.seed,
            "teacher": teacher_checkpoint.meta.get("method", "unknown"),
            "mlm_weight": spec.mlm_weight,
            "nst_weight": spec.nst_weight,
        },
        on_epoch=on_epoch,
    )
