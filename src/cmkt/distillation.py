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
once per distinct token sequence before training starts.
When teacher and student widths differ, a fixed seeded linear adapter
(purpose ``("nst-adapter", block)``) maps student activations into the
teacher's width before comparison; the adapter is never trained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# bundle_text_encoder is not called here, but perfbench/tracing.py wraps it
# under this module's name as well and fails if the name is missing
from .checkpoint import Checkpoint, bundle_text_encoder, restore_text_encoder
from .encoders import TextEncoder
from .errors import ConfigError
from .objectives import nst_loss_with_grad
from .seeding import rng_for
from .training import (
    MethodSpec,
    PretrainConfig,
    PretrainResult,
    TrainingData,
    assemble_records,
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
        if self.mlm_weight < 0 or self.nst_weight < 0:
            raise ConfigError(
                f"weights must be non-negative, got mlm={self.mlm_weight}, "
                f"nst={self.nst_weight}"
            )
        if self.mlm_weight == 0 and self.nst_weight == 0:
            raise ConfigError("at least one of mlm_weight, nst_weight must be positive")


def train_teacher(
    spec: TeacherSpec, data: TrainingData, config: PretrainConfig
) -> PretrainResult:
    """Pre-train the fusion teacher on image/caption pairs."""
    if data.bank is None:
        raise ConfigError("teacher training needs an image feature bank")
    from .encoders import ImageEncoder

    records, _ = assemble_records(MethodSpec.named("CMCL"), data, config)
    encoder = TextEncoder(config.encoder_config(len(data.vocab)), seed=config.seed)
    image_encoder = ImageEncoder.initialized(data.bank, config.dim, config.seed)
    image_encoder.frozen = False
    name = f"teacher:{spec.objective}"
    return run_training_loop(
        name,
        config,
        encoder,
        image_encoder,
        vocab=data.vocab,
        records=records,
        global_pool=[],
        components=(spec.objective,),
        weights=(1.0,),
        meta_base={"method": name, "seed": config.seed, "objective": spec.objective},
    )


def build_adapters(
    teacher_dim: int, student_dim: int, num_blocks: int, seed: int
) -> Optional[list[np.ndarray]]:
    """Fixed per-block linear maps from student width to teacher width;
    None when the widths already agree."""
    if teacher_dim == student_dim:
        return None
    scale = 1.0 / math.sqrt(student_dim)
    return [
        rng_for(seed, "nst-adapter", block).normal(
            scale=scale, size=(student_dim, teacher_dim)
        )
        for block in range(num_blocks)
    ]


def nst_step(
    teacher: TextEncoder,
    student: TextEncoder,
    seqs: Sequence[Sequence[int]],
    adapters: Optional[list[np.ndarray]] = None,
    teacher_blocks: Optional[list[np.ndarray]] = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Activation-matching loss over clean text, averaged across blocks,
    with gradients for the student. ``teacher_blocks`` are the teacher's
    per-block activations on ``seqs`` when already computed."""
    cache = student.forward(seqs, dropout_seed=None)
    student_blocks = cache["block_pooled"]
    if teacher_blocks is None:
        teacher_blocks = teacher.block_activations(seqs)
    num_blocks = len(student_blocks)
    values = []
    d_blocks = []
    for b in range(num_blocks):
        acts = student_blocks[b]
        if adapters is not None:
            acts = acts @ adapters[b]
        value, d_acts = nst_loss_with_grad(teacher_blocks[b], acts)
        if adapters is not None:
            d_acts = d_acts @ adapters[b].T
        values.append(value)
        d_blocks.append(d_acts / num_blocks)
    grads = student.backward(cache, d_block_pooled=d_blocks)
    return float(np.mean(values)), grads


def distill(
    teacher_checkpoint: Checkpoint,
    data: TrainingData,
    spec: DistillSpec,
    config: PretrainConfig,
) -> PretrainResult:
    """Train a text-only student against the teacher over the caption
    corpus; returns the usual checkpoint series and loss log."""
    teacher, teacher_vocab = restore_text_encoder(teacher_checkpoint)
    corpus_words = [data.vocab.word_of(i) for i in range(len(data.vocab))]
    teacher_words = [teacher_vocab.word_of(i) for i in range(len(teacher_vocab))]
    if corpus_words != teacher_words:
        raise ConfigError(
            "teacher and corpus vocabularies differ; distillation compares "
            "activations on identical token sequences"
        )
    if teacher.config.num_blocks != config.num_blocks:
        raise ConfigError(
            f"teacher has {teacher.config.num_blocks} blocks, student config "
            f"asks for {config.num_blocks}; activation transfer matches per block"
        )
    if config.max_len > teacher.config.max_len:
        raise ConfigError(
            f"student max_len {config.max_len} exceeds the teacher's "
            f"{teacher.config.max_len}"
        )

    records, _ = assemble_records(MethodSpec.named("MLM"), data, config)
    student = TextEncoder(config.encoder_config(len(data.vocab)), seed=config.seed)
    adapters = build_adapters(
        teacher.config.dim, config.dim, config.num_blocks, config.seed
    )

    row_of = {}  # distinct token sequence -> row of the teacher targets
    for rec in records:
        row_of.setdefault(rec.tokens, len(row_of))
    distinct = [list(tokens) for tokens in row_of]
    chunks = [
        teacher.block_activations(distinct[start : start + config.batch_size])
        for start in range(0, len(distinct), config.batch_size)
    ]
    targets = [np.concatenate(blocks) for blocks in zip(*chunks)]

    def nst(batch, epoch, step):
        rows = [row_of[r.tokens] for r in batch]
        loss, grads = nst_step(teacher, student, [list(r.tokens) for r in batch], adapters,
                               teacher_blocks=[t[rows] for t in targets])
        return loss, grads, {}

    return run_training_loop(
        "CMKD",
        config,
        student,
        None,
        vocab=data.vocab,
        records=records,
        global_pool=[],
        components=("mlm", "nst"),
        weights=(spec.mlm_weight, spec.nst_weight),
        meta_base={
            "method": "CMKD",
            "seed": config.seed,
            "teacher": teacher_checkpoint.meta.get("method", "unknown"),
            "mlm_weight": spec.mlm_weight,
            "nst_weight": spec.nst_weight,
        },
        extra_components={"nst": nst},
    )
