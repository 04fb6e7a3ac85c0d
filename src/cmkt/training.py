"""Pre-training driver: composes objectives into named methods, and the
one SGD loop that every trainer runs on.

A method is a bundle of component losses over a caption corpus,
optionally paired with image features. Adversarial-negative (ANS)
variants splice perturbed captions into the contrastive denominators;
positive-augmentation (PSA) variants add them as extra training items.

Aggregation: mlm, voken, and cmcl components are already per-item means;
the tcl objective returns batch sums, so the trainer divides them by the
batch size. Logged component magnitudes are therefore comparable across
batch sizes.

``sgd_loop`` is the epoch/batch/update skeleton of pretraining,
distillation and downstream fine-tuning; each of them
hands it a step closure. Every random draw flows from the config seed
through derive_seed with a documented purpose:

    ("order", epoch)               batch order permutation (pretraining)
    ("ft-order", epoch)            batch order permutation (fine-tuning)
    ("mask", epoch, step)          masking plan for the padded batch
    ("mlm-dropout", epoch, step)   dropout for the masked forward
    ("tcl-a" / "tcl-b", epoch, step)   the two dropout views
    ("tcl-neg", epoch, step)       dropout for tcl hard negatives
    ("cmcl-text", epoch, step)     dropout for the caption forward
    ("cmcl-neg", epoch, step)      dropout for cmcl hard negatives
    ("voken-dropout", epoch, step)
    ("negfill", epoch, step, slot) pool sampling for short negative lists
    ("ft-dropout", epoch, step)    dropout for the fine-tuning forward

Distillation runs on the same loop with one extra ``nst`` component, so
a zero-transfer-weight distillation run matches an MLM run step for step.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .checkpoint import Checkpoint, bundle_text_encoder, restore_text_encoder
from .corpus import CaptionPair, Vocab, plan_dynamic_masking, tokenize
from .encoders import FeatureBank, ImageEncoder, TextEncoder, TextEncoderConfig
from .errors import ConfigError, DomainError, ParseError, ShapeError, TrainingError
# the margin loss is not called here; perfbench/tracing.py wraps this name
from .objectives import ans_loss, cmcl_total, hinge_loss, tcl_loss
from .parallel import pin_blas_threads, step_worker
from .perturbation import ADVERSARIAL_NEGATIVE, PerturbationRecord
from .seeding import derive_seed, rng_for
from .textio import parse_errors, read_lines, tab_fields, write_lines

_IMAGE_COMPONENTS = ("cmcl", "voken")


@dataclass(frozen=True)
class MethodSpec:
    """A named composition of component losses, each at unit weight: which
    components are active and whether perturbation records are consumed as
    hard negatives (``use_ans``) or extra positives (``use_psa``). Build
    via :meth:`named`."""

    name: str
    components: tuple[str, ...]
    use_ans: bool = False
    use_psa: bool = False

    @classmethod
    def named(cls, name: str) -> "MethodSpec":
        if name not in _METHOD_TABLE:
            raise ConfigError(
                f"unknown method {name!r}; valid names: {', '.join(METHOD_NAMES)}"
            )
        return _METHOD_TABLE[name]

    @property
    def needs_images(self) -> bool:
        return any(c in _IMAGE_COMPONENTS for c in self.components)


_METHOD_TABLE = {
    spec.name: spec
    for spec in (
        MethodSpec("MLM", ("mlm",)),
        MethodSpec("TCL", ("tcl",)),
        MethodSpec("TCL+MLM", ("tcl", "mlm")),
        MethodSpec("TCL+ANS", ("tcl",), use_ans=True),
        MethodSpec("TCL+PSA+ANS", ("tcl",), use_ans=True, use_psa=True),
        MethodSpec("VOKEN+MLM", ("voken", "mlm")),
        MethodSpec("CMCL", ("cmcl",)),
        MethodSpec("CMCL+ANS", ("cmcl",), use_ans=True),
        MethodSpec("CMCL+PSA+ANS", ("cmcl",), use_ans=True, use_psa=True),
        MethodSpec("CMKD", ()),
    )
}

METHOD_NAMES = tuple(_METHOD_TABLE)


@dataclass(frozen=True)
class PretrainConfig:
    """Loop hyperparameters plus the encoder architecture."""

    batch_size: int = 64
    max_len: int = 20
    learning_rate: float = 1e-4
    epochs: int = 3
    temperature: float = 0.05
    seed: int = 0
    hard_negative_cap: int = 4
    voken_count: int = 16
    dim: int = 32
    ffn_dim: int = 64
    num_blocks: int = 2
    dropout: float = 0.1
    pooling: str = "mean"

    def __post_init__(self):
        for name in ("batch_size", "max_len", "epochs", "dim", "ffn_dim", "num_blocks", "voken_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("learning_rate", "temperature"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.hard_negative_cap < 0:
            raise ConfigError(
                f"hard_negative_cap must be >= 0, got {self.hard_negative_cap}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    def encoder_config(self, vocab_size: int, voken_count: int = 0) -> TextEncoderConfig:
        return TextEncoderConfig(
            vocab_size=vocab_size,
            dim=self.dim,
            ffn_dim=self.ffn_dim,
            num_blocks=self.num_blocks,
            max_len=self.max_len,
            dropout=self.dropout,
            pooling=self.pooling,
            voken_count=voken_count,
        )


@dataclass
class TrainingData:
    """Everything a method might consume; unused parts may be None."""

    pairs: Sequence[CaptionPair]
    vocab: Vocab
    bank: Optional[FeatureBank] = None
    perturbations: Optional[Sequence[PerturbationRecord]] = None


@dataclass(frozen=True)
class TrainRecord:
    """One assembled training item: a tokenized caption with its image id,
    optional precomputed voken targets, and its own hard-negative pool."""

    image_id: str
    tokens: tuple[int, ...]
    voken_targets: Optional[tuple[int, ...]] = None
    negatives: tuple[tuple[int, ...], ...] = ()


@dataclass
class PretrainResult:
    """A training run as far as it went: ``final`` is its last checkpoint,
    an epoch's in what ``on_epoch`` receives."""

    method: str
    config: PretrainConfig
    final: Checkpoint
    loss_rows: tuple[dict, ...]
    components: tuple[str, ...]


# receives the run so far as soon as each epoch ends
EpochSink = Callable[[PretrainResult], None]


def _caption_key(caption: str) -> str:
    return " ".join(caption.lower().split())


def assemble_records(
    method: MethodSpec, data: TrainingData, config: PretrainConfig
) -> tuple[list[TrainRecord], list[tuple[int, ...]]]:
    """Tokenize the train-split pairs into records, apply PSA augmentation,
    and attach per-caption hard-negative pools. Returns (records, global
    negative pool)."""
    train_pairs = [p for p in data.pairs if p.split == "train"]
    if not train_pairs:
        raise ConfigError("no pairs with split 'train' to train on")

    ans_by_key: dict[str, list[tuple[int, ...]]] = {}
    psa_records: list[PerturbationRecord] = []
    global_pool: list[tuple[int, ...]] = []
    if data.perturbations and (method.use_ans or method.use_psa):
        for rec in data.perturbations:
            if rec.verdict == ADVERSARIAL_NEGATIVE:
                if method.use_ans:
                    toks = tuple(
                        tokenize(rec.perturbed_caption(), data.vocab, config.max_len)
                    )
                    ans_by_key.setdefault(rec.original_caption, []).append(toks)
                    global_pool.append(toks)
            else:
                psa_records.append(rec)

    records: list[TrainRecord] = []

    def add(image_id: str, caption: str) -> None:
        negatives = tuple(ans_by_key.get(_caption_key(caption), ())) if method.use_ans else ()
        records.append(
            TrainRecord(
                image_id=image_id,
                tokens=tuple(tokenize(caption, data.vocab, config.max_len)),
                negatives=negatives,
            )
        )

    key_to_image = {}
    for pair in train_pairs:
        key_to_image.setdefault(_caption_key(pair.caption), pair.image_id)
        add(pair.image_id, pair.caption)

    if method.use_psa:
        for rec in psa_records:
            image_id = key_to_image.get(rec.original_caption)
            if image_id is None:
                continue  # perturbation of a caption outside the train split
            add(image_id, rec.perturbed_caption())

    return records, global_pool


def _validate_inputs(method: MethodSpec, data: TrainingData) -> None:
    if method.needs_images and data.bank is None:
        raise ConfigError(
            f"method {method.name} needs an image feature bank, none was given"
        )
    if (method.use_ans or method.use_psa) and not data.perturbations:
        raise ConfigError(
            f"method {method.name} needs perturbation records, none were given"
        )
    if method.use_ans and data.perturbations is not None:
        if not any(r.verdict == ADVERSARIAL_NEGATIVE for r in data.perturbations):
            raise ConfigError(
                f"method {method.name} needs adversarial negatives, but the "
                "perturbation records contain none"
            )


def mlm_batch_step(
    encoder: TextEncoder,
    vocab: Vocab,
    padded: tuple[np.ndarray, np.ndarray],
    seed: int,
    epoch: int,
    step: int,
) -> tuple[float, dict[str, np.ndarray]]:
    """One masked-prediction step on a ``(tokens, mask)`` batch from
    ``prepare_batch``: one dynamic plan, one fused forward/backward. The
    plan never selects padding, so the mask holds for the masked tokens."""
    tokens, mask = padded
    masked, selected, _ = plan_dynamic_masking(tokens, vocab, rng_for(seed, "mask", epoch, step))
    if not selected.any():
        return 0.0, {}
    rows, cols = np.nonzero(selected)
    dropout_seed = derive_seed(seed, "mlm-dropout", epoch, step)
    return encoder.mlm_step(masked, mask, np.stack([rows, cols, tokens[rows, cols]], axis=1),
                            dropout_seed)


def _accumulate(dst: dict, grads: dict, weight: float) -> None:
    """Add ``weight * grads`` into ``dst``; never writes into an array of
    ``grads``, so a weight-1 gradient is taken without a copy."""
    for name, g in grads.items():
        if name in dst:
            dst[name] = dst[name] + weight * g
        else:
            dst[name] = g if weight == 1.0 else weight * g


def _sgd(params: dict, grads: dict, lr: float, step: int) -> None:
    """One update; a parameter that leaves the finite range means training
    diverged at this step."""
    for name, g in grads.items():
        params[name] -= lr * g
        if not np.isfinite(params[name]).all():
            raise TrainingError(f"non-finite parameter {name} at step {step}", step=step)


# glibc mallopt parameters (malloc.h) and the values training sets.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_THRESHOLD_BYTES = 128 << 20
MMAP_THRESHOLD_BYTES = 32 << 20


def _keep_freed_heap() -> None:
    """Stop glibc from returning freed activation buffers to the kernel.

    Training sets these process-wide malloc thresholds when a loop starts,
    and they stay set for the rest of the process. Every training step
    allocates and frees the same few MB. By default glibc trims those
    pages off the heap (or unmaps them) and the next step faults each one
    back in: after its first epoch, a 30-epoch CMCL+ANS pretrain on a
    2-core x86_64 VM takes about 259,000 minor faults and 3.1-3.2 s
    without this hook, 95 faults and 2.4-2.8 s with it. A fixed 128 MiB
    trim threshold and a 32 MiB mmap threshold keep them mapped. Where
    libc.so.6 is missing (not glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def sgd_loop(
    items: Sequence,
    seed: int,
    order_purpose: str,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    step_fn: Callable[[list, int, int], tuple[dict, Sequence[dict]]],
    params: Sequence[dict],
    end_epoch: Optional[Callable[[int, list[dict]], None]] = None,
) -> list[dict]:
    """The one training loop: each epoch visits ``items`` in the
    permutation drawn from ``(order_purpose, epoch)``, ``batch_size`` at a
    time. ``step_fn`` returns the step's loss row and its gradients, one
    dict per dict of ``params``, which SGD then updates in place. A
    non-finite loss or parameter raises TrainingError with the step.
    ``end_epoch(epoch, rows so far)`` runs after each epoch. Returns the
    loss rows, each led by its step and epoch."""
    _keep_freed_heap()
    pin_blas_threads()
    rows: list[dict] = []
    step = 0
    for epoch in range(1, epochs + 1):
        order = rng_for(seed, order_purpose, epoch).permutation(len(items))
        for start in range(0, len(items), batch_size):
            batch = [items[int(i)] for i in order[start : start + batch_size]]
            row, grads = step_fn(batch, epoch, step)
            total = row["total"]
            if not np.isfinite(total):
                raise TrainingError(f"non-finite loss {total} at step {step}", step=step)
            rows.append({"step": step, "epoch": epoch, **row})
            for param_dict, grad_dict in zip(params, grads, strict=True):
                _sgd(param_dict, grad_dict, learning_rate, step)
            del grads, grad_dict  # kept, they would sit under the next step's peak memory
            step += 1
        if end_epoch is not None:
            end_epoch(epoch, rows)
    return rows


def _pick_negatives(
    batch: Sequence[TrainRecord],
    global_pool: Sequence[tuple[int, ...]],
    m: int,
    seed: int,
    epoch: int,
    step: int,
) -> list[list[tuple[int, ...]]]:
    """M negative captions per item: the item's own pool first (file
    order), then seeded draws from the global pool."""
    rows = []
    for slot, rec in enumerate(batch):
        take = list(rec.negatives[:m])
        if len(take) < m:
            rng = rng_for(seed, "negfill", epoch, step, slot)
            picks = rng.integers(0, len(global_pool), size=m - len(take))
            take.extend(global_pool[int(i)] for i in picks)
        rows.append(take)
    return rows


def _check_finite(vectors: np.ndarray, what: str, step: int) -> np.ndarray:
    if not np.all(np.isfinite(vectors)):
        raise TrainingError(f"non-finite {what} embeddings at step {step}", step=step)
    return vectors


class _ComponentEngine:
    """Per-method step closures computing (loss, text grads, image grads)
    for one batch at the current parameters, by component name in
    ``fns``. Each takes the batch's records and their captions padded
    once by ``prepare_batch``."""

    def __init__(
        self,
        config: PretrainConfig,
        encoder: TextEncoder,
        image_encoder: Optional[ImageEncoder],
        vocab: Vocab,
        global_pool: Sequence[tuple[int, ...]],
    ):
        self.config = config
        self.encoder = encoder
        self.image_encoder = image_encoder
        self.vocab = vocab
        self.global_pool = global_pool
        # only ANS methods fill the pool, and their inputs never leave it empty
        self.m = config.hard_negative_cap if global_pool else 0
        self.fns: dict[str, Callable] = {
            "mlm": self._mlm,
            "tcl": self._tcl,
            "cmcl": self._cmcl,
            "voken": self._voken,
        }

    def _encode(self, padded, purpose, epoch, step):
        """Text forward under the dropout draw of ``purpose``; a
        non-finite pooled output means training diverged."""
        cache = self.encoder.forward(*padded, derive_seed(self.config.seed, purpose, epoch, step))
        del cache["hidden"]  # every caller reads only the pooled output
        _check_finite(cache["pooled"], "text", step)
        return cache

    def _images(self, image_ids, step):
        return _check_finite(self.image_encoder.project(image_ids), "image", step)

    def _embed_negatives(self, batch, epoch, step, purpose):
        """Forward pass over the batch's hard negatives; returns the
        (N, M, d) tensor and the cache for the backward pass."""
        if self.m == 0:
            return None, None
        rows = _pick_negatives(
            batch, self.global_pool, self.m, self.config.seed, epoch, step
        )
        negatives = self.encoder.prepare_batch([toks for row in rows for toks in row])
        cache = self._encode(negatives, purpose, epoch, step)
        tensor = cache["pooled"].reshape(len(batch), self.m, -1)
        return tensor, cache

    def _mlm(self, batch, padded, epoch, step):
        loss, grads = mlm_batch_step(self.encoder, self.vocab, padded, self.config.seed, epoch, step)
        return loss, grads, {}

    def _tcl(self, batch, padded, epoch, step):
        cache_a = self._encode(padded, "tcl-a", epoch, step)
        cache_b = self._encode(padded, "tcl-b", epoch, step)
        negs, cache_n = self._embed_negatives(batch, epoch, step, "tcl-neg")
        result = tcl_loss(
            cache_a["pooled"], cache_b["pooled"], self.config.temperature, hard_negatives=negs
        )
        n = len(batch)
        grads = self.encoder.backward(cache_a, d_pooled=result.gradients["reps"] / n)
        _accumulate(
            grads,
            self.encoder.backward(
                cache_b, d_pooled=result.gradients["dropout_positives"] / n
            ),
            1.0,
        )
        if negs is not None:
            d_negs = result.gradients["hard_negatives"].reshape(n * self.m, -1) / n
            _accumulate(grads, self.encoder.backward(cache_n, d_pooled=d_negs), 1.0)
        return result.total / n, grads, {}

    def _cmcl(self, batch, padded, epoch, step):
        image_ids = [rec.image_id for rec in batch]
        cache_t = self._encode(padded, "cmcl-text", epoch, step)
        images = self._images(image_ids, step)
        negs, cache_n = self._embed_negatives(batch, epoch, step, "cmcl-neg")
        if negs is not None:
            result = ans_loss(images, cache_t["pooled"], negs, self.config.temperature)
        else:
            result = cmcl_total(images, cache_t["pooled"], self.config.temperature)
        grads = self.encoder.backward(cache_t, d_pooled=result.gradients["text"])
        if negs is not None:
            d_negs = result.gradients["hard_negatives"].reshape(len(batch) * self.m, -1)
            _accumulate(grads, self.encoder.backward(cache_n, d_pooled=d_negs), 1.0)
        image_grads = self.image_encoder.backward(image_ids, result.gradients["image"])
        return result.total, grads, image_grads

    def _voken(self, batch, padded, epoch, step):
        targets = np.full(padded[0].shape, -1, dtype=np.int64)
        for b, rec in enumerate(batch):
            targets[b, : len(rec.tokens)] = rec.voken_targets
        dropout_seed = derive_seed(self.config.seed, "voken-dropout", epoch, step)
        loss, grads = self.encoder.voken_step(*padded, targets, dropout_seed)
        return loss, grads, {}


def _attach_vokens(
    records: list[TrainRecord], encoder: TextEncoder, bank_matrix: np.ndarray
) -> list[TrainRecord]:
    out = []
    for rec in records:
        states = encoder.forward(*encoder.prepare_batch([rec.tokens]), record=False)["hidden"][0]
        vokens = assign_vokens(states, bank_matrix)
        out.append(dataclasses.replace(rec, voken_targets=tuple(vokens)))
    return out


def run_training_loop(
    config: PretrainConfig,
    encoder: TextEncoder,
    image_encoder: Optional[ImageEncoder],
    vocab: Vocab,
    records: list[TrainRecord],
    steps: dict[str, tuple[float, Callable]],
    meta_base: dict,
    on_epoch: Optional[EpochSink] = None,
) -> PretrainResult:
    """Pretrain (the teacher trainer too) and distillation: a weighted mix
    of components on :func:`sgd_loop`, with checkpoint bundling.

    ``steps`` maps each component name, in loss-row order, to its weight
    and its step closure ``(records, padded, epoch, step) -> (loss, text
    grads, image grads)``; each step pads its captions once and hands the
    ``(tokens, mask)`` pair to every closure. ``meta_base["method"]``
    names the run. A component of weight 0 is not run and logs 0.0. When
    each epoch ends, ``on_epoch`` receives the run so far, its checkpoint
    not kept, so a run holds one checkpoint at a time whatever its length.

    With exactly two components of non-zero weight, each step runs them
    side by side, one in this process and one in a
    :func:`~cmkt.parallel.step_worker` forked for the loop (they swap
    processes every step). The step then combines, warns and fails in
    component order, so the outputs are those of one process.
    """
    params = [encoder.params]
    if image_encoder is not None:
        params.append(image_encoder.params)

    live = [c for c, (w, _) in steps.items() if w != 0]
    position = {id(rec): i for i, rec in enumerate(records)}  # the worker's records too

    def component_step(request):
        component, rows, padded, epoch, step = request
        return steps[component][1]([records[i] for i in rows], padded, epoch, step)

    def step_fn(batch, epoch, step):
        padded = encoder.prepare_batch([rec.tokens for rec in batch])
        if side_by_side is None:
            outcomes = {c: functools.partial(steps[c][1], batch, padded, epoch, step)
                        for c in live}
        else:
            # The components swap processes every step only so that
            # perfbench's tracer, which sees no worker's spans, still sees
            # both run here; once it collects the worker's spans this
            # becomes ``mine, theirs = live``.
            rows = [position[id(rec)] for rec in batch]
            mine, theirs = live[step % 2], live[1 - step % 2]
            outcomes = dict(zip((mine, theirs), side_by_side(
                (mine, rows, padded, epoch, step), (theirs, rows, padded, epoch, step),
                f"component {theirs} at step {step}")))
        text_grads: dict[str, np.ndarray] = {}
        image_grads: dict[str, np.ndarray] = {}
        row = {}
        total = 0.0
        for component, (weight, _) in steps.items():
            if weight == 0:
                row[component] = 0.0
                continue
            loss, tg, ig = outcomes.pop(component)()
            row[component] = loss
            total += weight * loss
            _accumulate(text_grads, tg, weight)
            _accumulate(image_grads, ig, weight)
            del tg, ig  # kept, they would sit under the next component's peak memory
        row["total"] = total
        return row, [text_grads, image_grads][: len(params)]

    def result(epoch: int, kind: str, loss_rows: list[dict]) -> PretrainResult:
        meta = dict(meta_base)
        meta.update({"epoch": epoch, "kind": kind, "step": len(loss_rows)})
        image_params = image_encoder.params if image_encoder is not None else None
        return PretrainResult(
            method=meta_base["method"],
            config=config,
            final=bundle_text_encoder(encoder, vocab, meta, image_params=image_params),
            loss_rows=tuple(loss_rows),
            components=tuple(steps),
        )

    def end_epoch(epoch, loss_rows):
        if on_epoch is not None:
            on_epoch(result(epoch, "epoch", loss_rows))

    worker = contextlib.nullcontext()
    if len(live) == 2:
        _keep_freed_heap()  # before the fork, so the worker keeps its freed heap too
        worker = step_worker(component_step, params)
    with worker as side_by_side:
        loss_rows = sgd_loop(records, config.seed, "order", config.epochs, config.batch_size,
                             config.learning_rate, step_fn, params, end_epoch)
    return result(config.epochs, "final", loss_rows)


def pretrain(
    method: MethodSpec | str,
    data: TrainingData,
    config: PretrainConfig,
    on_epoch: Optional[EpochSink] = None,
) -> PretrainResult:
    """Run one named method over the corpus; hands the run so far to
    ``on_epoch`` as each epoch ends and returns the final checkpoint and
    the per-step loss log."""
    if isinstance(method, str):
        method = MethodSpec.named(method)
    if method.name == "CMKD":
        raise ConfigError(
            "CMKD needs a trained teacher checkpoint: pretrain CMCL, then run "
            "distill --teacher with that CMCL checkpoint"
        )
    _validate_inputs(method, data)
    records, global_pool = assemble_records(method, data, config)

    voken_count = config.voken_count if "voken" in method.components else 0
    encoder = TextEncoder(
        config.encoder_config(len(data.vocab), voken_count=voken_count),
        seed=config.seed,
    )
    image_encoder = None
    if method.needs_images:
        image_encoder = ImageEncoder.initialized(data.bank, config.dim, config.seed)

    if "voken" in method.components:
        bank_matrix = build_voken_bank(data.pairs, image_encoder, config.voken_count)
        records = _attach_vokens(records, encoder, bank_matrix)

    engine = _ComponentEngine(config, encoder, image_encoder, data.vocab, global_pool)
    meta_base = {
        "method": method.name,
        "seed": config.seed,
        "components": list(method.components),
        "weights": [1.0] * len(method.components),
    }
    return run_training_loop(
        config,
        encoder,
        image_encoder,
        vocab=data.vocab,
        records=records,
        steps={c: (1.0, engine.fns[c]) for c in method.components},
        meta_base=meta_base,
        on_epoch=on_epoch,
    )


# ---------------------------------------------------------------------------
# voken assignment
# ---------------------------------------------------------------------------


def assign_vokens(states: np.ndarray, voken_bank: np.ndarray) -> list[int]:
    """Map each token, given as its (length, dim) contextual state, to its
    nearest bank row by cosine similarity; ties go to the lowest row id."""
    bank = np.asarray(voken_bank, dtype=np.float64)
    if bank.ndim != 2 or bank.shape[0] < 1:
        raise ConfigError(f"voken bank must be a nonempty 2-D table, got shape {bank.shape}")
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2:
        raise ShapeError(f"token states must be a 2-D table, got shape {states.shape}")
    if not len(states):
        return []
    if states.shape[1] != bank.shape[1]:
        raise ShapeError(
            f"token states have dim {states.shape[1]}, bank has dim {bank.shape[1]}"
        )
    for label, matrix in (("token state", states), ("voken bank row", bank)):
        norms = np.linalg.norm(matrix, axis=1)
        bad = np.nonzero(norms == 0.0)[0]
        if bad.size:
            raise DomainError(f"{label} {bad[0]} has zero norm; cosine undefined")
    unit_states = states / np.linalg.norm(states, axis=1, keepdims=True)
    unit_bank = bank / np.linalg.norm(bank, axis=1, keepdims=True)
    sims = unit_states @ unit_bank.T
    return [int(i) for i in np.argmax(sims, axis=1)]


def build_voken_bank(
    pairs: Sequence[CaptionPair], image_encoder: ImageEncoder, count: int
) -> np.ndarray:
    """A (count, dim) table of projected image features, one row per
    distinct image id in first-appearance order."""
    if count < 1:
        raise ConfigError(f"voken count must be >= 1, got {count}")
    seen = dict.fromkeys(p.image_id for p in pairs)
    distinct = list(seen)
    if len(distinct) < count:
        raise ConfigError(
            f"voken bank needs {count} distinct images, corpus has {len(distinct)}"
        )
    return image_encoder.project(distinct[:count])


# ---------------------------------------------------------------------------
# held-out similarity set
# ---------------------------------------------------------------------------


def load_similarity_set(path: str | Path) -> list[tuple[str, str, float]]:
    """Tab-separated sentence pairs with gold scores, one per line."""
    items = []
    for where, line in read_lines(path):
        with parse_errors(where):
            a, b, score = tab_fields(line, 3)
            value = float(score)
            if not np.isfinite(value):
                raise ValueError(f"score {score!r} is not finite")
            items.append((a, b, value))
    return items


def save_similarity_set(items: Sequence[tuple[str, str, float]], path: str | Path) -> None:
    write_lines(path, (f"{a}\t{b}\t{score!r}" for a, b, score in items))


# ---------------------------------------------------------------------------
# loss log
# ---------------------------------------------------------------------------


def write_loss_log(rows: Sequence[dict], components: Sequence[str], path: str | Path) -> None:
    """CSV with step, epoch, one column per component, and the total; floats
    as their repr, CRLF line ends (the csv module's dialect)."""
    columns = ["step", "epoch", *components, "total"]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k])
                              for k in columns))
    write_lines(path, lines, end="\r\n")


def read_loss_log(path: str | Path) -> list[dict]:
    lines = read_lines(path)
    _, head = next(lines, ("", ""))
    columns = head.split(",")
    if columns[:2] != ["step", "epoch"]:
        raise ParseError(f"{path}: not a loss log (missing step/epoch columns)")
    rows = []
    for where, line in lines:
        with parse_errors(where):
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(f"expected {len(columns)} cells, got {len(cells)}")
            row = {"step": int(cells[0]), "epoch": int(cells[1])}
            row.update(zip(columns[2:], map(float, cells[2:])))
        rows.append(row)
    return rows
