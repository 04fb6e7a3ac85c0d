"""Differentiable objectives for intermediate pre-training.

Every loss here is a pure function of numpy arrays: it validates its
inputs, computes the value in float64 with max-subtracted softmax
denominators (exact in real arithmetic, stable in floating point), and
returns a :class:`LossResult` carrying the per-item decomposition and,
for the contrastive family, analytic gradients with respect to every
input array.

Aggregation conventions, stated once and tested:

* ``infonce_loss``, ``tcl_loss`` and ``hinge_loss`` report the **sum**
  of per-item terms.
* ``cmcl_total`` and ``ans_loss`` report the **mean** of per-item terms,
  where each item contributes both contrastive directions.
* ``softmax_cross_entropy``, ``mlm_loss`` and ``voken_loss`` report the
  **mean** over supervised positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AlignmentError,
    ConfigError,
    DomainError,
    ShapeError,
    ValidationError,
)

Array = np.ndarray

TEXT = "text"
IMAGE = "image"


@dataclass(frozen=True)
class EmbeddingBatch:
    """A batch of encoder outputs: an (N, d) matrix plus provenance.

    Row i of a text batch and row i of an image batch with equal
    ``batch_ids`` form an aligned pair.
    """

    vectors: Array
    modality: str
    batch_ids: tuple

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ShapeError(f"embedding batch must be 2-D, got shape {vectors.shape}")
        if vectors.shape[0] < 1 or vectors.shape[1] < 1:
            raise ShapeError(f"embedding batch needs N >= 1 and d >= 1, got {vectors.shape}")
        if not np.all(np.isfinite(vectors)):
            raise ValidationError("embedding batch contains non-finite entries")
        if self.modality not in (TEXT, IMAGE):
            raise ValidationError(f"unknown modality {self.modality!r}")
        ids = tuple(self.batch_ids)
        if len(ids) != vectors.shape[0]:
            raise ShapeError(
                f"{len(ids)} batch ids for {vectors.shape[0]} rows"
            )
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "batch_ids", ids)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class LossResult:
    """A loss value with its per-item breakdown and optional gradients.

    ``gradients`` maps input names to arrays matching each input's shape;
    it is populated for the contrastive losses and left ``None`` where the
    trainer differentiates through logits directly.
    """

    total: float
    per_item: Array
    gradients: Optional[dict[str, Array]] = None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _as_matrix(name: str, m: Array) -> Array:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def _unit_rows(name: str, m: Array) -> tuple[Array, Array]:
    """Row-normalize ``m``; zero rows are a domain error naming the input."""
    norms = np.linalg.norm(m, axis=-1)
    if np.any(norms == 0):
        bad = int(np.argwhere(norms == 0).ravel()[0])
        raise DomainError(f"{name} row {bad} has zero norm")
    return m / norms[..., None], norms


def _check_aligned(a: EmbeddingBatch, b: EmbeddingBatch) -> None:
    if a.n != b.n:
        raise ShapeError(f"batch sizes differ: {a.n} vs {b.n}")
    if a.dim != b.dim:
        raise ShapeError(f"embedding dims differ: {a.dim} vs {b.dim}")
    if a.batch_ids != b.batch_ids:
        raise AlignmentError(
            f"batch ids are not aligned: {a.batch_ids} vs {b.batch_ids}"
        )


def cosine_similarity(u: Array, v: Array) -> float:
    """Cosine of the angle between two vectors, in [-1, 1]."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ShapeError(f"vector dims differ: {u.shape[0]} vs {v.shape[0]}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0:
        raise DomainError("first argument has zero norm")
    if nv == 0:
        raise DomainError("second argument has zero norm")
    return float(np.dot(u, v) / (nu * nv))


# ---------------------------------------------------------------------------
# shared contrastive engine
# ---------------------------------------------------------------------------


def _contrastive_direction(
    anchors: Array,
    targets: Array,
    negatives: Optional[Array],
    tau: float,
    anchor_name: str,
    target_name: str,
):
    """One direction of in-batch softmax contrast, with gradients.

    per_item[i] = -sim(a_i, t_i)/tau + log( sum_j exp(sim(a_i, t_j)/tau)
                                           + sum_k exp(sim(a_i, n_ik)/tau) )

    Returns (per_item, d_anchors, d_targets, d_negatives); the gradients
    correspond to sum aggregation over items. ``negatives`` is an
    (N, M, d) tensor or None.
    """
    a_hat, a_norm = _unit_rows(anchor_name, anchors)
    t_hat, t_norm = _unit_rows(target_name, targets)
    n = anchors.shape[0]

    sims = a_hat @ t_hat.T  # (N, N)
    logits = sims / tau
    if negatives is not None and negatives.shape[1] > 0:
        neg_hat, neg_norm = _unit_rows("hard_negatives", negatives)
        neg_sims = np.einsum("id,imd->im", a_hat, neg_hat)  # (N, M)
        all_logits = np.concatenate([logits, neg_sims / tau], axis=1)
    else:
        neg_hat = neg_norm = neg_sims = None
        all_logits = logits

    row_max = np.max(all_logits, axis=1, keepdims=True)
    shifted = np.exp(all_logits - row_max)
    z = np.sum(shifted, axis=1)
    log_z = np.log(z) + row_max[:, 0]
    per_item = log_z - np.diagonal(logits)

    probs = shifted / z[:, None]  # softmax over batch (+ negatives)
    g = probs[:, :n].copy()
    np.fill_diagonal(g, np.diagonal(g) - 1.0)  # d per_item / d (sims/tau)

    # chain through cosine: d sim(a_i, t_j)/d a_i = (t_hat_j - sim * a_hat_i)/|a_i|
    coeff = np.einsum("ij,ij->i", g, sims)
    d_anchors = g @ t_hat
    d_targets = (g.T @ a_hat - (np.sum(g * sims, axis=0))[:, None] * t_hat) / (
        tau * t_norm[:, None]
    )
    d_negatives = None
    if neg_sims is not None:
        r = probs[:, n:]  # (N, M)
        coeff = coeff + np.einsum("im,im->i", r, neg_sims)
        d_anchors = d_anchors + np.einsum("im,imd->id", r, neg_hat)
        d_negatives = (
            r[..., None] * (a_hat[:, None, :] - neg_sims[..., None] * neg_hat)
        ) / (tau * neg_norm[..., None])
    d_anchors = (d_anchors - coeff[:, None] * a_hat) / (tau * a_norm[:, None])
    return per_item, d_anchors, d_targets, d_negatives


def infonce_loss(
    anchors: EmbeddingBatch, targets: EmbeddingBatch, temperature: float
) -> LossResult:
    """In-batch softmax contrastive loss in one direction.

    The aligned pair (anchor i, target i) is the positive; every other
    target in the batch is a negative. Total is the sum over items.
    Gradients: ``anchors``, ``targets``.
    """
    if not temperature > 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    _check_aligned(anchors, targets)
    per_item, d_a, d_t, _ = _contrastive_direction(
        anchors.vectors, targets.vectors, None, temperature, "anchors", "targets"
    )
    return LossResult(
        total=float(np.sum(per_item)),
        per_item=per_item,
        gradients={"anchors": d_a, "targets": d_t},
    )


def tcl_loss(
    reps: EmbeddingBatch,
    dropout_positives: EmbeddingBatch,
    temperature: float,
    hard_negatives: Optional[Array] = None,
) -> LossResult:
    """Sentence-level contrastive loss over dropout-derived positives.

    ``reps`` and ``dropout_positives`` encode the same captions under two
    independent dropout draws; the denominator runs over the positives of
    the whole batch. ``hard_negatives``, when given as an (N, M, d)
    tensor of perturbed-caption embeddings, adds M extra denominator
    terms per item. Total is the sum over items.
    Gradients: ``reps``, ``dropout_positives``, and ``hard_negatives``
    when provided.
    """
    if not temperature > 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    _check_aligned(reps, dropout_positives)
    negs = None
    if hard_negatives is not None:
        negs = np.asarray(hard_negatives, dtype=np.float64)
        if negs.ndim != 3 or negs.shape[0] != reps.n or negs.shape[2] != reps.dim:
            raise ShapeError(
                f"hard_negatives must be ({reps.n}, M, {reps.dim}), got shape {negs.shape}"
            )
        if negs.shape[1] == 0:
            negs = None
    per_item, d_r, d_p, d_n = _contrastive_direction(
        reps.vectors,
        dropout_positives.vectors,
        negs,
        temperature,
        "reps",
        "dropout_positives",
    )
    gradients = {"reps": d_r, "dropout_positives": d_p}
    if d_n is not None:
        gradients["hard_negatives"] = d_n
    elif hard_negatives is not None:
        gradients["hard_negatives"] = np.zeros_like(
            np.asarray(hard_negatives, dtype=np.float64)
        )
    return LossResult(
        total=float(np.sum(per_item)),
        per_item=per_item,
        gradients=gradients,
    )


def _bidirectional(
    image_batch: EmbeddingBatch,
    text_batch: EmbeddingBatch,
    negatives: Optional[Array],
    temperature: float,
):
    """Both contrastive directions; hard negatives only join image-to-text."""
    if not temperature > 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    _check_aligned(image_batch, text_batch)
    n = image_batch.n
    per_vl, d_img_1, d_txt_1, d_neg = _contrastive_direction(
        image_batch.vectors, text_batch.vectors, negatives, temperature,
        "image_batch", "text_batch",
    )
    per_lv, d_txt_2, d_img_2, _ = _contrastive_direction(
        text_batch.vectors, image_batch.vectors, None, temperature,
        "text_batch", "image_batch",
    )
    per_item = per_vl + per_lv
    gradients = {
        "image": (d_img_1 + d_img_2) / n,
        "text": (d_txt_1 + d_txt_2) / n,
    }
    if d_neg is not None:
        gradients["hard_negatives"] = d_neg / n
    return LossResult(
        total=float(np.mean(per_item)), per_item=per_item, gradients=gradients
    )


def cmcl_total(
    image_batch: EmbeddingBatch,
    text_batch: EmbeddingBatch,
    temperature: float,
) -> LossResult:
    """Bidirectional in-batch contrastive loss over aligned image/text pairs.

    total = mean_i ( image_to_text_i + text_to_image_i ).
    Gradients: ``image``, ``text``.
    """
    return _bidirectional(image_batch, text_batch, None, temperature)


def ans_loss(
    image_batch: EmbeddingBatch,
    text_batch: EmbeddingBatch,
    hard_negatives: Array,
    temperature: float,
) -> LossResult:
    """Bidirectional contrastive loss with per-item hard negative captions.

    ``hard_negatives[i, k]`` is the embedding of the k-th perturbed caption
    of item i; each adds one denominator term to the image-to-text
    direction of item i. The text-to-image direction is unchanged, and the
    aggregation is the same mean as :func:`cmcl_total`; with M = 0 the two
    losses agree bit for bit.
    Gradients: ``image``, ``text``, ``hard_negatives`` (when M > 0).
    """
    hard_negatives = np.asarray(hard_negatives, dtype=np.float64)
    if hard_negatives.ndim != 3:
        raise ShapeError(
            f"hard_negatives must be (N, M, d), got shape {hard_negatives.shape}"
        )
    n, m, d = hard_negatives.shape
    if n != image_batch.n or d != image_batch.dim:
        raise ShapeError(
            f"hard_negatives shape {hard_negatives.shape} does not match "
            f"batch ({image_batch.n}, M, {image_batch.dim})"
        )
    negs = hard_negatives if m > 0 else None
    result = _bidirectional(image_batch, text_batch, negs, temperature)
    if m == 0:
        result.gradients["hard_negatives"] = np.zeros_like(hard_negatives)
    return result


def hinge_loss(
    image_batch: EmbeddingBatch,
    text_batch: EmbeddingBatch,
    negative_images: EmbeddingBatch,
    negative_texts: EmbeddingBatch,
    margin: float,
) -> LossResult:
    """Margin ranking loss against one mismatched image and caption per item.

    per_item[i] = max(0, margin - sim(v_i, l_i) + sim(v'_i, l_i))
                + max(0, margin - sim(v_i, l_i) + sim(v_i, l'_i))

    Total is the sum over items. Gradients: ``image``, ``text``,
    ``negative_images``, ``negative_texts`` (subgradient 0 at the kink).
    """
    if margin < 0:
        raise ConfigError(f"margin must be non-negative, got {margin}")
    for other in (text_batch, negative_images, negative_texts):
        if other.n != image_batch.n:
            raise ShapeError(
                f"batch sizes differ: {image_batch.n} vs {other.n}"
            )
        if other.dim != image_batch.dim:
            raise ShapeError(
                f"embedding dims differ: {image_batch.dim} vs {other.dim}"
            )

    v_hat, v_norm = _unit_rows("image_batch", image_batch.vectors)
    l_hat, l_norm = _unit_rows("text_batch", text_batch.vectors)
    vn_hat, vn_norm = _unit_rows("negative_images", negative_images.vectors)
    ln_hat, ln_norm = _unit_rows("negative_texts", negative_texts.vectors)

    s_pos = np.einsum("id,id->i", v_hat, l_hat)
    s_img_neg = np.einsum("id,id->i", vn_hat, l_hat)  # sim(v'_i, l_i)
    s_txt_neg = np.einsum("id,id->i", v_hat, ln_hat)  # sim(v_i, l'_i)

    term1 = margin - s_pos + s_img_neg
    term2 = margin - s_pos + s_txt_neg
    act1 = (term1 > 0).astype(np.float64)
    act2 = (term2 > 0).astype(np.float64)
    per_item = np.maximum(term1, 0.0) + np.maximum(term2, 0.0)

    # d sim(u, w)/d u = (w_hat - sim * u_hat) / |u|
    def dsim(u_hat, u_norm, w_hat, s):
        return (w_hat - s[:, None] * u_hat) / u_norm[:, None]

    w_pos = -(act1 + act2)
    d_img = (
        w_pos[:, None] * dsim(v_hat, v_norm, l_hat, s_pos)
        + act2[:, None] * dsim(v_hat, v_norm, ln_hat, s_txt_neg)
    )
    d_txt = (
        w_pos[:, None] * dsim(l_hat, l_norm, v_hat, s_pos)
        + act1[:, None] * dsim(l_hat, l_norm, vn_hat, s_img_neg)
    )
    d_img_neg = act1[:, None] * dsim(vn_hat, vn_norm, l_hat, s_img_neg)
    d_txt_neg = act2[:, None] * dsim(ln_hat, ln_norm, v_hat, s_txt_neg)

    return LossResult(
        total=float(np.sum(per_item)),
        per_item=per_item,
        gradients={
            "image": d_img,
            "text": d_txt,
            "negative_images": d_img_neg,
            "negative_texts": d_txt_neg,
        },
    )


# ---------------------------------------------------------------------------
# classification-style objectives
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: Array, targets: Array) -> tuple[float, Array]:
    """Mean cross-entropy of softmax(logits) rows against integer targets,
    and its gradient on the logits.

    The loss is logsumexp minus the target logit, so it stays finite where
    -log(softmax) underflows. This is the cross-entropy the trainer's token
    heads and the fine-tuner run; ``mlm_loss`` and ``voken_loss`` below take
    probability rows and serve as its reference.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    idx = np.arange(len(targets))
    loss = float(np.mean(np.log(z[:, 0]) - shifted[idx, targets]))
    d_logits = e / z
    d_logits[idx, targets] -= 1.0
    d_logits /= len(targets)
    return loss, d_logits


def _check_distributions(name: str, dists: Array) -> Array:
    dists = _as_matrix(name, dists)
    if dists.shape[0] > 0:
        sums = np.sum(dists, axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            bad = int(np.argwhere(np.abs(sums - 1.0) > 1e-6).ravel()[0])
            raise ValidationError(
                f"{name} row {bad} sums to {sums[bad]!r}, not 1"
            )
        if np.any(dists < -1e-9):
            raise ValidationError(f"{name} contains negative probabilities")
    return dists


def mlm_loss(predicted_distributions: Array, targets: Array) -> LossResult:
    """Cross-entropy of masked-token predictions.

    One probability row per masked position; total is the mean of
    -log p(target). An empty input contributes zero.
    """
    dists = _check_distributions("predicted_distributions", predicted_distributions)
    targets = np.asarray(targets, dtype=np.int64).ravel()
    if targets.shape[0] != dists.shape[0]:
        raise ShapeError(
            f"{targets.shape[0]} targets for {dists.shape[0]} distributions"
        )
    if targets.shape[0] == 0:
        return LossResult(total=0.0, per_item=np.zeros(0))
    vocab = dists.shape[1]
    if np.any(targets < 0) or np.any(targets >= vocab):
        bad = int(np.argwhere((targets < 0) | (targets >= vocab)).ravel()[0])
        raise IndexError(
            f"target {targets[bad]} at position {bad} outside vocabulary of size {vocab}"
        )
    with np.errstate(divide="ignore"):
        per_item = -np.log(dists[np.arange(targets.shape[0]), targets])
    return LossResult(total=float(np.mean(per_item)), per_item=per_item)


NO_VOKEN = -1


def voken_loss(voken_distributions: Array, voken_targets: Array) -> LossResult:
    """Cross-entropy of per-token voken classification.

    Targets equal to ``NO_VOKEN`` mark tokens without an assigned voken;
    they contribute zero per-item loss and are excluded from the mean.
    """
    dists = _check_distributions("voken_distributions", voken_distributions)
    targets = np.asarray(voken_targets, dtype=np.int64).ravel()
    if targets.shape[0] != dists.shape[0]:
        raise ShapeError(
            f"{targets.shape[0]} targets for {dists.shape[0]} distributions"
        )
    assigned = targets != NO_VOKEN
    k = dists.shape[1]
    if np.any((targets < 0) & assigned) or np.any(targets >= k):
        bad = int(
            np.argwhere(((targets < 0) & assigned) | (targets >= k)).ravel()[0]
        )
        raise IndexError(
            f"voken target {targets[bad]} at position {bad} outside vocabulary of size {k}"
        )
    per_item = np.zeros(targets.shape[0])
    if np.any(assigned):
        idx = np.argwhere(assigned).ravel()
        with np.errstate(divide="ignore"):
            per_item[idx] = -np.log(dists[idx, targets[idx]])
        total = float(np.sum(per_item) / idx.shape[0])
    else:
        total = 0.0
    return LossResult(total=total, per_item=per_item)


# ---------------------------------------------------------------------------
# activation-distribution matching
# ---------------------------------------------------------------------------


def _poly2_gram(a: Array, b: Array) -> Array:
    """Kernel matrix k(x, y) = (x . y)^2 between row sets."""
    return (a @ b.T) ** 2


def nst_loss(teacher_activations: Array, student_activations: Array) -> float:
    """Squared maximum mean discrepancy between two activation sets.

    Rows are L2-normalized internally and compared under the polynomial
    kernel k(x, y) = (x . y)^2. The V-statistic estimator is used, so the
    value is non-negative and exactly zero when the two sets have the same
    kernel mean embedding (identical sets, or one a permutation of the
    other).
    """
    value, _ = _nst_value_and_grad(teacher_activations, student_activations)
    return value


def nst_loss_with_grad(
    teacher_activations: Array, student_activations: Array
) -> tuple[float, Array]:
    """:func:`nst_loss` plus its gradient w.r.t. the student activations."""
    return _nst_value_and_grad(
        teacher_activations, student_activations, with_grad=True
    )


def _nst_value_and_grad(teacher: Array, student: Array, with_grad: bool = False):
    teacher = _as_matrix("teacher_activations", teacher)
    student = _as_matrix("student_activations", student)
    if teacher.shape[0] == 0:
        raise DomainError("teacher activation set is empty")
    if student.shape[0] == 0:
        raise DomainError("student activation set is empty")
    if teacher.shape[1] != student.shape[1]:
        raise ShapeError(
            f"activation dims differ ({teacher.shape[1]} vs {student.shape[1]})"
        )
    t_hat, _ = _unit_rows("teacher_activations", teacher)
    s_hat, s_norm = _unit_rows("student_activations", student)
    n = t_hat.shape[0]
    m = s_hat.shape[0]

    k_tt = _poly2_gram(t_hat, t_hat)
    k_ss = _poly2_gram(s_hat, s_hat)
    k_ts = _poly2_gram(t_hat, s_hat)
    value = float(np.mean(k_tt) + np.mean(k_ss) - 2.0 * np.mean(k_ts))
    # the V-statistic is a squared feature-mean distance; clamp the tiny
    # negative values floating point can leave behind
    value = max(value, 0.0)
    if not with_grad:
        return value, None

    lin_ss = s_hat @ s_hat.T
    lin_ts = t_hat @ s_hat.T
    d_s_hat = (4.0 / (m * m)) * (lin_ss @ s_hat) - (4.0 / (n * m)) * (
        lin_ts.T @ t_hat
    )
    # back through row normalization
    proj = np.einsum("id,id->i", s_hat, d_s_hat)
    d_student = (d_s_hat - proj[:, None] * s_hat) / s_norm[:, None]
    return value, d_student
