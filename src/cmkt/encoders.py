"""Desk-scale text and image encoders with explicit gradients.

The text encoder is a small single-head transformer (token + position
embeddings, self-attention blocks with post-layer-norm residuals, ReLU
feed-forward) written directly in numpy. Forward passes return a cache;
``backward`` consumes it and produces parameter gradients, so training
needs no autodiff framework. Real pre-trained encoders can be plugged in
behind the same encode/backward interface.

The image side is a frozen bank of precomputed feature rows behind a
trainable affine projection; no vision backbone lives here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    FeatureLookupError,
    ParseError,
    ShapeError,
    TokenizationError,
    ValidationError,
)
from .objectives import IMAGE, EmbeddingBatch, softmax_cross_entropy
from .seeding import rng_for
from .textio import parse_errors, read_lines, tab_fields, write_bytes, write_lines

PAD_ID = 0
LN_EPS = 1e-5
MASK_BIAS = -1e9

MEAN_POOL = "mean"
FIRST_POOL = "first"


@dataclass(frozen=True)
class TextEncoderConfig:
    vocab_size: int
    dim: int = 32
    ffn_dim: int = 64
    num_blocks: int = 2
    max_len: int = 20
    dropout: float = 0.1
    pooling: str = MEAN_POOL
    voken_count: int = 0
    init_scale: float = 0.02

    def __post_init__(self):
        if self.vocab_size < 5:
            raise ConfigError(f"vocab_size must cover the 4 specials plus a word, got {self.vocab_size}")
        for name in ("dim", "ffn_dim", "num_blocks", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.pooling not in (MEAN_POOL, FIRST_POOL):
            raise ConfigError(f"pooling must be {MEAN_POOL!r} or {FIRST_POOL!r}, got {self.pooling!r}")
        if self.voken_count < 0:
            raise ConfigError(f"voken_count must be >= 0, got {self.voken_count}")


# The layer-norm variance, the backward row means and every bias, gamma and
# beta column sum are matrix-vector products: at these narrow shapes a GEMV
# is several times faster than a reduction along an axis.


def _ln_forward(x, gamma, beta):
    """Layer norm over the rows of a 2-D array. ``x`` is overwritten with
    the normalized rows, which the cache keeps. The row mean stays a
    reduction: a GEMV mean rounds differently, enough to push the
    first-token-pooling finite-difference test just past its bound."""
    x_hat = x
    x_hat -= x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((x_hat * x_hat) @ np.full(x.shape[1], 1.0 / x.shape[1]) + LN_EPS)
    x_hat *= inv[:, None]
    cache = (x_hat, inv, gamma)
    return _ln_output(cache, beta), cache


def _ln_output(cache, beta):
    """The output of :func:`_ln_forward` from its cache: backward rebuilds
    an output it needs with these same operations instead of keeping it."""
    x_hat, _, gamma = cache
    out = x_hat * gamma
    out += beta
    return out


def _ln_backward(d_out, cache, ones):
    """Input, gamma and beta gradients of :func:`_ln_forward`; ``ones`` has
    one entry per row."""
    x_hat, inv, gamma = cache
    d_out_x_hat = d_out * x_hat
    gamma_mean = gamma / x_hat.shape[1]
    d_x = d_out * gamma
    d_x -= (d_out @ gamma_mean)[:, None]
    d_x -= x_hat * (d_out_x_hat @ gamma_mean)[:, None]
    d_x *= inv[:, None]
    return d_x, ones @ d_out_x_hat, ones @ d_out


def _softmax_last(x):
    """Softmax over the last axis, computed in place in ``x``. The row max,
    a running ``np.maximum`` over columns, is exact, and faster than
    ``np.max`` on batches of about 32 sequences or more."""
    row_max = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(row_max, x[..., j], out=row_max)
    x -= row_max[..., None]
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _wgrad(a, b):
    """Weight gradient of ``a @ W`` given output gradient ``b``: one GEMM over every leading axis."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _row_wgrad(a, b, n):
    """:func:`_wgrad` of two ``(n * length, .)`` row matrices, taken through
    their ``(n, length, .)`` views."""
    return _wgrad(a.reshape(n, -1, a.shape[-1]), b.reshape(n, -1, b.shape[-1]))


def _embedding_grad(tokens, d_emb, vocab_size):
    """Sum of ``d_emb`` rows per token id, added in the same order as ``np.add.at``:
    one bincount over (token id, column) bins."""
    dim = d_emb.shape[-1]
    bins = (tokens.reshape(-1, 1) * dim + np.arange(dim)).ravel()
    return np.bincount(bins, weights=d_emb.ravel(),
                       minlength=vocab_size * dim).reshape(vocab_size, dim)


def _undrop(d_out, keep, p):
    """Gradient through a dropout site whose cached keep-mask is ``keep``,
    scaled the way :func:`_drop` scales its output. ``d_out`` is not written."""
    if keep is None:
        return d_out
    d_in = d_out * keep
    d_in *= 1.0 / (1.0 - p)
    return d_in


def _apply_keep(x, keep, p):
    """``x`` times the keep-mask ``keep``, then times ``1 / (1 - p)``, in
    place; unchanged when ``keep`` is None."""
    if keep is not None:
        x *= keep
        x *= 1.0 / (1.0 - p)
    return x


def _drop(x, site, rng, p, saved):
    """Dropout at ``site``, in place on ``x``: the bool keep-mask is the next
    ``x.shape`` uniforms of ``rng`` at or above ``p`` (None when dropout is
    off), applied by :func:`_apply_keep`. The mask goes to ``saved`` unless
    that is None."""
    keep = None if rng is None else rng.random(x.shape) >= p
    if saved is not None:
        saved["drop." + site] = keep
    return _apply_keep(x, keep, p)


def _ffn_backward(d_r2, blk, keep, p_drop, P, p, grads, ones, n):
    """Backward through the feed-forward half of block ``p`` over ``n``
    sequences, from the gradient ``d_r2`` on its second layer norm's
    input: its dropout site and ReLU feed-forward. Rebuilds the first
    layer norm's output and the ReLU activation from the block cache
    ``blk`` with the forward's operations, writes the parameter gradients
    to ``grads`` and returns the gradient on the first layer norm's
    output. Each temporary is freed after its last read."""
    d_ffn = _undrop(d_r2, keep, p_drop)
    y = _ln_output(blk["ln1"], P[p + "ln1_b"])
    h = y @ P[p + "w1"]
    h += P[p + "b1"]
    np.maximum(h, 0.0, out=h)
    grads[p + "w2"] = _row_wgrad(h, d_ffn, n)
    grads[p + "b2"] = ones @ d_ffn
    d_pre = d_ffn @ P[p + "w2"].T
    del d_ffn
    d_pre *= h > 0
    del h
    grads[p + "w1"] = _row_wgrad(y, d_pre, n)
    del y
    grads[p + "b1"] = ones @ d_pre
    d_y = d_pre @ P[p + "w1"].T
    del d_pre
    d_y += d_r2
    return d_y


def _attention_backward(d_r1, blk, keep, p_drop, x_in, P, p, grads, ones):
    """Backward through the attention half of block ``p``, from the
    gradient ``d_r1`` on its first layer norm's input: its dropout site,
    output projection and single-head attention over the input ``x_in``,
    from which it rebuilds Q/K/V with the forward's operations. Pops the
    attention entries of the block cache ``blk``, writes the parameter
    gradients to ``grads`` and returns the gradient on ``x_in``.
    Each temporary is freed after its last read, and the Q/K/V gradient
    overwrites the rebuilt Q/K/V: V's slot first, since ``v`` is spent once
    ``d_attn`` exists, then K's, once ``d_scores @ k`` is taken."""
    d_proj = _undrop(d_r1, keep, p_drop)
    attn, w_qkv = blk.pop("attn"), blk.pop("w_qkv")
    n, length, d = attn.shape[0], attn.shape[1], x_in.shape[1]
    qkv = x_in @ w_qkv
    qkv += blk.pop("b_qkv")
    qkv = qkv.reshape(n, length, 3 * d)
    q, k, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
    grads[p + "wo"] = _row_wgrad((attn @ v).reshape(n * length, d), d_proj, n)
    grads[p + "bo"] = ones @ d_proj
    d_ctx = (d_proj @ P[p + "wo"].T).reshape(n, length, d)
    del d_proj
    d_attn = d_ctx @ v.transpose(0, 2, 1)
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    del d_attn
    np.matmul(attn.transpose(0, 2, 1), d_ctx, out=v)
    del attn, d_ctx
    d_q = d_scores @ k
    np.matmul(d_scores.transpose(0, 2, 1), q, out=k)
    del d_scores
    q[...] = d_q
    del d_q
    qkv[..., : 2 * d] *= 1.0 / np.sqrt(d)
    d_qkv = qkv.reshape(n * length, 3 * d)
    g_qkv = _row_wgrad(x_in, d_qkv, n)
    del x_in
    b_qkv = ones @ d_qkv
    for j, side in enumerate("qkv"):
        grads[p + "w" + side] = g_qkv[:, j * d : (j + 1) * d]
        grads[p + "b" + side] = b_qkv[j * d : (j + 1) * d]
    d_x = d_qkv @ w_qkv.T
    d_x += d_r1
    return d_x


class TextEncoder:
    """A pure-numpy transformer encoder over token-id sequences.

    Every forward pass is a deterministic function of (parameters, input,
    dropout seed); passing ``dropout_seed=None`` disables dropout
    entirely, which is the evaluation mode. A training forward derives
    one generator, ``rng_for(dropout_seed, "dropout")``, and its dropout
    sites draw their keep-masks from it in a fixed order: ``emb``, then
    ``blk<i>.attn`` and ``blk<i>.ffn`` for each block in turn.
    """

    def __init__(self, config: TextEncoderConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, np.ndarray] = {}
        c = config
        self._add_param(seed, "tok_emb", (c.vocab_size, c.dim))
        self._add_param(seed, "pos_emb", (c.max_len, c.dim))
        for i in range(c.num_blocks):
            p = f"blk{i}."
            for w in ("wq", "wk", "wv", "wo"):
                self._add_param(seed, p + w, (c.dim, c.dim))
            for b in ("bq", "bk", "bv", "bo"):
                self.params[p + b] = np.zeros(c.dim)
            self.params[p + "ln1_g"] = np.ones(c.dim)
            self.params[p + "ln1_b"] = np.zeros(c.dim)
            self._add_param(seed, p + "w1", (c.dim, c.ffn_dim))
            self.params[p + "b1"] = np.zeros(c.ffn_dim)
            self._add_param(seed, p + "w2", (c.ffn_dim, c.dim))
            self.params[p + "b2"] = np.zeros(c.dim)
            self.params[p + "ln2_g"] = np.ones(c.dim)
            self.params[p + "ln2_b"] = np.zeros(c.dim)
        self._add_param(seed, "mlm_w", (c.dim, c.vocab_size))
        self.params["mlm_b"] = np.zeros(c.vocab_size)
        if c.voken_count > 0:
            self._add_param(seed, "voken_w", (c.dim, c.voken_count))
            self.params["voken_b"] = np.zeros(c.voken_count)

    def _add_param(self, seed, name, shape):
        self.params[name] = rng_for(seed, "init", name).normal(
            scale=self.config.init_scale, size=shape
        )

    @property
    def dim(self) -> int:
        return self.config.dim

    # ---------------------------------------------------------------- input

    def prepare_batch(self, seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
        """Left-aligned pad-0 batch plus its real-token mask."""
        if len(seqs) == 0:
            raise ShapeError("cannot encode an empty batch")
        v, max_len = self.config.vocab_size, self.config.max_len
        lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
        kept = np.minimum(lengths, max_len)  # ids past max_len are never checked or stored
        real = np.arange(kept.max()) < kept[:, None]
        tokens = np.full(real.shape, PAD_ID, dtype=np.int64)
        tokens[real] = np.fromiter(chain.from_iterable(s[:max_len] for s in seqs),
                                   dtype=np.int64, count=kept.sum())
        bad = real & ((tokens < 0) | (tokens >= v))
        too_long = lengths > max_len
        offenders = np.flatnonzero((lengths == 0) | too_long | bad.any(axis=1))
        if offenders.size:  # the first bad sequence decides, checked in the order below
            b = int(offenders[0])
            if lengths[b] == 0:
                raise TokenizationError(f"sequence {b} is empty")
            if too_long[b]:
                raise ValidationError(f"sequence {b} has {lengths[b]} tokens, maximum is {max_len}")
            pos = int(np.argmax(bad[b]))
            raise TokenizationError(
                f"sequence {b} position {pos}: token id {seqs[b][pos]} outside vocabulary of size {v}"
            )
        return tokens, real.astype(np.float64)

    # -------------------------------------------------------------- forward

    def forward(
        self,
        tokens: np.ndarray,
        mask: np.ndarray,
        dropout_seed: Optional[int] = None,
        *,
        record: bool = True,
    ) -> dict:
        """Run the encoder on the ``(tokens, mask)`` pair that
        :meth:`prepare_batch` builds: ``(n, length)`` ids, each row
        left-aligned and padded with id 0, and a mask of 1.0 on real tokens.
        Neither array is written, so one pair can serve several forwards.
        Returns a cache holding pooled output, hidden states, per-block
        pooled activations and, when ``record`` is true, what the backward
        pass needs: each dropout site's bool keep-mask and, per block, the
        fused Q/K/V weights and bias, attention weights and both layer
        norms' normalized rows. Backward rebuilds the rest, block inputs
        included, and consumes this part, so the cache goes to
        :meth:`backward` once. Every other intermediate is freed after its
        last read. Inference passes ``record=False``: the cache then holds
        no backward state and cannot go to :meth:`backward`."""
        P = self.params
        cache: dict = {"tokens": tokens, "mask": mask}
        saved = cache if record else None  # where keep-masks go
        n, length = tokens.shape
        d = self.config.dim
        p_drop = self.config.dropout
        rng = None
        if dropout_seed is not None and p_drop != 0.0:
            rng = rng_for(dropout_seed, "dropout")

        # hidden states are (n * length, d) matrices, so every projection is
        # one GEMM; attention works on (n, length, .) views of them. Biases,
        # dropout masks, residuals and the ReLU are applied in place on fresh
        # GEMM outputs; softmax overwrites the scores and layer norm the
        # residual sum.
        x = _drop(self._embed(tokens), "emb", rng, p_drop, saved)
        pool_weights = self._pool_weights(mask)
        cache["block_pooled"] = []
        scale = 1.0 / np.sqrt(d)
        col_bias = (1.0 - mask)[:, None, :] * MASK_BIAS

        for i in range(self.config.num_blocks):
            p = f"blk{i}."
            w_qkv = np.concatenate([P[p + "wq"], P[p + "wk"], P[p + "wv"]], axis=1)
            b_qkv = np.concatenate([P[p + "bq"], P[p + "bk"], P[p + "bv"]])
            qkv = x @ w_qkv
            qkv += b_qkv
            qkv = qkv.reshape(n, length, 3 * d)
            q, k, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
            scores = q @ k.transpose(0, 2, 1)
            scores *= scale
            scores += col_bias
            attn = _softmax_last(scores)
            ctx = (attn @ v).reshape(n * length, d)
            del qkv, q, k, v
            proj = ctx @ P[p + "wo"]
            del ctx
            proj += P[p + "bo"]
            r1 = _drop(proj, p + "attn", rng, p_drop, saved)
            r1 += x
            del x
            y, ln1 = _ln_forward(r1, P[p + "ln1_g"], P[p + "ln1_b"])
            h = y @ P[p + "w1"]
            h += P[p + "b1"]
            np.maximum(h, 0.0, out=h)
            ffn = h @ P[p + "w2"]
            del h
            ffn += P[p + "b2"]
            r2 = _drop(ffn, p + "ffn", rng, p_drop, saved)
            r2 += y
            del y
            x, ln2 = _ln_forward(r2, P[p + "ln2_g"], P[p + "ln2_b"])
            if record:
                cache[f"blk{i}"] = dict(w_qkv=w_qkv, b_qkv=b_qkv, attn=attn, ln1=ln1, ln2=ln2)
            cache["block_pooled"].append(self._pool(x.reshape(n, length, d), pool_weights))

        cache["hidden"] = x.reshape(n, length, d)
        cache["pooled"] = cache["block_pooled"][-1].copy()
        return cache

    def _pool_weights(self, mask):
        """Per-position pooling weights: 1 at the first position, or each
        real token's share of the mean."""
        if self.config.pooling == FIRST_POOL:
            weights = np.zeros_like(mask)
            weights[:, 0] = 1.0
            return weights
        return mask / mask.sum(axis=1, keepdims=True)

    @staticmethod
    def _pool(hidden, weights):
        """Pooled ``(n, d)`` output of ``(n, length, d)`` hidden states."""
        return (weights[:, None, :] @ hidden)[:, 0, :]

    @staticmethod
    def _pool_backward(d_pooled, weights):
        return weights[:, :, None] * d_pooled[:, None, :]

    # ------------------------------------------------------------- backward

    def backward(
        self,
        cache: dict,
        d_pooled: Optional[np.ndarray] = None,
        d_hidden: Optional[np.ndarray] = None,
        d_block_pooled: Optional[list] = None,
    ) -> dict[str, np.ndarray]:
        """Parameter gradients for any mix of upstream gradients: on the
        final pooled vector, on per-position hidden states, and on each
        block's pooled activation (used by activation matching).

        Backward consumes the cache of a recording :meth:`forward`: it pops
        each block's intermediates and keep-masks as it reads them, so a
        cache goes to backward once. ``tokens``, ``mask``, ``hidden``,
        ``pooled`` and ``block_pooled`` stay."""
        if f"blk{self.config.num_blocks - 1}" not in cache:
            raise ValidationError(
                "cache holds no backward state: its forward ran with record=False, "
                "or backward already consumed it"
            )
        P = self.params
        pool_weights = self._pool_weights(cache["mask"])
        tokens = cache["tokens"]
        n, length = tokens.shape
        d = self.config.dim
        p_drop = self.config.dropout
        grads: dict[str, np.ndarray] = {}
        ones = np.ones(n * length)

        d_x = np.zeros((n * length, d))
        if d_hidden is not None:
            d_x += d_hidden.reshape(n * length, d)
        if d_pooled is not None:
            d_x += self._pool_backward(d_pooled, pool_weights).reshape(n * length, d)

        for i in reversed(range(self.config.num_blocks)):
            if d_block_pooled is not None and d_block_pooled[i] is not None:
                d_x += self._pool_backward(d_block_pooled[i], pool_weights).reshape(n * length, d)
            p = f"blk{i}."
            blk = cache.pop(f"blk{i}")
            # each layer norm backward and each half returns the gradient
            # on its input; assigning it to d_x frees the gradient it took
            d_x, grads[p + "ln2_g"], grads[p + "ln2_b"] = _ln_backward(d_x, blk.pop("ln2"), ones)
            d_x = _ffn_backward(d_x, blk, cache.pop(f"drop.{p}ffn"), p_drop,
                                P, p, grads, ones, n)
            d_x, grads[p + "ln1_g"], grads[p + "ln1_b"] = _ln_backward(d_x, blk.pop("ln1"), ones)
            d_x = _attention_backward(d_x, blk, cache.pop(f"drop.{p}attn"), p_drop,
                                      self._block_input(cache, blk, i), P, p, grads, ones)

        d_emb = _undrop(d_x, cache.pop("drop.emb"), p_drop).reshape(n, length, d)
        grads["tok_emb"] = _embedding_grad(tokens, d_emb, self.config.vocab_size)
        grads["pos_emb"] = np.zeros_like(P["pos_emb"])
        grads["pos_emb"][:length] = d_emb.sum(axis=0)
        return grads

    def _embed(self, tokens):
        """The ``(n * length, dim)`` token plus position embeddings of ``tokens``."""
        n, length = tokens.shape
        P = self.params
        return (P["tok_emb"][tokens] + P["pos_emb"][:length]).reshape(n * length, self.dim)

    def _block_input(self, cache, blk, i):
        """Block ``i``'s input, rebuilt with the forward's operations: the
        first block's from the tokens and the embedding keep-mask, a later
        block's from the second layer norm before it."""
        if i == 0:
            return _apply_keep(self._embed(cache["tokens"]), cache["drop.emb"],
                               self.config.dropout)
        return _ln_output(cache[f"blk{i - 1}"]["ln2"], self.params[f"blk{i - 1}.ln2_b"])

    # ---------------------------------------------------------- public API

    def encode(self, seqs: Sequence[Sequence[int]]) -> np.ndarray:
        """Pooled ``(n, dim)`` vectors of token sequences, dropout disabled."""
        return self.forward(*self.prepare_batch(seqs), record=False)["pooled"]

    def block_activations(self, seqs: Sequence[Sequence[int]]) -> list[np.ndarray]:
        """Per-block mean-pooled hidden states, dropout disabled."""
        return self.forward(*self.prepare_batch(seqs), record=False)["block_pooled"]

    def mlm_step(self, tokens, mask, selections, dropout_seed: Optional[int] = None):
        """Fused masked-token loss and gradients on a padded batch.

        ``selections`` holds (batch index, position, target id) triples,
        as a list or a ``(k, 3)`` array; the loss is the mean
        cross-entropy over them. Returns (loss, gradient dict covering
        trunk and head).
        """
        if len(selections) == 0:
            return 0.0, {}
        rows, cols, targets = np.asarray(selections, dtype=np.int64).reshape(-1, 3).T
        n, length = tokens.shape
        if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= length)):
            raise ValidationError("masked position outside the padded batch")
        return self._head_step(tokens, mask, dropout_seed, "mlm", rows, cols, targets)

    def voken_step(self, tokens, mask, voken_targets, dropout_seed: Optional[int] = None):
        """Fused voken-classification loss and gradients on a padded batch.

        ``voken_targets`` is an array of the shape of ``tokens``; entries
        of -1 mark positions without a voken and are excluded, and any
        other entry outside ``[0, voken_count)`` is a ``ValidationError``.
        """
        if self.config.voken_count == 0:
            raise ConfigError("encoder was built without a voken head")
        targets = np.asarray(voken_targets, dtype=np.int64)
        if targets.shape != tokens.shape:
            raise ShapeError(
                f"voken targets shape {targets.shape} does not match batch {tokens.shape}"
            )
        rows, cols = np.nonzero(targets != -1)
        if rows.size == 0:
            return 0.0, {}
        return self._head_step(tokens, mask, dropout_seed, "voken", rows, cols, targets[rows, cols])

    def _head_step(self, tokens, mask, dropout_seed, head, rows, cols, targets):
        """Cross-entropy of a token head (``mlm`` or ``voken``) at the
        selected positions, with gradients for the trunk and the head.
        Only the selected hidden states are scored."""
        w = self.params[head + "_w"]
        if np.any((targets < 0) | (targets >= w.shape[1])):
            raise ValidationError(f"{head} target outside [0, {w.shape[1]})")
        cache = self.forward(tokens, mask, dropout_seed)
        hidden = cache["hidden"]
        n, length, d = hidden.shape
        picked = hidden[rows, cols]
        logits = picked @ w
        logits += self.params[head + "_b"]
        loss, d_logits = softmax_cross_entropy(logits, targets)
        # a position selected twice gets both gradients: the scatter-add
        # of the embedding gradient, over flat batch positions
        d_hidden = _embedding_grad(rows * length + cols, d_logits @ w.T, n * length)
        grads = self.backward(cache, d_hidden=d_hidden.reshape(n, length, d))
        grads[head + "_w"] = picked.T @ d_logits
        grads[head + "_b"] = np.ones(len(targets)) @ d_logits
        return loss, grads

    # -------------------------------------------------------- param plumbing

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(params)
        extra = set(params) - set(self.params)
        if missing or extra:
            raise ConfigError(
                f"parameter names do not match encoder: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        for k, v in params.items():
            if v.shape != self.params[k].shape:
                raise ShapeError(
                    f"parameter {k}: shape {v.shape} does not match {self.params[k].shape}"
                )
            self.params[k] = np.asarray(v, dtype=np.float64).copy()


# ---------------------------------------------------------------------------
# image side
# ---------------------------------------------------------------------------

FEATURE_MAGIC = b"CMKTFEAT"
FEATURE_VERSION = 1


class FeatureBank:
    """Immutable store of precomputed image feature rows, keyed by id."""

    def __init__(self, ids: Sequence[str], features: np.ndarray):
        features = np.asarray(features, dtype=np.float32)
        if features.ndim != 2:
            raise ShapeError(f"feature bank must be 2-D, got shape {features.shape}")
        ids = list(ids)
        if len(ids) != features.shape[0]:
            raise ShapeError(f"{len(ids)} ids for {features.shape[0]} feature rows")
        if len(set(ids)) != len(ids):
            raise ValidationError("feature bank ids must be unique")
        self._ids = ids
        self._features = features
        self._features.setflags(write=False)
        self._row_of = {img_id: row for row, img_id in enumerate(ids)}

    @property
    def dim(self) -> int:
        return self._features.shape[1]

    def __len__(self) -> int:
        return self._features.shape[0]

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._row_of

    def vectors(self, image_ids: Sequence[str]) -> np.ndarray:
        rows = []
        for img_id in image_ids:
            if img_id not in self._row_of:
                raise FeatureLookupError(f"image id {img_id!r} not in feature bank")
            rows.append(self._row_of[img_id])
        return self._features[rows].astype(np.float64)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        header = FEATURE_MAGIC + struct.pack(
            "<III", FEATURE_VERSION, len(self), self.dim
        )
        write_bytes(path, header + self._features.astype("<f4").tobytes())
        write_lines(
            str(path) + ".ids", (f"{img_id}\t{row}" for row, img_id in enumerate(self._ids))
        )

    @classmethod
    def load(cls, path: str | Path) -> "FeatureBank":
        path = Path(path)
        raw = path.read_bytes()
        if len(raw) < 20 or raw[:8] != FEATURE_MAGIC:
            raise ParseError(f"{path}: not a feature bank file (bad magic)")
        version, count, dim = struct.unpack("<III", raw[8:20])
        if version != FEATURE_VERSION:
            raise ParseError(f"{path}: unsupported feature bank version {version}")
        expected = 20 + count * dim * 4
        if len(raw) != expected:
            raise ParseError(f"{path}: expected {expected} bytes, found {len(raw)}")
        features = np.frombuffer(raw[20:], dtype="<f4").reshape(count, dim)
        bad = ~np.isfinite(features).all(axis=1)
        if bad.any():
            raise ParseError(f"{path}: feature row {int(np.argmax(bad))} holds a non-finite entry")
        sidecar = str(path) + ".ids"
        ids: list[Optional[str]] = [None] * count
        for where, line in read_lines(sidecar):
            with parse_errors(where):
                img_id, row = tab_fields(line, 2)
                row = int(row)
                if not 0 <= row < count or ids[row] is not None:
                    raise ValueError(f"bad or duplicate row {row}")
            ids[row] = img_id
        if None in ids:
            raise ParseError(f"{sidecar}: id map does not cover all {count} rows")
        with parse_errors(sidecar):
            return cls(ids, features)


class ImageEncoder:
    """A frozen feature bank behind a trainable affine projection."""

    def __init__(self, bank: FeatureBank, proj_w: np.ndarray, proj_b: np.ndarray):
        proj_w = np.asarray(proj_w, dtype=np.float64)
        proj_b = np.asarray(proj_b, dtype=np.float64)
        if proj_w.ndim != 2 or proj_w.shape[0] != bank.dim:
            raise ShapeError(
                f"projection must map feature dim {bank.dim}, got shape {proj_w.shape}"
            )
        if proj_b.shape != (proj_w.shape[1],):
            raise ShapeError(
                f"projection bias shape {proj_b.shape} does not match output dim {proj_w.shape[1]}"
            )
        self.bank = bank
        self.params = {"proj_w": proj_w, "proj_b": proj_b}

    @classmethod
    def initialized(cls, bank: FeatureBank, out_dim: int, seed: int) -> "ImageEncoder":
        w = rng_for(seed, "init", "proj_w").normal(scale=0.2, size=(bank.dim, out_dim))
        return cls(bank, w, np.zeros(out_dim))

    def project(self, image_ids: Sequence[str]) -> np.ndarray:
        """The ``(n, dim)`` projected features, not checked: a loaded bank's
        rows are finite, so a non-finite output means the projection diverged."""
        return self.bank.vectors(image_ids) @ self.params["proj_w"] + self.params["proj_b"]

    def encode(self, image_ids: Sequence[str]) -> EmbeddingBatch:
        return EmbeddingBatch(self.project(image_ids), IMAGE, tuple(image_ids))

    def backward(self, image_ids: Sequence[str], d_out: np.ndarray) -> dict[str, np.ndarray]:
        feats = self.bank.vectors(image_ids)
        return {"proj_w": feats.T @ d_out, "proj_b": d_out.sum(axis=0)}

    def get_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}
