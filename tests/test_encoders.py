"""Behaviour and gradient checks for the text and image encoders."""

import tracemalloc

import numpy as np
import pytest

from cmkt import (
    ConfigError,
    FeatureLookupError,
    ParseError,
    ShapeError,
    TokenizationError,
    ValidationError,
)
from cmkt import encoders
from cmkt.encoders import FeatureBank, ImageEncoder, TextEncoder, TextEncoderConfig

STEP = 1e-5
REL_TOL = 1e-4


def tiny_config(**overrides):
    base = dict(
        vocab_size=8, dim=4, ffn_dim=6, num_blocks=2, max_len=6,
        dropout=0.0, voken_count=0,
    )
    base.update(overrides)
    return TextEncoderConfig(**base)


SEQS = [[4, 5, 6], [5, 7, 4, 6, 5], [7, 4]]


def mlm_dists(encoder, tokens, mask):
    """Per-position vocabulary distributions of the MLM head: the hidden
    states through the head, then an explicit softmax."""
    logits = encoder.forward(tokens, mask)["hidden"] @ encoder.params["mlm_w"]
    logits += encoder.params["mlm_b"]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def fd_check_params(encoder, value_fn, grads, step=STEP, rel_tol=REL_TOL):
    """Central-difference check of every parameter gradient in `grads`."""
    for name, grad in grads.items():
        param = encoder.params[name]
        numeric = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            hi = value_fn()
            param[idx] = orig - step
            lo = value_fn()
            param[idx] = orig
            numeric[idx] = (hi - lo) / (2.0 * step)
            it.iternext()
        scale = max(np.max(np.abs(numeric)), np.max(np.abs(grad)), 1e-6)
        err = np.max(np.abs(numeric - grad)) / scale
        assert err < rel_tol, f"{name}: relative gradient error {err:.3e}"


class TestForwardBehaviour:
    def test_same_seed_identical(self):
        enc = TextEncoder(tiny_config(dropout=0.1), seed=42)
        a = enc.forward(*enc.prepare_batch(SEQS), dropout_seed=7)["pooled"]
        b = enc.forward(*enc.prepare_batch(SEQS), dropout_seed=7)["pooled"]
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        enc = TextEncoder(tiny_config(dropout=0.1), seed=42)
        a = enc.forward(*enc.prepare_batch(SEQS), dropout_seed=1)["pooled"]
        b = enc.forward(*enc.prepare_batch(SEQS), dropout_seed=2)["pooled"]
        assert not np.array_equal(a, b)

    def test_zero_dropout_ignores_seed(self):
        enc = TextEncoder(tiny_config(dropout=0.0), seed=42)
        a = enc.forward(*enc.prepare_batch(SEQS), dropout_seed=1)["pooled"]
        b = enc.forward(*enc.prepare_batch(SEQS), dropout_seed=2)["pooled"]
        np.testing.assert_array_equal(a, b)

    def test_dropout_forward_builds_one_generator(self, monkeypatch):
        enc = TextEncoder(tiny_config(dropout=0.1), seed=42)
        built, rng_for = [], encoders.rng_for

        def counting_rng_for(*parts):
            built.append(parts)
            return rng_for(*parts)

        monkeypatch.setattr(encoders, "rng_for", counting_rng_for)
        enc.forward(*enc.prepare_batch(SEQS), dropout_seed=7)
        assert built == [(7, "dropout")]
        enc.forward(*enc.prepare_batch(SEQS))
        assert built == [(7, "dropout")]

    def test_eval_mode_matches_no_dropout_config(self):
        cfg_drop = tiny_config(dropout=0.3)
        enc = TextEncoder(cfg_drop, seed=42)
        out_eval = enc.forward(*enc.prepare_batch(SEQS), dropout_seed=None)["pooled"]
        twin = TextEncoder(tiny_config(dropout=0.0), seed=42)
        np.testing.assert_allclose(out_eval, twin.encode(SEQS))

    def test_padding_does_not_leak_into_real_rows(self):
        """A sequence's pooled vector is the same whether it shares a
        batch with longer sequences or stands alone."""
        enc = TextEncoder(tiny_config(), seed=42)
        alone = enc.encode([SEQS[0]])[0]
        batched = enc.encode(SEQS)[0]
        np.testing.assert_allclose(alone, batched, atol=1e-12)

    def test_output_dim_stable(self):
        enc = TextEncoder(tiny_config(), seed=1)
        assert enc.encode(SEQS).shape == (3, 4)
        assert enc.encode([[4]]).shape == (1, 4)

    def test_first_token_pooling(self):
        enc = TextEncoder(tiny_config(pooling="first"), seed=42)
        cache = enc.forward(*enc.prepare_batch(SEQS))
        np.testing.assert_array_equal(cache["pooled"], cache["hidden"][:, 0, :])

    @pytest.mark.parametrize("pooling", ["mean", "first"])
    def test_inference_forward_matches_recording_forward(self, pooling):
        """record=False gives the same outputs and keeps no backward cache."""
        enc = TextEncoder(tiny_config(pooling=pooling, dropout=0.2), seed=42)
        full = enc.forward(*enc.prepare_batch(SEQS))
        lean = enc.forward(*enc.prepare_batch(SEQS), record=False)
        np.testing.assert_array_equal(lean["pooled"], full["pooled"])
        np.testing.assert_array_equal(lean["hidden"], full["hidden"])
        for a, b in zip(lean["block_pooled"], full["block_pooled"], strict=True):
            np.testing.assert_array_equal(a, b)
        assert set(lean) == {"tokens", "mask", "block_pooled", "hidden", "pooled"}
        assert {"blk0", "blk1", "drop.emb"} <= set(full)

    def test_inference_entry_points_keep_no_backward_cache(self, monkeypatch):
        caches = []
        real = TextEncoder.forward

        def spy(self, *args, **kwargs):
            caches.append(real(self, *args, **kwargs))
            return caches[-1]

        monkeypatch.setattr(TextEncoder, "forward", spy)
        enc = TextEncoder(tiny_config(), seed=42)
        enc.encode(SEQS)
        enc.block_activations(SEQS)
        assert len(caches) == 2
        assert not any(key.startswith(("blk", "drop.")) for c in caches for key in c)

    @staticmethod
    def acceptance_batch():
        """An encoder at the acceptance width and a batch of 64 captions of
        14 tokens."""
        enc = TextEncoder(tiny_config(vocab_size=40, dim=32, ffn_dim=64, max_len=16,
                                      dropout=0.1), seed=0)
        rng = np.random.default_rng(0)
        return enc, enc.prepare_batch([list(rng.integers(4, 40, size=14)) for _ in range(64)])

    def test_recorded_cache_is_lean_and_backward_consumes_it(self):
        """At the acceptance width a recording forward keeps bool keep-masks,
        no block input, first layer-norm output (``y``), attention context
        (``ctx``), Q/K/V projections (``qkv``) or ReLU activations (``h``),
        and at most 1,900 bytes per token row. Backward leaves only the
        outputs."""
        enc, (tokens, mask) = self.acceptance_batch()
        cache = enc.forward(tokens, mask, dropout_seed=3)

        def nbytes(obj):  # every array in the cache, through its dicts, lists and tuples
            if isinstance(obj, np.ndarray):
                return obj.nbytes
            return sum(map(nbytes, obj.values() if isinstance(obj, dict) else obj))

        masks = [v for k, v in cache.items() if k.startswith("drop.")]
        assert len(masks) == 5 and all(m.dtype == bool for m in masks)
        assert not ({"x_in", "y", "ctx", "qkv", "h"}
                    & {key for i in range(2) for key in cache[f"blk{i}"]})
        assert nbytes(cache) <= 1_900 * tokens.size
        enc.backward(cache, d_pooled=np.ones((64, 32)))
        assert set(cache) == {"tokens", "mask", "hidden", "pooled", "block_pooled"}

    def test_recording_step_peak_is_bounded(self):
        """At the acceptance width one recording forward plus backward peaks
        at most 3,800 bytes per token row above its start under
        ``tracemalloc``: each intermediate is freed after its last read."""
        enc, (tokens, mask) = self.acceptance_batch()
        d_pooled = np.ones((64, 32))

        def step():
            enc.backward(enc.forward(tokens, mask, dropout_seed=3), d_pooled=d_pooled)

        step()  # first-use allocations land outside the measured step
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3_800 * tokens.size

    @pytest.mark.parametrize("how", ["record-false", "consumed"])
    def test_backward_needs_an_unused_recording_cache(self, how):
        enc = TextEncoder(tiny_config(dropout=0.1), seed=0)
        batch = enc.prepare_batch(SEQS)
        cache = enc.forward(*batch, dropout_seed=1, record=how != "record-false")
        if how == "consumed":
            enc.backward(cache, d_pooled=np.ones((3, 4)))
        with pytest.raises(ValidationError, match="record=False, or backward already consumed"):
            enc.backward(cache, d_pooled=np.ones((3, 4)))

    def test_block_activations_count_and_shape(self):
        enc = TextEncoder(tiny_config(num_blocks=2), seed=42)
        acts = enc.block_activations(SEQS)
        assert len(acts) == 2
        assert all(a.shape == (3, 4) for a in acts)
        np.testing.assert_array_equal(acts[-1], enc.encode(SEQS))

    def test_oov_token_rejected_with_position(self):
        enc = TextEncoder(tiny_config(), seed=42)
        with pytest.raises(TokenizationError, match="position 1"):
            enc.encode([[4, 99, 5]])

    def test_too_long_sequence_rejected(self):
        enc = TextEncoder(tiny_config(max_len=4), seed=42)
        with pytest.raises(ValidationError):
            enc.encode([[4, 5, 6, 7, 4]])

    def test_empty_sequence_rejected(self):
        enc = TextEncoder(tiny_config(), seed=42)
        with pytest.raises(TokenizationError):
            enc.encode([[4], []])

    def test_empty_batch_rejected(self):
        enc = TextEncoder(tiny_config(), seed=42)
        with pytest.raises(ShapeError):
            enc.encode([])


def reference_prepare_batch(seqs, vocab_size, max_len):
    """The per-token loop ``prepare_batch`` replaced: the first offending
    sequence decides, and within it emptiness, then length, then ids."""
    for b, seq in enumerate(seqs):
        if len(seq) == 0:
            raise TokenizationError(f"sequence {b} is empty")
        if len(seq) > max_len:
            raise ValidationError(f"sequence {b} has {len(seq)} tokens, maximum is {max_len}")
        for pos, t in enumerate(seq):
            if not 0 <= t < vocab_size:
                raise TokenizationError(
                    f"sequence {b} position {pos}: token id {t} outside vocabulary of size {vocab_size}"
                )
    length = max(len(s) for s in seqs)
    tokens = np.zeros((len(seqs), length), dtype=np.int64)
    mask = np.zeros((len(seqs), length))
    for b, seq in enumerate(seqs):
        tokens[b, : len(seq)] = seq
        mask[b, : len(seq)] = 1.0
    return tokens, mask


def outcome(fn, seqs):
    try:
        return fn(seqs)
    except (TokenizationError, ValidationError) as exc:
        return type(exc), str(exc)


class TestPrepareBatch:
    @pytest.mark.parametrize("seqs, error, message", [
        ([[4, 99], [5], [], [4] * 7], TokenizationError,
         "sequence 0 position 1: token id 99 outside vocabulary of size 8"),
        ([[4], [], [4, 99], [4] * 7], TokenizationError, "sequence 1 is empty"),
        ([[4], [4] * 6 + [99], [99]], ValidationError, "sequence 1 has 7 tokens, maximum is 6"),
        ([[4, 5], [5, -1, 99], [8]], TokenizationError,
         "sequence 1 position 1: token id -1 outside vocabulary of size 8"),
    ])
    def test_first_offender_wins(self, seqs, error, message):
        enc = TextEncoder(tiny_config(), seed=42)
        with pytest.raises(error) as got:
            enc.prepare_batch(seqs)
        assert str(got.value) == message
        assert outcome(lambda s: reference_prepare_batch(s, 8, 6), seqs) == (error, message)

    def test_matches_reference_loop_on_random_batches(self):
        enc = TextEncoder(tiny_config(), seed=42)
        rng = np.random.default_rng(0)
        for _ in range(300):
            seqs = [
                [int(t) for t in rng.integers(-1, 9 if rng.random() < 0.2 else 8,
                                              size=rng.integers(0 if rng.random() < 0.1 else 1, 8))]
                for _ in range(rng.integers(1, 6))
            ]
            got = outcome(enc.prepare_batch, seqs)
            want = outcome(lambda s: reference_prepare_batch(s, 8, 6), seqs)
            if isinstance(want[0], type):
                assert got == want, seqs
            else:
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
                    assert g.dtype == w.dtype

    def test_numpy_rows_accepted(self):
        enc = TextEncoder(tiny_config(), seed=42)
        tokens, mask = enc.prepare_batch([np.array([4, 5, 6]), (7,)])
        np.testing.assert_array_equal(tokens, [[4, 5, 6], [7, 0, 0]])
        np.testing.assert_array_equal(mask, [[1, 1, 1], [1, 0, 0]])


class TestMaskedLmHead:
    def test_distributions_normalized(self):
        """The in-place softmax kernel turns the head's logits into one
        distribution per position, the explicit softmax's."""
        enc = TextEncoder(tiny_config(), seed=42)
        tokens, mask = enc.prepare_batch(SEQS)
        logits = enc.forward(tokens, mask)["hidden"] @ enc.params["mlm_w"] + enc.params["mlm_b"]
        dists = encoders._softmax_last(logits)
        np.testing.assert_allclose(dists, mlm_dists(enc, tokens, mask), rtol=1e-12)
        np.testing.assert_allclose(dists.sum(axis=-1), np.ones(dists.shape[:2]), atol=1e-12)

    def test_fresh_head_near_log_vocab(self):
        """Small-scale random init keeps logits near zero, so the loss
        starts near the uniform baseline log V."""
        enc = TextEncoder(tiny_config(), seed=42)
        loss, _ = enc.mlm_step(*enc.prepare_batch(SEQS), [(0, 1, 5), (1, 2, 4), (2, 0, 7)])
        assert abs(loss - np.log(8.0)) < 0.05

    def test_loss_matches_direct_recomputation(self):
        enc = TextEncoder(tiny_config(), seed=42)
        selections = [(0, 0, 6), (1, 3, 5), (2, 1, 4)]
        loss, _ = enc.mlm_step(*enc.prepare_batch(SEQS), selections)
        dists = mlm_dists(enc, *enc.prepare_batch(SEQS))
        expected = np.mean([-np.log(dists[b, p, t]) for b, p, t in selections])
        np.testing.assert_allclose(loss, expected)

    @pytest.mark.filterwarnings("error")
    def test_confident_wrong_head_gives_finite_loss(self):
        """Huge but finite logits: -log(softmax) underflows to inf, while
        logsumexp minus the target logit stays finite, and large."""
        enc = TextEncoder(tiny_config(voken_count=3), seed=42)
        enc.params["mlm_w"] *= 1e5
        enc.params["voken_w"] *= 1e5
        cache = enc.forward(*enc.prepare_batch(SEQS))
        logits = cache["hidden"] @ enc.params["mlm_w"]
        wrong = int(np.argmin(logits[0, 0]))
        loss, grads = enc.mlm_step(*enc.prepare_batch(SEQS), [(0, 0, wrong)])
        assert np.isfinite(loss) and loss > 100.0
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        v_logits = cache["hidden"] @ enc.params["voken_w"]
        targets = np.full((3, 5), -1, dtype=np.int64)
        targets[0, 0] = int(np.argmin(v_logits[0, 0]))
        v_loss, _ = enc.voken_step(*enc.prepare_batch(SEQS), targets)
        assert np.isfinite(v_loss) and v_loss > 100.0

    def test_no_selections_is_zero(self):
        enc = TextEncoder(tiny_config(), seed=42)
        loss, grads = enc.mlm_step(*enc.prepare_batch(SEQS), [])
        assert loss == 0.0 and grads == {}

    def test_overfits_single_caption(self):
        """Plain SGD on the fused step drives one caption's masked-token
        loss below 0.1, confirming the gradients point downhill."""
        enc = TextEncoder(tiny_config(dim=8, ffn_dim=16), seed=42)
        seqs = [[4, 5, 6, 7]]
        selections = [(0, 1, 5), (0, 3, 7)]
        loss = None
        for _ in range(300):
            loss, grads = enc.mlm_step(*enc.prepare_batch(seqs), selections)
            for name, g in grads.items():
                enc.params[name] -= 0.5 * g
        assert loss < 0.1


class TestVokenHead:
    def test_loss_and_exclusion(self):
        enc = TextEncoder(tiny_config(voken_count=3), seed=42)
        targets = np.array([[0, 2, -1], [1, -1, 0, 2, 1], [2, 0]], dtype=object)
        padded = np.full((3, 5), -1, dtype=np.int64)
        for b, row in enumerate(targets):
            padded[b, : len(row)] = row
        loss, grads = enc.voken_step(*enc.prepare_batch(SEQS), padded)
        assert loss > 0.0
        assert "voken_w" in grads

    def test_without_head_rejected(self):
        enc = TextEncoder(tiny_config(voken_count=0), seed=42)
        with pytest.raises(ConfigError):
            enc.voken_step(*enc.prepare_batch(SEQS), np.zeros((3, 5), dtype=np.int64))

    def test_all_unassigned_is_zero(self):
        enc = TextEncoder(tiny_config(voken_count=3), seed=42)
        loss, grads = enc.voken_step(*enc.prepare_batch(SEQS), np.full((3, 5), -1, dtype=np.int64))
        assert loss == 0.0 and grads == {}


class TestTextEncoderGradients:
    def test_pooled_gradient_all_parameters(self):
        enc = TextEncoder(tiny_config(), seed=42)
        rng = np.random.default_rng(0)
        upstream = rng.normal(size=(3, 4))

        def value():
            return float(np.sum(enc.forward(*enc.prepare_batch(SEQS))["pooled"] * upstream))

        cache = enc.forward(*enc.prepare_batch(SEQS))
        grads = enc.backward(cache, d_pooled=upstream)
        fd_check_params(enc, value, grads)

    def test_pooled_gradient_first_token_pooling(self):
        enc = TextEncoder(tiny_config(pooling="first"), seed=3)
        rng = np.random.default_rng(1)
        upstream = rng.normal(size=(3, 4))

        def value():
            return float(np.sum(enc.forward(*enc.prepare_batch(SEQS))["pooled"] * upstream))

        grads = enc.backward(enc.forward(*enc.prepare_batch(SEQS)), d_pooled=upstream)
        fd_check_params(enc, value, grads)

    def test_gradient_with_fixed_dropout_masks(self):
        """With the dropout seed held fixed the network is a fixed
        piecewise-linear function, so finite differences still apply."""
        enc = TextEncoder(tiny_config(dropout=0.25), seed=42)
        rng = np.random.default_rng(2)
        upstream = rng.normal(size=(3, 4))

        batch = enc.prepare_batch(SEQS)

        def value():
            return float(np.sum(enc.forward(*batch, dropout_seed=11)["pooled"] * upstream))

        grads = enc.backward(enc.forward(*batch, dropout_seed=11), d_pooled=upstream)
        fd_check_params(enc, value, grads)

    def test_block_pooled_gradients(self):
        enc = TextEncoder(tiny_config(), seed=42)
        rng = np.random.default_rng(3)
        ups = [rng.normal(size=(3, 4)) for _ in range(2)]

        def value():
            acts = enc.forward(*enc.prepare_batch(SEQS))["block_pooled"]
            return float(sum(np.sum(a * u) for a, u in zip(acts, ups)))

        grads = enc.backward(enc.forward(*enc.prepare_batch(SEQS)), d_block_pooled=ups)
        fd_check_params(enc, value, grads)

    def test_mlm_step_gradients(self):
        enc = TextEncoder(tiny_config(), seed=42)
        selections = [(0, 0, 6), (1, 3, 5), (2, 1, 4)]

        def value():
            dists = mlm_dists(enc, *enc.prepare_batch(SEQS))
            return float(np.mean([-np.log(dists[b, p, t]) for b, p, t in selections]))

        _, grads = enc.mlm_step(*enc.prepare_batch(SEQS), selections)
        fd_check_params(enc, value, grads)

    def test_voken_step_gradients(self):
        enc = TextEncoder(tiny_config(voken_count=3), seed=42)
        targets = np.full((3, 5), -1, dtype=np.int64)
        targets[0, 0] = 1
        targets[1, 2] = 0
        targets[2, 1] = 2

        def value():
            cache = enc.forward(*enc.prepare_batch(SEQS))
            logits = cache["hidden"] @ enc.params["voken_w"] + enc.params["voken_b"]
            shifted = logits - logits.max(axis=-1, keepdims=True)
            dists = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
            rows, cols = np.nonzero(targets >= 0)
            return float(
                np.mean([-np.log(dists[b, p, targets[b, p]]) for b, p in zip(rows, cols)])
            )

        _, grads = enc.voken_step(*enc.prepare_batch(SEQS), targets)
        fd_check_params(enc, value, grads)


class TestGemmGradientsMatchReference:
    """The GEMM weight gradients and the bincount embedding gradient equal
    the einsum and np.add.at formulas they replaced."""

    @staticmethod
    def reference_wgrad(a, b):
        return np.einsum("bli,blj->ij", a, b)

    @staticmethod
    def reference_embedding_grad(tokens, d_emb, vocab_size):
        out = np.zeros((vocab_size, d_emb.shape[-1]))
        np.add.at(out, tokens, d_emb)
        return out

    def both(self, monkeypatch, run):
        fast = run()
        monkeypatch.setattr(encoders, "_wgrad", self.reference_wgrad)
        monkeypatch.setattr(encoders, "_embedding_grad", self.reference_embedding_grad)
        slow = run()
        return fast, slow

    @pytest.mark.parametrize("pooling", ["mean", "first"])
    def test_backward_and_heads(self, pooling, monkeypatch):
        enc = TextEncoder(tiny_config(dropout=0.2, pooling=pooling, voken_count=3), seed=7)
        seqs = [[4, 4, 5, 4], [5, 5], [7, 4, 6, 5, 5, 4], [4]]  # padded, repeated ids
        rng = np.random.default_rng(4)
        upstream = rng.normal(size=(4, 4))
        ups = [rng.normal(size=(4, 4)) for _ in range(2)]
        voken = np.full((4, 6), -1, dtype=np.int64)
        voken[0, :4] = [0, 2, 2, 1]
        voken[2, 3] = 1

        batch = enc.prepare_batch(seqs)

        def run():
            cache = enc.forward(*batch, dropout_seed=5)
            return [
                enc.backward(cache, d_pooled=upstream, d_block_pooled=ups),
                enc.mlm_step(*batch, [(0, 1, 5), (2, 4, 6), (2, 4, 6)], dropout_seed=6)[1],
                enc.voken_step(*batch, voken, dropout_seed=8)[1],
            ]

        fast, slow = self.both(monkeypatch, run)
        for f, s in zip(fast, slow):
            assert f.keys() == s.keys()
            for name in f:
                np.testing.assert_allclose(f[name], s[name], rtol=0, atol=1e-12, err_msg=name)
            np.testing.assert_array_equal(f["tok_emb"], s["tok_emb"])


class TestKernelsMatchReference:
    """Layer norm, dropout and the embedding gradient against the formulas
    they replaced."""

    @staticmethod
    def reference_ln_forward(x, gamma, beta):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + encoders.LN_EPS)
        x_hat = (x - mu) * inv
        return gamma * x_hat + beta, (x_hat, inv, gamma)

    @staticmethod
    def reference_ln_backward(d_out, cache):
        x_hat, inv, gamma = cache
        d_hat = d_out * gamma
        d_x = inv * (
            d_hat
            - d_hat.mean(axis=-1, keepdims=True)
            - x_hat * (d_hat * x_hat).mean(axis=-1, keepdims=True)
        )
        return d_x, np.sum(d_out * x_hat, axis=0), np.sum(d_out, axis=0)

    @pytest.mark.parametrize("dim", [4, 32])
    def test_layer_norm_matches_var_reference(self, dim):
        rng = np.random.default_rng(dim)
        x = rng.normal(loc=0.5, scale=2.0, size=(200, dim))
        gamma, beta = rng.normal(size=dim), rng.normal(size=dim)
        d_out = rng.normal(size=(200, dim))
        out, cache = encoders._ln_forward(x.copy(), gamma, beta)  # normalizes in place
        ref_out, ref_cache = self.reference_ln_forward(x, gamma, beta)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        got = encoders._ln_backward(d_out, cache, np.ones(len(x)))
        want = self.reference_ln_backward(d_out, ref_cache)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    def test_dropout_scales_follow_site_order(self):
        """One generator, rng_for(seed, "dropout"), per forward: each site's
        cached bool keep-mask is the next (n * length, dim) block of its
        uniforms at or above p, in the order emb, blk0.attn, blk0.ffn,
        blk1.attn, blk1.ffn. The first block's input, which backward rebuilds,
        is the embedding times the mask's float scale, bit for bit."""
        enc = TextEncoder(tiny_config(dropout=0.3), seed=0)
        cache = enc.forward(*enc.prepare_batch(SEQS), dropout_seed=9)
        rng = encoders.rng_for(9, "dropout")
        for site in ("emb", "blk0.attn", "blk0.ffn", "blk1.attn", "blk1.ffn"):
            keep = rng.random((len(SEQS) * 5, 4)) >= 0.3
            assert cache["drop." + site].dtype == bool
            np.testing.assert_array_equal(cache["drop." + site], keep)
        emb = enc.params["tok_emb"][cache["tokens"]] + enc.params["pos_emb"][:5]
        scale = cache["drop.emb"] * (1.0 / (1.0 - 0.3))
        np.testing.assert_array_equal(enc._block_input(cache, cache["blk0"], 0),
                                      emb.reshape(-1, 4) * scale)

    @pytest.mark.parametrize("length", [1, 5, 16])
    def test_softmax_row_max_matches_np_max(self, length):
        """The running row max is exact: bit-equal to the ``np.max`` form,
        with masked columns and a NaN row."""
        rng = np.random.default_rng(length)
        x = rng.normal(scale=4.0, size=(7, 3, length))
        x[:, :, length // 2 :] += encoders.MASK_BIAS
        x[2, 1, length - 1] = np.nan
        want = x - np.max(x, axis=-1, keepdims=True)
        np.exp(want, out=want)
        want /= want.sum(axis=-1, keepdims=True)
        got = encoders._softmax_last(x.copy())
        assert np.isnan(got[2, 1]).all()
        assert got.tobytes() == want.tobytes()

    def test_undrop_matches_float_scale(self):
        rng = np.random.default_rng(6)
        d_out = rng.normal(size=(30, 4))
        keep = rng.random((30, 4)) >= 0.3
        want = d_out * (keep * (1.0 / (1.0 - 0.3)))
        np.testing.assert_array_equal(encoders._undrop(d_out, keep, 0.3), want)
        assert encoders._undrop(d_out, None, 0.3) is d_out

    def test_embedding_grad_equals_per_column_bincount(self):
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, 9, size=(6, 7))  # repeated ids, some never used
        d_emb = rng.normal(size=(6, 7, 4))
        flat = tokens.ravel()
        old = np.stack([np.bincount(flat, weights=col, minlength=11)
                        for col in d_emb.reshape(flat.size, -1).T], axis=1)
        np.testing.assert_array_equal(encoders._embedding_grad(tokens, d_emb, 11), old)


class TestParamPlumbing:
    def test_roundtrip_and_clone(self):
        enc = TextEncoder(tiny_config(), seed=42)
        twin = TextEncoder(enc.config)
        twin.set_params(enc.params)
        np.testing.assert_array_equal(enc.encode(SEQS), twin.encode(SEQS))
        twin.params["tok_emb"][0, 0] += 1.0
        assert not np.array_equal(enc.params["tok_emb"], twin.params["tok_emb"])

    def test_name_mismatch_rejected(self):
        enc = TextEncoder(tiny_config(), seed=42)
        bad = {k: v.copy() for k, v in enc.params.items()}
        bad.pop("tok_emb")
        with pytest.raises(ConfigError):
            enc.set_params(bad)

    def test_shape_mismatch_rejected(self):
        enc = TextEncoder(tiny_config(), seed=42)
        bad = {k: v.copy() for k, v in enc.params.items()}
        bad["tok_emb"] = np.zeros((2, 2))
        with pytest.raises(ShapeError):
            enc.set_params(bad)


@pytest.fixture
def bank():
    rng = np.random.default_rng(42)
    return FeatureBank(
        [f"img{i}" for i in range(5)], rng.normal(size=(5, 4)).astype(np.float32)
    )


class TestFeatureBank:
    def test_roundtrip(self, bank, tmp_path):
        path = tmp_path / "feats.bin"
        bank.save(path)
        loaded = FeatureBank.load(path)
        assert loaded._ids == bank._ids
        np.testing.assert_array_equal(loaded._features, bank._features)

    def test_save_bytes_deterministic(self, bank, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        bank.save(p1)
        bank.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.bin.ids").read_text() == (tmp_path / "b.bin.ids").read_text()

    def test_unknown_id_rejected(self, bank):
        with pytest.raises(FeatureLookupError, match="nope"):
            bank.vectors(["img0", "nope"])

    def test_bad_magic_rejected(self, bank, tmp_path):
        path = tmp_path / "feats.bin"
        bank.save(path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="magic"):
            FeatureBank.load(path)

    def test_truncated_file_rejected(self, bank, tmp_path):
        path = tmp_path / "feats.bin"
        bank.save(path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ParseError):
            FeatureBank.load(path)

    def test_incomplete_sidecar_rejected(self, bank, tmp_path):
        path = tmp_path / "feats.bin"
        bank.save(path)
        sidecar = tmp_path / "feats.bin.ids"
        lines = sidecar.read_text().splitlines()
        sidecar.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError):
            FeatureBank.load(path)

    def test_features_immutable(self, bank):
        with pytest.raises(ValueError):
            bank._features[0, 0] = 9.9

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bank, tmp_path, value):
        """A feature file with a non-finite entry is bad input, not a
        projection that diverged in training."""
        path = tmp_path / "feats.bin"
        bank.save(path)
        raw = bytearray(path.read_bytes())
        row = 20 + 3 * bank.dim * 4
        raw[row : row + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="feats.bin: feature row 3 holds a non-finite entry"):
            FeatureBank.load(path)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            FeatureBank(["a", "a"], np.zeros((2, 3), dtype=np.float32))


class TestImageEncoder:
    def test_identity_returns_stored_features(self, bank):
        enc = ImageEncoder(bank, np.eye(bank.dim), np.zeros(bank.dim))
        out = enc.encode(["img1", "img3"])
        np.testing.assert_allclose(out.vectors, bank.vectors(["img1", "img3"]))
        assert out.batch_ids == ("img1", "img3")

    def test_matches_affine_oracle(self, bank):
        enc = ImageEncoder.initialized(bank, out_dim=3, seed=7)
        ids = ["img0", "img2", "img4"]
        out = enc.encode(ids).vectors
        expected = bank.vectors(ids) @ enc.params["proj_w"] + enc.params["proj_b"]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_projection_gradients(self, bank):
        enc = ImageEncoder.initialized(bank, out_dim=3, seed=7)
        ids = ["img0", "img1"]
        rng = np.random.default_rng(0)
        upstream = rng.normal(size=(2, 3))
        grads = enc.backward(ids, upstream)

        def value():
            return float(np.sum(enc.encode(ids).vectors * upstream))

        for name in ("proj_w", "proj_b"):
            param = enc.params[name]
            numeric = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + STEP
                hi = value()
                param[idx] = orig - STEP
                lo = value()
                param[idx] = orig
                numeric[idx] = (hi - lo) / (2 * STEP)
                it.iternext()
            np.testing.assert_allclose(grads[name], numeric, rtol=1e-5, atol=1e-8)

    def test_bank_untouched_by_training_motions(self, bank):
        enc = ImageEncoder.initialized(bank, out_dim=3, seed=7)
        ids, before = list(bank._ids), bank._features.copy()
        for _ in range(5):
            grads = enc.backward(["img0", "img1"], np.ones((2, 3)))
            enc.params["proj_w"] -= 0.1 * grads["proj_w"]
            enc.params["proj_b"] -= 0.1 * grads["proj_b"]
        assert bank._ids == ids
        np.testing.assert_array_equal(bank._features, before)

    def test_shape_validation(self, bank):
        with pytest.raises(ShapeError):
            ImageEncoder(bank, np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ShapeError):
            ImageEncoder(bank, np.zeros((4, 2)), np.zeros(3))