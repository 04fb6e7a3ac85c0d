"""Value-level tests for the objective functions.

Each frozen constant below was derived by hand from the definition (the
derivation is restated in the docstring) or recomputed by the loop-based
reference code in oracles.py.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from cmkt import (
    ConfigError,
    DomainError,
    EmbeddingBatch,
    ShapeError,
    ValidationError,
    ans_loss,
    cmcl_total,
    hinge_loss,
    nst_loss,
    tcl_loss,
)
from cmkt.encoders import TextEncoder, TextEncoderConfig
from cmkt.objectives import softmax_cross_entropy


def random_rows(rng, n, d, scale=2.0):
    """Rows with norms bounded away from zero."""
    rows = rng.normal(size=(n, d)) * scale
    rows += np.sign(rows + 0.5) * 0.5
    return rows


finite_rows = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 5), st.integers(2, 4)),
    elements=st.floats(-3.0, 3.0, allow_nan=False),
)


class TestInfoNce:
    """``tcl_loss`` without hard negatives: one-direction InfoNCE."""

    def test_orthonormal_pair_tau_one(self):
        """Identity similarity matrix at tau=1: each item pays
        -1 + log(e + 1) = log(1 + e^-1); the sum doubles it."""
        b = np.eye(2)
        result = tcl_loss(b, np.eye(2), temperature=1.0)
        np.testing.assert_allclose(result.total, 2.0 * math.log1p(math.exp(-1.0)))

    def test_identical_rows_give_log_n(self):
        """All similarities equal, so the softmax is uniform and every
        item pays exactly log N regardless of temperature."""
        rows = np.tile([3.0, 4.0], (5, 1))
        result = tcl_loss(rows, rows, temperature=0.05)
        np.testing.assert_allclose(result.per_item, np.full(5, math.log(5.0)))
        np.testing.assert_allclose(result.total, 5.0 * math.log(5.0))

    def test_singleton_batch_is_zero(self):
        """With one item the positive is the whole denominator."""
        result = tcl_loss([[1.0, 2.0]], [[0.5, -1.0]], temperature=0.05)
        np.testing.assert_allclose(result.total, 0.0, atol=1e-12)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        a = random_rows(rng, 6, 4)
        t = random_rows(rng, 6, 4)
        result = tcl_loss(a, t, temperature=0.05)
        expected = oracles.infonce_sum(a.tolist(), t.tolist(), 0.05)
        np.testing.assert_allclose(result.total, expected)
        for i in range(6):
            np.testing.assert_allclose(
                result.per_item[i], oracles.infonce_item(a.tolist(), t.tolist(), i, 0.05)
            )

    def test_total_is_sum_of_items(self):
        rng = np.random.default_rng(7)
        result = tcl_loss(random_rows(rng, 5, 3), random_rows(rng, 5, 3), temperature=0.1)
        np.testing.assert_allclose(result.total, np.sum(result.per_item))

    @given(finite_rows)
    @settings(max_examples=50, deadline=None)
    def test_items_nonnegative(self, rows):
        """The positive term appears in its own denominator, so the
        per-item loss is a negative log of a probability."""
        assume(np.all(np.linalg.norm(rows, axis=1) > 0.1))
        result = tcl_loss(rows, rows[::-1].copy(), 0.5)
        assert np.all(result.per_item >= -1e-10)

    @given(st.floats(0.01, 5.0), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_anchor_row_scale_invariance(self, scale, seed):
        """Cosine similarity ignores row magnitudes."""
        rng = np.random.default_rng(seed)
        a = random_rows(rng, 4, 3)
        t = random_rows(rng, 4, 3)
        base = tcl_loss(a, t, 0.05).total
        a2 = a.copy()
        a2[1] *= scale
        scaled = tcl_loss(a2, t, 0.05).total
        np.testing.assert_allclose(base, scaled, rtol=1e-9)

    def test_extreme_temperature_is_finite(self):
        rng = np.random.default_rng(3)
        a = random_rows(rng, 4, 3)
        result = tcl_loss(a, a.copy(), temperature=1e-3)
        assert np.isfinite(result.total)

    def test_bad_temperature_rejected(self):
        b = np.eye(2)
        for tau in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError):
                tcl_loss(b, np.eye(2), temperature=tau)


class TestTcl:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        reps = random_rows(rng, 5, 4)
        pos = reps + 0.1 * rng.normal(size=reps.shape)
        result = tcl_loss(reps, pos, temperature=0.05)
        np.testing.assert_allclose(
            result.total, oracles.infonce_sum(reps.tolist(), pos.tolist(), 0.05)
        )

    def test_identical_views_still_pay_log_n_when_rows_collide(self):
        rows = np.tile([1.0, 2.0], (3, 1))
        result = tcl_loss(rows, rows.copy(), temperature=0.05)
        np.testing.assert_allclose(result.total, 3.0 * math.log(3.0))

    def test_singleton_batch_is_zero(self):
        result = tcl_loss([[1.0, 1.0]], [[1.0, 0.9]], 0.05)
        np.testing.assert_allclose(result.total, 0.0, atol=1e-12)

    def test_separated_views_cost_less_than_colliding_views(self):
        """Distinct, well-separated positives are easier than identical
        rows, which force a uniform softmax."""
        sep = np.eye(4)
        collide = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
        easy = tcl_loss(sep, sep.copy(), 0.05).total
        hard = tcl_loss(collide, collide.copy(), 0.05).total
        assert easy < hard

    def test_hard_negatives_match_loop_reference(self):
        rng = np.random.default_rng(9)
        reps = random_rows(rng, 4, 3)
        pos = reps + 0.05 * rng.normal(size=reps.shape)
        negs = rng.normal(size=(4, 2, 3))
        result = tcl_loss(reps, pos, 0.05, hard_negatives=negs)
        expected = sum(
            oracles.infonce_item_negs(
                reps.tolist(), pos.tolist(), negs.tolist(), i, 0.05
            )
            for i in range(4)
        )
        np.testing.assert_allclose(result.total, expected)

    def test_hard_negatives_strictly_increase_loss(self):
        rng = np.random.default_rng(10)
        reps = random_rows(rng, 3, 4)
        pos = random_rows(rng, 3, 4)
        negs = rng.normal(size=(3, 2, 4))
        plain = tcl_loss(reps, pos, 0.05).total
        harder = tcl_loss(reps, pos, 0.05, hard_negatives=negs).total
        assert harder > plain

    def test_zero_width_negatives_match_plain_loss_exactly(self):
        rng = np.random.default_rng(11)
        reps = random_rows(rng, 3, 4)
        pos = random_rows(rng, 3, 4)
        empty = np.zeros((3, 0, 4))
        plain = tcl_loss(reps, pos, 0.05)
        via_empty = tcl_loss(reps, pos, 0.05, hard_negatives=empty)
        assert plain.total == via_empty.total
        assert via_empty.gradients["hard_negatives"].shape == (3, 0, 4)

    def test_bad_negative_shape_rejected(self):
        reps = np.eye(3)
        pos = np.eye(3)
        with pytest.raises(ShapeError):
            tcl_loss(reps, pos, 0.05, hard_negatives=np.zeros((2, 1, 3)))


class TestCmcl:
    def test_identical_everything_pays_two_log_two(self):
        """Both directions are uniform over 2 items: total =
        mean_i(log 2 + log 2) = log 4."""
        rows = np.tile([1.0, 1.0], (2, 1))
        result = cmcl_total(rows, rows.copy(), 0.05)
        np.testing.assert_allclose(result.total, math.log(4.0))

    def test_orthonormal_pairs_near_zero(self):
        """Perfectly separated pairs at tau=0.05: each direction pays
        log(1 + e^-20) per item."""
        eye = np.eye(2)
        result = cmcl_total(eye, eye.copy(), 0.05)
        np.testing.assert_allclose(
            result.total, 2.0 * math.log1p(math.exp(-20.0)), rtol=1e-6
        )

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        v = random_rows(rng, 6, 5)
        l = random_rows(rng, 6, 5)
        result = cmcl_total(v, l, 0.05)
        np.testing.assert_allclose(
            result.total, oracles.bidirectional_mean(v.tolist(), l.tolist(), 0.05)
        )

    def test_total_is_mean_of_items(self):
        rng = np.random.default_rng(9)
        result = cmcl_total(random_rows(rng, 4, 3), random_rows(rng, 4, 3), 0.05)
        np.testing.assert_allclose(result.total, np.mean(result.per_item))

    def test_symmetric_under_modality_swap(self):
        """Swapping which side is called image and which text leaves the
        bidirectional total unchanged."""
        rng = np.random.default_rng(11)
        v = random_rows(rng, 5, 4)
        l = random_rows(rng, 5, 4)
        fwd = cmcl_total(v, l, 0.05).total
        rev = cmcl_total(l, v, 0.05).total
        np.testing.assert_allclose(fwd, rev)

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        """Reordering the aligned pairs cannot change a mean over items."""
        rng = np.random.default_rng(seed)
        v = random_rows(rng, 5, 3)
        l = random_rows(rng, 5, 3)
        perm = rng.permutation(5)
        base = cmcl_total(v, l, 0.05).total
        shuffled = cmcl_total(v[perm], l[perm], 0.05).total
        np.testing.assert_allclose(base, shuffled, rtol=1e-9)

    @pytest.mark.parametrize("tau", [0.0, -0.05])
    def test_nonpositive_temperature_rejected(self, tau):
        eye = np.eye(2)
        with pytest.raises(ConfigError, match="temperature"):
            cmcl_total(eye, eye.copy(), tau)
        with pytest.raises(ConfigError, match="temperature"):
            ans_loss(eye, eye.copy(), np.ones((2, 1, 2)), tau)


class TestAns:
    def test_zero_negatives_bit_identical_to_cmcl(self):
        rng = np.random.default_rng(42)
        v = random_rows(rng, 5, 4)
        l = random_rows(rng, 5, 4)
        empty = np.zeros((5, 0, 4))
        with_ans = ans_loss(v, l, empty, 0.05)
        without = cmcl_total(v, l, 0.05)
        assert with_ans.total == without.total
        assert np.array_equal(with_ans.per_item, without.per_item)
        assert np.array_equal(with_ans.gradients["image"], without.gradients["image"])
        assert np.array_equal(with_ans.gradients["text"], without.gradients["text"])

    def test_identical_everything_with_one_negative(self):
        """N=2, M=1, every vector equal: the image-to-text denominator has
        three equal terms (log 3) and text-to-image two (log 2), so the
        total is log 6."""
        rows = np.tile([2.0, 1.0], (2, 1))
        negs = np.tile([2.0, 1.0], (2, 1, 1))
        result = ans_loss(rows, rows.copy(), negs, 0.05)
        np.testing.assert_allclose(result.total, math.log(6.0))

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        v = random_rows(rng, 4, 5)
        l = random_rows(rng, 4, 5)
        negs = random_rows(rng, 4 * 3, 5).reshape(4, 3, 5)
        result = ans_loss(v, l, negs, 0.05)
        expected = oracles.bidirectional_mean(
            v.tolist(), l.tolist(), 0.05, hard_negatives=negs.tolist()
        )
        np.testing.assert_allclose(result.total, expected)

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_hard_negatives_strictly_increase_loss(self, seed):
        """Every extra denominator term is a positive exponential, so the
        loss with negatives strictly exceeds the loss without."""
        rng = np.random.default_rng(seed)
        v = random_rows(rng, 4, 3)
        l = random_rows(rng, 4, 3)
        negs = random_rows(rng, 4, 3).reshape(4, 1, 3)
        with_negs = ans_loss(v, l, negs, 0.05).total
        without = cmcl_total(v, l, 0.05).total
        assert with_negs > without

    def test_negative_similar_to_image_costs_more_than_dissimilar(self):
        """A perturbed caption aligned with the image is the harder
        negative and must dominate an orthogonal one."""
        v = np.eye(2)
        l = np.eye(2)
        aligned = np.stack([np.eye(2)[i].reshape(1, 2) for i in range(2)])
        orthogonal = np.stack([np.eye(2)[1 - i].reshape(1, 2) for i in range(2)])
        hard = ans_loss(v, l, aligned, 0.05).total
        easy = ans_loss(v, l, orthogonal, 0.05).total
        assert hard > easy

    def test_wrong_negative_rank_rejected(self):
        v = np.eye(2)
        with pytest.raises(ShapeError):
            ans_loss(v, np.eye(2), np.ones((2, 2)), 0.05)


class TestHinge:
    def test_perfect_separation_is_zero(self):
        """Positive pairs at similarity 1, mismatched pairs at 0: both
        margin terms sit exactly at the kink and contribute nothing."""
        eye = np.eye(2)
        swapped = eye[::-1].copy()
        result = hinge_loss(eye, eye.copy(), swapped, swapped.copy(), margin=1.0)
        np.testing.assert_allclose(result.total, 0.0)

    def test_identical_everything_pays_two_margins_each(self):
        """All similarities equal: each term reduces to the margin."""
        rows = np.tile([1.0, 2.0], (3, 1))
        result = hinge_loss(rows, rows.copy(), rows.copy(), rows.copy(), margin=1.0)
        np.testing.assert_allclose(result.per_item, np.full(3, 2.0))
        np.testing.assert_allclose(result.total, 6.0)

    def test_single_active_term(self):
        """Only the caption-side negative is confusable: total is its
        similarity, margin - 1 + cos(45 degrees)."""
        result = hinge_loss(
            [[1.0, 0.0]], [[1.0, 0.0]],
            [[0.0, 1.0]],
            [[1.0, 1.0]], margin=1.0,
        )
        np.testing.assert_allclose(result.total, 0.7071067811865476)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        v, l, vn, ln = (random_rows(rng, 5, 4) for _ in range(4))
        result = hinge_loss(v, l, vn, ln, margin=1.0)
        expected = oracles.hinge_sum(v.tolist(), l.tolist(), vn.tolist(), ln.tolist(), 1.0)
        np.testing.assert_allclose(result.total, expected)

    @given(st.integers(0, 2**31), st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_items_within_bounds(self, seed, margin):
        """Each hinge term lies in [0, margin + 2] because cosine
        similarities lie in [-1, 1]."""
        rng = np.random.default_rng(seed)
        v, l, vn, ln = (random_rows(rng, 4, 3) for _ in range(4))
        result = hinge_loss(v, l, vn, ln, margin)
        assert np.all(result.per_item >= 0.0)
        assert np.all(result.per_item <= 2.0 * (margin + 2.0) + 1e-9)

    def test_negative_margin_rejected(self):
        b = np.eye(2)
        with pytest.raises(ConfigError):
            hinge_loss(b, b, b, b, margin=-0.5)


SEQS = [[4, 5, 6], [5, 7, 4, 6, 5], [7, 4]]


def tiny_encoder(**overrides):
    """A one-block encoder over vocabulary 8 with a 3-voken head, scaled up
    so that its heads' distributions are far from uniform; and ``SEQS``
    padded for it."""
    config = dict(vocab_size=8, dim=4, ffn_dim=6, num_blocks=1, max_len=6,
                  dropout=0.0, voken_count=3, init_scale=0.5)
    config.update(overrides)
    enc = TextEncoder(TextEncoderConfig(**config), seed=42)
    return enc, enc.prepare_batch(SEQS)


def head_dists(enc, padded, head):
    """Per-position distributions of the ``mlm`` or ``voken`` head, with
    the oracle's softmax."""
    hidden = enc.forward(*padded, record=False)["hidden"]
    logits = hidden @ enc.params[head + "_w"] + enc.params[head + "_b"]
    return [[oracles.softmax(list(row)) for row in seq] for seq in logits]


class TestMlm:
    """The masked-token cross-entropy the trainer runs: ``mlm_step`` feeds
    the head's logits to ``softmax_cross_entropy``. The hand cases give it
    log-probabilities, whose softmax is the distribution itself."""

    def test_hand_case(self):
        """-log 0.5 and -log 0.7 average to (log 2 + log(10/7)) / 2."""
        dists = np.array([[0.5, 0.25, 0.25], [0.1, 0.2, 0.7]])
        loss, _ = softmax_cross_entropy(np.log(dists), np.array([0, 2]))
        np.testing.assert_allclose(loss, (math.log(2.0) + math.log(10.0 / 7.0)) / 2.0)

    def test_uniform_pays_log_vocab(self):
        dists = np.full((4, 8), 1.0 / 8.0)
        loss, _ = softmax_cross_entropy(np.log(dists), np.array([0, 3, 7, 2]))
        np.testing.assert_allclose(loss, math.log(8.0))

    def test_perfect_prediction_is_zero(self):
        """A target logit 50 above the other four pays log(1 + 4e^-50)."""
        loss, _ = softmax_cross_entropy(50.0 * np.eye(5), np.arange(5))
        np.testing.assert_allclose(loss, 0.0, atol=1e-12)

    def test_empty_input_is_zero(self):
        enc, padded = tiny_encoder()
        assert enc.mlm_step(*padded, []) == (0.0, {})

    def test_matches_loop_reference(self):
        enc, padded = tiny_encoder()
        selections = [(0, 1, 3), (1, 4, 7), (1, 0, 0), (2, 1, 5)]
        loss, _ = enc.mlm_step(*padded, selections)
        dists = head_dists(enc, padded, "mlm")
        expected = oracles.cross_entropy_mean(
            [dists[b][p] for b, p, _ in selections], [t for _, _, t in selections]
        )
        np.testing.assert_allclose(loss, expected, rtol=1e-12)

    def test_out_of_range_target_rejected(self):
        enc, padded = tiny_encoder()
        with pytest.raises(ValidationError, match="target"):
            enc.mlm_step(*padded, [(0, 0, 8)])
        with pytest.raises(ValidationError, match="target"):
            enc.mlm_step(*padded, [(0, 0, -1)])


def voken_targets(assigned):
    """A padded voken target array for ``SEQS``: -1 everywhere except the
    ``(row, position) -> voken`` entries of ``assigned``."""
    targets = np.full((len(SEQS), max(map(len, SEQS))), -1, dtype=np.int64)
    for (b, p), v in assigned.items():
        targets[b, p] = v
    return targets


class TestVoken:
    """Voken classification through ``voken_step``: targets of -1 mark
    tokens without an assigned voken."""

    def test_unassigned_positions_excluded(self):
        """The -1 token contributes nothing: the mean runs over the two
        assigned positions only."""
        enc, padded = tiny_encoder()
        both, _ = enc.voken_step(*padded, voken_targets({(0, 0): 2, (0, 2): 0}))
        first, _ = enc.voken_step(*padded, voken_targets({(0, 0): 2}))
        last, _ = enc.voken_step(*padded, voken_targets({(0, 2): 0}))
        np.testing.assert_allclose(both, (first + last) / 2.0, rtol=1e-12)

    def test_all_unassigned_is_zero(self):
        enc, padded = tiny_encoder()
        assert enc.voken_step(*padded, voken_targets({})) == (0.0, {})

    def test_matches_loop_reference(self):
        enc, padded = tiny_encoder()
        targets = voken_targets({(0, 0): 0, (0, 2): 2, (1, 1): 1, (1, 3): 0,
                                 (1, 4): 2, (2, 0): 1})
        loss, _ = enc.voken_step(*padded, targets)
        dists = [row for seq in head_dists(enc, padded, "voken") for row in seq]
        np.testing.assert_allclose(
            loss, oracles.voken_mean(dists, targets.ravel().tolist()), rtol=1e-12
        )

    def test_matches_mlm_when_all_assigned(self):
        """With every token assigned and the voken head a copy of the MLM
        head, voken classification is the masked-token loss at every
        position."""
        enc, padded = tiny_encoder(voken_count=8)
        enc.params["voken_w"] = enc.params["mlm_w"].copy()
        enc.params["voken_b"] = enc.params["mlm_b"].copy()
        selections = [(b, p, (b + 3 * p) % 8) for b, seq in enumerate(SEQS)
                      for p in range(len(seq))]
        targets = voken_targets({(b, p): t for b, p, t in selections})
        np.testing.assert_allclose(
            enc.voken_step(*padded, targets)[0], enc.mlm_step(*padded, selections)[0],
            rtol=1e-12,
        )

    def test_target_shape_mismatch_rejected(self):
        """One target per padded position, or the targets and the
        positions they label disagree."""
        enc, padded = tiny_encoder()
        with pytest.raises(ShapeError):
            enc.voken_step(*padded, voken_targets({(0, 0): 1})[:, :4])

    def test_out_of_range_target_rejected(self):
        enc, padded = tiny_encoder()
        for bad in (-3, 3):
            with pytest.raises(ValidationError, match="target"):
                enc.voken_step(*padded, voken_targets({(0, 0): bad}))


class TestNst:
    def test_identical_sets_are_zero(self):
        acts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(nst_loss(acts, acts.copy()), 0.0, atol=1e-12)

    def test_permuted_student_is_zero(self):
        """The estimator compares kernel mean embeddings, which are
        order-free, so a shuffled copy matches exactly."""
        rng = np.random.default_rng(42)
        acts = random_rows(rng, 6, 4)
        shuffled = acts[rng.permutation(6)]
        np.testing.assert_allclose(nst_loss(acts, shuffled), 0.0, atol=1e-10)

    def test_row_scaling_is_free(self):
        """Rows are normalized before the kernel, so magnitudes carry no
        signal."""
        rng = np.random.default_rng(42)
        acts = random_rows(rng, 5, 3)
        scales = rng.uniform(0.1, 10.0, size=(5, 1))
        np.testing.assert_allclose(nst_loss(acts, acts * scales), 0.0, atol=1e-10)

    def test_hand_case(self):
        """teacher = I2, student = two copies of e1: kernel means are
        0.5, 1.0 and 0.5, so the discrepancy is 0.5 + 1 - 2(0.5) = 0.5."""
        teacher = np.eye(2)
        student = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(nst_loss(teacher, student), 0.5)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        t = random_rows(rng, 5, 4)
        s = random_rows(rng, 7, 4)
        np.testing.assert_allclose(
            nst_loss(t, s), oracles.mmd2_poly2(t.tolist(), s.tolist())
        )

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        t = random_rows(rng, 4, 3)
        s = random_rows(rng, 6, 3)
        np.testing.assert_allclose(nst_loss(t, s), nst_loss(s, t))

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed):
        """The V-statistic is a squared distance between feature means."""
        rng = np.random.default_rng(seed)
        t = random_rows(rng, 4, 3)
        s = random_rows(rng, 5, 3)
        assert nst_loss(t, s) >= 0.0

    def test_different_set_sizes_allowed(self):
        rng = np.random.default_rng(2)
        assert nst_loss(random_rows(rng, 3, 4), random_rows(rng, 9, 4)) >= 0.0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            nst_loss(np.eye(3), np.eye(4))

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            nst_loss(np.zeros((0, 3)), np.eye(3))


class TestEmbeddingBatch:
    """The image encoder's return type."""

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingBatch(np.array([[1.0, float("nan")]]), "image", (0,))

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingBatch(np.eye(2), "audio", (0, 1))

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            EmbeddingBatch(np.eye(3), "text", (0, 1))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError):
            EmbeddingBatch(np.ones(4), "text", (0,))


# each contrastive loss: how many (N, d) inputs it takes, and a call with
# valid temperature, margin and hard negatives for N = 3, d = 2
CONTRASTIVE = {
    "tcl_loss": (2, lambda xs: tcl_loss(*xs, 0.05)),
    "cmcl_total": (2, lambda xs: cmcl_total(*xs, 0.05)),
    "ans_loss": (2, lambda xs: ans_loss(*xs, np.ones((3, 1, 2)), 0.05)),
    "hinge_loss": (4, lambda xs: hinge_loss(*xs, 1.0)),
}


def _with_nan(x):
    x = x.copy()
    x[1, 0] = np.nan
    return x


def _with_zero_row(x):
    x = x.copy()
    x[1] = 0.0
    return x


# how one input is spoiled, and the error the loss must raise for it
SPOILED = {
    "1-D": (lambda x: x[0], ShapeError),
    "N-mismatch": (lambda x: x[:2], ShapeError),
    "d-mismatch": (lambda x: x[:, :1], ShapeError),
    "NaN": (_with_nan, ValidationError),
    "zero-row": (_with_zero_row, DomainError),
}


@pytest.mark.parametrize("spoil", SPOILED)
@pytest.mark.parametrize("loss", CONTRASTIVE)
def test_contrastive_loss_rejects_bad_embeddings(loss, spoil):
    """Spoiling any one embedding input, whichever position it holds,
    raises the spoil's error."""
    arity, call = CONTRASTIVE[loss]
    transform, error = SPOILED[spoil]
    rng = np.random.default_rng(0)
    inputs = [random_rows(rng, 3, 2) for _ in range(arity)]
    call(inputs)
    for i in range(arity):
        with pytest.raises(error):
            call([transform(x) if j == i else x for j, x in enumerate(inputs)])
