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
    AlignmentError,
    ConfigError,
    DomainError,
    EmbeddingBatch,
    ShapeError,
    ValidationError,
    ans_loss,
    cmcl_total,
    cosine_similarity,
    hinge_loss,
    infonce_loss,
    mlm_loss,
    nst_loss,
    tcl_loss,
    voken_loss,
)
from cmkt.objectives import NO_VOKEN


def batch(vectors, modality="text", ids=None):
    vectors = np.asarray(vectors, dtype=np.float64)
    if ids is None:
        ids = tuple(range(vectors.shape[0]))
    return EmbeddingBatch(vectors=vectors, modality=modality, batch_ids=ids)


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


class TestCosineSimilarity:
    def test_unit_diagonal_pair(self):
        """cos([1,0],[1,1]) = 1/sqrt(2): dot 1 over norms 1 and sqrt(2)."""
        np.testing.assert_allclose(
            cosine_similarity([1.0, 0.0], [1.0, 1.0]), 0.7071067811865476
        )

    def test_parallel_orthogonal_antiparallel(self):
        assert cosine_similarity([2.0, 0.0], [5.0, 0.0]) == pytest.approx(1.0)
        assert cosine_similarity([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.0)
        assert cosine_similarity([1.0, 1.0], [-2.0, -2.0]) == pytest.approx(-1.0)

    def test_scale_invariant(self):
        rng = np.random.default_rng(42)
        u, v = rng.normal(size=(2, 8))
        np.testing.assert_allclose(
            cosine_similarity(u, v), cosine_similarity(3.7 * u, 0.01 * v)
        )

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            u, v = rng.normal(size=(2, 5))
            np.testing.assert_allclose(
                cosine_similarity(u, v), oracles.cos(list(u), list(v))
            )

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DomainError):
            cosine_similarity([1.0, 0.0], [0.0, 0.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])

    @given(finite_rows)
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_one(self, rows):
        assume(np.linalg.norm(rows[0]) > 0.1 and np.linalg.norm(rows[1]) > 0.1)
        s = cosine_similarity(rows[0], rows[1])
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


class TestInfoNce:
    def test_orthonormal_pair_tau_one(self):
        """Identity similarity matrix at tau=1: each item pays
        -1 + log(e + 1) = log(1 + e^-1); the sum doubles it."""
        b = batch(np.eye(2))
        result = infonce_loss(b, batch(np.eye(2), "image"), temperature=1.0)
        np.testing.assert_allclose(result.total, 2.0 * math.log1p(math.exp(-1.0)))

    def test_identical_rows_give_log_n(self):
        """All similarities equal, so the softmax is uniform and every
        item pays exactly log N regardless of temperature."""
        rows = np.tile([3.0, 4.0], (5, 1))
        result = infonce_loss(batch(rows), batch(rows, "image"), temperature=0.05)
        np.testing.assert_allclose(result.per_item, np.full(5, math.log(5.0)))
        np.testing.assert_allclose(result.total, 5.0 * math.log(5.0))

    def test_singleton_batch_is_zero(self):
        """With one item the positive is the whole denominator."""
        result = infonce_loss(
            batch([[1.0, 2.0]]), batch([[0.5, -1.0]], "image"), temperature=0.05
        )
        np.testing.assert_allclose(result.total, 0.0, atol=1e-12)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        a = random_rows(rng, 6, 4)
        t = random_rows(rng, 6, 4)
        result = infonce_loss(batch(a), batch(t, "image"), temperature=0.05)
        expected = oracles.infonce_sum(a.tolist(), t.tolist(), 0.05)
        np.testing.assert_allclose(result.total, expected)
        for i in range(6):
            np.testing.assert_allclose(
                result.per_item[i], oracles.infonce_item(a.tolist(), t.tolist(), i, 0.05)
            )

    def test_total_is_sum_of_items(self):
        rng = np.random.default_rng(7)
        result = infonce_loss(
            batch(random_rows(rng, 5, 3)),
            batch(random_rows(rng, 5, 3), "image"),
            temperature=0.1,
        )
        np.testing.assert_allclose(result.total, np.sum(result.per_item))

    @given(finite_rows)
    @settings(max_examples=50, deadline=None)
    def test_items_nonnegative(self, rows):
        """The positive term appears in its own denominator, so the
        per-item loss is a negative log of a probability."""
        assume(np.all(np.linalg.norm(rows, axis=1) > 0.1))
        result = infonce_loss(batch(rows), batch(rows[::-1].copy(), "image"), 0.5)
        assert np.all(result.per_item >= -1e-10)

    @given(st.floats(0.01, 5.0), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_anchor_row_scale_invariance(self, scale, seed):
        """Cosine similarity ignores row magnitudes."""
        rng = np.random.default_rng(seed)
        a = random_rows(rng, 4, 3)
        t = random_rows(rng, 4, 3)
        base = infonce_loss(batch(a), batch(t, "image"), 0.05).total
        a2 = a.copy()
        a2[1] *= scale
        scaled = infonce_loss(batch(a2), batch(t, "image"), 0.05).total
        np.testing.assert_allclose(base, scaled, rtol=1e-9)

    def test_extreme_temperature_is_finite(self):
        rng = np.random.default_rng(3)
        a = random_rows(rng, 4, 3)
        result = infonce_loss(batch(a), batch(a.copy(), "image"), temperature=1e-3)
        assert np.isfinite(result.total)

    def test_bad_temperature_rejected(self):
        b = batch(np.eye(2))
        for tau in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError):
                infonce_loss(b, batch(np.eye(2), "image"), temperature=tau)

    def test_misaligned_ids_rejected(self):
        a = batch(np.eye(2), ids=("a", "b"))
        t = batch(np.eye(2), "image", ids=("b", "a"))
        with pytest.raises(AlignmentError):
            infonce_loss(a, t, temperature=0.05)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            infonce_loss(batch(np.eye(3)), batch(np.eye(2), "image"), 0.05)

    def test_zero_row_rejected(self):
        bad = np.eye(2)
        bad[1] = 0.0
        with pytest.raises(DomainError):
            infonce_loss(batch(bad), batch(np.eye(2), "image"), 0.05)


class TestTcl:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        reps = random_rows(rng, 5, 4)
        pos = reps + 0.1 * rng.normal(size=reps.shape)
        result = tcl_loss(batch(reps), batch(pos), temperature=0.05)
        np.testing.assert_allclose(
            result.total, oracles.infonce_sum(reps.tolist(), pos.tolist(), 0.05)
        )

    def test_identical_views_still_pay_log_n_when_rows_collide(self):
        rows = np.tile([1.0, 2.0], (3, 1))
        result = tcl_loss(batch(rows), batch(rows.copy()), temperature=0.05)
        np.testing.assert_allclose(result.total, 3.0 * math.log(3.0))

    def test_singleton_batch_is_zero(self):
        result = tcl_loss(batch([[1.0, 1.0]]), batch([[1.0, 0.9]]), 0.05)
        np.testing.assert_allclose(result.total, 0.0, atol=1e-12)

    def test_separated_views_cost_less_than_colliding_views(self):
        """Distinct, well-separated positives are easier than identical
        rows, which force a uniform softmax."""
        sep = np.eye(4)
        collide = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
        easy = tcl_loss(batch(sep), batch(sep.copy()), 0.05).total
        hard = tcl_loss(batch(collide), batch(collide.copy()), 0.05).total
        assert easy < hard

    def test_hard_negatives_match_loop_reference(self):
        rng = np.random.default_rng(9)
        reps = random_rows(rng, 4, 3)
        pos = reps + 0.05 * rng.normal(size=reps.shape)
        negs = rng.normal(size=(4, 2, 3))
        result = tcl_loss(batch(reps), batch(pos), 0.05, hard_negatives=negs)
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
        plain = tcl_loss(batch(reps), batch(pos), 0.05).total
        harder = tcl_loss(batch(reps), batch(pos), 0.05, hard_negatives=negs).total
        assert harder > plain

    def test_zero_width_negatives_match_plain_loss_exactly(self):
        rng = np.random.default_rng(11)
        reps = random_rows(rng, 3, 4)
        pos = random_rows(rng, 3, 4)
        empty = np.zeros((3, 0, 4))
        plain = tcl_loss(batch(reps), batch(pos), 0.05)
        via_empty = tcl_loss(batch(reps), batch(pos), 0.05, hard_negatives=empty)
        assert plain.total == via_empty.total
        assert via_empty.gradients["hard_negatives"].shape == (3, 0, 4)

    def test_bad_negative_shape_rejected(self):
        reps = batch(np.eye(3))
        pos = batch(np.eye(3))
        with pytest.raises(ShapeError):
            tcl_loss(reps, pos, 0.05, hard_negatives=np.zeros((2, 1, 3)))


class TestCmcl:
    def test_identical_everything_pays_two_log_two(self):
        """Both directions are uniform over 2 items: total =
        mean_i(log 2 + log 2) = log 4."""
        rows = np.tile([1.0, 1.0], (2, 1))
        result = cmcl_total(
            batch(rows, "image"), batch(rows.copy()), 0.05
        )
        np.testing.assert_allclose(result.total, math.log(4.0))

    def test_orthonormal_pairs_near_zero(self):
        """Perfectly separated pairs at tau=0.05: each direction pays
        log(1 + e^-20) per item."""
        eye = np.eye(2)
        result = cmcl_total(batch(eye, "image"), batch(eye.copy()), 0.05)
        np.testing.assert_allclose(
            result.total, 2.0 * math.log1p(math.exp(-20.0)), rtol=1e-6
        )

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        v = random_rows(rng, 6, 5)
        l = random_rows(rng, 6, 5)
        result = cmcl_total(batch(v, "image"), batch(l), 0.05)
        np.testing.assert_allclose(
            result.total, oracles.bidirectional_mean(v.tolist(), l.tolist(), 0.05)
        )

    def test_total_is_mean_of_items(self):
        rng = np.random.default_rng(9)
        result = cmcl_total(
            batch(random_rows(rng, 4, 3), "image"),
            batch(random_rows(rng, 4, 3)),
            0.05,
        )
        np.testing.assert_allclose(result.total, np.mean(result.per_item))

    def test_symmetric_under_modality_swap(self):
        """Swapping which side is called image and which text leaves the
        bidirectional total unchanged."""
        rng = np.random.default_rng(11)
        v = random_rows(rng, 5, 4)
        l = random_rows(rng, 5, 4)
        fwd = cmcl_total(batch(v, "image"), batch(l), 0.05).total
        rev = cmcl_total(batch(l, "image"), batch(v), 0.05).total
        np.testing.assert_allclose(fwd, rev)

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        """Reordering the aligned pairs cannot change a mean over items."""
        rng = np.random.default_rng(seed)
        v = random_rows(rng, 5, 3)
        l = random_rows(rng, 5, 3)
        perm = rng.permutation(5)
        base = cmcl_total(batch(v, "image"), batch(l), 0.05).total
        ids = tuple(int(p) for p in perm)
        shuffled = cmcl_total(
            batch(v[perm], "image", ids=ids), batch(l[perm], ids=ids),
            0.05,
        ).total
        np.testing.assert_allclose(base, shuffled, rtol=1e-9)


    @pytest.mark.parametrize("tau", [0.0, -0.05])
    def test_nonpositive_temperature_rejected(self, tau):
        eye = np.eye(2)
        with pytest.raises(ConfigError, match="temperature"):
            cmcl_total(batch(eye, "image"), batch(eye.copy()), tau)
        with pytest.raises(ConfigError, match="temperature"):
            ans_loss(batch(eye, "image"), batch(eye.copy()), np.ones((2, 1, 2)), tau)


class TestAns:
    def test_zero_negatives_bit_identical_to_cmcl(self):
        rng = np.random.default_rng(42)
        v = batch(random_rows(rng, 5, 4), "image")
        l = batch(random_rows(rng, 5, 4))
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
        result = ans_loss(
            batch(rows, "image"), batch(rows.copy()), negs, 0.05
        )
        np.testing.assert_allclose(result.total, math.log(6.0))

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        v = random_rows(rng, 4, 5)
        l = random_rows(rng, 4, 5)
        negs = random_rows(rng, 4 * 3, 5).reshape(4, 3, 5)
        result = ans_loss(batch(v, "image"), batch(l), negs, 0.05)
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
        v = batch(random_rows(rng, 4, 3), "image")
        l = batch(random_rows(rng, 4, 3))
        negs = random_rows(rng, 4, 3).reshape(4, 1, 3)
        with_negs = ans_loss(v, l, negs, 0.05).total
        without = cmcl_total(v, l, 0.05).total
        assert with_negs > without

    def test_negative_similar_to_image_costs_more_than_dissimilar(self):
        """A perturbed caption aligned with the image is the harder
        negative and must dominate an orthogonal one."""
        v = batch(np.eye(2), "image")
        l = batch(np.eye(2))
        aligned = np.stack([np.eye(2)[i].reshape(1, 2) for i in range(2)])
        orthogonal = np.stack([np.eye(2)[1 - i].reshape(1, 2) for i in range(2)])
        hard = ans_loss(v, l, aligned, 0.05).total
        easy = ans_loss(v, l, orthogonal, 0.05).total
        assert hard > easy

    def test_wrong_negative_rank_rejected(self):
        v = batch(np.eye(2), "image")
        with pytest.raises(ShapeError):
            ans_loss(v, batch(np.eye(2)), np.ones((2, 2)), 0.05)


class TestHinge:
    def test_perfect_separation_is_zero(self):
        """Positive pairs at similarity 1, mismatched pairs at 0: both
        margin terms sit exactly at the kink and contribute nothing."""
        eye = np.eye(2)
        swapped = eye[::-1].copy()
        result = hinge_loss(
            batch(eye, "image"), batch(eye.copy()),
            batch(swapped, "image"), batch(swapped.copy()), margin=1.0,
        )
        np.testing.assert_allclose(result.total, 0.0)

    def test_identical_everything_pays_two_margins_each(self):
        """All similarities equal: each term reduces to the margin."""
        rows = np.tile([1.0, 2.0], (3, 1))
        result = hinge_loss(
            batch(rows, "image"), batch(rows.copy()),
            batch(rows.copy(), "image"), batch(rows.copy()), margin=1.0,
        )
        np.testing.assert_allclose(result.per_item, np.full(3, 2.0))
        np.testing.assert_allclose(result.total, 6.0)

    def test_single_active_term(self):
        """Only the caption-side negative is confusable: total is its
        similarity, margin - 1 + cos(45 degrees)."""
        result = hinge_loss(
            batch([[1.0, 0.0]], "image"), batch([[1.0, 0.0]]),
            batch([[0.0, 1.0]], "image"),
            batch([[1.0, 1.0]]), margin=1.0,
        )
        np.testing.assert_allclose(result.total, 0.7071067811865476)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        v, l, vn, ln = (random_rows(rng, 5, 4) for _ in range(4))
        result = hinge_loss(
            batch(v, "image"), batch(l), batch(vn, "image"), batch(ln), margin=1.0
        )
        expected = oracles.hinge_sum(
            v.tolist(), l.tolist(), vn.tolist(), ln.tolist(), 1.0
        )
        np.testing.assert_allclose(result.total, expected)

    @given(st.integers(0, 2**31), st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_items_within_bounds(self, seed, margin):
        """Each hinge term lies in [0, margin + 2] because cosine
        similarities lie in [-1, 1]."""
        rng = np.random.default_rng(seed)
        v, l, vn, ln = (random_rows(rng, 4, 3) for _ in range(4))
        result = hinge_loss(
            batch(v, "image"), batch(l), batch(vn, "image"), batch(ln), margin
        )
        assert np.all(result.per_item >= 0.0)
        assert np.all(result.per_item <= 2.0 * (margin + 2.0) + 1e-9)

    def test_negative_margin_rejected(self):
        b = batch(np.eye(2))
        with pytest.raises(ConfigError):
            hinge_loss(b, b, b, b, margin=-0.5)


class TestMlm:
    def test_hand_case(self):
        """-log 0.5 and -log 0.7 average to (log 2 + log(10/7)) / 2."""
        dists = np.array([[0.5, 0.25, 0.25], [0.1, 0.2, 0.7]])
        result = mlm_loss(dists, [0, 2])
        np.testing.assert_allclose(
            result.total, (math.log(2.0) + math.log(10.0 / 7.0)) / 2.0
        )

    def test_uniform_pays_log_vocab(self):
        dists = np.full((4, 8), 1.0 / 8.0)
        result = mlm_loss(dists, [0, 3, 7, 2])
        np.testing.assert_allclose(result.per_item, np.full(4, math.log(8.0)))

    def test_perfect_prediction_is_zero(self):
        dists = np.eye(5)
        result = mlm_loss(dists, np.arange(5))
        np.testing.assert_allclose(result.total, 0.0, atol=1e-12)

    def test_empty_input_is_zero(self):
        result = mlm_loss(np.zeros((0, 7)), [])
        assert result.total == 0.0
        assert result.per_item.shape == (0,)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        raw = rng.uniform(0.1, 1.0, size=(6, 9))
        dists = raw / raw.sum(axis=1, keepdims=True)
        targets = rng.integers(0, 9, size=6)
        result = mlm_loss(dists, targets)
        np.testing.assert_allclose(
            result.total, oracles.cross_entropy_mean(dists.tolist(), targets.tolist())
        )

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValidationError):
            mlm_loss(np.array([[0.5, 0.6]]), [0])

    def test_negative_probabilities_rejected(self):
        with pytest.raises(ValidationError):
            mlm_loss(np.array([[1.2, -0.2]]), [0])

    def test_out_of_range_target_rejected(self):
        dists = np.full((1, 4), 0.25)
        with pytest.raises(IndexError):
            mlm_loss(dists, [4])
        with pytest.raises(IndexError):
            mlm_loss(dists, [-1])

    def test_target_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mlm_loss(np.full((2, 4), 0.25), [0])


class TestVoken:
    def test_unassigned_positions_excluded(self):
        """The middle token has no voken: it contributes nothing and the
        mean runs over the two assigned positions only."""
        dists = np.array(
            [[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4], [1.0, 0.0, 0.0, 0.0]]
        )
        result = voken_loss(dists, [2, NO_VOKEN, 0])
        np.testing.assert_allclose(result.per_item[1], 0.0)
        np.testing.assert_allclose(result.total, math.log(4.0) / 2.0)

    def test_all_unassigned_is_zero(self):
        result = voken_loss(np.full((3, 4), 0.25), [NO_VOKEN] * 3)
        assert result.total == 0.0

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        raw = rng.uniform(0.1, 1.0, size=(8, 5))
        dists = raw / raw.sum(axis=1, keepdims=True)
        targets = [0, NO_VOKEN, 2, 4, NO_VOKEN, 1, 3, 0]
        result = voken_loss(dists, targets)
        np.testing.assert_allclose(
            result.total, oracles.voken_mean(dists.tolist(), targets)
        )

    def test_matches_mlm_when_all_assigned(self):
        """With every token assigned, voken classification is ordinary
        cross-entropy over the voken inventory."""
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.1, 1.0, size=(4, 6))
        dists = raw / raw.sum(axis=1, keepdims=True)
        targets = [1, 5, 0, 3]
        np.testing.assert_allclose(
            voken_loss(dists, targets).total, mlm_loss(dists, targets).total
        )

    def test_out_of_range_target_rejected(self):
        with pytest.raises(IndexError):
            voken_loss(np.full((1, 4), 0.25), [-3])


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
    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            batch([[1.0, float("nan")]])

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingBatch(np.eye(2), "audio", (0, 1))

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            EmbeddingBatch(np.eye(3), "text", (0, 1))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError):
            EmbeddingBatch(np.ones(4), "text", (0,))
