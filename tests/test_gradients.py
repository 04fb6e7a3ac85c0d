"""Finite-difference checks of every analytic gradient.

The checker perturbs each input coordinate by +/- 1e-5, recomputes the
loss total, and compares the central difference against the returned
gradient with a relative tolerance of 1e-4.
"""

import numpy as np

from cmkt import ans_loss, cmcl_total, hinge_loss, nst_loss_with_grad, tcl_loss

STEP = 1e-5
REL_TOL = 1e-4


def rows(rng, n, d):
    r = rng.normal(size=(n, d)) * 2.0
    r += np.sign(r + 0.5) * 0.5
    return r


def check_gradient(total_fn, inputs, analytic, step=STEP, rel_tol=REL_TOL):
    """Compare analytic against central differences, coordinate by
    coordinate, on every input that has a reported gradient."""
    for name, grad in analytic.items():
        x = inputs[name]
        assert grad.shape == x.shape, f"{name}: grad shape {grad.shape} vs {x.shape}"
        numeric = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            bumped = {k: v.copy() for k, v in inputs.items()}
            bumped[name][idx] = x[idx] + step
            hi = total_fn(bumped)
            bumped[name][idx] = x[idx] - step
            lo = total_fn(bumped)
            numeric[idx] = (hi - lo) / (2.0 * step)
            it.iternext()
        scale = max(np.max(np.abs(numeric)), np.max(np.abs(grad)), 1e-8)
        err = np.max(np.abs(numeric - grad)) / scale
        assert err < rel_tol, f"{name}: relative gradient error {err:.3e}"


class TestInfoNceGradients:
    """``tcl_loss`` without hard negatives, on unrelated rows."""

    def test_both_inputs(self):
        rng = np.random.default_rng(42)
        inputs = {"reps": rows(rng, 4, 3), "dropout_positives": rows(rng, 4, 3)}
        result = tcl_loss(inputs["reps"], inputs["dropout_positives"], 0.05)
        check_gradient(
            lambda b: tcl_loss(
                b["reps"], b["dropout_positives"], 0.05
            ).total,
            inputs,
            result.gradients,
        )

    def test_mild_temperature(self):
        rng = np.random.default_rng(7)
        inputs = {"reps": rows(rng, 3, 4), "dropout_positives": rows(rng, 3, 4)}
        result = tcl_loss(inputs["reps"], inputs["dropout_positives"], 1.0)
        check_gradient(
            lambda b: tcl_loss(
                b["reps"], b["dropout_positives"], 1.0
            ).total,
            inputs,
            result.gradients,
        )


class TestTclGradients:
    def test_both_inputs(self):
        rng = np.random.default_rng(42)
        reps = rows(rng, 4, 3)
        inputs = {"reps": reps, "dropout_positives": reps + 0.3 * rng.normal(size=reps.shape)}
        result = tcl_loss(inputs["reps"], inputs["dropout_positives"], 0.05)
        check_gradient(
            lambda b: tcl_loss(b["reps"], b["dropout_positives"], 0.05).total,
            inputs,
            result.gradients,
        )

    def test_with_hard_negatives(self):
        rng = np.random.default_rng(43)
        reps = rows(rng, 3, 4)
        inputs = {
            "reps": reps,
            "dropout_positives": reps + 0.3 * rng.normal(size=reps.shape),
            "hard_negatives": rng.normal(size=(3, 2, 4)),
        }
        result = tcl_loss(
            inputs["reps"],
            inputs["dropout_positives"],
            0.05,
            hard_negatives=inputs["hard_negatives"],
        )
        check_gradient(
            lambda b: tcl_loss(
                b["reps"],
                b["dropout_positives"],
                0.05,
                hard_negatives=b["hard_negatives"],
            ).total,
            inputs,
            result.gradients,
        )


class TestCmclGradients:
    def test_both_inputs(self):
        rng = np.random.default_rng(42)
        inputs = {"image": rows(rng, 4, 3), "text": rows(rng, 4, 3)}
        result = cmcl_total(inputs["image"], inputs["text"], 0.05)
        check_gradient(
            lambda b: cmcl_total(
                b["image"], b["text"], 0.05
            ).total,
            inputs,
            result.gradients,
        )


class TestAnsGradients:
    def test_all_three_inputs(self):
        rng = np.random.default_rng(42)
        inputs = {
            "image": rows(rng, 3, 4),
            "text": rows(rng, 3, 4),
            "hard_negatives": rows(rng, 6, 4).reshape(3, 2, 4),
        }
        result = ans_loss(inputs["image"], inputs["text"], inputs["hard_negatives"], 0.05)
        check_gradient(
            lambda b: ans_loss(
                b["image"], b["text"], b["hard_negatives"], 0.05
            ).total,
            inputs,
            result.gradients,
        )


class TestHingeGradients:
    def test_all_four_inputs_away_from_kink(self):
        """Random cosines land strictly inside or outside the margin with
        probability one, so the subgradient matches the difference
        quotient."""
        rng = np.random.default_rng(42)
        inputs = {
            "image": rows(rng, 4, 3),
            "text": rows(rng, 4, 3),
            "negative_images": rows(rng, 4, 3),
            "negative_texts": rows(rng, 4, 3),
        }
        result = hinge_loss(
            inputs["image"],
            inputs["text"],
            inputs["negative_images"],
            inputs["negative_texts"],
            margin=1.0,
        )
        check_gradient(
            lambda b: hinge_loss(
                b["image"],
                b["text"],
                b["negative_images"],
                b["negative_texts"],
                margin=1.0,
            ).total,
            inputs,
            result.gradients,
        )


class TestNstGradients:
    def test_student_gradient(self):
        rng = np.random.default_rng(42)
        teacher = rows(rng, 5, 4)
        student = rows(rng, 4, 4)
        _, grad = nst_loss_with_grad(teacher, student)
        check_gradient(
            lambda b: nst_loss_with_grad(teacher, b["student"])[0],
            {"student": student},
            {"student": grad},
        )

    def test_gradient_near_zero_at_match(self):
        """At teacher == student the discrepancy is at its minimum, so
        the gradient must vanish."""
        rng = np.random.default_rng(3)
        acts = rows(rng, 5, 3)
        _, grad = nst_loss_with_grad(acts, acts.copy())
        np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-10)


class TestGradientAggregationScale:
    def test_cmcl_gradients_reflect_mean_aggregation(self):
        """cmcl reports a mean over items while infonce reports a sum;
        doubling the batch by repetition must not change per-row cmcl
        gradients' overall scale the way a sum would."""
        rng = np.random.default_rng(8)
        v = rows(rng, 3, 3)
        l = rows(rng, 3, 3)
        tau = 0.05
        g = cmcl_total(v, l, tau).gradients
        eps = 1e-6
        v2 = v.copy()
        v2[0, 0] += eps
        hi = cmcl_total(v2, l, tau).total
        v2[0, 0] -= 2 * eps
        lo = cmcl_total(v2, l, tau).total
        np.testing.assert_allclose(g["image"][0, 0], (hi - lo) / (2 * eps), rtol=1e-3)

    def test_ans_zero_negative_gradient_is_zero_tensor(self):
        rng = np.random.default_rng(21)
        v = rows(rng, 3, 3)
        l = rows(rng, 3, 3)
        result = ans_loss(v, l, np.zeros((3, 0, 3)), 0.05)
        assert result.gradients["hard_negatives"].shape == (3, 0, 3)
