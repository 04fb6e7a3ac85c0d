#!/usr/bin/env python3
"""A tour of the contrastive loss family on hand-sized batches.

Four losses share one skeleton: score an aligned pair against
alternatives inside the batch, squash with a temperature, take the
negative log-likelihood of picking the right partner. Each takes plain
``(N, d)`` arrays whose row i is item i.

  tcl_loss       one direction, anchors retrieve targets (InfoNCE when
                 no hard negatives are given)
  cmcl_total     both directions between images and captions, averaged
  ans_loss       cmcl plus extra "hard negative" captions per image
  hinge_loss     the older margin formulation, one negative per side

Run it and watch three effects: temperature sharpening, hard negatives
raising the loss, and the exact collapse of ans_loss onto cmcl_total
when the negative set is empty.
"""

import numpy as np

from cmkt.objectives import ans_loss, cmcl_total, hinge_loss, tcl_loss

rng = np.random.default_rng(0)
n, d = 6, 16

# aligned pairs: captions are noisy copies of their images, so the
# diagonal is the strongest match but not a trivial one
images = rng.normal(size=(n, d))
texts = images + 0.4 * rng.normal(size=(n, d))

print("=== one direction: captions retrieve their images ===")
for tau in (1.0, 0.2, 0.05):
    value = tcl_loss(texts, images, temperature=tau).total
    print(f"  temperature {tau:>4}: loss {value:8.4f}")
print("lower temperature exaggerates the diagonal advantage, so the")
print("(sum-aggregated) loss falls when pairs are roughly aligned\n")

print("=== both directions, averaged over the batch ===")
plain = cmcl_total(images, texts, temperature=0.05)
print(f"  cmcl_total = {plain.total:.6f}")
print(f"  per item   = {np.round(plain.per_item, 3)}\n")

print("=== hard negatives join the image-to-text denominator ===")
for m in (0, 2, 4):
    # perturbed captions: close to the true caption, hence hard
    negatives = texts[:, None, :] + 0.2 * rng.normal(size=(n, m, d))
    value = ans_loss(images, texts, negatives, temperature=0.05).total
    marker = "  (== cmcl_total exactly)" if m == 0 else ""
    print(f"  M={m}: loss {value:.6f}{marker}")
print("each extra plausible caption makes the right one harder to pick\n")

print("=== the margin formulation ===")
neg_images = rng.normal(size=(n, d))
neg_texts = rng.normal(size=(n, d))
for margin in (0.2, 1.0):
    value = hinge_loss(images, texts, neg_images, neg_texts, margin).total
    print(f"  margin {margin}: loss {value:.4f}")
print("a wider margin keeps more mismatched pairs inside the penalty zone")
