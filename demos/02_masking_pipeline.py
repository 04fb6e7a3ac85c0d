#!/usr/bin/env python3
"""Dynamic masking, drawn fresh every step.

The masked-prediction objective needs corrupted inputs. The pipeline
selects about 15% of ordinary tokens, then masks 80% of the selected,
keeps 10% unchanged, and swaps 10% for random words. One plan covers a
whole padded batch and is drawn from a generator derived from
(seed, "mask", epoch, step), so the same sentence is corrupted
differently in every epoch but identically in every re-run.
"""

import numpy as np

from cmkt.corpus import ACTIONS, Vocab, plan_dynamic_masking, tokenize
from cmkt.seeding import rng_for

sentence = "the quick brown fox jumps over the lazy dog near the red barn"
vocab = Vocab.from_texts([sentence])
tokens = np.array([tokenize(sentence, vocab)])

print(f"sentence: {sentence!r}")
print(f"token ids: {tokens[0].tolist()}\n")

print("=== the same sentence across three epochs ===")
for epoch in range(3):
    masked, selected, actions = plan_dynamic_masking(tokens, vocab, rng_for(0, "mask", epoch, 0))
    shown = " ".join(vocab.word_of(t) for t in masked[0])
    print(f"epoch {epoch}: {shown}")
    print(f"         positions {np.flatnonzero(selected[0]).tolist()} "
          f"actions {[ACTIONS[a] for a in actions]}")
print()

print("=== statistics over a batch of 100k tokens ===")
content = vocab.content_ids()
batch = content[np.arange(100_000) % len(content)].reshape(200, 500)
_, selected, actions = plan_dynamic_masking(batch, vocab, rng_for(0, "stats"))
print(f"selection rate: {selected.mean():.4f}  (target 0.15)")
for name, count in zip(ACTIONS, np.bincount(actions, minlength=3)):
    print(f"{name:>7} share: {count / len(actions):.4f}")
print("\nre-running this script reproduces these numbers exactly: every")
print("plan comes from a generator derived from (seed, purpose, epoch, step)")
