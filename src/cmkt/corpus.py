"""Caption ingestion, word-level tokenization, and dynamic masking plans.

The reference tokenizer is deliberately simple: lowercase, split on
whitespace, map unknown words to ``[unk]``. Subword tokenizers can be
plugged in behind the same vocabulary interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, TokenizationError, ValidationError
from .textio import parse_errors, read_lines, tab_fields, write_lines

PAD = "[pad]"
UNK = "[unk]"
MASK = "[mask]"
SEP = "[sep]"
SPECIALS = (PAD, UNK, MASK, SEP)
SPECIAL_IDS = frozenset(range(len(SPECIALS)))

TRAIN = "train"
DEV = "dev"
SPLITS = (TRAIN, DEV)

MASK_ACTION = "mask"
KEEP_ACTION = "keep"
RANDOM_ACTION = "random"
ACTIONS = (MASK_ACTION, KEEP_ACTION, RANDOM_ACTION)

NO_REPLACEMENT = -1


class Vocab:
    """A fixed word-to-id table with the four special tokens up front."""

    def __init__(self, words: Sequence[str]):
        words = list(words)
        if tuple(words[:4]) != SPECIALS:
            raise ValidationError(
                f"vocabulary must start with {SPECIALS}, got {tuple(words[:4])}"
            )
        if len(set(words)) != len(words):
            seen = set()
            dup = next(w for w in words if w in seen or seen.add(w))
            raise ValidationError(f"duplicate vocabulary entry {dup!r}")
        self._id_to_word = words
        self._word_to_id = {w: i for i, w in enumerate(words)}

    @classmethod
    def from_texts(cls, texts: Iterable[str], min_count: int = 1) -> "Vocab":
        counts: dict[str, int] = {}
        for text in texts:
            for word in text.lower().split():
                counts[word] = counts.get(word, 0) + 1
        kept = sorted(w for w, c in counts.items() if c >= min_count and w not in SPECIALS)
        return cls(list(SPECIALS) + kept)

    def __len__(self) -> int:
        return len(self._id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    def id_of(self, word: str) -> int:
        return self._word_to_id.get(word, self.unk_id)

    def word_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._id_to_word):
            raise IndexError(f"token id {token_id} outside vocabulary of size {len(self)}")
        return self._id_to_word[token_id]

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    @property
    def mask_id(self) -> int:
        return 2

    @property
    def sep_id(self) -> int:
        return 3

    @property
    def special_ids(self) -> frozenset[int]:
        return SPECIAL_IDS

    def content_ids(self) -> np.ndarray:
        """Ids of ordinary words, the pool for random replacement."""
        return np.arange(4, len(self._id_to_word))

    def save(self, path: str | Path) -> None:
        write_lines(path, self._id_to_word)

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        words = [word for _, word in read_lines(path)]
        with parse_errors(path):
            return cls(words)


def tokenize(text: str, vocab: Vocab, max_len: Optional[int] = None) -> list[int]:
    """Lowercased whitespace tokenization into vocabulary ids.

    Unknown words map to the unknown-word id; sequences longer than
    ``max_len`` are truncated. Empty input is an error because an empty
    caption cannot participate in any objective.
    """
    words = text.lower().split()
    if not words:
        raise TokenizationError(f"cannot tokenize empty text {text!r}")
    ids = [vocab.id_of(w) for w in words]
    if max_len is not None:
        if max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {max_len}")
        ids = ids[:max_len]
    return ids


def detokenize(token_ids: Sequence[int], vocab: Vocab) -> str:
    return " ".join(vocab.word_of(t) for t in token_ids)


@dataclass(frozen=True)
class CaptionPair:
    """One image/caption record; the same image may appear many times."""

    image_id: str
    caption: str
    split: str = TRAIN

    def __post_init__(self):
        if not self.caption.strip():
            raise ValidationError(f"caption for image {self.image_id!r} is empty")
        if self.split not in SPLITS:
            raise ValidationError(f"split must be one of {SPLITS}, got {self.split!r}")


def load_pairs(path: str | Path) -> list[CaptionPair]:
    """Read tab-separated (image_id, caption, split) records."""
    pairs = []
    for where, line in read_lines(path):
        with parse_errors(where):
            pairs.append(CaptionPair(*tab_fields(line, 3)))
    return pairs


def save_pairs(pairs: Iterable[CaptionPair], path: str | Path) -> None:
    write_lines(path, (f"{p.image_id}\t{p.caption}\t{p.split}" for p in pairs))


@dataclass(frozen=True)
class MaskingPlan:
    """Which positions to corrupt, how, and what the model should recover.

    Parallel tuples: ``positions`` (strictly increasing), ``actions``
    (mask / keep / random), ``replacements`` (a token id for random
    actions, NO_REPLACEMENT otherwise), ``targets`` (the original ids).
    """

    positions: tuple[int, ...]
    actions: tuple[str, ...]
    replacements: tuple[int, ...]
    targets: tuple[int, ...]

    def __post_init__(self):
        n = len(self.positions)
        if not (len(self.actions) == len(self.replacements) == len(self.targets) == n):
            raise ValidationError("masking plan fields have mismatched lengths")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValidationError(
                f"plan positions must be strictly increasing, got {self.positions}"
            )
        for action, repl in zip(self.actions, self.replacements):
            if action not in ACTIONS:
                raise ValidationError(f"unknown masking action {action!r}")
            if (action == RANDOM_ACTION) != (repl != NO_REPLACEMENT):
                raise ValidationError(
                    "replacement tokens go with random actions and nothing else"
                )

    def __len__(self) -> int:
        return len(self.positions)


def plan_dynamic_masking(
    tokens: Sequence[int],
    vocab: Vocab,
    rng: np.random.Generator,
    rate: float = 0.15,
    splits: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> MaskingPlan:
    """Draw a fresh corruption plan for one sequence.

    Every non-special token is selected independently with probability
    ``rate``; each selected token is masked, kept, or replaced by a random
    ordinary word, with probabilities given by ``splits``. Plans are meant
    to be redrawn every epoch from an epoch-derived generator.
    """
    if not 0.0 < rate < 1.0:
        raise ConfigError(f"masking rate must lie in (0, 1), got {rate}")
    if len(splits) != 3 or any(s < 0 for s in splits) or abs(sum(splits) - 1.0) > 1e-9:
        raise ConfigError(f"action splits must be 3 non-negative numbers summing to 1, got {splits}")

    content = vocab.content_ids()
    positions, actions, replacements, targets = [], [], [], []
    for pos, token in enumerate(tokens):
        if token in vocab.special_ids:
            continue
        if rng.random() >= rate:
            continue
        u = rng.random()
        if u < splits[0]:
            action, repl = MASK_ACTION, NO_REPLACEMENT
        elif u < splits[0] + splits[1]:
            action, repl = KEEP_ACTION, NO_REPLACEMENT
        else:
            if content.size == 0:
                raise ConfigError("vocabulary has no ordinary words to replace with")
            action, repl = RANDOM_ACTION, int(content[rng.integers(content.size)])
        positions.append(pos)
        actions.append(action)
        replacements.append(repl)
        targets.append(int(token))
    return MaskingPlan(
        positions=tuple(positions),
        actions=tuple(actions),
        replacements=tuple(replacements),
        targets=tuple(targets),
    )


def apply_masking_plan(tokens: Sequence[int], plan: MaskingPlan, vocab: Vocab) -> list[int]:
    """Corrupt a token sequence per the plan; the original is untouched."""
    out = list(tokens)
    for pos, action, repl, target in zip(
        plan.positions, plan.actions, plan.replacements, plan.targets
    ):
        if not 0 <= pos < len(out):
            raise ValidationError(f"plan position {pos} outside sequence of length {len(out)}")
        if out[pos] != target:
            raise ValidationError(
                f"plan target {target} does not match token {out[pos]} at position {pos}"
            )
        if action == MASK_ACTION:
            out[pos] = vocab.mask_id
        elif action == RANDOM_ACTION:
            out[pos] = repl
    return out
