"""Caption ingestion, word-level tokenization, and dynamic masking.

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
    def unk_id(self) -> int:
        return 1

    @property
    def mask_id(self) -> int:
        return 2

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


def plan_dynamic_masking(
    tokens: np.ndarray,
    vocab: Vocab,
    rng: np.random.Generator,
    rate: float = 0.15,
    splits: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw a fresh corruption plan for a padded batch of token ids.

    Every non-special token is selected independently with probability
    ``rate``; each selected token is masked, kept, or replaced by a random
    ordinary word, with probabilities given by ``splits``. The generator
    is read in three draws: one uniform per batch cell for the selection,
    one per selected cell for the action, one content-word index per
    random action. Returns ``(masked, selected, actions)``: the corrupted
    copy of ``tokens``, the boolean selection of the same shape, and the
    index into ``ACTIONS`` of each selected cell in row-major order.
    Plans are meant to be redrawn every step from a step-derived
    generator.
    """
    if not 0.0 < rate < 1.0:
        raise ConfigError(f"masking rate must lie in (0, 1), got {rate}")
    if len(splits) != 3 or any(s < 0 for s in splits) or abs(sum(splits) - 1.0) > 1e-9:
        raise ConfigError(f"action splits must be 3 non-negative numbers summing to 1, got {splits}")

    tokens = np.asarray(tokens)
    selected = rng.random(tokens.shape) < rate
    selected &= tokens >= len(SPECIALS)  # the specials hold the first ids
    u = rng.random(np.count_nonzero(selected))
    actions = (u >= splits[0]).astype(np.int64)
    actions += u >= splits[0] + splits[1]
    masked = tokens.copy()
    picked = masked[selected]
    picked[actions == 0] = vocab.mask_id  # action codes index ACTIONS
    is_random = actions == 2
    content = vocab.content_ids()
    picked[is_random] = content[rng.integers(content.size, size=np.count_nonzero(is_random))]
    masked[selected] = picked
    return masked, selected, actions
