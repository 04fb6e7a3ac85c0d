"""Caption perturbation: hard negatives and augmented positives.

The pipeline mirrors how the training data is attacked: pick a few noun
or verb positions, ask a masked language model for likely replacement
words, then split the proposals by a lexicon test. A replacement that is
a synonym or (transitive) hypernym of the original word keeps the
caption's meaning, so it becomes an *equivalent positive*; everything
else is an *adversarial negative* that reads fluently but no longer
matches the image.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .errors import ValidationError
from .textio import parse_errors, read_lines, tab_fields, write_lines

NOUN = "noun"
VERB = "verb"
OTHER = "other"
CONTENT_TAGS = (NOUN, VERB)

SYN = "syn"
HYPER = "hyper"

ADVERSARIAL_NEGATIVE = "adversarial_negative"
EQUIVALENT_POSITIVE = "equivalent_positive"
VERDICTS = (ADVERSARIAL_NEGATIVE, EQUIVALENT_POSITIVE)


class Lexicon:
    """Synonym pairs and a hypernym DAG with transitive-closure queries.

    Synonymy is stored symmetrically; hypernymy is directed from a word
    to its ancestors and must stay acyclic. Relations from every sense of
    a word are merged into one set.
    """

    def __init__(self, syn_pairs: Sequence[tuple[str, str]],
                 hyper_edges: Sequence[tuple[str, str]]):
        self._syn: dict[str, set[str]] = {}
        for a, b in syn_pairs:
            a, b = a.lower(), b.lower()
            if a == b:
                raise ValidationError(f"word {a!r} listed as its own synonym")
            self._syn.setdefault(a, set()).add(b)
            self._syn.setdefault(b, set()).add(a)
        self._parents: dict[str, set[str]] = {}
        for child, parent in hyper_edges:
            child, parent = child.lower(), parent.lower()
            if child == parent:
                raise ValidationError(f"word {child!r} listed as its own hypernym")
            self._parents.setdefault(child, set()).add(parent)
        self._assert_acyclic()

    def _assert_acyclic(self):
        done: set[str] = set()
        for start in self._parents:
            if start in done:
                continue
            stack = [(start, iter(self._parents.get(start, ())))]
            on_path = {start}
            while stack:
                node, it = stack[-1]
                parent = next(it, None)
                if parent is None:
                    stack.pop()
                    on_path.discard(node)
                    done.add(node)
                    continue
                if parent in on_path:
                    raise ValidationError(
                        f"hypernym cycle through {parent!r} and {node!r}"
                    )
                if parent not in done:
                    stack.append((parent, iter(self._parents.get(parent, ()))))
                    on_path.add(parent)

    def synonyms(self, word: str) -> frozenset[str]:
        return frozenset(self._syn.get(word.lower(), ()))

    def hypernyms(self, word: str) -> frozenset[str]:
        """All ancestors of the word, any number of edges up."""
        seen: set[str] = set()
        frontier = list(self._parents.get(word.lower(), ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._parents.get(node, ()))
        return frozenset(seen)

    def is_equivalent(self, original: str, candidate: str) -> bool:
        candidate = candidate.lower()
        return candidate in self.synonyms(original) or candidate in self.hypernyms(original)

    def save(self, path: str | Path) -> None:
        lines = []
        for a in sorted(self._syn):
            for b in sorted(self._syn[a]):
                if a < b:
                    lines.append(f"{a}\t{SYN}\t{b}")
        for child in sorted(self._parents):
            for parent in sorted(self._parents[child]):
                lines.append(f"{child}\t{HYPER}\t{parent}")
        write_lines(path, lines)

    @classmethod
    def load(cls, path: str | Path) -> "Lexicon":
        relations = {SYN: [], HYPER: []}
        for where, line in read_lines(path):
            with parse_errors(where):
                a, rel, b = tab_fields(line, 3)
                if rel not in relations:
                    raise ValueError(f"relation must be {SYN!r} or {HYPER!r}, got {rel!r}")
                relations[rel].append((a, b))
        with parse_errors(path):
            return cls(relations[SYN], relations[HYPER])


class PosTagger:
    """Dictionary-backed part-of-speech lookup; unknown words are other."""

    def __init__(self, tags: dict[str, str]):
        for word, tag in tags.items():
            if tag not in (NOUN, VERB, OTHER):
                raise ValidationError(f"unknown tag {tag!r} for word {word!r}")
        self._tags = {w.lower(): t for w, t in tags.items()}

    def tag(self, word: str) -> str:
        return self._tags.get(word.lower(), OTHER)

    def save(self, path: str | Path) -> None:
        write_lines(path, (f"{w}\t{t}" for w, t in sorted(self._tags.items())))

    @classmethod
    def load(cls, path: str | Path) -> "PosTagger":
        tags = {}
        for where, line in read_lines(path):
            with parse_errors(where):
                word, tag = tab_fields(line, 2)
            tags[word] = tag
        with parse_errors(path):
            return cls(tags)


class MaskedLMOracle(Protocol):
    """Ranked replacement suggestions for one caption position."""

    def top_candidates(self, words: Sequence[str], position: int, k: int) -> list[str]:
        ...


class MockOracle:
    """Fixed per-word suggestion table, for tests and fixtures."""

    def __init__(self, table: dict[str, list[str]]):
        self._table = {w.lower(): list(c) for w, c in table.items()}

    def top_candidates(self, words: Sequence[str], position: int, k: int) -> list[str]:
        return self._table.get(words[position].lower(), [])[:k]


class FrequencyOracle:
    """Suggests the corpus's most frequent words, ignoring context.

    A deliberately dumb stand-in for a language model: deterministic,
    dependency-free, and good enough to exercise the filtering path.
    """

    def __init__(self, texts: Sequence[str]):
        counts: Counter[str] = Counter()
        for text in texts:
            counts.update(text.lower().split())
        self._ranked = [w for w, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]

    def top_candidates(self, words: Sequence[str], position: int, k: int) -> list[str]:
        return self._ranked[:k]


@dataclass(frozen=True)
class PerturbationRecord:
    """One single-word substitution and which side of the filter it fell on."""

    original_caption: str
    position: int
    original: str
    replacement: str
    verdict: str

    def __post_init__(self):
        if self.replacement == self.original:
            raise ValidationError(
                f"replacement must differ from the original word {self.original!r}"
            )
        if self.verdict not in VERDICTS:
            raise ValidationError(f"unknown verdict {self.verdict!r}")
        if self.position < 0:
            raise ValidationError(f"position must be >= 0, got {self.position}")

    def perturbed_caption(self) -> str:
        words = self.original_caption.split()
        if not 0 <= self.position < len(words):
            raise ValidationError(
                f"position {self.position} outside caption of {len(words)} words"
            )
        words[self.position] = self.replacement
        return " ".join(words)


def _normalize(caption: str) -> list[str]:
    words = caption.lower().split()
    if not words:
        raise ValidationError(f"cannot perturb empty caption {caption!r}")
    return words


def select_content_words(
    caption: str, tagger: PosTagger, rng: np.random.Generator, n: int = 3
) -> list[int]:
    """Up to n noun/verb positions, drawn uniformly without replacement."""
    words = _normalize(caption)
    eligible = [i for i, w in enumerate(words) if tagger.tag(w) in CONTENT_TAGS]
    if len(eligible) <= n:
        return eligible
    chosen = rng.choice(len(eligible), size=n, replace=False)
    return sorted(eligible[int(i)] for i in chosen)


def propose_replacements(
    caption: str, position: int, oracle: MaskedLMOracle, k: int = 5
) -> list[str]:
    """Top-k oracle suggestions, minus the original word, duplicates,
    and anything that is not a single token."""
    words = _normalize(caption)
    if not 0 <= position < len(words):
        raise ValidationError(
            f"position {position} outside caption of {len(words)} words"
        )
    original = words[position]
    raw = oracle.top_candidates(words, position, k + 1)
    out: list[str] = []
    for cand in raw:
        cand = cand.lower()
        if cand == original or cand in out or len(cand.split()) != 1:
            continue
        out.append(cand)
        if len(out) == k:
            break
    return out


def filter_candidate(original: str, candidate: str, lexicon: Lexicon) -> str:
    """Equivalent positive when the candidate preserves meaning per the
    lexicon, adversarial negative otherwise."""
    if lexicon.is_equivalent(original, candidate):
        return EQUIVALENT_POSITIVE
    return ADVERSARIAL_NEGATIVE


def perturb_caption(
    caption: str,
    tagger: PosTagger,
    oracle: MaskedLMOracle,
    lexicon: Lexicon,
    rng: np.random.Generator,
) -> list[PerturbationRecord]:
    """The full perturbation stream for one caption, both verdicts: up to 3
    content positions, up to 5 replacements each.

    Every proposed (position, candidate) pair appears exactly once, so
    the negative and positive streams partition the proposals.
    """
    words = _normalize(caption)
    normalized = " ".join(words)
    positions = select_content_words(normalized, tagger, rng)
    records = []
    for position in positions:
        original = words[position]
        for cand in propose_replacements(normalized, position, oracle):
            records.append(
                PerturbationRecord(
                    original_caption=normalized,
                    position=position,
                    original=original,
                    replacement=cand,
                    verdict=filter_candidate(original, cand, lexicon),
                )
            )
    return records


def save_records(records: Sequence[PerturbationRecord], path: str | Path) -> None:
    write_lines(
        path,
        (
            f"{r.original_caption}\t{r.position}\t{r.original}\t{r.replacement}\t{r.verdict}"
            for r in records
        ),
    )


def load_records(path: str | Path) -> list[PerturbationRecord]:
    records = []
    for where, line in read_lines(path):
        with parse_errors(where):
            caption, position, original, replacement, verdict = tab_fields(line, 5)
            records.append(
                PerturbationRecord(caption, int(position), original, replacement, verdict)
            )
    return records


def mini_lexicon_path() -> Path:
    return Path(__file__).parent / "data" / "mini_lexicon.tsv"


def mini_pos_tags_path() -> Path:
    return Path(__file__).parent / "data" / "mini_pos_tags.tsv"
