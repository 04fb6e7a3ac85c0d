"""Perturbation pipeline: lexicon, tagging, oracles, and the ANS/PSA split."""

import tracemalloc

import numpy as np
import pytest

from cmkt import ParseError, ValidationError
from cmkt.perturbation import (
    ADVERSARIAL_NEGATIVE,
    EQUIVALENT_POSITIVE,
    VERDICTS,
    FrequencyOracle,
    Lexicon,
    MockOracle,
    PerturbationRecord,
    PosTagger,
    filter_candidate,
    load_records,
    mini_lexicon_path,
    mini_pos_tags_path,
    perturb_caption,
    propose_replacements,
    save_records,
    select_content_words,
)

import oracles

FIG_CAPTION = "A girl puts an apple in her bag"


def lexicon_words() -> list[str]:
    """Every word of the mini lexicon, read from the file itself."""
    lines = mini_lexicon_path().read_text(encoding="utf-8").splitlines()
    return sorted({word for line in lines for word in line.split("\t")[::2]})


@pytest.fixture
def lexicon():
    return Lexicon.load(mini_lexicon_path())


@pytest.fixture
def tagger():
    return PosTagger.load(mini_pos_tags_path())


class TestLexicon:
    def test_synonyms_symmetric(self, lexicon):
        assert "bike" in lexicon.synonyms("bicycle")
        assert "bicycle" in lexicon.synonyms("bike")

    def test_hypernyms_transitive(self, lexicon):
        """apple -> fruit -> food: both ancestors are reachable."""
        ups = lexicon.hypernyms("apple")
        assert "fruit" in ups and "food" in ups

    def test_hypernyms_directional(self, lexicon):
        assert "person" in lexicon.hypernyms("girl")
        assert "girl" not in lexicon.hypernyms("person")

    def test_equivalence_cases(self, lexicon):
        assert lexicon.is_equivalent("girl", "woman")
        assert lexicon.is_equivalent("girl", "person")
        assert lexicon.is_equivalent("bicycle", "bike")
        assert not lexicon.is_equivalent("girl", "boy")
        assert not lexicon.is_equivalent("woman", "girl")

    def test_unknown_words_unrelated(self, lexicon):
        assert not lexicon.is_equivalent("zeppelin", "balloon")

    def test_roundtrip(self, lexicon, tmp_path):
        path = tmp_path / "lex.tsv"
        lexicon.save(path)
        again = Lexicon.load(path)
        for w in lexicon_words():
            assert again.synonyms(w) == lexicon.synonyms(w)
            assert again.hypernyms(w) == lexicon.hypernyms(w)

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            Lexicon([], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_self_relation_rejected(self):
        with pytest.raises(ValidationError):
            Lexicon([("dog", "dog")], [])
        with pytest.raises(ValidationError):
            Lexicon([], [("dog", "dog")])

    def test_bad_relation_named_with_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("dog\tsyn\thound\ncat\tantonym\tdog\n")
        with pytest.raises(ParseError, match=r"lex\.tsv:2: "):
            Lexicon.load(path)

    def test_filter_matches_exhaustive_walk(self, lexicon):
        """Library verdicts agree with a from-scratch file walk over the
        full fixture vocabulary."""
        words = lexicon_words()
        for original in words:
            for candidate in words:
                if candidate == original:
                    continue
                expected = oracles.lexicon_walk_equivalent(
                    mini_lexicon_path(), original, candidate
                )
                got = filter_candidate(original, candidate, lexicon)
                assert (got == EQUIVALENT_POSITIVE) == expected, (original, candidate)


class TestPosTagger:
    def test_known_tags(self, tagger):
        assert tagger.tag("girl") == "noun"
        assert tagger.tag("puts") == "verb"

    def test_unknown_is_other(self, tagger):
        assert tagger.tag("the") == "other"

    def test_case_insensitive(self, tagger):
        assert tagger.tag("GIRL") == "noun"

    def test_roundtrip(self, tagger, tmp_path):
        path = tmp_path / "tags.tsv"
        tagger.save(path)
        assert PosTagger.load(path).tag("apple") == "noun"

    def test_bad_tag_rejected(self):
        with pytest.raises(ValidationError):
            PosTagger({"dog": "adjective"})


class TestSelectContentWords:
    def test_eligible_positions(self, tagger):
        """girl, puts, apple, bag are the only noun/verb words; three of
        their positions come back."""
        rng = np.random.default_rng(42)
        picked = select_content_words(FIG_CAPTION, tagger, rng, n=3)
        assert len(picked) == 3
        assert set(picked) <= {1, 2, 4, 7}

    def test_all_returned_when_few(self, tagger):
        rng = np.random.default_rng(42)
        assert select_content_words("a girl puts", tagger, rng, n=3) == [1, 2]

    def test_stopwords_only_empty(self, tagger):
        rng = np.random.default_rng(42)
        assert select_content_words("in her the an", tagger, rng, n=3) == []

    def test_deterministic(self, tagger):
        a = select_content_words(FIG_CAPTION, tagger, np.random.default_rng(9), n=3)
        b = select_content_words(FIG_CAPTION, tagger, np.random.default_rng(9), n=3)
        assert a == b

    def test_seeds_vary_choice(self, tagger):
        picks = {
            tuple(select_content_words(FIG_CAPTION, tagger, np.random.default_rng(s), n=3))
            for s in range(20)
        }
        assert len(picks) > 1

    def test_positions_sorted(self, tagger):
        for s in range(10):
            picked = select_content_words(FIG_CAPTION, tagger, np.random.default_rng(s), n=3)
            assert picked == sorted(picked)


class TestProposeReplacements:
    def test_mock_passthrough(self):
        oracle = MockOracle({"girl": ["woman", "boy", "dog", "cat", "man"]})
        out = propose_replacements("a girl runs", 1, oracle, k=5)
        assert out == ["woman", "boy", "dog", "cat", "man"]

    def test_original_word_skipped(self):
        oracle = MockOracle({"girl": ["girl", "woman", "boy", "dog", "cat", "man"]})
        out = propose_replacements("a girl runs", 1, oracle, k=5)
        assert out == ["woman", "boy", "dog", "cat", "man"]

    def test_small_vocabulary_exhausted(self):
        oracle = MockOracle({"girl": ["woman", "boy"]})
        assert propose_replacements("a girl runs", 1, oracle, k=5) == ["woman", "boy"]

    def test_duplicates_dropped(self):
        oracle = MockOracle({"girl": ["woman", "woman", "boy"]})
        assert propose_replacements("a girl runs", 1, oracle, k=5) == ["woman", "boy"]

    def test_multiword_candidates_skipped(self):
        oracle = MockOracle({"girl": ["young lady", "woman"]})
        assert propose_replacements("a girl runs", 1, oracle, k=5) == ["woman"]

    def test_bad_position_rejected(self):
        oracle = MockOracle({})
        with pytest.raises(ValidationError):
            propose_replacements("a girl runs", 7, oracle, k=5)


class TestOracles:
    def test_frequency_oracle_ranking(self):
        oracle = FrequencyOracle(["dog dog dog cat cat bird", "cat ant"])
        assert oracle.top_candidates(["x"], 0, 3) == ["cat", "dog", "ant"]


class TestPerturbCaption:
    def full_oracle(self):
        return MockOracle(
            {
                "girl": ["woman", "boy", "dog", "cat", "man"],
                "puts": ["places", "holds", "carries", "eats", "rides"],
                "apple": ["fruit", "dog", "cat", "car", "bag"],
                "bag": ["container", "car", "dog", "sofa", "couch"],
            }
        )

    def test_partition_invariant(self, tagger, lexicon):
        records = perturb_caption(
            FIG_CAPTION, tagger, self.full_oracle(), lexicon,
            np.random.default_rng(42),
        )
        keys = [(r.position, r.replacement) for r in records]
        assert len(keys) == len(set(keys))
        verdicts = [r.verdict for r in records]
        assert verdicts.count(ADVERSARIAL_NEGATIVE) + verdicts.count(
            EQUIVALENT_POSITIVE
        ) == len(records)

    def test_single_edit_invariant(self, tagger, lexicon):
        records = perturb_caption(
            FIG_CAPTION, tagger, self.full_oracle(), lexicon,
            np.random.default_rng(42),
        )
        original = FIG_CAPTION.lower().split()
        for r in records:
            edited = r.perturbed_caption().split()
            assert len(edited) == len(original)
            assert sum(a != b for a, b in zip(original, edited)) == 1

    def test_known_verdicts(self, tagger, lexicon):
        """girl->woman is a hypernym (positive); girl->boy is not
        (negative); puts->places is a synonym (positive)."""
        records = perturb_caption(
            FIG_CAPTION, tagger, self.full_oracle(), lexicon,
            np.random.default_rng(42),
        )
        verdicts = {(r.original, r.replacement): r.verdict for r in records}
        if ("girl", "woman") in verdicts:
            assert verdicts[("girl", "woman")] == EQUIVALENT_POSITIVE
        if ("girl", "boy") in verdicts:
            assert verdicts[("girl", "boy")] == ADVERSARIAL_NEGATIVE
        if ("puts", "places") in verdicts:
            assert verdicts[("puts", "places")] == EQUIVALENT_POSITIVE

    def test_full_grid_when_nothing_filtered(self, tagger, lexicon):
        """Three positions, five unrelated candidates each: all fifteen
        proposals are adversarial negatives."""
        oracle = MockOracle(
            {
                "girl": ["boy", "dog", "cat", "man", "car"],
                "puts": ["holds", "carries", "eats", "rides", "moves"],
                "apple": ["dog", "cat", "car", "man", "boy"],
            }
        )
        records = perturb_caption("a girl puts an apple", tagger, oracle, lexicon,
                                  np.random.default_rng(42))
        verdicts = [r.verdict for r in records]
        assert verdicts.count(ADVERSARIAL_NEGATIVE) == 15
        assert verdicts.count(EQUIVALENT_POSITIVE) == 0

    def test_all_filtered_gives_empty_ans(self, tagger, lexicon):
        oracle = MockOracle({"girl": ["woman", "female", "person"]})
        records = perturb_caption("a girl sits", tagger, oracle, lexicon,
                                  np.random.default_rng(42))
        assert [r for r in records if r.verdict == ADVERSARIAL_NEGATIVE] == []

    def test_deterministic_end_to_end(self, tagger, lexicon):
        runs = [
            perturb_caption(FIG_CAPTION, tagger, self.full_oracle(), lexicon,
                            np.random.default_rng(7))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_count_bounded(self, tagger, lexicon):
        records = perturb_caption(
            FIG_CAPTION, tagger, self.full_oracle(), lexicon,
            np.random.default_rng(42),
        )
        assert len(records) <= 3 * 5


class TestRecords:
    def test_roundtrip(self, tmp_path):
        records = [
            PerturbationRecord("a girl runs", 1, "girl", "boy", ADVERSARIAL_NEGATIVE),
            PerturbationRecord("a girl runs", 1, "girl", "woman", EQUIVALENT_POSITIVE),
        ]
        path = tmp_path / "perturb.tsv"
        save_records(records, path)
        assert load_records(path) == records

    def test_loaded_records_share_their_strings(self, tmp_path):
        """An ANS file, 15 records per caption over a small vocabulary,
        loads into at most 128 bytes per record under ``tracemalloc``
        (slotted records that share each repeated string hold about 88;
        private copies and a per-record ``__dict__`` held about 400)."""
        rng = np.random.default_rng(0)
        words = [f"word{i}" for i in range(40)]
        records = []
        for index in range(256):
            caption = " ".join(["a", *rng.choice(words, size=6), f"scene{index}"])
            split = caption.split()
            for position in (1, 3, 5):
                for replacement in rng.choice(words, size=5, replace=False):
                    if replacement == split[position]:
                        replacement = "other"
                    records.append(PerturbationRecord(
                        caption, position, split[position], str(replacement),
                        VERDICTS[int(rng.integers(2))]))
        path = tmp_path / "perturb.tsv"
        save_records(records, path)
        load_records(path)  # first-use allocations land outside the measurement
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loaded = load_records(path)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert loaded == records
        assert held <= 128 * len(records)
        for first in range(0, len(loaded), 15):
            assert len({id(r.original_caption) for r in loaded[first:first + 15]}) == 1

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "perturb.tsv"
        save_records([], path)
        assert load_records(path) == []

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "perturb.tsv"
        path.write_text("a girl runs\t1\tgirl\tboy\n")
        with pytest.raises(ParseError, match=r"perturb\.tsv:1: "):
            load_records(path)

    def test_bad_verdict_reported(self, tmp_path):
        path = tmp_path / "perturb.tsv"
        path.write_text("a girl runs\t1\tgirl\tboy\tmaybe\n")
        with pytest.raises(ParseError, match=r"perturb\.tsv:1: "):
            load_records(path)

    def test_identity_replacement_rejected(self):
        with pytest.raises(ValidationError):
            PerturbationRecord("a girl runs", 1, "girl", "girl", ADVERSARIAL_NEGATIVE)

    def test_perturbed_caption(self):
        r = PerturbationRecord("a girl runs", 1, "girl", "boy", ADVERSARIAL_NEGATIVE)
        assert r.perturbed_caption() == "a boy runs"
