"""Tokenization, pair loading, and dynamic-masking behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmkt import ConfigError, ParseError, TokenizationError, ValidationError
from cmkt.corpus import (
    ACTIONS,
    KEEP_ACTION,
    MASK_ACTION,
    PAD,
    RANDOM_ACTION,
    SEP,
    SPECIAL_IDS,
    SPECIALS,
    CaptionPair,
    Vocab,
    load_pairs,
    plan_dynamic_masking,
    save_pairs,
    tokenize,
)


@pytest.fixture
def vocab():
    texts = [
        "a girl puts an apple in her bag",
        "the dog runs across the green field",
        "a man rides a red bicycle",
    ]
    return Vocab.from_texts(texts)


class TestVocab:
    def test_specials_occupy_first_four_ids(self, vocab):
        assert [vocab.id_of(w) for w in SPECIALS] == [0, 1, 2, 3]
        assert SPECIAL_IDS == {0, 1, 2, 3}
        assert vocab.unk_id == 1
        assert vocab.mask_id == 2

    def test_roundtrip_through_file(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert len(loaded) == len(vocab)
        assert loaded.id_of("apple") == vocab.id_of("apple")

    def test_min_count_filters_rare_words(self):
        v = Vocab.from_texts(["a a a b"], min_count=2)
        assert "a" in v
        assert "b" not in v

    def test_unknown_word_maps_to_unk(self, vocab):
        assert vocab.id_of("zeppelin") == vocab.unk_id

    def test_specials_required_up_front(self):
        with pytest.raises(ValidationError):
            Vocab(["dog", "cat"])

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            Vocab(list(Vocab.from_texts(["dog"])._id_to_word) + ["dog"])

    def test_content_ids_exclude_specials(self, vocab):
        ids = vocab.content_ids()
        assert ids.min() == 4
        assert len(ids) == len(vocab) - 4


class TestTokenize:
    def test_word_count(self, vocab):
        assert len(tokenize("A girl puts an apple", vocab)) == 5

    def test_lowercases(self, vocab):
        assert tokenize("APPLE", vocab) == tokenize("apple", vocab)

    def test_unknown_becomes_unk(self, vocab):
        assert tokenize("zeppelin", vocab) == [vocab.unk_id]

    def test_truncation(self, vocab):
        text = " ".join(["apple"] * 25)
        assert len(tokenize(text, vocab, max_len=20)) == 20

    def test_empty_rejected(self, vocab):
        with pytest.raises(TokenizationError):
            tokenize("   ", vocab)

    def test_idempotent_after_detokenize(self, vocab):
        """Tokenizing the joined surface form of a tokenization changes
        nothing: the tokenizer is already in normal form."""
        first = tokenize("The DOG runs across a zeppelin", vocab)
        again = tokenize(" ".join(vocab.word_of(t) for t in first), vocab)
        assert first == again

    @given(st.lists(st.sampled_from(["girl", "dog", "apple", "runs", "FIELD"]), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_idempotence_property(self, words):
        v = Vocab.from_texts(["girl dog apple runs field"])
        first = tokenize(" ".join(words), v)
        assert tokenize(" ".join(v.word_of(t) for t in first), v) == first


class TestPairsFile:
    def test_roundtrip(self, tmp_path):
        pairs = [
            CaptionPair("img0", "a girl puts an apple", "train"),
            CaptionPair("img0", "a child places fruit", "train"),
            CaptionPair("img1", "the dog runs", "dev"),
        ]
        path = tmp_path / "pairs.tsv"
        save_pairs(pairs, path)
        assert load_pairs(path) == pairs

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("")
        assert load_pairs(path) == []

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("b\tsecond image\ttrain\na\tfirst image\ttrain\n")
        assert [p.image_id for p in load_pairs(path)] == ["b", "a"]

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("img0\ta caption\ttrain\nimg1\tno split field\n")
        with pytest.raises(ParseError, match=r"pairs\.tsv:2: "):
            load_pairs(path)

    def test_empty_caption_names_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("img0\t\ttrain\n")
        with pytest.raises(ParseError, match=r"pairs\.tsv:1: "):
            load_pairs(path)

    def test_bad_split_names_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("img0\ta caption\ttest\n")
        with pytest.raises(ParseError, match=r"pairs\.tsv:1: "):
            load_pairs(path)

    def test_duplicate_image_caption_allowed(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("img0\tsame caption\ttrain\nimg0\tsame caption\ttrain\n")
        assert len(load_pairs(path)) == 2

    def test_empty_caption_pair_rejected_directly(self):
        with pytest.raises(ValidationError):
            CaptionPair("img0", "   ")


def pad(seqs):
    """A left-aligned, pad-0 batch of token-id sequences."""
    batch = np.zeros((len(seqs), max(map(len, seqs))), dtype=np.int64)
    for row, seq in enumerate(seqs):
        batch[row, : len(seq)] = seq
    return batch


def plan(tokens, vocab, seed, **kwargs):
    return plan_dynamic_masking(tokens, vocab, np.random.default_rng(seed), **kwargs)


class TestMaskingPlan:
    def test_same_seed_same_plan(self, vocab):
        tokens = pad([tokenize("a girl puts an apple in her bag", vocab)] * 3)
        for a, b in zip(plan(tokens, vocab, 42), plan(tokens, vocab, 42), strict=True):
            np.testing.assert_array_equal(a, b)

    def test_different_epoch_seeds_differ(self, vocab):
        """Dynamic masking redraws the plan whenever the derived seed
        changes; over many records at a 0.15 rate collisions are
        practically impossible."""
        tokens = pad([tokenize("the dog runs across the green field", vocab) * 3])
        plans = {plan(tokens, vocab, seed)[1].tobytes() for seed in range(25)}
        assert len(plans) > 1

    def test_selection_rate_statistics(self, vocab):
        """Over 10^5 eligible tokens the selected fraction stays within
        [0.145, 0.155] of the 0.15 Bernoulli rate."""
        tokens = np.full((1000, 100), vocab.id_of("apple"))
        _, selected, _ = plan(tokens, vocab, 42)
        frac = selected.sum() / tokens.size
        assert 0.145 <= frac <= 0.155

    def test_action_split_statistics(self, vocab):
        """Among roughly 10^5 selections the mask/keep/random fractions
        land within 0.01 of 0.8, 0.1 and 0.1."""
        tokens = np.full((7000, 100), vocab.id_of("apple"))
        _, _, actions = plan(tokens, vocab, 7)
        n = len(actions)
        assert n > 90_000
        fracs = dict(zip(ACTIONS, np.bincount(actions, minlength=3) / n))
        assert abs(fracs[MASK_ACTION] - 0.8) < 0.01
        assert abs(fracs[KEEP_ACTION] - 0.1) < 0.01
        assert abs(fracs[RANDOM_ACTION] - 0.1) < 0.01

    def test_specials_never_selected(self, vocab):
        tokens = np.array([[vocab.id_of(PAD), vocab.mask_id, vocab.id_of(SEP)] * 1000])
        masked, selected, actions = plan(tokens, vocab, 0)
        assert not selected.any() and len(actions) == 0
        np.testing.assert_array_equal(masked, tokens)

    def test_positions_strictly_increasing_and_in_bounds(self, vocab):
        """The selection has the batch's shape and never lands on padding;
        actions follow the selected cells in row-major order."""
        short = tokenize("a man rides", vocab)
        tokens = pad([short, tokenize("a girl puts an apple in her bag", vocab) * 4, short])
        masked, selected, actions = plan(tokens, vocab, 5, rate=0.5)
        assert selected.shape == tokens.shape
        assert not selected[tokens == vocab.id_of(PAD)].any()
        assert len(actions) == selected.sum()
        is_masked = masked[selected] == vocab.mask_id
        np.testing.assert_array_equal(is_masked, actions == ACTIONS.index(MASK_ACTION))

    def test_random_replacements_are_ordinary_words(self, vocab):
        tokens = np.full((50, 100), vocab.id_of("apple"))
        masked, selected, actions = plan(tokens, vocab, 3)
        repls = masked[selected][actions == ACTIONS.index(RANDOM_ACTION)]
        assert repls.size, "expected at least one random replacement at this size"
        assert np.all(repls >= 4)

    def test_bad_rate_rejected(self, vocab):
        for rate in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigError):
                plan(pad([[4]]), vocab, 0, rate=rate)

    def test_bad_splits_rejected(self, vocab):
        with pytest.raises(ConfigError):
            plan(pad([[4]]), vocab, 0, splits=(0.7, 0.2, 0.2))

    def test_replacement_only_with_random_action(self, vocab):
        """Only random actions put an ordinary word other than the original
        in a selected cell; only mask actions put the mask id there."""
        tokens = pad([tokenize("a girl puts an apple in her bag", vocab) * 50])
        masked, selected, actions = plan(tokens, vocab, 11, rate=0.5)
        picked, original = masked[selected], tokens[selected]
        changed_word = (picked != original) & (picked != vocab.mask_id)
        assert changed_word.any()
        assert np.all(actions[changed_word] == ACTIONS.index(RANDOM_ACTION))
        assert np.all(actions[picked == vocab.mask_id] == ACTIONS.index(MASK_ACTION))


    def test_matches_cell_by_cell_reference(self, vocab):
        """The planner equals a cell-by-cell loop over the same three draws:
        selection uniforms for every cell, then one action uniform per
        selected cell in row-major order, then the random content ids."""
        tokens = pad([tokenize("a girl puts an apple in her bag", vocab),
                      tokenize("a man rides", vocab) + [vocab.id_of(SEP), vocab.unk_id]] * 20)
        masked, selected, actions = plan(tokens, vocab, 8, rate=0.3)

        rng = np.random.default_rng(8)
        u_select = rng.random(tokens.shape)
        cells = [(i, j) for i in range(tokens.shape[0]) for j in range(tokens.shape[1])
                 if tokens[i, j] not in SPECIAL_IDS and u_select[i, j] < 0.3]
        codes = [0 if u < 0.8 else 1 if u < 0.8 + 0.1 else 2 for u in rng.random(len(cells))]
        random_ids = iter(vocab.content_ids()[rng.integers(len(vocab.content_ids()),
                                                           size=codes.count(2))])
        want = tokens.copy()
        for (i, j), code in zip(cells, codes):
            if code == 0:
                want[i, j] = vocab.mask_id
            elif code == 2:
                want[i, j] = next(random_ids)
        np.testing.assert_array_equal(masked, want)
        np.testing.assert_array_equal(np.argwhere(selected), cells)
        np.testing.assert_array_equal(actions, codes)


class TestApplyMaskingPlan:
    """The masked copy the planner returns."""

    def test_actions_take_effect(self, vocab):
        tokens = pad([tokenize("a girl puts an apple", vocab) * 20])
        masked, selected, actions = plan(tokens, vocab, 4, rate=0.5)
        picked, original = masked[selected], tokens[selected]
        by_action = dict(zip(ACTIONS, range(3)))
        assert np.all(picked[actions == by_action[MASK_ACTION]] == vocab.mask_id)
        np.testing.assert_array_equal(picked[actions == by_action[KEEP_ACTION]],
                                      original[actions == by_action[KEEP_ACTION]])
        assert np.all(picked[actions == by_action[RANDOM_ACTION]] >= 4)
        np.testing.assert_array_equal(masked[~selected], tokens[~selected])

    def test_restoring_targets_recovers_original(self, vocab):
        tokens = pad([tokenize("the dog runs across the green field", vocab),
                      tokenize("a man rides", vocab)])
        masked, selected, _ = plan(tokens, vocab, 1, rate=0.5)
        masked[selected] = tokens[selected]
        np.testing.assert_array_equal(masked, tokens)

    def test_original_untouched(self, vocab):
        tokens = pad([tokenize("a girl puts an apple", vocab)])
        snapshot = tokens.copy()
        plan(tokens, vocab, 2, rate=0.9)
        np.testing.assert_array_equal(tokens, snapshot)
