"""Tokenization, pair loading, and dynamic-masking behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmkt import ConfigError, ParseError, TokenizationError, ValidationError
from cmkt.corpus import (
    KEEP_ACTION,
    MASK_ACTION,
    RANDOM_ACTION,
    CaptionPair,
    MaskingPlan,
    Vocab,
    apply_masking_plan,
    detokenize,
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
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert vocab.mask_id == 2
        assert vocab.sep_id == 3

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
        again = tokenize(detokenize(first, vocab), vocab)
        assert first == again

    @given(st.lists(st.sampled_from(["girl", "dog", "apple", "runs", "FIELD"]), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_idempotence_property(self, words):
        v = Vocab.from_texts(["girl dog apple runs field"])
        first = tokenize(" ".join(words), v)
        assert tokenize(detokenize(first, v), v) == first


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


class TestMaskingPlan:
    def test_same_seed_same_plan(self, vocab):
        tokens = tokenize("a girl puts an apple in her bag", vocab)
        p1 = plan_dynamic_masking(tokens, vocab, np.random.default_rng(42))
        p2 = plan_dynamic_masking(tokens, vocab, np.random.default_rng(42))
        assert p1 == p2

    def test_different_epoch_seeds_differ(self, vocab):
        """Dynamic masking redraws the plan whenever the derived seed
        changes; over many records at a 0.15 rate collisions are
        practically impossible."""
        tokens = tokenize("the dog runs across the green field", vocab) * 3
        plans = {
            plan_dynamic_masking(tokens, vocab, np.random.default_rng(seed)).positions
            for seed in range(25)
        }
        assert len(plans) > 1

    def test_selection_rate_statistics(self, vocab):
        """Over 10^5 eligible tokens the selected fraction stays within
        [0.145, 0.155] of the 0.15 Bernoulli rate."""
        tokens = [vocab.id_of("apple")] * 100_000
        plan = plan_dynamic_masking(tokens, vocab, np.random.default_rng(42))
        frac = len(plan) / len(tokens)
        assert 0.145 <= frac <= 0.155

    def test_action_split_statistics(self, vocab):
        """Among roughly 10^5 selections the mask/keep/random fractions
        land within 0.01 of 0.8, 0.1 and 0.1."""
        tokens = [vocab.id_of("apple")] * 700_000
        plan = plan_dynamic_masking(tokens, vocab, np.random.default_rng(7))
        n = len(plan)
        assert n > 90_000
        fracs = {a: sum(1 for x in plan.actions if x == a) / n for a in set(plan.actions)}
        assert abs(fracs[MASK_ACTION] - 0.8) < 0.01
        assert abs(fracs[KEEP_ACTION] - 0.1) < 0.01
        assert abs(fracs[RANDOM_ACTION] - 0.1) < 0.01

    def test_specials_never_selected(self, vocab):
        tokens = [vocab.pad_id, vocab.mask_id, vocab.sep_id] * 1000
        plan = plan_dynamic_masking(tokens, vocab, np.random.default_rng(0))
        assert len(plan) == 0

    def test_positions_strictly_increasing_and_in_bounds(self, vocab):
        tokens = tokenize("a girl puts an apple in her bag", vocab) * 4
        plan = plan_dynamic_masking(tokens, vocab, np.random.default_rng(5))
        assert list(plan.positions) == sorted(set(plan.positions))
        assert all(0 <= p < len(tokens) for p in plan.positions)

    def test_random_replacements_are_ordinary_words(self, vocab):
        tokens = [vocab.id_of("apple")] * 5000
        plan = plan_dynamic_masking(tokens, vocab, np.random.default_rng(3))
        repls = [r for a, r in zip(plan.actions, plan.replacements) if a == RANDOM_ACTION]
        assert repls, "expected at least one random replacement at this size"
        assert all(r >= 4 for r in repls)

    def test_bad_rate_rejected(self, vocab):
        for rate in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigError):
                plan_dynamic_masking([4], vocab, np.random.default_rng(0), rate=rate)

    def test_bad_splits_rejected(self, vocab):
        with pytest.raises(ConfigError):
            plan_dynamic_masking(
                [4], vocab, np.random.default_rng(0), splits=(0.7, 0.2, 0.2)
            )

    def test_unsorted_plan_rejected(self):
        with pytest.raises(ValidationError):
            MaskingPlan((3, 1), (MASK_ACTION, MASK_ACTION), (-1, -1), (5, 6))

    def test_replacement_only_with_random_action(self):
        with pytest.raises(ValidationError):
            MaskingPlan((0,), (MASK_ACTION,), (9,), (5,))


class TestApplyMaskingPlan:
    def test_actions_take_effect(self, vocab):
        tokens = tokenize("a girl puts an apple", vocab)
        plan = MaskingPlan(
            positions=(1, 2, 4),
            actions=(MASK_ACTION, KEEP_ACTION, RANDOM_ACTION),
            replacements=(-1, -1, vocab.id_of("dog")),
            targets=(tokens[1], tokens[2], tokens[4]),
        )
        masked = apply_masking_plan(tokens, plan, vocab)
        assert masked[1] == vocab.mask_id
        assert masked[2] == tokens[2]
        assert masked[4] == vocab.id_of("dog")
        assert masked[0] == tokens[0] and masked[3] == tokens[3]

    def test_restoring_targets_recovers_original(self, vocab):
        tokens = tokenize("the dog runs across the green field", vocab)
        plan = plan_dynamic_masking(tokens, vocab, np.random.default_rng(1), rate=0.5)
        masked = apply_masking_plan(tokens, plan, vocab)
        for pos, target in zip(plan.positions, plan.targets):
            masked[pos] = target
        assert masked == tokens

    def test_original_untouched(self, vocab):
        tokens = tokenize("a girl puts an apple", vocab)
        snapshot = list(tokens)
        plan = plan_dynamic_masking(tokens, vocab, np.random.default_rng(2), rate=0.9)
        apply_masking_plan(tokens, plan, vocab)
        assert tokens == snapshot

    def test_target_mismatch_rejected(self, vocab):
        plan = MaskingPlan((0,), (MASK_ACTION,), (-1,), (999,))
        with pytest.raises(ValidationError):
            apply_masking_plan([4, 5], plan, vocab)

    def test_out_of_bounds_position_rejected(self, vocab):
        plan = MaskingPlan((5,), (MASK_ACTION,), (-1,), (4,))
        with pytest.raises(ValidationError):
            apply_masking_plan([4, 5], plan, vocab)
