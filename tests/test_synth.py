"""Synthetic world generator tests: determinism, artifact coherence, and
the latent-attribute grounding of every emitted file."""

import json
import re
from collections import Counter

import numpy as np
import pytest

from cmkt.corpus import SPECIALS, tokenize
from cmkt.errors import ConfigError, ParseError
from cmkt.perturbation import NOUN, OTHER, VERB, perturb_caption
from cmkt.seeding import rng_for
from cmkt.synth import (
    ACTIONS,
    ARTIFACT_OBJECTS,
    ATTRIBUTE_TABLES,
    COLORS,
    FEATURE_DIM,
    FILLERS,
    LIVING_OBJECTS,
    MCQA_QUESTION,
    OBJECTS,
    SCENE_SPACE,
    Scene,
    SynthConfig,
    _scene_with_overlap,
    generate_world,
    image_feature,
    load_oracle_table,
    load_world,
    render_caption,
    save_oracle_table,
    save_world,
    scene_from_index,
)

WORD_TO_OBJECT = {
    word: idx for idx, pair in enumerate(OBJECTS) for word in pair
}


@pytest.fixture(scope="module")
def world():
    return generate_world(SynthConfig())


class TestConfig:
    def test_defaults_fit_scene_space(self):
        cfg = SynthConfig()
        assert cfg.n_train_pairs + cfg.n_retrieval <= SCENE_SPACE

    def test_rejects_overcommitted_scenes(self):
        with pytest.raises(ConfigError, match="scene space"):
            SynthConfig(n_train_pairs=SCENE_SPACE, n_retrieval=1)

    @pytest.mark.parametrize("field", [
        "n_train_pairs", "n_retrieval", "mcqa_train", "mcqa_dev",
        "mcqa_test", "similarity_pairs",
    ])
    def test_rejects_nonpositive_counts(self, field):
        with pytest.raises(ConfigError):
            SynthConfig(**{field: 0})

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigError):
            SynthConfig(noise=-0.1)


class TestScenes:
    def test_index_roundtrip_covers_space(self):
        seen = set()
        for i in range(SCENE_SPACE):
            seen.add(scene_from_index(i).values)
        assert len(seen) == SCENE_SPACE

    def test_index_out_of_range(self):
        with pytest.raises(ConfigError):
            scene_from_index(SCENE_SPACE)

    def test_scene_with_overlap_shares_exactly_that_many_attributes(self):
        scene = Scene(color=1, object=2, action=3)
        for overlap in range(4):
            for draw in range(8):
                other = _scene_with_overlap(scene, overlap, rng_for(0, "overlap", overlap, draw))
                assert sum(a == b for a, b in zip(scene.values, other.values)) == overlap

    def test_bad_attribute_rejected(self):
        with pytest.raises(ConfigError):
            Scene(color=len(COLORS), object=0, action=0)


class TestRendering:
    def test_template_shape(self):
        rng = rng_for(0, "t")
        for _ in range(20):
            scene = scene_from_index(int(rng.integers(SCENE_SPACE)))
            words = render_caption(scene, rng).split()
            assert len(words) == 5
            assert words[0] == "the"
            assert words[1] in COLORS[scene.color]
            assert words[2] in OBJECTS[scene.object]
            assert words[3] in ACTIONS[scene.action]
            assert words[4] in FILLERS

    def test_alias_forcing(self):
        scene = Scene(color=0, object=0, action=0)
        rng = rng_for(0, "t")
        primary = render_caption(scene, rng, alias=0).split()
        secondary = render_caption(scene, rng, alias=1).split()
        assert primary[1:4] == ["red", "cat", "runs"]
        assert secondary[1:4] == ["scarlet", "kitten", "dashes"]

    def test_feature_is_exact_one_hot_without_noise(self):
        scene = Scene(color=2, object=4, action=1)
        vec = image_feature(scene, rng_for(0, "f"), noise=0.0)
        assert vec.shape == (FEATURE_DIM,)
        hot = np.flatnonzero(vec)
        assert list(hot) == [
            2,
            len(COLORS) + 4,
            len(COLORS) + len(OBJECTS) + 1,
            len(COLORS) + len(OBJECTS) + len(ACTIONS) + 1,  # artifact bit
        ]

    def test_category_bit_tracks_livingness(self):
        base = len(COLORS) + len(OBJECTS) + len(ACTIONS)
        for obj in LIVING_OBJECTS:
            vec = image_feature(Scene(0, obj, 0), rng_for(0, "f"), noise=0.0)
            assert vec[base] == 1.0 and vec[base + 1] == 0.0
        for obj in ARTIFACT_OBJECTS:
            vec = image_feature(Scene(0, obj, 0), rng_for(0, "f"), noise=0.0)
            assert vec[base] == 0.0 and vec[base + 1] == 1.0

    def test_object_partition(self):
        assert sorted(LIVING_OBJECTS + ARTIFACT_OBJECTS) == list(range(len(OBJECTS)))


class TestWorldDeterminism:
    def test_equal_configs_equal_artifacts(self, world):
        other = generate_world(SynthConfig())
        assert [p.caption for p in other.pairs] == [p.caption for p in world.pairs]
        assert other.bank._ids == world.bank._ids
        assert np.array_equal(other.bank._features, world.bank._features)
        assert other.mcqa.items == world.mcqa.items
        assert other.similarity == world.similarity
        assert other.oracle_table == world.oracle_table

    def test_different_seed_differs(self, world):
        other = generate_world(SynthConfig(seed=1))
        assert [p.caption for p in other.pairs] != [p.caption for p in world.pairs]


class TestPairsAndBank:
    def test_split_counts(self, world):
        counts = Counter(p.split for p in world.pairs)
        assert counts["train"] == world.config.n_train_pairs
        assert counts["dev"] == world.config.n_retrieval

    def test_every_pair_has_features(self, world):
        for pair in world.pairs:
            assert pair.image_id in world.bank

    def test_image_ids_unique(self, world):
        ids = [p.image_id for p in world.pairs]
        assert len(set(ids)) == len(ids)

    def test_feature_dim(self, world):
        assert world.bank.dim == FEATURE_DIM

    def test_captions_tokenize_without_unknowns(self, world):
        unk = world.vocab.unk_id
        for pair in world.pairs:
            assert unk not in tokenize(pair.caption, world.vocab)


class TestLexiconAndTags:
    def test_aliases_equivalent_both_ways(self, world):
        for table in ATTRIBUTE_TABLES:
            for a, b in table:
                assert world.lexicon.is_equivalent(a, b)
                assert world.lexicon.is_equivalent(b, a)

    def test_cross_value_words_not_equivalent(self, world):
        assert not world.lexicon.is_equivalent("red", "blue")
        assert not world.lexicon.is_equivalent("cat", "dog")
        assert not world.lexicon.is_equivalent("scarlet", "azure")

    def test_tags_cover_whole_vocabulary(self, world):
        for table, expected in ((COLORS, NOUN), (OBJECTS, NOUN), (ACTIONS, VERB)):
            for pair in table:
                for word in pair:
                    assert world.tagger.tag(word) == expected
        for word in ("the", *FILLERS, *MCQA_QUESTION.split()):
            assert world.tagger.tag(word) == OTHER


class TestOracleTable:
    def test_partner_alias_listed_first(self, world):
        for table in ATTRIBUTE_TABLES:
            for a, b in table:
                assert world.oracle_table[a][0] == b
                assert world.oracle_table[b][0] == a

    def test_candidates_stay_within_type(self, world):
        for table in ATTRIBUTE_TABLES:
            type_words = {w for pair in table for w in pair}
            for pair in table:
                for word in pair:
                    assert set(world.oracle_table[word]) <= type_words

    def test_no_self_candidates(self, world):
        for word, candidates in world.oracle_table.items():
            assert word not in candidates

    def test_tsv_roundtrip(self, world, tmp_path):
        path = tmp_path / "oracle.tsv"
        save_oracle_table(world.oracle_table, path)
        assert load_oracle_table(path) == world.oracle_table

    def test_load_rejects_bare_word(self, tmp_path):
        path = tmp_path / "oracle.tsv"
        path.write_text("lonely\n")
        with pytest.raises(ParseError, match=":1:"):
            load_oracle_table(path)

    def test_load_rejects_duplicate(self, tmp_path):
        path = tmp_path / "oracle.tsv"
        path.write_text("red\tscarlet\nred\tblue\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_oracle_table(path)


class TestPerturbationIntegration:
    def test_each_caption_yields_full_record_set(self, world):
        records = perturb_caption(
            world.pairs[0].caption, world.tagger, world.oracle,
            world.lexicon, rng_for(0, "p"),
        )
        verdicts = Counter(r.verdict for r in records)
        assert len(records) == 15
        assert verdicts["equivalent_positive"] == 3
        assert verdicts["adversarial_negative"] == 12


class TestMCQA:
    def test_four_choices_everywhere(self, world):
        assert world.mcqa.n_choices == 4

    def test_split_counts(self, world):
        cfg = world.config
        assert len(world.mcqa.split("train")) == cfg.mcqa_train
        assert len(world.mcqa.split("dev")) == cfg.mcqa_dev
        assert len(world.mcqa.split("test")) == cfg.mcqa_test

    def test_question_constant(self, world):
        assert {i.question for i in world.mcqa.items} == {MCQA_QUESTION}

    def test_gold_choice_names_living_thing(self, world):
        for item in world.mcqa.items:
            for idx, choice in enumerate(item.choices):
                obj = WORD_TO_OBJECT[choice.split()[2]]
                if idx == item.gold:
                    assert obj in LIVING_OBJECTS
                else:
                    assert obj in ARTIFACT_OBJECTS

    def test_train_and_eval_surfaces_disjoint(self, world):
        """Train items use primary aliases, dev/test secondary, so no
        content word is shared between the regimes."""
        def content_words(items):
            words = set()
            for item in items:
                for choice in item.choices:
                    words.update(choice.split()[1:4])
            return words

        train_words = content_words(world.mcqa.split("train"))
        eval_words = content_words(
            world.mcqa.split("dev") + world.mcqa.split("test")
        )
        assert train_words.isdisjoint(eval_words)

    def test_gold_positions_vary(self, world):
        positions = Counter(i.gold for i in world.mcqa.split("test"))
        assert set(positions) == {0, 1, 2, 3}


class TestSimilaritySet:
    def test_count(self, world):
        assert len(world.similarity) == world.config.similarity_pairs

    def test_gold_levels(self, world):
        scores = {round(s, 6) for _, _, s in world.similarity}
        assert scores == {0.0, round(1 / 3, 6), round(2 / 3, 6), 1.0}

    def test_full_overlap_pairs_are_paraphrases(self, world):
        for left, right, score in world.similarity:
            if score == 1.0:
                assert left != right

    def test_sentences_tokenize_in_vocab(self, world):
        unk = world.vocab.unk_id
        for left, right, _ in world.similarity:
            assert unk not in tokenize(left, world.vocab)
            assert unk not in tokenize(right, world.vocab)


class TestPersistence:
    def test_roundtrip(self, world, tmp_path):
        save_world(world, tmp_path / "w")
        back = load_world(tmp_path / "w")
        assert back.config == world.config
        assert [(p.image_id, p.caption, p.split) for p in back.pairs] == [
            (p.image_id, p.caption, p.split) for p in world.pairs
        ]
        assert back.bank._ids == world.bank._ids
        assert np.allclose(back.bank._features, world.bank._features)
        assert back.mcqa.items == world.mcqa.items
        assert back.similarity == world.similarity
        assert back.oracle_table == world.oracle_table
        assert [back.vocab.word_of(i) for i in range(len(back.vocab))] == [
            world.vocab.word_of(i) for i in range(len(world.vocab))
        ]

    def test_save_twice_byte_identical(self, world, tmp_path):
        a = save_world(world, tmp_path / "a")
        b = save_world(world, tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes(), key

    @pytest.mark.parametrize("fields", [{"n_train_pairs": 2.6}, {"seed": True},
                                        {"noise": float("nan")}, {"noise": float("inf")}])
    def test_load_rejects_wrongly_typed_world_config(self, world, tmp_path, fields):
        paths = save_world(world, tmp_path / "w")
        config = json.loads(paths["config"].read_text())
        paths["config"].write_text(json.dumps({**config, **fields}))
        with pytest.raises(ParseError, match=re.escape(f"{paths['config']}: ")):
            load_world(tmp_path / "w")

    def test_load_rejects_non_world_dir(self, tmp_path):
        with pytest.raises(ParseError, match="not a generated world"):
            load_world(tmp_path)


class TestVocabCoverage:
    def test_specials_lead(self, world):
        leading = tuple(world.vocab.word_of(i) for i in range(len(SPECIALS)))
        assert leading == SPECIALS

    def test_mcqa_text_covered(self, world):
        unk = world.vocab.unk_id
        for item in world.mcqa.items:
            assert unk not in tokenize(item.question, world.vocab)
            for choice in item.choices:
                assert unk not in tokenize(choice, world.vocab)

    def test_oracle_candidates_covered(self, world):
        for word, candidates in world.oracle_table.items():
            assert world.vocab.id_of(word) != world.vocab.unk_id
            for cand in candidates:
                assert world.vocab.id_of(cand) != world.vocab.unk_id
