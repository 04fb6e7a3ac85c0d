"""Trainer tests: method composition, loop bookkeeping, determinism,
voken assignment, and the held-out similarity and loss-log files."""

import argparse
import dataclasses
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from cmkt import (
    ConfigError,
    DistillSpec,
    DomainError,
    MethodSpec,
    ParseError,
    PretrainConfig,
    ShapeError,
    TeacherSpec,
    TrainingData,
    TrainingError,
    assign_vokens,
    build_voken_bank,
    derive_seed,
    distill,
    load_similarity_set,
    pretrain,
    read_loss_log,
    restore_text_encoder,
    save_checkpoint,
    save_similarity_set,
    tcl_loss,
    train_teacher,
    write_loss_log,
)
from cmkt import training as training_module
from cmkt.cli import _read_config
from cmkt.corpus import CaptionPair, Vocab, plan_dynamic_masking, tokenize
from cmkt.encoders import FeatureBank, ImageEncoder, TextEncoder
from cmkt.evaluation import FinetuneConfig, MCQADataset, MCQAItem, finetune
from cmkt.parallel import map_forked
from cmkt.perturbation import (
    ADVERSARIAL_NEGATIVE,
    EQUIVALENT_POSITIVE,
    PerturbationRecord,
)
from cmkt.seeding import rng_for
from cmkt.training import (
    assemble_records,
    mlm_batch_step,
    run_training_loop,
)

PAIR_ROWS = [
    ("img00", "a red block on the table", "train"),
    ("img01", "a blue ball under the chair", "train"),
    ("img02", "a green cup near the window", "train"),
    ("img03", "a small dog beside the door", "train"),
    ("img04", "a black cat on the mat", "train"),
    ("img05", "a tall lamp near the sofa", "train"),
    ("img06", "a round clock above the shelf", "train"),
    ("img07", "a white bird inside the cage", "train"),
    ("img08", "a heavy book under the desk", "train"),
    ("img09", "a long rope behind the shed", "train"),
    ("img10", "a grey mouse under the floor", "dev"),
    ("img11", "a pink shell beside the pond", "dev"),
]

PERTURBATIONS = [
    PerturbationRecord(
        "a red block on the table", 1, "red", "blue", ADVERSARIAL_NEGATIVE
    ),
    PerturbationRecord(
        "a red block on the table", 2, "block", "cup", ADVERSARIAL_NEGATIVE
    ),
    PerturbationRecord(
        "a red block on the table", 1, "red", "crimson", EQUIVALENT_POSITIVE
    ),
    PerturbationRecord(
        "a blue ball under the chair", 1, "blue", "green", ADVERSARIAL_NEGATIVE
    ),
    PerturbationRecord(
        "a blue ball under the chair", 2, "ball", "sphere", EQUIVALENT_POSITIVE
    ),
]


def make_data(with_bank=True, with_perturbations=True):
    pairs = [CaptionPair(i, c, s) for i, c, s in PAIR_ROWS]
    vocab = Vocab.from_texts(p.caption for p in pairs)
    bank = None
    if with_bank:
        rng = np.random.default_rng(100)
        bank = FeatureBank([i for i, _, _ in PAIR_ROWS], rng.normal(size=(12, 5)))
    perturbations = list(PERTURBATIONS) if with_perturbations else None
    return TrainingData(pairs, vocab, bank=bank, perturbations=perturbations)


def small_config(**overrides):
    base = dict(
        batch_size=4,
        max_len=8,
        learning_rate=0.05,
        epochs=2,
        seed=11,
        hard_negative_cap=2,
        voken_count=3,
        dim=6,
        ffn_dim=8,
        num_blocks=1,
        dropout=0.1,
    )
    base.update(overrides)
    return PretrainConfig(**base)


class TestMethodSpec:
    def test_all_ten_names_build(self):
        for name in training_module.METHOD_NAMES:
            spec = MethodSpec.named(name)
            assert spec.name == name

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="CMCL\\+PSA\\+ANS"):
            MethodSpec.named("CLIP")

    def test_component_sets(self):
        assert MethodSpec.named("TCL+MLM").components == ("tcl", "mlm")
        assert MethodSpec.named("VOKEN+MLM").components == ("voken", "mlm")
        assert MethodSpec.named("CMCL+PSA+ANS").components == ("cmcl",)

    def test_ans_psa_flags(self):
        assert MethodSpec.named("TCL+ANS").use_ans
        assert not MethodSpec.named("TCL+ANS").use_psa
        spec = MethodSpec.named("CMCL+PSA+ANS")
        assert spec.use_ans and spec.use_psa

    def test_needs_images(self):
        assert MethodSpec.named("CMCL").needs_images
        assert MethodSpec.named("VOKEN+MLM").needs_images
        assert not MethodSpec.named("TCL+PSA+ANS").needs_images


class TestPretrainConfig:
    def test_defaults(self):
        config = PretrainConfig()
        assert config.batch_size == 64
        assert config.max_len == 20
        assert config.learning_rate == 1e-4
        assert config.epochs == 3
        assert config.temperature == 0.05
        assert config.margin == 1.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("batch_size", 0),
            ("epochs", 0),
            ("learning_rate", 0.0),
            ("temperature", -0.1),
            ("margin", -1.0),
            ("dropout", 1.0),
            ("hard_negative_cap", -1),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            PretrainConfig(**{field: value})

    @staticmethod
    def _read(tmp_path, fields):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(fields))
        return _read_config(PretrainConfig, argparse.Namespace(config=path, seed=None))

    def test_dict_roundtrip(self, tmp_path):
        config = small_config()
        assert self._read(tmp_path, dataclasses.asdict(config)) == config

    def test_unknown_dict_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="optimizer"):
            self._read(tmp_path, {"optimizer": "adam"})


class TestInputValidation:
    def test_cmkd_points_at_distillation(self):
        with pytest.raises(ConfigError, match="distill"):
            pretrain("CMKD", make_data(), small_config())

    def test_cross_modal_method_needs_bank(self):
        with pytest.raises(ConfigError, match="bank"):
            pretrain("CMCL", make_data(with_bank=False), small_config())

    def test_ans_method_needs_perturbations(self):
        with pytest.raises(ConfigError, match="perturbation"):
            pretrain("TCL+ANS", make_data(with_perturbations=False), small_config())

    def test_ans_method_needs_actual_negatives(self):
        data = make_data()
        data.perturbations = [r for r in PERTURBATIONS if r.verdict == EQUIVALENT_POSITIVE]
        with pytest.raises(ConfigError, match="adversarial"):
            pretrain("TCL+ANS", data, small_config())

    def test_no_train_split_rejected(self):
        data = make_data()
        data.pairs = [p for p in data.pairs if p.split == "dev"]
        with pytest.raises(ConfigError, match="train"):
            pretrain("MLM", data, small_config())


class TestRecordAssembly:
    def test_train_split_only_without_psa(self):
        records, pool = assemble_records(
            MethodSpec.named("MLM"), make_data(), small_config()
        )
        assert len(records) == 10
        assert pool == []

    def test_psa_appends_matching_positives(self):
        data = make_data()
        records, pool = assemble_records(
            MethodSpec.named("TCL+PSA+ANS"), data, small_config()
        )
        assert len(records) == 12
        # appended items carry the source pair's image and the edited word
        crimson = records[10]
        assert crimson.image_id == "img00"
        assert crimson.tokens[1] == data.vocab.unk_id  # "crimson" is out of vocabulary
        sphere = records[11]
        assert sphere.image_id == "img01"
        assert sphere.tokens[2] == data.vocab.unk_id

    def test_negative_pools_attach_to_their_captions(self):
        data = make_data()
        records, pool = assemble_records(
            MethodSpec.named("TCL+ANS"), data, small_config()
        )
        assert len(pool) == 3
        assert len(records[0].negatives) == 2
        assert len(records[1].negatives) == 1
        assert all(not r.negatives for r in records[2:])
        # the first negative of caption 0 swaps word 1 to "blue"
        assert records[0].negatives[0][1] == data.vocab.id_of("blue")

    def test_records_follow_train_pair_order(self):
        data, config = make_data(), small_config()
        records, _ = assemble_records(MethodSpec.named("MLM"), data, config)
        assert [(r.image_id, r.tokens) for r in records] == [
            (image_id, tuple(tokenize(caption, data.vocab, config.max_len)))
            for image_id, caption, split in PAIR_ROWS if split == "train"
        ]


class TestLoopBookkeeping:
    def test_loss_log_length_is_batches_times_epochs(self):
        result = pretrain("MLM", make_data(), small_config(epochs=1))
        assert len(result.loss_rows) == math.ceil(10 / 4)
        result = pretrain("MLM", make_data(), small_config(epochs=2))
        assert len(result.loss_rows) == 2 * math.ceil(10 / 4)

    def test_rows_carry_step_epoch_components_total(self):
        result = pretrain("TCL+MLM", make_data(), small_config(epochs=1))
        row = result.loss_rows[0]
        assert set(row) == {"step", "epoch", "tcl", "mlm", "total"}
        assert row["step"] == 0
        assert row["epoch"] == 1

    def test_total_is_weighted_component_sum_every_step(self):
        data, config = make_data(), small_config()
        records, pool = assemble_records(MethodSpec.named("TCL+MLM"), data, config)
        encoder = TextEncoder(config.encoder_config(len(data.vocab)), seed=config.seed)
        engine = training_module._ComponentEngine(config, encoder, None, data.vocab, pool)
        steps = {"tcl": (0.5, engine.fns["tcl"]), "mlm": (2.0, engine.fns["mlm"])}
        result = run_training_loop(config, encoder, None, data.vocab, records, steps,
                                   {"method": "mix"})
        assert len(result.loss_rows) == 2 * math.ceil(10 / 4)
        for row in result.loss_rows:
            recombined = 0.5 * row["tcl"] + 2.0 * row["mlm"]
            assert abs(row["total"] - recombined) < 1e-10

    def test_sgd_sees_every_update_of_every_trainer(self, monkeypatch):
        """pretrain, the teacher, distillation and fine-tuning all update
        through the one loop's ``_sgd``: once per step and parameter dict,
        with a gradient for every parameter the run changes."""
        seen = []
        real = training_module._sgd

        def spy(params, grads, lr, step):
            seen.append((step, set(grads)))
            real(params, grads, lr, step)

        monkeypatch.setattr(training_module, "_sgd", spy)

        def updates(rows, n_dicts):
            steps = [step for step, _ in seen]
            assert steps == [row["step"] for row in rows for _ in range(n_dicts)]
            names = set().union(*(grads for _, grads in seen))
            seen.clear()
            return names

        data, config = make_data(), small_config(epochs=1)
        mlm = pretrain("MLM", data, config)
        assert updates(mlm.loss_rows, 1)
        teacher = train_teacher(TeacherSpec("cmcl"), data, config)
        assert {"proj_w", "proj_b"} <= updates(teacher.loss_rows, 2)
        student = distill(teacher.final, data, DistillSpec(), config)
        assert updates(student.loss_rows, 1)

        items = [MCQAItem(question=p.caption, choices=(p.caption, "a red block"), gold=0,
                          split="train") for p in data.pairs[:6]]
        cfg = FinetuneConfig(learning_rates=(0.1,), batch_size=4, max_epochs_low_resource=2)
        model = finetune(mlm.final, MCQADataset.from_items("toy", items), items, 0.1, cfg)
        start, _ = restore_text_encoder(mlm.final)
        changed = {"w", "b"} | {
            name for name, value in model.encoder.params.items()
            if not np.array_equal(value, start.params[name])
        }
        assert changed <= updates(model.loss_rows, 2)
        assert {"w", "b"} < changed

    def test_one_checkpoint_per_epoch_plus_final(self):
        series = []
        result = pretrain("MLM", make_data(), small_config(epochs=3), on_epoch=series.append)
        assert len(series) == 3
        assert [c.meta["epoch"] for c in series] == [1, 2, 3]
        assert all(c.meta["kind"] == "epoch" for c in series)
        assert result.final.meta["kind"] == "final"
        for name, value in result.final.params.items():
            np.testing.assert_array_equal(value, series[-1].params[name])

    def test_peak_memory_does_not_grow_with_epochs(self):
        """Epoch checkpoints go to the sink and are not kept, so eight epochs
        with a discarding sink peak within one checkpoint's size of two."""
        data = make_data()

        def peak(epochs):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = pretrain("MLM", data, small_config(epochs=epochs, dim=32, ffn_dim=64),
                              on_epoch=lambda ckpt: None)
            return tracemalloc.get_traced_memory()[1] - start, result

        tracemalloc.start()
        try:
            peak(1)  # first-use allocations land outside the measured runs
            two, result = peak(2)
            eight, _ = peak(8)
        finally:
            tracemalloc.stop()
        checkpoint_bytes = sum(v.nbytes for v in result.final.params.values())
        assert eight - two < checkpoint_bytes

    def test_checkpoints_restore_to_working_encoders(self):
        result = pretrain("MLM", make_data(), small_config(epochs=1))
        encoder, vocab = restore_text_encoder(result.final)
        out = encoder.encode([[4, 5, 6]])
        assert out.shape == (1, 6)

    def test_non_finite_loss_raises_training_error(self, monkeypatch):
        monkeypatch.setattr(
            training_module._ComponentEngine,
            "_mlm",
            lambda self, batch, padded, epoch, step: (float("nan"), {}, {}),
        )
        with pytest.raises(TrainingError) as err:
            pretrain("MLM", make_data(), small_config())
        assert err.value.step == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_parameters_raise_training_error(self):
        """One step at an infinite rate: the loss of that step is finite,
        the parameters it leaves are not, and no checkpoint holds them."""
        config = small_config(learning_rate=math.inf, epochs=1, batch_size=10)
        with pytest.raises(TrainingError, match="non-finite parameter .* at step 0") as err:
            pretrain("MLM", make_data(), config)
        assert err.value.step == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_image_projection_raises_training_error(self):
        """A projection that overflows is divergence (CLI exit 3), reported
        with its step, not a bad-input error about the batch."""
        data, config = make_data(), small_config()
        records, pool = assemble_records(MethodSpec.named("CMCL"), data, config)
        encoder = TextEncoder(config.encoder_config(len(data.vocab)), seed=0)
        images = ImageEncoder(data.bank, np.full((5, config.dim), np.finfo(float).max),
                              np.zeros(config.dim))
        engine = training_module._ComponentEngine(config, encoder, images, data.vocab, pool)
        batch = records[:4]
        padded = encoder.prepare_batch([rec.tokens for rec in batch])
        with pytest.raises(TrainingError, match="non-finite image embeddings at step 7") as err:
            engine.fns["cmcl"](batch, padded, 0, 7)
        assert err.value.step == 7

    @pytest.mark.parametrize("batch_size", [1, 16, 64])
    def test_one_mask_generator_per_step(self, batch_size, monkeypatch):
        data = make_data()
        encoder = TextEncoder(small_config().encoder_config(len(data.vocab)), seed=0)
        built, rng_for_ = [], training_module.rng_for

        def counting_rng_for(*parts):
            built.append(parts)
            return rng_for_(*parts)

        monkeypatch.setattr(training_module, "rng_for", counting_rng_for)
        seqs = [[4 + i % 20, 5, 6, 7] for i in range(batch_size)]
        mlm_batch_step(encoder, data.vocab, encoder.prepare_batch(seqs), 3, 2, 5)
        assert built == [(3, "mask", 2, 5)]

    def test_empty_mask_selection_contributes_zero(self):
        data = make_data()
        encoder = TextEncoder(small_config().encoder_config(len(data.vocab)), seed=0)
        # find a seed whose plan selects nothing for a one-token caption
        for seed in range(200):
            loss, grads = mlm_batch_step(encoder, data.vocab, encoder.prepare_batch([[4]]),
                                         seed, 1, 0)
            if not grads:
                assert loss == 0.0
                return
        pytest.fail("no seed left a one-token caption unmasked in 200 tries")


class TestStepZeroHonesty:
    """Replays the first step from the documented seed contract and
    recomputes both component losses through independent paths."""

    def test_tcl_mlm_step_zero_recomputed(self):
        data = make_data()
        config = small_config()
        result = pretrain("TCL+MLM", data, config)
        row = result.loss_rows[0]

        records, _ = assemble_records(MethodSpec.named("TCL+MLM"), data, config)
        order = rng_for(config.seed, "order", 1).permutation(len(records))
        batch = [records[int(i)] for i in order[: config.batch_size]]

        encoder = TextEncoder(config.encoder_config(len(data.vocab)), seed=config.seed)
        padded = encoder.prepare_batch([r.tokens for r in batch])
        view_a, view_b = (
            encoder.forward(*padded, derive_seed(config.seed, view, 1, 0))["pooled"]
            for view in ("tcl-a", "tcl-b")
        )
        tcl = tcl_loss(view_a, view_b, config.temperature).total / len(batch)
        mlm, _ = mlm_batch_step(encoder, data.vocab, padded, config.seed, 1, 0)
        assert abs(row["tcl"] - tcl) < 1e-10
        assert abs(row["mlm"] - mlm) < 1e-10
        assert abs(row["total"] - (tcl + mlm)) < 1e-10

    def test_mlm_step_zero_replayed_from_mask_contract(self):
        """The masked batch and MLM loss of step 0, rebuilt from the
        ("mask", epoch, step) generator: selection uniforms over the padded
        batch, then one action uniform per selection, then the random
        content ids."""
        data = make_data()
        config = small_config(batch_size=10)  # the whole train split
        result = pretrain("MLM", data, config)

        records, _ = assemble_records(MethodSpec.named("MLM"), data, config)
        order = rng_for(config.seed, "order", 1).permutation(len(records))
        batch = [records[int(i)].tokens for i in order[: config.batch_size]]
        tokens = np.zeros((len(batch), max(map(len, batch))), dtype=np.int64)
        for b, toks in enumerate(batch):
            tokens[b, : len(toks)] = toks

        rng = rng_for(config.seed, "mask", 1, 0)
        rows, cols = np.nonzero((rng.random(tokens.shape) < 0.15) & (tokens >= 4))
        u = rng.random(rows.size)
        masked = tokens.copy()
        masked[rows[u < 0.8], cols[u < 0.8]] = data.vocab.mask_id
        content = data.vocab.content_ids()
        random_at = u >= 0.8 + 0.1
        masked[rows[random_at], cols[random_at]] = content[
            rng.integers(content.size, size=np.count_nonzero(random_at))
        ]
        assert rows.size > 0 and np.any(masked != tokens)
        planned, selected, _ = plan_dynamic_masking(
            tokens, data.vocab, rng_for(config.seed, "mask", 1, 0)
        )
        np.testing.assert_array_equal(planned, masked)
        np.testing.assert_array_equal(np.argwhere(selected), np.stack([rows, cols], axis=1))

        encoder = TextEncoder(config.encoder_config(len(data.vocab)), seed=config.seed)
        hidden = encoder.forward(
            masked, (tokens != 0).astype(np.float64), derive_seed(config.seed, "mlm-dropout", 1, 0)
        )["hidden"]
        logits = hidden @ encoder.params["mlm_w"] + encoder.params["mlm_b"]
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        dists = e / e.sum(axis=-1, keepdims=True)
        loss = -np.mean(np.log(dists[rows, cols, tokens[rows, cols]]))
        assert abs(result.loss_rows[0]["mlm"] - loss) < 1e-10

    def test_composite_step_zero_matches_single_component_runs(self):
        data = make_data()
        config = small_config()
        composite = pretrain("TCL+MLM", data, config).loss_rows[0]
        tcl_only = pretrain("TCL", data, config).loss_rows[0]
        mlm_only = pretrain("MLM", data, config).loss_rows[0]
        assert composite["tcl"] == tcl_only["tcl"]
        assert composite["mlm"] == mlm_only["mlm"]

    def test_in_batch_denominator_excludes_rest_of_corpus(self):
        """Shrinking the corpus to exactly the first batch must not move
        the step-zero loss: nothing outside the batch participates."""
        data = make_data()
        config = small_config(batch_size=10, epochs=1, dropout=0.0)
        full = pretrain("TCL", data, config).loss_rows[0]["tcl"]
        order = rng_for(config.seed, "order", 1).permutation(10)
        assert len(order) == 10  # one batch holds the whole corpus
        assert np.isfinite(full)


class TestOnePaddingPerStep:
    @pytest.mark.parametrize("method, pads_per_step", [
        ("MLM", 1), ("TCL+MLM", 1), ("CMCL+ANS", 2), ("CMKD", 1),
    ])
    def test_prepare_batch_calls_per_step(self, method, pads_per_step, monkeypatch):
        """Every component of a step shares one padded batch of its
        captions; ANS pads the hard negatives once more. Distillation's
        teacher targets are padded inside ``block_activations`` before
        training and are not counted."""
        data = make_data()
        config = small_config(epochs=1)
        teacher = train_teacher(TeacherSpec(), data, config) if method == "CMKD" else None
        calls, in_teacher = [], []
        prepare_batch, block_activations = TextEncoder.prepare_batch, TextEncoder.block_activations

        def counting_prepare_batch(self, seqs):
            if not in_teacher:
                calls.append(len(seqs))
            return prepare_batch(self, seqs)

        def teacher_block_activations(self, seqs):
            in_teacher.append(seqs)
            try:
                return block_activations(self, seqs)
            finally:
                in_teacher.pop()

        monkeypatch.setattr(TextEncoder, "prepare_batch", counting_prepare_batch)
        monkeypatch.setattr(TextEncoder, "block_activations", teacher_block_activations)
        if teacher is None:
            result = pretrain(method, data, config)
        else:
            result = distill(teacher.final, data, DistillSpec(), config)
        assert len(result.loss_rows) == 3  # 10 train captions in batches of 4
        assert len(calls) == pads_per_step * len(result.loss_rows)


class TestHardNegativeEffects:
    def test_ans_strictly_raises_step_zero_contrastive_loss(self):
        data = make_data()
        config = small_config()
        plain = pretrain("CMCL", data, config).loss_rows[0]["cmcl"]
        with_ans = pretrain("CMCL+ANS", data, config).loss_rows[0]["cmcl"]
        assert with_ans > plain

    def test_tcl_ans_strictly_raises_step_zero_loss(self):
        data = make_data()
        config = small_config()
        plain = pretrain("TCL", data, config).loss_rows[0]["tcl"]
        with_ans = pretrain("TCL+ANS", data, config).loss_rows[0]["tcl"]
        assert with_ans > plain

    def test_zero_cap_reduces_to_plain_method(self):
        data = make_data()
        config = small_config(hard_negative_cap=0)
        plain = pretrain("CMCL", data, config).loss_rows
        capped = pretrain("CMCL+ANS", data, config).loss_rows
        assert plain == capped


class TestDeterminism:
    def test_identical_seeds_identical_logs_and_checkpoint_bytes(self, tmp_path):
        data = make_data()
        config = small_config()
        r1 = pretrain("CMCL", data, config)
        r2 = pretrain("CMCL", data, config)
        assert list(r1.loss_rows) == list(r2.loss_rows)
        p1 = tmp_path / "one.ckpt"
        p2 = tmp_path / "two.ckpt"
        save_checkpoint(r1.final, p1)
        save_checkpoint(r2.final, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_changes_losses(self):
        data = make_data()
        r1 = pretrain("CMCL", data, small_config(seed=11))
        r2 = pretrain("CMCL", data, small_config(seed=12))
        assert r1.loss_rows[0]["total"] != r2.loss_rows[0]["total"]


class TestImageProjectionTraining:
    def test_contrastive_training_moves_the_projection(self):
        series = []
        pretrain("CMCL", make_data(), small_config(), on_epoch=series.append)
        first = series[0].image_params()["proj_w"]
        last = series[-1].image_params()["proj_w"]
        assert not np.array_equal(first, last)

    def test_voken_method_keeps_projection_fixed(self):
        series = []
        pretrain("VOKEN+MLM", make_data(), small_config(), on_epoch=series.append)
        first = series[0].image_params()["proj_w"]
        last = series[-1].image_params()["proj_w"]
        np.testing.assert_array_equal(first, last)

    def test_text_only_method_stores_no_image_params(self):
        result = pretrain("MLM", make_data(), small_config())
        assert result.final.image_params() == {}


class TestVokenTraining:
    def test_voken_mlm_runs_and_logs_both_components(self):
        result = pretrain("VOKEN+MLM", make_data(), small_config(epochs=1))
        row = result.loss_rows[0]
        assert np.isfinite(row["voken"])
        assert np.isfinite(row["mlm"])
        # a fresh head over K vokens starts near uniform chance
        assert abs(row["voken"] - math.log(3)) < 0.5


class TestLearningSmoke:
    def test_cmcl_loss_decreases_over_epochs(self):
        config = small_config(
            learning_rate=0.3, epochs=4, batch_size=10, dropout=0.0, dim=8
        )
        result = pretrain("CMCL", make_data(), config)
        first = np.mean([r["total"] for r in result.loss_rows if r["epoch"] == 1])
        last = np.mean([r["total"] for r in result.loss_rows if r["epoch"] == 4])
        assert last < first


class TestAssignVokens:
    def test_single_row_bank_maps_everything_to_zero(self):
        rng = np.random.default_rng(0)
        states = rng.normal(size=(5, 4))
        assert assign_vokens(states, rng.normal(size=(1, 4))) == [0] * 5

    def test_exact_bank_row_match_wins(self):
        rng = np.random.default_rng(1)
        bank = rng.normal(size=(4, 6))
        states = rng.normal(size=(3, 6))
        states[1] = bank[3]
        got = assign_vokens(states, bank)
        assert got[1] == 3

    def test_matches_exhaustive_nearest_neighbor_scan(self):
        rng = np.random.default_rng(5)
        bank = rng.normal(size=(4, 6))
        states = rng.normal(size=(5, 6))
        got = assign_vokens(states, bank)
        for t in range(5):
            best, best_sim = 0, -2.0
            for k in range(4):
                sim = oracles.cos(states[t], bank[k])
                if sim > best_sim:
                    best, best_sim = k, sim
            assert got[t] == best

    def test_tie_breaks_to_lowest_id(self):
        bank = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # rows 0,1 parallel
        states = np.array([[3.0, 0.0]])
        assert assign_vokens(states, bank) == [0]

    def test_empty_bank_rejected(self):
        with pytest.raises(ConfigError, match="bank"):
            assign_vokens(np.ones((1, 3)), np.zeros((0, 3)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            assign_vokens(np.ones((1, 4)), np.ones((2, 3)))

    def test_zero_norm_state_rejected(self):
        with pytest.raises(DomainError):
            assign_vokens(np.zeros((1, 3)), np.ones((2, 3)))

    def test_no_tokens_no_assignments(self):
        assert assign_vokens(np.ones((0, 3)), np.ones((2, 3))) == []


class TestBuildVokenBank:
    def make_bank(self):
        rng = np.random.default_rng(3)
        return FeatureBank([i for i, _, _ in PAIR_ROWS], rng.normal(size=(12, 5)))

    def test_rows_follow_first_appearance_order(self):
        bank = self.make_bank()
        pairs = [CaptionPair(i, c, s) for i, c, s in PAIR_ROWS]
        table = build_voken_bank(pairs, ImageEncoder(bank, np.eye(bank.dim), np.zeros(bank.dim)), 3)
        np.testing.assert_allclose(
            table, bank.vectors(["img00", "img01", "img02"])
        )

    def test_too_few_distinct_images_rejected(self):
        bank = self.make_bank()
        pairs = [CaptionPair(i, c, s) for i, c, s in PAIR_ROWS]
        with pytest.raises(ConfigError, match="distinct"):
            build_voken_bank(pairs, ImageEncoder(bank, np.eye(bank.dim), np.zeros(bank.dim)), 13)

    def test_count_below_one_rejected(self):
        bank = self.make_bank()
        pairs = [CaptionPair(i, c, s) for i, c, s in PAIR_ROWS]
        with pytest.raises(ConfigError):
            build_voken_bank(pairs, ImageEncoder(bank, np.eye(bank.dim), np.zeros(bank.dim)), 0)


class TestSimilaritySetIO:
    def test_roundtrip(self, tmp_path):
        items = [("a red block", "a blue ball", 0.25), ("x y", "x y", 1.0)]
        path = tmp_path / "sims.tsv"
        save_similarity_set(items, path)
        assert load_similarity_set(path) == items

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "sims.tsv"
        path.write_text("a\tb\t1.0\nbroken line\n")
        with pytest.raises(ParseError, match=":2"):
            load_similarity_set(path)

    def test_bad_score_reports_line(self, tmp_path):
        path = tmp_path / "sims.tsv"
        path.write_text("a\tb\tnot-a-number\n")
        with pytest.raises(ParseError, match=":1"):
            load_similarity_set(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_reports_line(self, tmp_path, score):
        path = tmp_path / "sims.tsv"
        path.write_text(f"a\tb\t0.5\nc\td\t{score}\n")
        with pytest.raises(ParseError, match=":2: .*not finite"):
            load_similarity_set(path)


class TestLossLogIO:
    def test_roundtrip_preserves_exact_floats(self, tmp_path):
        result = pretrain("TCL+MLM", make_data(), small_config(epochs=1))
        path = tmp_path / "loss.csv"
        write_loss_log(result.loss_rows, result.components, path)
        assert read_loss_log(path) == list(result.loss_rows)

    def test_rerun_writes_identical_bytes(self, tmp_path):
        data = make_data()
        config = small_config()
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        r1 = pretrain("CMCL", data, config)
        r2 = pretrain("CMCL", data, config)
        write_loss_log(r1.loss_rows, r1.components, p1)
        write_loss_log(r2.loss_rows, r2.components, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_log_csv_rejected(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ParseError):
            read_loss_log(path)

    @pytest.mark.parametrize("row", ["0,1,x,1.0", "0,1,0.5", "one,1,0.5,0.5"],
                             ids=["non-numeric", "short", "bad-step"])
    def test_bad_cell_is_parse_error_with_line(self, tmp_path, row):
        path = tmp_path / "loss.csv"
        path.write_text(f"step,epoch,mlm,total\n0,1,0.5,0.5\n{row}\n")
        with pytest.raises(ParseError, match=":3:"):
            read_loss_log(path)


MULTI_CORE = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the step worker forks only with two or more usable cores",
)


def one_core(monkeypatch):
    """From now on the loop sees one usable core and runs in one process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def probe_loop(probe, weights=(1.0, 1.0)):
    """Three epochs of 10 captions in batches of 4 (9 steps) over the
    components ``a`` and ``b``, each ``probe(name, step)`` -> its loss."""
    data, config = make_data(), small_config(epochs=3)
    records, _ = assemble_records(MethodSpec.named("MLM"), data, config)
    encoder = TextEncoder(config.encoder_config(len(data.vocab)), seed=config.seed)
    steps = {name: (weight, lambda batch, padded, epoch, step, name=name: (probe(name, step), {}, {}))
             for name, weight in zip(("a", "b"), weights)}
    result = run_training_loop(config, encoder, None, data.vocab, records, steps,
                               {"method": "probe"})
    return result, encoder


def pid_probe(name, step):
    return float(os.getpid())


def diverging(at):
    """A probe whose component ``name`` diverges at step ``at[name]``."""
    def probe(name, step):
        if at.get(name) == step:
            raise TrainingError(f"non-finite {name} embeddings at step {step}", step=step)
        return 1.0
    return probe


def outcome(run):
    """(type, message, step) of the error ``run`` raises."""
    with pytest.raises(TrainingError) as info:
        run()
    return type(info.value), str(info.value), info.value.step


@MULTI_CORE
class TestStepWorkerLoop:
    """Two live components run side by side in a forked step worker and
    give exactly what one process gives."""

    @pytest.mark.parametrize("method", ["TCL+MLM", "VOKEN+MLM", "CMKD"])
    def test_outputs_match_one_process(self, method, tmp_path, monkeypatch):
        data, config = make_data(), small_config(epochs=3)
        teacher = train_teacher(TeacherSpec(), data, config).final if method == "CMKD" else None

        def run(name):
            series = []
            if teacher is None:
                result = pretrain(method, data, config, on_epoch=series.append)
            else:
                result = distill(teacher, data, DistillSpec(), config, on_epoch=series.append)
            paths = [tmp_path / f"{name}-{k}.ckpt" for k in range(len(series) + 1)]
            for checkpoint, path in zip([*series, result.final], paths):
                save_checkpoint(checkpoint, path)
            return list(result.loss_rows), [path.read_bytes() for path in paths]

        forked = run("forked")
        assert_no_children_left()
        one_core(monkeypatch)
        assert forked == run("one-process")

    def test_components_swap_processes_every_step(self):
        result, _ = probe_loop(pid_probe)
        parent = float(os.getpid())
        assert [row["a" if row["step"] % 2 == 0 else "b"] for row in result.loss_rows] == \
            [parent] * 9
        worker = {row["b" if row["step"] % 2 == 0 else "a"] for row in result.loss_rows}
        assert len(worker) == 1 and parent not in worker  # one worker for the loop
        assert_no_children_left()

    def test_one_live_component_forks_no_worker(self):
        result, _ = probe_loop(pid_probe, weights=(1.0, 0.0))
        assert {row["a"] for row in result.loss_rows} == {float(os.getpid())}
        assert {row["b"] for row in result.loss_rows} == {0.0}

    def test_loop_in_a_map_worker_forks_no_grandchild(self):
        def pids(_):
            result, _ = probe_loop(pid_probe)
            return os.getpid(), {row[c] for row in result.loss_rows for c in ("a", "b")}

        for worker, seen in map_forked(pids, range(2)):
            assert seen == {float(worker)}
        assert_no_children_left()

    def test_parameters_end_in_private_arrays(self):
        _, encoder = probe_loop(pid_probe)
        assert all(value.flags.owndata for value in encoder.params.values())

    @pytest.mark.parametrize("at", [{"b": 2}, {"b": 3}, {"a": 3, "b": 3}, {"a": 2, "b": 2}],
                             ids=["worker", "parent", "worker-first", "parent-first"])
    def test_divergence_raises_the_one_process_error(self, at, monkeypatch):
        """On step s the parent runs component ``[a, b][s % 2]``; whichever
        process ran it, the first failing component in order raises."""
        forked = outcome(lambda: probe_loop(diverging(at)))
        assert_no_children_left()
        one_core(monkeypatch)
        assert forked == outcome(lambda: probe_loop(diverging(at)))
        assert forked[1:] == (f"non-finite {min(at)} embeddings at step {at[min(at)]}",
                              at[min(at)])

    def test_dead_worker_is_a_training_error(self):
        parent = os.getpid()

        def dying(name, step):
            if os.getpid() != parent:
                os._exit(9)
            return 1.0

        with pytest.raises(TrainingError, match="exit status 9"):
            probe_loop(dying)
        assert_no_children_left()

    @pytest.mark.parametrize("action", ["always", "default"])
    def test_warnings_in_component_order(self, action, monkeypatch):
        def warning(name, step):
            warnings.warn(f"{name} at step {step % 3}")
            return 1.0

        def shown():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                probe_loop(warning)
            return [str(w.message) for w in caught]

        forked = shown()
        one_core(monkeypatch)
        assert forked == shown()
