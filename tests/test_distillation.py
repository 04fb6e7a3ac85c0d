"""Teacher/student transfer tests, including the zero-transfer reduction
to plain masked-prediction training."""

import numpy as np
import pytest

from cmkt import (
    ConfigError,
    DistillSpec,
    PretrainConfig,
    TeacherSpec,
    TrainingData,
    distill,
    nst_step,
    pretrain,
    restore_text_encoder,
    save_checkpoint,
    train_teacher,
)
from cmkt.corpus import CaptionPair, Vocab
from cmkt import distillation
from cmkt.encoders import FeatureBank, TextEncoder

PAIR_ROWS = [
    ("img00", "a red block on the table", "train"),
    ("img01", "a blue ball under the chair", "train"),
    ("img02", "a green cup near the window", "train"),
    ("img03", "a small dog beside the door", "train"),
    ("img04", "a black cat on the mat", "train"),
    ("img05", "a tall lamp near the sofa", "train"),
    ("img06", "a round clock above the shelf", "train"),
    ("img07", "a white bird inside the cage", "train"),
]


def make_data():
    pairs = [CaptionPair(i, c, s) for i, c, s in PAIR_ROWS]
    vocab = Vocab.from_texts(p.caption for p in pairs)
    rng = np.random.default_rng(100)
    bank = FeatureBank([i for i, _, _ in PAIR_ROWS], rng.normal(size=(8, 5)))
    return TrainingData(pairs, vocab, bank=bank)


def small_config(**overrides):
    base = dict(
        batch_size=4,
        max_len=8,
        learning_rate=0.05,
        epochs=2,
        seed=11,
        dim=6,
        ffn_dim=8,
        num_blocks=1,
        dropout=0.1,
    )
    base.update(overrides)
    return PretrainConfig(**base)


class TestSpecs:
    def test_teacher_objectives(self):
        assert TeacherSpec("cmcl").objective == "cmcl"
        assert TeacherSpec("hinge").objective == "hinge"
        with pytest.raises(ConfigError, match="objective"):
            TeacherSpec("mlm")

    def test_distill_weights_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match="non-negative"):
            DistillSpec(mlm_weight=-1.0)

    @pytest.mark.parametrize("weights", [{"mlm_weight": float("nan")},
                                         {"nst_weight": float("inf")},
                                         {"mlm_weight": float("-inf")}],
                             ids=["mlm-nan", "nst-inf", "mlm-minus-inf"])
    def test_distill_weights_must_be_finite(self, weights):
        with pytest.raises(ConfigError, match="finite"):
            DistillSpec(**weights)

    def test_distill_weights_not_both_zero(self):
        with pytest.raises(ConfigError, match="at least one"):
            DistillSpec(mlm_weight=0.0, nst_weight=0.0)

    def test_defaults(self):
        spec = DistillSpec()
        assert spec.mlm_weight == 1.0
        assert spec.nst_weight == 1.0


class TestTeacher:
    def test_cmcl_teacher_trains_and_bundles_image_params(self):
        result = train_teacher(TeacherSpec("cmcl"), make_data(), small_config())
        assert result.method == "teacher:cmcl"
        assert "cmcl" in result.loss_rows[0]
        assert set(result.final.image_params()) == {"proj_w", "proj_b"}

    def test_hinge_teacher_trains(self):
        result = train_teacher(TeacherSpec("hinge"), make_data(), small_config())
        row = result.loss_rows[0]
        assert np.isfinite(row["hinge"])
        assert row["hinge"] > 0

    def test_teacher_needs_bank(self):
        data = make_data()
        data.bank = None
        with pytest.raises(ConfigError, match="bank"):
            train_teacher(TeacherSpec("cmcl"), data, small_config())

    def test_teacher_is_deterministic(self):
        data = make_data()
        config = small_config()
        r1 = train_teacher(TeacherSpec("cmcl"), data, config)
        r2 = train_teacher(TeacherSpec("cmcl"), data, config)
        assert list(r1.loss_rows) == list(r2.loss_rows)


class TestZeroTransferReduction:
    def test_distill_without_transfer_matches_mlm_run_step_for_step(self):
        data = make_data()
        config = small_config()
        teacher = train_teacher(TeacherSpec("cmcl"), data, config)
        mlm_run = pretrain("MLM", data, config)
        dist_run = distill(
            teacher.final, data, DistillSpec(mlm_weight=1.0, nst_weight=0.0), config
        )
        assert len(mlm_run.loss_rows) == len(dist_run.loss_rows)
        for mlm_row, dist_row in zip(mlm_run.loss_rows, dist_run.loss_rows):
            assert dist_row["mlm"] == mlm_row["mlm"]
            assert dist_row["total"] == mlm_row["total"]
            assert dist_row["nst"] == 0.0

    def test_zero_transfer_final_parameters_are_identical(self):
        data = make_data()
        config = small_config()
        teacher = train_teacher(TeacherSpec("cmcl"), data, config)
        mlm_run = pretrain("MLM", data, config)
        dist_run = distill(
            teacher.final, data, DistillSpec(mlm_weight=1.0, nst_weight=0.0), config
        )
        mlm_params = mlm_run.final.text_params()
        dist_params = dist_run.final.text_params()
        assert set(mlm_params) == set(dist_params)
        for name in mlm_params:
            np.testing.assert_array_equal(mlm_params[name], dist_params[name])


class TestNstAlignment:
    def test_student_identical_to_teacher_scores_zero(self):
        data = make_data()
        config = small_config()
        teacher_run = train_teacher(TeacherSpec("cmcl"), data, config)
        teacher, _ = restore_text_encoder(teacher_run.final)
        twin, _ = restore_text_encoder(teacher_run.final)
        seqs = [[4, 5, 6], [7, 8]]
        value, grads = nst_step(teacher, twin, seqs)
        assert value < 1e-12
        assert grads

    def test_transfer_only_training_reduces_alignment_loss(self):
        data = make_data()
        config = small_config(
            learning_rate=0.1, epochs=6, batch_size=8, dropout=0.0
        )
        teacher = train_teacher(TeacherSpec("cmcl"), data, config)
        result = distill(
            teacher.final,
            data,
            DistillSpec(mlm_weight=0.0, nst_weight=1.0),
            config,
        )
        per_epoch = [
            np.mean([r["nst"] for r in result.loss_rows if r["epoch"] == e])
            for e in range(1, config.epochs + 1)
        ]
        assert per_epoch[-1] < per_epoch[0]
        assert per_epoch[-1] < max(per_epoch)
        # a zero-weight component is skipped, not computed and scaled away
        assert all(r["mlm"] == 0.0 for r in result.loss_rows)


class TestDistillValidation:
    def test_vocabulary_mismatch_rejected(self):
        data = make_data()
        config = small_config()
        teacher = train_teacher(TeacherSpec("cmcl"), data, config)
        other = make_data()
        other.vocab = Vocab.from_texts(["totally different words here"])
        with pytest.raises(ConfigError, match="vocabular"):
            distill(teacher.final, other, DistillSpec(), config)

    def test_block_count_mismatch_rejected(self):
        data = make_data()
        teacher = train_teacher(TeacherSpec("cmcl"), data, small_config(num_blocks=1))
        with pytest.raises(ConfigError, match="block"):
            distill(teacher.final, data, DistillSpec(), small_config(num_blocks=2))

    def test_student_max_len_beyond_teacher_rejected(self):
        data = make_data()
        teacher = train_teacher(TeacherSpec("cmcl"), data, small_config(max_len=8))
        with pytest.raises(ConfigError, match="max_len"):
            distill(teacher.final, data, DistillSpec(), small_config(max_len=12))


class TestDistillRun:
    def test_loss_rows_and_checkpoints(self):
        data = make_data()
        config = small_config()
        teacher = train_teacher(TeacherSpec("cmcl"), data, config)
        result = distill(teacher.final, data, DistillSpec(), config)
        assert result.method == "CMKD"
        assert result.components == ("mlm", "nst")
        assert len(result.checkpoints) == config.epochs
        assert result.final.meta["teacher"] == "teacher:cmcl"
        row = result.loss_rows[0]
        assert set(row) == {"step", "epoch", "mlm", "nst", "total"}
        recombined = row["mlm"] + row["nst"]
        assert abs(row["total"] - recombined) < 1e-10

    def test_determinism_and_checkpoint_bytes(self, tmp_path):
        data = make_data()
        config = small_config()
        teacher = train_teacher(TeacherSpec("cmcl"), data, config)
        r1 = distill(teacher.final, data, DistillSpec(), config)
        r2 = distill(teacher.final, data, DistillSpec(), config)
        assert list(r1.loss_rows) == list(r2.loss_rows)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(r1.final, p1)
        save_checkpoint(r2.final, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_teacher_runs_once_per_distinct_caption(self, monkeypatch):
        data = make_data()
        config = small_config(epochs=3)
        teacher = train_teacher(TeacherSpec("cmcl"), data, config)
        seen = []
        real = TextEncoder.block_activations

        def counting(self, seqs):
            seen.extend(tuple(s) for s in seqs)
            return real(self, seqs)

        monkeypatch.setattr(TextEncoder, "block_activations", counting)
        distill(teacher.final, data, DistillSpec(), config)
        assert len(seen) == len(set(seen)) == len(PAIR_ROWS)

    def test_cached_teacher_targets_match_per_batch_teacher(self, monkeypatch):
        data = make_data()
        config = small_config(epochs=3)
        teacher = train_teacher(TeacherSpec("cmcl"), data, config)
        cached = distill(teacher.final, data, DistillSpec(), config)
        real = distillation.nst_step
        monkeypatch.setattr(  # drop the cached targets: the teacher runs on every batch
            distillation, "nst_step",
            lambda teacher, student, seqs, teacher_blocks: real(teacher, student, seqs),
        )
        per_batch = distill(teacher.final, data, DistillSpec(), config)
        assert len(cached.loss_rows) == len(per_batch.loss_rows)
        for a, b in zip(cached.loss_rows, per_batch.loss_rows):
            assert a["nst"] == pytest.approx(b["nst"], rel=0, abs=1e-12)
        final = per_batch.final.params
        for name, value in cached.final.params.items():
            np.testing.assert_allclose(value, final[name], rtol=0, atol=1e-12)

    def test_student_checkpoint_is_text_only(self):
        data = make_data()
        config = small_config()
        teacher = train_teacher(TeacherSpec("cmcl"), data, config)
        result = distill(teacher.final, data, DistillSpec(), config)
        assert result.final.image_params() == {}
        encoder, _ = restore_text_encoder(result.final)
        assert encoder.encode([[4, 5]]).vectors.shape == (1, 6)
