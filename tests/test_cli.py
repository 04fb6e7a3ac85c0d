"""Command-line driver: exit codes, outputs, manifests, determinism."""

import dataclasses
import json
import os
import platform
import re
import struct
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cmkt import cli, evaluation, training
from cmkt.checkpoint import load_checkpoint
from cmkt.cli import main
from cmkt.corpus import Vocab, load_pairs
from cmkt.encoders import FeatureBank
from cmkt.evaluation import (
    EvalRun,
    FinetuneConfig,
    MCQADataset,
    load_mcqa,
    load_runs,
    save_mcqa,
    save_runs,
)
from cmkt.perturbation import load_records
from cmkt.synth import SynthConfig, generate_world, save_world
from cmkt.training import PretrainConfig


MULTI_CORE = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="eval forks fine-tune workers only with two or more usable cores",
)


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    config = SynthConfig(
        n_train_pairs=32,
        n_retrieval=8,
        mcqa_train=72,
        mcqa_dev=24,
        mcqa_test=40,
        similarity_pairs=8,
        seed=0,
    )
    save_world(generate_world(config), out)
    return out


@pytest.fixture(scope="module")
def tiny_pretrain_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "pretrain.json"
    path.write_text(
        json.dumps(
            {
                "batch_size": 16,
                "max_len": 16,
                "learning_rate": 0.05,
                "epochs": 2,
                "seed": 0,
                "dim": 16,
                "ffn_dim": 32,
                "num_blocks": 1,
                "dropout": 0.1,
            }
        )
    )
    return path


@pytest.fixture(scope="module")
def tiny_eval_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "eval.json"
    path.write_text(
        json.dumps(
            {
                "learning_rates": [0.1],
                "max_epochs_low_resource": 2,
                "max_epochs_full": 2,
                "batch_size": 16,
                "seed": 0,
            }
        )
    )
    return path


@pytest.fixture(scope="module")
def cmcl_dir(world_dir, tiny_pretrain_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("pre") / "cmcl"
    rc = main(
        [
            "pretrain",
            "--method", "CMCL",
            "--pairs", str(world_dir / "pairs.tsv"),
            "--vocab", str(world_dir / "vocab.txt"),
            "--bank", str(world_dir / "features.npz"),
            "--out", str(out),
            "--config", str(tiny_pretrain_config),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def teacher_dir(world_dir, tiny_pretrain_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("teacher") / "teacher"
    rc = main(
        [
            "teacher",
            "--objective", "cmcl",
            "--pairs", str(world_dir / "pairs.tsv"),
            "--vocab", str(world_dir / "vocab.txt"),
            "--bank", str(world_dir / "features.npz"),
            "--out", str(out),
            "--config", str(tiny_pretrain_config),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def student_dir(world_dir, tiny_pretrain_config, teacher_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("student") / "student"
    rc = main(
        [
            "distill",
            "--teacher", str(teacher_dir / "checkpoint-final.ckpt"),
            "--pairs", str(world_dir / "pairs.tsv"),
            "--vocab", str(world_dir / "vocab.txt"),
            "--out", str(out),
            "--config", str(tiny_pretrain_config),
        ]
    )
    assert rc == 0
    return out


def with_header(raw, edit):
    """Checkpoint bytes ``raw`` with ``edit`` applied to the parsed header."""
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + header_len])
    edit(header)
    blob = json.dumps(header).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + header_len :]


class TestSynthCommand:
    def test_writes_world_and_manifest(self, tmp_path):
        out = tmp_path / "w"
        assert main(["synth", "--out", str(out), "--seed", "3"]) == 0
        for name in ("pairs.tsv", "features.npz", "vocab.txt", "mcqa.jsonl"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["outputs"] == sorted(
            str(p) for p in out.iterdir() if p.name != "manifest.json")

    def test_rerun_identical_outside_manifest(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a), "--seed", "1"]) == 0
        assert main(["synth", "--out", str(b), "--seed", "1"]) == 0
        for member in sorted(a.iterdir()):
            if member.name == "manifest.json":
                continue
            assert member.read_bytes() == (b / member.name).read_bytes()


def config_command(command, world_dir, cmcl_dir, out):
    """(config, argv without --config, manifest path) for one command; every
    field of the config differs from its default where the run allows."""
    if command == "synth":
        config = SynthConfig(n_train_pairs=8, n_retrieval=2, mcqa_train=4, mcqa_dev=2,
                             mcqa_test=2, similarity_pairs=2, noise=0.2, seed=4)
        return config, ["synth", "--out", str(out)], out / "manifest.json"
    if command == "pretrain":
        config = PretrainConfig(batch_size=16, max_len=12, learning_rate=0.05, epochs=1,
                                temperature=0.1, margin=0.5, seed=4, hard_negative_cap=2,
                                voken_count=8, dim=8, ffn_dim=16, num_blocks=1,
                                dropout=0.2, pooling="first")
        argv = ["pretrain", "--method", "MLM", "--pairs", str(world_dir / "pairs.tsv"),
                "--vocab", str(world_dir / "vocab.txt"), "--out", str(out)]
        return config, argv, out / "manifest.json"
    config = FinetuneConfig(learning_rates=(0.1,), max_epochs_low_resource=1,
                            max_epochs_full=1, batch_size=32, seed=4)
    argv = ["eval", "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
            "--dataset", str(world_dir / "mcqa.jsonl"), "--protocol", "low64",
            "--out", str(out)]
    return config, argv, Path(str(out) + ".manifest.json")


@pytest.mark.parametrize("command", ["synth", "pretrain", "eval"])
def test_rejects_unknown_config_field(command, world_dir, cmcl_dir, tmp_path, capsys):
    """--config keys are exactly the fields of the command's config class:
    every field round-trips into the manifest, and one key more is exit 2."""
    config, argv, manifest_path = config_command(command, world_dir, cmcl_dir,
                                                 tmp_path / "out")
    fields = json.loads(json.dumps(dataclasses.asdict(config)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(fields))
    assert main(argv + ["--config", str(good)]) == 0
    recorded = json.loads(manifest_path.read_text())["config"]
    assert {key: recorded[key] for key in fields} == fields

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**fields, "bogus": 1}))
    capsys.readouterr()
    assert main(argv + ["--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and type(config).__name__ in err


WRONG_TYPED_FIELDS = {
    "synth": [{"noise": "x"}, {"n_train_pairs": 8.5}, {"seed": True}, {"noise": float("nan")}],
    "pretrain": [{"epochs": "x"}, {"learning_rate": False}, {"pooling": 1},
                 {"learning_rate": float("inf")}],
    "eval": [{"learning_rates": 0.1}, {"learning_rates": ["x"]}, {"batch_size": 16.0},
             {"learning_rates": [0.1, float("inf")]}],
}


@pytest.mark.parametrize(
    "command,fields",
    [(command, fields) for command, cases in WRONG_TYPED_FIELDS.items() for fields in cases],
    ids=lambda v: v if isinstance(v, str) else json.dumps(v),
)
def test_wrong_config_value_type_exit_2(command, fields, world_dir, cmcl_dir, tmp_path,
                                        capsys):
    """A --config value must have the type of the field's default; a float
    must also be finite."""
    _, argv, _ = config_command(command, world_dir, cmcl_dir, tmp_path / "out")
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(fields))
    assert main(argv + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and f".{next(iter(fields))} expects " in err


def finite_flag_argv(flag, value, world_dir, cmcl_dir, tiny_pretrain_config,
                     tiny_eval_config, out):
    if flag == "--learning-rate":
        return ["finetune", "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                "--dataset", str(world_dir / "mcqa.jsonl"), f"{flag}={value}",
                "--train-size", "32", "--config", str(tiny_eval_config), "--out", str(out)]
    return ["distill", "--teacher", str(cmcl_dir / "checkpoint-final.ckpt"),
            "--pairs", str(world_dir / "pairs.tsv"), "--vocab", str(world_dir / "vocab.txt"),
            "--config", str(tiny_pretrain_config), f"{flag}={value}", "--out", str(out)]


@pytest.mark.parametrize("flag,value", [("--learning-rate", "inf"), ("--learning-rate", "nan"),
                                        ("--mlm-weight", "inf"), ("--nst-weight", "nan"),
                                        ("--nst-weight", "-inf")])
def test_non_finite_float_flag_exit_2(flag, value, world_dir, cmcl_dir, tiny_pretrain_config,
                                      tiny_eval_config, tmp_path, capsys):
    """Float flags refuse NaN and infinities at parse time, before any
    training step can turn them into a non-finite loss."""
    out = tmp_path / "out"
    argv = finite_flag_argv(flag, value, world_dir, cmcl_dir, tiny_pretrain_config,
                            tiny_eval_config, out)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "finite" in err
    assert not out.exists()


def test_help_prints_usage_and_returns_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: cmkt")


@pytest.mark.parametrize(
    "cls,fields,expected",
    [
        (SynthConfig, {"noise": 0}, SynthConfig(noise=0.0)),
        (PretrainConfig, {"learning_rate": 1, "pooling": "first"},
         PretrainConfig(learning_rate=1.0, pooling="first")),
        (FinetuneConfig, {"learning_rates": [1, 0.5]}, FinetuneConfig(learning_rates=(1.0, 0.5))),
    ],
    ids=["synth", "pretrain", "eval"],
)
def test_config_takes_int_for_float_and_list_for_tuple(cls, fields, expected, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    assert cli._read_config(cls, SimpleNamespace(config=str(path), seed=None)) == expected


@pytest.mark.parametrize("name", ["pairs.tsv", "vocab.txt", "mcqa.jsonl", "runs.jsonl",
                                  "config.json"])
def test_non_utf8_input_exit_2_names_path(name, world_dir, cmcl_dir, tiny_pretrain_config,
                                          tmp_path, capsys):
    runs_path = tmp_path / "runs.jsonl"
    save_runs(fabricated_runs(), runs_path)
    sources = {"pairs.tsv": world_dir / "pairs.tsv", "vocab.txt": world_dir / "vocab.txt",
               "mcqa.jsonl": world_dir / "mcqa.jsonl", "runs.jsonl": runs_path,
               "config.json": tiny_pretrain_config}
    paths = {**sources, name: tmp_path / f"bad-{name}"}
    original = sources[name].read_bytes()
    paths[name].write_bytes(original[:10] + b"\xff" + original[11:])
    if name == "mcqa.jsonl":
        argv = ["eval", "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                "--dataset", str(paths["mcqa.jsonl"]), "--protocol", "low64",
                "--out", str(tmp_path / "out.jsonl")]
    elif name == "runs.jsonl":
        argv = ["report", "--runs", str(paths["runs.jsonl"]), "--out", str(tmp_path / "rep")]
    else:
        argv = ["pretrain", "--method", "MLM", "--pairs", str(paths["pairs.tsv"]),
                "--vocab", str(paths["vocab.txt"]), "--config", str(paths["config.json"]),
                "--out", str(tmp_path / "pre")]
    assert main(argv) == 2
    assert f"{paths[name]}: not UTF-8" in capsys.readouterr().err


def two_caption_perturb_argv(world_dir, tmp_path, out):
    pairs = tmp_path / "two.tsv"
    pairs.write_text(
        "img0\tthe red cat runs today\ttrain\n"
        "img1\tthe blue dog sleeps nearby\ttrain\n"
    )
    return [
        "perturb",
        "--pairs", str(pairs),
        "--lexicon", str(world_dir / "lexicon.tsv"),
        "--tags", str(world_dir / "postags.tsv"),
        "--oracle", "table",
        "--oracle-table", str(world_dir / "oracle.tsv"),
        "--out", str(out),
        "--seed", "0",
    ]


class TestPerturbCommand:
    def test_two_caption_fixture_bounded(self, world_dir, tmp_path):
        out = tmp_path / "records.tsv"
        assert main(two_caption_perturb_argv(world_dir, tmp_path, out)) == 0
        records = load_records(out)
        # 3 positions x 5 candidates per caption is the hard ceiling
        assert 0 < len(records) <= 2 * 15

    def test_config_flag_is_rejected(self, world_dir, tmp_path, capsys):
        """perturb has no settings, so --config is a usage error."""
        argv = two_caption_perturb_argv(world_dir, tmp_path, tmp_path / "r.tsv")
        assert main(argv + ["--config", "perturb.json"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_skips_non_train_pairs(self, world_dir, tmp_path):
        pairs = tmp_path / "dev_only.tsv"
        pairs.write_text("img0\tthe red cat runs today\tdev\n")
        out = tmp_path / "records.tsv"
        rc = main(
            [
                "perturb",
                "--pairs", str(pairs),
                "--lexicon", str(world_dir / "lexicon.tsv"),
                "--tags", str(world_dir / "postags.tsv"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert load_records(out) == []

    def test_rerun_byte_identical(self, world_dir, tmp_path):
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            rc = main(
                [
                    "perturb",
                    "--pairs", str(world_dir / "pairs.tsv"),
                    "--lexicon", str(world_dir / "lexicon.tsv"),
                    "--tags", str(world_dir / "postags.tsv"),
                    "--oracle", "table",
                    "--oracle-table", str(world_dir / "oracle.tsv"),
                    "--out", str(out),
                    "--seed", "7",
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_lexicon_exit_2_names_path(self, world_dir, tmp_path, capsys):
        rc = main(
            [
                "perturb",
                "--pairs", str(world_dir / "pairs.tsv"),
                "--lexicon", "no_such_lexicon.tsv",
                "--tags", str(world_dir / "postags.tsv"),
                "--out", str(tmp_path / "r.tsv"),
            ]
        )
        assert rc == 2
        assert "no_such_lexicon.tsv" in capsys.readouterr().err

    def test_table_oracle_requires_table_path(self, world_dir, tmp_path, capsys):
        rc = main(
            [
                "perturb",
                "--pairs", str(world_dir / "pairs.tsv"),
                "--lexicon", str(world_dir / "lexicon.tsv"),
                "--tags", str(world_dir / "postags.tsv"),
                "--oracle", "table",
                "--out", str(tmp_path / "r.tsv"),
            ]
        )
        assert rc == 2
        assert "--oracle-table" in capsys.readouterr().err


class TestPretrainCommand:
    def test_cmcl_exits_zero_with_loss_log(self, cmcl_dir):
        assert (cmcl_dir / "checkpoint-final.ckpt").exists()
        log = (cmcl_dir / "loss.csv").read_text().splitlines()
        assert log[0].startswith("step,epoch")
        assert len(log) > 1

    def test_epoch_checkpoints_written(self, cmcl_dir):
        """Each epoch replaces one resume checkpoint; none is archived."""
        assert not list(cmcl_dir.glob("checkpoint-epoch-*"))
        assert load_checkpoint(cmcl_dir / "checkpoint-last.ckpt").meta["epoch"] == 2

    def test_unknown_method_exit_2_lists_valid(self, world_dir, tmp_path, capsys):
        code = main(
            [
                "pretrain",
                "--method", "WAT",
                "--pairs", str(world_dir / "pairs.tsv"),
                "--vocab", str(world_dir / "vocab.txt"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "CMCL" in err and "MLM" in err and "CMKD" in err

    def test_same_seed_same_checkpoint(
        self, world_dir, tiny_pretrain_config, tmp_path
    ):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                [
                    "pretrain",
                    "--method", "MLM",
                    "--pairs", str(world_dir / "pairs.tsv"),
                    "--vocab", str(world_dir / "vocab.txt"),
                    "--out", str(out),
                    "--config", str(tiny_pretrain_config),
                    "--seed", "5",
                ]
            )
            assert rc == 0
            blobs.append((out / "checkpoint-final.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_flag_overrides_config(
        self, world_dir, tiny_pretrain_config, tmp_path
    ):
        out = tmp_path / "o"
        rc = main(
            [
                "pretrain",
                "--method", "MLM",
                "--pairs", str(world_dir / "pairs.tsv"),
                "--vocab", str(world_dir / "vocab.txt"),
                "--out", str(out),
                "--config", str(tiny_pretrain_config),
                "--seed", "11",
            ]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["config"]["seed"] == 11

    def test_cmcl_without_bank_exit_2(self, world_dir, tiny_pretrain_config,
                                      tmp_path, capsys):
        rc = main(
            [
                "pretrain",
                "--method", "CMCL",
                "--pairs", str(world_dir / "pairs.tsv"),
                "--vocab", str(world_dir / "vocab.txt"),
                "--out", str(tmp_path / "o"),
                "--config", str(tiny_pretrain_config),
            ]
        )
        assert rc == 2
        assert "bank" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", [["pretrain", "--method", "CMCL"],
                                         ["pretrain", "--method", "TCL"],
                                         ["teacher", "--objective", "hinge"]],
                             ids=["CMCL", "TCL", "teacher-hinge"])
    def test_diverging_learning_rate_exit_3_with_step(self, world_dir, tmp_path,
                                                      command, capsys):
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({"batch_size": 16, "max_len": 16, "epochs": 2,
                                   "learning_rate": 1e200, "dim": 16, "ffn_dim": 32,
                                   "num_blocks": 1}))
        rc = main(
            command + [
                "--pairs", str(world_dir / "pairs.tsv"),
                "--vocab", str(world_dir / "vocab.txt"),
                "--bank", str(world_dir / "features.npz"),
                "--out", str(tmp_path / "o"),
                "--config", str(cfg),
            ]
        )
        assert rc == 3
        assert re.search(r"non-finite .* at step \d+", capsys.readouterr().err)

    def test_divergence_in_epoch_2_keeps_epoch_1_and_writes_no_manifest(
        self, world_dir, tiny_pretrain_config, tmp_path, monkeypatch, capsys
    ):
        """Each epoch's checkpoint is on disk as soon as the epoch ends, so a
        run that fails later keeps its last completed epoch; without a
        manifest it reads as unfinished."""
        from cmkt import training
        from cmkt.corpus import load_pairs
        from cmkt.errors import TrainingError

        train = [p for p in load_pairs(world_dir / "pairs.tsv") if p.split == "train"]
        first_step_of_epoch_2 = -(-len(train) // 16)  # batch_size 16
        real_sgd = training._sgd

        def diverge(params, grads, lr, step):
            if step == first_step_of_epoch_2:
                raise TrainingError(f"non-finite parameter tok_emb at step {step}", step=step)
            real_sgd(params, grads, lr, step)

        monkeypatch.setattr(training, "_sgd", diverge)
        out = tmp_path / "o"
        rc = main(["pretrain", "--method", "MLM",
                   "--pairs", str(world_dir / "pairs.tsv"),
                   "--vocab", str(world_dir / "vocab.txt"),
                   "--config", str(tiny_pretrain_config), "--out", str(out)])
        assert rc == 3
        assert f"at step {first_step_of_epoch_2}" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint-last.ckpt"]
        assert load_checkpoint(out / "checkpoint-last.ckpt").meta["epoch"] == 1

    def test_manifest_hashes_inputs(self, cmcl_dir):
        manifest = json.loads((cmcl_dir / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"pairs", "vocab", "bank"}
        for entry in manifest["inputs"].values():
            assert len(entry["blake2b"]) == 32

    def test_bank_hash_covers_the_ids(self, world_dir, tiny_pretrain_config, tmp_path):
        """Two banks with equal rows whose ids differ in one place hash apart.
        MLM loads the bank it is given without looking anything up in it."""
        bank = FeatureBank.load(world_dir / "features.npz")
        ids = list(bank._ids)
        ids[-1] = "renamed"
        digests = []
        for name, bank_ids in (("a", bank._ids), ("b", ids)):
            FeatureBank(bank_ids, bank._features).save(tmp_path / f"{name}.npz")
            assert main(["pretrain", "--method", "MLM", "--pairs", str(world_dir / "pairs.tsv"),
                         "--vocab", str(world_dir / "vocab.txt"),
                         "--bank", str(tmp_path / f"{name}.npz"),
                         "--config", str(tiny_pretrain_config),
                         "--out", str(tmp_path / name)]) == 0
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            digests.append(manifest["inputs"]["bank"]["blake2b"])
        assert digests[0] != digests[1]


RUN_FILES = ["checkpoint-final.ckpt", "checkpoint-last.ckpt", "loss.csv", "manifest.json"]


@pytest.mark.parametrize("run", ["cmcl_dir", "teacher_dir", "student_dir"],
                         ids=["pretrain", "teacher", "distill"])
class TestRunDirectory:
    def test_finished_run_holds_exactly_its_outputs(self, run, request):
        out = request.getfixturevalue(run)
        assert sorted(p.name for p in out.iterdir()) == RUN_FILES
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / name) for name in RUN_FILES[:-1]]

    def test_last_checkpoint_is_the_final_one_but_for_kind(self, run, request):
        out = request.getfixturevalue(run)
        last = load_checkpoint(out / "checkpoint-last.ckpt")
        final = load_checkpoint(out / "checkpoint-final.ckpt")
        assert last.params.keys() == final.params.keys()
        for name, value in final.params.items():
            np.testing.assert_array_equal(last.params[name], value)
        assert (last.meta["kind"], final.meta["kind"]) == ("epoch", "final")
        assert {**last.meta, "kind": "final"} == final.meta


class TestTeacherDistillCommands:
    def test_teacher_then_distill(self, student_dir):
        assert (student_dir / "checkpoint-final.ckpt").exists()

    def test_width_mismatch_exit_2_names_both_widths(self, world_dir, tiny_pretrain_config,
                                                     tmp_path, capsys):
        """A dim-16 student cannot match a dim-32 teacher's block states."""
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"batch_size": 16, "max_len": 16, "epochs": 1,
                                    "dim": 32, "ffn_dim": 32, "num_blocks": 1}))
        data = ["--pairs", str(world_dir / "pairs.tsv"), "--vocab", str(world_dir / "vocab.txt")]
        assert main(["teacher", *data, "--bank", str(world_dir / "features.npz"),
                     "--config", str(wide), "--out", str(tmp_path / "teacher")]) == 0
        capsys.readouterr()
        student = tmp_path / "student"
        rc = main(["distill", "--teacher", str(tmp_path / "teacher" / "checkpoint-final.ckpt"),
                   *data, "--config", str(tiny_pretrain_config), "--out", str(student)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "dim 32" in err and "asks for 16" in err
        assert not student.exists()

    def test_missing_teacher_exit_2(self, world_dir, tmp_path, capsys):
        rc = main(
            [
                "distill",
                "--teacher", "gone.ckpt",
                "--pairs", str(world_dir / "pairs.tsv"),
                "--vocab", str(world_dir / "vocab.txt"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert "gone.ckpt" in capsys.readouterr().err


def no_test_split(world_dir, tmp_path) -> Path:
    """The world's MCQA dataset without its test items, saved in tmp_path."""
    full = load_mcqa(world_dir / "mcqa.jsonl")
    path = tmp_path / "no_test.jsonl"
    save_mcqa(MCQADataset.from_items("trimmed", [i for i in full.items if i.split != "test"]),
              path)
    return path


class TestFinetuneCommand:
    def test_writes_accuracy_json(self, world_dir, cmcl_dir, tiny_eval_config,
                                  tmp_path):
        out = tmp_path / "result.json"
        rc = main(
            [
                "finetune",
                "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                "--dataset", str(world_dir / "mcqa.jsonl"),
                "--learning-rate", "0.1",
                "--train-size", "32",
                "--config", str(tiny_eval_config),
                "--out", str(out),
            ]
        )
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["method"] == "CMCL"
        assert 0.0 <= result["test_accuracy"] <= 1.0
        assert result["train_size"] == "32"

    def test_oversized_subset_exit_2(self, world_dir, cmcl_dir, tiny_eval_config,
                                     tmp_path, capsys):
        rc = main(
            [
                "finetune",
                "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                "--dataset", str(world_dir / "mcqa.jsonl"),
                "--learning-rate", "0.1",
                "--train-size", "99999",
                "--config", str(tiny_eval_config),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert "99999" in capsys.readouterr().err


    def test_missing_test_split_exit_2_before_fine_tuning(self, world_dir, cmcl_dir,
                                                          tiny_eval_config, tmp_path,
                                                          capsys, monkeypatch):
        calls = []
        real = cli.finetune

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "finetune", spy)
        rc = main(["finetune", "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                   "--dataset", str(no_test_split(world_dir, tmp_path)),
                   "--learning-rate", "0.1", "--train-size", "32",
                   "--config", str(tiny_eval_config), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "no test split" in capsys.readouterr().err
        assert calls == []

    def test_diverging_learning_rate_exit_3_with_step(self, world_dir, cmcl_dir,
                                                      tiny_eval_config, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.warns(RuntimeWarning):  # the overflow that makes the loss NaN
            rc = main(
                [
                    "finetune",
                    "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                    "--dataset", str(world_dir / "mcqa.jsonl"),
                    "--learning-rate", "1e250",
                    "--train-size", "32",
                    "--config", str(tiny_eval_config),
                    "--out", str(out),
                ]
            )
        assert rc == 3
        assert "non-finite loss" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_diverged_step_exit_3_without_accuracy(self, world_dir, cmcl_dir, tmp_path,
                                                       capsys):
        """One step at 1e300 has a finite loss but leaves every score NaN,
        where argmax would report the share of test items whose gold is 0."""
        cfg = tmp_path / "one-step.json"
        cfg.write_text(json.dumps({"max_epochs_low_resource": 1, "batch_size": 16}))
        out = tmp_path / "r.json"
        rc = main(["finetune", "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                   "--dataset", str(world_dir / "mcqa.jsonl"), "--learning-rate", "1e300",
                   "--train-size", "16", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert "non-finite choice scores" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["abc", "-5", "0", "1.5"])
    def test_bad_train_size_exit_2(self, world_dir, cmcl_dir, tiny_eval_config, size,
                                   tmp_path, capsys):
        """--train-size is 'full' or a positive int, checked at parse time."""
        code = main(["finetune", "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                     "--dataset", str(world_dir / "mcqa.jsonl"), "--learning-rate", "0.1",
                     "--train-size", size, "--config", str(tiny_eval_config),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "--train-size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda meta: meta["encoder_config"].update(colour=1), "encoder_config"),
            (lambda meta: meta.update(encoder_config=[16]), "encoder_config"),
            (lambda meta: meta.update(vocab=7), "vocab"),
            (lambda meta: meta["encoder_config"].update(dim="4"), "encoder_config"),
            (lambda meta: meta["encoder_config"].update(dim=4.0), "encoder_config"),
            (lambda meta: meta["vocab"].append("zzz"), "vocab"),
            (lambda meta: meta["vocab"].pop(), "vocab"),
        ],
        ids=["unknown-config-key", "config-not-object", "vocab-not-list", "dim-string",
             "dim-float", "vocab-longer-than-config", "vocab-shorter-than-config"],
    )
    def test_bad_bundle_metadata_exit_2_names_field(self, world_dir, cmcl_dir, tiny_eval_config,
                                                    edit, field, tmp_path, capsys):
        raw = (cmcl_dir / "checkpoint-final.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(raw, lambda header: edit(header["meta"])))
        code = main(["finetune", "--checkpoint", str(bad),
                     "--dataset", str(world_dir / "mcqa.jsonl"), "--learning-rate", "0.1",
                     "--train-size", "16", "--config", str(tiny_eval_config),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"checkpoint {field}:" in capsys.readouterr().err


class TestEvalCommand:
    @pytest.mark.parametrize("key, value", [("dim", 4.0), ("max_len", 16.0), ("init_scale", "x")])
    def test_bad_bundle_config_exit_2(self, world_dir, cmcl_dir, tiny_eval_config, key, value,
                                      tmp_path, capsys):
        """The protocol tokenizes from the bundle's config before any encoder
        is restored; a bad field still exits 2 and names encoder_config."""
        raw = (cmcl_dir / "checkpoint-final.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(raw, lambda header: header["meta"]["encoder_config"]
                                    .update({key: value})))
        code = main(["eval", "--checkpoint", str(bad), "--dataset", str(world_dir / "mcqa.jsonl"),
                     "--protocol", "low64", "--config", str(tiny_eval_config),
                     "--out", str(tmp_path / "runs.jsonl")])
        assert code == 2
        assert "checkpoint encoder_config:" in capsys.readouterr().err

    def test_low64_writes_five_run_seeds(self, world_dir, cmcl_dir,
                                         tiny_eval_config, tmp_path):
        out = tmp_path / "runs.jsonl"
        rc = main(
            [
                "eval",
                "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                "--dataset", str(world_dir / "mcqa.jsonl"),
                "--protocol", "low64",
                "--config", str(tiny_eval_config),
                "--out", str(out),
            ]
        )
        assert rc == 0
        runs = load_runs(out)
        assert len(runs) == 1
        assert runs[0].size == "64"
        assert len(runs[0].accuracies) == 5
        assert runs[0].method == "CMCL"

    def test_manifest_records_provenance(self, world_dir, cmcl_dir, tiny_eval_config,
                                         tmp_path):
        """The manifest holds the command's own wall time (not the
        process's), the process's peak RSS and the library versions."""
        out = tmp_path / "runs.jsonl"
        started = time.perf_counter()
        assert main(["eval", "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                     "--dataset", str(world_dir / "mcqa.jsonl"), "--protocol", "low64",
                     "--config", str(tiny_eval_config), "--out", str(out)]) == 0
        elapsed = time.perf_counter() - started
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert 0 < manifest["wall_s"] <= elapsed
        assert manifest["peak_rss_mb"] > 0
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__

    @MULTI_CORE
    def test_manifest_records_worker_peak(self, world_dir, cmcl_dir, tiny_eval_config,
                                          tmp_path):
        """A fresh ``eval`` process records the peak RSS of its largest
        fine-tune worker; a ``finetune``, which forks none, records 0."""
        common = ["--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                  "--dataset", str(world_dir / "mcqa.jsonl"), "--config", str(tiny_eval_config)]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        peaks = {}
        for command, extra in (("eval", ["--protocol", "low64"]),
                               ("finetune", ["--train-size", "64", "--learning-rate", "0.1"])):
            out = tmp_path / f"{command}.json"
            subprocess.run([sys.executable, "-m", "cmkt.cli", command, *common, *extra,
                            "--out", str(out)], env=env, check=True, capture_output=True)
            peaks[command] = json.loads(Path(f"{out}.manifest.json").read_text())
        assert peaks["eval"]["peak_rss_children_mb"] > 10
        assert peaks["finetune"]["peak_rss_children_mb"] == 0

    @MULTI_CORE
    def test_manifest_records_cpu_seconds_and_blas(self, world_dir, cmcl_dir,
                                                   tiny_pretrain_config, tmp_path):
        """A fresh ``distill`` process, whose two components run side by
        side, records its step worker's CPU seconds; an MLM ``pretrain``,
        which forks none, records 0. Both name numpy's BLAS library."""
        data = ["--pairs", str(world_dir / "pairs.tsv"), "--vocab", str(world_dir / "vocab.txt"),
                "--config", str(tiny_pretrain_config)]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        manifests = {}
        for name, command in (("distill", ["distill", "--teacher",
                                           str(cmcl_dir / "checkpoint-final.ckpt")]),
                              ("mlm", ["pretrain", "--method", "MLM"])):
            subprocess.run([sys.executable, "-m", "cmkt.cli", *command, *data,
                            "--out", str(tmp_path / name)], env=env, check=True,
                           capture_output=True)
            manifests[name] = json.loads((tmp_path / name / "manifest.json").read_text())
        for manifest in manifests.values():
            assert manifest["cpu_s"] > 0
            assert manifest["blas"] == f"{blas['name']} {blas['version']}"
        assert manifests["distill"]["cpu_children_s"] > 0
        assert manifests["mlm"]["cpu_children_s"] == 0

    @MULTI_CORE
    def test_worker_divergence_exits_3_as_one_process_does(self, world_dir, cmcl_dir,
                                                          tmp_path, monkeypatch, capsys):
        config = tmp_path / "diverge.json"
        config.write_text(json.dumps({"learning_rates": [0.1, 1e250], "batch_size": 16,
                                      "max_epochs_low_resource": 2}))
        argv = ["eval", "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                "--dataset", str(world_dir / "mcqa.jsonl"), "--protocol", "low64",
                "--config", str(config), "--out", str(tmp_path / "runs.jsonl")]
        errors = []
        for forked in (True, False):
            if not forked:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            with pytest.warns(RuntimeWarning):
                assert main(argv) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "non-finite" in errors[0]
        assert not (tmp_path / "runs.jsonl").exists()

    @MULTI_CORE
    def test_dead_worker_exits_3(self, world_dir, cmcl_dir, tiny_eval_config, tmp_path,
                                 monkeypatch, capsys):
        parent = os.getpid()
        real = evaluation.finetune

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(evaluation, "finetune", dying)
        rc = main(["eval", "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                   "--dataset", str(world_dir / "mcqa.jsonl"), "--protocol", "low64",
                   "--config", str(tiny_eval_config), "--out", str(tmp_path / "runs.jsonl")])
        assert rc == 3
        assert "before sending its results" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_full_protocol_three_seeds(self, world_dir, cmcl_dir,
                                       tiny_eval_config, tmp_path):
        out = tmp_path / "runs.jsonl"
        rc = main(
            [
                "eval",
                "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                "--dataset", str(world_dir / "mcqa.jsonl"),
                "--protocol", "full",
                "--config", str(tiny_eval_config),
                "--out", str(out),
            ]
        )
        assert rc == 0
        runs = load_runs(out)
        assert len(runs) == 1
        assert runs[0].size == "full"
        assert len(runs[0].accuracies) == 3

    def test_method_label_override(self, world_dir, cmcl_dir, tiny_eval_config,
                                   tmp_path):
        out = tmp_path / "runs.jsonl"
        rc = main(
            [
                "eval",
                "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                "--dataset", str(world_dir / "mcqa.jsonl"),
                "--protocol", "low64",
                "--method", "CMCL+ANS",
                "--config", str(tiny_eval_config),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert load_runs(out)[0].method == "CMCL+ANS"

    def test_missing_test_split_exit_2(self, world_dir, cmcl_dir,
                                       tiny_eval_config, tmp_path, capsys):
        rc = main(
            [
                "eval",
                "--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
                "--dataset", str(no_test_split(world_dir, tmp_path)),
                "--protocol", "low64",
                "--config", str(tiny_eval_config),
                "--out", str(tmp_path / "runs.jsonl"),
            ]
        )
        assert rc == 2
        assert "test" in capsys.readouterr().err

    def test_checkpoint_header_without_tensors_exit_2(self, world_dir, cmcl_dir,
                                                      tiny_eval_config, tmp_path, capsys):
        raw = (cmcl_dir / "checkpoint-final.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(raw, lambda header: header.pop("tensors")))
        rc = main(
            [
                "eval",
                "--checkpoint", str(bad),
                "--dataset", str(world_dir / "mcqa.jsonl"),
                "--protocol", "low64",
                "--config", str(tiny_eval_config),
                "--out", str(tmp_path / "runs.jsonl"),
            ]
        )
        assert rc == 2
        assert "tensor list" in capsys.readouterr().err


def fabricated_runs():
    runs = []
    for method in ("MLM", "CMCL"):
        for dataset in ("alpha", "beta"):
            for size, base in (("64", 0.5), ("128", 0.6)):
                bump = 0.1 if method == "CMCL" else 0.0
                runs.append(
                    EvalRun(
                        dataset=dataset,
                        method=method,
                        size=size,
                        accuracies=(base + bump, base + bump + 0.02),
                        seeds=(0, 1),
                        learning_rate=1e-4,
                    )
                )
    return runs


MANIFEST_COMMANDS = ("synth", "perturb", "pretrain", "teacher", "distill", "finetune", "eval",
                     "report")
DIRECTORY_OUT = {"synth", "pretrain", "teacher", "distill", "report"}


def manifest_argv(command, world_dir, cmcl_dir, teacher_dir, tiny_pretrain_config,
                  tiny_eval_config, tmp_path, out):
    """A succeeding argv of ``command`` that writes to ``out``."""
    data = ["--pairs", str(world_dir / "pairs.tsv"), "--vocab", str(world_dir / "vocab.txt"),
            "--config", str(tiny_pretrain_config), "--out", str(out)]
    model = ["--checkpoint", str(cmcl_dir / "checkpoint-final.ckpt"),
             "--dataset", str(world_dir / "mcqa.jsonl"), "--config", str(tiny_eval_config),
             "--out", str(out)]
    bank = ["--bank", str(world_dir / "features.npz")]
    if command == "perturb":
        return two_caption_perturb_argv(world_dir, tmp_path, out)
    if command == "report":
        save_runs(fabricated_runs(), tmp_path / "runs.jsonl")
        return ["report", "--runs", str(tmp_path / "runs.jsonl"), "--out", str(out)]
    return {
        "synth": ["synth", "--out", str(out), "--seed", "3"],
        "pretrain": ["pretrain", "--method", "MLM", *data],
        "teacher": ["teacher", *bank, *data],
        "distill": ["distill", "--teacher", str(teacher_dir / "checkpoint-final.ckpt"), *data],
        "finetune": ["finetune", "--learning-rate", "0.1", "--train-size", "32", *model],
        "eval": ["eval", "--protocol", "low64", *model],
    }[command]


@pytest.mark.parametrize("command", MANIFEST_COMMANDS)
def test_each_command_writes_one_manifest_where_the_rule_puts_it(
        command, world_dir, cmcl_dir, teacher_dir, tiny_pretrain_config, tiny_eval_config,
        tmp_path):
    """Inside a directory --out, beside a file --out; it names the command
    and lists outputs that exist."""
    out = tmp_path / "out"
    assert main(manifest_argv(command, world_dir, cmcl_dir, teacher_dir, tiny_pretrain_config,
                              tiny_eval_config, tmp_path, out)) == 0
    expected = out / "manifest.json" if command in DIRECTORY_OUT else tmp_path / "out.manifest.json"
    assert sorted(tmp_path.rglob("*manifest.json")) == [expected]
    manifest = json.loads(expected.read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] and all(Path(p).is_file() for p in manifest["outputs"])


def test_failed_command_writes_no_manifest(tmp_path, capsys):
    """report cannot make its output directory where a file stands, and
    leaves no manifest beside that file."""
    runs_path = tmp_path / "runs.jsonl"
    save_runs(fabricated_runs(), runs_path)
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["report", "--runs", str(runs_path), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*manifest.json"))


@pytest.mark.parametrize("command, where", [
    (command, where) for command in ("synth", "pretrain", "teacher", "distill", "perturb")
    for where in ("out", "parent") if (command, where) != ("perturb", "out")  # a file --out
])
def test_out_blocked_by_a_file_is_bad_input(command, where, world_dir, cmcl_dir, teacher_dir,
                                            tiny_pretrain_config, tiny_eval_config, tmp_path,
                                            monkeypatch, capsys):
    """A file standing at --out or at a parent of it exits 2 and names the
    file; the trainers stop before any training starts."""
    calls = []
    for name in ("pretrain", "train_teacher", "distill"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args))
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker if where == "out" else blocker / "out"
    argv = manifest_argv(command, world_dir, cmcl_dir, teacher_dir, tiny_pretrain_config,
                         tiny_eval_config, tmp_path, out)
    assert main(argv) == 2
    assert str(blocker) in capsys.readouterr().err
    assert calls == []


class TestReportCommand:
    def test_config_flag_is_rejected(self, tmp_path, capsys):
        runs_path = tmp_path / "runs.jsonl"
        save_runs(fabricated_runs(), runs_path)
        assert main(["report", "--runs", str(runs_path), "--config", "report.json",
                     "--out", str(tmp_path / "rep")]) == 2
        assert "--config" in capsys.readouterr().err

    def test_two_by_four_grid(self, tmp_path, capsys):
        runs_path = tmp_path / "runs.jsonl"
        save_runs(fabricated_runs(), runs_path)
        out = tmp_path / "rep"
        rc = main(
            ["report", "--runs", str(runs_path), "--out", str(out),
             "--layout", "low_resource"]
        )
        assert rc == 0
        text = (out / "report.txt").read_text()
        header = text.splitlines()[0]
        for column in ("alpha-64", "alpha-128", "beta-64", "beta-128", "average"):
            assert column in header
        assert "MLM" in text and "CMCL" in text
        assert (out / "report.csv").exists()

    def test_plot_series_format(self, tmp_path):
        runs_path = tmp_path / "runs.jsonl"
        save_runs(fabricated_runs(), runs_path)
        out = tmp_path / "rep"
        rc = main(
            ["report", "--runs", str(runs_path), "--out", str(out), "--plot-data"]
        )
        assert rc == 0
        lines = (out / "plot.csv").read_text().splitlines()
        assert lines[0] == "method,size,mean_accuracy"
        body = [l.split(",") for l in lines[1:]]
        assert {row[0] for row in body} == {"MLM", "CMCL"}
        assert all(row[1] in ("64", "128") for row in body)
        assert all(0.0 <= float(row[2]) <= 1.0 for row in body)

    def test_render_writes_svg(self, tmp_path):
        runs_path = tmp_path / "runs.jsonl"
        save_runs(fabricated_runs(), runs_path)
        out = tmp_path / "rep"
        rc = main(
            ["report", "--runs", str(runs_path), "--out", str(out), "--render"]
        )
        assert rc == 0
        svg = (out / "plot.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_non_numeric_learning_rate_exit_2_names_line(self, tmp_path, capsys):
        runs_path = tmp_path / "runs.jsonl"
        save_runs(fabricated_runs(), runs_path)
        lines = runs_path.read_text().splitlines()
        raw = json.loads(lines[1])
        raw["learning_rate"] = "x"
        lines[1] = json.dumps(raw)
        runs_path.write_text("\n".join(lines) + "\n")
        rc = main(["report", "--runs", str(runs_path), "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert f"{runs_path}:2:" in capsys.readouterr().err

    def test_missing_cell_nonzero_exit_lists_it(self, tmp_path, capsys):
        runs = [r for r in fabricated_runs()
                if not (r.method == "CMCL" and r.dataset == "beta" and r.size == "128")]
        runs_path = tmp_path / "runs.jsonl"
        save_runs(runs, runs_path)
        rc = main(
            ["report", "--runs", str(runs_path), "--out", str(tmp_path / "rep")]
        )
        assert rc == 2
        assert "CMCL/beta/128" in capsys.readouterr().err

    def test_multiple_run_files_merge(self, tmp_path):
        runs = fabricated_runs()
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_runs(runs[:4], path_a)
        save_runs(runs[4:], path_b)
        out = tmp_path / "rep"
        rc = main(
            ["report", "--runs", str(path_a), str(path_b), "--out", str(out)]
        )
        assert rc == 0


class TestPathResolution:
    def test_data_dir_fallback(self, world_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("CMKT_DATA_DIR", str(world_dir))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "records.tsv"
        rc = main(
            [
                "perturb",
                "--pairs", "pairs.tsv",
                "--lexicon", "lexicon.tsv",
                "--tags", "postags.tsv",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.exists()

    def test_local_file_wins_over_data_dir(self, world_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("CMKT_DATA_DIR", str(world_dir))
        monkeypatch.chdir(tmp_path)
        # a local (but empty, hence invalid) pairs file shadows the data dir
        Path("pairs.tsv").write_text("broken\n")
        rc = main(
            [
                "perturb",
                "--pairs", "pairs.tsv",
                "--lexicon", "lexicon.tsv",
                "--tags", "postags.tsv",
                "--out", str(tmp_path / "r.tsv"),
            ]
        )
        assert rc == 2


class TestAllocatorHook:
    """Training sets both malloc thresholds where its loop starts, so CLI
    commands and library calls alike keep freed activation buffers."""

    @staticmethod
    def pretrain_argv(world_dir, config, out):
        return ["pretrain", "--method", "MLM", "--pairs", str(world_dir / "pairs.tsv"),
                "--vocab", str(world_dir / "vocab.txt"), "--config", str(config),
                "--out", str(out)]

    def test_every_training_run_sets_both_thresholds(self, world_dir, tiny_pretrain_config,
                                                     tmp_path, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert main(["synth", "--out", str(tmp_path / "w"), "--seed", "1"]) == 0
        assert calls == []
        assert main(self.pretrain_argv(world_dir, tiny_pretrain_config, tmp_path / "o")) == 0
        data = training.TrainingData(load_pairs(world_dir / "pairs.tsv"),
                                     Vocab.load(world_dir / "vocab.txt"))
        config = PretrainConfig(**json.loads(tiny_pretrain_config.read_text()))
        training.pretrain("MLM", data, config)
        assert calls == [(-1, 128 << 20), (-3, 32 << 20)] * 2

    def test_real_libc_call_is_repeatable(self):
        assert training._keep_freed_heap() is None
        assert training._keep_freed_heap() is None

    def test_missing_glibc_is_a_silent_no_op(self, world_dir, tiny_pretrain_config, tmp_path,
                                             monkeypatch, capsys):
        def no_libc(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(training.ctypes, "CDLL", no_libc)
        assert training._keep_freed_heap() is None
        assert main(self.pretrain_argv(world_dir, tiny_pretrain_config, tmp_path / "o")) == 0
        assert capsys.readouterr().err == ""
