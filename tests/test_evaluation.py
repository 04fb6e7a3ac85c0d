"""Downstream harness tests: datasets, fine-tuning, protocols, report."""

import json
import os
import re
import warnings

import numpy as np
import pytest

import cmkt.evaluation as evaluation_module
from cmkt.checkpoint import bundle_text_encoder
from cmkt.corpus import SPECIALS, Vocab
from cmkt.encoders import TextEncoder, TextEncoderConfig
from cmkt.errors import ConfigError, ParseError, ReportError, ShapeError, TrainingError
from cmkt.evaluation import (
    EvalRun,
    FinetuneConfig,
    MCQADataset,
    MCQAItem,
    TaskModel,
    build_task_model,
    evaluate,
    finetune,
    format_cell,
    grid_search,
    load_mcqa,
    load_runs,
    low_resource_protocol,
    parse_report_csv,
    plot_series,
    report,
    retrieval_recall_at_1,
    save_mcqa,
    save_runs,
    supervised_protocol,
)

WORDS = list(SPECIALS) + [
    "the", "a", "red", "blue", "green", "cat", "dog", "bird",
    "runs", "sleeps", "big", "small", "one", "two", "three",
]


def make_vocab():
    return Vocab(WORDS)


def encoder_config(vocab, max_len=12, dim=8):
    return TextEncoderConfig(
        vocab_size=len(vocab), dim=dim, ffn_dim=2 * dim, num_blocks=1,
        max_len=max_len, dropout=0.1, pooling="mean",
    )


def make_checkpoint(seed=0, dim=8):
    vocab = make_vocab()
    encoder = TextEncoder(encoder_config(vocab, dim=dim), seed=seed)
    return bundle_text_encoder(encoder, vocab, {"method": "random-init"})


def make_items(n_train=20, n_dev=6, n_test=8, n_choices=4, seed=3):
    """Learnable toy task: the gold choice names an animal."""
    rng = np.random.default_rng(seed)
    animals = ["cat", "dog", "bird"]
    others = ["red", "blue", "green", "big", "small", "one", "two"]
    items = []
    for split, count in (("train", n_train), ("dev", n_dev), ("test", n_test)):
        for _ in range(count):
            gold_text = f"the {animals[int(rng.integers(3))]} runs"
            choices = [gold_text] + [
                f"the {others[int(rng.integers(len(others)))]} {others[int(rng.integers(len(others)))]}"
                for _ in range(n_choices - 1)
            ]
            order = rng.permutation(n_choices)
            items.append(
                MCQAItem(
                    question="which one is the animal",
                    choices=tuple(choices[int(i)] for i in order),
                    gold=int(np.argmax(order == 0)),
                    split=split,
                )
            )
    return items


def make_dataset(**kwargs):
    return MCQADataset.from_items("animals", make_items(**kwargs))


class CallLog:
    """What a spy saw, one JSON line per call appended to a file, so that
    calls made in forked fine-tune workers count too."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def add(self, value=None):
        with open(self.path, "a", encoding="utf-8") as log:
            log.write(json.dumps([os.getpid(), value]) + "\n")

    def entries(self):
        return [json.loads(line) for line in self.path.read_text(encoding="utf-8").splitlines()]

    def values(self):
        return [value for _, value in self.entries()]

    def pids(self):
        return {pid for pid, _ in self.entries()}

    def clear(self):
        self.path.write_text("", encoding="utf-8")


def spy_on(monkeypatch, log, name, key=lambda args: None):
    """Replaces evaluation.<name> with a wrapper that logs key(args)."""
    real = getattr(evaluation_module, name)

    def spy(*args, **kwargs):
        log.add(key(args))
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation_module, name, spy)
    return log


class TestMCQAItem:
    def test_rejects_single_choice(self):
        with pytest.raises(ConfigError):
            MCQAItem(question="q", choices=("a",), gold=0, split="train")

    def test_rejects_gold_out_of_range(self):
        with pytest.raises(ConfigError):
            MCQAItem(question="q", choices=("a", "b"), gold=2, split="train")

    def test_rejects_negative_gold(self):
        with pytest.raises(ConfigError):
            MCQAItem(question="q", choices=("a", "b"), gold=-1, split="train")

    def test_rejects_unknown_split(self):
        with pytest.raises(ConfigError):
            MCQAItem(question="q", choices=("a", "b"), gold=0, split="eval")

    @pytest.mark.parametrize("choices", ["ab", ("a", 1)])
    def test_rejects_choices_that_are_not_strings(self, choices):
        with pytest.raises(ConfigError, match="list of strings"):
            MCQAItem(question="q", choices=choices, gold=0, split="train")

    @pytest.mark.parametrize("gold", [1.0, True, "1"])
    def test_rejects_gold_that_is_not_an_int(self, gold):
        with pytest.raises(ConfigError, match="integer"):
            MCQAItem(question="q", choices=("a", "b"), gold=gold, split="train")

    def test_binary_items_allowed(self):
        item = MCQAItem(question="q", choices=("yes", "no"), gold=1, split="test")
        assert len(item.choices) == 2


class TestMCQADataset:
    def test_from_items_counts_choices(self):
        ds = make_dataset()
        assert ds.n_choices == 4
        assert ds.name == "animals"

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            MCQADataset.from_items("empty", [])

    def test_rejects_mixed_choice_counts(self):
        items = [
            MCQAItem(question="q", choices=("a", "b"), gold=0, split="train"),
            MCQAItem(question="q", choices=("a", "b", "c"), gold=0, split="train"),
        ]
        with pytest.raises(ConfigError, match="mixes"):
            MCQADataset.from_items("bad", items)

    def test_split_filter(self):
        ds = make_dataset(n_train=5, n_dev=2, n_test=3)
        assert len(ds.split("train")) == 5
        assert len(ds.split("dev")) == 2
        assert len(ds.split("test")) == 3

    def test_split_rejects_unknown(self):
        with pytest.raises(ConfigError):
            make_dataset().split("validation")

    def test_jsonl_roundtrip(self, tmp_path):
        ds = make_dataset()
        path = tmp_path / "task.jsonl"
        save_mcqa(ds, path)
        back = load_mcqa(path, name="animals")
        assert back.items == ds.items
        assert back.n_choices == ds.n_choices

    def test_load_names_from_stem_by_default(self, tmp_path):
        path = tmp_path / "riddles.jsonl"
        save_mcqa(make_dataset(), path)
        assert load_mcqa(path).name == "riddles"

    def test_load_reports_bad_line_number(self, tmp_path):
        path = tmp_path / "task.jsonl"
        save_mcqa(make_dataset(n_train=2, n_dev=1, n_test=1), path)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=":3:"):
            load_mcqa(path)

    def test_load_rejects_missing_field(self, tmp_path):
        path = tmp_path / "task.jsonl"
        path.write_text('{"question": "q", "choices": ["a", "b"], "gold": 0}\n')
        with pytest.raises(ParseError, match=":1:"):
            load_mcqa(path)

    def test_load_rejects_non_integer_gold(self, tmp_path):
        path = tmp_path / "task.jsonl"
        path.write_text(
            '{"question": "q", "choices": ["a", "b"], "gold": 0, "split": "train"}\n'
            '{"question": "q", "choices": ["a", "b"], "gold": "x", "split": "train"}\n'
        )
        with pytest.raises(ParseError, match=":2:"):
            load_mcqa(path)

    @pytest.mark.parametrize("gold", ["1.7", "1.0", "true", '"1"', "null", "[1]"])
    def test_load_rejects_gold_that_is_not_a_json_integer(self, tmp_path, gold):
        path = tmp_path / "task.jsonl"
        path.write_text(
            '{"question": "q", "choices": ["a", "b"], "gold": 0, "split": "train"}\n\n'
            f'{{"question": "q", "choices": ["a", "b"], "gold": {gold}, "split": "train"}}\n'
        )
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: ")):
            load_mcqa(path)


class TestFinetuneConfig:
    def test_default_grid(self):
        cfg = FinetuneConfig()
        assert cfg.learning_rates == (5e-5, 1e-4, 3e-4, 4e-4, 5e-4, 6e-4)
        assert cfg.max_epochs_low_resource == 30
        assert cfg.max_epochs_full == 15

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            FinetuneConfig(learning_rates=())

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigError):
            FinetuneConfig(learning_rates=(1e-4, 0.0))

    def test_rejects_zero_epochs(self):
        with pytest.raises(ConfigError):
            FinetuneConfig(max_epochs_full=0)

    def test_epoch_budget_switches_at_128(self):
        cfg = FinetuneConfig()
        assert cfg.epochs_for(64) == 30
        assert cfg.epochs_for(128) == 30
        assert cfg.epochs_for(129) == 15
        assert cfg.epochs_for(5000) == 15


class TestFinetune:
    def test_empty_subset_rejected(self):
        ds = make_dataset()
        with pytest.raises(ConfigError, match="empty"):
            finetune(make_checkpoint(), ds, [], 0.1, FinetuneConfig())

    def test_non_train_items_rejected(self):
        ds = make_dataset()
        with pytest.raises(ConfigError, match="train split"):
            finetune(make_checkpoint(), ds, ds.split("test"), 0.1, FinetuneConfig())

    def test_nonpositive_learning_rate_rejected(self):
        ds = make_dataset()
        with pytest.raises(ConfigError, match="positive"):
            finetune(make_checkpoint(), ds, ds.split("train"), 0.0, FinetuneConfig())

    def test_overfits_single_item(self):
        ds = make_dataset()
        one = ds.split("train")[:1]
        cfg = FinetuneConfig(learning_rates=(0.5,), batch_size=4, seed=0,
                             max_epochs_low_resource=60)
        model = finetune(make_checkpoint(), ds, one, 0.5, cfg)
        assert model.predict(one) == [one[0].gold]
        assert model.loss_rows[-1]["total"] < 0.1

    def test_finetune_leaves_checkpoint_tensors_unchanged(self):
        """The fine-tuned encoder trains on its own copy of each tensor:
        none shares memory with the checkpoint, whose tensors keep their
        values while the encoder's move."""
        ds, checkpoint = make_dataset(), make_checkpoint()
        before = {name: tensor.copy() for name, tensor in checkpoint.params.items()}
        cfg = FinetuneConfig(batch_size=4, seed=0, max_epochs_low_resource=2)
        params = finetune(checkpoint, ds, ds.split("train")[:8], 0.5, cfg).encoder.params
        assert not any(np.shares_memory(params[name], checkpoint.params["text." + name])
                       for name in params)
        assert any(not np.array_equal(params[name], before["text." + name]) for name in params)
        for name, tensor in before.items():
            np.testing.assert_array_equal(checkpoint.params[name], tensor)

    def test_predict_keeps_no_backward_cache(self, monkeypatch):
        ds = make_dataset()
        model = build_task_model(make_checkpoint(), seed=0)
        caches = []
        real = TextEncoder.forward

        def spy(self, *args, **kwargs):
            caches.append(real(self, *args, **kwargs))
            return caches[-1]

        monkeypatch.setattr(TextEncoder, "forward", spy)
        model.predict(ds.split("test"))
        assert len(caches) == 1 and "blk0" not in caches[0]

    def test_non_finite_loss_raises_training_error_with_step(self):
        ds = make_dataset()
        sub = ds.split("train")[:6]
        cfg = FinetuneConfig(learning_rates=(1e250,), batch_size=4, seed=0,
                             max_epochs_low_resource=3)
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingError, match="non-finite") as info:
            finetune(make_checkpoint(), ds, sub, 1e250, cfg)
        assert info.value.step == 1

    @pytest.mark.parametrize("where, name", [("encoder", "tok_emb"), ("head", "w")])
    def test_non_finite_parameter_raises_training_error_with_step(self, where, name,
                                                                   monkeypatch):
        """The last step's update makes one parameter infinite while its loss
        is finite: the run stops at that step instead of returning a model
        that can only score NaN."""
        ds = make_dataset()
        sub = ds.split("train")[:8]
        cfg = FinetuneConfig(learning_rates=(0.1,), batch_size=4, seed=0,
                             max_epochs_low_resource=1)
        real = TextEncoder.backward
        steps = []

        def backward(self, cache, **kwargs):
            grads = real(self, cache, **kwargs)
            steps.append(len(steps))
            if len(steps) == 2:  # the last of the two steps
                if where == "encoder":
                    grads[name] = np.full_like(grads[name], np.inf)
                else:  # the head's weight gradient is pooled.T @ d_scores
                    cache["pooled"][0, 0] = np.inf
            return grads

        monkeypatch.setattr(TextEncoder, "backward", backward)
        with pytest.raises(TrainingError, match=f"non-finite parameter {name} at step 1") as info:
            finetune(make_checkpoint(), ds, sub, 0.1, cfg)
        assert info.value.step == 1

    def test_identical_seeds_identical_models(self):
        ds = make_dataset()
        sub = ds.split("train")[:6]
        cfg = FinetuneConfig(learning_rates=(0.1,), batch_size=4, seed=5,
                             max_epochs_low_resource=3)
        a = finetune(make_checkpoint(), ds, sub, 0.1, cfg)
        b = finetune(make_checkpoint(), ds, sub, 0.1, cfg)
        np.testing.assert_array_equal(a.head["w"], b.head["w"])
        assert a.head["b"] == b.head["b"]
        for name in a.encoder.params:
            np.testing.assert_array_equal(a.encoder.params[name], b.encoder.params[name])

    def test_different_seeds_differ(self):
        ds = make_dataset()
        sub = ds.split("train")[:6]
        a = finetune(make_checkpoint(), ds, sub, 0.1,
                     FinetuneConfig(learning_rates=(0.1,), batch_size=4, seed=0,
                                    max_epochs_low_resource=3))
        b = finetune(make_checkpoint(), ds, sub, 0.1,
                     FinetuneConfig(learning_rates=(0.1,), batch_size=4, seed=1,
                                    max_epochs_low_resource=3))
        assert not np.array_equal(a.head["w"], b.head["w"])

    def test_first_batch_loss_matches_oracle(self):
        """Replay step 0 by hand: same head init, same batch order, same
        dropout seed, softmax cross-entropy recomputed from scratch."""
        from cmkt.corpus import SEP, tokenize
        from cmkt.seeding import derive_seed, rng_for

        ds = make_dataset()
        sub = ds.split("train")[:8]
        cfg = FinetuneConfig(learning_rates=(0.05,), batch_size=4, seed=9,
                             max_epochs_low_resource=1)
        model = finetune(make_checkpoint(), ds, sub, 0.05, cfg)

        fresh = build_task_model(make_checkpoint(), seed=9)
        order = rng_for(9, "ft-order", 1).permutation(len(sub))
        batch = [sub[int(i)] for i in order[:4]]
        seqs = [
            tokenize(f"{item.question} {SEP} {choice}", fresh.vocab,
                     fresh.encoder.config.max_len)
            for item in batch
            for choice in item.choices
        ]
        cache = fresh.encoder.forward(*fresh.encoder.prepare_batch(seqs),
                                      derive_seed(9, "ft-dropout", 1, 0))
        scores = (cache["pooled"] @ fresh.head["w"] + fresh.head["b"]).reshape(4, 4)
        expected = 0.0
        for row, item in zip(scores, batch):
            shifted = row - row.max()
            log_probs = shifted - np.log(np.exp(shifted).sum())
            expected -= log_probs[item.gold]
        expected /= 4
        assert model.loss_rows[0]["total"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_huge_learning_rate_logs_finite_loss(self):
        """lr 1e3 drives the scores far apart within a few steps: the gold
        choice's softmax probability underflows to 0, where -log(softmax)
        gives inf and a divide-by-zero warning; logsumexp stays finite."""
        ds = make_dataset()
        sub = ds.split("train")[:8]
        cfg = FinetuneConfig(learning_rates=(1e3,), batch_size=4, seed=0,
                             max_epochs_low_resource=3)
        model = finetune(make_checkpoint(), ds, sub, 1e3, cfg)
        losses = [row["total"] for row in model.loss_rows]
        assert len(losses) == 6
        assert all(np.isfinite(losses)), losses

    def test_learns_the_toy_task(self):
        ds = make_dataset(n_train=40, n_test=20)
        sub = ds.split("train")
        cfg = FinetuneConfig(learning_rates=(0.3,), batch_size=8, seed=0,
                             max_epochs_low_resource=40)
        model = finetune(make_checkpoint(), ds, sub, 0.3, cfg)
        assert evaluate(model, sub, cfg.batch_size) >= 0.9


class _FixedScoreModel:
    """predict() stand-in with scripted scores."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def predict(self, items):
        start = getattr(self, "_cursor", 0)
        block = self.scores[start : start + len(items)]
        self._cursor = start + len(items)
        return [int(i) for i in np.argmax(block, axis=1)]


class TestEvaluate:
    def test_all_correct_is_one(self):
        items = [
            MCQAItem(question="q", choices=("a", "b"), gold=1, split="test")
            for _ in range(5)
        ]
        model = _FixedScoreModel([[0.0, 1.0]] * 5)
        assert evaluate(model, items, 2) == 1.0

    def test_seven_of_ten(self):
        items = [
            MCQAItem(question="q", choices=("a", "b"), gold=0, split="test")
            for _ in range(10)
        ]
        scores = [[1.0, 0.0]] * 7 + [[0.0, 1.0]] * 3
        assert evaluate(_FixedScoreModel(scores), items, 3) == pytest.approx(0.7)

    def test_ties_break_to_lowest_index(self):
        items = [
            MCQAItem(question="q", choices=("a", "b", "c"), gold=0, split="test"),
            MCQAItem(question="q", choices=("a", "b", "c"), gold=2, split="test"),
        ]
        model = _FixedScoreModel([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        # both items predict index 0: first counts as correct, second not
        assert evaluate(model, items, 16) == pytest.approx(0.5)

    def test_empty_split_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(_FixedScoreModel([[1.0, 0.0]]), [], 16)

    def test_non_finite_scores_raise_training_error(self):
        """A diverged model scores NaN everywhere, where argmax would pick
        choice 0 for every item and report the share of gold-0 items."""
        ds = make_dataset()
        model = build_task_model(make_checkpoint(), seed=0)
        model.head["w"] = np.full_like(model.head["w"], np.nan)
        with pytest.raises(TrainingError, match="non-finite"):
            evaluate(model, ds.split("test"), 16)

    def test_untrained_model_near_chance_on_five_choices(self):
        rng = np.random.default_rng(11)
        words = ["red", "blue", "green", "cat", "dog", "bird", "big", "small"]
        items = []
        for _ in range(1200):
            choices = tuple(
                f"the {words[int(rng.integers(8))]} {words[int(rng.integers(8))]}"
                for _ in range(5)
            )
            items.append(
                MCQAItem(question="which one", choices=choices,
                         gold=int(rng.integers(5)), split="test")
            )
        model = build_task_model(make_checkpoint(seed=4), seed=4)
        accuracy = evaluate(model, items, 16)
        assert 0.15 <= accuracy <= 0.25


    @staticmethod
    def forward_rows(monkeypatch, tmp_path):
        """Batch row count of every TextEncoder.forward call from now on,
        in this process and in fine-tune workers."""
        log = CallLog(tmp_path / "rows.jsonl")
        real = TextEncoder.forward

        def spy(self, tokens, *args, **kwargs):
            log.add(tokens.shape[0])
            return real(self, tokens, *args, **kwargs)

        monkeypatch.setattr(TextEncoder, "forward", spy)
        return log

    def test_forward_rows_bounded_by_batch(self, monkeypatch, tmp_path):
        ds = make_dataset(n_test=37)
        model = build_task_model(make_checkpoint(), seed=0)
        rows = self.forward_rows(monkeypatch, tmp_path)
        evaluate(model, ds.split("test"), 5)
        assert rows.values() == [5 * 4] * 7 + [2 * 4]

    def test_protocol_scoring_bounded_by_finetune_batch(self, monkeypatch, tmp_path):
        """Every forward of the protocols, scoring included, holds at most
        one fine-tune batch of (question, choice) sequences."""
        ds = make_dataset(n_train=8, n_dev=9, n_test=37)
        config = tiny_protocol_config(batch_size=3, max_epochs_low_resource=1,
                                      max_epochs_full=1)
        rows = self.forward_rows(monkeypatch, tmp_path)
        low_resource_protocol(make_checkpoint(), ds, config, sizes=(4,), n_subsamples=2)
        supervised_protocol(make_checkpoint(), ds, config, n_seeds=1)
        assert rows.values() and max(rows.values()) == 3 * 4

    def test_chunked_scoring_matches_one_forward(self, monkeypatch):
        """An untrained model's near-tied scores on choices of one to eight
        words: 37 items in chunks of 8, each padded to its own longest
        sequence, predict what one forward over all 148 sequences does."""
        rng = np.random.default_rng(0)
        test = [
            MCQAItem(question="which one", choices=tuple(
                " ".join(rng.choice(WORDS[len(SPECIALS):], size=int(rng.integers(1, 9))))
                for _ in range(4)), gold=int(rng.integers(4)), split="test")
            for _ in range(37)
        ]
        model = build_task_model(make_checkpoint(seed=1), seed=1)
        whole = model.predict(test)
        chunked = []
        real = TaskModel.predict

        def spy(self, items):
            chunked.extend(real(self, items))
            return chunked[-len(items):]

        monkeypatch.setattr(TaskModel, "predict", spy)
        accuracy = evaluate(model, test, 8)
        assert chunked == whole
        assert accuracy == sum(p == i.gold for p, i in zip(whole, test)) / 37
        assert 0.0 < accuracy < 1.0

    def test_non_finite_scores_in_a_later_chunk_raise(self, monkeypatch):
        """The first chunk scores finite; a word only the second chunk
        holds has a NaN embedding, and that chunk raises."""
        clean = MCQAItem(question="which one", choices=("the cat runs", "a red dog"),
                         gold=0, split="test")
        poisoned = MCQAItem(question="which one", choices=("the three cats", "a dog"),
                            gold=1, split="test")
        model = build_task_model(make_checkpoint(), seed=0)
        model.encoder.params["tok_emb"][make_vocab().id_of("three")] = np.nan
        chunks = []
        real = TaskModel.predict

        def spy(self, items):
            chunks.append(len(items))
            return real(self, items)

        monkeypatch.setattr(TaskModel, "predict", spy)
        with pytest.raises(TrainingError, match="non-finite"):
            evaluate(model, [clean] * 4 + [poisoned], 4)
        assert chunks == [4, 1]


class TestGridSearch:
    def test_single_rate_grid_returns_it(self):
        ds = make_dataset(n_train=6, n_dev=4)
        cfg = FinetuneConfig(learning_rates=(0.05,), batch_size=4,
                             max_epochs_low_resource=2, seed=0)
        result = grid_search(make_checkpoint(), ds, ds.split("train"), cfg)
        assert result.best_learning_rate == 0.05
        assert len(result.table) == 1

    def test_needs_dev_split(self):
        ds = MCQADataset.from_items(
            "nodev",
            [MCQAItem(question="q", choices=("a", "b"), gold=0, split="train")] * 3,
        )
        cfg = FinetuneConfig(learning_rates=(0.05,))
        with pytest.raises(ConfigError, match="dev"):
            grid_search(make_checkpoint(), ds, ds.split("train"), cfg)

    def test_best_dev_accuracy_wins(self, monkeypatch):
        dev_scores = {0.01: 0.4, 0.1: 0.9, 1.0: 0.6}
        monkeypatch.setattr(
            evaluation_module, "finetune",
            lambda ckpt, ds, sub, lr, cfg: ("model", lr),
        )
        monkeypatch.setattr(
            evaluation_module, "evaluate",
            lambda model, items, batch_size: dev_scores[model[1]],
        )
        ds = make_dataset(n_train=4, n_dev=2)
        cfg = FinetuneConfig(learning_rates=(0.01, 0.1, 1.0))
        result = grid_search(make_checkpoint(), ds, ds.split("train"), cfg)
        assert result.best_learning_rate == 0.1
        assert result.table == ((0.01, 0.4), (0.1, 0.9), (1.0, 0.6))

    def test_tie_goes_to_smaller_rate(self, monkeypatch):
        monkeypatch.setattr(
            evaluation_module, "finetune",
            lambda ckpt, ds, sub, lr, cfg: ("model", lr),
        )
        monkeypatch.setattr(
            evaluation_module, "evaluate", lambda model, items, batch_size: 0.5,
        )
        ds = make_dataset(n_train=4, n_dev=2)
        cfg = FinetuneConfig(learning_rates=(0.3, 0.01, 0.1))
        result = grid_search(make_checkpoint(), ds, ds.split("train"), cfg)
        assert result.best_learning_rate == 0.01


def tiny_protocol_config(**kwargs):
    defaults = dict(
        learning_rates=(0.1,), max_epochs_low_resource=2,
        max_epochs_full=2, batch_size=4, seed=0,
    )
    defaults.update(kwargs)
    return FinetuneConfig(**defaults)


class TestLowResourceProtocol:
    def test_five_subsamples_per_size(self):
        ds = make_dataset(n_train=24, n_dev=4, n_test=6)
        runs = low_resource_protocol(
            make_checkpoint(), ds, tiny_protocol_config(), sizes=(4, 8),
        )
        assert [r.size for r in runs] == ["4", "8"]
        for run in runs:
            assert len(run.accuracies) == 5
            assert run.seeds == (0, 1, 2, 3, 4)
            assert run.dataset == "animals"
            assert run.method == "random-init"

    def test_mean_matches_hand_average(self):
        ds = make_dataset(n_train=24, n_dev=4, n_test=6)
        runs = low_resource_protocol(
            make_checkpoint(), ds, tiny_protocol_config(), sizes=(4,),
        )
        assert runs[0].mean == pytest.approx(float(np.mean(runs[0].accuracies)))

    def test_subsample_determinism(self):
        from cmkt.evaluation import subsample

        ds = make_dataset(n_train=30)
        a = subsample(ds, 8, seed=2, index=1)
        b = subsample(ds, 8, seed=2, index=1)
        assert a == b
        c = subsample(ds, 8, seed=2, index=2)
        assert a != c

    def test_subsample_without_replacement(self):
        from cmkt.evaluation import subsample

        ds = make_dataset(n_train=30)
        sub = subsample(ds, 30, seed=0, index=0)
        assert len(set(id(i) for i in sub)) == 30

    def test_size_above_train_rejected(self):
        ds = make_dataset(n_train=10, n_test=4)
        with pytest.raises(ConfigError, match="subsample"):
            low_resource_protocol(
                make_checkpoint(), ds, tiny_protocol_config(), sizes=(64,),
            )

    def test_full_size_rejected(self):
        ds = make_dataset(n_train=200, n_test=4)
        with pytest.raises(ConfigError, match="supervised"):
            low_resource_protocol(
                make_checkpoint(), ds, tiny_protocol_config(), sizes=(129,),
            )

    def test_needs_test_split(self):
        items = make_items(n_train=20, n_dev=2, n_test=1)
        items = [i for i in items if i.split != "test"]
        ds = MCQADataset.from_items("animals", items)
        with pytest.raises(ConfigError, match="test"):
            low_resource_protocol(
                make_checkpoint(), ds, tiny_protocol_config(), sizes=(4,),
            )


def reference_low_resource(checkpoint, dataset, config, sizes, n_subsamples=5):
    """The protocol as it was written before the grid's model was reused:
    every subsample, the first included, is fine-tuned again at the chosen
    rate."""
    from cmkt.evaluation import subsample

    test = dataset.split("test")
    runs = []
    for size in sizes:
        subsets = [subsample(dataset, size, config.seed, s) for s in range(n_subsamples)]
        grid = grid_search(checkpoint, dataset, subsets[0], config)
        accuracies = [
            evaluate(finetune(checkpoint, dataset, sub, grid.best_learning_rate, config), test,
                     config.batch_size)
            for sub in subsets
        ]
        runs.append(EvalRun(dataset=dataset.name, method="random-init", size=str(size),
                            accuracies=tuple(accuracies), seeds=tuple(range(n_subsamples)),
                            learning_rate=grid.best_learning_rate))
    return runs


class TestProtocolReuse:
    """The protocol scores the first subsample with the grid's own model and
    tokenizes each (question, choice) once per call."""

    def test_finetunes_per_size(self, monkeypatch, tmp_path):
        calls = spy_on(monkeypatch, CallLog(tmp_path / "calls.jsonl"), "finetune")
        ds = make_dataset(n_train=24, n_dev=4, n_test=6)
        config = tiny_protocol_config(learning_rates=(0.03, 0.1, 0.3))
        low_resource_protocol(make_checkpoint(), ds, config, sizes=(4, 8), n_subsamples=4)
        assert len(calls.entries()) == 2 * (3 + 4 - 1)

    def test_one_restore_per_finetune(self, monkeypatch, tmp_path):
        """Filling the token table before the fine-tunes restores no encoder."""
        calls = spy_on(monkeypatch, CallLog(tmp_path / "calls.jsonl"), "restore_text_encoder")
        ds = make_dataset(n_train=24, n_dev=4, n_test=6)
        config = tiny_protocol_config(learning_rates=(0.03, 0.1, 0.3))
        low_resource_protocol(make_checkpoint(), ds, config, sizes=(4, 8), n_subsamples=4)
        assert len(calls.entries()) == 2 * (3 + 4 - 1)

    @pytest.mark.parametrize("rates", [(0.1,), (0.03, 0.1, 0.3)])
    def test_runs_equal_reference_that_refits_first_subsample(self, rates):
        ds = make_dataset(n_train=24, n_dev=4, n_test=6)
        config = tiny_protocol_config(learning_rates=rates)
        runs = low_resource_protocol(make_checkpoint(), ds, config, sizes=(4, 8))
        assert runs == reference_low_resource(make_checkpoint(), ds, config, sizes=(4, 8))

    def test_grid_keeps_the_best_rate_model(self):
        """The grid's scores of its best rate are those of a fresh
        fine-tune at that rate, on every split it was asked to score."""
        ds = make_dataset(n_train=8, n_dev=4, n_test=7)
        config = tiny_protocol_config(learning_rates=(0.03, 0.3))
        subset, test = ds.split("train"), ds.split("test")
        grid = grid_search(make_checkpoint(), ds, subset, config, score=(test, subset))
        again = finetune(make_checkpoint(), ds, subset, grid.best_learning_rate, config)
        assert grid.best_scores == (evaluate(again, test, 4), evaluate(again, subset, 4))
        assert dict(grid.table)[grid.best_learning_rate] == evaluate(again, ds.split("dev"), 4)

    def test_each_choice_tokenized_once_per_protocol_call(self, monkeypatch, tmp_path):
        calls = spy_on(monkeypatch, CallLog(tmp_path / "calls.jsonl"), "tokenize",
                       key=lambda args: args[0])
        ds = make_dataset(n_train=24, n_dev=4, n_test=6)
        config = tiny_protocol_config(learning_rates=(0.03, 0.1))
        for _ in range(2):
            calls.clear()
            low_resource_protocol(make_checkpoint(), ds, config, sizes=(4, 8))
            texts = calls.values()
            assert len(texts) == len(set(texts))
            assert len(texts) <= len({(i.question, c) for i in ds.items for c in i.choices})

    def test_each_choice_tokenized_once_per_finetune_call(self, monkeypatch, tmp_path):
        calls = spy_on(monkeypatch, CallLog(tmp_path / "calls.jsonl"), "tokenize")
        ds = make_dataset(n_train=8)
        sub = ds.split("train")
        model = finetune(make_checkpoint(), ds, sub, 0.1,
                         tiny_protocol_config(max_epochs_low_resource=3))
        assert len(calls.entries()) == len({(i.question, c) for i in sub for c in i.choices})
        evaluate(model, sub, 4)
        assert len(calls.entries()) == len({(i.question, c) for i in sub for c in i.choices})

    def test_diverging_grid_rate_raises(self):
        ds = make_dataset(n_train=8, n_dev=4)
        config = tiny_protocol_config(learning_rates=(0.1, 1e250))
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingError) as info:
            grid_search(make_checkpoint(), ds, ds.split("train"), config)
        assert info.value.step is not None


MULTI_CORE = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="fine-tunes run in workers only with two or more usable cores",
)


def one_core(monkeypatch):
    """From now on the protocols see one usable core and fork no worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@MULTI_CORE
class TestSideBySideFinetunes:
    """A protocol's independent fine-tunes run in forked workers and give
    what one process gives, failures included."""

    @staticmethod
    def protocol_bytes(tmp_path, name, rates):
        ds = make_dataset(n_train=24, n_dev=4, n_test=6)
        config = tiny_protocol_config(learning_rates=rates)
        low = tmp_path / f"{name}-low.jsonl"
        full = tmp_path / f"{name}-full.jsonl"
        save_runs(low_resource_protocol(make_checkpoint(), ds, config, sizes=(4, 8)), low)
        save_runs([supervised_protocol(make_checkpoint(), ds, config, n_seeds=3)], full)
        return low.read_bytes(), full.read_bytes()

    @pytest.mark.parametrize("rates", [(0.1,), (0.03, 0.1, 0.3)])
    def test_outputs_match_one_worker(self, monkeypatch, tmp_path, rates):
        calls = spy_on(monkeypatch, CallLog(tmp_path / "calls.jsonl"), "finetune")
        side_by_side = self.protocol_bytes(tmp_path, "workers", rates)
        assert calls.pids() - {os.getpid()}, "no fine-tune ran in a worker"
        calls.clear()
        one_core(monkeypatch)
        assert self.protocol_bytes(tmp_path, "one", rates) == side_by_side
        assert calls.pids() == {os.getpid()}
        assert_no_children_left()

    def test_worker_training_error_matches_one_process(self, monkeypatch):
        """Diverging rates fail their fine-tunes in workers; the parent
        raises the error a serial run raises, with its step, after the
        warnings. Job 1 (rate 1e55, second worker) fails at step 4, job 2
        (rate 1e100, first worker) at step 1: job order decides, not the
        order in which the workers are read."""
        ds = make_dataset(n_train=8, n_dev=4, n_test=4)
        config = tiny_protocol_config(learning_rates=(0.1, 1e55, 1e100),
                                      max_epochs_low_resource=8)
        raised = []
        for forked in (True, False):
            if not forked:
                one_core(monkeypatch)
            with pytest.warns(RuntimeWarning), pytest.raises(TrainingError) as info:
                low_resource_protocol(make_checkpoint(), ds, config, sizes=(4,))
            raised.append((type(info.value), str(info.value), info.value.step))
            assert_no_children_left()
        assert raised[0] == raised[1]
        assert raised[0][2] is not None

    @pytest.mark.parametrize("rates", [(0.1, 1e55, 1e56), (0.1, 1e55, 1e100),
                                       (0.1, 0.3, 1e55, 1e56)])
    def test_warnings_match_one_process(self, monkeypatch, rates):
        """Under a filter that shows a warning once per location, a forked
        protocol shows the warnings, in order, that a one-process run
        shows: an overflow both workers hit shows once, and a job after the
        first failing one (which one process never starts) shows none."""
        ds = make_dataset(n_train=8, n_dev=4, n_test=4)
        config = tiny_protocol_config(learning_rates=rates, max_epochs_low_resource=8)
        shown = []
        for forked in (True, False):
            if not forked:
                one_core(monkeypatch)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                with pytest.raises(TrainingError):
                    low_resource_protocol(make_checkpoint(), ds, config, sizes=(4,))
            shown.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
            assert_no_children_left()
        assert shown[0] == shown[1]
        assert shown[1]


class TestSupervisedProtocol:
    def test_three_seeds(self):
        ds = make_dataset(n_train=12, n_dev=4, n_test=6)
        run = supervised_protocol(make_checkpoint(), ds, tiny_protocol_config())
        assert run.size == "full"
        assert run.seeds == (0, 1, 2)
        assert len(run.accuracies) == 3

    def test_method_label_override(self):
        ds = make_dataset(n_train=12, n_dev=4, n_test=6)
        run = supervised_protocol(
            make_checkpoint(), ds, tiny_protocol_config(), method="MLM",
        )
        assert run.method == "MLM"


class TestEvalRun:
    def test_mean_and_std(self):
        run = EvalRun(dataset="d", method="MLM", size="64",
                      accuracies=(0.4, 0.6), seeds=(0, 1), learning_rate=0.1)
        assert run.mean == pytest.approx(0.5)
        assert run.std == pytest.approx(0.1)

    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            EvalRun(dataset="d", method="MLM", size="64",
                    accuracies=(0.4,), seeds=(0, 1), learning_rate=0.1)

    def test_accuracy_bounds(self):
        with pytest.raises(ConfigError):
            EvalRun(dataset="d", method="MLM", size="64",
                    accuracies=(1.4,), seeds=(0,), learning_rate=0.1)

    def test_jsonl_roundtrip(self, tmp_path):
        runs = [
            EvalRun(dataset="d", method="MLM", size="64",
                    accuracies=(0.4, 0.6), seeds=(0, 1), learning_rate=0.1),
            EvalRun(dataset="d", method="CMCL", size="full",
                    accuracies=(0.7,), seeds=(0,), learning_rate=0.3),
        ]
        path = tmp_path / "runs.jsonl"
        save_runs(runs, path)
        assert load_runs(path) == runs

    def test_non_numeric_learning_rate_is_parse_error(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        save_runs([EvalRun(dataset="d", method="MLM", size="64",
                           accuracies=(0.5,), seeds=(0,), learning_rate=0.1)], path)
        raw = json.loads(path.read_text())
        raw["learning_rate"] = "x"
        path.write_text(path.read_text() + json.dumps(raw) + "\n")
        with pytest.raises(ParseError, match=":2:"):
            load_runs(path)

    @pytest.mark.parametrize(
        "field,value",
        [("size", None), ("size", 64), ("learning_rate", True), ("learning_rate", "0.1"),
         ("seeds", [1.9]), ("seeds", [True]), ("accuracies", [True]),
         ("accuracies", ["0.5"]), ("learning_rate", float("nan")),
         ("learning_rate", float("inf"))],
    )
    def test_load_rejects_wrongly_typed_field(self, tmp_path, field, value):
        path = tmp_path / "runs.jsonl"
        raw = {"dataset": "d", "method": "MLM", "size": "64", "accuracies": [0.5],
               "seeds": [0], "learning_rate": 0.1, field: value}
        path.write_text(json.dumps(raw) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:1: ")):
            load_runs(path)


def grid_runs(methods, datasets, sizes, base=0.5):
    runs = []
    for mi, method in enumerate(methods):
        for di, dataset in enumerate(datasets):
            for si, size in enumerate(sizes):
                accs = (base + 0.01 * mi + 0.002 * di, base + 0.01 * mi + 0.004 * si)
                runs.append(
                    EvalRun(dataset=dataset, method=method, size=size,
                            accuracies=accs, seeds=(0, 1), learning_rate=1e-4)
                )
    return runs


class TestReport:
    def test_fixture_cell_renders_paper_style(self):
        run = EvalRun(dataset="PIQA", method="BERT-base", size="64",
                      accuracies=(0.517, 0.535), seeds=(0, 1), learning_rate=1e-4)
        assert format_cell(run.mean, run.std) == "52.6±0.9"
        rep = report([
            run,
            EvalRun(dataset="PIQA", method="BERT-base", size="128",
                    accuracies=(0.52, 0.54), seeds=(0, 1), learning_rate=1e-4),
        ])
        assert "52.6±0.9" in rep.text

    def test_rows_grouped_by_source(self):
        runs = grid_runs(["MLM", "CMCL", "BERT-base", "CMKD"], ["piqa"], ["64", "128"])
        rep = report(runs)
        order = [row[1] for row in rep.rows]
        assert order == ["BERT-base", "MLM", "CMCL", "CMKD"]
        groups = [row[0] for row in rep.rows]
        assert groups == ["caption", "caption", "caption-image pairs",
                          "caption-image pairs"]

    def test_average_column_is_arithmetic_mean(self):
        runs = [
            EvalRun(dataset="a", method="MLM", size="64",
                    accuracies=(0.4, 0.4), seeds=(0, 1), learning_rate=1e-4),
            EvalRun(dataset="a", method="MLM", size="128",
                    accuracies=(0.5, 0.5), seeds=(0, 1), learning_rate=1e-4),
            EvalRun(dataset="b", method="MLM", size="64",
                    accuracies=(0.6, 0.6), seeds=(0, 1), learning_rate=1e-4),
            EvalRun(dataset="b", method="MLM", size="128",
                    accuracies=(0.7, 0.7), seeds=(0, 1), learning_rate=1e-4),
        ]
        rep = report(runs)
        row = rep.rows[0]
        assert row[-1] == "55.0"

    def test_missing_cell_listed(self):
        runs = grid_runs(["MLM", "CMCL"], ["piqa"], ["64", "128"])
        del runs[3]
        with pytest.raises(ReportError, match="CMCL/piqa/128"):
            report(runs)

    def test_duplicate_cell_rejected(self):
        runs = grid_runs(["MLM"], ["piqa"], ["64", "128"])
        with pytest.raises(ReportError, match="duplicate"):
            report(runs + runs[:1])

    def test_empty_rejected(self):
        with pytest.raises(ReportError):
            report([])

    def test_layout_size_check(self):
        runs = grid_runs(["MLM"], ["piqa"], ["full"])
        with pytest.raises(ReportError, match="expects sizes"):
            report(runs, layout="low_resource")
        rep = report(runs, layout="full")
        assert "full" in rep.text

    def test_unknown_layout_rejected(self):
        with pytest.raises(ConfigError):
            report(grid_runs(["MLM"], ["piqa"], ["64", "128"]), layout="wide")

    def test_csv_roundtrip(self):
        runs = grid_runs(["MLM", "CMCL", "CMKD"], ["piqa", "csqa"], ["64", "128"])
        rep = report(runs)
        back = parse_report_csv(rep.csv)
        assert sorted(back, key=lambda r: (r.method, r.dataset, r.size)) == sorted(
            runs, key=lambda r: (r.method, r.dataset, r.size)
        )

    def test_parse_rejects_foreign_csv(self):
        with pytest.raises(ParseError):
            parse_report_csv("a,b,c\n1,2,3\n")

    def test_footer_records_protocol(self):
        rep = report(grid_runs(["MLM"], ["piqa"], ["64", "128"]))
        assert "first subsample" in rep.text
        assert "splits taken as given" in rep.text

    def test_no_horizontal_overflow_per_column(self):
        rep = report(grid_runs(["MLM", "CMCL"], ["piqa", "csqa", "obqa"], ["64", "128"]))
        lines = rep.text.splitlines()
        header_width = len(lines[0])
        for line in lines[1:]:
            if line.startswith("cells"):
                continue
            assert len(line) <= header_width + 2


class TestPlotSeries:
    def test_series_sorted_by_size(self):
        runs = [
            EvalRun(dataset="d", method="MLM", size="full",
                    accuracies=(0.8,), seeds=(0,), learning_rate=0.1),
            EvalRun(dataset="d", method="MLM", size="128",
                    accuracies=(0.6,), seeds=(0,), learning_rate=0.1),
            EvalRun(dataset="d", method="MLM", size="64",
                    accuracies=(0.5,), seeds=(0,), learning_rate=0.1),
        ]
        series = plot_series(runs)
        assert series == [("MLM", [("64", 0.5), ("128", 0.6), ("full", 0.8)])]


class TestRetrievalRecall:
    def test_perfect_alignment_is_one(self):
        vocab = make_vocab()
        encoder = TextEncoder(encoder_config(vocab, dim=6), seed=0)
        from cmkt.corpus import tokenize

        seqs = [tokenize(t, vocab, 12) for t in ("the cat runs", "a dog sleeps", "big red bird")]
        texts = encoder.encode(seqs)
        assert retrieval_recall_at_1(encoder, texts, seqs) == 1.0

    def test_shape_mismatch_rejected(self):
        vocab = make_vocab()
        encoder = TextEncoder(encoder_config(vocab, dim=6), seed=0)
        with pytest.raises(ShapeError):
            retrieval_recall_at_1(encoder, np.zeros((3, 6)), [[5, 6]])

    def test_orthogonal_images_score_near_chance(self):
        vocab = make_vocab()
        encoder = TextEncoder(encoder_config(vocab, dim=6), seed=0)
        from cmkt.corpus import tokenize

        rng = np.random.default_rng(0)
        seqs = [tokenize(f"the {w} runs", vocab, 12) for w in
                ("cat", "dog", "bird", "red", "blue", "green", "big", "small")]
        score = retrieval_recall_at_1(encoder, rng.normal(size=(8, 6)), seqs)
        assert score <= 0.5
