"""End-to-end acceptance gate.

Nine criteria, one test each, run in order. Every test prints a single
pass/fail line (visible under ``pytest -s`` or in captured output) and
fails loudly if its tolerance is not met:

  1. loss values match brute-force oracles within 1e-10
  2. analytic gradients match central finite differences
  3. exact reduction identities between related losses and loops
  4. dynamic-masking selection and action statistics
  5. caption perturbation matches exhaustive enumeration
  6. synthetic cross-modal pre-training lifts retrieval from chance
  7. visually pre-trained encoder transfers to a 64-example task
  8. evaluation protocol shapes and report round-trip
  9. byte-identical re-runs of every pipeline command
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import oracles
from cmkt.checkpoint import bundle_text_encoder, restore_text_encoder
from cmkt.cli import main as cli_main
from cmkt.corpus import ACTIONS, Vocab, plan_dynamic_masking, tokenize
from cmkt.distillation import DistillSpec, distill, train_teacher
from cmkt.encoders import ImageEncoder, TextEncoder, TextEncoderConfig
from cmkt.evaluation import (
    EvalRun,
    FinetuneConfig,
    low_resource_protocol,
    parse_report_csv,
    report,
    retrieval_recall_at_1,
    supervised_protocol,
)
from cmkt.objectives import (
    ans_loss,
    cmcl_total,
    hinge_loss,
    nst_loss,
    softmax_cross_entropy,
    tcl_loss,
)
from cmkt.perturbation import (
    ADVERSARIAL_NEGATIVE,
    EQUIVALENT_POSITIVE,
    Lexicon,
    MockOracle,
    PerturbationRecord,
    PosTagger,
    mini_lexicon_path,
    mini_pos_tags_path,
    perturb_caption,
    select_content_words,
)
from cmkt.seeding import rng_for
from cmkt.synth import SynthConfig, generate_world
from cmkt.training import PretrainConfig, TrainingData, pretrain


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


# settings for the end-to-end experiments (criteria 6 and 7)
ACCEPT_CONFIG = PretrainConfig(
    batch_size=64,
    max_len=16,
    learning_rate=0.05,
    epochs=100,
    seed=0,
    dim=32,
    ffn_dim=64,
    num_blocks=2,
    dropout=0.1,
)


@pytest.fixture(scope="module")
def world():
    return generate_world(SynthConfig())


@pytest.fixture(scope="module")
def ans_records(world):
    records = []
    train = [p for p in world.pairs if p.split == "train"]
    for index, pair in enumerate(train):
        records.extend(
            perturb_caption(
                pair.caption,
                world.tagger,
                world.oracle,
                world.lexicon,
                rng_for(0, "perturb", index),
            )
        )
    return records


@pytest.fixture(scope="module")
def cmcl_run(world):
    data = TrainingData(pairs=world.pairs, vocab=world.vocab, bank=world.bank)
    start = time.perf_counter()
    result = pretrain("CMCL", data, ACCEPT_CONFIG)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def ans_run(world, ans_records):
    data = TrainingData(
        pairs=world.pairs,
        vocab=world.vocab,
        bank=world.bank,
        perturbations=ans_records,
    )
    start = time.perf_counter()
    result = pretrain("CMCL+ANS", data, ACCEPT_CONFIG)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# 1. loss oracles
# ---------------------------------------------------------------------------


def _head_probs(encoder, hidden, head):
    """The oracle's softmax over a token head's logits, one row per
    hidden state."""
    w, b = encoder.params[head + "_w"], encoder.params[head + "_b"]
    return [oracles.softmax(list(row @ w + b)) for row in hidden]


def test_criterion_1_loss_oracles():
    with criterion(1, "loss oracles within 1e-10"):
        rng = np.random.default_rng(20240517)
        cases = 0
        start = time.perf_counter()
        for case in range(100):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 17))
            m = int(rng.integers(0, 5))
            tau = float(rng.uniform(0.03, 1.0))
            images = rng.normal(size=(n, d))
            texts = rng.normal(size=(n, d))
            negs = rng.normal(size=(n, m, d))
            positives = rng.normal(size=(n, d))

            # without hard negatives tcl_loss is one-direction InfoNCE
            got = tcl_loss(images, texts, tau).total
            assert abs(got - oracles.infonce_sum(images, texts, tau)) < 1e-10

            got = tcl_loss(texts, positives, tau, hard_negatives=negs if m else None).total
            if m:
                want = sum(
                    oracles.infonce_item_negs(texts, positives, negs, i, tau)
                    for i in range(n)
                )
            else:
                want = oracles.infonce_sum(texts, positives, tau)
            assert abs(got - want) < 1e-10

            got = cmcl_total(images, texts, tau).total
            assert abs(got - oracles.bidirectional_mean(images, texts, tau)) < 1e-10

            got = ans_loss(images, texts, negs, tau).total
            want = oracles.bidirectional_mean(
                images, texts, tau, hard_negatives=negs if m else None
            )
            assert abs(got - want) < 1e-10

            margin = float(rng.uniform(0.1, 2.0))
            neg_images = rng.normal(size=(n, d))
            neg_texts = rng.normal(size=(n, d))
            got = hinge_loss(images, texts, neg_images, neg_texts, margin).total
            want = oracles.hinge_sum(images, texts, neg_images, neg_texts, margin)
            assert abs(got - want) < 1e-10

            # the MLM and voken heads, through the steps the trainer runs
            k = int(rng.integers(2, 12))
            vocab = int(rng.integers(5, 12))
            encoder = TextEncoder(
                TextEncoderConfig(vocab_size=vocab, dim=d, ffn_dim=d, num_blocks=1, max_len=6,
                                  dropout=0.0, voken_count=k, init_scale=0.5),
                seed=case,
            )
            seqs = [rng.integers(4, vocab, size=int(rng.integers(1, 7))) for _ in range(n)]
            tokens, mask = encoder.prepare_batch(seqs)
            hidden = encoder.forward(tokens, mask, record=False)["hidden"]

            selections = [(b, int(rng.integers(len(s))), int(rng.integers(vocab)))
                          for b, s in enumerate(seqs)]
            got, _ = encoder.mlm_step(tokens, mask, selections)
            probs = _head_probs(encoder, [hidden[b, p] for b, p, _ in selections], "mlm")
            want = oracles.cross_entropy_mean(probs, [t for _, _, t in selections])
            assert abs(got - want) < 1e-10

            vtargets = rng.integers(0, k, size=tokens.shape)
            vtargets[(rng.random(tokens.shape) < 0.3) | (mask == 0)] = -1
            got, _ = encoder.voken_step(tokens, mask, vtargets)
            probs = _head_probs(encoder, hidden.reshape(-1, d), "voken")
            assert abs(got - oracles.voken_mean(probs, vtargets.ravel())) < 1e-10

            teacher = rng.normal(size=(n, d))
            student = rng.normal(size=(n, d))
            got = nst_loss(teacher, student)
            assert abs(got - oracles.mmd2_poly2(teacher, student)) < 1e-10

            # the cross-entropy the trainer and the fine-tuner run, on logits
            targets = rng.integers(0, k, size=n)
            logits = rng.normal(scale=3.0, size=(n, k))
            got, d_logits = softmax_cross_entropy(logits, targets)
            probs = [oracles.softmax(list(row)) for row in logits]
            assert abs(got - oracles.cross_entropy_mean(probs, targets)) < 1e-10
            for i in range(n):
                for j in range(k):
                    want = (probs[i][j] - (j == targets[i])) / n
                    assert abs(d_logits[i, j] - want) < 1e-10

            cases += 1
        elapsed = time.perf_counter() - start
        assert cases >= 100
        assert elapsed < 10.0, f"loss oracle suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. gradient checks
# ---------------------------------------------------------------------------


def _relative_error(analytic, numeric):
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / scale


def _check_grad(value_fn, x, analytic):
    shape = np.asarray(x).shape
    flat = list(np.asarray(x, dtype=np.float64).ravel())

    def scalar_fn(values):
        return value_fn(np.asarray(values, dtype=np.float64).reshape(shape))

    numeric = np.asarray(oracles.finite_difference_grad(scalar_fn, flat, step=1e-5))
    err = _relative_error(np.asarray(analytic).ravel(), numeric)
    assert err < 1e-4, f"gradient relative error {err:.2e}"


def test_criterion_2_gradient_checks():
    with criterion(2, "contrastive gradients match finite differences"):
        start = time.perf_counter()
        n, d, m = 4, 8, 2
        rng = np.random.default_rng(77)
        tau = 0.1
        images = rng.normal(size=(n, d))
        texts = rng.normal(size=(n, d))
        negs = rng.normal(size=(n, m, d))

        res = cmcl_total(images, texts, tau)
        _check_grad(lambda x: cmcl_total(x, texts, tau).total, images, res.gradients["image"])
        _check_grad(lambda x: cmcl_total(images, x, tau).total, texts, res.gradients["text"])

        reps = rng.normal(size=(n, d))
        positives = rng.normal(size=(n, d))
        res = tcl_loss(reps, positives, tau, hard_negatives=negs)
        _check_grad(
            lambda x: tcl_loss(x, positives, tau, hard_negatives=negs).total,
            reps,
            res.gradients["reps"],
        )
        _check_grad(
            lambda x: tcl_loss(reps, x, tau, hard_negatives=negs).total,
            positives,
            res.gradients["dropout_positives"],
        )
        _check_grad(
            lambda x: tcl_loss(reps, positives, tau, hard_negatives=x).total,
            negs,
            res.gradients["hard_negatives"],
        )

        res = ans_loss(images, texts, negs, tau)
        _check_grad(lambda x: ans_loss(x, texts, negs, tau).total, images, res.gradients["image"])
        _check_grad(
            lambda x: ans_loss(images, texts, x, tau).total,
            negs,
            res.gradients["hard_negatives"],
        )

        # hinge: resample until every margin term is comfortably away from
        # its kink, so finite differences see a smooth function
        margin = 1.0
        for seed in range(100):
            hr = np.random.default_rng(1000 + seed)
            hi, ht = hr.normal(size=(n, d)), hr.normal(size=(n, d))
            hni, hnt = hr.normal(size=(n, d)), hr.normal(size=(n, d))

            def terms(a, b, na, nb):
                out = []
                for i in range(n):
                    pos = oracles.cos(a[i], b[i])
                    out.append(margin - pos + oracles.cos(na[i], b[i]))
                    out.append(margin - pos + oracles.cos(a[i], nb[i]))
                return out

            if min(abs(t) for t in terms(hi, ht, hni, hnt)) > 0.05:
                break
        else:
            pytest.fail("no kink-free hinge sample found")
        res = hinge_loss(hi, ht, hni, hnt, margin)
        for name, value in (
            ("image", hi), ("text", ht),
            ("negative_images", hni), ("negative_texts", hnt),
        ):
            def value_fn(x, _name=name, _hi=hi, _ht=ht, _hni=hni, _hnt=hnt):
                parts = {"image": _hi, "text": _ht,
                         "negative_images": _hni, "negative_texts": _hnt}
                parts[_name] = x
                return hinge_loss(
                    parts["image"], parts["text"],
                    parts["negative_images"], parts["negative_texts"],
                    margin,
                ).total

            _check_grad(value_fn, value, res.gradients[name])

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. reduction identities
# ---------------------------------------------------------------------------


def _tiny_training_setup():
    world = generate_world(SynthConfig(n_train_pairs=24, n_retrieval=8, seed=3))
    data = TrainingData(pairs=world.pairs, vocab=world.vocab, bank=world.bank)
    config = PretrainConfig(
        batch_size=8, max_len=12, learning_rate=0.05, epochs=2, seed=0,
        dim=16, ffn_dim=32, num_blocks=1, dropout=0.1,
    )
    return data, config


def test_criterion_3_reduction_identities():
    with criterion(3, "exact reduction identities"):
        rng = np.random.default_rng(5)
        n, d = 5, 12
        images = rng.normal(size=(n, d))
        texts = rng.normal(size=(n, d))

        # ans with zero hard negatives is cmcl, bit for bit
        plain = cmcl_total(images, texts, 0.05)
        reduced = ans_loss(images, texts, np.zeros((n, 0, d)), 0.05)
        assert reduced.total == plain.total
        np.testing.assert_array_equal(reduced.per_item, plain.per_item)

        # distillation with zero transfer weight replays the MLM-only loop
        data, config = _tiny_training_setup()
        teacher = train_teacher(data, config)
        mlm_run = pretrain("MLM", data, config)
        student = distill(
            teacher.final, data, DistillSpec(mlm_weight=1.0, nst_weight=0.0), config
        )
        assert len(student.loss_rows) == len(mlm_run.loss_rows)
        for srow, mrow in zip(student.loss_rows, mlm_run.loss_rows):
            assert srow["total"] == mrow["total"]
            assert srow["nst"] == 0.0
        s_params = student.final.text_params()
        m_params = mlm_run.final.text_params()
        for name in m_params:
            np.testing.assert_array_equal(s_params[name], m_params[name])

        # satisfied margins mean exactly zero hinge loss
        pos = np.eye(4, 6)
        sat = hinge_loss(pos, pos, -pos, -pos, 1.0)
        assert sat.total == 0.0

        # a single pair has no negatives, so InfoNCE (tcl_loss without hard
        # negatives) is exactly zero
        one = tcl_loss(rng.normal(size=(1, d)), rng.normal(size=(1, d)), 0.05)
        assert one.total == 0.0


# ---------------------------------------------------------------------------
# 4. masking statistics
# ---------------------------------------------------------------------------


def test_criterion_4_masking_statistics():
    with criterion(4, "masking rate 0.15 and 80/10/10 split"):
        words = " ".join(f"w{i}" for i in range(50))
        vocab = Vocab.from_texts([words])
        content = vocab.content_ids()
        total = 100_000
        tokens = content[np.arange(total) % len(content)].reshape(100, 1000)
        _, selected, actions = plan_dynamic_masking(tokens, vocab, rng_for(0, "mask-stats"))
        rate = selected.sum() / total
        assert abs(rate - 0.15) <= 0.005, f"selection rate {rate:.4f}"
        shares = np.bincount(actions, minlength=3) / len(actions)
        for action, share, got in zip(ACTIONS, (0.8, 0.1, 0.1), shares, strict=True):
            assert abs(got - share) <= 0.01, f"{action} share {got:.4f}"


# ---------------------------------------------------------------------------
# 5. perturbation pipeline vs exhaustive enumeration
# ---------------------------------------------------------------------------


def _enumerate_records(caption, tagger, oracle, lexicon_path, rng, n_positions, k):
    """From-scratch replay: pick ``n_positions`` positions the same way,
    then walk up to ``k`` proposals each in oracle order and classify them
    by the lexicon file walk."""
    words = caption.lower().split()
    positions = select_content_words(caption, tagger, rng, n=n_positions)
    records = []
    for position in positions:
        original = words[position]
        seen = []
        raw = oracle.top_candidates(words, position, k + 1)
        for candidate in raw:
            candidate = candidate.lower()
            if candidate == original or candidate in seen or " " in candidate:
                continue
            seen.append(candidate)
            if len(seen) == k:
                break
        for replacement in seen:
            equivalent = oracles.lexicon_walk_equivalent(
                lexicon_path, original, replacement
            )
            verdict = EQUIVALENT_POSITIVE if equivalent else ADVERSARIAL_NEGATIVE
            records.append(
                PerturbationRecord(
                    " ".join(words), position, original, replacement, verdict
                )
            )
    return records


def test_criterion_5_perturbation_enumeration():
    with criterion(5, "perturbation matches exhaustive enumeration"):
        lexicon = Lexicon.load(mini_lexicon_path())
        tagger = PosTagger.load(mini_pos_tags_path())
        oracle = MockOracle(
            {
                "girl": ["woman", "boy", "dog", "cat", "man", "person"],
                "puts": ["places", "holds", "carries", "eats", "rides"],
                "apple": ["fruit", "dog", "cat", "car", "bag", "pear"],
                "bag": ["container", "car", "dog", "sofa", "couch"],
                "rides": ["bike", "drives", "moves", "walks", "holds"],
                "bicycle": ["bike", "car", "dog", "vehicle", "boat"],
            }
        )
        captions = [
            "A girl puts an apple in her bag",
            "a girl rides a bicycle",
            "the bag holds an apple",
        ]
        for caption in captions:
            for seed in range(20):
                got = perturb_caption(
                    caption, tagger, oracle, lexicon,
                    np.random.default_rng(seed),
                )
                want = _enumerate_records(
                    caption, tagger, oracle, mini_lexicon_path(),
                    np.random.default_rng(seed), 3, 5,
                )
                assert got == want, (caption, seed)
                assert len(got) <= 15
                # soundness of the verdict split
                for record in got:
                    equivalent = oracles.lexicon_walk_equivalent(
                        mini_lexicon_path(), record.original, record.replacement
                    )
                    expected = (
                        EQUIVALENT_POSITIVE if equivalent else ADVERSARIAL_NEGATIVE
                    )
                    assert record.verdict == expected
                # single-edit property
                for record in got:
                    edited = record.perturbed_caption().split()
                    source = caption.lower().split()
                    assert len(edited) == len(source)
                    assert sum(a != b for a, b in zip(edited, source)) == 1


# ---------------------------------------------------------------------------
# 6. synthetic cross-modal experiment
# ---------------------------------------------------------------------------


def _heldout_recall(result, world):
    encoder, vocab = restore_text_encoder(result.final)
    image_params = result.final.image_params()
    image_encoder = ImageEncoder(
        world.bank, image_params["proj_w"], image_params["proj_b"]
    )
    dev = [p for p in world.pairs if p.split == "dev"]
    image_vectors = image_encoder.encode([p.image_id for p in dev]).vectors
    seqs = [tokenize(p.caption, vocab, max_len=ACCEPT_CONFIG.max_len) for p in dev]
    return retrieval_recall_at_1(encoder, image_vectors, seqs)


def test_criterion_6_synthetic_retrieval(world, cmcl_run, ans_run):
    with criterion(6, "cross-modal pre-training lifts retrieval recall@1"):
        cmcl_result, cmcl_secs = cmcl_run
        ans_result, ans_secs = ans_run
        assert cmcl_secs + ans_secs < 300.0, "budget is five CPU-minutes"
        n_candidates = sum(1 for p in world.pairs if p.split == "dev")
        assert n_candidates == 32  # chance level about 0.03
        cmcl_recall = _heldout_recall(cmcl_result, world)
        ans_recall = _heldout_recall(ans_result, world)
        print(f"  recall@1: cmcl={cmcl_recall:.3f} ans={ans_recall:.3f}")
        assert cmcl_recall >= 0.8
        assert ans_recall >= cmcl_recall - 0.02


# ---------------------------------------------------------------------------
# 7. synthetic downstream transfer
# ---------------------------------------------------------------------------


def test_criterion_7_downstream_transfer(world, cmcl_run):
    with criterion(7, "64-example transfer beats random init by 10 points"):
        cmcl_result, _ = cmcl_run
        config = FinetuneConfig(
            learning_rates=(0.1,),
            max_epochs_low_resource=30,
            batch_size=16,
            seed=0,
        )
        random_ckpt = bundle_text_encoder(
            TextEncoder(ACCEPT_CONFIG.encoder_config(len(world.vocab)), seed=7),
            world.vocab,
            {"method": "random-init"},
        )
        pretrained = low_resource_protocol(
            cmcl_result.final, world.mcqa, config, sizes=(64,)
        )[0]
        random_init = low_resource_protocol(
            random_ckpt, world.mcqa, config, sizes=(64,)
        )[0]
        assert len(pretrained.accuracies) == 5
        gap = pretrained.mean - random_init.mean
        print(
            f"  accuracy: pretrained={pretrained.mean:.3f} "
            f"random={random_init.mean:.3f} gap={gap:+.3f}"
        )
        assert gap >= 0.10


# ---------------------------------------------------------------------------
# 8. protocol fidelity and report round-trip
# ---------------------------------------------------------------------------


def test_criterion_8_protocol_fidelity(world):
    with criterion(8, "protocol shapes, table render, CSV round-trip"):
        quick = FinetuneConfig(
            learning_rates=(0.1,),
            max_epochs_low_resource=1,
            max_epochs_full=1,
            batch_size=32,
            seed=0,
        )
        ckpt = bundle_text_encoder(
            TextEncoder(
                PretrainConfig(dim=16, ffn_dim=32, num_blocks=1, max_len=16)
                .encoder_config(len(world.vocab)),
                seed=1,
            ),
            world.vocab,
            {"method": "MLM"},
        )
        low = low_resource_protocol(ckpt, world.mcqa, quick)
        assert [run.size for run in low] == ["64", "128"]
        for run in low:
            assert len(run.accuracies) == 5
            assert len(set(run.seeds)) == 5
        full = supervised_protocol(ckpt, world.mcqa, quick)
        assert full.size == "full"
        assert len(full.accuracies) == 3

        # table render with the reference fixture cell
        def run_for(method, dataset, size, accuracies):
            return EvalRun(
                dataset=dataset, method=method, size=size,
                accuracies=accuracies, seeds=tuple(range(len(accuracies))),
                learning_rate=1e-4,
            )

        runs = [run_for("BERT-base", "piqa", "64", (0.517, 0.535))]
        for size, accs in (("128", (0.52, 0.56)),):
            runs.append(run_for("BERT-base", "piqa", size, accs))
        for method in ("CMCL",):
            runs.append(run_for(method, "piqa", "64", (0.54, 0.56)))
            runs.append(run_for(method, "piqa", "128", (0.57, 0.59)))
        rendered = report(runs, layout="low_resource")
        assert "52.6±0.9" in rendered.text
        parsed = parse_report_csv(rendered.csv)
        again = report(parsed, layout="low_resource")
        assert again.text == rendered.text
        assert again.csv == rendered.csv


# ---------------------------------------------------------------------------
# 9. determinism of the pipeline commands
# ---------------------------------------------------------------------------


def _tree_bytes(root: Path) -> dict:
    out = {}
    for member in sorted(root.rglob("*")):
        if member.is_file() and not member.name.endswith("manifest.json"):
            out[str(member.relative_to(root))] = member.read_bytes()
    return out


def _run_pipeline(base: Path) -> dict:
    base.mkdir()
    pre_cfg = base / "pretrain.json"
    pre_cfg.write_text(json.dumps({
        "batch_size": 16, "max_len": 16, "learning_rate": 0.05, "epochs": 2,
        "seed": 0, "dim": 16, "ffn_dim": 32, "num_blocks": 1, "dropout": 0.1,
    }))
    ft_cfg = base / "finetune.json"
    ft_cfg.write_text(json.dumps({
        "learning_rates": [0.1], "max_epochs_low_resource": 1,
        "max_epochs_full": 1, "batch_size": 32, "seed": 0,
    }))
    synth_cfg = base / "synth.json"
    synth_cfg.write_text(json.dumps({
        "n_train_pairs": 32, "n_retrieval": 8, "mcqa_train": 144,
        "mcqa_dev": 24, "mcqa_test": 40, "similarity_pairs": 8, "seed": 0,
    }))
    world = base / "world"
    steps = [
        ["synth", "--out", str(world), "--config", str(synth_cfg)],
        ["perturb", "--pairs", str(world / "pairs.tsv"),
         "--lexicon", str(world / "lexicon.tsv"),
         "--tags", str(world / "postags.tsv"),
         "--oracle", "table", "--oracle-table", str(world / "oracle.tsv"),
         "--out", str(base / "records.tsv"), "--seed", "0"],
        ["pretrain", "--method", "MLM", "--pairs", str(world / "pairs.tsv"),
         "--vocab", str(world / "vocab.txt"),
         "--out", str(base / "mlm"), "--config", str(pre_cfg)],
        ["teacher", "--objective", "cmcl", "--pairs", str(world / "pairs.tsv"),
         "--vocab", str(world / "vocab.txt"), "--bank", str(world / "features.npz"),
         "--out", str(base / "teacher"), "--config", str(pre_cfg)],
        ["distill", "--teacher", str(base / "teacher" / "checkpoint-final.ckpt"),
         "--pairs", str(world / "pairs.tsv"), "--vocab", str(world / "vocab.txt"),
         "--out", str(base / "student"), "--config", str(pre_cfg)],
        ["finetune", "--checkpoint", str(base / "mlm" / "checkpoint-final.ckpt"),
         "--dataset", str(world / "mcqa.jsonl"), "--learning-rate", "0.1",
         "--train-size", "32", "--config", str(ft_cfg),
         "--out", str(base / "finetune.json.out")],
        ["eval", "--checkpoint", str(base / "mlm" / "checkpoint-final.ckpt"),
         "--dataset", str(world / "mcqa.jsonl"), "--protocol", "low64",
         "--config", str(ft_cfg), "--out", str(base / "runs64.jsonl")],
        ["eval", "--checkpoint", str(base / "mlm" / "checkpoint-final.ckpt"),
         "--dataset", str(world / "mcqa.jsonl"), "--protocol", "low128",
         "--config", str(ft_cfg), "--out", str(base / "runs128.jsonl")],
        ["report", "--runs", str(base / "runs64.jsonl"), str(base / "runs128.jsonl"),
         "--layout", "low_resource", "--plot-data", "--render",
         "--out", str(base / "report")],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, argv[0]
    return _tree_bytes(base)


def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    with criterion(9, "pipeline commands re-run byte-identically"):
        first = _run_pipeline(tmp_path / "a")
        second = _run_pipeline(tmp_path / "b")
        capsys.readouterr()  # command chatter is not part of the contract
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
