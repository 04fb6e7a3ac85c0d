"""Format fuzzing: every file the pipeline reads, cut short at any byte, with
any one byte replaced or with one line written twice, either loads or
raises ParseError. Nothing else may escape a loader."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmkt.checkpoint import bundle_text_encoder, load_checkpoint, save_checkpoint
from cmkt.corpus import Vocab, load_pairs
from cmkt.encoders import FeatureBank, TextEncoder, TextEncoderConfig
from cmkt.errors import ParseError
from cmkt.evaluation import EvalRun, load_mcqa, load_runs, save_runs
from cmkt.perturbation import Lexicon, PosTagger, load_records, perturb_caption, save_records
from cmkt.seeding import rng_for
from cmkt.synth import SynthConfig, generate_world, load_oracle_table, load_world, save_world
from cmkt.training import load_similarity_set, read_loss_log, write_loss_log

LOADERS = {
    "pairs.tsv": load_pairs,
    "features.npz": FeatureBank.load,
    "vocab.txt": Vocab.load,
    "lexicon.tsv": Lexicon.load,
    "postags.tsv": PosTagger.load,
    "oracle.tsv": load_oracle_table,
    "heldout.tsv": load_similarity_set,
    "mcqa.jsonl": load_mcqa,
    "world.json": lambda path: load_world(path.parent),
    "perturb.tsv": load_records,
    "runs.jsonl": load_runs,
    "loss.csv": read_loss_log,
    "model.ckpt": load_checkpoint,
}


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> Path:
    """A small synth world plus one file of each other format."""
    root = tmp_path_factory.mktemp("fuzz")
    world = generate_world(SynthConfig(n_train_pairs=12, n_retrieval=4, mcqa_train=6,
                                       mcqa_dev=3, mcqa_test=3, similarity_pairs=4))
    save_world(world, root)
    records = [
        record
        for index, pair in enumerate(world.pairs[:3])
        for record in perturb_caption(pair.caption, world.tagger, world.oracle,
                                      world.lexicon, rng_for(0, "perturb", index))
    ]
    save_records(records, root / "perturb.tsv")
    save_runs([EvalRun(dataset="d", method="MLM", size="64", accuracies=(0.25, 0.5),
                       seeds=(0, 1), learning_rate=0.1)], root / "runs.jsonl")
    rows = [{"step": s, "epoch": 1, "mlm": 1.0 / (s + 1), "total": 1.0 / (s + 1)}
            for s in range(3)]
    write_loss_log(rows, ["mlm"], root / "loss.csv")
    config = TextEncoderConfig(vocab_size=len(world.vocab), dim=4, ffn_dim=4,
                               num_blocks=1, max_len=4)
    save_checkpoint(bundle_text_encoder(TextEncoder(config), world.vocab, {"method": "MLM"}),
                    root / "model.ckpt")
    return root


def corruptions(original: bytes):
    """The file cut at a drawn offset, one drawn byte replaced, or one drawn
    line duplicated."""
    size = len(original)
    lines = original.splitlines(keepends=True)
    truncated = st.integers(0, size - 1).map(lambda cut: original[:cut])
    replaced = st.tuples(st.integers(0, size - 1), st.integers(0, 255)).map(
        lambda at: original[: at[0]] + bytes([at[1]]) + original[at[0] + 1 :]
    )
    duplicated = st.integers(0, len(lines) - 1).map(
        lambda i: b"".join(lines[: i + 1] + lines[i:])
    )
    return st.one_of(truncated, replaced, duplicated)


def test_every_loader_reads_its_pristine_file(files):
    for name, load in LOADERS.items():
        assert load(files / name) is not None, name


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupt_file_loads_or_raises_parse_error(files, name, data):
    path = files / name
    original = path.read_bytes()
    path.write_bytes(data.draw(corruptions(original), label="corrupt bytes"))
    try:
        LOADERS[name](path)
    except ParseError:
        pass
    finally:
        path.write_bytes(original)
