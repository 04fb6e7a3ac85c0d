"""Downstream harness: multiple-choice fine-tuning, the low-resource and
fully-supervised protocols, grid search, and report tables.

Scoring architecture: each (question, choice) concatenation is encoded,
a linear head maps the pooled vector to a scalar, and a softmax across
the item's choices feeds cross-entropy on the gold index. Binary
classification tasks are 2-choice instances of the same pipeline.

Epoch budget follows the protocol: train subsets of at most 128 items
get the low-resource budget, larger subsets the fully-supervised one.

Work done once: each (question, choice) text is tokenized once per
dataset object, vocabulary and max_len, and the grid search's fine-tune of
the first subsample at the chosen learning rate is the model that
subsample is scored with.

Work done side by side: a protocol's fine-tunes that do not depend on each
other (the grid's learning rates, then the subsamples or run seeds at the
chosen rate) run in forked workers, one per usable core, through
:func:`cmkt.parallel.map_forked`, which gives what one process gives.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .checkpoint import Checkpoint, bundled_config, restore_text_encoder
from .corpus import SEP, Vocab, tokenize
from .encoders import TextEncoder
from .errors import ConfigError, ParseError, ReportError, ShapeError, TrainingError
from .objectives import softmax_cross_entropy
from .parallel import map_forked
from .seeding import derive_seed, rng_for
from .textio import fits, parse_errors, read_lines, write_lines
from .training import sgd_loop

SPLITS = ("train", "dev", "test")

LOW_RESOURCE_SIZES = (64, 128)
LOW_RESOURCE_SUBSAMPLES = 5
SUPERVISED_SEEDS = 3
LOW_RESOURCE_THRESHOLD = 128


@dataclass(frozen=True)
class MCQAItem:
    """One multiple-choice item; binary tasks use two choices."""

    question: str
    choices: tuple[str, ...]
    gold: int
    split: str

    def __post_init__(self):
        if not (fits(("",), self.choices) and fits(0, self.gold)):
            raise ConfigError(f"need a list of strings as choices and an integer index as "
                              f"gold, got {self.choices!r} and {self.gold!r}")
        object.__setattr__(self, "choices", tuple(self.choices))
        if len(self.choices) < 2:
            raise ConfigError(f"need at least 2 choices, got {len(self.choices)}")
        if not 0 <= self.gold < len(self.choices):
            raise ConfigError(
                f"gold index {self.gold} outside {len(self.choices)} choices"
            )
        if self.split not in SPLITS:
            raise ConfigError(f"unknown split {self.split!r}; expected one of {SPLITS}")


@dataclass
class MCQADataset:
    """A named collection of items sharing one choice count."""

    name: str
    items: list[MCQAItem]
    n_choices: int
    # (vocabulary, max_len) -> {(question, choice): token ids}, filled by
    # the task models fine-tuned on this dataset
    token_tables: dict = dataclasses.field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_items(cls, name: str, items: Sequence[MCQAItem]) -> "MCQADataset":
        items = list(items)
        if not items:
            raise ConfigError(f"dataset {name!r} has no items")
        counts = {len(i.choices) for i in items}
        if len(counts) != 1:
            raise ConfigError(
                f"dataset {name!r} mixes choice counts {sorted(counts)}"
            )
        return cls(name=name, items=items, n_choices=counts.pop())

    def split(self, name: str) -> list[MCQAItem]:
        if name not in SPLITS:
            raise ConfigError(f"unknown split {name!r}")
        return [i for i in self.items if i.split == name]


def save_mcqa(dataset: MCQADataset, path: str | Path) -> None:
    # vars, not dataclasses.asdict, which deep-copies every string of every item
    write_lines(path, (json.dumps(vars(item), sort_keys=True) for item in dataset.items))


def load_mcqa(path: str | Path, name: Optional[str] = None) -> MCQADataset:
    items = []
    for where, line in read_lines(path):
        with parse_errors(where):
            raw = json.loads(line)
            items.append(
                MCQAItem(
                    question=raw["question"],
                    choices=raw["choices"],
                    gold=raw["gold"],
                    split=raw["split"],
                )
            )
    with parse_errors(path):
        return MCQADataset.from_items(name or Path(path).stem, items)


@dataclass(frozen=True)
class FinetuneConfig:
    """Grid and budget for downstream fine-tuning."""

    learning_rates: tuple[float, ...] = (5e-5, 1e-4, 3e-4, 4e-4, 5e-4, 6e-4)
    max_epochs_low_resource: int = 30
    max_epochs_full: int = 15
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "learning_rates", tuple(float(lr) for lr in self.learning_rates)
        )
        if not self.learning_rates:
            raise ConfigError("learning rate grid must be nonempty")
        if any(not lr > 0 for lr in self.learning_rates):
            raise ConfigError(f"learning rates must be positive: {self.learning_rates}")
        for field in ("max_epochs_low_resource", "max_epochs_full", "batch_size"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1")

    def epochs_for(self, subset_size: int) -> int:
        if subset_size <= LOW_RESOURCE_THRESHOLD:
            return self.max_epochs_low_resource
        return self.max_epochs_full


def _choice_tokens(table: dict, vocab: Vocab, max_len: int, item: MCQAItem) -> list[list[int]]:
    """The token ids of each (question, choice) text of ``item``, from
    ``table``, which gets the texts it lacks."""
    out = []
    for choice in item.choices:
        key = (item.question, choice)
        if key not in table:
            table[key] = tokenize(f"{item.question} {SEP} {choice}", vocab, max_len)
        out.append(table[key])
    return out


@dataclass
class TaskModel:
    """Encoder plus a scalar scoring head over pooled (question, choice)
    encodings."""

    encoder: TextEncoder
    vocab: Vocab
    head: dict  # "w": (dim,) weights, "b": the bias
    loss_rows: tuple[dict, ...] = ()
    # (question, choice) -> token ids, filled on first use; finetune hands
    # in the dataset's table so every model tuned on it shares one
    token_ids: dict = dataclasses.field(default_factory=dict, repr=False)

    def score_items(
        self,
        items: Sequence[MCQAItem],
        dropout_seed: Optional[int] = None,
        *,
        record: bool = True,
    ) -> tuple[np.ndarray, dict]:
        """(n_items, n_choices) head scores and the encoder cache they came
        from; dropout only when a seed is given (training), and the cache
        keeps what backward needs only when ``record`` is true."""
        if not items:
            raise ConfigError("no items to score")
        n_choices = len(items[0].choices)
        max_len = self.encoder.config.max_len
        seqs = [toks for item in items
                for toks in _choice_tokens(self.token_ids, self.vocab, max_len, item)]
        padded = self.encoder.prepare_batch(seqs)
        cache = self.encoder.forward(*padded, dropout_seed, record=record)
        scores = cache["pooled"] @ self.head["w"] + self.head["b"]
        return scores.reshape(len(items), n_choices), cache

    def predict(self, items: Sequence[MCQAItem]) -> list[int]:
        """Argmax choice per item; exact ties resolve to the lowest index.
        Non-finite scores mean fine-tuning diverged: TrainingError."""
        scores, _ = self.score_items(items, record=False)
        if not np.isfinite(scores).all():
            raise TrainingError("non-finite choice scores: the fine-tuned model diverged")
        return [int(i) for i in np.argmax(scores, axis=1)]


def build_task_model(checkpoint: Checkpoint, seed: int) -> TaskModel:
    """Fresh head on a restored encoder; the starting point of fine-tuning."""
    encoder, vocab = restore_text_encoder(checkpoint)
    rng = rng_for(seed, "head")
    head = {"w": rng.normal(scale=0.02, size=encoder.config.dim), "b": 0.0}
    return TaskModel(encoder=encoder, vocab=vocab, head=head)


def _token_table(checkpoint: Checkpoint, dataset: MCQADataset, max_len: int) -> dict:
    """The dataset's token table for the checkpoint's vocabulary and ``max_len``."""
    return dataset.token_tables.setdefault((tuple(checkpoint.meta["vocab"]), max_len), {})


def _task_model(checkpoint: Checkpoint, dataset: MCQADataset, seed: int) -> TaskModel:
    """:func:`build_task_model` whose token table is the dataset's table for
    the checkpoint's vocabulary and max_len."""
    model = build_task_model(checkpoint, seed)
    model.token_ids = _token_table(checkpoint, dataset, model.encoder.config.max_len)
    return model


def finetune(
    checkpoint: Checkpoint,
    dataset: MCQADataset,
    subset: Sequence[MCQAItem],
    learning_rate: float,
    config: FinetuneConfig,
) -> TaskModel:
    """Train encoder and head on the subset with cross-choice softmax
    cross-entropy; deterministic given the config seed. A non-finite loss
    or parameter raises :class:`TrainingError` with its step."""
    subset = list(subset)
    if not subset:
        raise ConfigError("fine-tuning subset is empty")
    outside = [i for i in subset if i.split != "train"]
    if outside:
        raise ConfigError(
            f"{len(outside)} subset items are not from the train split"
        )
    if not learning_rate > 0:
        raise ConfigError(f"learning rate must be positive, got {learning_rate}")

    model = _task_model(checkpoint, dataset, config.seed)
    encoder = model.encoder

    def step_fn(batch, epoch, step):
        scores, cache = model.score_items(
            batch, derive_seed(config.seed, "ft-dropout", epoch, step)
        )
        loss, d_scores = softmax_cross_entropy(scores, np.array([item.gold for item in batch]))
        d_flat = d_scores.reshape(-1)
        grads = encoder.backward(cache, d_pooled=np.outer(d_flat, model.head["w"]))
        head_grads = {"w": cache["pooled"].T @ d_flat, "b": float(d_flat.sum())}
        return {"total": loss}, (grads, head_grads)

    model.loss_rows = tuple(sgd_loop(
        subset, config.seed, "ft-order", config.epochs_for(len(subset)), config.batch_size,
        learning_rate, step_fn, (encoder.params, model.head),
    ))
    return model


def evaluate(model: TaskModel, items: Sequence[MCQAItem], batch_size: int) -> float:
    """Fraction of items whose top-scoring choice is the gold one; a model
    with non-finite scores raises :class:`TrainingError`. Items are scored
    ``batch_size`` at a time, the fine-tune batch, so inference never holds
    more rows than a training step. Padding is masked out, so the chunks
    predict what one forward over all items would."""
    items = list(items)
    if not items:
        raise ConfigError("cannot evaluate on an empty split")
    correct = 0
    for start in range(0, len(items), batch_size):
        part = items[start : start + batch_size]
        predictions = model.predict(part)
        correct += sum(
            1 for item, pred in zip(part, predictions) if pred == item.gold
        )
    return correct / len(items)


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalRun:
    """Accuracies of one method on one dataset at one train size."""

    dataset: str
    method: str
    size: str
    accuracies: tuple[float, ...]
    seeds: tuple[int, ...]
    learning_rate: float

    def __post_init__(self):
        if not all(map(fits, ("", "", "", (0.0,), (0,), 0.0), dataclasses.astuple(self))):
            raise ConfigError(f"a run's fields have the wrong types: {self!r}")
        object.__setattr__(self, "accuracies", tuple(map(float, self.accuracies)))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "learning_rate", float(self.learning_rate))
        if not self.accuracies:
            raise ConfigError("a run needs at least one accuracy")
        if len(self.accuracies) != len(self.seeds):
            raise ConfigError(
                f"{len(self.accuracies)} accuracies for {len(self.seeds)} seeds"
            )
        if any(not 0.0 <= a <= 1.0 for a in self.accuracies):
            raise ConfigError(f"accuracies outside [0, 1]: {self.accuracies}")

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))


def save_runs(runs: Sequence[EvalRun], path: str | Path) -> None:
    write_lines(path, (json.dumps(dataclasses.asdict(run), sort_keys=True) for run in runs))


def load_runs(path: str | Path) -> list[EvalRun]:
    runs = []
    for where, line in read_lines(path):
        with parse_errors(where):
            runs.append(EvalRun(**json.loads(line)))
    return runs


# (train subset, learning rate, config): one independent fine-tune
Job = tuple[Sequence[MCQAItem], float, FinetuneConfig]


def _run_finetunes(checkpoint: Checkpoint, dataset: MCQADataset, jobs: Sequence[Job],
                   splits: Sequence[Sequence[MCQAItem]]) -> list[tuple[float, ...]]:
    """The accuracies on each split of the model each job fine-tunes, in job
    order, from :func:`map_forked`; the dataset's token table is filled
    first, from the checkpoint's vocabulary and max_len, so no worker
    tokenizes. A fine-tune is a deterministic function of its inputs, so
    the worker count changes no result."""
    encoder_config, vocab = bundled_config(checkpoint)
    table = _token_table(checkpoint, dataset, encoder_config.max_len)
    for items in (*splits, *(subset for subset, _, _ in jobs)):
        for item in items:
            _choice_tokens(table, vocab, encoder_config.max_len, item)

    def scores(job: Job) -> tuple[float, ...]:
        subset, learning_rate, config = job
        model = finetune(checkpoint, dataset, subset, learning_rate, config)
        return tuple(evaluate(model, split, config.batch_size) for split in splits)

    return map_forked(scores, jobs)


@dataclass(frozen=True)
class GridResult:
    best_learning_rate: float
    table: tuple[tuple[float, float], ...]  # (learning rate, dev accuracy)
    # the accuracies on grid_search's ``score`` splits of the fine-tune at
    # the best rate: what finetune(..., best rate, config) scores there
    best_scores: tuple[float, ...] = ()


def grid_search(
    checkpoint: Checkpoint,
    dataset: MCQADataset,
    subset: Sequence[MCQAItem],
    config: FinetuneConfig,
    score: Sequence[Sequence[MCQAItem]] = (),
) -> GridResult:
    """One fine-tune per grid learning rate, scored on the dev split and on
    each split of ``score``; ties resolve to the smaller rate."""
    dev = dataset.split("dev")
    if not dev:
        raise ConfigError(f"dataset {dataset.name!r} has no dev split")
    rates = sorted(config.learning_rates)
    results = _run_finetunes(
        checkpoint, dataset, [(subset, lr, config) for lr in rates], (dev, *score)
    )
    best = max(range(len(rates)), key=lambda i: results[i][0])  # the first of equals
    return GridResult(
        best_learning_rate=rates[best],
        table=tuple((lr, scores[0]) for lr, scores in zip(rates, results)),
        best_scores=results[best][1:],
    )


def subsample(
    dataset: MCQADataset, size: int, seed: int, index: int
) -> list[MCQAItem]:
    train = dataset.split("train")
    rng = rng_for(seed, "subsample", dataset.name, size, index)
    picked = rng.choice(len(train), size=size, replace=False)
    return [train[int(i)] for i in picked]


def low_resource_protocol(
    checkpoint: Checkpoint,
    dataset: MCQADataset,
    config: FinetuneConfig,
    sizes: Sequence[int] = LOW_RESOURCE_SIZES,
    n_subsamples: int = LOW_RESOURCE_SUBSAMPLES,
    method: Optional[str] = None,
) -> list[EvalRun]:
    """For each size: seeded subsamples, one grid search on the first,
    fine-tune each, score the fixed test split. The first subsample's
    test accuracy is the grid's, which already trained it at the chosen
    rate."""
    train = dataset.split("train")
    test = dataset.split("test")
    if not test:
        raise ConfigError(f"dataset {dataset.name!r} has no test split")
    for size in sizes:
        if size > len(train):
            raise ConfigError(
                f"train split has {len(train)} items, cannot subsample {size}"
            )
        if not 0 < size <= LOW_RESOURCE_THRESHOLD:
            raise ConfigError(
                f"low-resource sizes are 1..{LOW_RESOURCE_THRESHOLD}, got {size}; "
                "use the supervised protocol for full training"
            )
    method = method or str(checkpoint.meta.get("method", "unknown"))
    runs = []
    for size in sizes:
        subsets = [
            subsample(dataset, size, config.seed, s) for s in range(n_subsamples)
        ]
        grid = grid_search(checkpoint, dataset, subsets[0], config, score=(test,))
        rest = _run_finetunes(
            checkpoint, dataset,
            [(subset, grid.best_learning_rate, config) for subset in subsets[1:]], (test,),
        )
        runs.append(
            EvalRun(
                dataset=dataset.name,
                method=method,
                size=str(size),
                accuracies=(*grid.best_scores, *(accuracy for accuracy, in rest)),
                seeds=tuple(range(n_subsamples)),
                learning_rate=grid.best_learning_rate,
            )
        )
    return runs


def supervised_protocol(
    checkpoint: Checkpoint,
    dataset: MCQADataset,
    config: FinetuneConfig,
    n_seeds: int = SUPERVISED_SEEDS,
    method: Optional[str] = None,
) -> EvalRun:
    """Full train split, several run seeds, one grid search shared by all."""
    train = dataset.split("train")
    test = dataset.split("test")
    if not train:
        raise ConfigError(f"dataset {dataset.name!r} has no train split")
    if not test:
        raise ConfigError(f"dataset {dataset.name!r} has no test split")
    method = method or str(checkpoint.meta.get("method", "unknown"))
    grid = grid_search(checkpoint, dataset, train, config)
    runs = [
        (train, grid.best_learning_rate,
         dataclasses.replace(config, seed=derive_seed(config.seed, "run", run_seed)))
        for run_seed in range(n_seeds)
    ]
    scores = _run_finetunes(checkpoint, dataset, runs, (test,))
    return EvalRun(
        dataset=dataset.name,
        method=method,
        size="full",
        accuracies=tuple(accuracy for accuracy, in scores),
        seeds=tuple(range(n_seeds)),
        learning_rate=grid.best_learning_rate,
    )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# row grouping in the rendered table: methods trained on captions alone
# versus methods that consumed the paired images
CAPTION_METHOD_GROUP = (
    "BERT-base",
    "random-init",
    "MLM",
    "TCL",
    "TCL+MLM",
    "TCL+ANS",
    "TCL+PSA+ANS",
)
PAIR_METHOD_GROUP = ("VOKEN+MLM", "CMCL", "CMCL+ANS", "CMCL+PSA+ANS", "CMKD")


def format_cell(mean: float, std: float) -> str:
    return f"{100.0 * mean:.1f}±{100.0 * std:.1f}"


@dataclass
class Report:
    layout: str
    text: str
    csv: str
    rows: tuple[tuple, ...]


def _method_sort_key(method: str):
    if method in CAPTION_METHOD_GROUP:
        return (0, CAPTION_METHOD_GROUP.index(method))
    if method in PAIR_METHOD_GROUP:
        return (1, PAIR_METHOD_GROUP.index(method))
    return (2, method)


def _group_label(method: str) -> str:
    if method in PAIR_METHOD_GROUP:
        return "caption-image pairs"
    if method in CAPTION_METHOD_GROUP:
        return "caption"
    return "other"


def report(runs: Sequence[EvalRun], layout: str = "low_resource") -> Report:
    """Aligned table plus CSV; methods grouped by training source, one
    column per dataset and size, and a trailing Average column."""
    if layout not in ("low_resource", "full"):
        raise ConfigError(f"unknown layout {layout!r}")
    runs = list(runs)
    if not runs:
        raise ReportError("no runs to report")
    expected_sizes = ("64", "128") if layout == "low_resource" else ("full",)
    wrong = [r for r in runs if r.size not in expected_sizes]
    if wrong:
        raise ReportError(
            f"layout {layout} expects sizes {expected_sizes}, found "
            f"{sorted({r.size for r in wrong})}"
        )
    by_key = {}
    for run in runs:
        key = (run.method, run.dataset, run.size)
        if key in by_key:
            raise ReportError(f"duplicate cell {key}")
        by_key[key] = run
    methods = sorted({r.method for r in runs}, key=_method_sort_key)
    datasets = sorted({r.dataset for r in runs})
    columns = [(d, s) for d in datasets for s in expected_sizes]
    missing = [
        (m, d, s) for m in methods for d, s in columns if (m, d, s) not in by_key
    ]
    if missing:
        raise ReportError(
            "missing cells: " + ", ".join(f"{m}/{d}/{s}" for m, d, s in missing)
        )

    header = ["source", "method"] + [f"{d}-{s}" for d, s in columns] + ["average"]
    body_rows = []
    for method in methods:
        cells = [by_key[(method, d, s)] for d, s in columns]
        avg = float(np.mean([c.mean for c in cells]))
        body_rows.append(
            (
                _group_label(method),
                method,
                *[format_cell(c.mean, c.std) for c in cells],
                f"{100.0 * avg:.1f}",
            )
        )

    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in body_rows))
        for i in range(len(header))
    ]

    def render(parts):
        return "  ".join(str(p).ljust(w) for p, w in zip(parts, widths)).rstrip()

    lines = [render(header), render(["-" * w for w in widths])]
    previous_group = None
    for row in body_rows:
        if row[0] != previous_group and previous_group is not None:
            lines.append(render(["-" * w for w in widths]))
        previous_group = row[0]
        lines.append(render(row))
    footer = (
        "cells: mean±std over runs, in accuracy points. splits taken as "
        "given in the dataset files; learning rate chosen once per "
        "(dataset, size) on the first subsample's dev accuracy."
    )
    text = "\n".join(lines) + "\n\n" + footer + "\n"

    csv_buf = io.StringIO()
    writer = csv.writer(csv_buf)
    writer.writerow(
        ["method", "dataset", "size", "mean", "std", "learning_rate", "accuracies", "seeds"]
    )
    for method in methods:
        for d, s in columns:
            run = by_key[(method, d, s)]
            writer.writerow(
                [
                    run.method,
                    run.dataset,
                    run.size,
                    repr(run.mean),
                    repr(run.std),
                    repr(run.learning_rate),
                    ";".join(repr(a) for a in run.accuracies),
                    ";".join(str(s_) for s_ in run.seeds),
                ]
            )
    return Report(
        layout=layout, text=text, csv=csv_buf.getvalue(), rows=tuple(body_rows)
    )


def parse_report_csv(content: str) -> list[EvalRun]:
    """Inverse of the CSV half of :func:`report`."""
    reader = csv.reader(io.StringIO(content))
    header = next(reader, None)
    if header is None or header[:3] != ["method", "dataset", "size"]:
        raise ParseError("not a report CSV (bad header)")
    runs = []
    for row in reader:
        if not row:
            continue
        with parse_errors(f"report CSV:{reader.line_num}"):
            method, dataset, size, _mean, _std, lr, accs, seeds = row
            runs.append(
                EvalRun(
                    dataset=dataset,
                    method=method,
                    size=size,
                    accuracies=tuple(float(a) for a in accs.split(";")),
                    seeds=tuple(int(s) for s in seeds.split(";")),
                    learning_rate=float(lr),
                )
            )
    return runs


def plot_series(runs: Sequence[EvalRun]) -> list[tuple[str, list[tuple[str, float]]]]:
    """Accuracy-versus-train-size series, one per method, sizes ordered
    numerically with 'full' last."""

    def size_key(size: str):
        return (0, int(size)) if size.isdigit() else (1, size)

    methods = sorted({r.method for r in runs}, key=_method_sort_key)
    series = []
    for method in methods:
        points = sorted(
            ((r.size, r.mean) for r in runs if r.method == method),
            key=lambda p: size_key(p[0]),
        )
        series.append((method, points))
    return series


# ---------------------------------------------------------------------------
# retrieval readout (used by the synthetic end-to-end experiment)
# ---------------------------------------------------------------------------


def retrieval_recall_at_1(
    encoder: TextEncoder,
    image_vectors: np.ndarray,
    caption_seqs: Sequence[Sequence[int]],
) -> float:
    """Mean of text-to-image and image-to-text recall@1 over aligned
    (image row i, caption i) candidates, ranked by cosine."""
    images = np.asarray(image_vectors, dtype=np.float64)
    if images.ndim != 2 or images.shape[0] != len(caption_seqs):
        raise ShapeError(
            f"need one image row per caption: {images.shape} vs {len(caption_seqs)}"
        )
    texts = encoder.encode(caption_seqs)
    img_unit = images / np.linalg.norm(images, axis=1, keepdims=True)
    txt_unit = texts / np.linalg.norm(texts, axis=1, keepdims=True)
    sims = txt_unit @ img_unit.T
    n = sims.shape[0]
    text_to_image = float(np.mean(np.argmax(sims, axis=1) == np.arange(n)))
    image_to_text = float(np.mean(np.argmax(sims, axis=0) == np.arange(n)))
    return 0.5 * (text_to_image + image_to_text)
