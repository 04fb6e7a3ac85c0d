"""Command-line pipeline driver.

Subcommands: synth, perturb, pretrain, teacher, distill, finetune, eval,
report. Every command derives its randomness from --seed, writes exactly
one JSON manifest recording inputs (hashed), outputs, config, seed and
run provenance, and produces byte-identical outputs when re-run (the
manifest's timestamp and its timing and provenance fields aside). The
manifest goes inside a directory --out (``out/manifest.json``) and beside
a file --out (``<out>.manifest.json``); a failed command writes none.

Exit codes: 0 success; 2 usage or input errors; 3 runtime or training
failures. Relative input paths are also tried against $CMKT_DATA_DIR.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import platform
import resource
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import Vocab, load_pairs
from .distillation import DistillSpec, distill, train_teacher
from .encoders import FeatureBank
from .errors import CmktError, ConfigError, TrainingError
from .evaluation import (
    FinetuneConfig,
    evaluate,
    finetune,
    load_mcqa,
    load_runs,
    low_resource_protocol,
    plot_series,
    report,
    save_runs,
    subsample,
    supervised_protocol,
)
from .parallel import pin_blas_threads
from .perturbation import (
    FrequencyOracle,
    Lexicon,
    MockOracle,
    PosTagger,
    load_records,
    perturb_caption,
    save_records,
)
from .seeding import rng_for
from .synth import SynthConfig, generate_world, load_oracle_table, save_world
from .textio import file_digest, read_config, write_bytes, write_lines
from .training import (
    METHOD_NAMES,
    PretrainConfig,
    TrainingData,
    pretrain,
    write_loss_log,
)

DATA_DIR_VAR = "CMKT_DATA_DIR"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RUNTIME = 3

def _resolve_input(raw: str) -> Path:
    """Input paths are taken as given, falling back to $CMKT_DATA_DIR."""
    path = Path(raw)
    if path.exists() or path.is_absolute():
        return path
    root = os.environ.get(DATA_DIR_VAR)
    if root:
        candidate = Path(root) / path
        if candidate.exists():
            return candidate
    return path


def _require_file(raw: str, what: str) -> Path:
    path = _resolve_input(raw)
    if not path.exists():
        raise ConfigError(f"{what} not found: {raw}")
    return path


def _write_manifest(
    out: Path,
    command: str,
    config: dict,
    inputs: dict[str, Path],
    outputs: list[Path],
    seed: int,
    started: float,
    blas_threads: int | None,
) -> None:
    """Writes the command's manifest, inside ``out`` when the command left a
    directory there and beside it otherwise: inputs (hashed), outputs,
    config and seed, then provenance: the wall seconds since ``started`` (a
    ``time.perf_counter`` reading), the process's peak RSS in MB, the
    largest peak RSS of a reaped child process (the protocols' fine-tune
    workers and the training step worker; 0, or what the launcher ran
    before ``exec``, when none ran), the user plus
    system CPU seconds of the process and of its reaped children, the
    python and numpy versions, numpy's BLAS library and the OpenBLAS
    thread count ``blas_threads`` the command ran with. Like the
    timestamp, the times vary between re-runs, so no byte comparison reads
    a manifest."""
    own, children = (resource.getrusage(who)
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": command,
        "config": config,
        "inputs": {
            name: {"path": str(path), "blake2b": file_digest(path)}
            for name, path in inputs.items()
        },
        "outputs": sorted(str(p) for p in outputs),
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_s": time.perf_counter() - started,
        "peak_rss_mb": own.ru_maxrss / 1024.0,
        "peak_rss_children_mb": children.ru_maxrss / 1024.0,
        "cpu_s": own.ru_utime + own.ru_stime,
        "cpu_children_s": children.ru_utime + children.ru_stime,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }
    path = out / "manifest.json" if out.is_dir() else Path(f"{out}.manifest.json")
    write_lines(path, [json.dumps(manifest, indent=2, sort_keys=True)])


def _read_config(cls, args):
    """The command's config: the ``--config`` file read into dataclass
    ``cls`` (defaults without one), then ``--seed``."""
    if args.config is None:
        config = cls()
    else:
        config = read_config(cls, _require_file(args.config, "config file"))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


# ---------------------------------------------------------------------------
# subcommands: each returns what its manifest records, (config snapshot,
# inputs, outputs, seed), and main writes the manifest
# ---------------------------------------------------------------------------


def cmd_synth(args):
    config = _read_config(SynthConfig, args)
    out = Path(args.out)
    artifacts = generate_world(config)
    paths = save_world(artifacts, out)
    print(f"world written to {out} ({len(artifacts.pairs)} pairs)")
    return dataclasses.asdict(config), {}, list(paths.values()), config.seed


def cmd_perturb(args):
    seed = args.seed if args.seed is not None else 0
    pairs_path = _require_file(args.pairs, "pairs file")
    lexicon_path = _require_file(args.lexicon, "lexicon file")
    tags_path = _require_file(args.tags, "tag file")
    pairs = load_pairs(pairs_path)
    lexicon = Lexicon.load(lexicon_path)
    tagger = PosTagger.load(tags_path)
    inputs = {"pairs": pairs_path, "lexicon": lexicon_path, "tags": tags_path}
    if args.oracle == "table":
        if not args.oracle_table:
            raise ConfigError("--oracle table requires --oracle-table")
        table_path = _require_file(args.oracle_table, "oracle table")
        oracle = MockOracle(load_oracle_table(table_path))
        inputs["oracle_table"] = table_path
    else:
        oracle = FrequencyOracle([p.caption for p in pairs])

    records = []
    train = [p for p in pairs if p.split == "train"]
    for index, pair in enumerate(train):
        records.extend(
            perturb_caption(
                pair.caption, tagger, oracle, lexicon, rng_for(seed, "perturb", index)
            )
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_records(records, out)
    print(f"{len(records)} perturbation records from {len(train)} captions -> {out}")
    return {"oracle": args.oracle, "captions": len(train)}, inputs, [out], seed


def _train(args, train, settings: dict, inputs: dict[str, Path]):
    """The body of pretrain, teacher and distill: reads the config and the
    training data, runs ``train(data, config, on_epoch)``, then writes the
    final checkpoint and the loss log. ``on_epoch`` replaces
    ``out/checkpoint-last.ckpt`` and ``out/loss.csv`` as soon as each epoch
    ends, creating ``out`` on the first one, so a failed run keeps the
    checkpoint and the loss rows of its last completed epoch; a file
    standing where ``out`` or a parent of it must go is bad input,
    reported before anything is read or trained.
    ``settings`` joins the config in the manifest, ``inputs`` joins the
    pairs, vocab, bank and perturbation files."""
    out = Path(args.out)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(existing))
    config = _read_config(PretrainConfig, args)
    pairs_path = _require_file(args.pairs, "pairs file")
    vocab_path = _require_file(args.vocab, "vocab file")
    inputs = {**inputs, "pairs": pairs_path, "vocab": vocab_path}
    bank = None
    if getattr(args, "bank", None):
        inputs["bank"] = _require_file(args.bank, "feature bank")
        bank = FeatureBank.load(inputs["bank"])
    perturbations = None
    if getattr(args, "perturbations", None):
        inputs["perturbations"] = _require_file(args.perturbations, "perturbation file")
        perturbations = load_records(inputs["perturbations"])
    data = TrainingData(pairs=load_pairs(pairs_path), vocab=Vocab.load(vocab_path),
                        bank=bank, perturbations=perturbations)
    outputs = [out / "checkpoint-last.ckpt", out / "checkpoint-final.ckpt", out / "loss.csv"]

    rendered: list[str] = []  # the loss log's rows, each rendered once per run

    def write(run, checkpoint: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(run.final, checkpoint)
        write_loss_log(run.loss_rows, run.components, outputs[2], rendered)

    result = train(data, config, lambda run: write(run, outputs[0]))
    write(result, outputs[1])
    final_total = result.loss_rows[-1]["total"] if result.loss_rows else float("nan")
    print(f"{result.method}: {len(result.loss_rows)} steps, final loss {final_total:.4f} -> {out}")
    return {**dataclasses.asdict(config), **settings}, inputs, outputs, config.seed


# The trainers are looked up in this module at call time, where
# perfbench/tracing.py wraps them.
def cmd_pretrain(args):
    return _train(args, lambda data, config, on_epoch: pretrain(
        args.method, data, config, on_epoch=on_epoch), {"method": args.method}, {})


def cmd_teacher(args):
    return _train(args, lambda data, config, on_epoch: train_teacher(
        data, config, on_epoch=on_epoch), {"objective": args.objective}, {})


def cmd_distill(args):
    teacher_path = _require_file(args.teacher, "teacher checkpoint")
    spec = DistillSpec(mlm_weight=args.mlm_weight, nst_weight=args.nst_weight)
    return _train(args, lambda data, config, on_epoch: distill(
        load_checkpoint(teacher_path), data, spec, config, on_epoch=on_epoch),
        dataclasses.asdict(spec), {"teacher": teacher_path})


def _load_for_finetune(args):
    """The config, checkpoint, dataset and manifest inputs of finetune and
    eval."""
    config = _read_config(FinetuneConfig, args)
    inputs = {"checkpoint": _require_file(args.checkpoint, "checkpoint"),
              "dataset": _require_file(args.dataset, "dataset")}
    return config, load_checkpoint(inputs["checkpoint"]), load_mcqa(inputs["dataset"]), inputs


def cmd_finetune(args):
    config, checkpoint, dataset, inputs = _load_for_finetune(args)
    train = dataset.split("train")
    if args.train_size == "full":
        subset = train
    else:
        size = int(args.train_size)
        if size > len(train):
            raise ConfigError(f"train split has {len(train)} items, cannot take {size}")
        subset = subsample(dataset, size, config.seed, 0)
    test = dataset.split("test")
    if not test:
        raise ConfigError(f"dataset {dataset.name!r} has no test split")
    model = finetune(checkpoint, dataset, subset, args.learning_rate, config)
    accuracy = evaluate(model, test, config.batch_size)
    result = {
        "dataset": dataset.name,
        "method": str(checkpoint.meta.get("method", "unknown")),
        "train_size": args.train_size,
        "learning_rate": args.learning_rate,
        "test_accuracy": accuracy,
        "final_loss": model.loss_rows[-1]["total"] if model.loss_rows else None,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_lines(out, [json.dumps(result, indent=2, sort_keys=True)])
    print(f"test accuracy {accuracy:.3f} -> {out}")
    snapshot = {**dataclasses.asdict(config), "learning_rate": args.learning_rate,
                "train_size": args.train_size}
    return snapshot, inputs, [out], config.seed


def cmd_eval(args):
    config, checkpoint, dataset, inputs = _load_for_finetune(args)
    if args.protocol == "full":
        runs = [supervised_protocol(checkpoint, dataset, config, method=args.method)]
    else:
        size = 64 if args.protocol == "low64" else 128
        runs = low_resource_protocol(
            checkpoint, dataset, config, sizes=(size,), method=args.method
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_runs(runs, out)
    for run in runs:
        print(
            f"{run.method} {run.dataset} size={run.size}: "
            f"{100 * run.mean:.1f}±{100 * run.std:.1f} (lr={run.learning_rate})"
        )
    return {**dataclasses.asdict(config), "protocol": args.protocol}, inputs, [out], config.seed


def _plot_csv(series) -> list[str]:
    lines = ["method,size,mean_accuracy"]
    for method, points in series:
        for size, mean in points:
            lines.append(f"{method},{size},{mean!r}")
    return lines


def _plot_svg(series) -> list[str]:
    """Minimal line chart: accuracy against train size, one polyline per
    method."""
    width, height, margin = 480, 320, 48
    sizes = []
    for _, points in series:
        for size, _ in points:
            if size not in sizes:
                sizes.append(size)
    xs = {
        size: margin + i * (width - 2 * margin) / max(len(sizes) - 1, 1)
        for i, size in enumerate(sizes)
    }

    def y_of(acc):
        return height - margin - acc * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for size, x in xs.items():
        parts.append(
            f'<text x="{x:.1f}" y="{height - margin + 16}" font-size="11" '
            f'text-anchor="middle">{size}</text>'
        )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{margin - 6}" y="{y_of(tick):.1f}" font-size="11" '
            f'text-anchor="end">{tick:.2f}</text>'
        )
    for index, (method, points) in enumerate(series):
        color = palette[index % len(palette)]
        coords = " ".join(f"{xs[s]:.1f},{y_of(a):.1f}" for s, a in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * index}" font-size="11" '
            f'fill="{color}">{method}</text>'
        )
    parts.append("</svg>")
    return parts


def cmd_report(args):
    runs = []
    inputs = {}
    for index, raw in enumerate(args.runs):
        path = _require_file(raw, "runs file")
        inputs[f"runs{index}"] = path
        runs.extend(load_runs(path))
    result = report(runs, layout=args.layout)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [out / "report.txt", out / "report.csv"]
    write_bytes(outputs[0], result.text.encode("utf-8"))
    write_bytes(outputs[1], result.csv.encode("utf-8"))
    if args.plot_data or args.render:
        series = plot_series(runs)
        plot_path = out / "plot.csv"
        write_lines(plot_path, _plot_csv(series))
        outputs.append(plot_path)
        if args.render:
            svg_path = out / "plot.svg"
            write_lines(svg_path, _plot_svg(series))
            outputs.append(svg_path)
    print(result.text)
    settings = {"layout": args.layout, "plot_data": bool(args.plot_data),
                "render": bool(args.render)}
    return settings, inputs, outputs, args.seed if args.seed is not None else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _finite_float(raw: str) -> float:
    """A float flag's value; NaN and infinities are bad input."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _train_size(raw: str) -> str:
    """``--train-size``: ``full`` or a positive int, kept as written."""
    if raw != "full" and not (raw.isdecimal() and int(raw) > 0):
        raise argparse.ArgumentTypeError(f"expected 'full' or a positive integer, got {raw!r}")
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmkt",
        description="Visual-knowledge transfer pipeline: synthesize data, "
        "perturb captions, pre-train, distill, fine-tune, evaluate, report.",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="master seed; overrides the config file")
    common = argparse.ArgumentParser(add_help=False, parents=[seeded])
    common.add_argument("--config", default=None,
                        help="JSON config file for the command")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate the synthetic grounded-language world")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("perturb", parents=[seeded],
                       help="generate caption perturbation records")
    p.add_argument("--pairs", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--tags", required=True)
    p.add_argument("--oracle", choices=("frequency", "table"), default="frequency")
    p.add_argument("--oracle-table", default=None)
    p.add_argument("--out", required=True, help="output records file")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("pretrain", parents=[common],
                       help="intermediate pre-training with a named method")
    p.add_argument("--method", required=True, choices=METHOD_NAMES)
    p.add_argument("--pairs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--bank", default=None)
    p.add_argument("--perturbations", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("teacher", parents=[common],
                       help="train a cross-modal teacher for distillation")
    p.add_argument("--objective", choices=("cmcl",), default="cmcl")
    p.add_argument("--pairs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_teacher)

    p = sub.add_parser("distill", parents=[common],
                       help="distill a teacher checkpoint into a text-only student")
    p.add_argument("--teacher", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--mlm-weight", type=_finite_float, default=1.0)
    p.add_argument("--nst-weight", type=_finite_float, default=1.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("finetune", parents=[common],
                       help="one fine-tune run at a fixed learning rate")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--learning-rate", type=_finite_float, required=True)
    p.add_argument("--train-size", type=_train_size, default="full",
                   help="subset size or 'full' (default full)")
    p.add_argument("--out", required=True, help="output JSON file")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", parents=[common],
                       help="run the low-resource or supervised protocol")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--protocol", choices=("low64", "low128", "full"), required=True)
    p.add_argument("--method", default=None,
                   help="method label override for the report")
    p.add_argument("--out", required=True, help="output runs file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[seeded],
                       help="render the result table, CSV, and plot data")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--layout", choices=("low_resource", "full"),
                   default="low_resource")
    p.add_argument("--plot-data", action="store_true",
                   help="also write accuracy-vs-size series CSV")
    p.add_argument("--render", action="store_true",
                   help="also render the series as a simple SVG chart")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or bad usage (2), printed by argparse
        return exc.code
    started = time.perf_counter()
    blas_threads = pin_blas_threads()
    try:
        config, inputs, outputs, seed = args.func(args)
        _write_manifest(Path(args.out), args.command, config, inputs, outputs, seed, started,
                        blas_threads)
        return EXIT_OK
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (CmktError, FileNotFoundError, IsADirectoryError, FileExistsError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything unplanned is a runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
