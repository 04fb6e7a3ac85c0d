#!/usr/bin/env python3
"""Digest every output file of a small end-to-end cmkt pipeline.

    python3 scripts/pipeline_digest.py --src DIR --seed N [--epochs E]

DIR is the directory that holds the ``cmkt`` package (``src`` in a
checkout). In a temporary directory the script runs, as ``python -m
cmkt.cli`` subprocesses on that source: synth on a small world, perturb,
pretrain of every method but CMKD, the cmcl teacher, distill from it,
one finetune, and the low64 (CMCL), low128 (the distilled student) and
full (CMCL+ANS) eval protocols. It prints one
``<blake2b> <relative path>`` line per output file, manifests excluded,
since they hold timestamps and timings. Two checkouts give byte-identical
outputs exactly when ``diff`` finds nothing between their listings:

    python3 scripts/pipeline_digest.py --src a/src --seed 0 > a.txt
    python3 scripts/pipeline_digest.py --src b/src --seed 0 > b.txt
    diff a.txt b.txt

Every cmkt process runs OpenBLAS on one thread, whatever thread count it
starts with, so the listing depends on neither the core count nor the
environment's BLAS settings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SYNTH = {"n_train_pairs": 32, "n_retrieval": 8, "mcqa_train": 144, "mcqa_dev": 24,
         "mcqa_test": 40, "similarity_pairs": 8}
PRETRAIN_METHODS = ("MLM", "TCL", "TCL+MLM", "TCL+ANS", "TCL+PSA+ANS", "VOKEN+MLM", "CMCL",
                    "CMCL+ANS", "CMCL+PSA+ANS")
EVALS = (("low64", "CMCL"), ("low128", "CMKD"), ("full", "CMCL+ANS"))


def run_pipeline(src: Path, seed: int, epochs: int, work: Path) -> Path:
    """Runs every command in ``work``; returns the directory of outputs."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    configs = work / "config"
    configs.mkdir()
    for name, value in (
        ("synth", SYNTH),
        ("pretrain", {"epochs": epochs, "batch_size": 16, "max_len": 16}),
        ("finetune", {"max_epochs_low_resource": epochs, "max_epochs_full": epochs,
                      "learning_rates": [1e-4, 5e-4]}),
    ):
        (configs / f"{name}.json").write_text(json.dumps(value), encoding="utf-8")

    def cmkt(*argv) -> None:
        argv = [str(a) for a in argv]
        done = subprocess.run([sys.executable, "-m", "cmkt.cli", *argv, "--seed", str(seed)],
                              cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"cmkt {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")

    world = Path("out/world")
    pretrain = ("--config", "config/pretrain.json", "--pairs", world / "pairs.tsv",
                "--vocab", world / "vocab.txt")
    cmkt("synth", "--config", "config/synth.json", "--out", world)
    cmkt("perturb", "--pairs", world / "pairs.tsv", "--lexicon", world / "lexicon.tsv",
         "--tags", world / "postags.tsv", "--out", "out/perturb.tsv")
    for method in PRETRAIN_METHODS:
        cmkt("pretrain", *pretrain, "--method", method, "--bank", world / "features.npz",
             "--perturbations", "out/perturb.tsv", "--out", f"out/pretrain-{method}")
    cmkt("teacher", *pretrain, "--objective", "cmcl", "--bank", world / "features.npz",
         "--out", "out/teacher-cmcl")
    cmkt("distill", *pretrain, "--teacher", "out/teacher-cmcl/checkpoint-final.ckpt",
         "--out", "out/pretrain-CMKD")
    finetune = ("--config", "config/finetune.json", "--dataset", world / "mcqa.jsonl")
    cmkt("finetune", *finetune, "--checkpoint", "out/pretrain-CMCL/checkpoint-final.ckpt",
         "--learning-rate", "5e-4", "--train-size", "64", "--out", "out/finetune.json")
    for protocol, method in EVALS:
        cmkt("eval", *finetune, "--protocol", protocol,
             "--checkpoint", f"out/pretrain-{method}/checkpoint-final.ckpt",
             "--out", f"out/eval-{protocol}.jsonl")
    return work / "out"


def digests(root: Path) -> list[tuple[str, str]]:
    """(blake2b, path relative to ``root``) of every non-manifest file."""
    rows = []
    for path in root.rglob("*"):
        if path.is_file() and not path.name.endswith("manifest.json"):
            digest = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
            rows.append((digest, path.relative_to(root).as_posix()))
    return sorted(rows, key=lambda row: row[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="directory holding the cmkt package")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epochs", type=int, default=3,
                        help="epochs of every training and fine-tuning run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cmkt-digest-") as work:
        for digest, rel in digests(run_pipeline(args.src, args.seed, args.epochs, Path(work))):
            print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
