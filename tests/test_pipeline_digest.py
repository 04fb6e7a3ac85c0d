"""Smoke test of scripts/pipeline_digest.py: the pipeline runs at one
epoch and its listing names every output file of every command."""

import re
import subprocess
import sys
from pathlib import Path

from cmkt.synth import WORLD_FILES
from cmkt.training import METHOD_NAMES

ROOT = Path(__file__).resolve().parents[1]


def test_listing_covers_every_command_output():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pipeline_digest.py"),
         "--src", str(ROOT / "src"), "--seed", "0", "--epochs", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{32}  \S+", line) for line in lines), lines
    runs = [f"pretrain-{m}" for m in METHOD_NAMES] + ["teacher-cmcl", "teacher-hinge"]
    expected = (
        {f"world/{name}" for name in WORLD_FILES.values()}
        | {"world/features.npz.ids", "perturb.tsv", "finetune.json"}
        | {f"eval-{p}.jsonl" for p in ("low64", "low128", "full")}
        | {f"{run}/{f}" for run in runs
           for f in ("checkpoint-final.ckpt", "checkpoint-last.ckpt", "loss.csv")}
    )
    assert [line.split()[1] for line in lines] == sorted(expected)
