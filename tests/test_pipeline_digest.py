"""Smoke test of scripts/pipeline_digest.py: the pipeline runs at one
epoch, its listing names every output file of every command, and one
usable core, where nothing forks, gives the listing that all cores give."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cmkt.synth import WORLD_FILES
from cmkt.training import METHOD_NAMES

ROOT = Path(__file__).resolve().parents[1]


def listing(preexec_fn=None) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pipeline_digest.py"),
         "--src", str(ROOT / "src"), "--seed", "0", "--epochs", "1"],
        capture_output=True, text=True, timeout=600, preexec_fn=preexec_fn,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def on_one_core():
    """Runs in the child before the script starts; every command it runs
    inherits the one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.fixture(scope="module")
def all_cores() -> list[str]:
    return listing()


def test_listing_covers_every_command_output(all_cores):
    lines = all_cores
    assert all(re.fullmatch(r"[0-9a-f]{32}  \S+", line) for line in lines), lines
    runs = [f"pretrain-{m}" for m in METHOD_NAMES] + ["teacher-cmcl", "teacher-hinge"]
    expected = (
        {f"world/{name}" for name in WORLD_FILES.values()}
        | {"perturb.tsv", "finetune.json"}
        | {f"eval-{p}.jsonl" for p in ("low64", "low128", "full")}
        | {f"{run}/{f}" for run in runs
           for f in ("checkpoint-final.ckpt", "checkpoint-last.ckpt", "loss.csv")}
    )
    assert [line.split()[1] for line in lines] == sorted(expected)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_one_core_gives_the_listing_of_all_cores(all_cores):
    """The step worker (TCL+MLM, VOKEN+MLM, CMKD) and map_forked (the eval
    protocols) against the in-process path, end to end."""
    assert listing(on_one_core) == all_cores
