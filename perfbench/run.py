#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pretrain-ans --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed``. With ``--trace 0`` the
run sets up several times, then repeats the timed cycle in a closed loop
for about ``--seconds`` seconds and reports the end-to-end metrics (medians
over set-ups and cycles). With ``--trace 1`` it alternates untraced cycles
with traced set-up-plus-cycle requests and reports the per-layer metrics
(medians over the traced requests) and the tracing overhead. Either way it
checks the outputs: the acceptance floors, and byte-identical non-manifest
outputs across every set-up and every cycle of the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch outputs go
to ``.perfbench_run/`` at the checkout root; the run's spans file and a
result file with the environment block and every sample stay there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
# set-up repeats until both limits are met: a cheap set-up (0.1 s) is
# repeated often enough for a steady median, a costly one (4 s) three times
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "examples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality": "ratio",
}


def _pin_blas_threads() -> int:
    """One process, BLAS threads = usable cores. Must run before numpy is
    imported, which is why the benchmark's own modules are imported late."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _import_cmkt():
    """Import the package from this checkout's ``src``, and nothing else."""
    if not (SRC / "cmkt" / "__init__.py").is_file():
        raise SystemExit(f"error: no cmkt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cmkt

    if not Path(cmkt.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: cmkt was imported from {cmkt.__file__}, not {SRC}")
    return cmkt


def _environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _tree_digest(root: Path) -> dict[str, str]:
    """Hash of every output file except manifests, which carry timestamps."""
    out = {}
    for member in sorted(root.rglob("*")):
        if member.is_file() and not member.name.endswith("manifest.json"):
            digest = hashlib.blake2b(member.read_bytes(), digest_size=16).hexdigest()
            out[str(member.relative_to(root))] = digest
    return out


def _fresh(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload, sizes, seed: int, seconds: float, work: Path):
        from workloads import Ledger

        self.workload = workload
        self.sizes = sizes
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.ledger = Ledger()
        self.reference: dict[str, str] | None = None

    def setup(self, label: str) -> tuple[Path, float, dict]:
        dest = _fresh(self.work / label)
        seconds = _timed(self.workload.setup, self.ledger, self.sizes, self.seed, dest)
        return dest, seconds, _tree_digest(dest)

    def cycle(self, inputs: Path, label: str) -> tuple[Path, float]:
        """One timed cycle; its outputs must match the first cycle's bytes."""
        dest = _fresh(self.work / label)
        seconds = _timed(self.workload.cycle, self.ledger, inputs, dest)
        digest = _tree_digest(dest)
        if self.reference is None:
            self.reference = digest
        else:
            self.ledger.check(digest == self.reference,
                              f"{label}: outputs differ from the first cycle")
        return dest, seconds

    def gate(self, inputs: Path, outputs: Path) -> dict:
        """Quality readout of one cycle's outputs, checked against the floors."""
        from cmkt.errors import CmktError

        try:
            readout = self.workload.readout(inputs, outputs)
        except (OSError, CmktError, KeyError, ValueError) as exc:
            self.ledger.check(False, f"quality readout failed: {exc}")
            return {"quality": 0.0}
        misses = self.workload.floors(readout)
        self.ledger.check(not misses, "; ".join(misses))
        return readout

    def out_of_time(self, started: float, per_round: list[float]) -> bool:
        """Stop before a further round would run past the time budget."""
        elapsed = time.perf_counter() - started
        return elapsed + statistics.median(per_round) > self.seconds


def measure(run: Run) -> tuple[dict, dict, dict]:
    """Untraced run: set up several times, then cycle until time is up."""
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(s[1] for s in setups) < SETUP_MIN_SECONDS:
        setups.append(run.setup(f"setup-{len(setups)}"))
        if len(setups) > 1:
            shutil.rmtree(setups[-1][0])
    inputs = setups[0][0]
    run.ledger.check(all(s[2] == setups[0][2] for s in setups),
                     "set-up outputs differ between repetitions")
    examples = run.workload.examples(run.sizes, inputs)
    walls = []
    first = None
    started = time.perf_counter()
    while not walls or not run.out_of_time(started, walls):
        dest, seconds = run.cycle(inputs, f"cycle-{len(walls)}")
        walls.append(seconds)
        if first is None:
            first = dest
        else:
            shutil.rmtree(dest)
    readout = run.gate(inputs, first)
    metrics = {
        "setup_s": statistics.median(s[1] for s in setups),
        "wall_s": statistics.median(walls),
        "examples_per_s": statistics.median(examples / w for w in walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": readout["quality"],
    }
    samples = {"setup_s": [s[1] for s in setups], "cycle_s": walls, "examples": examples}
    return metrics, samples, readout


def measure_traced(run: Run) -> tuple[dict, dict, dict, list]:
    """Traced run: untraced cycles alternate with traced set-up-plus-cycle
    requests; each traced request has its own tracer and run id."""
    from tracing import Tracer

    inputs, _, setup_digest = run.setup("setup-0")
    untraced, traced, per_request, spans = [], [], [], []
    first = None
    started = time.perf_counter()
    while not traced or not run.out_of_time(
        started, [u + t for u, t in zip(untraced, traced)]
    ):
        index = len(traced)
        dest, seconds = run.cycle(inputs, f"cycle-{index}")
        untraced.append(seconds)
        if first is None:
            first = dest
        else:
            shutil.rmtree(dest)
        tracer = Tracer(f"request-{index}")
        with tracer.installed():
            traced_inputs, _, digest = run.setup(f"traced-setup-{index}")
            traced_outputs, seconds = run.cycle(traced_inputs, f"traced-cycle-{index}")
        traced.append(seconds)
        shutil.rmtree(traced_inputs)
        shutil.rmtree(traced_outputs)
        run.ledger.check(digest == setup_digest,
                         f"traced set-up {index}: outputs differ from the untraced set-up")
        found = tracer.metrics()
        for name in run.workload.live:
            run.ledger.check(found[f"{name}.calls"] > 0,
                             f"liveness: {name} was never called in request {index}")
        per_request.append(found)
        spans.extend(tracer.span_records())
    readout = run.gate(inputs, first)
    # median_low keeps counts whole: it returns one of the requests' values
    metrics = {
        name: statistics.median_low(r[name] for r in per_request) for name in per_request[0]
    }
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    samples = {"untraced_cycle_s": untraced, "traced_cycle_s": traced}
    return metrics, samples, readout, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke test's scale")
    args = parser.parse_args(argv)

    threads = _pin_blas_threads()
    _import_cmkt()
    from tracing import metric_units
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    run = Run(workload, SIZES[args.size], args.seed, args.seconds, _fresh(WORK / tag))
    try:
        if args.trace:
            metrics, samples, readout, spans = measure_traced(run)
            units = metric_units()
            spans_path = WORK / f"spans-{workload.name}-s{args.seed}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
        else:
            metrics, samples, readout = measure(run)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    ledger = run.ledger
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "env": _environment(threads),
        "samples": samples,
        "readout": readout,
        "failed_ratio": ledger.failed / ledger.attempted,
        "errors": ledger.errors,
        "result": result,
    }
    (WORK / f"result-{tag}.json").write_text(json.dumps(report, indent=2) + "\n",
                                              encoding="utf-8")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"size={args.size}: {ledger.attempted} commands and checks, {ledger.failed} failed")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for name, value in readout.items():
        print(f"  readout {name} = {value:.6g}")
    for error in ledger.errors:
        print(f"  FAILED: {error}")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
