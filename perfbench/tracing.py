"""Span tracing of the cmkt layers from outside the package.

A :class:`Tracer` replaces the public functions of each layer with timing
wrappers, at the name where the caller looks them up: ``cli.py`` imports
``pretrain`` into its own namespace, so the wrapper goes on
``cmkt.cli.pretrain``, not on ``cmkt.training.pretrain``. Methods are
wrapped on their class. Spans are kept in memory; :meth:`Tracer.metrics`
turns them into per-layer counts, self times and waste ratios.

Nothing here is imported by the package itself, and tracing is installed
only inside a ``with tracer.installed():`` block.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (span name, module, attribute path). A span name may be bound at several
# call sites; every one of them has to be listed, or calls made through the
# missing name go uncounted (the liveness guard in run.py catches that for
# the spans a workload declares).
TARGETS = (
    ("cli.main", "cmkt.cli", "main"),
    ("synth.generate_world", "cmkt.cli", "generate_world"),
    ("perturbation.perturb_caption", "cmkt.cli", "perturb_caption"),
    ("training.pretrain", "cmkt.cli", "pretrain"),
    ("training.pretrain", "cmkt.cli", "train_teacher"),
    ("distillation.distill", "cmkt.cli", "distill"),
    ("distillation.nst_step", "cmkt.distillation", "nst_step"),
    ("objectives.nst", "cmkt.distillation", "nst_loss_with_grad"),
    ("objectives.contrastive", "cmkt.training", "tcl_loss"),
    ("objectives.contrastive", "cmkt.training", "cmcl_total"),
    ("objectives.contrastive", "cmkt.training", "ans_loss"),
    ("objectives.contrastive", "cmkt.training", "hinge_loss"),
    ("corpus.masking", "cmkt.training", "plan_dynamic_masking"),
    ("corpus.tokenize", "cmkt.training", "tokenize"),
    ("corpus.tokenize", "cmkt.evaluation", "tokenize"),
    ("seeding.derive_seed", "cmkt.seeding", "derive_seed"),
    ("seeding.derive_seed", "cmkt.training", "derive_seed"),
    ("seeding.derive_seed", "cmkt.evaluation", "derive_seed"),
    ("encoders.forward", "cmkt.encoders", "TextEncoder.forward"),
    ("encoders.backward", "cmkt.encoders", "TextEncoder.backward"),
    ("encoders.prepare_batch", "cmkt.encoders", "TextEncoder.prepare_batch"),
    ("encoders.mlm_step", "cmkt.encoders", "TextEncoder.mlm_step"),
    ("encoders.block_activations", "cmkt.encoders", "TextEncoder.block_activations"),
    ("encoders.image", "cmkt.encoders", "ImageEncoder.encode"),
    ("encoders.image", "cmkt.encoders", "ImageEncoder.backward"),
    ("evaluation.finetune", "cmkt.cli", "finetune"),
    ("evaluation.finetune", "cmkt.evaluation", "finetune"),
    ("evaluation.evaluate", "cmkt.cli", "evaluate"),
    ("evaluation.evaluate", "cmkt.evaluation", "evaluate"),
    ("checkpoint.save", "cmkt.cli", "save_checkpoint"),
    ("checkpoint.save", "cmkt.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "cmkt.cli", "load_checkpoint"),
    ("checkpoint.load", "cmkt.checkpoint", "load_checkpoint"),
    ("checkpoint.bundle", "cmkt.training", "bundle_text_encoder"),
    ("checkpoint.bundle", "cmkt.distillation", "bundle_text_encoder"),
    ("checkpoint.bundle", "cmkt.checkpoint", "bundle_text_encoder"),
    ("checkpoint.restore", "cmkt.training", "restore_text_encoder"),
    ("checkpoint.restore", "cmkt.distillation", "restore_text_encoder"),
    ("checkpoint.restore", "cmkt.evaluation", "restore_text_encoder"),
    ("checkpoint.restore", "cmkt.checkpoint", "restore_text_encoder"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# per-layer metrics beyond each span's calls and self time: name -> unit
EXTRA_METRICS = {
    "encoders.forward.rows": "count",
    "encoders.block_activations.rows": "count",
    "checkpoint.save.bytes": "bytes",
    "training.steps": "count",
    "corpus.tokenize.repeat_ratio": "ratio",
    "evaluation.finetune.repeat_ratio": "ratio",
    "distillation.teacher_recompute_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(EXTRA_METRICS)
    units["trace.overhead_ratio"] = "ratio"
    return units


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _seq_key(seq) -> tuple:
    return tuple(int(t) for t in seq)


def _checkpoint_digest(ckpt) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(ckpt.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(ckpt.params[name]).tobytes())
    h.update(repr(sorted(ckpt.meta.items())).encode())
    return h.hexdigest()


class Tracer:
    """Records one traced request: spans, per-span self time, and the
    counters the waste ratios are made of."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        # (span id, parent id, name, start, end), times relative to origin
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._seen: dict[str, set] = {}
        # open spans: [span id, seconds covered by finished children]
        self._stack: list[list] = []
        self._next_id = 0

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.spans.append(
                    (span_id, parent, name, start - tracer.origin, end - tracer.origin)
                )
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def repeat(self, kind: str, key) -> None:
        """Count a call of ``kind`` and whether its key was seen before."""
        seen = self._seen.setdefault(kind, set())
        self.counts[kind + ".keys"] += 1
        if key in seen:
            self.counts[kind + ".repeats"] += 1
        else:
            seen.add(key)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        originals = []
        try:
            for name, module_name, path in TARGETS:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # ------------------------------------------------------------- readout

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = 1000.0 * self.self_s[name]
        c = self.counts
        out["encoders.forward.rows"] = c["forward.rows"]
        out["encoders.block_activations.rows"] = c["teacher.keys"]
        out["checkpoint.save.bytes"] = c["save.bytes"]
        out["training.steps"] = c["steps"]
        out["corpus.tokenize.repeat_ratio"] = _ratio(c["tokenize.repeats"], c["tokenize.keys"])
        out["evaluation.finetune.repeat_ratio"] = _ratio(c["finetune.repeats"], c["finetune.keys"])
        distinct = c["teacher.keys"] - c["teacher.repeats"]
        out["distillation.teacher_recompute_ratio"] = _ratio(c["teacher.keys"], distinct)
        return out

    def span_records(self) -> list[dict]:
        return [
            {"run": self.run_id, "id": i, "parent": p, "name": n,
             "start": round(s, 9), "end": round(e, 9)}
            for i, p, n, s, e in self.spans
        ]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------- hooks
# Each hook sees the arguments and result of a finished call and updates
# the tracer's counters; none of them changes what the call returns.


def _forward_rows(tracer, args, kwargs, result):
    tracer.counts["forward.rows"] += len(args[1])


def _teacher_rows(tracer, args, kwargs, result):
    for seq in args[1]:
        tracer.repeat("teacher", _seq_key(seq))


def _tokenize_key(tracer, args, kwargs, result):
    text = args[0]
    max_len = args[2] if len(args) > 2 else kwargs.get("max_len")
    tracer.repeat("tokenize", (text, max_len))


def _finetune_key(tracer, args, kwargs, result):
    names = ("checkpoint", "dataset", "subset", "learning_rate", "config", "max_epochs")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    subset = tuple(
        (item.question, item.choices, item.gold, item.split) for item in bound["subset"]
    )
    key = (
        _checkpoint_digest(bound["checkpoint"]),
        bound["dataset"].name,
        subset,
        float(bound["learning_rate"]),
        repr(bound["config"]),
        bound.get("max_epochs"),
    )
    tracer.repeat("finetune", key)


def _save_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["save.bytes"] += Path(path).stat().st_size


def _steps(tracer, args, kwargs, result):
    tracer.counts["steps"] += len(result.loss_rows)


_HOOKS = {
    "encoders.forward": _forward_rows,
    "encoders.block_activations": _teacher_rows,
    "corpus.tokenize": _tokenize_key,
    "evaluation.finetune": _finetune_key,
    "checkpoint.save": _save_bytes,
    "training.pretrain": _steps,
}
