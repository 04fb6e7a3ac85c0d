"""The benchmark's span tracer patches package functions by module
attribute (``perfbench/tracing.py``, ``TARGETS``). Renaming or dropping one
of those names breaks only traced benchmark runs, so the contract is
checked here, against the tracer file as it stands."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_target_resolves_to_a_callable(tracing):
    missing = []
    for span, module_name, path in tracing.TARGETS:
        try:
            target = _lookup(module_name, path)
        except AttributeError:
            missing.append(f"{span}: {module_name}.{path}")
            continue
        assert callable(target), f"{module_name}.{path} is not callable"
    assert missing == []


def test_install_wraps_and_restores_every_target(tracing):
    before = [_lookup(m, p) for _, m, p in tracing.TARGETS]
    with tracing.Tracer("contract").installed():
        during = [_lookup(m, p) for _, m, p in tracing.TARGETS]
    after = [_lookup(m, p) for _, m, p in tracing.TARGETS]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
