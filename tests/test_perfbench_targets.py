"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps the
functions listed in `perfbench/tracing.py` TARGETS in place; each must be
defined where it is patched, or traced runs fail with a KeyError."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(owner, attr) for owner, attr, *_ in module.TARGETS]


TARGETS = _targets()


@pytest.mark.parametrize("owner, attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_tracing_target_defined(owner, attr):
    assert attr in vars(owner)
