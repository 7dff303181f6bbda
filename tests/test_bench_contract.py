"""The benchmark's span tracer patches names in ``zhu_forge`` from outside the
package; these checks keep a rename or move in ``src/`` from silently breaking
the traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_contract", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for _span, module, attr in tracer.TARGETS]
)
def test_tracer_targets_resolve(module_name, attr):
    target = importlib.import_module(f"zhu_forge.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("label, attr", tracer.MEMOS)
def test_tracer_memos_have_cache_info(label, attr):
    from zhu_forge import voa

    assert getattr(voa, attr).cache_info().currsize >= 0
