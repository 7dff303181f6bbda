"""The benchmark's span tracer patches names in ``zhu_forge`` from outside the
package; these checks keep a rename or move in ``src/`` from silently breaking
the traced run."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
SRC = ROOT / "src"


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


def test_clear_caches_works_with_the_tracer_installed():
    # The tracer has no uninstall, so it is installed in a child interpreter.
    script = (
        "import importlib.util, zhu_forge.cli\n"
        "from zhu_forge import voa\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracer', {str(TRACER)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "tracer.Tracer('t').install()\n"
        "voa.clear_caches()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
