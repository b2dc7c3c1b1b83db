"""The benchmark's tracer wraps library functions by module attribute name.

perfbench/tracing.py is not part of the package, so nothing else in these
tests would notice a change that renames or deletes a name it patches: every
traced benchmark run would then fail at install.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from qobdd import compiler, goodsets, programs, verification

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_name():
    modules = (compiler, goodsets, programs, verification)
    before = [dict(vars(module)) for module in modules]
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original
    for module, attributes in zip(modules, before):
        assert all(getattr(module, name) is value for name, value in attributes.items())
