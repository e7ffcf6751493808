"""The benchmark's tracer wraps qwire functions by name: each must exist."""

import importlib.util
from pathlib import Path

import qwire


def _spanned():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED


def test_every_spanned_name_resolves():
    spanned = _spanned()
    missing = [f"{mod}.{name}" for mod, names in spanned.items() for name in names
               if not callable(getattr(getattr(qwire, mod), name, None))]
    assert spanned and missing == []
