"""The benchmark's traced run wraps program entry points by name.

``qbench/layers.py`` lists them in ``ENTRY_POINTS`` as ``(span,
"module[:Class]", attribute, extractor)`` and patches each one through
``inspect.getattr_static``.  A refactor that renames or moves one of
them breaks ``qbench/run.py --trace 1``; this test catches it first.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

QBENCH = Path(__file__).resolve().parent.parent / "qbench"


def _entry_points():
    """``ENTRY_POINTS`` of ``qbench/layers.py``, loaded without writing
    bytecode into the benchmark's directory or leaving its modules on
    the import path."""
    saved_path = list(sys.path)
    saved_flag = sys.dont_write_bytecode
    sys.path.insert(0, str(QBENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "qbench_layers", QBENCH / "layers.py"
        )
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        return layers.ENTRY_POINTS
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name, module in list(sys.modules.items()):
            origin = getattr(module, "__file__", None) or ""
            if Path(origin).parent == QBENCH:
                del sys.modules[name]


ENTRY_POINTS = [(where, attr) for _, where, attr, _ in _entry_points()]


@pytest.mark.parametrize(
    "where,attr", ENTRY_POINTS, ids=[f"{w}.{a}" for w, a in ENTRY_POINTS]
)
def test_entry_point_resolves(where, attr):
    module, _, cls = where.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = inspect.getattr_static(owner, cls)
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert inspect.isfunction(raw), f"{where}.{attr} is {raw!r}"
