"""The benchmark's tracing hooks still resolve against the package.

``perfbench/spans.py`` wraps package functions and cached stages by name.
Its own self-test starts several processes and is not collected here, so a
renamed or deleted hook would otherwise only surface when the benchmark
runs.  This test reads the hook tables and checks each name in-process.
"""

import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

from finslerconn.deformation import DeformationData
from finslerconn.finsler import Tower

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_every_wrapped_function_exists():
    hooks = (
        set(spans.LAYER_FUNCTIONS)
        | set(spans.POINT_FUNCTIONS)
        | {("verify", name) for name in spans.SUITE_FUNCTIONS}
    )
    missing = [
        f"{module}.{name}"
        for module, name in sorted(hooks)
        if not callable(
            getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), name, None)
        )
    ]
    assert not missing


def test_every_wrapped_stage_is_a_cached_property():
    stages = [(Tower, s) for s in spans.TOWER_STAGES]
    stages += [(DeformationData, s) for s in spans.DEFORMATION_STAGES]
    missing = [
        f"{cls.__name__}.{stage}"
        for cls, stage in stages
        if not isinstance(cls.__dict__.get(stage), cached_property)
    ]
    assert not missing
