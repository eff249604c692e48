"""The benchmark's tracing hooks still resolve against the package.

``perfbench/spans.py`` wraps package functions and cached stages by name.
Its own self-test starts several processes and is not collected here, so a
renamed or deleted hook would otherwise only surface when the benchmark
runs.  These tests read the hook tables and check each name in-process,
pin the bits of the closed forms the case layer times on a lone point,
then install the whole tracer in a child process (it rebinds package
names for good) and trace one report point and one Bianchi point there.
"""

import hashlib
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from finslerconn import cases, samples, verify
from finslerconn.ad import Series, TaylorRing, ring
from finslerconn.connection import Connection
from finslerconn.deformation import DeformationData
from finslerconn.finsler import FinslerStructure, Tower

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "perfbench" / "spans.py"


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


def test_tower_and_ring_hooks_keep_their_shape():
    # spans.py wraps these methods and calls the originals by position, and
    # spans.traced_tower reads the tower cache key; the package itself no
    # longer calls Tower.delta, so only this test notices if it goes
    wrapped = {
        FinslerStructure.tower: ["self", "point", "order"],
        Tower.delta: ["self", "s", "j"],
        Connection._memo: ["self", "t", "slot", "producer"],
        Series._compose: ["self", "dcoefs"],
        TaylorRing.mul_coef: ["self", "a", "b"],
        TaylorRing._diff_table: ["self", "var"],
    }
    for method, params in wrapped.items():
        assert list(inspect.signature(method).parameters) == params, method.__qualname__
    # count_product and the ring-build timers read the ring tables below
    for rg in (ring(4, 3), ring(6, 5, 2)):
        I, J, K = rg._mul_table()
        assert rg._mul_cache is not None and len(I) == len(J) == len(K)
        assert np.issubdtype(K.dtype, np.integer)
        assert np.array_equal(rg.degree[K], rg.degree[I] + rg.degree[J])
        assert np.array_equal(rg.degree, [sum(m) for m in rg.monomials])
        assert np.all(rg.degree[I] + rg.degree[J] <= rg.order)
        rg._diff_table(rg.nvars - 1)
        assert rg.nvars - 1 in rg._diff_cache


def _parameters(fn) -> list:
    """Each parameter's name, with its default where it has one."""
    return [
        name if param.default is inspect.Parameter.empty else (name, param.default)
        for name, param in inspect.signature(fn).parameters.items()
    ]


def test_point_and_layer_functions_keep_their_signatures():
    # point_p50_ref times one call of each point function per sample point,
    # and the connection.* layers wrap these functions by name: a reader that
    # took a batch or a connection function that changed its arguments would
    # silently change what those numbers measure
    reader = ["params", "F", "point", ("conn", None)]
    pinned = {
        ("verify", "theorem_residuals"): reader,
        ("deformation", "construction_residuals"): reader,
        ("deformation", "torsion_relations"): reader,
        ("deformation", "curvature_relations"): reader,
        ("verify", "bianchi_residuals"): ["params", "F", "point", ("perturbation", 0.0)],
        ("verify", "first_bianchi_residual"): ["F", "point", ("perturbation", 0.0)],
        ("processes", "diagram_residuals"): ["params", "F", "point", ("family", None)],
        ("cases", "check_case"): [
            "case_id", "F", "points", ("seed", 0), ("perturbation", 0.0)
        ],
        ("cases", "closed_form_delta"): ["case_id", "params", "F", "point"],
        ("connection", "torsions"): ["conn", "t"],
        ("connection", "curvature_h"): ["conn", "t"],
        ("connection", "curvature_mixed"): ["conn", "t"],
        ("connection", "curvature_v"): ["conn", "t"],
        ("connection", "cov_deriv"): ["conn", "t", "W", "horizontal"],
        ("connection", "metric_deficit"): ["conn", "t", "horizontal"],
    }
    assert set(pinned) <= set(spans.POINT_FUNCTIONS) | set(spans.LAYER_FUNCTIONS)
    assert {key for key in spans.LAYER_FUNCTIONS if key[0] == "connection"} <= set(pinned)
    for (module, name), params in pinned.items():
        fn = getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), name)
        assert _parameters(fn) == params, f"{module}.{name}"


# every closed form on one lone point of the Randers and 3-d quartic
# metrics, recorded before the case workspace could be built over a batch
CLOSED_FORMS_SHA256 = "e70732ebefc2a01dcb4e203e814a78a6b77ffbd7ffa30e84dea9ae413de1edec"


def test_closed_form_delta_on_a_lone_point_keeps_its_bits():
    # cases.closed_form times each closed form under the case workspace, which
    # now also runs over a batch: a lone point must keep the arithmetic it had
    digest = hashlib.sha256()
    for F in (samples.randers(), samples.quartic_three_dim()):
        point = verify.sample_points(F, verify.SamplePlan(), 1, "closed-form")[0]
        for entry in cases.catalog():
            case_id = entry["id"]
            pack = cases.preset(case_id, F, **cases.default_free_choices(case_id, F, 42))
            delta = cases.closed_form_delta(case_id, pack, F, point)
            assert delta.shape == (F.n,) * 3
            digest.update(np.ascontiguousarray(delta).tobytes())
    assert digest.hexdigest() == CLOSED_FORMS_SHA256


def _run_traced(script: str) -> None:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


TRACED_POINT = f"""
import importlib.util
spec = importlib.util.spec_from_file_location("perfbench_spans", {str(SPANS_PATH)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
from finslerconn import cli, verify
config = cli.parse_config(cli.default_config_text())
F = cli.build_structure(config.metric_entry("drift"), config.dimension)
pack = cli.build_params(config.params_entry("mild"), F, config.plan)
cli.tensor_report(F, pack, verify.sample_points(F, config.plan, 1, "bench-hooks"))
assert tracer.stat("cli.tensor_report").calls == 1
assert tracer.stat("expr.eval").calls and tracer.stat("deformation.params_eval").calls
"""


def test_install_and_trace_one_report_point():
    _run_traced(TRACED_POINT)


TRACED_BIANCHI = f"""
import importlib.util
spec = importlib.util.spec_from_file_location("perfbench_spans", {str(SPANS_PATH)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
from finslerconn import samples, verify
from finslerconn.finsler import Tower
F = samples.quartic_three_dim()
plan = verify.SamplePlan()
point = verify.sample_points(F, plan, 1, "bench-hooks")[0]
pack = verify.random_param_sets(F, plan)[0]
built, init = [], Tower.__init__
# the list holds every tower the call builds, so the structure's weak cache keeps them
Tower.__init__ = lambda self, *args: init(self, *args) or built.append(self)
rows = verify.bianchi_residuals(pack, F, point)
Tower.__init__ = init
assert len(built) == 1 and set(F._towers) == {{point.key() + ((6, 3),)}}
assert tracer.stat("verify.bianchi.point").calls == 1 and tracer.tower_requests == 1
assert tracer.mul_calls and tracer.stat("ad.d").calls and tracer.stat("connection.cov_deriv").calls
assert tracer.nonfinite_points == 0 and max(rows.values()) < 1e-6
"""


def test_install_and_trace_one_bianchi_point():
    _run_traced(TRACED_BIANCHI)
