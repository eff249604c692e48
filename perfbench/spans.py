"""Span tracing of finslerconn's layers, installed from outside the package.

:func:`install` wraps the public functions of each module (and the
``cached_property`` stages of ``Tower`` and ``DeformationData``) inside the
current process only; the package source is not touched.  Every wrapped
call records a span (name, start, end, parent).  Spans are aggregated per
name as they close -- calls, total time, self time (duration minus the time
covered by child spans) -- and the spans at the top ``RAW_DEPTH`` levels
are also kept verbatim so they can be written out when the run ends.

A module-level function is replaced under every module of the package that
imported it (``torsions`` lives in ``connection`` but is called through
``deformation``, ``processes``, ``verify`` and ``cli``), so no call site
escapes the wrapper.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from functools import cached_property

import numpy as np

PACKAGE = "finslerconn"
MODULES = ("ad", "expr", "finsler", "connection", "deformation", "processes", "cases", "verify", "cli")

RAW_DEPTH = 3
"""Spans this close to the root are kept verbatim (deeper ones are only
aggregated: a full 3-d battery opens millions of ``ad`` spans)."""

# per-point residual functions, keyed by (module, name), with the suite
# whose per-point latency they measure and the span name they record under
POINT_FUNCTIONS = {
    ("verify", "theorem_residuals"): ("theorem", "verify.theorem.point"),
    ("deformation", "construction_residuals"): ("construction", "verify.construction.point"),
    ("deformation", "torsion_relations"): ("torsions", "verify.torsions.point"),
    ("deformation", "curvature_relations"): ("curvatures", "verify.curvatures.point"),
    ("verify", "bianchi_residuals"): ("bianchi", "verify.bianchi.point"),
    ("verify", "first_bianchi_residual"): ("bianchi", "verify.bianchi.point"),
    ("processes", "diagram_residuals"): ("processes", "processes.diagram"),
    ("cases", "check_case"): ("cases", "cases.check_case"),
    ("verify", "fd_residuals"): ("fd", "verify.fd.point"),
    ("verify", "constant_curvature_residuals"): ("constant-curvature", "verify.constant-curvature.point"),
}

SUITE_FUNCTIONS = {
    "check_theorem": "theorem",
    "check_construction": "construction",
    "check_torsions": "torsions",
    "check_curvatures": "curvatures",
    "check_bianchi": "bianchi",
    "check_processes": "processes",
    "check_cases": "cases",
    "fd_crosscheck": "fd",
    "check_constant_curvature": "constant-curvature",
}

SUITES = tuple(dict.fromkeys(SUITE_FUNCTIONS.values()))

LAYER_FUNCTIONS = {
    ("ad", "matinv"): "ad.matinv",
    ("connection", "torsions"): "connection.torsions",
    ("connection", "curvature_h"): "connection.curvature_h",
    ("connection", "curvature_mixed"): "connection.curvature_mixed",
    ("connection", "curvature_v"): "connection.curvature_v",
    ("connection", "cov_deriv"): "connection.cov_deriv",
    ("connection", "metric_deficit"): "connection.metric_deficit",
    ("deformation", "horizontal_from_compatibility"): "deformation.compat",
    ("cases", "closed_form_delta"): "cases.closed_form",
    ("cli", "parse_config"): "cli.parse_config",
    ("cli", "tensor_report"): "cli.tensor_report",
}

TOWER_STAGES = ("L", "g", "gi", "G", "N", "Gamma")
DEFORMATION_STAGES = ("eta_shift", "frame_shift", "difference", "horizontal")


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span stack, per-name aggregates and layer counters of one process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list[list] = []  # [name, start, child_time, span_id]
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, self)
        self.next_id = 0
        self.durations: dict[str, list[float]] = {}
        self.point_suite: dict[str, str] = {}
        self.top_level = 0.0  # time covered by root spans
        # jet products
        self.mul_calls = 0
        self.mul_batch = 0
        self.mul_pairs = 0
        self.mul_trusted = 0
        self.mul_depth = 0
        self.compose_valid: list[int] = []
        self._trusted_pairs: dict[tuple[int, int], tuple[int, int]] = {}
        # caches
        self.tower_requests = 0
        self.tower_hits = 0
        self.tower_live_max = 0
        self.structures: dict[int, object] = {}
        self.memo_requests = 0
        self.memo_hits = 0
        self.delta_calls = 0
        self.nonfinite_points = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [name, self.clock(), 0.0, self.next_id]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        end = self.clock()
        self.stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.top_level += duration
        if len(self.stack) < RAW_DEPTH:
            parent = self.stack[-1][3] if self.stack else None
            self.spans.append(
                (span_id, name, start - self.origin, end - self.origin, parent, duration - child)
            )
        return duration

    def wrap(self, name: str, fn, keep_durations: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer.close(frame)
                if keep_durations:
                    tracer.durations.setdefault(name, []).append(duration)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def stat(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    # -- jet products ----------------------------------------------------------

    def count_product(self, rg, batch: int, valid: int) -> None:
        key = (id(rg), valid)
        sizes = self._trusted_pairs.get(key)
        if sizes is None:
            I, J, _ = rg._mul_table()
            out_degree = rg.degree[I] + rg.degree[J]
            sizes = (len(I), int(np.count_nonzero(out_degree <= valid)))
            self._trusted_pairs[key] = sizes
        self.mul_calls += 1
        self.mul_batch += batch
        self.mul_pairs += sizes[0] * batch
        self.mul_trusted += sizes[1] * batch


def replace_everywhere(original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every module of the package."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"{original!r} is not bound in any {PACKAGE} module")
    return hits


def _wrap_stage(tracer: Tracer, cls, attr: str, name: str) -> None:
    """Replace a ``cached_property`` by one whose getter records a span."""
    descriptor = cls.__dict__[attr]
    if not isinstance(descriptor, cached_property):
        raise TypeError(f"{cls.__name__}.{attr} is not a cached_property")
    stage = cached_property(tracer.wrap(name, descriptor.func))
    stage.__set_name__(cls, attr)
    setattr(cls, attr, stage)


def _finite_result(value) -> bool:
    """Whether a per-point result holds no NaN or infinity.

    A result is a residual, a dict of residuals, or a ``check_case`` dict.
    """
    if isinstance(value, dict):
        values = [value["residual"]] if "residual" in value else list(value.values())
    else:
        values = [value]
    return all(math.isfinite(float(v)) for v in values)


def load_modules() -> dict:
    """Every module of the package, each loaded before any name is rebound."""
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the ``finslerconn`` package."""
    modules = load_modules()
    ad, cases, verify = modules["ad"], modules["cases"], modules["verify"]
    expr, finsler, deformation = modules["expr"], modules["finsler"], modules["deformation"]

    for (mod, fn_name), span in LAYER_FUNCTIONS.items():
        original = getattr(modules[mod], fn_name)
        replace_everywhere(original, tracer.wrap(span, original))

    for (mod, fn_name), (suite, span) in POINT_FUNCTIONS.items():
        original = getattr(modules[mod], fn_name)

        def point(*args, __fn=original, **kwargs):
            out = __fn(*args, **kwargs)
            if not _finite_result(out):
                tracer.nonfinite_points += 1
            return out

        point.__name__ = fn_name
        replace_everywhere(original, tracer.wrap(span, point, keep_durations=True))
        tracer.point_suite[span] = suite

    for fn_name, suite in SUITE_FUNCTIONS.items():
        original = getattr(verify, fn_name)
        replace_everywhere(original, tracer.wrap(f"verify.{suite}", original))

    for preset in cases._PRESETS:
        object.__setattr__(preset, "delta", tracer.wrap("cases.closed_form", preset.delta))

    for cls in (expr.ExprScalarField, expr.ExprCovectorField, expr.ExprMatrixField):
        cls.eval = tracer.wrap("expr.eval", cls.eval)

    for stage in TOWER_STAGES:
        _wrap_stage(tracer, finsler.Tower, stage, f"finsler.{stage}")
    for stage in DEFORMATION_STAGES:
        _wrap_stage(tracer, deformation.DeformationData, stage, f"deformation.{stage}")
    deformation.DeformationData.__init__ = tracer.wrap(
        "deformation.params_eval", deformation.DeformationData.__init__
    )

    _install_ad(tracer, ad)
    _install_caches(tracer, finsler.FinslerStructure, finsler.Tower, modules["connection"].Connection)


def _install_ad(tracer: Tracer, ad) -> None:
    Series, TaylorRing = ad.Series, ad.TaylorRing
    scalars = (int, float, np.floating, np.integer)
    mul, compose, mul_coef = Series.__mul__, Series._compose, TaylorRing.mul_coef

    def traced_mul(self, other):
        if isinstance(other, scalars) or not isinstance(other, (Series, np.ndarray)):
            return mul(self, other)
        o_shape = other.shape if isinstance(other, Series) else np.shape(other)
        o_valid = other.valid if isinstance(other, Series) else self.ring.order
        batch = math.prod(np.broadcast_shapes(self.shape, o_shape))
        tracer.count_product(self.ring, batch, min(self.valid, o_valid))
        frame = tracer.open("ad.mul")
        tracer.mul_depth += 1
        try:
            return mul(self, other)
        finally:
            tracer.mul_depth -= 1
            tracer.close(frame)

    def traced_compose(self, dcoefs):
        tracer.compose_valid.append(self.valid)
        frame = tracer.open("ad.compose")
        try:
            return compose(self, dcoefs)
        finally:
            tracer.close(frame)
            tracer.compose_valid.pop()

    def traced_mul_coef(rg, a, b):
        # products issued by Series.__mul__ are already counted there; the
        # rest come from _compose's Horner loop, trusted to the series' valid
        if tracer.mul_depth:
            return mul_coef(rg, a, b)
        valid = tracer.compose_valid[-1] if tracer.compose_valid else rg.order
        batch = math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        tracer.count_product(rg, batch, valid)
        frame = tracer.open("ad.mul")
        tracer.mul_depth += 1
        try:
            return mul_coef(rg, a, b)
        finally:
            tracer.mul_depth -= 1
            tracer.close(frame)

    Series.__mul__ = traced_mul
    Series._compose = traced_compose
    TaylorRing.mul_coef = traced_mul_coef
    Series.d = tracer.wrap("ad.d", Series.d)

    # table construction is timed only when it actually builds
    init, mul_table, diff_table = TaylorRing.__init__, TaylorRing._mul_table, TaylorRing._diff_table
    built_init = tracer.wrap("ad.ring.build", init)
    built_mul = tracer.wrap("ad.ring.build", mul_table)
    built_diff = tracer.wrap("ad.ring.build", diff_table)

    TaylorRing.__init__ = built_init
    TaylorRing._mul_table = lambda rg: (
        mul_table(rg) if rg._mul_cache is not None else built_mul(rg)
    )
    TaylorRing._diff_table = lambda rg, var: (
        diff_table(rg, var) if var in rg._diff_cache else built_diff(rg, var)
    )


def _install_caches(tracer: Tracer, FinslerStructure, Tower, Connection) -> None:
    tower, memo, delta = FinslerStructure.tower, Connection._memo, Tower.delta

    def traced_tower(F, point, order):
        tracer.tower_requests += 1
        if point.key() + (order,) in F._towers:
            tracer.tower_hits += 1
        out = tower(F, point, order)
        tracer.structures[id(F)] = F
        live = sum(len(s._towers) for s in tracer.structures.values())
        tracer.tower_live_max = max(tracer.tower_live_max, live)
        return out

    def traced_memo(conn, t, slot, producer):
        tracer.memo_requests += 1
        if (conn, slot) in t.cache:
            tracer.memo_hits += 1
        return memo(conn, t, slot, producer)

    def traced_delta(t, s, j):
        tracer.delta_calls += 1
        return delta(t, s, j)

    FinslerStructure.tower = traced_tower
    Connection._memo = traced_memo
    Tower.delta = traced_delta


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50_ms(values: list[float]) -> float:
    return float(np.median(values)) * 1e3 if values else 0.0


def layer_metrics(tracer: Tracer, run_s: float, covered_s: float, rows) -> dict[str, float]:
    """The per-layer table, flat ``name -> value``.

    ``covered_s`` is the time the root spans covered inside the timed
    passes, ``run_s`` those passes' total; ``rows`` are the verdict rows of the run (suite, label, residual,
    tolerance); a suite that did not run reports zeros.
    """
    s = tracer.stat
    out: dict[str, float] = {
        "ad.mul.calls": tracer.mul_calls,
        "ad.mul.batch_mean": _ratio(tracer.mul_batch, tracer.mul_calls),
        "ad.mul.self_s": s("ad.mul").self_time,
        "ad.mul.self_frac": _ratio(s("ad.mul").self_time, run_s),
        "ad.mul.pairs": tracer.mul_pairs,
        "ad.mul.trusted_frac": _ratio(tracer.mul_trusted, tracer.mul_pairs),
        "ad.compose.calls": s("ad.compose").calls,
        "ad.compose.self_s": s("ad.compose").self_time,
        "ad.matinv.calls": s("ad.matinv").calls,
        "ad.matinv.self_s": s("ad.matinv").self_time,
        "ad.d.calls": s("ad.d").calls,
        "ad.d.self_s": s("ad.d").self_time,
        "ad.ring.build_s": s("ad.ring.build").total,
        "expr.eval.calls": s("expr.eval").calls,
        "expr.eval.self_s": s("expr.eval").self_time,
        "finsler.tower.requests": tracer.tower_requests,
        "finsler.tower.hit_frac": _ratio(tracer.tower_hits, tracer.tower_requests),
        "finsler.tower.live_max": tracer.tower_live_max,
    }
    for stage in TOWER_STAGES:
        out[f"finsler.{stage}.self_s"] = s(f"finsler.{stage}").self_time
    out["finsler.delta.calls"] = tracer.delta_calls
    out["connection.memo.hit_frac"] = _ratio(tracer.memo_hits, tracer.memo_requests)
    for fn in ("torsions", "curvature_h", "curvature_mixed", "curvature_v"):
        out[f"connection.{fn}.self_s"] = s(f"connection.{fn}").self_time
    out["connection.cov_deriv.calls"] = s("connection.cov_deriv").calls
    out["connection.cov_deriv.self_s"] = s("connection.cov_deriv").self_time
    out["connection.metric_deficit.self_s"] = s("connection.metric_deficit").self_time
    out["deformation.params_eval.self_s"] = s("deformation.params_eval").self_time
    for stage in DEFORMATION_STAGES:
        out[f"deformation.{stage}.self_s"] = s(f"deformation.{stage}").self_time
    out["deformation.compat.self_s"] = s("deformation.compat").self_time
    out["processes.diagram.calls"] = s("processes.diagram").calls
    out["processes.diagram.self_s"] = s("processes.diagram").self_time
    out["cases.check_case.self_s"] = s("cases.check_case").self_time
    out["cases.closed_form.self_s"] = s("cases.closed_form").self_time

    for suite in SUITES:
        points = [
            d
            for span, suite_of in tracer.point_suite.items()
            if suite_of == suite
            for d in tracer.durations.get(span, [])
        ]
        margins = [
            math.log10(row["tolerance"] / max(row["residual"], sys.float_info.min))
            for row in rows
            if row["suite"].split("[")[0] == suite
        ]
        out[f"verify.{suite}.wall_s"] = s(f"verify.{suite}").total
        out[f"verify.{suite}.point_p50_ms"] = _p50_ms(points)
        out[f"verify.{suite}.margin_min"] = min(margins) if margins else 0.0
    out["verify.rows"] = len(rows)
    out["verify.nonfinite_points"] = tracer.nonfinite_points

    out["cli.parse_config_s"] = s("cli.parse_config").total
    out["cli.tensor_report.self_s"] = s("cli.tensor_report").self_time
    out["cli.serialize_s"] = s("cli.serialize").total
    out["trace.run_s"] = run_s
    out["trace.covered_frac"] = _ratio(covered_s, run_s)
    return out
