"""Command-line interface: configuration, reports, and exit discipline.

The console script ``finslerconn`` exposes five subcommands:

* ``report``  -- evaluate the metric tower and one deformation at chart
  points and emit a structured tensor document (JSON).
* ``check``   -- run the full verification battery from :mod:`.verify`.
* ``cases``   -- the catalog suite of that battery
  (:func:`~.verify.check_cases`) on every configured norm; ``--id K``
  keeps only the rows of case ``K``.
* ``diagram`` -- the process-diagram suite of that battery
  (:func:`~.verify.check_processes`) with the ``[run] params`` pack on
  every configured norm: four deformed edges, four classical edges, and
  five collapse arrows per norm.
* ``init``    -- write the bundled configuration template to disk.

``check``, ``cases`` and ``diagram`` are three views of one verdict: each
builds a :class:`~.verify.CheckReport`, prints its summary and failures,
writes ``{"digest", "generated", "payload"}`` to ``--out`` (``check``
always writes, by default to ``check-report.json``), and exits 0 exactly
when every row passes.

Configuration is a single INI document (exact schema in the template
returned by :func:`default_config_text`; ``init`` writes it verbatim).
Every command runs against the built-in template when ``--config`` is
omitted, so the tool works out of the box.  All reports are JSON with
sorted keys; for a fixed configuration and seed a verdict payload is
byte-identical across runs, and its SHA-256 digest is embedded next to
it.  Timestamps live outside the digested payload.

Exit status: 0 when every verdict in the command's scope passes, 1 when
at least one fails, 2 on configuration or usage errors (unknown metric
or case id, unparsable or non-finite numbers, malformed points file, a
report with a non-finite value, and so on).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cases import CATALOG, CaseError, CasePacks, preset
from .connection import (
    contract_value_slot,
    curvature_h,
    curvature_mixed,
    curvature_v,
    torsions,
)
from .deformation import (
    _SLOTS,
    DeformationParams,
    deformed_at,
    parameter_field,
)
from .expr import ExprError, ExprScalarField
from .finsler import ChartPoint, FinslerStructure
from .verify import (
    CheckReport,
    CheckRow,
    SamplePlan,
    check_cases,
    check_processes,
    random_params,
    resolve_tolerances,
    run_all,
    sample_points,
)

__all__ = [
    "Config",
    "ConfigError",
    "MetricEntry",
    "ParamsEntry",
    "default_config_text",
    "load_config",
    "load_points",
    "main",
    "parse_config",
    "tensor_report",
]


class ConfigError(ValueError):
    """A configuration document or command-line value is unusable.

    The message always carries location context: the section and key for
    INI problems, the file and line for points files, the flag name for
    command-line values.
    """


# ---------------------------------------------------------------------------
# configuration model


@dataclass(frozen=True)
class MetricEntry:
    """One ``[metric:NAME]`` section: a norm source text and its chart box."""

    name: str
    source: str
    box: float | None = None


@dataclass(frozen=True)
class ParamsEntry:
    """One ``[params:NAME]`` section in any of its three forms.

    ``kind`` is ``"random"`` (seeded coefficients), ``"fields"`` (explicit
    source texts, absent entries meaning zero), or ``"preset"`` (a catalog
    case id plus source texts for its free choices).
    """

    name: str
    kind: str
    fields: Mapping[str, str] = field(default_factory=dict)
    preset_id: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("random", "fields", "preset"):
            raise ConfigError(
                f"[params:{self.name}]: unknown kind {self.kind!r}"
            )
        object.__setattr__(self, "fields", dict(self.fields))


@dataclass
class Config:
    """Everything a subcommand needs, resolved from one INI document."""

    dimension: int
    metrics: list[MetricEntry]
    params: dict[str, ParamsEntry]
    default_params: str
    plan: SamplePlan
    tolerances: dict[str, float]
    out: str | None = None
    fuzz: bool = False

    def metric_entry(self, name: str) -> MetricEntry:
        for entry in self.metrics:
            if entry.name == name:
                return entry
        have = ", ".join(e.name for e in self.metrics) or "none"
        raise ConfigError(f"metric {name!r} is not configured (have: {have})")

    def params_entry(self, name: str) -> ParamsEntry:
        if name not in self.params:
            have = ", ".join(self.params) or "none"
            raise ConfigError(
                f"params {name!r} is not configured (have: {have})"
            )
        return self.params[name]


_RUN_KEYS = {"dimension", "metrics", "params", "out", "fuzz"}
_PLAN_KEYS = {f.name for f in dataclasses.fields(SamplePlan)}


def default_config_text() -> str:
    """The bundled configuration template, also written by ``init``.

    It is the exact document every subcommand uses when ``--config`` is
    omitted, and it is required to round-trip: parsing the written file
    yields the same configuration as parsing this string.
    """
    return """\
# finslerconn configuration
#
# One INI document drives every subcommand.  Keys inside [params:*]
# sections are case-sensitive (A and B are one-forms, u is a one-form,
# phi is an endomorphism); all other keys are lowercase.

[run]
# Chart dimension shared by every metric in this file.
dimension = 2
# Comma-separated [metric:NAME] sections to run, in order.
metrics = euclidean, hyperbolic, drift
# The [params:NAME] section used by report/diagram and as the named
# deformation in reports.
params = mild
# Optional default output path for `check` (overridden by --out).
# out = check-report.json
# Optional: inject deliberate defects so every suite must fail.
fuzz = false

[sample]
# Seed for every sampled chart point and random parameter pack.
seed = 42
# Base coordinates are drawn from |x_i| <= box; directions from
# shell[0] <= y_i <= shell[1].  A [metric:*] section may declare a
# smaller box; the smallest declared box wins globally.
box = 0.5
shell = 0.4, 1.6
# Number of random parameter packs for the defining-conditions suite.
param_sets = 5
# Points per suite.
theorem_points = 50
construction_points = 25
torsion_points = 50
curvature_points = 20
bianchi_points = 6
process_points = 12
case_points = 4
fd_points = 10

# --- metrics -----------------------------------------------------------
# L = positive 1-homogeneous norm source text in x1..xn, y1..yn.
# Functions: sqrt, exp, log, sin, cos, abs; operators + - * / ^.

[metric:euclidean]
L = sqrt(y1^2 + y2^2)

[metric:hyperbolic]
L = sqrt(y1^2 + exp(2*x1)*y2^2)

[metric:drift]
L = exp(x1)*(sqrt(y1^2 + y2^2) + 0.5*y1)

# --- deformation parameters --------------------------------------------
# Three forms:
#   source = random            seeded polynomial coefficients
#   f1/f2/A/B/u/phi = <texts>  explicit fields; absent entries are zero;
#                              one-forms are comma-separated components,
#                              phi rows are ';'-separated
#   preset = <case id>         catalog case; remaining keys fill its
#                              free choices

[params:mild]
source = random

# [params:explicit]
# f1 = 0.3 + 0.1*x1
# f2 = 0.5
# A = 0.2, -0.1*y1
# B = 0.1, 0
# u = 0.05*x2, 0.1
# phi = 1, 0; 0, 1

# [params:drifted]
# preset = 22
# u = 0.2, -0.1

# --- tolerances ---------------------------------------------------------
# Optional per-tier overrides; known names and defaults:
#   first-order 1e-8, theorem 1e-7, torsion 1e-7, torsion-exact 1e-12,
#   curvature 1e-7, curvature-general 1e-6, bianchi 1e-6, riemann 1e-7,
#   processes 1e-8, collapse 1e-10, cases 1e-7, fd 1e-5

[tolerances]
"""


def _tolerances(texts: Mapping[str, str], where: str) -> dict[str, float]:
    """Checked tolerance overrides; ``where`` leads every error message."""
    try:
        checked = resolve_tolerances(texts)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None
    return {name: checked[name] for name in texts}


def _get_float(
    section: configparser.SectionProxy, key: str, origin: str
) -> float:
    try:
        return float(section[key])
    except ValueError as err:
        raise ConfigError(f"{origin}: [{section.name}] {key}: {err}") from None


def _parse_plan(
    section: configparser.SectionProxy | None, origin: str
) -> SamplePlan:
    if section is None:
        return SamplePlan()
    values: dict = {}
    for key in section:
        norm = key.replace("-", "_")
        if norm not in _PLAN_KEYS:
            raise ConfigError(
                f"{origin}: [sample] unknown key {key!r}; "
                f"known: {', '.join(sorted(_PLAN_KEYS))}"
            )
        if norm == "shell":
            parts = [p.strip() for p in section[key].split(",")]
            if len(parts) != 2:
                raise ConfigError(
                    f"{origin}: [sample] shell needs two comma-separated "
                    f"values, got {section[key]!r}"
                )
            try:
                values["shell"] = (float(parts[0]), float(parts[1]))
            except ValueError as err:
                raise ConfigError(f"{origin}: [sample] shell: {err}") from None
        elif norm in ("box",):
            values[norm] = _get_float(section, key, origin)
        else:
            try:
                values[norm] = int(section[key])
            except ValueError as err:
                raise ConfigError(
                    f"{origin}: [sample] {key}: {err}"
                ) from None
    try:
        return SamplePlan(**values)
    except ValueError as err:
        raise ConfigError(f"{origin}: [sample]: {err}") from None


def _parse_params_section(
    name: str, section: configparser.SectionProxy, origin: str
) -> ParamsEntry:
    keys = list(section)
    if "preset" in keys:
        try:
            preset_id = int(section["preset"])
        except ValueError as err:
            raise ConfigError(
                f"{origin}: [params:{name}] preset: {err}"
            ) from None
        free = {k: section[k] for k in keys if k != "preset"}
        return ParamsEntry(name, "preset", free, preset_id)
    if "source" in keys:
        if section["source"].strip() != "random":
            raise ConfigError(
                f"{origin}: [params:{name}] source must be 'random', "
                f"got {section['source']!r}"
            )
        extra = [k for k in keys if k != "source"]
        if extra:
            raise ConfigError(
                f"{origin}: [params:{name}] source=random takes no other "
                f"keys, got {', '.join(extra)}"
            )
        return ParamsEntry(name, "random")
    bad = [k for k in keys if k not in _SLOTS]
    if bad:
        raise ConfigError(
            f"{origin}: [params:{name}] unknown key(s) {', '.join(bad)}; "
            f"explicit sections take {', '.join(_SLOTS)}"
        )
    return ParamsEntry(name, "fields", {k: section[k] for k in keys})


def parse_config(text: str, origin: str = "<config>") -> Config:
    """Parse one INI document into a :class:`Config`.

    Raises :class:`ConfigError` with section/key context on any problem:
    unknown sections or keys, unparsable numbers, missing metric sections,
    inconsistent references.  Field source texts are *not* compiled here;
    that happens in :func:`build_structure` / :func:`build_params` so the
    error can name the section that owns the text.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # type: ignore[assignment]  # A/B/u/phi are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"{origin}: {err}") from None

    metrics: list[MetricEntry] = []
    params: dict[str, ParamsEntry] = {}
    for section in parser.sections():
        if section in ("run", "sample", "tolerances"):
            continue
        kind, _, name = section.partition(":")
        if kind == "metric" and name:
            body = parser[section]
            bad = [k for k in body if k not in ("L", "box")]
            if bad:
                raise ConfigError(
                    f"{origin}: [{section}] unknown key(s) "
                    f"{', '.join(bad)}; metric sections take L and box"
                )
            if "L" not in body:
                raise ConfigError(f"{origin}: [{section}] is missing L")
            box = (
                _get_float(body, "box", origin) if "box" in body else None
            )
            if box is not None and not (math.isfinite(box) and box > 0):
                raise ConfigError(
                    f"{origin}: [{section}] box must be positive and finite"
                )
            metrics.append(MetricEntry(name, body["L"], box))
        elif kind == "params" and name:
            params[name] = _parse_params_section(name, parser[section], origin)
        else:
            raise ConfigError(
                f"{origin}: unknown section [{section}]; expected run, "
                f"sample, tolerances, metric:NAME or params:NAME"
            )

    run = parser["run"] if parser.has_section("run") else None
    dimension = 2
    out: str | None = None
    fuzz = False
    metric_names = [e.name for e in metrics]
    default_params = next(iter(params), "zero")
    if run is not None:
        bad = [k for k in run if k not in _RUN_KEYS]
        if bad:
            raise ConfigError(
                f"{origin}: [run] unknown key(s) {', '.join(bad)}; "
                f"known: {', '.join(sorted(_RUN_KEYS))}"
            )
        if "dimension" in run:
            try:
                dimension = int(run["dimension"])
            except ValueError as err:
                raise ConfigError(
                    f"{origin}: [run] dimension: {err}"
                ) from None
            if dimension < 1:
                raise ConfigError(
                    f"{origin}: [run] dimension must be at least 1"
                )
        if "metrics" in run:
            metric_names = [
                m.strip() for m in run["metrics"].split(",") if m.strip()
            ]
        if "params" in run:
            default_params = run["params"].strip()
        if "out" in run:
            out = run["out"].strip()
        if "fuzz" in run:
            try:
                fuzz = run.getboolean("fuzz")
            except ValueError:
                raise ConfigError(
                    f"{origin}: [run] fuzz must be a boolean, "
                    f"got {run['fuzz']!r}"
                ) from None

    by_name = {e.name: e for e in metrics}
    ordered: list[MetricEntry] = []
    for name in metric_names:
        if name not in by_name:
            raise ConfigError(
                f"{origin}: [run] metrics names {name!r} but there is "
                f"no [metric:{name}] section"
            )
        ordered.append(by_name[name])
    if not ordered:
        raise ConfigError(f"{origin}: no metrics configured")

    if default_params != "zero" and default_params not in params:
        raise ConfigError(
            f"{origin}: [run] params names {default_params!r} but there "
            f"is no [params:{default_params}] section"
        )

    plan = _parse_plan(
        parser["sample"] if parser.has_section("sample") else None, origin
    )
    declared = [e.box for e in ordered if e.box is not None]
    if declared:
        plan = dataclasses.replace(plan, box=min([plan.box] + declared))

    tolerances = _tolerances(
        dict(parser["tolerances"]) if parser.has_section("tolerances") else {},
        f"{origin}: [tolerances]",
    )

    return Config(
        dimension=dimension,
        metrics=ordered,
        params=params,
        default_params=default_params,
        plan=plan,
        tolerances=tolerances,
        out=out,
        fuzz=fuzz,
    )


def load_config(path: str | Path) -> Config:
    """Read and parse a configuration file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {p}: {err}") from None
    return parse_config(text, origin=str(p))


# ---------------------------------------------------------------------------
# building structures, parameters, and points


def build_structure(entry: MetricEntry, dimension: int) -> FinslerStructure:
    """Compile one metric entry and validate it at a probe point."""
    try:
        norm = ExprScalarField(dimension, entry.source)
    except ExprError as err:
        raise ConfigError(f"[metric:{entry.name}] L: {err}") from None
    F = FinslerStructure(dimension, norm, name=entry.name)
    probe = ChartPoint(np.zeros(dimension), np.full(dimension, 1.0))
    try:
        F.validate_at(probe)
    except ValueError as err:
        raise ConfigError(f"[metric:{entry.name}]: {err}") from None
    return F


def _split_form(text: str, n: int, where: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(","))
    if len(parts) != n:
        raise ConfigError(
            f"{where}: needs {n} comma-separated components, "
            f"got {len(parts)}"
        )
    return parts


def _split_matrix(text: str, n: int, where: str) -> tuple[tuple[str, ...], ...]:
    rows = [r for r in (row.strip() for row in text.split(";")) if r]
    if len(rows) != n:
        raise ConfigError(
            f"{where}: needs {n} ';'-separated rows, got {len(rows)}"
        )
    return tuple(_split_form(row, n, where) for row in rows)


def build_params(
    entry: ParamsEntry, F: FinslerStructure, plan: SamplePlan
) -> DeformationParams:
    """Realize one params entry on a structure.

    Random entries draw their polynomial coefficients from a substream of
    the plan seed keyed by the entry name, so reports and checks agree on
    what ``source = random`` means for a given configuration.
    """
    n = F.n
    where = f"[params:{entry.name}]"
    if entry.kind == "random":
        rng = np.random.default_rng(
            [int(plan.seed), zlib.crc32(b"cli-params"),
             zlib.crc32(entry.name.encode())]
        )
        return random_params(n, rng, name=entry.name)
    fields: dict = {}
    for key, text in entry.fields.items():
        value = text
        if key in ("A", "B", "u"):
            value = _split_form(text, n, f"{where} {key}")
        elif key == "phi":
            value = _split_matrix(text, n, f"{where} {key}")
        try:
            fields[key] = parameter_field(key, value, n) if key in _SLOTS else value
        except ExprError as err:
            raise ConfigError(f"{where} {key}: {err}") from None
    if entry.kind == "fields":
        return dataclasses.replace(DeformationParams.zero(n, entry.name), **fields)
    try:
        pack = preset(entry.preset_id, F, **fields)
    except CaseError as err:
        raise ConfigError(f"{where}: {err}") from None
    return dataclasses.replace(pack, name=entry.name)


def load_points(path: str | Path, n: int) -> list[ChartPoint]:
    """Read chart points from a text file.

    One point per line: ``2n`` whitespace-separated floats, base
    coordinates first, direction second.  Blank lines and lines starting
    with ``#`` are skipped.
    """
    p = Path(path)
    try:
        lines = p.read_text().splitlines()
    except OSError as err:
        raise ConfigError(f"cannot read points file {p}: {err}") from None
    points: list[ChartPoint] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [float(tok) for tok in line.split()]
        except ValueError as err:
            raise ConfigError(f"{p}:{lineno}: {err}") from None
        if len(values) != 2 * n:
            raise ConfigError(
                f"{p}:{lineno}: expected {2 * n} values "
                f"(x then y), got {len(values)}"
            )
        try:
            points.append(
                ChartPoint(np.array(values[:n]), np.array(values[n:]))
            )
        except ValueError as err:
            raise ConfigError(f"{p}:{lineno}: {err}") from None
    if not points:
        raise ConfigError(f"{p}: no points found")
    return points


# ---------------------------------------------------------------------------
# the tensor report


_REPORT_POINTS = 5
# the (order, xorder) of a report's tower, and the ring it reads the
# deformed connection and its data in (``deformed_at``)
_REPORT_ORDER, _REPORT_READ = (5, 2), (1, 1)


def tensor_report(
    F: FinslerStructure,
    pack: DeformationParams,
    points: Sequence[ChartPoint],
) -> dict:
    """Evaluate the metric tower and one deformation at chart points.

    Per point: the fundamental tensor, Cartan tensor, spray, nonlinear
    connection, and horizontal coefficients of the norm itself; then the
    deformed nonlinear connection, horizontal and vertical coefficients,
    and the difference to the metric horizontal coefficients; the five
    torsion blocks with their direction contractions; and the three
    curvature blocks contracted with the tautological field (flag slices,
    the full four-index arrays being too bulky to print).
    """
    rows: list[dict] = []
    for point in points:
        t = F.tower(point, _REPORT_ORDER)
        src = t.lift  # the point alone as a batch: every value below has one point
        d, conn = deformed_at(pack, src, _REPORT_READ)
        tb = torsions(conn, src)
        y = np.asarray(point.y, dtype=float)

        def contract(s) -> list:
            return np.einsum("ijk,k->ij", s.val[0], y).tolist()

        def flags(C) -> list:
            return contract_value_slot(C, src).val[0].tolist()

        rows.append(
            {
                "point": {"x": point.x.tolist(), "y": point.y.tolist()},
                "norm": float(src.L.val[0]),
                "metric": {
                    "fundamental": src.g.val[0].tolist(),
                    "cartan": src.T_mix.val[0].tolist(),
                    "spray": src.G.val[0].tolist(),
                    "nonlinear": src.N.val[0].tolist(),
                    "horizontal": src.Gamma.val[0].tolist(),
                },
                "deformed": {
                    "nonlinear": d.nonlinear.val[0].tolist(),
                    "horizontal": d.horizontal.val[0].tolist(),
                    "vertical": conn.V(src).val[0].tolist(),
                    "difference": d.difference.val[0].tolist(),
                },
                "torsions": {
                    "hh": tb.hh.val[0].tolist(),
                    "hv": tb.hv.val[0].tolist(),
                    "vh": tb.vh.val[0].tolist(),
                    "vhv": tb.vhv.val[0].tolist(),
                    "vv": tb.vv.val[0].tolist(),
                },
                "contracted-torsions": {
                    "hh-direction": contract(tb.hh),
                    "vh-direction": contract(tb.vh),
                    "vhv-direction": contract(tb.vhv),
                },
                "curvature-flags": {
                    "horizontal": flags(curvature_h(conn, src)),
                    "mixed": flags(curvature_mixed(conn, src)),
                    "vertical": flags(curvature_v(conn, src)),
                },
            }
        )
    return {
        "command": "report",
        "dimension": F.n,
        "metric": getattr(F, "name", ""),
        "params": {"name": pack.name, "fields": pack.describe()},
        "points": rows,
    }


# ---------------------------------------------------------------------------
# output helpers


def _verdict(report: CheckReport, out: str | None) -> int:
    """Print a verdict, write it to ``out`` if given; 0 exactly when it passed."""
    print(report.summary())
    for row in report.failures():
        print(
            f"FAIL {row.suite}: {row.label} "
            f"residual {row.residual:.3e} tolerance {row.tolerance:.1e}"
        )
    if out:
        doc = {
            "digest": report.digest(),
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "payload": report.payload(),
        }
        Path(out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"report: {out} (digest {report.digest()[:12]})")
    return 0 if report.passed else 1


def _merged(suite: str, config: Config, rows: list[CheckRow], **meta) -> CheckReport:
    """One report over rows of several suite runs, with the run's sampling metadata."""
    return CheckReport(suite, rows, {
        "seed": config.plan.seed,
        "metrics": [e.name for e in config.metrics],
        "plan": config.plan.to_dict(),
        "tolerances": resolve_tolerances(config.tolerances),
        **meta,
    })


def _structures(config: Config) -> list[FinslerStructure]:
    return [build_structure(e, config.dimension) for e in config.metrics]


def _pack(config: Config, pname: str, F: FinslerStructure) -> DeformationParams:
    """The named parameter pack; ``zero`` is built in unless a section defines it."""
    if pname == "zero" and pname not in config.params:
        return DeformationParams.zero(F.n)
    return build_params(config.params_entry(pname), F, config.plan)


# ---------------------------------------------------------------------------
# subcommands


def cmd_report(
    config: Config,
    metric: str | None,
    params_name: str | None,
    points_path: str | None,
    out: str | None,
) -> int:
    """Write the tensor document for one metric and one parameter pack."""
    entry = config.metric_entry(metric or config.metrics[0].name)
    F = build_structure(entry, config.dimension)
    pname = params_name or config.default_params
    pack = _pack(config, pname, F)
    if points_path:
        points = load_points(points_path, F.n)
    else:
        points = sample_points(F, config.plan, _REPORT_POINTS, "cli-report")
    try:
        text = json.dumps(
            tensor_report(F, pack, points), sort_keys=True, indent=2, allow_nan=False
        ) + "\n"
    except ValueError as err:  # DomainError, or a non-finite value in the document
        raise ConfigError(
            f"report on metric {entry.name!r}, params {pname!r}: {err}"
        ) from None
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(config: Config, out: str | None, fuzz: bool) -> int:
    """Run the full verification battery and write its report."""
    report = run_all(
        metrics=_structures(config),
        plan=config.plan,
        tolerances=config.tolerances or None,
        fuzz=fuzz or config.fuzz,
    )
    return _verdict(report, out or config.out or "check-report.json")


def cmd_cases(config: Config, case_id: int | None, out: str | None) -> int:
    """The catalog suite on every configured metric, or only case ``case_id``'s rows."""
    if case_id is not None and case_id not in CATALOG:
        raise ConfigError(
            f"--id: unknown case id {case_id}; "
            f"valid ids are {min(CATALOG)}..{max(CATALOG)}"
        )
    rows: list[CheckRow] = []
    catalogs: dict[int, CasePacks] = {}  # one per chart dimension, as run_all holds them
    for F in _structures(config):
        packs = catalogs.setdefault(F.n, CasePacks(F, config.plan.seed))
        rows += check_cases(F, config.plan, config.tolerances, config.fuzz, packs=packs).rows
    if case_id is not None:
        rows = [row for row in rows if row.label == f"case-{case_id:02d}"]
    return _verdict(_merged("cases", config, rows), out)


def cmd_diagram(config: Config, out: str | None) -> int:
    """The process-diagram suite with the ``[run] params`` pack on every metric."""
    pname = config.default_params
    rows: list[CheckRow] = []
    for F in _structures(config):
        pack = _pack(config, pname, F)
        rows += check_processes(pack, F, config.plan, config.tolerances, config.fuzz).rows
    return _verdict(_merged("diagram", config, rows, params=pname), out)


def cmd_init(out: str | None) -> int:
    """Write the configuration template; refuses to overwrite."""
    path = Path(out or "finslerconn.ini")
    if path.exists():
        raise ConfigError(
            f"{path} already exists; pass --out to choose another path"
        )
    path.write_text(default_config_text())
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _parse_tolerance_flags(pairs: Sequence[str] | None) -> dict[str, float]:
    texts: dict[str, str] = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(
                f"--tolerance expects NAME=VALUE, got {pair!r}"
            )
        texts[name.strip()] = value
    return _tolerances(texts, "--tolerance")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH",
        help="configuration file (default: the built-in template)",
    )
    common.add_argument(
        "--seed", type=int, metavar="N",
        help="override the sample-plan seed",
    )
    common.add_argument(
        "--tolerance", action="append", metavar="NAME=VAL",
        help="override one tolerance tier (repeatable)",
    )
    common.add_argument(
        "--out", metavar="PATH", help="write the report to this path"
    )
    parser = argparse.ArgumentParser(
        prog="finslerconn",
        description=(
            "Construct and verify the six-parameter family of deformed "
            "Finsler connections."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "report", parents=[common],
        help="tensor document for one metric and parameter pack",
    )
    p.add_argument("--metric", metavar="NAME",
                   help="metric name (default: first configured)")
    p.add_argument("--params", metavar="NAME",
                   help="params name (default: [run] params)")
    p.add_argument("--points", metavar="FILE",
                   help="chart points file (default: plan-seeded samples)")
    p = sub.add_parser(
        "check", parents=[common],
        help="run the verification battery; exit 0 iff every row passes",
    )
    p.add_argument("--fuzz", action="store_true",
                   help="inject defects so every suite must fail")
    p = sub.add_parser(
        "cases", parents=[common], help="closed-form case catalog residuals"
    )
    p.add_argument("--id", type=int, metavar="K", help="keep only the rows of case K")
    sub.add_parser(
        "diagram", parents=[common],
        help="residual matrix of the construction diagram",
    )
    p = sub.add_parser("init", help="write the configuration template")
    p.add_argument("--out", metavar="PATH",
                   help="destination (default: finslerconn.ini)")
    return parser


def _resolve_config(args: argparse.Namespace) -> Config:
    config = (
        load_config(args.config)
        if args.config
        else parse_config(default_config_text(), origin="<built-in>")
    )
    if args.seed is not None:
        config.plan = dataclasses.replace(config.plan, seed=args.seed)
    config.tolerances.update(_parse_tolerance_flags(args.tolerance))
    return config


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "init":
            return cmd_init(args.out)
        config = _resolve_config(args)
        if args.command == "report":
            return cmd_report(
                config, args.metric, args.params, args.points, args.out
            )
        if args.command == "check":
            return cmd_check(config, args.out, args.fuzz)
        if args.command == "cases":
            return cmd_cases(config, args.id, args.out)
        return cmd_diagram(config, args.out)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # CaseError and DomainError are ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
