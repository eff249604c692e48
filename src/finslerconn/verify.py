"""Seeded verification suites over the package's whole identity surface.

Every identity the other modules implement is turned into a reportable,
deterministic check here: the four defining conditions of the deformed
connection, its internal construction routes, the torsion and curvature
identities, the five differential curvature identities of Bianchi type,
the process diagram, the classical case catalog, finite-difference
cross-checks of the jet substrate, and the closed forms of the
constant-curvature surface sample.

Every suite runs through one driver, :func:`_suite`: it draws chart
points from a :class:`SamplePlan` (independent seeded substreams per metric
and suite), folds the worst residual per label into :class:`CheckRow`
entries, and wraps them in a :class:`CheckReport` whose payload serializes
deterministically for a given seed.  Residuals are relative --
``max|difference| / (1 + max|participant|)`` -- so one tolerance scale
works across norms of different magnitude.  Tolerances are tiered by
derivative depth (see :data:`DEFAULT_TOLERANCES`) and every number can be
overridden by name.

The suite holds its points' towers as one batch per order
(:meth:`FinslerStructure.towers`).  The per-point functions of the
theorem, construction, torsion, curvature, Bianchi and process suites are
each one formula over a tower or a batch: their rows are computed once
over the batch, and each point's call returns its slice
(:func:`~finslerconn.deformation.point_rows`, bit for bit the point's rows
alone).  The case checks compare each catalog entry once over the batch
(:func:`finslerconn.cases.check_case`); only the finite-difference and
constant-curvature residuals are computed one point at a time.

Every suite accepts ``fuzz=True``, which injects a ``1e-3`` coefficient
perturbation into one side of its comparisons through one of three seams
of its per-point function: ``conn=`` (a connection with one bumped
coefficient block), ``family=`` (a process family with a bumped member) or
``perturbation=`` (a shift of one entry of an extracted tensor; taken by
the Bianchi, finite-difference and constant-curvature residuals and by
:func:`finslerconn.cases.check_case`).  A healthy suite must then fail, so
a fuzz run doubles as a sensitivity control: it proves the comparisons
have teeth and none of the green rows is vacuous.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .ad import ChartJets, Series, lower
from .cases import _WORKSPACE_ORDER, catalog, check_case
from .connection import (
    CARTAN,
    Connection,
    cov_deriv,
    curvature_h,
    curvature_mixed,
    curvature_v,
    metric_deficit,
    ricci,
    torsions,
)
from .deformation import (
    _CONSTRUCTION_ORDER,
    _CURVATURE_ORDER,
    _TORSION_ORDER,
    DeformationParams,
    build,
    bump,
    construction_residuals,
    curvature_relations,
    deformed_at,
    point_rows,
    relative_residual,
    torsion_relations,
    worst_residual,
)
from .expr import ExprCovectorField, ExprMatrixField, ExprScalarField
from .finsler import ChartPoint, FinslerStructure, Tower, _Batch, lead_spec, lead_transpose
from .processes import _DIAGRAM_ORDER, derive_family, diagram_residuals
from .samples import euclidean, hyperbolic, randers

__all__ = [
    "DEFAULT_TOLERANCES",
    "resolve_tolerances",
    "SamplePlan",
    "CheckRow",
    "CheckReport",
    "sample_points",
    "random_params",
    "cartan_flat",
    "default_metrics",
    "theorem_residuals",
    "bianchi_residuals",
    "first_bianchi_residual",
    "fd_residuals",
    "constant_curvature_residuals",
    "check_theorem",
    "check_construction",
    "check_torsions",
    "check_curvatures",
    "check_bianchi",
    "check_processes",
    "check_cases",
    "fd_crosscheck",
    "check_constant_curvature",
    "run_all",
]


DEFAULT_TOLERANCES: dict[str, float] = {
    "first-order": 1e-8,
    "theorem": 1e-7,
    "torsion": 1e-7,
    "torsion-exact": 1e-12,
    "curvature": 1e-7,
    "curvature-general": 1e-6,
    "bianchi": 1e-6,
    "riemann": 1e-7,
    "processes": 1e-8,
    "collapse": 1e-10,
    "cases": 1e-7,
    "fd": 1e-5,
}
"""Named tolerance tiers, override any of them by name.

``first-order`` covers identities with at most one derivative of built
coefficients, ``curvature`` the second-derivative identities on quadratic
norms (``curvature-general`` on norms with nonzero Cartan torsion),
``bianchi`` the third-derivative differential identities, ``collapse``
the zero-parameter reductions that should be exact up to roundoff, and
``fd`` the finite-difference cross-checks whose floor is the difference
stencil, not the arithmetic.
"""

_FUZZ_SIZE = 1e-3

# the (order, xorder) of each suite's tower, and the ring it reads the
# deformed connection and its data in (``deformed_at``)
_THEOREM_ORDER, _THEOREM_READ = (4, 1), (0, 0)
_BIANCHI_ORDER, _BIANCHI_READ = (6, 3), (2, 2)
_FIRST_BIANCHI_ORDER = (5, 2)
_FD_ORDER = (4, 1)
_CONSTANT_CURVATURE_ORDER = (5, 2)


def resolve_tolerances(overrides: Mapping[str, float] | None = None) -> dict[str, float]:
    """The tolerance tiers with ``overrides`` applied by name.

    Every override must name a tier of :data:`DEFAULT_TOLERANCES` and be a
    finite positive number: an infinite tolerance would pass every finite
    residual, so it is refused like a negative one.  Raises ``ValueError``
    naming the offending tier.
    """
    merged = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
        if name not in merged:
            raise ValueError(
                f"unknown name {name!r}; known: {', '.join(sorted(merged))}"
            )
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"{name}: {value!r} is not a number") from None
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
        merged[name] = value
    return merged


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling recipe shared by every suite.

    Chart positions are uniform in the centered box ``[-box, box]^n`` and
    fiber coordinates are uniform in the positive shell ``[shell[0],
    shell[1]]^n``, which keeps all samples inside the common domain of the
    bundled norms (the drift norm and the quartic norm restrict the usable
    cone, and the shell floor keeps the fiber away from the removed zero
    section).  Each (metric, suite) pair draws from its own substream of
    ``seed``, so adding a suite or metric never reshuffles the others.

    The point counts are per metric.  ``param_sets`` is the number of
    random parameter packs the defining-conditions suite exercises.
    """

    seed: int = 42
    box: float = 0.5
    shell: tuple[float, float] = (0.4, 1.6)
    param_sets: int = 5
    theorem_points: int = 50
    construction_points: int = 25
    torsion_points: int = 50
    curvature_points: int = 20
    bianchi_points: int = 6
    process_points: int = 12
    case_points: int = 4
    fd_points: int = 10

    def __post_init__(self) -> None:
        lo, hi = self.shell
        if not all(math.isfinite(v) for v in (self.box, lo, hi)):
            raise ValueError(
                f"chart box {self.box} and fiber shell {self.shell} must be finite"
            )
        if lo < 0.1:
            raise ValueError(f"fiber shell floor {lo} is below the 0.1 minimum")
        if hi <= lo:
            raise ValueError(f"fiber shell {self.shell} is empty")
        if self.box <= 0:
            raise ValueError("chart box must have positive half-width")
        for f in fields(self):
            if f.name.endswith(("_points", "_sets")) and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be at least 1")

    def to_dict(self) -> dict:
        return {**asdict(self), "shell": list(self.shell)}


def _rng(seed: int, *labels: str) -> np.random.Generator:
    """Independent deterministic substream for a (seed, labels...) path."""
    entropy = [int(seed)] + [zlib.crc32(label.encode("utf8")) for label in labels]
    return np.random.default_rng(entropy)


def sample_points(
    F: FinslerStructure, plan: SamplePlan, count: int, label: str = ""
) -> list[ChartPoint]:
    """Draw ``count`` chart points from the plan's substream for ``label``."""
    rng = _rng(plan.seed, F.name or "metric", label)
    lo, hi = plan.shell
    return [
        ChartPoint(
            rng.uniform(-plan.box, plan.box, F.n), rng.uniform(lo, hi, F.n)
        )
        for _ in range(count)
    ]


def _poly(rng: np.random.Generator, n: int) -> str:
    """A short random polynomial in the chart variables.

    Degree at most two, every coefficient inside ``[-1, 1]``; the constant
    term is kept away from zero so scalar weights do not vanish on a whole
    hypersurface of the sample box by accident.
    """
    names = [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]
    c0 = rng.uniform(0.25, 0.85) * rng.choice([-1.0, 1.0])
    terms = [f"{c0:.3f}"]
    for var in rng.choice(names, size=2, replace=False):
        terms.append(f"{rng.uniform(-0.5, 0.5):+.3f}*{var}")
    a, b = rng.choice(names, size=2, replace=True)
    terms.append(f"{rng.uniform(-0.3, 0.3):+.3f}*{a}*{b}")
    return " ".join(terms)


def random_params(
    n: int, rng: np.random.Generator, name: str = "random"
) -> DeformationParams:
    """A full random parameter pack of low-degree polynomial fields.

    All six parameters are position- and direction-dependent, so the
    identities are exercised away from every special case, and every
    coefficient lies in ``[-1, 1]``.
    """
    form = lambda: ExprCovectorField(n, tuple(_poly(rng, n) for _ in range(n)))
    return DeformationParams(
        f1=ExprScalarField(n, _poly(rng, n)),
        f2=ExprScalarField(n, _poly(rng, n)),
        A=form(),
        B=form(),
        u=form(),
        phi=ExprMatrixField(
            n, tuple(tuple(_poly(rng, n) for _ in range(n)) for _ in range(n))
        ),
        name=name,
    )


def random_param_sets(F: FinslerStructure, plan: SamplePlan) -> list[DeformationParams]:
    """The plan's random parameter packs for one metric."""
    return [
        random_params(
            F.n, _rng(plan.seed, F.name or "metric", f"params-{i}"), name=f"random-{i}"
        )
        for i in range(plan.param_sets)
    ]


def cartan_flat(F: FinslerStructure) -> bool:
    """Whether the norm is quadratic in the fiber (vanishing Cartan tensor).

    Decided once per structure (:attr:`FinslerStructure.cartan_flat`);
    quadratic norms get the tighter curvature tolerances.
    """
    return F.cartan_flat


def default_metrics() -> list[FinslerStructure]:
    """The bundled desk-scale metric list: flat, curved quadratic, drift."""
    return [euclidean(2), hyperbolic(), randers()]


# ---------------------------------------------------------------------------
# rows and reports


@dataclass(frozen=True)
class CheckRow:
    """One aggregated check: worst residual against one tolerance."""

    suite: str
    label: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CheckReport:
    """Rows plus the sampling metadata that reproduces them.

    The payload is plain JSON-serializable data with sorted keys, so two
    runs from the same configuration and seed produce byte-identical
    serializations; anything time-dependent belongs outside the payload.
    """

    suite: str
    rows: list[CheckRow]
    meta: dict

    @property
    def passed(self) -> bool:
        return bool(self.rows) and all(row.passed for row in self.rows)

    def failures(self) -> list[CheckRow]:
        return [row for row in self.rows if not row.passed]

    def payload(self) -> dict:
        return {
            "suite": self.suite,
            "meta": self.meta,
            "rows": [row.to_dict() for row in self.rows],
            "passed": self.passed,
        }

    def payload_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2)

    def digest(self) -> str:
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf8")).hexdigest()

    def summary(self) -> str:
        lines = []
        for row in self.rows:
            verdict = "pass" if row.passed else "FAIL"
            line = (
                f"{verdict:4s}  {row.suite:28s} {row.label:40s} "
                f"{row.residual:10.3e} < {row.tolerance:8.1e}"
            )
            lines.append(f"{line}  {row.note}" if row.note else line)
        state = "all checks passed" if self.passed else (
            f"{len(self.failures())} of {len(self.rows)} checks failed"
        )
        lines.append(f"{self.suite}: {state}")
        return "\n".join(lines)


def _report(
    suite: str,
    residuals: Mapping[str, float],
    tol_of: Mapping[str, str],
    tols: Mapping[str, float],
    meta: dict,
    notes: Mapping[str, str] | None = None,
) -> CheckReport:
    """Wrap aggregated residuals into rows, resolving tolerance names."""
    notes = notes or {}
    rows = [
        CheckRow(suite, label, float(residual), tol, bool(residual < tol), notes.get(label, ""))
        for label, residual in residuals.items()
        for tol in (tols[tol_of[label]],)
    ]
    return CheckReport(suite, rows, meta)


def _aggregate(per_point: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Worst residual per label over per-point dictionaries; a NaN anywhere wins."""
    values: dict[str, list[float]] = {}
    for rowset in per_point:
        for label, value in rowset.items():
            values.setdefault(label, []).append(value)
    return {label: worst_residual(vals) for label, vals in values.items()}


def _suite(
    suite: str,
    F: FinslerStructure,
    plan: SamplePlan | None,
    tolerances: Mapping[str, float] | None,
    fuzz: bool,
    count_field: str,
    residuals: Callable[[list[ChartPoint], SamplePlan], Iterable[Mapping[str, float]]],
    tier: Callable[[str], str],
    towers: Sequence[tuple[int, int]],
    notes: Mapping[str, str] | None = None,
    points_read: int | None = None,
    **meta,
) -> CheckReport:
    """Sample, fold and judge one suite on one metric.

    ``getattr(plan, count_field)`` points are drawn from the substream named
    by ``suite`` up to its ``[`` (``-fuzz`` appended under ``fuzz``), and
    the first ``points_read`` of them (all when None) are read.
    ``residuals(points, plan)`` yields per-point ``label -> residual``
    dictionaries for the points read, folded to the worst per label;
    ``tier`` names the tolerance of each label.  ``notes`` is read only
    after the fold, so the residual generator may fill it.  The towers of
    the points read at each order of ``towers``, the orders the per-point
    functions ask for, are held while the generator runs, each order one
    batch (:meth:`FinslerStructure.towers`).
    """
    plan = plan or SamplePlan()
    tols = resolve_tolerances(tolerances)
    stream = suite.split("[")[0]
    points = sample_points(
        F, plan, getattr(plan, count_field), f"{stream}-fuzz" if fuzz else stream
    )
    read = points[:points_read]
    held = [F.towers(read, order) for order in towers]
    worst = _aggregate(residuals(read, plan))
    del held
    meta = {"metric": F.name, "seed": plan.seed, "points": len(points), **meta, "fuzz": fuzz}
    return _report(suite, worst, {label: tier(label) for label in worst}, tols, meta, notes)


# ---------------------------------------------------------------------------
# fuzz-injection plumbing


class _Bumped:
    """The part ``part`` (``"N"``, ``"H"`` or ``"V"``) of ``conn`` with one
    coefficient shifted by the fuzz size, at every point of a batch;
    ``at`` computes it in a read ring."""

    def __init__(self, conn: Connection, part: str):
        self.conn, self.part = conn, part

    def __call__(self, t: Tower | _Batch) -> Series:
        base = getattr(self.conn, self.part)(t)
        return base + t.jets.const(bump(np.zeros(base.shape), _FUZZ_SIZE, t.lead))

    def at(self, read: tuple[int, int]) -> "_Bumped":
        return _Bumped(self.conn.at(read), self.part)


def _perturbed(conn: Connection, slot: str) -> Connection:
    """A copy of ``conn`` with one coefficient of one block shifted by the fuzz size."""
    if slot not in ("nlc", "hor", "ver"):
        raise ValueError(f"unknown coefficient block {slot!r}")
    produce = _Bumped(conn, {"nlc": "N", "hor": "H", "ver": "V"}[slot])
    return Connection(
        name=f"{conn.name}+bump-{slot}",
        nlc=produce if slot == "nlc" else conn.nlc,
        hor=produce if slot == "hor" else conn.hor,
        ver=produce if slot == "ver" else conn.ver,
    )


# ---------------------------------------------------------------------------
# defining conditions


def theorem_residuals(
    params: DeformationParams,
    F: FinslerStructure,
    point: ChartPoint,
    conn: Connection | None = None,
) -> dict[str, float]:
    """Residuals of the four defining conditions at one point.

    * ``condition-(i)``: the horizontal metric deficit equals its closed
      two-weight shape ``2 f1 A_j g_kl + f2 (B_k g_lj + B_l g_jk)``.
    * ``condition-(ii)``: the vertical metric deficit vanishes.
    * ``condition-(iii)``: the horizontal torsion is the quarter form
      ``u_k phi^i_j - u_j phi^i_k``.
    * ``condition-(iv)``: the lowered vertical coefficients are totally
      symmetric.

    The rows are computed once over the point's batch
    (:func:`~finslerconn.deformation.point_rows`).
    """
    t = F.tower(point, _THEOREM_ORDER)
    return point_rows(
        t, (params, conn, "theorem-rows"), lambda src: _theorem_rows(params, src, conn)
    )


def _theorem_rows(params: DeformationParams, src: Tower | _Batch, conn: Connection | None) -> dict:
    """:func:`theorem_residuals` on a tower or over a batch."""
    lead = src.lead
    spec = lambda s: lead_spec(s, lead)
    d, conn = deformed_at(params, src, _THEOREM_READ, conn)
    g = src.g.val
    # the weights broadcast over each point's (j, k, l) block
    f1, f2 = (v[(Ellipsis,) + (None,) * 3] for v in (d.f1.val, d.f2.val))
    A, B, u, phi = d.A.val, d.B.val, d.u.val, d.phi.val

    deficit_h = metric_deficit(conn, src, horizontal=True).val
    closed_h = (2.0 * f1) * np.einsum(spec("j,kl->jkl"), A, g) + f2 * (
        np.einsum(spec("k,lj->jkl"), B, g) + np.einsum(spec("l,jk->jkl"), B, g)
    )
    deficit_v = metric_deficit(conn, src, horizontal=False).val
    hh = torsions(conn, src).hh.val
    quarter = np.einsum(spec("k,ij->ijk"), u, phi) - np.einsum(spec("j,ik->ijk"), u, phi)
    lowered = np.einsum(spec("mi,mjk->ijk"), g, conn.V(src).val)
    # both asymmetries against one scale: the larger of their two residuals
    swaps = ((1, 0, 2), (0, 2, 1))
    asymmetry = np.stack(
        [lowered - lowered.transpose(*range(lead), *(lead + a for a in axes)) for axes in swaps],
        axis=lead,
    )
    return {
        "condition-(i)-horizontal-deficit": relative_residual(
            deficit_h - closed_h, deficit_h, closed_h, lead=lead
        ),
        "condition-(ii)-vertical-deficit": relative_residual(deficit_v, g, lead=lead),
        "condition-(iii)-quarter-torsion": relative_residual(hh - quarter, hh, quarter, lead=lead),
        "condition-(iv)-vertical-symmetry": relative_residual(asymmetry, lowered, lead=lead),
    }


def check_theorem(
    params: DeformationParams | Sequence[DeformationParams],
    F: FinslerStructure,
    plan: SamplePlan | None = None,
    tolerances: Mapping[str, float] | None = None,
    fuzz: bool = False,
) -> CheckReport:
    """Defining conditions over sampled points and parameter packs.

    ``params`` may be a single pack or a sequence; the report keeps the
    worst residual per condition across all packs and points.
    """
    packs = [params] if isinstance(params, DeformationParams) else list(params)

    def residuals(points, plan):
        for pack in packs:
            conn = _perturbed(build(pack), "hor") if fuzz else None
            for p in points:
                yield theorem_residuals(pack, F, p, conn=conn)

    return _suite(
        f"theorem[{F.name}]", F, plan, tolerances, fuzz, "theorem_points",
        residuals, lambda label: "theorem", [_THEOREM_ORDER], packs=[pack.name for pack in packs],
    )


# ---------------------------------------------------------------------------
# construction routes, torsions, curvatures (aggregating the pointwise suites)


def check_construction(
    params: DeformationParams,
    F: FinslerStructure,
    plan: SamplePlan | None = None,
    tolerances: Mapping[str, float] | None = None,
    fuzz: bool = False,
) -> CheckReport:
    """Internal consistency of the build: deflection, spray, both routes."""
    conn = _perturbed(build(params), "hor") if fuzz else None
    return _suite(
        f"construction[{F.name}]", F, plan, tolerances, fuzz, "construction_points",
        lambda points, plan: (
            construction_residuals(params, F, p, conn=conn) for p in points
        ),
        lambda label: "first-order", [_CONSTRUCTION_ORDER], pack=params.name,
    )


_TORSION_TOLS = {
    "hv-coincides": "torsion-exact",
    "hh-quarter-form": "first-order",
    "vv-vanishes": "first-order",
    "vhv-shift-rule": "torsion",
    "vh-shift-rule": "torsion",
}


def check_torsions(
    params: DeformationParams,
    F: FinslerStructure,
    plan: SamplePlan | None = None,
    tolerances: Mapping[str, float] | None = None,
    fuzz: bool = False,
) -> CheckReport:
    """The five torsion identities over sampled points."""
    conn = _perturbed(build(params), "ver") if fuzz else None
    return _suite(
        f"torsions[{F.name}]", F, plan, tolerances, fuzz, "torsion_points",
        lambda points, plan: (torsion_relations(params, F, p, conn=conn) for p in points),
        lambda label: _TORSION_TOLS[label], [_TORSION_ORDER], pack=params.name,
    )


def check_curvatures(
    params: DeformationParams,
    F: FinslerStructure,
    plan: SamplePlan | None = None,
    tolerances: Mapping[str, float] | None = None,
    fuzz: bool = False,
) -> CheckReport:
    """The three curvature identities over sampled points.

    Quadratic norms get the tighter expansion tolerance; norms with
    nonzero Cartan torsion get the general one.
    """
    expansion = "curvature" if cartan_flat(F) else "curvature-general"
    conn = _perturbed(build(params), "ver") if fuzz else None
    return _suite(
        f"curvatures[{F.name}]", F, plan, tolerances, fuzz, "curvature_points",
        lambda points, plan: (curvature_relations(params, F, p, conn=conn) for p in points),
        lambda label: "first-order" if label == "v-curvature-coincides" else expansion,
        [_CURVATURE_ORDER], pack=params.name,
    )


# ---------------------------------------------------------------------------
# differential curvature identities


def _cyc3(M: np.ndarray, lead: int = 0) -> np.ndarray:
    """Cyclic sum over the three argument axes 1, 2, 3, behind the ``lead``
    point axes; the axes after 3 stay in place."""
    rest = tuple(range(4, M.ndim - lead))
    A = lead_transpose(M, lead, 0, 2, 3, 1, *rest)
    B = lead_transpose(M, lead, 0, 3, 1, 2, *rest)
    return M + A + B


def bianchi_residuals(
    params: DeformationParams,
    F: FinslerStructure,
    point: ChartPoint,
    perturbation: float = 0.0,
) -> dict[str, float]:
    """Residuals of the five differential curvature identities at a point.

    The identities tie covariant derivatives of the three curvatures and
    two torsions together; with ``X = e_a``, ``Y = e_b``, ``Z = e_c`` and
    value argument ``e_m``, each is contracted into an explicit index sum
    below (cyclic sums written out, alternations as explicit swaps).  Order
    6 leaves one trusted coefficient layer for the outermost covariant
    derivative of a curvature of the built connection; x-order 3 covers
    its three horizontal derivatives.  The connection is computed in the
    ring ``(2, 2)`` it is read in: its curvatures land at order 1 and their
    covariant derivatives, read as values, at order 0.

    The identities are structural -- they hold for any coefficient triple
    expressed through its own torsions and curvatures -- so the
    fuzz-injection hook perturbs one entry of each curvature array after
    extraction, not the connection itself.  The rows are computed once
    over the point's batch (:func:`~finslerconn.deformation.point_rows`).
    """
    t = F.tower(point, _BIANCHI_ORDER)
    return point_rows(
        t,
        (params, perturbation, "bianchi-rows"),
        lambda src: _bianchi_rows(params, src, perturbation),
    )


def _bianchi_rows(params: DeformationParams, src: Tower | _Batch, perturbation: float) -> dict:
    """:func:`bianchi_residuals` on a tower or over a batch."""
    lead = src.lead
    ein = lambda s, *ops: np.einsum(lead_spec(s, lead), *ops)
    _, conn = deformed_at(params, src, _BIANCHI_READ)
    tb = torsions(conn, src)
    R_s = curvature_h(conn, src)
    P_s = curvature_mixed(conn, src)
    S_s = curvature_v(conn, src)

    V, Q = tb.hv.val, tb.hh.val
    Phat, Rhat, vv = tb.vhv.val, tb.vh.val, tb.vv.val
    R, P, S = (bump(c.val, perturbation, lead) for c in (R_s, P_s, S_s))

    # the derivatives are read as values: cut the torsions to the curvatures' ring first
    hv, hh, _ = lower(tb.hv, tb.hh, R_s)
    covT_h = cov_deriv(conn, src, hv, horizontal=True).val
    covQ_v = cov_deriv(conn, src, hh, horizontal=False).val
    covQ_h = cov_deriv(conn, src, hh, horizontal=True).val
    covS_h = cov_deriv(conn, src, S_s, horizontal=True).val
    covP_v = cov_deriv(conn, src, P_s, horizontal=False).val
    covP_h = cov_deriv(conn, src, P_s, horizontal=True).val
    covR_v = cov_deriv(conn, src, R_s, horizontal=False).val
    covR_h = cov_deriv(conn, src, R_s, horizontal=True).val

    # (a) mixed curvature antisymmetrized in its two horizontal arguments
    lhs_a = ein("icab->iabc", P) - ein("iacb->iabc", P)
    rhs_a = (
        ein("ciba->iabc", covT_h)
        - ein("aibc->iabc", covT_h)
        - ein("bica->iabc", covQ_v)
        + ein("ibq,qca->iabc", V, Q)
        - ein("iqa,qcb->iabc", V, Phat)
        + ein("iqc,qab->iabc", V, Phat)
        - ein("icq,qba->iabc", Q, V)
        + ein("iaq,qbc->iabc", Q, V)
    )

    # (b) cyclic sum of the horizontal curvature
    lhs_b = _cyc3(ein("icab->iabc", R) - ein("iqc,qab->iabc", V, Rhat), lead)
    rhs_b = _cyc3(ein("iaq,qbc->iabc", Q, Q) - ein("aibc->iabc", covQ_h), lead)

    # (c) horizontal derivative of the vertical curvature
    lhs_c = ein("cimab->iabcm", covS_h) - ein("imcq,qab->iabcm", P, vv)
    inner_c = (
        -ein("bimca->iabcm", covP_v)
        + ein("imqb,qac->iabcm", P, V)
        + ein("imqb,qca->iabcm", S, Phat)
    )
    rhs_c = inner_c - lead_transpose(inner_c, lead, 0, 2, 1, 3, 4)

    # (d) vertical derivative of the horizontal curvature
    lhs_d = ein("aimbc->iabcm", covR_v)
    rhs_d = ein("imqa,qbc->iabcm", S, Rhat) - ein("imqa,qbc->iabcm", P, Q)
    inner_d = (
        ein("cimba->iabcm", covP_h)
        + ein("imcq,qba->iabcm", P, Phat)
        + ein("imqb,qac->iabcm", R, V)
    )
    rhs_d = rhs_d + inner_d - lead_transpose(inner_d, lead, 0, 1, 3, 2, 4)

    # (e) cyclic sum of the horizontal derivative of the horizontal curvature
    core_e = (
        ein("aimbc->iabcm", covR_h)
        + ein("imaq,qbc->iabcm", P, Rhat)
        + ein("imqc,qab->iabcm", R, Q)
    )
    sum_e = _cyc3(core_e, lead)

    return {
        "bianchi-(a)": relative_residual(lhs_a - rhs_a, lhs_a, rhs_a, lead=lead),
        "bianchi-(b)": relative_residual(lhs_b - rhs_b, lhs_b, rhs_b, lead=lead),
        "bianchi-(c)": relative_residual(lhs_c - rhs_c, lhs_c, rhs_c, lead=lead),
        "bianchi-(d)": relative_residual(lhs_d - rhs_d, lhs_d, rhs_d, lead=lead),
        "bianchi-(e)": relative_residual(sum_e, core_e, lead=lead),
    }


def first_bianchi_residual(
    F: FinslerStructure,
    point: ChartPoint,
    perturbation: float = 0.0,
) -> float:
    """Cyclic sum of the metric horizontal curvature at one point.

    For a quadratic norm the metric connection's horizontal curvature is
    the Riemann tensor of the underlying metric and its cyclic sum over
    the three frame arguments vanishes -- the classical first identity.
    ``perturbation`` shifts one curvature entry before the sum.  The
    residual is computed once over the point's batch
    (:func:`~finslerconn.deformation.point_rows`).
    """
    t = F.tower(point, _FIRST_BIANCHI_ORDER)
    rows = point_rows(
        t,
        (CARTAN, perturbation, "first-bianchi-rows"),
        lambda src: _first_bianchi_rows(src, perturbation),
    )
    return rows["first-bianchi-metric"]


def _first_bianchi_rows(src: Tower | _Batch, perturbation: float) -> dict:
    """:func:`first_bianchi_residual` on a tower or over a batch, as its one row."""
    lead = src.lead
    R = bump(curvature_h(CARTAN, src).val, perturbation, lead)
    cyclic = _cyc3(np.einsum(lead_spec("icab->iabc", lead), R), lead)
    return {"first-bianchi-metric": relative_residual(cyclic, R, lead=lead)}


def check_bianchi(
    params: DeformationParams,
    F: FinslerStructure,
    plan: SamplePlan | None = None,
    tolerances: Mapping[str, float] | None = None,
    fuzz: bool = False,
) -> CheckReport:
    """The five differential identities over sampled points.

    On quadratic norms a ``first-bianchi-metric`` row is added: the
    classical first identity for the metric connection, at its own
    (tighter) tolerance.
    """
    size = _FUZZ_SIZE if fuzz else 0.0
    metric_row = cartan_flat(F)

    def residuals(points, plan):
        for p in points:
            rows = bianchi_residuals(params, F, p, perturbation=size)
            if metric_row:
                rows["first-bianchi-metric"] = first_bianchi_residual(F, p, perturbation=size)
            yield rows

    return _suite(
        f"bianchi[{F.name}]", F, plan, tolerances, fuzz, "bianchi_points", residuals,
        lambda label: "riemann" if label == "first-bianchi-metric" else "bianchi",
        [_BIANCHI_ORDER] + ([_FIRST_BIANCHI_ORDER] if metric_row else []), pack=params.name,
    )


# ---------------------------------------------------------------------------
# process diagram


def _edge_tier(label: str) -> str:
    """Tolerance name of a process-diagram edge: collapse arrows are exact."""
    return "collapse" if label.startswith("collapse:") else "processes"


def check_processes(
    params: DeformationParams,
    F: FinslerStructure,
    plan: SamplePlan | None = None,
    tolerances: Mapping[str, float] | None = None,
    fuzz: bool = False,
) -> CheckReport:
    """Every edge of the two-square process diagram over sampled points."""
    family = None
    if fuzz:
        fam = derive_family(params)
        family = replace(fam, hashiguchi=_perturbed(fam.hashiguchi, "hor"))
    return _suite(
        f"processes[{F.name}]", F, plan, tolerances, fuzz, "process_points",
        lambda points, plan: (diagram_residuals(params, F, p, family=family) for p in points),
        _edge_tier, [_DIAGRAM_ORDER], pack=params.name,
    )


# ---------------------------------------------------------------------------
# case catalog


def check_cases(
    F: FinslerStructure,
    plan: SamplePlan | None = None,
    tolerances: Mapping[str, float] | None = None,
    fuzz: bool = False,
) -> CheckReport:
    """All catalog entries against their closed forms over sampled points.

    Typo-flagged entries are asserted against the regenerated form; the
    literal printed form's residual is carried in the row note so the
    discrepancy stays visible without failing the catalog.  A fuzz run
    reads the first two points only.
    """
    notes: dict[str, str] = {}

    def residuals(points, plan):
        for entry in catalog():
            label = f"case-{entry['id']:02d}"
            result = check_case(
                entry["id"], F, points=points, seed=plan.seed,
                perturbation=_FUZZ_SIZE if fuzz else 0.0,
            )
            notes[label] = "difference tensor perturbed by 1e-3" if fuzz else _case_note(result)
            yield {label: result["residual"]}

    return _suite(
        f"cases[{F.name}]", F, plan, tolerances, fuzz, "case_points", residuals,
        lambda label: "cases", [_WORKSPACE_ORDER], notes=notes,
        points_read=2 if fuzz else None,
    )


def _case_note(result: Mapping) -> str:
    """A case row's note: its title, then any printed-form or convention caveat."""
    note = result["title"]
    if result["typo"]:
        note += (
            f"; literal printed form residual "
            f"{result['literal_residual']:.2e} (reported, not asserted)"
        )
    if result["convention"]:
        note += "; depends on the curvature sign convention"
    return note


# ---------------------------------------------------------------------------
# finite-difference cross-checks


def _energies(F: FinslerStructure, stencil: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The energy ``L^2 / 2`` at each ``(x, y)`` of ``stencil``, from one
    order-0 evaluation of the norm on the batch.  On an error the points
    run again one by one in order, so the error raised is the first one's."""
    x, y = (np.stack(coords, axis=1) for coords in zip(*stencil))
    try:
        L = F.norm.eval(ChartJets.at(x, y, 0)).val
    except Exception:
        for x, y in stencil:
            F.norm.eval(ChartJets.at(x, y, 0))
        raise
    return 0.5 * L * L


def fd_residuals(
    F: FinslerStructure,
    point: ChartPoint,
    perturbation: float = 0.0,
) -> dict[str, float]:
    """Jet-computed fundamental objects against central finite differences.

    The fundamental tensor and the spray are rebuilt from direct norm
    evaluations alone (second differences of the energy and its closed
    spray formula with a finite-difference metric inverse); the Cartan
    tensor, nonlinear connection and horizontal coefficients difference
    jet-computed lower-order objects at shifted points, anchoring each
    derivative relation in the chain independently.  ``perturbation`` is
    added to one entry of every finite-difference reconstruction (the
    fuzz-injection hook).
    """
    t = F.tower(point, _FD_ORDER)
    n = t.n
    x0 = np.asarray(point.x, dtype=float)
    y0 = np.asarray(point.y, dtype=float)

    def e_x(i: int, h: float) -> np.ndarray:
        out = np.zeros(n)
        out[i] = h
        return out

    # the energies of the three stencils, in the order their sums read them:
    # the fundamental tensor's, the spray's x-gradient and its mixed term
    h2, hx = 1e-3, 1e-4
    signs = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))  # added, less, less, added
    pairs = [(i, j) for i in range(n) for j in range(n)]
    E = _energies(F, (
        [(x0, y0 + s * e_x(i, h2) + r * e_x(j, h2)) for i, j in pairs for s, r in signs]
        + [(x0 + s * e_x(l, hx), y0) for l in range(n) for s in (1.0, -1.0)]
        + [(x0 + s * e_x(m, h2), y0 + r * e_x(l, h2)) for l, m in pairs for s, r in signs]
    ))
    quad = E[: 4 * n * n].reshape(n, n, 4)
    g_fd = (quad[..., 0] - quad[..., 1] - quad[..., 2] + quad[..., 3]) / (4.0 * h2 * h2)

    # spray from its closed formula, all ingredients finite-differenced
    grad = E[4 * n * n : 4 * n * n + 2 * n].reshape(n, 2)
    dx_energy = (grad[:, 0] - grad[:, 1]) / 2e-4
    quad = E[4 * n * n + 2 * n :].reshape(n, n, 4)  # [l, m]: d^2 energy / dy_l dx_m
    mixed = (quad[..., 0] - quad[..., 1] - quad[..., 2] + quad[..., 3]) / (4.0 * h2 * h2)
    G_fd = 0.5 * np.linalg.inv(g_fd) @ (mixed @ y0 - dx_energy)

    # first differences of jet-computed lower-order objects, the towers of
    # the shifted points being one batch for g and one for the spray
    h1 = 1e-4
    dy_points = [ChartPoint(x0, y0 + s * e_x(k, h1)) for k in range(n) for s in (1.0, -1.0)]
    dx_points = [ChartPoint(x0 + s * e_x(j, h1), y0) for j in range(n) for s in (1.0, -1.0)]
    g_at = F.towers(dy_points + dx_points + [ChartPoint(x0, y0)], (2, 0))
    spray_at = F.towers(dy_points, (3, 1))

    T_fd = np.zeros((n, n, n))
    dyg = np.zeros((n, n, n))  # dyg[k, i, j] = d g_ij / dy_k
    for k in range(n):
        dyg[k] = (g_at[2 * k].g.val - g_at[2 * k + 1].g.val) / (2 * h1)
        T_fd[:, :, k] = 0.5 * dyg[k]
    N_fd = np.stack(
        [(spray_at[2 * j].G.val - spray_at[2 * j + 1].G.val) / (2 * h1) for j in range(n)],
        axis=1,
    )

    dxg = np.stack(
        [(g_at[2 * n + 2 * j].g.val - g_at[2 * n + 2 * j + 1].g.val) / (2 * h1) for j in range(n)]
    )
    N0 = t.N.val
    delta_g = dxg - np.einsum("mj,mlk->jlk", N0, dyg)
    gi = np.linalg.inv(g_at[4 * n].g.val)
    Gamma_fd = 0.5 * np.einsum(
        "il,jlk->ijk",
        gi,
        delta_g + np.einsum("kjl->jlk", delta_g) - np.einsum("ljk->jlk", delta_g),
    )

    g_fd, T_fd, G_fd, N_fd, Gamma_fd = (
        bump(a, perturbation) for a in (g_fd, T_fd, G_fd, N_fd, Gamma_fd)
    )

    return {
        "fd-fundamental-tensor": relative_residual(g_fd - t.g.val, t.g.val),
        "fd-cartan-tensor": relative_residual(T_fd - t.T_low.val, t.T_low.val, np.array([1.0])),
        "fd-spray": relative_residual(G_fd - t.G.val, t.G.val),
        "fd-nonlinear": relative_residual(N_fd - t.N.val, t.N.val),
        "fd-horizontal": relative_residual(Gamma_fd - t.Gamma.val, t.Gamma.val),
    }


def fd_crosscheck(
    F: FinslerStructure,
    plan: SamplePlan | None = None,
    tolerances: Mapping[str, float] | None = None,
    fuzz: bool = False,
) -> CheckReport:
    """Finite-difference cross-checks of the jet chain over sampled points."""
    size = _FUZZ_SIZE if fuzz else 0.0
    return _suite(
        f"fd[{F.name}]", F, plan, tolerances, fuzz, "fd_points",
        lambda points, plan: (fd_residuals(F, p, perturbation=size) for p in points),
        lambda label: "fd", [_FD_ORDER],
    )


# ---------------------------------------------------------------------------
# constant-curvature closed forms


def constant_curvature_residuals(
    F: FinslerStructure, point: ChartPoint, perturbation: float = 0.0
) -> dict[str, float]:
    """Closed-form checks on the constant-curvature surface sample.

    ``F`` must be :func:`finslerconn.samples.hyperbolic`: the quadratic
    norm whose metric is ``diag(1, exp(2 x1))``.  Its Christoffel symbols
    have two nonzero families, its sectional curvature is the constant
    ``-1``, and its Ricci trace is minus the metric; all three closed
    forms are compared against the jet-computed metric connection data.
    """
    t = F.tower(point, _CONSTANT_CURVATURE_ORDER)
    if t.n != 2:
        raise ValueError("the constant-curvature sample is a surface")
    e2 = float(np.exp(2.0 * point.x[0]))
    g_closed = np.diag([1.0, e2])

    Gamma = np.zeros((2, 2, 2))
    Gamma[0, 1, 1] = -e2
    Gamma[1, 0, 1] = Gamma[1, 1, 0] = 1.0
    dGamma = np.zeros((2, 2, 2, 2))  # dGamma[l, i, j, k] = d_l Gamma^i_jk
    dGamma[0, 0, 1, 1] = -2.0 * e2

    # classical curvature from the closed Christoffel symbols
    lead = np.einsum("jikm->imjk", dGamma)
    quad = np.einsum("ijl,lkm->imjk", Gamma, Gamma)
    riemann = (
        lead
        - lead.transpose(0, 1, 3, 2)
        + quad
        - quad.transpose(0, 1, 3, 2)
    )
    ric_closed = -g_closed

    g_closed, Gamma, riemann, ric_closed = (
        bump(a, perturbation) for a in (g_closed, Gamma, riemann, ric_closed)
    )

    return {
        "constant-curvature-metric": relative_residual(t.g.val - g_closed, g_closed),
        "constant-curvature-christoffel": relative_residual(t.Gamma.val - Gamma, Gamma),
        "constant-curvature-riemann": relative_residual(
            curvature_h(CARTAN, t).val + riemann, riemann
        ),
        "constant-curvature-ricci": relative_residual(
            ricci(CARTAN, t).val - ric_closed, ric_closed
        ),
    }


def check_constant_curvature(
    plan: SamplePlan | None = None,
    tolerances: Mapping[str, float] | None = None,
    fuzz: bool = False,
) -> CheckReport:
    """Closed-form rows on the bundled constant-curvature surface."""
    F = hyperbolic()
    size = _FUZZ_SIZE if fuzz else 0.0
    return _suite(
        "constant-curvature", F, plan, tolerances, fuzz, "fd_points",
        lambda points, plan: (
            constant_curvature_residuals(F, p, perturbation=size) for p in points
        ),
        lambda label: "riemann", [_CONSTANT_CURVATURE_ORDER],
    )


# ---------------------------------------------------------------------------
# the whole battery


def run_all(
    metrics: Sequence[FinslerStructure] | None = None,
    plan: SamplePlan | None = None,
    tolerances: Mapping[str, float] | None = None,
    fuzz: bool = False,
) -> CheckReport:
    """Every suite over every metric, merged into one report.

    ``metrics=None`` uses the bundled desk-scale list; an explicitly empty
    list is a configuration error.  The constant-curvature closed-form
    suite always runs on its own bundled sample.  With ``fuzz=True`` every
    suite receives its injection and the merged report must fail.
    """
    plan = plan or SamplePlan()
    tols = resolve_tolerances(tolerances)
    if metrics is None:
        metrics = default_metrics()
    metrics = list(metrics)
    if not metrics:
        raise ValueError("metric list is empty; configure at least one norm")

    rows: list[CheckRow] = []
    for F in metrics:
        packs = random_param_sets(F, plan)
        rows += check_theorem(packs, F, plan, tols, fuzz).rows
        rows += check_construction(packs[0], F, plan, tols, fuzz).rows
        rows += check_torsions(packs[0], F, plan, tols, fuzz).rows
        rows += check_curvatures(packs[0], F, plan, tols, fuzz).rows
        rows += check_bianchi(packs[0], F, plan, tols, fuzz).rows
        rows += check_processes(packs[0], F, plan, tols, fuzz).rows
        rows += check_cases(F, plan, tols, fuzz).rows
        rows += fd_crosscheck(F, plan, tols, fuzz).rows
    rows += check_constant_curvature(plan, tols, fuzz).rows

    meta = {
        "seed": plan.seed,
        "metrics": [F.name for F in metrics],
        "plan": plan.to_dict(),
        "tolerances": tols,
        "fuzz": fuzz,
    }
    return CheckReport("all", rows, meta)
