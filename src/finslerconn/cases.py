"""Registry of classical connection types recovered from the six parameters.

Constraining the deformation parameters reproduces a catalog of familiar
special connections (quarter-symmetric, semi-symmetric, recurrent,
non-metric, ...), each of which comes with a closed-form expression for the
difference tensor between the deformed and the metric connection.  This
module pins all twenty-six members of that catalog:

* :data:`CATALOG` maps a case id to its constraints, the free choices the
  user must still supply, and the closed-form difference tensor transcribed
  term by term from its traditional printed display.
* :func:`preset` binds the constraints on a chart dimension and returns
  ready :class:`~finslerconn.deformation.DeformationParams`.  Constraints
  that refer to the metric ("phi g-symmetric", "phi = metric Ricci
  endomorphism", "u = Hilbert form") are fields that read it from the tower
  they are evaluated on, so one pack serves every structure of that
  dimension.
* :func:`check_case` builds the deformation and compares its difference
  tensor against the closed form at given points.  On the points of one
  batch the first call compares every entry at once: one deformation over
  all the catalog packs, their values side by side along the point axis,
  kept in the batch's memo as rows that each later call slices.  A run
  builds the packs once per chart dimension (:class:`CasePacks`), and its
  case suites lend them to their batch before the first call.
  The workspace holds every value with the point axis in front, and the
  closed forms index with ``...`` in front, so the same arithmetic serves
  one point, a batch, or one pack's slice of the catalog.  The verdict
  against the configured tolerance is
  :func:`finslerconn.verify.check_cases`'s.

Four entries (ids 11-14) carry a ``printed`` closed form besides the
regenerated one, which flags them ``typo``: their traditional displays
put the wrong one-form in the vertical-curvature slot (the one-form of the
weight that the case constraints switch off, so the printed term silently
vanishes).  For those, :func:`check_case` asserts the regenerated form and
reports the literal form's residual alongside, so the discrepancy stays
visible without failing the catalog.  The discrepancy is only observable
where the vertical curvature is nonzero; in dimension two the Cartan tensor
has rank one and the vertical curvature collapses, which is why the sample
collection includes a three-dimensional quartic norm.

Entry 3 is flagged ``convention``: its weight is the metric Ricci
endomorphism, so the numbers depend on the curvature sign convention fixed
in :mod:`finslerconn.connection`; it also has no printed display of its own
(``has_display`` is false) and is checked against the general formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .ad import Constant, Field, Series, lower_to
from .connection import RicciEndomorphism
from .deformation import (
    DeformationData,
    DeformationParams,
    MetricSplitPart,
    _tape,
    bump,
    parameter_field,
    parameter_values,
    relative_residual,
    worst_residual,
)
from .expr import ExprCovectorField, ExprMatrixField, ExprScalarField, Tape
from .finsler import POINT_ERRORS, ChartPoint, FinslerStructure, HilbertFormField, Tower, _Batch

__all__ = [
    "CaseError",
    "CasePreset",
    "MetricSplitPart",
    "CasePacks",
    "CATALOG",
    "preset",
    "default_free_choices",
    "closed_form_delta",
    "check_case",
    "catalog",
]


class CaseError(ValueError):
    """Raised for unknown case ids or incomplete/misnamed free choices."""


# ---------------------------------------------------------------------------
# point workspace: every value the closed forms consume, as plain arrays
# ---------------------------------------------------------------------------


_WORKSPACE_ORDER, _WORKSPACE_READ = (4, 0), (0, 0)
"""The (order, xorder) of a case's tower, and the ring its deformation
data is read in (:class:`~finslerconn.deformation.DeformationData`)."""


class _Workspace:
    """Values of the tower and deformation data at every point of a batch.

    The closed forms below are pure index gymnastics on these arrays, laid
    out ``[i, j, k]`` with ``i`` the output component, ``j`` the frame index
    of the first slot and ``k`` contracting the second-slot vector.  Every
    array carries the point axis in front of that layout and each scalar is
    a ``(points, 1, 1, 1)`` array, so a closed form written with ``...`` in
    front of every index computes each point's tensor with the bits of the
    point alone.
    """

    def __init__(self, params: DeformationParams, F: FinslerStructure, where):
        """``where`` is a chart point (read on its tower), a tower (read on
        its lift, the point alone as a batch) or a batch.  The data is
        built here, read once and copied out, so not memoized: each call
        has its own pack."""
        src = F.tower(where, _WORKSPACE_ORDER) if isinstance(where, ChartPoint) else where
        src = src.lift if isinstance(src, Tower) else src
        self._read(DeformationData(params, src, _WORKSPACE_READ), src)

    @classmethod
    def of(cls, d: DeformationData, src) -> "_Workspace":
        """The workspace of the data ``d`` on ``src``, its batch or repeated
        batch (:class:`_Repeated`)."""
        ws = cls.__new__(cls)
        ws._read(d, src)
        return ws

    def _read(self, d: DeformationData, src) -> None:
        scalar = lambda s: s.val[..., None, None, None]
        self.y = np.array([p.y for p in src.points])
        self.n = self.y.shape[-1]
        self.g = src.g.val
        self.Tm = src.T_mix.val
        self.Tl = src.T_low.val
        self.ell = src.ell.val
        self.L = scalar(src.L)
        self.L2 = scalar(src.L2)
        self.eye = np.eye(self.n)
        self.f1 = scalar(d.f1)
        self.f2 = scalar(d.f2)
        self.A = d.A.val
        self.B = d.B.val
        self.u = d.u.val
        self.avec = d.avec.val
        self.bvec = d.bvec.val
        self.uvec = d.uvec.val
        self.u_eta = scalar(d.u_eta)
        self.phi1 = d.phi1.val
        self.phi2 = d.phi2.val
        self.gphi1 = d.gphi1.val
        self.phi1_eta = d.phi1_eta.val
        self.phi2_eta = d.phi2_eta.val
        self.w = d.w.val
        self.ell_phi1 = d.ell_phi1.val
        self.ell_phi1_eta = scalar(d.ell_phi1_eta)
        self.S = d.S.val
        self.difference = d.difference.val

    def part(self, points: slice) -> "_Workspace":
        """The workspace of the points ``points`` of a batch: views of its arrays."""
        part = _Workspace.__new__(_Workspace)
        for name, value in vars(self).items():
            setattr(part, name, value if name in ("n", "eye") else value[points])
        return part

    # -- contractions of the Cartan tensor and vertical curvature ---------

    def tv(self, v: np.ndarray) -> np.ndarray:
        """``T(v, e_j)^i`` as an [i, j] array."""
        return np.einsum("...ipj,...p->...ij", self.Tm, v)

    def tl3(self, v: np.ndarray) -> np.ndarray:
        """Totally lowered ``T(v, e_j, e_k)`` as a [j, k] array."""
        return np.einsum("...pjk,...p->...jk", self.Tl, v)

    def s_second(self, v: np.ndarray) -> np.ndarray:
        """``S(e_j, v)Y`` as an [i, j, k] array (v in the second slot)."""
        return np.einsum("...ikjb,...b->...ijk", self.S, v)

    def s_first(self, v: np.ndarray) -> np.ndarray:
        """``S(v, e_j)Y``; the vertical curvature is slot-antisymmetric."""
        return -self.s_second(v)

    def tt_outer(self, c: np.ndarray) -> np.ndarray:
        """``T(T(e_j, Y), c)`` as an [i, j, k] array."""
        return np.einsum("...ipq,...pjk,...q->...ijk", self.Tm, self.Tm, c)

    def tt_inner(self, c: np.ndarray) -> np.ndarray:
        """``T(T(c, Y), e_j)`` as an [i, j, k] array."""
        return np.einsum("...ipj,...pqk,...q->...ijk", self.Tm, self.Tm, c)

    def tm1(self) -> np.ndarray:
        """``T(phi1 Y, e_j)`` as an [i, j, k] array."""
        return np.einsum("...ipj,...pk->...ijk", self.Tm, self.phi1)

    def mt1(self) -> np.ndarray:
        """``phi1(T(e_j, Y))`` as an [i, j, k] array."""
        return np.einsum("...ip,...pjk->...ijk", self.phi1, self.Tm)


# ---------------------------------------------------------------------------
# shared formula blocks
# ---------------------------------------------------------------------------


def _a_block(ws: _Workspace, cov: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """First-weight block: g(.,Y)v - cov(.)Y - cov(Y). - L l(Y)T(v,.)
    + T(v,.,Y) eta + L^2 S(., v)Y."""
    return (
        vec[..., :, None, None] * ws.g[..., None, :, :]
        - cov[..., None, :, None] * ws.eye[..., :, None, :]
        - cov[..., None, None, :] * ws.eye[..., :, :, None]
        - ws.L * ws.tv(vec)[..., :, :, None] * ws.ell[..., None, None, :]
        + ws.y[..., :, None, None] * ws.tl3(vec)[..., None, :, :]
        + ws.L2 * ws.s_second(vec)
    )


def _a_block_exp(ws: _Workspace, cov: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Same block with the vertical-curvature term written out through the
    quadratic identity S(., v)Y = T(T(v,Y),.) - T(T(.,Y),v), matching the
    displays that print it that way."""
    return (
        vec[..., :, None, None] * ws.g[..., None, :, :]
        - cov[..., None, :, None] * ws.eye[..., :, None, :]
        - cov[..., None, None, :] * ws.eye[..., :, :, None]
        - ws.L * ws.tv(vec)[..., :, :, None] * ws.ell[..., None, None, :]
        + ws.y[..., :, None, None] * ws.tl3(vec)[..., None, :, :]
        + ws.L2 * (ws.tt_inner(vec) - ws.tt_outer(vec))
    )


def _b_block(
    ws: _Workspace, vec: np.ndarray, s_vec: np.ndarray | None = None
) -> np.ndarray:
    """Second-weight block: g(.,Y)v - L l(Y)T(v,.) + T(v,.,Y) eta
    + L^2 S(., s)Y, with the curvature slot defaulting to v itself.

    The ``s_vec`` override exists purely so the literal typo displays (which
    put the switched-off first weight there) can be evaluated as printed.
    """
    sv = vec if s_vec is None else s_vec
    return (
        vec[..., :, None, None] * ws.g[..., None, :, :]
        - ws.L * ws.tv(vec)[..., :, :, None] * ws.ell[..., None, None, :]
        + ws.y[..., :, None, None] * ws.tl3(vec)[..., None, :, :]
        + ws.L2 * ws.s_second(sv)
    )


def _b_block_exp(ws: _Workspace, vec: np.ndarray) -> np.ndarray:
    """Second-weight block with the expanded quadratic curvature term."""
    return (
        vec[..., :, None, None] * ws.g[..., None, :, :]
        - ws.L * ws.tv(vec)[..., :, :, None] * ws.ell[..., None, None, :]
        + ws.y[..., :, None, None] * ws.tl3(vec)[..., None, :, :]
        + ws.L2 * (ws.tt_inner(vec) - ws.tt_outer(vec))
    )


def _phi_tail_full(ws: _Workspace) -> np.ndarray:
    """The torsion-weight terms with a general endomorphism."""
    uv = ws.uvec
    out = -(ws.gphi1 + ws.tl3(ws.phi2_eta))[..., None, :, :] * uv[..., :, None, None]
    out -= ws.u[..., None, :, None] * ws.phi2[..., :, None, :]
    out += ws.L * ws.tv(uv)[..., :, :, None] * ws.ell_phi1[..., None, None, :]
    out -= ws.u_eta * (ws.s_first(ws.w) + ws.tm1() - ws.mt1())
    out += (ws.tv(ws.phi2_eta) + ws.phi1)[..., :, :, None] * ws.u[..., None, None, :]
    out += ws.L * ws.ell_phi1_eta * ws.s_first(uv)
    out -= ws.tl3(uv)[..., None, :, :] * ws.phi1_eta[..., :, None, None]
    return out


def _phi_tail_sym(ws: _Workspace) -> np.ndarray:
    """The torsion-weight terms when the weight is g-symmetric."""
    uv = ws.uvec
    out = -ws.gphi1[..., None, :, :] * uv[..., :, None, None]
    out += ws.L * ws.tv(uv)[..., :, :, None] * ws.ell_phi1[..., None, None, :]
    out -= ws.u_eta * (ws.s_first(ws.phi1_eta) + ws.tm1() - ws.mt1())
    out += ws.phi1[..., :, :, None] * ws.u[..., None, None, :]
    out += ws.L * ws.ell_phi1_eta * ws.s_first(uv)
    out -= ws.tl3(uv)[..., None, :, :] * ws.phi1_eta[..., :, None, None]
    return out


def _phi_tail_antisym(ws: _Workspace) -> np.ndarray:
    """The torsion-weight terms when the weight is g-antisymmetric."""
    uv = ws.uvec
    out = -ws.tl3(ws.phi2_eta)[..., None, :, :] * uv[..., :, None, None]
    out -= ws.u[..., None, :, None] * ws.phi2[..., :, None, :]
    out += ws.tv(ws.phi2_eta)[..., :, :, None] * ws.u[..., None, None, :]
    out += ws.u_eta * ws.s_first(ws.phi2_eta)
    return out


def _id_tail(ws: _Workspace) -> np.ndarray:
    """The torsion-weight terms when the weight is the identity."""
    uv = ws.uvec
    out = -uv[..., :, None, None] * ws.g[..., None, :, :]
    out += ws.eye[..., :, :, None] * ws.u[..., None, None, :]
    out += ws.L * ws.tv(uv)[..., :, :, None] * ws.ell[..., None, None, :]
    out += ws.L2 * (ws.tt_outer(uv) - ws.tt_inner(uv))
    out -= ws.y[..., :, None, None] * ws.tl3(uv)[..., None, :, :]
    return out


# ---------------------------------------------------------------------------
# the twenty-six closed forms
# ---------------------------------------------------------------------------


def _delta_1(ws: _Workspace) -> np.ndarray:
    av = ws.avec
    out = -ws.f1 * (
        ws.A[..., None, :, None] * ws.eye[..., :, None, :]
        + ws.A[..., None, None, :] * ws.eye[..., :, :, None]
    )
    out += av[..., :, None, None] * ws.g[..., None, :, :]
    out -= ws.L * ws.tv(av)[..., :, :, None] * ws.ell[..., None, None, :]
    out += ws.L2 * ws.s_second(av)
    out += ws.y[..., :, None, None] * ws.tl3(av)[..., None, :, :]
    return out + _phi_tail_full(ws)


def _delta_2(ws: _Workspace) -> np.ndarray:
    return _phi_tail_full(ws)


def _delta_4(ws: _Workspace) -> np.ndarray:
    return _phi_tail_sym(ws)


def _delta_5(ws: _Workspace) -> np.ndarray:
    return _phi_tail_antisym(ws)


def _delta_6(ws: _Workspace) -> np.ndarray:
    return 0.5 * _a_block(ws, ws.A, ws.avec) + _phi_tail_full(ws)


def _delta_7(ws: _Workspace) -> np.ndarray:
    return ws.f1 * _a_block(ws, ws.A, ws.avec) + _phi_tail_sym(ws)


def _delta_8(ws: _Workspace) -> np.ndarray:
    # Printed with the metric and weight g-terms merged: g(. - phi1(.), Y)u.
    uv = ws.uvec
    out = (ws.g - ws.gphi1)[..., None, :, :] * uv[..., :, None, None]
    out -= ws.u[..., None, :, None] * ws.eye[..., :, None, :]
    out -= ws.u[..., None, None, :] * ws.eye[..., :, :, None]
    out -= ws.L * ws.tv(uv)[..., :, :, None] * ws.ell[..., None, None, :]
    out += ws.y[..., :, None, None] * ws.tl3(uv)[..., None, :, :]
    out += ws.L2 * ws.s_second(uv)
    out += ws.L * ws.tv(uv)[..., :, :, None] * ws.ell_phi1[..., None, None, :]
    out -= ws.u_eta * (ws.s_first(ws.phi1_eta) + ws.tm1() - ws.mt1())
    out += ws.phi1[..., :, :, None] * ws.u[..., None, None, :]
    out += ws.L * ws.ell_phi1_eta * ws.s_first(uv)
    out -= ws.tl3(uv)[..., None, :, :] * ws.phi1_eta[..., :, None, None]
    return out


def _delta_9(ws: _Workspace) -> np.ndarray:
    return ws.f1 * _a_block(ws, ws.A, ws.avec) + _phi_tail_antisym(ws)


def _delta_10(ws: _Workspace) -> np.ndarray:
    return _a_block(ws, ws.u, ws.uvec) + _phi_tail_antisym(ws)


def _delta_11(ws: _Workspace) -> np.ndarray:
    return -ws.f2 * _b_block(ws, ws.bvec) + _phi_tail_sym(ws)


def _delta_12(ws: _Workspace) -> np.ndarray:
    return -ws.f2 * _b_block(ws, ws.uvec) + _phi_tail_sym(ws)


def _delta_13(ws: _Workspace) -> np.ndarray:
    return -ws.f2 * _b_block(ws, ws.bvec) + _phi_tail_antisym(ws)


def _delta_14(ws: _Workspace) -> np.ndarray:
    return -ws.f2 * _b_block(ws, ws.uvec) + _phi_tail_antisym(ws)


def _delta_15(ws: _Workspace) -> np.ndarray:
    return _id_tail(ws)


def _delta_16(ws: _Workspace) -> np.ndarray:
    return (
        -(1.0 / ws.L) * ws.y[..., :, None, None] * ws.g[..., None, :, :]
        + ws.eye[..., :, :, None] * ws.ell[..., None, None, :]
    )


def _delta_17(ws: _Workspace) -> np.ndarray:
    return ws.f1 * _a_block_exp(ws, ws.A, ws.avec) + _id_tail(ws)


def _delta_18(ws: _Workspace) -> np.ndarray:
    return 0.5 * _a_block_exp(ws, ws.A, ws.avec) + _id_tail(ws)


def _delta_19(ws: _Workspace) -> np.ndarray:
    return -0.5 * (
        (1.0 / ws.L) * ws.y[..., :, None, None] * ws.g[..., None, :, :]
        + ws.ell[..., None, :, None] * ws.eye[..., :, None, :]
        - ws.ell[..., None, None, :] * ws.eye[..., :, :, None]
    )


def _delta_20(ws: _Workspace) -> np.ndarray:
    return -ws.f2 * _b_block_exp(ws, ws.bvec) + _id_tail(ws)


def _delta_21(ws: _Workspace) -> np.ndarray:
    return _b_block_exp(ws, ws.bvec) + _id_tail(ws)


def _delta_22(ws: _Workspace) -> np.ndarray:
    return ws.eye[..., :, :, None] * ws.u[..., None, None, :]


def _delta_23(ws: _Workspace) -> np.ndarray:
    return ws.f1 * _a_block(ws, ws.A, ws.avec) - ws.f2 * _b_block(ws, ws.bvec)


def _delta_24(ws: _Workspace) -> np.ndarray:
    return 0.5 * _a_block(ws, ws.A, ws.avec)


def _delta_25(ws: _Workspace) -> np.ndarray:
    return (
        ws.A[..., None, :, None] * ws.eye[..., :, None, :]
        + ws.A[..., None, None, :] * ws.eye[..., :, :, None]
    )


def _delta_26(ws: _Workspace) -> np.ndarray:
    return 0.5 * (
        (1.0 / ws.L) * ws.y[..., :, None, None] * ws.g[..., None, :, :]
        - ws.ell[..., None, :, None] * ws.eye[..., :, None, :]
        - ws.ell[..., None, None, :] * ws.eye[..., :, :, None]
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _assemble(n: int, case_id: int, **fields) -> DeformationParams:
    """The zero pack on ``n`` dimensions named after the case, with ``fields`` filled in."""
    coerced = {slot: parameter_field(slot, value, n) for slot, value in fields.items()}
    return replace(DeformationParams.zero(n, f"case-{case_id}"), **coerced)


def _sym(phi: Field) -> MetricSplitPart:
    return MetricSplitPart(phi, "symmetric")


def _antisym(phi: Field) -> MetricSplitPart:
    return MetricSplitPart(phi, "antisymmetric")


@dataclass(frozen=True)
class CasePreset:
    """One catalog entry: constraints, free choices, and its closed form."""

    id: int
    title: str
    constraints: str
    free: tuple[str, ...]
    convention: bool = False
    has_display: bool = True
    build: Callable[[int, dict], DeformationParams] = field(default=None, repr=False)
    delta: Callable[[_Workspace], np.ndarray] = field(default=None, repr=False)
    printed: Callable[[_Workspace], np.ndarray] | None = field(default=None, repr=False)

    @property
    def typo(self) -> bool:
        """Whether the printed display (``printed``) differs from ``delta``."""
        return self.printed is not None


_PRESETS: list[CasePreset] = [
    CasePreset(
        1,
        "generalized quarter-symmetric recurrent metric",
        "A = B; f1 = 1 - t; f2 = -t",
        ("t", "A", "u", "phi"),
        build=lambda n, c: _assemble(
            n, 1, f1=1.0 - c["t"], f2=-c["t"], A=c["A"], B=c["A"], u=c["u"],
            phi=c["phi"],
        ),
        delta=_delta_1,
    ),
    CasePreset(
        2,
        "quarter-symmetric metric",
        "f1 = 0; f2 = 0",
        ("u", "phi"),
        build=lambda n, c: _assemble(n, 2, u=c["u"], phi=c["phi"]),
        delta=_delta_2,
    ),
    CasePreset(
        3,
        "Ricci quarter-symmetric metric",
        "f1 = 0; f2 = 0; phi = metric Ricci endomorphism",
        ("u",),
        convention=True,
        has_display=False,
        build=lambda n, c: _assemble(n, 3, u=c["u"], phi=RicciEndomorphism()),
        delta=_delta_2,
    ),
    CasePreset(
        4,
        "quarter-symmetric metric, symmetric weight",
        "f1 = 0; f2 = 0; phi g-symmetric",
        ("u", "phi"),
        build=lambda n, c: _assemble(n, 4, u=c["u"], phi=_sym(c["phi"])),
        delta=_delta_4,
    ),
    CasePreset(
        5,
        "quarter-symmetric metric, antisymmetric weight",
        "f1 = 0; f2 = 0; phi g-antisymmetric",
        ("u", "phi"),
        build=lambda n, c: _assemble(n, 5, u=c["u"], phi=_antisym(c["phi"])),
        delta=_delta_5,
    ),
    CasePreset(
        6,
        "quarter-symmetric h-recurrent",
        "f1 = 1/2; f2 = 0",
        ("A", "u", "phi"),
        build=lambda n, c: _assemble(n, 6, f1=0.5, A=c["A"], u=c["u"], phi=c["phi"]),
        delta=_delta_6,
    ),
    CasePreset(
        7,
        "quarter-symmetric recurrent, symmetric weight",
        "f2 = 0; phi g-symmetric",
        ("f1", "A", "u", "phi"),
        build=lambda n, c: _assemble(n, 7, f1=c["f1"], A=c["A"], u=c["u"], phi=_sym(c["phi"])),
        delta=_delta_7,
    ),
    CasePreset(
        8,
        "quarter-symmetric drift-recurrent, symmetric weight",
        "f1 = 1; f2 = 0; A = u; phi g-symmetric",
        ("u", "phi"),
        build=lambda n, c: _assemble(n, 8, f1=1.0, A=c["u"], u=c["u"], phi=_sym(c["phi"])),
        delta=_delta_8,
    ),
    CasePreset(
        9,
        "quarter-symmetric recurrent, antisymmetric weight",
        "f2 = 0; phi g-antisymmetric",
        ("f1", "A", "u", "phi"),
        build=lambda n, c: _assemble(n, 9, f1=c["f1"], A=c["A"], u=c["u"], phi=_antisym(c["phi"])),
        delta=_delta_9,
    ),
    CasePreset(
        10,
        "quarter-symmetric drift-recurrent, antisymmetric weight",
        "f1 = 1; f2 = 0; A = u; phi g-antisymmetric",
        ("u", "phi"),
        build=lambda n, c: _assemble(n, 10, f1=1.0, A=c["u"], u=c["u"], phi=_antisym(c["phi"])),
        delta=_delta_10,
    ),
    CasePreset(
        11,
        "quarter-symmetric non-metric, second weight, symmetric part",
        "f1 = 0; phi g-symmetric",
        ("f2", "B", "u", "phi"),
        build=lambda n, c: _assemble(n, 11, f2=c["f2"], B=c["B"], u=c["u"], phi=_sym(c["phi"])),
        delta=_delta_11,
        printed=lambda ws: -ws.f2 * _b_block(ws, ws.bvec, s_vec=ws.avec) + _phi_tail_sym(ws),
    ),
    CasePreset(
        12,
        "quarter-symmetric non-metric, drift second weight, symmetric part",
        "f1 = 0; B = u; phi g-symmetric",
        ("f2", "u", "phi"),
        build=lambda n, c: _assemble(n, 12, f2=c["f2"], B=c["u"], u=c["u"], phi=_sym(c["phi"])),
        delta=_delta_12,
        printed=lambda ws: -ws.f2 * _b_block(ws, ws.uvec, s_vec=ws.avec) + _phi_tail_sym(ws),
    ),
    CasePreset(
        13,
        "quarter-symmetric non-metric, second weight, antisymmetric part",
        "f1 = 0; phi g-antisymmetric",
        ("f2", "B", "u", "phi"),
        build=lambda n, c: _assemble(
            n, 13, f2=c["f2"], B=c["B"], u=c["u"], phi=_antisym(c["phi"])
        ),
        delta=_delta_13,
        printed=lambda ws: -ws.f2 * _b_block(ws, ws.bvec, s_vec=ws.avec) + _phi_tail_antisym(ws),
    ),
    CasePreset(
        14,
        "quarter-symmetric non-metric, drift second weight, antisymmetric part",
        "f1 = 0; B = u; phi g-antisymmetric",
        ("f2", "u", "phi"),
        build=lambda n, c: _assemble(
            n, 14, f2=c["f2"], B=c["u"], u=c["u"], phi=_antisym(c["phi"])
        ),
        delta=_delta_14,
        printed=lambda ws: -ws.f2 * _b_block(ws, ws.uvec, s_vec=ws.avec) + _phi_tail_antisym(ws),
    ),
    CasePreset(
        15,
        "semi-symmetric metric",
        "f1 = 0; f2 = 0; phi = identity",
        ("u",),
        build=lambda n, c: _assemble(n, 15, u=c["u"], phi=Constant(np.eye(n))),
        delta=_delta_15,
    ),
    CasePreset(
        16,
        "semi-symmetric metric, Hilbert-form drift",
        "f1 = 0; f2 = 0; u = Hilbert form; phi = identity",
        (),
        build=lambda n, c: _assemble(n, 16, u=HilbertFormField(), phi=Constant(np.eye(n))),
        delta=_delta_16,
    ),
    CasePreset(
        17,
        "semi-symmetric recurrent",
        "f2 = 0; phi = identity",
        ("f1", "A", "u"),
        build=lambda n, c: _assemble(
            n, 17, f1=c["f1"], A=c["A"], u=c["u"], phi=Constant(np.eye(n))
        ),
        delta=_delta_17,
    ),
    CasePreset(
        18,
        "semi-symmetric recurrent, half weight",
        "f1 = 1/2; f2 = 0; phi = identity",
        ("A", "u"),
        build=lambda n, c: _assemble(n, 18, f1=0.5, A=c["A"], u=c["u"], phi=Constant(np.eye(n))),
        delta=_delta_18,
    ),
    CasePreset(
        19,
        "special semi-symmetric h-recurrent",
        "f1 = 1/2; f2 = 0; A = u = Hilbert form; phi = identity",
        (),
        build=lambda n, c: _assemble(
            n,
            19,
            f1=0.5,
            A=HilbertFormField(),
            u=HilbertFormField(),
            phi=Constant(np.eye(n)),
        ),
        delta=_delta_19,
    ),
    CasePreset(
        20,
        "semi-symmetric non-metric, second weight",
        "f1 = 0; phi = identity",
        ("f2", "B", "u"),
        build=lambda n, c: _assemble(
            n, 20, f2=c["f2"], B=c["B"], u=c["u"], phi=Constant(np.eye(n))
        ),
        delta=_delta_20,
    ),
    CasePreset(
        21,
        "semi-symmetric non-metric, unit second weight",
        "f1 = 0; f2 = -1; phi = identity",
        ("B", "u"),
        build=lambda n, c: _assemble(n, 21, f2=-1.0, B=c["B"], u=c["u"], phi=Constant(np.eye(n))),
        delta=_delta_21,
    ),
    CasePreset(
        22,
        "semi-symmetric non-metric, drift only",
        "f1 = 0; f2 = -1; B = u; phi = identity",
        ("u",),
        build=lambda n, c: _assemble(n, 22, f2=-1.0, B=c["u"], u=c["u"], phi=Constant(np.eye(n))),
        delta=_delta_22,
    ),
    CasePreset(
        23,
        "symmetric non-metric",
        "u = 0",
        ("f1", "f2", "A", "B"),
        build=lambda n, c: _assemble(n, 23, f1=c["f1"], f2=c["f2"], A=c["A"], B=c["B"]),
        delta=_delta_23,
    ),
    CasePreset(
        24,
        "symmetric recurrent, Weyl type",
        "f1 = 1/2; f2 = 0; u = 0",
        ("A",),
        build=lambda n, c: _assemble(n, 24, f1=0.5, A=c["A"]),
        delta=_delta_24,
    ),
    CasePreset(
        25,
        "symmetric, dual weights",
        "f1 = -1; f2 = -1; A = B; u = 0",
        ("A",),
        build=lambda n, c: _assemble(n, 25, f1=-1.0, f2=-1.0, A=c["A"], B=c["A"]),
        delta=_delta_25,
    ),
    CasePreset(
        26,
        "special symmetric h-recurrent",
        "f1 = 1/2; f2 = 0; A = Hilbert form; u = 0",
        (),
        build=lambda n, c: _assemble(n, 26, f1=0.5, A=HilbertFormField()),
        delta=_delta_26,
    ),
]

CATALOG: dict[int, CasePreset] = {p.id: p for p in _PRESETS}


def _require(case_id: int) -> CasePreset:
    try:
        return CATALOG[int(case_id)]
    except (KeyError, TypeError, ValueError):
        raise CaseError(f"unknown case id {case_id!r}; valid ids are 1..26") from None


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def preset(case_id: int, F: FinslerStructure, **free) -> DeformationParams:
    """Parameters satisfying a catalog entry's constraints on ``F``'s chart.

    The pack keeps no reference to ``F``: constraints on the metric read it
    from the tower the pack is evaluated on.  Free choices not fixed by the
    constraints must be passed by keyword (see ``CATALOG[case_id].free``);
    scalars accept numbers, expression strings or fields, one-forms accept
    component tuples or fields, and endomorphisms accept row grids or fields.
    """
    spec = _require(case_id)
    missing = [k for k in spec.free if k not in free]
    if missing:
        raise CaseError(
            f"case {spec.id} needs free choices for: {', '.join(missing)}"
        )
    extra = sorted(set(free) - set(spec.free))
    if extra:
        allowed = ", ".join(spec.free) if spec.free else "none"
        raise CaseError(
            f"case {spec.id} does not take {', '.join(extra)}; "
            f"free choices are: {allowed}"
        )
    coerced = {
        key: _weight(spec.id, value) if key == "t" else parameter_field(key, value, F.n)
        for key, value in free.items()
    }
    return spec.build(F.n, coerced)


def _weight(case_id: int, value) -> float:
    """The free number ``t`` of a case, refused unless it is a finite float."""
    try:
        t = float(value)
    except (TypeError, ValueError):
        raise CaseError(f"case {case_id} t: {value!r} is not a number") from None
    if not math.isfinite(t):
        raise CaseError(f"case {case_id} t: must be finite, got {value!r}")
    return t


def default_free_choices(case_id: int, F: FinslerStructure, seed: int = 0) -> dict:
    """Deterministic, mildly position/direction-dependent free choices.

    Scalar weights are bounded away from zero on the sampling box so that
    no case accidentally degenerates into a smaller one.
    """
    spec = _require(case_id)
    n = F.n
    rng = np.random.default_rng(10_000 + 97 * spec.id + seed)

    def coeff(lo: float = -0.3, hi: float = 0.3) -> float:
        return float(np.round(rng.uniform(lo, hi), 3))

    def var() -> str:
        i = int(rng.integers(1, n + 1))
        return f"x{i}" if int(rng.integers(2)) else f"y{i}"

    def form() -> ExprCovectorField:
        return ExprCovectorField(
            n, tuple(f"{coeff()} + {coeff(-0.15, 0.15)}*{var()}" for _ in range(n))
        )

    def matrix() -> ExprMatrixField:
        rows = tuple(
            tuple(
                f"{1.0 + coeff(-0.2, 0.2)} + {coeff(-0.1, 0.1)}*{var()}"
                if i == j
                else f"{coeff(-0.25, 0.25)} + {coeff(-0.1, 0.1)}*{var()}"
                for j in range(n)
            )
            for i in range(n)
        )
        return ExprMatrixField(n, rows)

    out: dict = {}
    for key in spec.free:
        if key == "t":
            out[key] = float(np.round(rng.uniform(0.2, 0.8), 3))
        elif key in ("f1", "f2"):
            out[key] = ExprScalarField(
                n, f"{coeff(0.3, 0.7)} + {coeff(-0.1, 0.1)}*{var()}"
            )
        elif key in ("A", "B", "u"):
            out[key] = form()
        elif key == "phi":
            out[key] = matrix()
    return out


def closed_form_delta(
    case_id: int, params: DeformationParams, F: FinslerStructure, point: ChartPoint
) -> np.ndarray:
    """The catalog's closed-form difference tensor ``[i, j, k]`` at a point."""
    return _require(case_id).delta(_Workspace(params, F, point))[0]


def _compare(spec: CasePreset, ws: _Workspace, perturbation: float) -> dict:
    """The residual of the built difference tensor against ``spec``'s closed
    form on a workspace, per point, and the literal printed form's as
    ``literal`` when it is evaluated (see :func:`check_case`)."""
    built = bump(ws.difference, perturbation)
    target = spec.delta(ws)
    rows = {"residual": relative_residual(built - target, built, target)}
    if spec.typo and not perturbation:
        printed = spec.printed(ws)
        rows["literal"] = relative_residual(built - printed, built, printed)
    return rows


def _pack(spec: CasePreset, F: FinslerStructure, seed: int) -> DeformationParams:
    """The catalog pack of ``spec`` on ``F`` with the default free choices of ``seed``."""
    return preset(spec.id, F, **default_free_choices(spec.id, F, seed))


class CasePacks:
    """Every catalog pack on ``F``'s chart dimension with the default free
    choices of ``seed``, by id, and the one tape over their expression
    fields (:func:`~finslerconn.deformation._tape`), both built on first use.

    A pack keeps no reference to ``F``, so these serve every structure of
    that dimension: :func:`finslerconn.verify.run_all` holds one per
    dimension for its run, so the catalog's texts are parsed and its tape
    compiled once per run, in the first case suite that compares with them
    (:func:`_lend`, :func:`_catalog`).
    """

    def __init__(self, F: FinslerStructure, seed: int):
        self.n, self.seed, self._F = F.n, seed, F

    @cached_property
    def packs(self) -> dict[int, DeformationParams]:
        return {spec.id: _pack(spec, self._F, self.seed) for spec in _PRESETS}

    @cached_property
    def tape(self) -> Tape | None:
        return _tape(list(self.packs.values()))


class _Repeated:
    """The stages of a batch cut to a read ring, repeated ``times`` along
    the point axis: the tower stages of a data whose values are several
    packs' values on the batch side by side.  Each stage is cut and
    repeated on first read."""

    def __init__(self, batch: _Batch, times: int, read: tuple[int, int]):
        self._batch, self._times, self._read = batch, times, read
        self.points = batch.points * times

    def __getattr__(self, name: str) -> Series:
        if name.startswith("_"):  # no private or special name is a stage
            raise AttributeError(name)
        stage = lower_to(self._read, getattr(self._batch, name))[0]
        value = Series(stage.ring, np.concatenate([stage.coef] * self._times))
        setattr(self, name, value)
        return value


def _lend(F: FinslerStructure, towers: list[Tower], seed: int, packs: CasePacks) -> None:
    """Let the catalog over the batch of ``towers`` (:func:`_catalog`)
    compare with ``packs``, the catalog's packs on ``F``'s dimension for
    ``seed`` that a run holds, rather than build its own."""
    if (packs.n, packs.seed) != (F.n, seed):
        raise ValueError(
            f"case packs of dimension {packs.n} and seed {packs.seed} given for {F.n} and {seed}"
        )
    towers[0]._batch.memo((seed, "case-packs"), lambda: packs)


def _catalog(F: FinslerStructure, batch: _Batch, seed: int, perturbation: float) -> dict:
    """The rows of every catalog entry over ``batch`` (:func:`_catalog_rows`),
    kept in its memo under ``(seed, perturbation, "catalog-rows")``, with
    the packs it holds under ``(seed, "case-packs")``: a run's
    (:func:`_lend`), or its own, built here."""
    packs = batch.memo((seed, "case-packs"), lambda: CasePacks(F, seed))
    make = lambda: _catalog_rows(F, batch, seed, perturbation, packs)
    return batch.memo((seed, perturbation, "catalog-rows"), make)


def _catalog_rows(
    F: FinslerStructure, batch: _Batch, seed: int, perturbation: float,
    packs: CasePacks | None = None,
) -> dict:
    """Every catalog entry's rows over a batch of more than one point, by id:
    the rows of :func:`_compare` on the batch, bit for bit, but for the
    entries whose pack raises a point's error there, which are left out
    (:func:`check_case` compares them alone).  ``packs`` are the catalog's
    packs on ``F``'s dimension for ``seed``, built here when None.

    Every pack's values are evaluated on the batch in one call, side by
    side along the point axis (:func:`~finslerconn.deformation.parameter_values`),
    leaving out the packs that raise alone; the construction stages run
    once over all of them on the batch's stages repeated once per pack
    (:class:`_Repeated`).  The read ring has one coefficient, so every
    product is elementwise and each point of each pack gets the bits of
    its pack on the batch.  Each closed form runs on its pack's slice.
    ``g``, which every pack reads, is read first, so a batch where it
    raises raises before any pack computes it again.
    """
    packs = CasePacks(F, seed) if packs is None else packs
    batch.g  # raises here, once, where it raises at a point

    def evaluate(specs):
        some = [packs.packs[spec.id] for spec in specs]
        tape = packs.tape if len(specs) == len(_PRESETS) else None  # a subset compiles its own
        return parameter_values(some, batch, _WORKSPACE_READ, tape=tape)

    try:
        specs, values = _PRESETS, evaluate(_PRESETS)
    except POINT_ERRORS:  # some pack raises on the batch: leave it out
        specs = []
        for spec in _PRESETS:
            try:
                evaluate([spec])
            except POINT_ERRORS:
                continue
            specs.append(spec)
        if not specs:
            return {}
        values = evaluate(specs)
    return _stacked_rows(specs, values, batch, perturbation)


def _stacked_rows(
    specs: list[CasePreset], values: list[Series], batch: _Batch, perturbation: float
) -> dict:
    """The rows of the entries ``specs`` from one data over their packs'
    ``values`` side by side (see :func:`_catalog_rows`)."""
    src = _Repeated(batch, len(specs), _WORKSPACE_READ)  # held while the data is read
    ws = _Workspace.of(DeformationData(None, src, _WORKSPACE_READ, values), src)
    size = len(batch.points)
    return {
        spec.id: _compare(spec, ws.part(slice(k * size, (k + 1) * size)), perturbation)
        for k, spec in enumerate(specs)
    }


def check_case(
    case_id: int,
    F: FinslerStructure,
    points: Iterable[ChartPoint],
    seed: int = 0,
    perturbation: float = 0.0,
) -> dict:
    """Compare the built difference tensor with the catalog closed form.

    Returns a plain dict: the worst relative residual over ``points`` and
    the literal-form residual for typo-flagged entries (reported, not
    asserted); :func:`finslerconn.verify.check_cases` judges the residual
    against the configured ``cases`` tolerance.  ``perturbation`` shifts
    one entry of the built tensor before the comparison (the fuzz-injection
    hook); a perturbed run skips the literal forms and reports ``None``.
    No points raise :class:`CaseError`: there is nothing to compare.

    When ``points`` are the points of one batch of more than one point
    (as a suite holds them), every catalog entry is compared over that
    batch at once, on the first call, and kept in the batch's memo
    (:func:`_catalog`); each call reads its entry's slices.  An entry whose
    pack raises on the batch compares alone, and where it raises at a
    point each point compares alone on its batch of one
    (:meth:`~finslerconn.finsler._Batch.serve`), so each point raises its
    own error.  Other points, a lone one or some of a batch, compare only
    this entry, each alone.
    """
    spec = _require(case_id)
    pts = list(points)
    if not pts:
        raise CaseError(f"case {spec.id} needs at least one point to compare at")
    towers = F.towers(pts, _WORKSPACE_ORDER)  # held while their data is read
    batch, pack = towers[0]._batch, None

    def compare(src: _Batch) -> dict:
        nonlocal pack
        if len(src.points) > 1:  # this entry's rows of the catalog over the batch
            rows = _catalog(F, src, seed, perturbation).get(spec.id)
            if rows is not None:
                return rows
        pack = pack or _pack(spec, F, seed)
        return _compare(spec, _Workspace(pack, F, src), perturbation)

    whole = all(t._batch is batch for t in towers)  # and all its points, as a suite holds them
    if whole and len({t._index for t in towers}) == len(batch.points) > 1:
        key = (seed, perturbation, spec.id, "case-rows")
        served = [t._batch.serve(t._index, key, compare) for t in towers]
    else:
        served = [(compare(t.lift), 0) for t in towers]
    per_point = [{key: value[i] for key, value in rows.items()} for rows, i in served]
    return {
        "id": spec.id,
        "title": spec.title,
        "constraints": spec.constraints,
        "structure": getattr(F, "name", ""),
        "points": len(pts),
        "typo": spec.typo,
        "convention": spec.convention,
        "residual": worst_residual(r["residual"] for r in per_point),
        "literal_residual": (
            worst_residual(r["literal"] for r in per_point)
            if spec.typo and not perturbation
            else None
        ),
    }


def catalog() -> list[dict]:
    """Machine-readable view of the registry, ordered by id."""
    return [
        {
            "id": p.id,
            "title": p.title,
            "constraints": p.constraints,
            "free": list(p.free),
            "typo": p.typo,
            "convention": p.convention,
            "has_display": p.has_display,
        }
        for p in _PRESETS
    ]
