"""Matsumoto processes and the four-connection family of a deformation.

Two classical transformations act on connection triples:

* the **P1-process** grafts the deflection-type torsion onto the horizontal
  coefficients (argument order swapped, so the torsion's first slot receives
  the vector being differentiated),
* the **C-process** strips the vertical coefficients by their own torsion,
  which for every connection here zeroes them.

Applying them to a deformed connection produces a commuting square of four
connections sharing one nonlinear part -- the deformation-level analog of
the classical square Cartan / Hashiguchi / Chern-Rund / Berwald, to which
the whole family collapses when the six parameters vanish.

:func:`diagram_residuals` evaluates every edge of that picture at a point:
the four process edges of the deformed square, the four process edges of
the classical square (whose targets are built independently from tower
data), and the five collapse edges joining the two squares under zero
parameters.

Every connection here, and each process, takes a tower or a batch of
towers (:class:`~finslerconn.finsler._Batch`, the point axis in front, as
in :mod:`finslerconn.connection`), so the diagram's rows are one formula
over either: computed once per (pack or family, batch) in the batch's
memo, each point's call returns its slice of them
(:func:`~finslerconn.deformation.point_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .ad import Series
from .connection import CARTAN, Connection, torsions
from .deformation import (
    DeformationParams,
    build,
    deformation_data,
    point_rows,
    relative_residual,
    worst_residual,
)
from .finsler import ChartPoint, FinslerStructure, Tower, _Batch, lead_transpose

__all__ = [
    "HASHIGUCHI",
    "CHERN_RUND",
    "BERWALD",
    "CLASSICAL",
    "ConnectionFamily",
    "p1_process",
    "c_process",
    "derive_family",
    "berwald_coefficients",
    "diagram_residuals",
]


def berwald_coefficients(t: Tower | _Batch) -> Series:
    """Fiber derivative of the nonlinear connection, [i, j, k] = dN^i_j/dy^k
    (behind the point axis on a batch).

    Symmetric in (j, k) because N is itself a fiber derivative of the spray.
    """
    return t.N.dy(axis=2 + t.lead)


HASHIGUCHI = Connection(
    name="hashiguchi",
    nlc=lambda t: t.N,
    hor=berwald_coefficients,
    ver=lambda t: t.T_mix,
)
"""Classical target of the P1-process applied to the metric connection."""

CHERN_RUND = Connection(
    name="chern-rund",
    nlc=lambda t: t.N,
    hor=lambda t: t.Gamma,
    ver=lambda t: 0.0 * t.T_mix,
)
"""Classical target of the C-process applied to the metric connection."""

BERWALD = Connection(
    name="berwald",
    nlc=lambda t: t.N,
    hor=berwald_coefficients,
    ver=lambda t: 0.0 * t.T_mix,
)
"""Classical target of both processes composed, in either order."""

CLASSICAL = {
    "cartan": CARTAN,
    "hashiguchi": HASHIGUCHI,
    "chern-rund": CHERN_RUND,
    "berwald": BERWALD,
}


def p1_process(conn: Connection) -> Connection:
    """Add the deflection-type torsion to the horizontal coefficients.

    The torsion enters with its arguments swapped -- its first slot takes
    the vector being differentiated -- so the new coefficients are
    ``H^i_jk + (dN^i_k/dy^j - H^i_kj)``.  The nonlinear and vertical parts
    are untouched.  On the metric connection this lands exactly on the
    Hashiguchi connection, which pins the argument order.
    """

    def hor(t: Tower | _Batch) -> Series:
        return conn.H(t) + lead_transpose(torsions(conn, t).vhv, t.lead, 0, 2, 1)

    return Connection(name=f"p1({conn.name})", nlc=conn.nlc, hor=hor, ver=conn.ver)


def c_process(conn: Connection) -> Connection:
    """Subtract its own vertical torsion from the vertical coefficients.

    For every connection in this module the vertical torsion coincides with
    the vertical coefficients, so the result has vertical part zero.  The
    nonlinear and horizontal parts are untouched.
    """

    def ver(t: Tower | _Batch) -> Series:
        return conn.V(t) - torsions(conn, t).hv

    return Connection(name=f"c({conn.name})", nlc=conn.nlc, hor=conn.hor, ver=ver)


@dataclass(eq=False)
class ConnectionFamily:
    """The four connections one deformation generates, sharing one N.

    ``base`` is the deformed connection itself; the other three arise from
    it by the two processes.  ``berwald`` is defined as the C-process of
    ``hashiguchi``; that it equals the P1-process of ``chern_rund`` is the
    commuting-square statement checked by :func:`diagram_residuals`.
    """

    base: Connection
    hashiguchi: Connection
    chern_rund: Connection
    berwald: Connection

    def members(self):
        return (
            ("base", self.base),
            ("hashiguchi", self.hashiguchi),
            ("chern-rund", self.chern_rund),
            ("berwald", self.berwald),
        )

    @cached_property
    def p1_chern_rund(self) -> Connection:
        """The P1-process of ``chern_rund``: ``berwald`` if the square commutes."""
        return p1_process(self.chern_rund)


def derive_family(params: DeformationParams) -> ConnectionFamily:
    """The deformed connection and its three process derivatives, new on every call."""
    base = build(params)
    hashiguchi = p1_process(base)
    return ConnectionFamily(
        base=base,
        hashiguchi=hashiguchi,
        chern_rund=c_process(base),
        berwald=c_process(hashiguchi),
    )


# ---------------------------------------------------------------------------
# the full diagram at a point

# Built once, so the memo entries they leave in a tower's cache are hit
# again by the next call at that tower instead of piling up.
_CLASSICAL_EDGES = (
    ("classical:cartan-to-hashiguchi", p1_process(CARTAN), HASHIGUCHI),
    ("classical:cartan-to-chern-rund", c_process(CARTAN), CHERN_RUND),
    ("classical:hashiguchi-to-berwald", c_process(HASHIGUCHI), BERWALD),
    ("classical:chern-rund-to-berwald", p1_process(CHERN_RUND), BERWALD),
)


@cache
def _zero_params(n: int) -> DeformationParams:
    """The zero deformation of dimension ``n``, with one family for every call."""
    return DeformationParams.zero(n)


def _worst(values: list, lead: int):
    """The worst of residuals (one per point on a batch); a NaN wins."""
    return np.max(np.stack(values), axis=0, initial=0.0) if lead else worst_residual(values)


def _match(got: Series, want: Series, lead: int):
    """Residual of ``got`` against the reference ``want``."""
    return relative_residual(got.val - want.val, want.val, lead=lead)


def _triple_residual(got: Connection, want: Connection, src: Tower | _Batch):
    pairs = ((got.N, want.N), (got.H, want.H), (got.V, want.V))
    return _worst([_match(g(src), w(src), src.lead) for g, w in pairs], src.lead)


_DIAGRAM_ORDER = (4, 1)
"""The (order, xorder) of the diagram's tower."""


def diagram_residuals(
    params: DeformationParams,
    F: FinslerStructure,
    point: ChartPoint,
    family: ConnectionFamily | None = None,
) -> dict[str, float]:
    """Residual of every edge of the two-square process diagram at a point.

    * ``deformed:*`` -- the four process edges of the deformed square.  The
      two P1 edges are compared against the closed form ``(h)h-torsion +
      dN/dy`` (swapped), the two C edges against vertical part zero; the
      edge into ``berwald`` from ``chern_rund`` is the commuting-square
      statement, since ``berwald`` is defined through ``hashiguchi``.
    * ``classical:*`` -- the same four edges on the metric side, where each
      target is constructed independently from tower data rather than by a
      process, so these edges pin the process conventions.
    * ``collapse:*`` -- the five zero-parameter edges joining the squares:
      each family member against its classical counterpart, plus the spray
      and nonlinear connection against the canonical ones.

    ``family`` (default: the one derived from ``params``) is under test.
    The rows are computed once over the point's batch
    (:func:`~finslerconn.deformation.point_rows`).
    """
    t = F.tower(point, _DIAGRAM_ORDER)
    return point_rows(
        t, (params, family, "diagram-rows"), lambda src: _diagram_rows(params, src, family)
    )


def _diagram_rows(
    params: DeformationParams, src: Tower | _Batch, family: ConnectionFamily | None
) -> dict:
    """:func:`diagram_residuals` on a tower or over a batch."""
    lead = src.lead
    # the families live in the memo of the tower or batch, so a held one meets the same ones
    fam = src.memo((params, "family"), lambda: derive_family(params)) if family is None else family
    rows: dict = {}

    # deformed square
    dyN = fam.base.N(src).dy(axis=2 + lead)
    p1_closed = torsions(fam.base, src).hh + lead_transpose(dyN, lead, 0, 2, 1)
    rows["deformed:base-to-hashiguchi"] = _match(fam.hashiguchi.H(src), p1_closed, lead)
    rows["deformed:base-to-chern-rund"] = _worst([
        relative_residual(fam.chern_rund.V(src).val, src.T_mix.val, lead=lead),
        _match(fam.chern_rund.H(src), fam.base.H(src), lead),
    ], lead)
    rows["deformed:hashiguchi-to-berwald"] = _worst([
        relative_residual(fam.berwald.V(src).val, src.T_mix.val, lead=lead),
        _match(fam.berwald.H(src), fam.hashiguchi.H(src), lead),
    ], lead)
    rows["deformed:chern-rund-to-berwald"] = _triple_residual(
        fam.p1_chern_rund, fam.berwald, src
    )

    # classical square, targets built independently from tower data
    for label, processed, target in _CLASSICAL_EDGES:
        rows[label] = _triple_residual(processed, target, src)

    # collapse edges under zero parameters
    zero = _zero_params(src.ys.shape[-1])  # a batch has no n
    zfam = src.memo((zero, "family"), lambda: derive_family(zero))
    for (label, member), classical in zip(
        zfam.members(), (CARTAN, HASHIGUCHI, CHERN_RUND, BERWALD)
    ):
        rows[f"collapse:{label}"] = _triple_residual(member, classical, src)
    zdata = deformation_data(zero, src)
    rows["collapse:spray-and-nonlinear"] = _worst(
        [_match(zdata.spray, src.G, lead), _match(zdata.nonlinear, src.N, lead)], lead
    )
    return rows
