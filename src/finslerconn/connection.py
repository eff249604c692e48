"""Generic machinery for Finsler connections given by coefficient triples.

A connection here is a triple of coefficient fields ``(N, H, V)`` on the
slit tangent bundle: a nonlinear connection ``N^i_j``, horizontal
coefficients ``H^i_jk`` and vertical coefficients ``V^i_jk``, each produced
from a :class:`~finslerconn.finsler.Tower` on demand.  The index layout is
fixed throughout the package::

    H[i, j, k]  --  output component i, direction j, argument k
    (the covariant derivative of the k-th frame field along the j-th
    horizontal frame field has i-th component H[i, j, k])

and curvature-type tensors are stored as ``C[i, m, j, k]``: output ``i``,
value slot ``m``, then the two argument slots ``j, k`` (for the mixed
curvature ``j`` is the horizontal one).  The curvature convention is

    K(X, Y)Z = D_Y D_X Z - D_X D_Y Z + D_[X,Y] Z,

whose Riemannian limit has ``K(e_j, e_k) e_m`` equal to *minus* the
classical Riemann tensor ``R^i_mjk``; the trace convention of
:func:`ricci` is chosen so it reduces to the classical Ricci tensor.

Everything returns :class:`~finslerconn.ad.Series`, so results can be
differentiated further (covariant derivatives of curvature for the second
Bianchi identities, for instance).

Every function here is one formula over a batch of towers, each result
with the point axis ``p`` in front of the layout above; given a tower it
runs on the tower's lift, its point alone as a batch, and drops that axis
(:func:`~finslerconn.finsler.pointwise`), with the bits of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .ad import Series, contract, lower, lower_to
from .finsler import Tower, _Batch, horizontal_gradient, pointwise

__all__ = [
    "Connection",
    "CARTAN",
    "TorsionBundle",
    "nonlinear_curvature",
    "torsions",
    "curvature_h",
    "curvature_mixed",
    "curvature_v",
    "contract_value_slot",
    "cov_deriv",
    "metric_deficit",
    "ricci",
    "RicciEndomorphism",
]


@dataclass(eq=False)
class Connection:
    """A named coefficient triple; each part maps a batch (or a tower's
    lift) to a series with the point axis first.

    ``N``, ``H``, ``V`` and the nonlinear curvature are memoized on the
    batch (a tower's on its lift); torsions and other curvatures are
    computed on every call.

    :meth:`at` gives the same connection computed in the ring a reader
    reads.  A part with an ``at(read)`` method of its own (the stages of a
    deformation) is computed there; any other part is computed in its
    tower's ring and cut (:func:`~finslerconn.ad.lower_to`).
    """

    name: str
    nlc: Callable[[_Batch], Series]
    hor: Callable[[_Batch], Series]
    ver: Callable[[_Batch], Series]

    @pointwise
    def N(self, t: Tower | _Batch) -> Series:
        return self._memo(t, "N", self.nlc)

    @pointwise
    def H(self, t: Tower | _Batch) -> Series:
        return self._memo(t, "H", self.hor)

    @pointwise
    def V(self, t: Tower | _Batch) -> Series:
        return self._memo(t, "V", self.ver)

    def _memo(self, t: _Batch, slot: str, producer) -> Series:
        return t.memo((self, slot), lambda: producer(t))

    def at(self, read: tuple[int, int]) -> "Connection":
        """This connection with its parts computed in the ring ``read``, an
        ``(order, xorder)`` pair; each part lands at the lower of each of
        its orders and those, with the bits of the part cut there."""
        return Connection(self.name, *(_part_at(p, read) for p in (self.nlc, self.hor, self.ver)))

    @pointwise
    def delta(self, t: Tower | _Batch, s: Series) -> Series:
        """Horizontal gradient of a series using this connection's N:
        ``[p, j, ...]`` is ``delta_j s[p, ...]`` (see :func:`horizontal_gradient`)."""
        return horizontal_gradient(s, self.N(t))


def _part_at(part: Callable, read: tuple[int, int]) -> Callable:
    """``part`` computed in the ring ``read``: by its own ``at`` if it has
    one, else cut from its value in the tower's ring."""
    at = getattr(part, "at", None)
    return at(read) if at is not None else lambda t: lower_to(read, part(t))[0]


CARTAN = Connection(
    name="cartan",
    nlc=lambda t: t.N,
    hor=lambda t: t.Gamma,
    ver=lambda t: t.T_mix,
)
"""The metric-compatible reference connection every deformation starts from."""


# ---------------------------------------------------------------------------
# small helpers


def _alt(C: Series) -> Series:
    """Antisymmetrize a curvature-layout series in its two argument slots."""
    return C - C.transpose(0, 1, 2, 4, 3)


# ---------------------------------------------------------------------------
# torsions


class TorsionBundle:
    """The five torsion tensors of a connection triple on a batch, as
    series, each ``[p, i, j, k]``.

    * ``hh[i, j, k]``: horizontal antisymmetry ``H^i_jk - H^i_kj``
    * ``hv[i, j, k]``: the vertical coefficients themselves
    * ``vh[i, j, k]``: curvature of the nonlinear connection,
      ``delta_k N^i_j - delta_j N^i_k``
    * ``vhv[i, j, k]``: deflection-type torsion ``dN^i_j/dy_k - H^i_jk``
    * ``vv[i, j, k]``: vertical antisymmetry ``V^i_jk - V^i_kj``

    Each block is computed when first read, so a caller that reads only
    ``hh`` neither computes ``vh`` nor needs the x-order its horizontal
    derivatives take.
    The ``vhv`` formula assumes the vertical coefficients annihilate the
    tautological field (true for every connection this package builds,
    where V is either the Cartan tensor or zero).
    """

    def __init__(self, conn: Connection, t: _Batch):
        self.conn = conn
        self.t = t

    @cached_property
    def hh(self) -> Series:
        H = self.conn.H(self.t)
        return H - H.transpose(0, 1, 3, 2)

    @cached_property
    def hv(self) -> Series:
        return self.conn.V(self.t)

    @cached_property
    def vh(self) -> Series:
        return nonlinear_curvature(self.conn, self.t)

    @cached_property
    def vhv(self) -> Series:
        return self.conn.N(self.t).dy(axis=3) - self.conn.H(self.t)

    @cached_property
    def vv(self) -> Series:
        V = self.conn.V(self.t)
        return V - V.transpose(0, 1, 3, 2)


@pointwise
def nonlinear_curvature(conn: Connection, t: Tower | _Batch) -> Series:
    """``vh`` torsion: R[l, j, k] = delta_k N^l_j - delta_j N^l_k."""

    def make() -> Series:
        dN = conn.delta(t, conn.N(t))  # [p, a, l, j]
        # delta_k N^l_j as [p, l, j, k], then antisymmetrize the argument slots
        D = dN.transpose(0, 2, 3, 1)
        return D - D.transpose(0, 1, 3, 2)

    return t.memo((conn, "nonlinear_curvature"), make)


@pointwise
def torsions(conn: Connection, t: Tower | _Batch) -> TorsionBundle:
    """The torsions of ``conn`` on ``t``, each block computed when first read."""
    return TorsionBundle(conn, t)


# ---------------------------------------------------------------------------
# curvatures


@pointwise
def curvature_h(conn: Connection, t: Tower | _Batch) -> Series:
    """Horizontal curvature R[i, m, j, k] of the triple."""
    H = conn.H(t)
    dH = conn.delta(t, H)  # [p, a, i, j, m]
    dH, H, V, R = lower(dH, H, conn.V(t), nonlinear_curvature(conn, t))
    A = dH.transpose(0, 2, 4, 3, 1)  # A[p, i, m, j, k] = delta_k H^i_jm
    B = contract("pikl,pljm->pimjk", H, H)  # B[p, i, m, j, k] = H^i_kl H^l_jm
    return _alt(A) + _alt(B) + contract("pilm,pljk->pimjk", V, R)


@pointwise
def curvature_mixed(conn: Connection, t: Tower | _Batch) -> Series:
    """Mixed curvature P[i, m, j, k]; j is horizontal, k vertical."""
    H = conn.H(t)
    V = conn.V(t)
    dyH = H.dy(axis=1)  # [p, a, i, j, m]
    dV = conn.delta(t, V)  # [p, a, i, k, m]
    dyN = conn.N(t).dy(axis=3)  # [p, l, j, k]
    dyH, dV, dyN, H, V = lower(dyH, dV, dyN, H, V)
    return (
        dyH.transpose(0, 2, 4, 3, 1)  # dH^i_jm / dy_k
        + contract("pikl,pljm->pimjk", V, H)  # V^i_kl H^l_jm
        - dV.transpose(0, 2, 4, 1, 3)  # delta_j V^i_km
        - contract("pijl,plkm->pimjk", H, V)  # H^i_jl V^l_km
        + contract("pilm,pljk->pimjk", V, dyN)  # (dN^l_j/dy_k) V^i_lm
    )


@pointwise
def curvature_v(conn: Connection, t: Tower | _Batch) -> Series:
    """Vertical curvature S[i, m, j, k] of the triple."""
    V = conn.V(t)
    dyV, V = lower(V.dy(axis=1), V)
    A = dyV.transpose(0, 2, 4, 3, 1)  # dV^i_jm / dy_k
    B = contract("pikl,pljm->pimjk", V, V)
    return _alt(A) + _alt(B)


@pointwise
def contract_value_slot(C: Series, t: Tower | _Batch) -> Series:
    """Plug the tautological field into the value slot: C[i, m, j, k] y^m."""
    return contract("pimjk,pm->pijk", C, t.ys)


# ---------------------------------------------------------------------------
# covariant derivatives


@pointwise
def cov_deriv(conn: Connection, t: Tower | _Batch, W: Series, horizontal: bool) -> Series:
    """Covariant derivative of a (1, s) tensor-of-series, s >= 0.

    ``W`` has its upper index on axis 1, after the point axis, and lower
    indices after it.  The result gains a direction axis in front of
    those: ``out[p, l, i, a_1..a_s]``.
    """
    C = conn.H(t) if horizontal else conn.V(t)
    w = "abcdefgh"[: len(W.shape) - 1]
    out = conn.delta(t, W) if horizontal else W.dy(axis=1)
    out, C, W = lower(out, C, W)
    out = out + contract(f"pilq,pq{w[1:]}->pli{w[1:]}", C, W)
    for s in range(1, len(w)):  # each lower index q of W: - C^q_li W[.. q ..]
        spec = f"pqli,p{w[:s]}q{w[s + 1:]}->pl{w[:s]}i{w[s + 1:]}"
        out = out - contract(spec, C, W)
    return out


@pointwise
def metric_deficit(conn: Connection, t: Tower | _Batch, horizontal: bool) -> Series:
    """Covariant derivative of the fundamental tensor, out[j, k, l].

    Horizontal: ``delta_j g_kl - H^m_jk g_ml - H^m_jl g_km`` (with this
    connection's own nonlinear part inside delta); vertical analog with V
    and the fiber derivative.  Vanishing is metric compatibility.
    """
    g = t.g
    C = conn.H(t) if horizontal else conn.V(t)
    base = conn.delta(t, g) if horizontal else g.dy(axis=1)
    base, C, g = lower(base, C, g)
    corr = contract("pmjk,pml->pjkl", C, g)
    return base - corr - corr.transpose(0, 1, 3, 2)


# ---------------------------------------------------------------------------
# traces


@pointwise
def ricci(conn: Connection, t: Tower | _Batch) -> Series:
    """Horizontal Ricci trace ric[m, k] = sum_i R[i, m, k, i].

    Reduces to the classical Ricci tensor in the Riemannian limit.
    """
    return contract("pimki->pmk", curvature_h(conn, t))


class RicciEndomorphism:
    """The Ricci trace of the reference metric connection, raised to an
    endomorphism with the inverse fundamental tensor.

    Usable as a matrix field input wherever a curvature-derived
    endomorphism is wanted; it reads the metric of the tower it is
    evaluated on, or of every point of a batch at once.  The Ricci trace
    takes four derivatives of the norm, two along ``x``, so on a tower cut
    at ``(order, xorder)`` the field reads the tower of the same point at
    ``(order + 1, xorder + 2)`` through
    :meth:`~finslerconn.finsler.Tower.at` (on a batch, the batch of its
    points there; the structure must still be bound to a name); its value
    is trusted to order 1 and bit-identical to the one on the uncut tower
    of order ``order + 1``.
    """

    @pointwise
    def eval(self, t: Tower | _Batch) -> Series:
        rg = t.jets.ring
        deep = t.at((rg.order + 1, rg.xorder + 2))
        return contract("pil,plk->pik", deep.gi, ricci(CARTAN, deep))

    def describe(self) -> str:
        return "metric Ricci endomorphism"
