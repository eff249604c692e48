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

Every function here takes a tower or a batch of towers
(:class:`~finslerconn.finsler._Batch`, more than one point) as its source
``t``.  On a batch every result carries the point axis first, in front of
the index layout above, and each formula is the tower's formula with that
axis in front (``lead_spec``, ``lead_transpose`` and the ``lead`` of
:func:`~finslerconn.finsler.horizontal_gradient`), so each point's
coefficients are bit-identical to those computed on its tower alone.
``t.lead`` is the number of point axes: 0 on a tower, 1 on a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .ad import Series, contract, lower, lower_to
from .finsler import Tower, _Batch, horizontal_gradient, lead_spec, lead_transpose

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
    """A named coefficient triple; each part maps a tower, or a batch, to
    a series.

    ``N``, ``H``, ``V`` and the nonlinear curvature are memoized on the
    tower or batch; torsions and other curvatures are computed on every call.

    :meth:`at` gives the same connection computed in the ring a reader
    reads.  A part with an ``at(read)`` method of its own (the stages of a
    deformation) is computed there; any other part is computed in its
    tower's ring and cut (:func:`~finslerconn.ad.lower_to`).
    """

    name: str
    nlc: Callable[[Tower | _Batch], Series]
    hor: Callable[[Tower | _Batch], Series]
    ver: Callable[[Tower | _Batch], Series]

    def N(self, t: Tower | _Batch) -> Series:
        return self._memo(t, "N", self.nlc)

    def H(self, t: Tower | _Batch) -> Series:
        return self._memo(t, "H", self.hor)

    def V(self, t: Tower | _Batch) -> Series:
        return self._memo(t, "V", self.ver)

    def _memo(self, t: Tower | _Batch, slot: str, producer) -> Series:
        return t.memo((self, slot), lambda: producer(t))

    def at(self, read: tuple[int, int]) -> "Connection":
        """This connection with its parts computed in the ring ``read``, an
        ``(order, xorder)`` pair; each part lands at the lower of each of
        its orders and those, with the bits of the part cut there."""
        return Connection(self.name, *(_part_at(p, read) for p in (self.nlc, self.hor, self.ver)))

    def delta(self, t: Tower | _Batch, s: Series) -> Series:
        """Horizontal gradient of a series using this connection's N:
        ``[j, ...]`` is ``delta_j s[...]`` (see :func:`horizontal_gradient`),
        behind the point axis on a batch."""
        return horizontal_gradient(s, self.N(t), t.lead)


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


def _alt(C: Series, lead: int) -> Series:
    """Antisymmetrize a curvature-layout series in its two argument slots."""
    return C - lead_transpose(C, lead, 0, 1, 3, 2)


# ---------------------------------------------------------------------------
# torsions


class TorsionBundle:
    """The five torsion tensors of a connection triple on a tower or a
    batch, as series.

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

    def __init__(self, conn: Connection, t: Tower | _Batch):
        self.conn = conn
        self.t = t

    @cached_property
    def hh(self) -> Series:
        H = self.conn.H(self.t)
        return H - lead_transpose(H, self.t.lead, 0, 2, 1)

    @cached_property
    def hv(self) -> Series:
        return self.conn.V(self.t)

    @cached_property
    def vh(self) -> Series:
        return nonlinear_curvature(self.conn, self.t)

    @cached_property
    def vhv(self) -> Series:
        return self.conn.N(self.t).dy(axis=self.t.lead + 2) - self.conn.H(self.t)

    @cached_property
    def vv(self) -> Series:
        V = self.conn.V(self.t)
        return V - lead_transpose(V, self.t.lead, 0, 2, 1)


def nonlinear_curvature(conn: Connection, t: Tower | _Batch) -> Series:
    """``vh`` torsion: R[l, j, k] = delta_k N^l_j - delta_j N^l_k."""

    def make() -> Series:
        dN = conn.delta(t, conn.N(t))  # [a, l, j]
        # delta_k N^l_j as [l, j, k], then antisymmetrize the argument slots
        D = lead_transpose(dN, t.lead, 1, 2, 0)
        return D - lead_transpose(D, t.lead, 0, 2, 1)

    return t.memo((conn, "nonlinear_curvature"), make)


def torsions(conn: Connection, t: Tower | _Batch) -> TorsionBundle:
    """The torsions of ``conn`` on ``t``, each block computed when first read."""
    return TorsionBundle(conn, t)


# ---------------------------------------------------------------------------
# curvatures


def curvature_h(conn: Connection, t: Tower | _Batch) -> Series:
    """Horizontal curvature R[i, m, j, k] of the triple."""
    lead = t.lead
    H = conn.H(t)
    dH = conn.delta(t, H)  # [a, i, j, m]
    dH, H, V, R = lower(dH, H, conn.V(t), nonlinear_curvature(conn, t))
    A = lead_transpose(dH, lead, 1, 3, 2, 0)  # A[i, m, j, k] = delta_k H^i_jm
    B = contract(lead_spec("ikl,ljm->imjk", lead), H, H)  # B[i, m, j, k] = H^i_kl H^l_jm
    return _alt(A, lead) + _alt(B, lead) + contract(lead_spec("ilm,ljk->imjk", lead), V, R)


def curvature_mixed(conn: Connection, t: Tower | _Batch) -> Series:
    """Mixed curvature P[i, m, j, k]; j is horizontal, k vertical."""
    lead = t.lead
    H = conn.H(t)
    V = conn.V(t)
    dyH = H.dy(axis=lead)  # [a, i, j, m]
    dV = conn.delta(t, V)  # [a, i, k, m]
    dyN = conn.N(t).dy(axis=lead + 2)  # [l, j, k]
    dyH, dV, dyN, H, V = lower(dyH, dV, dyN, H, V)
    return (
        lead_transpose(dyH, lead, 1, 3, 2, 0)  # dH^i_jm / dy_k
        + contract(lead_spec("ikl,ljm->imjk", lead), V, H)  # V^i_kl H^l_jm
        - lead_transpose(dV, lead, 1, 3, 0, 2)  # delta_j V^i_km
        - contract(lead_spec("ijl,lkm->imjk", lead), H, V)  # H^i_jl V^l_km
        + contract(lead_spec("ilm,ljk->imjk", lead), V, dyN)  # (dN^l_j/dy_k) V^i_lm
    )


def curvature_v(conn: Connection, t: Tower | _Batch) -> Series:
    """Vertical curvature S[i, m, j, k] of the triple."""
    lead = t.lead
    V = conn.V(t)
    dyV, V = lower(V.dy(axis=lead), V)
    A = lead_transpose(dyV, lead, 1, 3, 2, 0)  # dV^i_jm / dy_k
    B = contract(lead_spec("ikl,ljm->imjk", lead), V, V)
    return _alt(A, lead) + _alt(B, lead)


def contract_value_slot(C: Series, t: Tower | _Batch) -> Series:
    """Plug the tautological field into the value slot: C[i, m, j, k] y^m."""
    return contract(lead_spec("imjk,m->ijk", t.lead), C, t.ys)


# ---------------------------------------------------------------------------
# covariant derivatives


def cov_deriv(conn: Connection, t: Tower | _Batch, W: Series, horizontal: bool) -> Series:
    """Covariant derivative of a (1, s) tensor-of-series, s >= 0.

    ``W`` has its upper index on axis 0 and lower indices after it (after
    the point axis on a batch).  The result gains a direction axis in
    front of those: ``out[l, i, a_1..a_s]``.
    """
    lead = t.lead
    C = conn.H(t) if horizontal else conn.V(t)
    w = "abcdefgh"[: len(W.shape) - lead]
    out = conn.delta(t, W) if horizontal else W.dy(axis=lead)
    out, C, W = lower(out, C, W)
    out = out + contract(lead_spec(f"ilq,q{w[1:]}->li{w[1:]}", lead), C, W)
    for s in range(1, len(w)):  # each lower index q of W: - C^q_li W[.. q ..]
        spec = f"qli,{w[:s]}q{w[s + 1:]}->l{w[:s]}i{w[s + 1:]}"
        out = out - contract(lead_spec(spec, lead), C, W)
    return out


def metric_deficit(conn: Connection, t: Tower | _Batch, horizontal: bool) -> Series:
    """Covariant derivative of the fundamental tensor, out[j, k, l].

    Horizontal: ``delta_j g_kl - H^m_jk g_ml - H^m_jl g_km`` (with this
    connection's own nonlinear part inside delta); vertical analog with V
    and the fiber derivative.  Vanishing is metric compatibility.
    """
    lead = t.lead
    g = t.g
    C = conn.H(t) if horizontal else conn.V(t)
    base = conn.delta(t, g) if horizontal else g.dy(axis=lead)
    base, C, g = lower(base, C, g)
    corr = contract(lead_spec("mjk,ml->jkl", lead), C, g)
    return base - corr - lead_transpose(corr, lead, 0, 2, 1)


# ---------------------------------------------------------------------------
# traces


def ricci(conn: Connection, t: Tower | _Batch) -> Series:
    """Horizontal Ricci trace ric[m, k] = sum_i R[i, m, k, i].

    Reduces to the classical Ricci tensor in the Riemannian limit.
    """
    return contract(lead_spec("imki->mk", t.lead), curvature_h(conn, t))


class RicciEndomorphism:
    """The Ricci trace of the reference metric connection, raised to an
    endomorphism with the inverse fundamental tensor.

    Usable as a matrix field input wherever a curvature-derived
    endomorphism is wanted; it reads the metric of the tower it is
    evaluated on.  The Ricci trace takes four derivatives of the norm, two
    along ``x``, so on a tower cut at ``(order, xorder)`` the field reads
    the tower of the same point at ``(order + 1, xorder + 2)`` through
    :meth:`~finslerconn.finsler.Tower.at` (the structure must still be
    bound to a name); its value is trusted to order 1 and bit-identical to
    the one on the uncut tower of order ``order + 1``.
    """

    def eval(self, t: Tower) -> Series:
        rg = t.jets.ring
        deep = t.at((rg.order + 1, rg.xorder + 2))
        return contract("il,lk->ik", deep.gi, ricci(CARTAN, deep))

    def describe(self) -> str:
        return "metric Ricci endomorphism"
