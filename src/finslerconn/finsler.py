"""The fundamental objects of a Finsler structure in local coordinates.

Starting from a positively homogeneous norm ``L(x, y)`` on a chart, this
module derives (as truncated Taylor series at a chart point, so later
modules can keep differentiating them):

* the fundamental tensor ``g_ij = 1/2 d^2(L^2)/dy_i dy_j`` and its inverse,
* the Cartan tensor ``T_ijk = 1/4 d^3(L^2)/dy_i dy_j dy_k`` (lowered and
  mixed),
* the Hilbert form components ``l_i = dL/dy_i``,
* the geodesic spray coefficients ``G^i``, the canonical nonlinear
  connection ``N^i_j = dG^i/dy_j``, and the metric horizontal coefficients
  built from horizontal derivatives ``delta_j = d/dx_j - N^m_j d/dy_m``.
  :func:`horizontal_gradient` takes every ``delta_j`` at once from the
  gradients :meth:`~finslerconn.ad.Series.dx` and ``dy``.

:class:`Tower` bundles these for one (structure, point, order) and is the
single currency the connection/curvature modules trade in; a value at a
point is read as ``F.tower(point, order).g.val`` and so on.  ``order`` is
an int or an ``(order, xorder)`` pair that also truncates the degree in
the base variables ``x``; each suite names the smallest pair its
residuals need, and the results are bit-identical to the uncut tower's.
Everything is lazy and cached; invalid inputs (non-positive norm,
degenerate fundamental tensor) raise :class:`DomainError` when first
touched.  A tower also offers the ``xs``, ``ys`` and ``const`` of its
chart jets, so parameter fields are evaluated on it and those that read
the metric (:class:`HilbertFormField`) take it from there.

Towers are built only by :meth:`FinslerStructure.tower`, and values,
deformation data, read-ring views of connections and process families
derived from a tower are memoized with :meth:`Tower.memo`, under keys
the caller holds, so a held tower stops growing after a first call.  The
structure holds its towers weakly and a tower holds its structure
weakly, so a tower lives while its caller holds it:
:meth:`FinslerStructure.tower` hands out the live tower of a point and
order if there is one and builds it otherwise, and reference counting
frees a tower when its last holder lets go.  Hold the tower while
reading data derived from it (``deformation_data``), and keep the
structure bound to a name to use :meth:`Tower.at`.  A caller that visits
the same points again (a loop over packs, say) holds their towers for
the loop.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ad import ChartJets, Field, Series, contract, lower, matinv
from .expr import ExprError

__all__ = [
    "DomainError",
    "ChartPoint",
    "FinslerStructure",
    "Tower",
    "HilbertFormField",
    "horizontal_gradient",
]


class DomainError(ValueError):
    """The structure is not Finsler at the requested chart point."""


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A point (x, y) of the slit tangent bundle in one chart."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or y.shape != x.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if not all(map(math.isfinite, x.tolist() + y.tolist())):  # cheapest for a few floats
            raise DomainError(f"chart point must be finite, got x = {x.tolist()}, y = {y.tolist()}")
        if not np.any(y):
            raise DomainError("y = 0 lies outside the slit tangent bundle")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def key(self) -> tuple:
        return (self.x.tobytes(), self.y.tobytes())


class FinslerStructure:
    """A chart dimension together with a norm field ``L(x, y)``."""

    def __init__(self, n: int, norm: Field, name: str = ""):
        self.n = n
        self.norm = norm
        self.name = name
        self._towers: weakref.WeakValueDictionary[tuple, Tower] = weakref.WeakValueDictionary()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or getattr(self.norm, "describe", lambda: "norm")()
        return f"FinslerStructure(n={self.n}, {label})"

    def tower(self, point: ChartPoint, order: int | tuple[int, int]) -> "Tower":
        """The Taylor tower of fundamental objects at a point: the live one
        for this point and order if something holds it, else a new one.

        ``order`` is an int (every monomial up to that total degree) or an
        ``(order, xorder)`` pair that also drops the monomials of x-degree
        above ``xorder``; see :class:`Tower`.  The structure keeps no tower
        alive, so a caller that asks for the same tower again holds it in
        between.
        """
        if point.n != self.n:
            raise ValueError(f"point has dimension {point.n}, structure has {self.n}")
        key = point.key() + (order,)
        tw = self._towers.get(key)
        if tw is None:
            tw = Tower(self, point, order)
            self._towers[key] = tw
        return tw

    @cached_property
    def cartan_flat(self) -> bool:
        """Whether the norm is quadratic in the fiber (vanishing Cartan tensor).

        Decided numerically at one interior probe point, once per structure.
        """
        probe = ChartPoint(np.full(self.n, 0.11), np.linspace(0.8, 1.2, self.n))
        return float(np.max(np.abs(self.tower(probe, (3, 0)).T_mix.val))) < 1e-10

    def validate_at(self, point: ChartPoint) -> None:
        """Check positivity, homogeneity and strong convexity at one point.

        Raises :class:`DomainError` with a specific message on failure.
        """
        scale = 1.7
        tw = self.tower(point, (2, 0))  # g takes y-derivatives only
        L = float(tw.L.val)
        scaled = ChartPoint(point.x, scale * point.y)
        L_scaled = float(self.norm.eval(ChartJets.at(scaled.x, scaled.y, 0)).val)
        if not np.isclose(L_scaled, scale * L, rtol=1e-8, atol=1e-10):
            raise DomainError(
                f"norm is not positively 1-homogeneous at {point}: "
                f"L(x, {scale}y) = {L_scaled:.6g} vs {scale}*L = {scale * L:.6g}"
            )
        tw.g  # touching it performs the positivity/convexity checks


def horizontal_gradient(s: Series, N: Series) -> Series:
    """``delta_j s = ds/dx_j - N^m_j ds/dy_m`` for every ``j``, on a new leading
    axis; the terms are subtracted in order of ``m``, as per index.  The
    x-partials are one x-order below the y-partials, so those and ``N`` are
    cut to the ring of the sum before they multiply."""
    out, dy, N = lower(s.dx(), s.dy(), N)
    spread = (slice(None),) + (None,) * len(s.shape)  # N^m_j against s[...]
    for m in range(N.shape[0]):
        out = out - N[(m,) + spread] * dy[m]
    return out


class Tower:
    """Lazily computed Taylor series of the fundamental objects at a point.

    ``order`` is the truncation order of the underlying ring, an int or an
    ``(order, xorder)`` pair whose ``xorder`` bounds the degree in the base
    variables ``x``; each derived object is valid to correspondingly lower
    orders (every derivative lowers the order, an x-derivative the x-order
    too; the series track this themselves and refuse to hand out untrusted
    coefficients, so a pair that is too low raises
    :class:`~finslerconn.ad.TruncationError` instead of cutting results).

    Built only by :meth:`FinslerStructure.tower`; other modules memoize
    values derived from a tower with :meth:`memo`.  A tower lives while its
    caller holds it: the structure's cache refers to it weakly and nothing
    memoized on it refers back strongly, so reference counting frees it,
    and all it memoizes, when its last holder lets go.  It holds its
    structure weakly too, so :meth:`at` needs the structure still bound to
    a name.
    """

    def __init__(self, structure: FinslerStructure, point: ChartPoint, order):
        self.norm = structure.norm
        self._structure = weakref.ref(structure)
        self.point = point
        self.n = point.n
        self.jets = ChartJets.at(point.x, point.y, order)
        self.cache: dict = {}

    def at(self, order: int | tuple[int, int]) -> "Tower":
        """The tower of the same point at another order, through
        :meth:`FinslerStructure.tower`: the live one, or a new one that lives
        while the caller holds it."""
        structure = self._structure()
        if structure is None:
            raise ReferenceError("this tower's structure is gone; bind the structure to a name")
        return structure.tower(self.point, order)

    def memo(self, key, make):
        """The value memoized under ``key`` on this tower, ``make()`` on a miss."""
        out = self.cache.get(key)
        if out is None:
            out = make()
            self.cache[key] = out
        return out

    # -- base layer ----------------------------------------------------------

    @cached_property
    def L(self) -> Series:
        where = f"x = {self.point.x.tolist()}, y = {self.point.y.tolist()}"
        try:
            s = self.norm.eval(self.jets)
        except ExprError:  # the expression is at fault, not the point
            raise
        except (ValueError, ZeroDivisionError) as err:
            raise DomainError(f"norm cannot be evaluated at {where}: {err}") from None
        value = float(s.val)
        if not math.isfinite(value):
            raise DomainError(f"norm is not finite at {where}: L = {value}")
        if not value > 0.0:
            raise DomainError(
                f"norm must be positive away from y = 0, got L = {value:.6g} at {where}"
            )
        return s

    @cached_property
    def L2(self) -> Series:
        return self.L * self.L

    @cached_property
    def g(self) -> Series:
        """Fundamental tensor, shape (n, n)."""
        g = self.L2.dy().dy(axis=1) * 0.5
        where = f"x = {self.point.x.tolist()}, y = {self.point.y.tolist()}"
        if not np.all(np.isfinite(g.val)):
            raise DomainError(f"fundamental tensor is not finite at {where}: {g.val.tolist()}")
        eig = np.linalg.eigvalsh(g.val)
        if eig[0] <= 0.0:
            raise DomainError(
                f"fundamental tensor is not positive definite at {where} "
                f"(eigenvalues {eig.tolist()})"
            )
        return g

    @cached_property
    def gi(self) -> Series:
        """Inverse fundamental tensor, shape (n, n)."""
        return matinv(self.g)

    @cached_property
    def T_low(self) -> Series:
        """Lowered Cartan tensor T_ijk, shape (n, n, n), totally symmetric."""
        return self.g.dy(axis=2) * 0.5

    @cached_property
    def T_mix(self) -> Series:
        """Mixed Cartan tensor T^i_jk = g^il T_ljk, shape (n, n, n)."""
        return contract("il,ljk->ijk", self.gi, self.T_low)

    @cached_property
    def ell(self) -> Series:
        """Hilbert form components l_i = dL/dy_i, shape (n,)."""
        return self.L.dy()

    # -- spray layer ---------------------------------------------------------

    @cached_property
    def G(self) -> Series:
        """Geodesic spray coefficients G^i, shape (n,)."""
        rhs = contract("lm,m->l", self.L2.dy().dx(axis=1), self.jets.ys) - self.L2.dx()
        return 0.25 * contract("il,l->i", self.gi, rhs)

    @cached_property
    def N(self) -> Series:
        """Canonical nonlinear connection N^i_j = dG^i/dy_j, shape (n, n)."""
        return self.G.dy(axis=1)

    def delta(self, s: Series, j: int) -> Series:
        """Horizontal derivative delta_j = d/dx_j - N^m_j d/dy_m of a series,
        the ``j``-th entry of :func:`horizontal_gradient`."""
        return horizontal_gradient(s, self.N)[j]

    @cached_property
    def delta_g(self) -> Series:
        """Horizontal derivatives of the fundamental tensor, shape (n, n, n):
        ``[j, k, l]`` is ``delta_j g_kl``."""
        return horizontal_gradient(self.g, self.N)

    @cached_property
    def Gamma(self) -> Series:
        """Metric horizontal coefficients, shape (n, n, n), [i, j, k].

        Symmetric in (j, k); together with ``N`` and ``T_mix`` these are the
        coefficients of the metric connection this whole package deforms.
        """
        D = self.delta_g  # D[a,b,c]
        # low[j,k,l] = (delta_j g_lk + delta_k g_jl - delta_l g_jk) / 2
        low = 0.5 * (
            D.transpose(0, 2, 1) + D.transpose(2, 0, 1) - D.transpose(1, 2, 0)
        )
        return contract("il,jkl->ijk", self.gi, low)

    # -- chart jets, so fields evaluate on a tower ---------------------------

    @property
    def xs(self) -> Series:
        return self.jets.xs

    @property
    def ys(self) -> Series:
        return self.jets.ys

    def const(self, value) -> Series:
        return self.jets.const(value)


class HilbertFormField:
    """The Hilbert form ``l`` of the metric a tower is built on, as a
    one-form field (it needs a :class:`Tower`, not bare jets).

    Handy wherever an input one-form is chosen to be ``l`` itself.
    """

    def eval(self, t: Tower) -> Series:
        return t.ell

    def describe(self) -> str:
        return "Hilbert form of the norm"

