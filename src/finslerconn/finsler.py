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

A tower is a view of one point of a batch, whose stages carry a leading
point axis and are computed for all of its points at once on the first
read (vectorised Taylor propagation).  :meth:`FinslerStructure.towers`
declares a batch and hands out its towers; the suite runner
(``verify._suite``) declares one per order its per-point functions read
and holds it while they run, and :meth:`Tower.at` declares the other
order for the whole batch.  A tower asked for alone is a batch of one, so
there is one code path, and every point reads the bits of its batch of
one.  A batch keeps what is built over all its points in its own memo
(:meth:`_Batch.memo`): the deformation data of a pack is computed once per
batch, and each tower reads its point's view of it.  The connections,
torsions and curvatures take a tower or a batch (``src.lead`` is the
number of point axes in front: 0 on a tower, 1 on a batch of more than
one point), so the theorem, construction, torsion and curvature rows are
computed once per batch too, and each point's call reads its slice.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .ad import ChartJets, Field, Series, TruncationError, contract, lower, matinv
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
        self._batches: weakref.WeakValueDictionary[tuple, _Batch] = weakref.WeakValueDictionary()

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

    def towers(self, points: Sequence[ChartPoint], order: int | tuple[int, int]) -> list["Tower"]:
        """The towers of ``points`` at one order, as :meth:`tower` gives
        them, with the stages of those no live tower serves yet computed as
        one batch: for all of these points at once, on the first read by
        any of their towers.  Hold the list while reading the towers."""
        batch = self._declare(points, order)  # held here until its towers hold it
        return [self.tower(p, order) for p in points]

    def _declare(self, points: Sequence[ChartPoint], order) -> "_Batch | None":
        """One new batch for the points no live batch serves at ``order``
        (None if there are none), found by :meth:`_slot` while something
        holds it."""
        fresh: dict[tuple, ChartPoint] = {}
        for p in points:
            if p.n != self.n:
                raise ValueError(f"point has dimension {p.n}, structure has {self.n}")
            key = p.key()
            if key + (order,) not in self._batches:
                fresh.setdefault(key, p)
        if not fresh:
            return None
        batch = _Batch(self.norm, list(fresh.values()), order, weakref.ref(self))
        for i, key in enumerate(fresh):
            batch.slot[key] = i
            self._batches[key + (order,)] = batch
        return batch

    def _slot(self, point: ChartPoint, order) -> tuple["_Batch", int]:
        """The live batch serving a point and order, a new batch of one if
        there is none, and the point's place in it."""
        key = point.key()
        batch = self._batches.get(key + (order,))
        if batch is None:
            batch = _Batch(self.norm, [point], order, weakref.ref(self))
            self._batches[key + (order,)] = batch
            batch.slot[key] = 0
        return batch, batch.slot[key]

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


def horizontal_gradient(s: Series, N: Series, lead: int = 0) -> Series:
    """``delta_j s = ds/dx_j - N^m_j ds/dy_m`` for every ``j``, on a new axis
    after the ``lead`` leading (point) axes that ``s`` and ``N`` share; the
    terms are subtracted in order of ``m``, as per index.  The x-partials
    are one x-order below the y-partials, so those and ``N`` are cut to the
    ring of the sum before they multiply."""
    out, dy, N = lower(s.dx(lead), s.dy(lead), N)
    points = (slice(None),) * lead
    spread = (slice(None),) + (None,) * (len(s.shape) - lead)  # N^m_j against s[...]
    for m in range(N.shape[lead]):
        out = out - N[points + (m,) + spread] * dy[points + (m,) + (None,) * lead]
    return out


def _where(point: ChartPoint) -> str:
    return f"x = {point.x.tolist()}, y = {point.y.tolist()}"


def lead_spec(spec: str, lead: int) -> str:
    """A contraction spec with the point axis ``p`` in front of every term
    when there is one (``lead`` 1); the spec must not use ``p`` itself."""
    return spec if not lead else "p" + spec.replace(",", ",p").replace("->", "->p")


def lead_transpose(s: Series, lead: int, *axes: int) -> Series:
    """``s.transpose(*axes)`` behind the ``lead`` point axes."""
    return s.transpose(*(axes if not lead else (*range(lead), *(a + lead for a in axes))))


def _memo(cache: dict, key, make):
    """The value ``cache`` holds under ``key``, ``make()`` stored there on a miss."""
    out = cache.get(key)
    if out is None:
        out = make()
        cache[key] = out
    return out


class _Batch:
    """The tower stages of a batch of points at one order.

    Each stage is one series with a leading point axis, computed for every
    point at once on the first read by any tower of the batch (vectorised
    Taylor propagation: Bettencourt, Johnson & Duvenaud, "Taylor-mode
    automatic differentiation for higher-order derivatives in JAX", 2019).
    A batch of one point has no point axis (``lead`` is 0), so a lone tower
    computes on arrays of its own shapes.  The formulas are the one-point
    formulas with the point axis in front, so each point's coefficients are
    bit-identical to those of its batch of one.  If a stage raises on a
    batch of more than one point, the batch splits into batches of one
    (:meth:`split`): each point then raises exactly the error it raises
    alone, and the other points are still served.  A
    :class:`~finslerconn.ad.TruncationError` (a stage past the order) is
    the same at every point and splits nothing.

    A batch holds no tower; its towers hold it, and so do the batches that
    built it as a deeper order of their points (:meth:`Tower.at`).  It holds
    its structure weakly, and what is built over all its points in its memo.
    """

    def __init__(self, norm: Field, points: list[ChartPoint], order, structure: weakref.ref):
        self.norm = norm
        self.points = points
        self.order = order
        self.structure = structure
        self.lead = int(len(points) > 1)  # the number of point axes
        self.slot: dict[tuple, int] = {}  # point key -> place, for those the structure finds here
        self.parts: list[_Batch] | None = None
        self.deeper: dict = {}  # order -> the batch Tower.at built for these points
        self.cache: dict = {}

    def read(self, stage: str, i: int) -> Series:
        """The stage named ``stage`` at point ``i``: the stage itself in a
        batch of one, else a view of the point's coefficients."""
        if self.parts is None:
            try:
                value = getattr(self, stage)
            except TruncationError:  # the order's fault, the same at every point
                raise
            except Exception:  # whatever a point raises alone, it raises from its own batch
                if not self.lead:
                    raise
                self.split()
            else:
                return Series(value.ring, value.coef[i]) if self.lead else value
        return self.parts[i].read(stage, 0)

    def split(self) -> None:
        """Serve every point from a batch of one from now on."""
        self.parts = [_Batch(self.norm, [p], self.order, self.structure) for p in self.points]

    def memo(self, key, make):
        """The value memoized under ``key`` on this batch, ``make()`` on a miss."""
        return _memo(self.cache, key, make)

    def towers(self) -> list["Tower"]:
        """The towers of this batch's points: the live ones, and new ones
        (views of this batch) for the others."""
        structure = self.structure()
        if structure is None:
            raise ReferenceError("this batch's structure is gone; bind the structure to a name")
        return [structure.tower(p, self.order) for p in self.points]

    def _spec(self, spec: str) -> str:
        return lead_spec(spec, self.lead)

    def _transpose(self, s: Series, *axes: int) -> Series:
        return lead_transpose(s, self.lead, *axes)

    @cached_property
    def jets(self) -> ChartJets:
        if not self.lead:
            return ChartJets.at(self.points[0].x, self.points[0].y, self.order)
        x, y = (np.array([getattr(p, c) for p in self.points]).T for c in "xy")
        return ChartJets.at(x, y, self.order)

    # -- base layer ----------------------------------------------------------

    @cached_property
    def L(self) -> Series:
        try:
            s = self.norm.eval(self.jets)
        except ExprError:  # the expression is at fault, not the point
            raise
        except (ValueError, ZeroDivisionError) as err:
            where = _where(self.points[0])
            raise DomainError(f"norm cannot be evaluated at {where}: {err}") from None
        for point, value in zip(self.points, s.val.reshape(-1).tolist()):
            if not math.isfinite(value):
                raise DomainError(f"norm is not finite at {_where(point)}: L = {value}")
            if not value > 0.0:
                raise DomainError(
                    f"norm must be positive away from y = 0, got L = {value:.6g} at {_where(point)}"
                )
        return s

    @cached_property
    def L2(self) -> Series:
        return self.L * self.L

    @cached_property
    def g(self) -> Series:
        a = self.lead
        g = self.L2.dy(axis=a).dy(axis=a + 1) * 0.5
        val = g.val.reshape((-1,) + g.shape[-2:])
        finite = np.isfinite(val).all(axis=(1, 2))
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainError(
                f"fundamental tensor is not finite at {_where(self.points[i])}: {val[i].tolist()}"
            )
        lowest = np.linalg.eigvalsh(val)[:, 0]
        if not (lowest > 0.0).all():
            i = int(np.argmin(lowest > 0.0))
            raise DomainError(
                f"fundamental tensor is not positive definite at {_where(self.points[i])} "
                f"(eigenvalues {np.linalg.eigvalsh(val[i]).tolist()})"
            )
        return g

    @cached_property
    def gi(self) -> Series:
        return matinv(self.g)

    @cached_property
    def T_low(self) -> Series:
        return self.g.dy(axis=self.lead + 2) * 0.5

    @cached_property
    def T_mix(self) -> Series:
        return contract(self._spec("il,ljk->ijk"), self.gi, self.T_low)

    @cached_property
    def ell(self) -> Series:
        return self.L.dy(axis=self.lead)

    @cached_property
    def ys(self) -> Series:
        """The fiber coordinates, shape ((points,) n)."""
        return self.jets.ys.transpose(1, 0) if self.lead else self.jets.ys

    @cached_property
    def S(self) -> Series:
        """Vertical curvature of the metric connection (``curvature_v`` of
        its coefficients), shape ((points,) n, n, n, n)."""
        V = self.T_mix
        dyV, V = lower(V.dy(axis=self.lead), V)
        A = self._transpose(dyV, 1, 3, 2, 0)  # dV^i_jm / dy_k
        B = contract(self._spec("ikl,ljm->imjk"), V, V)
        return (A - self._transpose(A, 0, 1, 3, 2)) + (B - self._transpose(B, 0, 1, 3, 2))

    # -- spray layer ---------------------------------------------------------

    @cached_property
    def G(self) -> Series:
        a = self.lead
        mixed = self.L2.dy(axis=a).dx(axis=a + 1)
        rhs = contract(self._spec("lm,m->l"), mixed, self.ys) - self.L2.dx(axis=a)
        return 0.25 * contract(self._spec("il,l->i"), self.gi, rhs)

    @cached_property
    def N(self) -> Series:
        return self.G.dy(axis=self.lead + 1)

    @cached_property
    def delta_g(self) -> Series:
        return horizontal_gradient(self.g, self.N, lead=self.lead)

    @cached_property
    def Gamma(self) -> Series:
        D, tr = self.delta_g, self._transpose  # D[(p,) a, b, c]
        # low[j, k, l] = (delta_j g_lk + delta_k g_jl - delta_l g_jk) / 2
        low = 0.5 * (tr(D, 0, 2, 1) + tr(D, 2, 0, 1) - tr(D, 1, 2, 0))
        return contract(self._spec("il,jkl->ijk"), self.gi, low)


def _stage(name: str, doc: str) -> cached_property:
    """A :class:`Tower` stage: the tower's point of its batch's stage ``name``."""

    def read(t: "Tower") -> Series:
        return t._batch.read(name, t._index)

    read.__name__, read.__doc__ = name, doc
    return cached_property(read)


class Tower:
    """Lazily computed Taylor series of the fundamental objects at a point.

    ``order`` is the truncation order of the underlying ring, an int or an
    ``(order, xorder)`` pair whose ``xorder`` bounds the degree in the base
    variables ``x``; each derived object is valid to correspondingly lower
    orders (every derivative lowers the order, an x-derivative the x-order
    too; the series track this themselves and refuse to hand out untrusted
    coefficients, so a pair that is too low raises
    :class:`~finslerconn.ad.TruncationError` instead of cutting results).

    A tower is a view of one point of a batch (:class:`_Batch`): its stages
    slice the batch's, computed for all the batch's points on the first read
    by any of its towers.  :meth:`FinslerStructure.towers` declares a batch;
    a tower asked for alone is a batch of one.  Invalid inputs (non-positive
    norm, degenerate fundamental tensor) raise :class:`DomainError` when a
    stage is first read.

    Built only by :meth:`FinslerStructure.tower`; other modules memoize
    values derived from a tower with :meth:`memo`.  A tower lives while its
    caller holds it: the structure's cache refers to it weakly and nothing
    memoized on it refers back strongly, so reference counting frees it,
    and all it memoizes, when its last holder lets go; its batch lives while
    one of its towers does.  It holds its structure weakly too, so
    :meth:`at` needs the structure still bound to a name.
    """

    lead = 0
    """The number of point axes in front of a stage: a tower has none."""

    def __init__(self, structure: FinslerStructure, point: ChartPoint, order):
        self.point = point
        self.n = point.n
        self._batch, self._index = structure._slot(point, order)
        self.cache: dict = {}

    def at(self, order: int | tuple[int, int]) -> "Tower":
        """The tower of the same point at another order, through
        :meth:`FinslerStructure.tower`: the live one, or a new one that lives
        while the caller holds it.  The first call for an order declares it
        for every point of this tower's batch, and the batch holds that new
        batch, so the other points' towers at that order share its stages."""
        batch = self._batch
        structure = batch.structure()
        if structure is None:
            raise ReferenceError("this tower's structure is gone; bind the structure to a name")
        if order not in batch.deeper:
            batch.deeper[order] = structure._declare(batch.points, order)
        return structure.tower(self.point, order)

    def memo(self, key, make):
        """The value memoized under ``key`` on this tower, ``make()`` on a miss."""
        return _memo(self.cache, key, make)

    @cached_property
    def jets(self) -> ChartJets:
        """The chart jets of this point, in the ring of the tower's order:
        its column of the batch's jets."""
        jets, i = self._batch.jets, self._index
        if not self._batch.lead:
            return jets
        return ChartJets(jets.ring, self.point.x, self.point.y, jets.xs[:, i], jets.ys[:, i])

    # -- base layer ----------------------------------------------------------

    L = _stage("L", "The norm as a series; a non-finite or non-positive value raises.")
    L2 = _stage("L2", "The squared norm.")
    g = _stage("g", "Fundamental tensor, shape (n, n).")
    gi = _stage("gi", "Inverse fundamental tensor, shape (n, n).")
    T_low = _stage("T_low", "Lowered Cartan tensor T_ijk, shape (n, n, n), totally symmetric.")
    T_mix = _stage("T_mix", "Mixed Cartan tensor T^i_jk = g^il T_ljk, shape (n, n, n).")
    ell = _stage("ell", "Hilbert form components l_i = dL/dy_i, shape (n,).")
    S = _stage("S", "Vertical curvature S[i, m, j, k] of the metric connection, shape (n,) * 4.")

    # -- spray layer ---------------------------------------------------------

    G = _stage("G", "Geodesic spray coefficients G^i, shape (n,).")
    N = _stage("N", "Canonical nonlinear connection N^i_j = dG^i/dy_j, shape (n, n).")
    delta_g = _stage(
        "delta_g",
        "Horizontal derivatives of the fundamental tensor, shape (n, n, n): "
        "``[j, k, l]`` is ``delta_j g_kl``.",
    )
    Gamma = _stage(
        "Gamma",
        "Metric horizontal coefficients, shape (n, n, n), [i, j, k].\n\n"
        "Symmetric in (j, k); together with ``N`` and ``T_mix`` these are the\n"
        "coefficients of the metric connection this whole package deforms.",
    )

    def delta(self, s: Series, j: int) -> Series:
        """Horizontal derivative delta_j = d/dx_j - N^m_j d/dy_m of a series,
        the ``j``-th entry of :func:`horizontal_gradient`."""
        return horizontal_gradient(s, self.N)[j]

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

