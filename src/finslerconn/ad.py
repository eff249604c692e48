"""Truncated multivariate Taylor arithmetic (forward-mode AD of any order).

Everything in this package that needs derivatives -- the metric tensor from
a norm function, spray and connection coefficients from the metric,
curvature from the coefficients -- runs on the :class:`Series` type defined
here: a dense truncated Taylor expansion in the ``2n`` chart variables
``(x_1..x_n, y_1..y_n)`` around a point.  Products, quotients, analytic
functions and partial derivatives are exact operations on the coefficient
vectors, so nested derivatives of computed quantities (e.g. a y-derivative
of a coefficient that itself contains x-derivatives of the metric) come out
to machine precision instead of finite-difference accuracy.

A few details matter for correctness downstream:

* A series' ring is its trusted order: a ``Series`` stores exactly the
  coefficients of total degree ``<= ring.order`` (and of x-degree ``<=
  ring.xorder``, below), and ``Series.valid`` is that order.  A sum or
  product of series of orders ``p`` and ``q`` lives in the ring of order
  ``min(p, q)``; a derivative drops the order by one; analytic functions
  preserve it.  Extracting a coefficient past the order
  raises :class:`TruncationError`, so a pipeline that was evaluated at too
  low an order fails loudly instead of returning silently wrong zeros.
* Monomials are graded, so cutting a series to a lower order takes a
  prefix of its coefficients, and the product in ``ring(nvars, v)`` sums
  the same pairs in the same order as the product in any higher ring does
  for its coefficients of degree ``<= v`` (truncated Taylor arithmetic,
  Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).
* Rings are bi-graded: ``ring(nvars, order, xorder)`` also drops the
  monomials of degree above ``xorder`` in the base variables, the first
  ``nvars // 2`` (``xorder >= order``, or ``None``, cuts nothing; the
  order of chart jets is an int or an ``(order, xorder)`` pair).
  Its monomials are the uncut graded list filtered, and its pairs are the
  uncut ring's pairs whose product is kept (x-degrees add, so both
  factors are kept too), so every kept coefficient is bit-identical to
  the uncut ring's.  A derivative along a base variable lowers the
  x-order as well, :func:`lower` takes the lower of each order (its ring
  and cut indices are looked up once per tuple of rings), and a derivative
  or coefficient past the x-order raises :class:`TruncationError`.
* A ``Series`` holds a whole numpy *batch* of expansions (``coef`` has shape
  ``(*batch, ring.dim)``), so tensors of series are vectorized.  A product
  runs the ring's pair table (:meth:`TaylorRing.mul_coef`), except that a
  constant factor just scales the other, with the same bits
  (:func:`_product`).
* A formula cuts its factors to their meet before it multiplies
  (:func:`lower`), so each product runs in the ring its result keeps; a
  lower ring's product sums the same pairs in the same order (the graded
  and bi-graded points above), so the kept coefficients keep their bits.
  :func:`lower_to` cuts series to a given ``(order, xorder)``, the ring a
  reader reads them in.
* Every index contraction of such tensors goes through :func:`contract`,
  an einsum over the batch axes (``contract("il,ljk->ijk", gi, T)``)
  compiled once per signature into a plan of layouts, meets and sums.
* Every gradient is one call built on :meth:`Series.d`: :meth:`Series.dx`
  and :meth:`Series.dy` stack the partials along ``x`` or ``y`` on a new
  batch axis (``g.dy(axis=2)[i, j, k]`` is ``dg_ij/dy_k``).

Typical usage::

    jets = ChartJets.at(x=[0.1, 0.2], y=[0.4, 1.0], order=4)
    s = (jets.ys[0] ** 2 + jets.ys[1] ** 2).sqrt()   # |y| as a series
    s.extract((0, 0, 1, 0))                          # d|y| / dy_1
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

__all__ = [
    "TruncationError",
    "TaylorRing",
    "ring",
    "Series",
    "ChartJets",
    "Field",
    "Constant",
    "lower",
    "lower_to",
    "contract",
    "matmul",
    "matinv",
]


class TruncationError(Exception):
    """A coefficient or derivative past the trusted truncation order was used."""


# ---------------------------------------------------------------------------
# rings


SCATTER_ENTRIES = 1 << 12
"""Entries of a ring's cached scatter index (:meth:`TaylorRing.mul_coef`):
at most this many, or one column's pairs where a column has more; a
product of more columns scatters in chunks of that many.  This keeps each
ring's index at 32 KB, and the cache of the built-in check's rings at
0.38 MB, where one index per column count held 1.3 MB once points are
batched.  Twice the budget ran the 3-d curvature and Bianchi suites about
5 % faster but held twice the memory (``BENCH_25.json``)."""


class TaylorRing:
    """The polynomial ring in ``nvars`` variables, truncated past ``order``
    in total degree and past ``xorder`` in the degree of the base variables.

    The first ``nvars // 2`` variables are the base ``x``, the rest the
    fiber ``y``; ``xorder >= order`` (the default) cuts nothing in ``x``.
    Monomials are the graded list of the uncut ring (all of degree 0, then
    1, ...) with those of x-degree above ``xorder`` left out, so every
    total-degree cutoff is still a prefix of the coefficient vector.
    """

    def __init__(self, nvars: int, order: int, xorder: int | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if order < 0:
            raise ValueError("order must be non-negative")
        xorder = order if xorder is None else min(xorder, order)
        if xorder < 0:
            raise ValueError("x-order must be non-negative")
        self.nvars = nvars
        self.order = order
        self.xorder = xorder
        nx = nvars // 2
        mons: list[tuple[int, ...]] = []
        for total in range(order + 1):
            for combo in itertools.combinations_with_replacement(range(nvars), total):
                e = [0] * nvars
                for v in combo:
                    e[v] += 1
                if sum(e[:nx]) <= xorder:
                    mons.append(tuple(e))
        self.monomials = mons
        self.index = {m: i for i, m in enumerate(mons)}
        self.dim = len(mons)
        self.degree = np.array([sum(m) for m in mons], dtype=np.int64)
        self.xdegree = np.array([sum(m[:nx]) for m in mons], dtype=np.int64)
        # _prefix[d] is the number of monomials of degree < d, for d = 0..order+1
        self._prefix = np.searchsorted(self.degree, np.arange(order + 2), side="left")
        self._mul_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._scatter_cache: dict[int, np.ndarray] = {}  # columns -> prefix of one index (mul_coef)
        self._diff_cache: dict[int | str, tuple[np.ndarray, np.ndarray, TaylorRing]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaylorRing(nvars={self.nvars}, order={self.order}, "
            f"xorder={self.xorder}, dim={self.dim})"
        )

    def _mul_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Factor indices ``I, J`` of every pair and the index ``K`` of the
        coefficient their product adds to.

        The pairs are those of the uncut ring of this order whose product is
        kept (its factors then are too, as x-degrees add), in the same
        order, so each kept coefficient sums the same pairs as there.
        """
        if self._mul_cache is None:
            I: list[int] = []
            J: list[int] = []
            K: list[int] = []
            xdegree = self.xdegree.tolist()
            for i, mi in enumerate(self.monomials):
                budget = self.order - int(self.degree[i])
                xbudget = self.xorder - xdegree[i]
                stop = int(self._prefix[budget + 1])
                for j in range(stop):
                    if xdegree[j] > xbudget:
                        continue
                    mj = self.monomials[j]
                    I.append(i)
                    J.append(j)
                    K.append(self.index[tuple(a + b for a, b in zip(mi, mj))])
            self._mul_cache = (np.array(I), np.array(J), np.array(K, dtype=np.intp))
        return self._mul_cache

    def _diff_table(self, var: int | str) -> tuple[np.ndarray, np.ndarray, "TaylorRing"]:
        """Source index and factor of each coefficient of ``d/dv_var``, and
        the ring of the derivative (``"x"`` or ``"y"``: those of every base
        or fiber variable, stacked).  That ring is one order lower, and one
        x-order lower for a base variable; the entries follow its monomials,
        so the derivative is one gather: ``coef[..., src] * fac``.
        """
        tab = self._diff_cache.get(var)
        if tab is None and isinstance(var, str):
            n = self.nvars // 2
            src, fac, low = zip(*(self._diff_table(v + {"x": 0, "y": n}[var]) for v in range(n)))
            tab = self._diff_cache[var] = (np.stack(src), np.stack(fac), low[0])
        if tab is None:
            low = ring(self.nvars, self.order - 1, self.xorder - (var < self.nvars // 2))
            src, fac = [], []
            for m in low.monomials:
                up = m[:var] + (m[var] + 1,) + m[var + 1 :]
                src.append(self.index[up])
                fac.append(float(up[var]))
            tab = self._diff_cache[var] = (np.array(src, dtype=np.int64), np.array(fac), low)
        return tab

    def meet(self, other: "TaylorRing") -> "TaylorRing":
        """The ring of the lower order and the lower x-order of two rings."""
        if other.nvars != self.nvars:
            raise ValueError("series over different numbers of variables")
        return ring(self.nvars, min(self.order, other.order), min(self.xorder, other.xorder))

    def cut_index(self, target: "TaylorRing") -> slice | np.ndarray:
        """Where the coefficients of a ring of no higher orders sit in ours.

        A cut that keeps a leading run of monomials (every total-order cut)
        is a slice, so ``coef[..., idx]`` is a view of that prefix; any
        other is a gather.
        """
        pos = np.array([self.index[m] for m in target.monomials], dtype=np.int64)
        return slice(0, target.dim) if np.array_equal(pos, np.arange(target.dim)) else pos

    def mul_coef(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Ring product along the last axis, numpy-broadcast over the rest.

        Each factor is one ``take`` of its pair indices, and one
        ``np.bincount`` scatters their ``(*batch, npairs)`` product ``W``
        over the flat index ``col * dim + K[p]`` (:meth:`_scatter_index`:
        building it costs as much as the gather).  It adds in input order
        from ``+0.0``, so each coefficient sums its own pairs in pair order
        and every finite and infinite value keeps its bits; a NaN sum keeps
        its NaN.  ``bincount`` computes in float64.  More columns than the
        index covers scatter in chunks of that many, each column still
        summing its own pairs, so the bits do not depend on the chunking.
        """
        I, J, K = self._mul_table()
        W = a.take(I, axis=-1) * b.take(J, axis=-1)
        shape = W.shape[:-1] + (self.dim,)
        npairs = len(I)
        ncols = W.size // npairs
        if not ncols:  # bincount of an empty index gives integers
            return np.zeros(shape)
        idx = self._scatter_cache.get(ncols)
        if idx is None:
            idx = self._scatter_index(ncols)
        if len(idx) == W.size:
            return np.bincount(idx, weights=W.ravel(), minlength=ncols * self.dim).reshape(shape)
        W, out, chunk = W.reshape(ncols, npairs), np.empty((ncols, self.dim)), len(idx) // npairs
        for start in range(0, ncols, chunk):
            part = W[start : start + chunk]
            out[start : start + len(part)] = np.bincount(
                idx[: part.size], weights=part.ravel(), minlength=len(part) * self.dim
            ).reshape(-1, self.dim)
        return out.reshape(shape)

    def _scatter_index(self, ncols: int) -> np.ndarray:
        """The flat scatter index of :meth:`mul_coef` for ``min(ncols,
        SCATTER_ENTRIES // npairs)`` columns (one at least), cached under
        ``ncols``.

        Each is a prefix of one index per ring, the index for the most
        columns asked for up to that cap: the first ``c * npairs`` entries
        are the index for ``c`` columns.  The index is built again only when
        it grows, and the cached prefixes then move to the new one.
        """
        K = self._mul_table()[2]
        want = min(ncols, max(1, SCATTER_ENTRIES // len(K)))
        full = max(self._scatter_cache.values(), key=len, default=K[:0])
        if len(full) < want * len(K):
            full = ((np.arange(want) * self.dim)[:, None] + K).ravel()
            for cols, idx in self._scatter_cache.items():
                self._scatter_cache[cols] = full[: len(idx)]
        idx = self._scatter_cache[ncols] = full[: want * len(K)]
        return idx


_RINGS: dict[tuple[int, int, int], TaylorRing] = {}


def ring(nvars: int, order: int, xorder: int | None = None) -> TaylorRing:
    """Shared ring factory; multiplication/derivative tables are reused.

    Rings are keyed by ``(nvars, order, xorder)``, an ``xorder`` of
    ``None`` or at least ``order`` being the uncut ring.
    """
    key = (nvars, order, order if xorder is None else min(xorder, order))
    rg = _RINGS.get(key)
    if rg is None:
        rg = _RINGS[key] = TaylorRing(*key)
    return rg


# ---------------------------------------------------------------------------
# series


def _binom_real(r: float, m: int) -> float:
    out = 1.0
    for i in range(m):
        out *= (r - i) / (i + 1)
    return out


_MEETS: dict[tuple[TaylorRing, ...], tuple[TaylorRing, tuple]] = {}


def _meet_plan(rings: tuple[TaylorRing, ...]) -> tuple[TaylorRing, tuple]:
    """The ring of the lowest order and x-order of rings that differ, and
    the cut index of each into it (None for one that is it), per tuple."""
    plan = _MEETS.get(rings)
    if plan is None:
        rg = rings[0]
        for r in rings:
            rg = rg.meet(r)
        plan = _MEETS[rings] = (rg, tuple(None if r is rg else r.cut_index(rg) for r in rings))
    return plan


def lower(*series: "Series") -> list["Series"]:
    """The series cut to the ring of their lowest order and x-order.

    That ring is the one their sum, product or stack lands in; a series
    already in it comes back as itself, a total-order cut is a view of its
    coefficient prefix and an x-order cut one ``take``.  A formula whose
    sum lands below some of its factors' rings calls this first, so each
    product runs in the ring its result keeps, with the same bits.
    """
    rg = series[0].ring
    if all(s.ring is rg for s in series):
        return list(series)
    rg, cuts = _meet_plan(tuple(s.ring for s in series))
    return [s if c is None else Series(rg, _cut(s.coef, c)) for s, c in zip(series, cuts)]


def lower_to(order: tuple[int, int], *series: "Series") -> list["Series"]:
    """Each series cut to ``order``, an ``(order, xorder)`` pair: to the
    lower of each of its orders and those, itself where both are no higher.

    A reader that reads a result below the ring it was computed in cuts it
    here, so the products that follow run in the ring they are read in.
    """
    rg = ring(series[0].ring.nvars, *order)
    out = []
    for s in series:
        low, (c, _) = _meet_plan((s.ring, rg))
        out.append(s if c is None else Series(low, _cut(s.coef, c)))
    return out


def _cut(coef: np.ndarray, idx: slice | np.ndarray) -> np.ndarray:
    """The coefficients at ``idx`` along the ring axis: a view for a prefix
    slice, one ``take`` for a gather."""
    return coef[..., idx] if type(idx) is slice else coef.take(idx, axis=-1)


def _product(rg: TaylorRing, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product in ``rg`` of two coefficient arrays of that ring.

    A constant factor (every coefficient past the constant term zero, as
    every factor in a ring of one coefficient, where no scan is needed)
    scales the other one, broadcast over the batch, instead of running
    the ring product.  For finite coefficients that is bit-identical to
    :meth:`TaylorRing.mul_coef`: output ``k`` first receives the pair
    ``(0, k)``, every later pair adds a signed zero, and the ``+ 0.0``
    gives the +0.0 the product's sum starts from where the result is
    zero.  Where the other factor holds an inf or a NaN, the ring product
    also spreads NaN (``0 * inf``) to the coefficients it pairs with,
    while the scale keeps the non-finite value where it was (``c * inf``
    is ±inf, or NaN for ``c = 0``); either way the product holds a
    non-finite coefficient, so a residual computed from it fails closed.
    """
    if rg.dim == 1:
        out = a * b
    elif not np.count_nonzero(a[..., 1:]):
        out = a[..., :1] * b
    elif not np.count_nonzero(b[..., 1:]):
        out = a * b[..., :1]
    else:
        return rg.mul_coef(a, b)
    out += 0.0  # in place: the product is a new array
    return out


_FLOAT = np.dtype(float)


class Series:
    """A numpy batch of truncated Taylor expansions over one ring."""

    __slots__ = ("ring", "coef")

    # keep numpy from hijacking ndarray <op> Series elementwise
    __array_ufunc__ = None

    def __init__(self, rg: TaylorRing, coef: np.ndarray):
        self.ring = rg
        # most series are built from float arrays; skip the conversion call
        if type(coef) is not np.ndarray or coef.dtype is not _FLOAT:
            coef = np.asarray(coef, dtype=float)
        self.coef = coef

    @property
    def valid(self) -> int:
        """The trusted order, which is the order of the series' ring."""
        return self.ring.order

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, rg: TaylorRing, value) -> "Series":
        value = np.asarray(value, dtype=float)
        coef = np.zeros(value.shape + (rg.dim,))
        coef[..., 0] = value
        return cls(rg, coef)

    @staticmethod
    def stack(items: Sequence["Series"], axis: int = 0) -> "Series":
        items = lower(*items)
        return Series(items[0].ring, np.stack([s.coef for s in items], axis=axis))

    # -- shape helpers ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coef.shape[:-1]

    def __getitem__(self, key) -> "Series":
        if not isinstance(key, tuple):
            key = (key,)
        return Series(self.ring, self.coef[key + (slice(None),)])

    def sum(self, axis: int) -> "Series":
        if axis < 0:
            raise ValueError("sum axis must index batch dimensions (>= 0)")
        return Series(self.ring, self.coef.sum(axis=axis))

    def transpose(self, *axes: int) -> "Series":
        """Permute batch axes; the trailing ring axis stays in place."""
        if any(a < 0 for a in axes):
            raise ValueError("transpose axes must index batch dimensions (>= 0)")
        perm = tuple(axes) + (self.coef.ndim - 1,)
        return Series(self.ring, np.transpose(self.coef, perm))

    # -- extraction ---------------------------------------------------------

    @property
    def val(self) -> np.ndarray:
        """Constant term(s): the function value(s) at the expansion point."""
        return self.coef[..., 0]

    def extract(self, alpha: Sequence[int]) -> np.ndarray:
        """Partial-derivative value(s) for the multi-index ``alpha``."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.ring.nvars:
            raise ValueError(f"multi-index must have length {self.ring.nvars}")
        rg = self.ring
        k, kx = sum(alpha), sum(alpha[: rg.nvars // 2])
        if k > rg.order:
            raise TruncationError(
                f"order-{k} coefficient requested from a series valid to order {rg.order}"
            )
        if kx > rg.xorder:
            raise TruncationError(
                f"x-order-{kx} coefficient requested from a series valid to x-order {rg.xorder}"
            )
        return self.coef[..., rg.index[alpha]] * math.prod(
            math.factorial(a) for a in alpha
        )

    # -- arithmetic ---------------------------------------------------------

    def _lift(self, other) -> "Series | None":
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, float, np.floating, np.integer, np.ndarray)):
            return Series.const(self.ring, other)
        return None

    def __add__(self, other):
        if type(other) is Series and other.ring is self.ring:
            return Series(self.ring, self.coef + other.coef)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = lower(self, o)
        return Series(a.ring, a.coef + b.coef)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Series and other.ring is self.ring:
            return Series(self.ring, self.coef - other.coef)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = lower(self, o)
        return Series(a.ring, a.coef - b.coef)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = lower(self, o)
        return Series(a.ring, b.coef - a.coef)

    def __neg__(self):
        return Series(self.ring, -self.coef)

    def __mul__(self, other):
        if type(other) is Series and other.ring is self.ring:
            return Series(self.ring, _product(self.ring, self.coef, other.coef))
        if isinstance(other, (int, float, np.floating, np.integer)):
            # + 0.0: a zero product is +0.0, as the ring product and the
            # constant-factor scale of _product give it
            return Series(self.ring, self.coef * float(other) + 0.0)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = lower(self, o)
        return Series(a.ring, _product(a.ring, a.coef, b.coef))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        # a 0-d array divides as the scalar it holds, not by its reciprocal
        if isinstance(other, (int, float, np.floating, np.integer)) or (
            type(other) is np.ndarray and other.ndim == 0
        ):
            return Series(self.ring, self.coef / float(other))
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.recip()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.recip()

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)):
            return self._int_pow(int(p))
        if isinstance(p, (float, np.floating)):
            if float(p).is_integer():
                return self._int_pow(int(p))
            return self.powr(float(p))
        return NotImplemented

    def _int_pow(self, p: int) -> "Series":
        if p < 0:
            return self.recip()._int_pow(-p)
        out = Series.const(self.ring, np.ones(self.shape))
        base = self
        while p:
            if p & 1:
                out = out * base
            base = base * base if p > 1 else base
            p >>= 1
        return out

    # -- derivatives --------------------------------------------------------

    def d(self, var: int | str, axis: int = 0) -> "Series":
        """Partial derivative with respect to ring variable ``var``, one order
        lower (and one x-order lower for a base variable); ``"x"`` or ``"y"``
        stacks those along every base or fiber variable on a new batch axis
        ``axis`` in one gather, with the bits and C order of stacking each."""
        rg = self.ring
        first = {"x": 0, "y": rg.nvars // 2}.get(var, var)
        if rg.order < 1:
            raise TruncationError("cannot differentiate a series valid only to order 0")
        if rg.xorder < 1 and first < rg.nvars // 2:
            raise TruncationError(
                f"cannot differentiate along x{first + 1} a series valid only to x-order 0"
            )
        src, fac, low = rg._diff_table(var)
        coef, nb = self.coef.take(src, axis=-1) * fac, self.coef.ndim - 1
        if isinstance(var, str) and axis != nb:  # the new axis sits before the ring axis
            coef = np.ascontiguousarray(coef.transpose(*range(axis), nb, *range(axis, nb), nb + 1))
        return Series(low, coef)

    def dx(self, axis: int = 0) -> "Series":
        """The partials along the base variables, stacked on a new batch axis."""
        return self.d("x", axis)

    def dy(self, axis: int = 0) -> "Series":
        """The partials along the fiber variables, stacked on a new batch axis."""
        return self.d("y", axis)

    # -- analytic functions -------------------------------------------------

    def _compose(self, dcoefs: list[np.ndarray]) -> "Series":
        """Evaluate sum_m dcoefs[m] * (s - s0)^m in the ring (Horner)."""
        rg = self.ring
        t = self.coef.copy()
        t[..., 0] = 0.0
        acc = np.zeros(np.broadcast_shapes(self.shape, dcoefs[-1].shape) + (rg.dim,))
        acc[..., 0] = dcoefs[rg.order]
        for m in range(rg.order - 1, -1, -1):
            acc = _product(rg, acc, t)
            acc[..., 0] += dcoefs[m]
        return Series(rg, acc)

    def recip(self) -> "Series":
        c0 = self.val
        if np.any(c0 == 0.0):
            raise ZeroDivisionError("series with zero constant term has no reciprocal")
        dcoefs = [((-1.0) ** m) / c0 ** (m + 1) for m in range(self.ring.order + 1)]
        return self._compose(dcoefs)

    def powr(self, r: float) -> "Series":
        c0 = self.val
        if np.any(c0 <= 0.0):
            raise ValueError("fractional power of a series needs a positive value")
        dcoefs = [_binom_real(r, m) * c0 ** (r - m) for m in range(self.ring.order + 1)]
        return self._compose(dcoefs)

    def sqrt(self) -> "Series":
        return self.powr(0.5)

    def exp(self) -> "Series":
        e0 = np.exp(self.val)
        dcoefs = [e0 / math.factorial(m) for m in range(self.ring.order + 1)]
        return self._compose(dcoefs)

    def log(self) -> "Series":
        c0 = self.val
        if np.any(c0 <= 0.0):
            raise ValueError("log of a series needs a positive value")
        dcoefs = [np.log(c0)] + [
            ((-1.0) ** (m + 1)) / (m * c0**m) for m in range(1, self.ring.order + 1)
        ]
        return self._compose(dcoefs)

    def sin(self) -> "Series":
        c0 = self.val
        dcoefs = [np.sin(c0 + m * math.pi / 2) / math.factorial(m) for m in range(self.ring.order + 1)]
        return self._compose(dcoefs)

    def cos(self) -> "Series":
        c0 = self.val
        dcoefs = [np.cos(c0 + m * math.pi / 2) / math.factorial(m) for m in range(self.ring.order + 1)]
        return self._compose(dcoefs)

    def abs(self) -> "Series":
        c0 = self.val
        if self.ring.order >= 1 and np.any(c0 == 0.0):
            raise ValueError("abs is not differentiable at 0")
        sign = np.where(c0 >= 0.0, 1.0, -1.0)
        return Series(self.ring, self.coef * sign[..., None])


# ---------------------------------------------------------------------------
# contraction over the tensor axes


_PLANS: dict[tuple, tuple] = {}


def _contraction_plan(spec: str, series: Sequence[Series]) -> tuple:
    """A signature's operands checked against ``spec``; per operand its diagonal,
    layout, product ring and cuts into it; the summed axes; the output order."""
    lhs, arrow, out = spec.replace(" ", "").partition("->")
    terms, letters = lhs.split(","), lhs.replace(",", "")
    if not arrow or not (letters + out).isascii() or not (letters + out).isalpha():
        raise ValueError(f"malformed contraction spec {spec!r}; expected e.g. 'ij,jk->ik'")
    order = "".join(dict.fromkeys(letters))  # the broadcast layout
    if len(set(out)) != len(out) or not set(out) <= set(order):
        raise ValueError(f"output of contraction spec {spec!r} must name distinct input indices")
    if len(series) != len(terms):
        raise ValueError(f"spec {spec!r} names {len(terms)} operands, got {len(series)}")
    sizes: dict[str, int] = {}
    steps, rg = [], series[0].ring
    for s, term in zip(series, terms):
        if len(s.shape) != len(term):
            raise ValueError(f"operand {term!r} of {spec!r} has shape {s.shape}")
        for c, k in zip(term, s.shape):
            if sizes.setdefault(c, k) != k:
                raise ValueError(f"index {c!r} of {spec!r} has sizes {sizes[c]} and {k}")
        uniq = "".join(dict.fromkeys(term))
        perm = tuple(sorted(range(len(uniq)), key=lambda a: order.index(uniq[a])))
        expand = tuple(slice(None) if c in uniq else None for c in order)
        diagonal = None if uniq == term else f"{term}...->{uniq}..."
        rg, cuts = _meet_plan((rg, s.ring)) if s.ring is not rg else (rg, (None, None))
        steps.append((diagonal, perm + (len(uniq),), expand + (slice(None),), rg, *cuts))
    summed, kept = [c for c in order if c not in out], [c for c in order if c in out]
    # one axis at a time, in index order; each sum shifts the later axes left
    sum_axes = tuple(order.index(c) - i for i, c in enumerate(summed))
    return steps, sum_axes, tuple(kept.index(c) for c in out) + (len(out),)


def contract(spec: str, *series: Series) -> Series:
    """Einsum-style contraction over the tensor axes of series.

    ``contract("ij,jk->ik", a, b)`` is the matrix product; an index repeated
    in one operand takes its diagonal (``"imki->mk"`` is a trace).  The
    operands are broadcast on the indices in order of first appearance and
    multiplied left to right, each product in the meet of its factors'
    rings, the indices left out of the output are summed one by one in that
    order, and the output order is a view.  Each signature (spec, operand
    rings and shapes) is checked and planned once (:func:`_contraction_plan`).
    """
    key = (spec, *[(s.ring, s.coef.shape) for s in series])
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _contraction_plan(spec, series)
    steps, sum_axes, out_perm = plan
    prod = None
    for s, (diagonal, perm, expand, rg, cut_prod, cut_op) in zip(series, steps):
        coef = (s.coef if diagonal is None else np.einsum(diagonal, s.coef)).transpose(perm)[expand]
        if prod is not None:
            prod = prod if cut_prod is None else _cut(prod, cut_prod)
            coef = _product(rg, prod, coef if cut_op is None else _cut(coef, cut_op))
        prod = coef
    for axis in sum_axes:
        prod = np.add.reduce(prod, axis=axis)  # ``prod.sum(axis=axis)``, without its wrapper
    return Series(rg, prod.transpose(out_perm))


# ---------------------------------------------------------------------------
# matrix helpers over the ring


def matmul(a: Series, b: Series) -> Series:
    """Matrix product of two (n, n)-batched series."""
    return contract("ij,jk->ik", a, b)


def matinv(g: Series) -> Series:
    """Inverse of an (n, n)-batched series matrix via a Neumann expansion,
    or of each matrix of a ``(points, n, n)`` batch.

    Requires the constant-term matrix to be invertible; the correction part
    is nilpotent in the truncated ring, so the expansion terminates exactly.
    """
    n = g.coef.shape[-2]
    if g.coef.ndim not in (3, 4) or g.coef.shape[-3] != n:
        raise ValueError("matinv expects an (n, n) series batch")
    p = "p" * (g.coef.ndim - 3)  # the leading point axis, if any
    rg = g.ring
    b0 = np.linalg.inv(g.val)
    b0g = Series(rg, np.einsum(f"{p}ij,{p}jkd->{p}ikd", b0, g.coef))
    acc = Series.const(rg, np.eye(n) + np.zeros(b0.shape))  # one identity per matrix
    rem = acc - b0g  # constant term is 0
    power = rem
    for k in range(rg.order):
        if k:
            power = contract(f"{p}ij,{p}jk->{p}ik", power, rem)
        acc = acc + power
    return Series(rg, np.einsum(f"{p}ijd,{p}jk->{p}ikd", acc.coef, b0))


# ---------------------------------------------------------------------------
# chart seeding


@dataclass
class ChartJets:
    """Coordinate series ``x_i = x0_i + dx_i``, ``y_i = y0_i + dy_i``.

    The ring has ``2n`` variables: 0..n-1 are the x-slots, n..2n-1 the
    y-slots.  Every field in the package is evaluated on one of these,
    directly or through the :class:`~finslerconn.finsler.Tower` built on it.
    """

    ring: TaylorRing
    x0: np.ndarray
    y0: np.ndarray
    xs: Series
    ys: Series

    @classmethod
    def at(cls, x, y, order: int | tuple[int, int]) -> "ChartJets":
        """The jets at ``(x, y)`` to ``order``: an int, or an ``(order,
        xorder)`` pair that also cuts the degree in ``x``.

        ``x`` and ``y`` are one point's coordinates, shape ``(n,)``, or the
        columns of a batch of points, shape ``(n, points)``; then each
        coordinate series holds one expansion per point, and so does every
        field evaluated on the jets.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim not in (1, 2) or y.shape != x.shape:
            raise ValueError("x and y must be 1-d arrays of equal length, or 2-d of equal shape")
        n = x.shape[0]
        total, xorder = order if isinstance(order, tuple) else (order, None)
        rg = ring(2 * n, total, xorder)
        xs, ys = np.zeros(x.shape + (rg.dim,)), np.zeros(y.shape + (rg.dim,))
        xs[..., 0], ys[..., 0] = x, y
        for i in range(n):  # each coordinate's own first-order term
            for coef, var in ((xs, i), (ys, n + i)):
                e = tuple(int(v == var) for v in range(2 * n))
                if e in rg.index:  # not at order 0, nor for x at x-order 0
                    coef[i, ..., rg.index[e]] = 1.0
        xs, ys = Series(rg, xs), Series(rg, ys)
        return cls(rg, x, y, xs, ys)

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    def const(self, value) -> Series:
        return Series.const(self.ring, value)


# ---------------------------------------------------------------------------
# fields


class Field(Protocol):
    """Anything evaluable to a series on the jets of a chart point.

    ``eval`` receives a :class:`ChartJets` or the point's
    :class:`~finslerconn.finsler.Tower` (which offers the same ``xs``,
    ``ys`` and ``const``).  Parameter fields are evaluated on the tower,
    except expression fields, which a pack runs on the jets cut to the
    ring of ``g``, or to the ring its data is read in; a field that reads
    the metric (``t.g``, ``t.ell``, ...) needs a tower, and over a batch
    of towers (``t.lead`` 1) is evaluated on the batch once, every value
    with the point axis first.  Scalars evaluate to a ``()``-batched
    series, one-forms to ``(n,)`` components and endomorphisms to
    ``(n, n)``, entry ``[i, j]`` being the i-th component of the image of
    the j-th frame vector.

    A field's value is trusted to the orders of the tower it is evaluated
    on, less the derivatives it takes: a field that needs a deeper tower of
    the same point reads it with :meth:`~finslerconn.finsler.Tower.at`
    (:class:`~finslerconn.connection.RicciEndomorphism`), so callers ask
    only for the orders their own residuals need; the tower's structure
    must then still be bound to a name.
    """

    def eval(self, t) -> Series: ...


@dataclass(frozen=True, eq=False)
class Constant:
    """A field with the same value everywhere: a number, a one-form's
    components or an endomorphism's rows."""

    values: np.ndarray

    def __init__(self, values):
        values = np.array(values, dtype=float)  # a read-only copy: the field never changes
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def eval(self, t) -> Series:
        return t.const(self.values)

    def describe(self) -> str:
        return f"constant {self.values.tolist()}"
