"""Deformations of the metric connection by six parameter fields.

A deformation is specified by two scalar weights ``f1, f2``, three one-forms
``A, B, u`` and an endomorphism field ``phi`` on the chart (all may depend on
position and direction; each is evaluated on the tower of the point, so a
field may also read the metric there).  From these the module constructs the
unique regular connection triple ``(N', H', V')`` that

* keeps the vertical coefficients of the metric connection (``V' = T``) and
  stays vertically metric-compatible,
* has the prescribed horizontal metric deficit
  ``2 f1 A_j g_kl + f2 (B_k g_lj + B_l g_jk)``,
* has quarter-symmetric horizontal torsion ``u_k phi^i_j - u_j phi^i_k``.

Setting all six parameters to zero recovers the metric connection exactly.

The construction runs through three derived objects, each a stage of
:class:`DeformationData` (read a value at a point as
``t = F.tower(point, order)``, then
``deformation_data(params, t, (0, 0)).<stage>.val``, holding ``t`` while the
data is read; the pair is the ring the caller reads, so a reader of first
derivatives passes ``(1, 1)``, and without it each stage keeps every order
its inputs allow; :func:`deformed_at` gives the data and the connection
read in one ring together):

* :attr:`DeformationData.eta_shift` -- the vertical displacement of the
  canonical spray,
* :attr:`DeformationData.frame_shift` -- the tilt of each horizontal frame
  leg, so the deformed nonlinear connection is ``N - frame_shift``,
* :attr:`DeformationData.difference` -- the remaining correction to the
  horizontal coefficients beyond the tilt.

:func:`horizontal_from_compatibility` rebuilds the horizontal coefficients
directly from the defining conditions by the Christoffel trick; because the
conditions pin the connection uniquely, that gives the verification suite a
second, independent route to every coefficient.  :func:`torsion_relations`
and :func:`curvature_relations` evaluate the residuals of the identities that
tie the deformed torsions and curvatures back to the metric ones.

Each per-point reader (:func:`construction_residuals`,
:func:`torsion_relations`, :func:`curvature_relations`,
``verify.theorem_residuals``, ``verify.bianchi_residuals``,
``verify.fd_residuals`` and ``processes.diagram_residuals``) is one
formula over a tower or a batch of towers: the rows over a batch are
computed once, in the batch's memo, and each point's call returns its
slice of them (:func:`point_rows`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .ad import ChartJets, Constant, Field, Series, TruncationError, contract, lower, lower_to
from .connection import (
    CARTAN,
    Connection,
    cov_deriv,
    curvature_h,
    curvature_mixed,
    curvature_v,
    torsions,
)
from .expr import (
    ExprCovectorField,
    ExprError,
    ExprField,
    ExprMatrixField,
    ExprScalarField,
    Tape,
)
from .finsler import (
    ChartPoint,
    DomainError,
    FinslerStructure,
    Tower,
    _Batch,
    _where,
    horizontal_gradient,
    lead_spec,
    lead_transpose,
)

__all__ = [
    "DeformationParams",
    "DeformationData",
    "deformation_data",
    "parameter_field",
    "parameter_values",
    "field_value",
    "build",
    "deformed_at",
    "horizontal_from_compatibility",
    "construction_residuals",
    "torsion_relations",
    "curvature_relations",
]


_SLOTS = ("f1", "f2", "A", "B", "u", "phi")


@dataclass(eq=False)
class DeformationParams:
    """The six defining fields of a deformation.

    ``f1`` and ``f2`` weigh the two metric-deficit shapes, ``A`` and ``B``
    are the one-forms appearing in them, ``u`` and ``phi`` prescribe the
    quarter-symmetric horizontal torsion.  All six are fields evaluated on
    the tower of a point, so constant, position/direction-dependent and
    metric-derived parameters are handled uniformly.
    """

    f1: Field
    f2: Field
    A: Field
    B: Field
    u: Field
    phi: Field
    name: str = ""

    @classmethod
    def zero(cls, n: int, name: str = "zero") -> "DeformationParams":
        """The trivial deformation: builds the metric connection itself."""
        return cls(
            f1=Constant(0.0),
            f2=Constant(0.0),
            A=Constant(np.zeros(n)),
            B=Constant(np.zeros(n)),
            u=Constant(np.zeros(n)),
            phi=Constant(np.zeros((n, n))),
            name=name,
        )

    @cached_property
    def tape(self) -> Tape | None:
        """The pack's :func:`_tape`, compiled on first use, so the slots are
        not to be reassigned after a first evaluation."""
        return _tape([self])

    def describe(self) -> str:
        parts = []
        for label in _SLOTS:
            field = getattr(self, label)
            text = getattr(field, "describe", lambda: type(field).__name__)()
            parts.append(f"{label}={text}")
        return ", ".join(parts)


def _tape(packs: Sequence[DeformationParams]) -> Tape | None:
    """The trees of every expression field of ``packs``, slot after slot
    and, within a slot, pack after pack, compiled into one tape; None when
    no slot holds an expression field or the fields disagree on the chart
    dimension."""
    fields = [
        f for s in _SLOTS for f in (getattr(p, s) for p in packs) if isinstance(f, ExprField)
    ]
    if not fields or len({f.n for f in fields}) > 1:
        return None
    return Tape([tree for f in fields for tree in f.trees], fields[0].n)


def parameter_field(slot: str, value, n: int):
    """``value`` as the field of one parameter slot on an ``n``-dimensional chart.

    ``f1`` and ``f2`` are scalars, ``A``, ``B`` and ``u`` one-forms, ``phi``
    an endomorphism.  A field (anything with ``eval``) is kept as given.
    Otherwise a scalar is a number or an expression text, a one-form a
    tuple of components and an endomorphism a grid of rows; all-text
    components make an expression field, numbers a :class:`Constant`.
    Components that mix texts and numbers raise ``ValueError`` naming the
    slot and the first component of the other kind.
    """
    if hasattr(value, "eval"):
        return value
    if slot in ("f1", "f2"):
        if isinstance(value, str):
            return ExprScalarField(n, value)
    elif slot in ("A", "B", "u"):
        value = tuple(value)
        if _all_texts(slot, {f"[{i}]": c for i, c in enumerate(value)}):
            return ExprCovectorField(n, value)
    elif slot == "phi":
        value = tuple(tuple(r) for r in value)
        grid = {f"[{i}][{j}]": c for i, row in enumerate(value) for j, c in enumerate(row)}
        if _all_texts(slot, grid):
            return ExprMatrixField(n, value)
    else:
        raise ValueError(f"unknown parameter slot {slot!r}; slots are f1, f2, A, B, u, phi")
    return Constant(value)


def _all_texts(slot: str, components: dict[str, object]) -> bool:
    """Whether every component is an expression text rather than a number."""
    texts = [isinstance(c, str) for c in components.values()]
    for (index, c), is_text in zip(components.items(), texts):
        if is_text != texts[0]:
            first, c0 = next(iter(components.items()))
            raise ValueError(
                f"parameter {slot} mixes expression texts and numbers: {slot}{index} is "
                f"{c!r} but {slot}{first} is {c0!r}; give every component as a text "
                f"or every one as a number"
            )
    return all(texts)


def field_value(field: Field, src: Tower | _Batch, jets: ChartJets | None = None) -> Series:
    """``field`` on a tower, or on a batch with the point axis first.

    An expression field runs on ``jets`` (default: those of ``src``), a
    :class:`~finslerconn.ad.Constant` is the same at every point (over a
    batch, in the ring of ``jets``), and any other field (one that reads
    the metric) evaluates on ``src`` itself.
    """
    jets = src.jets if jets is None else jets
    if isinstance(field, ExprField):
        value = field.eval(jets)
        if src.lead:  # [..., point] -> [point, ...]
            value = Series(value.ring, np.moveaxis(value.coef, -2, 0))
        return value
    if src.lead and isinstance(field, Constant):
        value = field.values
        return jets.const(np.broadcast_to(value, (len(src.points),) + value.shape))
    return field.eval(src)


def parameter_values(
    params: DeformationParams | Sequence[DeformationParams],
    src: Tower | _Batch,
    read: tuple[int, int] | None = None,
) -> list[Series]:
    """The six values of ``params`` on a tower or a batch, then ``eye``, each
    evaluated in the ring of ``g`` cut to ``read`` and copied: the values
    :class:`DeformationData` starts from, checked as it describes.

    ``params`` may also be several packs, over a batch: then each value
    holds theirs side by side, pack after pack along the point axis, as one
    data over all of them reads it (each pack's coefficients the bits of
    its own call), from one tape over every pack's expression fields
    (:func:`_tape`) and one finiteness check per slot.
    """
    packs = [params] if isinstance(params, DeformationParams) else list(params)
    lone = isinstance(src, Tower)
    points = [src.point] if lone else src.points
    n, pshape = points[0].n, (len(points),) * src.lead
    jets = src.jets
    g = src.g if read is None else lower_to(read, src.g)[0]
    xs, ys, g = lower(jets.xs, jets.ys, g)
    low = ChartJets(g.ring, jets.x0, jets.y0, xs, ys)
    tape = packs[0].tape if len(packs) == 1 else _tape(packs)
    rows = None
    if tape is not None:
        try:
            rows = tape.run(low).coef  # [tree, (point)]
        except (ValueError, ZeroDivisionError):
            pass  # run slot by slot below, so the error names its slot
    start = 0
    values = []
    for slot, shape in zip(_SLOTS, ((), (), (n,), (n,), (n,), (n, n))):
        column = []
        for field in (getattr(pack, slot) for pack in packs):
            if isinstance(field, ExprField) and rows is not None:
                stop = start + len(field.trees)
                value = rows[start:stop].swapaxes(0, 1) if src.lead else rows[start:stop]
                value = Series(g.ring, value.reshape(pshape + field.shape + (-1,)))
                start = stop
            else:
                try:
                    value = field_value(field, src, low)
                except (ExprError, DomainError):  # the expression or the metric is at fault
                    raise
                except (ValueError, ZeroDivisionError) as err:
                    raise DomainError(
                        f"parameter {slot} cannot be evaluated at {_where(points[0])}: {err}"
                    ) from None
            if value.shape != pshape + shape:
                raise ValueError(
                    f"parameter field {slot} evaluated to shape {value.shape}, expected {shape}"
                )
            column.append(value)
        _, *column = lower(g, *column)
        value = column[0]
        if len(column) > 1:  # side by side along the point axis
            value = Series(value.ring, np.concatenate([v.coef for v in column]))
        if not np.isfinite(value.coef).all():
            raise DomainError(
                f"parameter {slot} is not finite at {_where(points[0])}: "
                f"value {value.val.tolist()}"
            )
        values.append(value)
    eye = np.eye(n) + np.zeros((len(packs) * len(points),) * src.lead + (n, n))  # one per point
    *values, _ = lower(*values, Series.const(g.ring, eye), g)
    # copies: a cut that is a view would keep the uncut values alive
    return [Series(value.ring, value.coef.copy()) for value in values]


class DeformationData:
    """Every series one deformation needs, evaluated on the points of a
    tower batch at once, or on one tower.

    Constructed through :func:`deformation_data`, which builds it once per
    (pack, batch, read ring) in the memo of the towers' batch
    (:meth:`~finslerconn.finsler._Batch.memo`) and hands each tower its
    point's view of it, kept in the tower's memo: every value and stage of
    the view is the point's slice of the batch's.  A tower alone (a batch
    of one) gets data built on itself, with no point axis, so the data is
    its own view.  The case checks build one data over every catalog pack
    at once: the packs' values, evaluated in one call of
    :func:`parameter_values` side by side along the point axis of the
    batch's stages repeated once per pack, and keep it nowhere.  The data
    holds its tower or batch only weakly (a strong reference would make a
    cycle that only the cyclic collector frees), so hold the tower while
    reading the data: a stage that reads a tower that is gone raises
    ``ReferenceError``.

    Over a batch, every value and stage carries the batch's leading point
    axis, and each formula is the one-point formula with that axis in
    front, so each point's coefficients are bit-identical to those of its
    data alone (vectorised Taylor propagation, as for the tower stages).
    The attributes follow the construction stages: parameter values (each
    field evaluated on the points), split and raised forms, the two shift
    fields, the difference tensor, and finally the deformed coefficient
    triple.  A field with no value at a point (a division by zero, a log of
    a non-positive value) or with a value or derivative that is not finite
    (an overflow) raises :class:`~finslerconn.finsler.DomainError` naming
    its slot and the point, as the norm does in
    :attr:`~finslerconn.finsler.Tower.L`; a batch whose build raises is not
    kept, and each of its points builds its own data, so each raises
    exactly its own error and the others are served.

    Every stage lands at or below the ring of ``g`` and of each parameter
    value (each stage reads all six), so the values and ``eye`` are cut to
    that ring once, and each stage cuts its factors to the ring it keeps
    (:func:`~finslerconn.ad.lower`).  Given a read ring ``read``, an
    ``(order, xorder)`` pair, ``g`` is cut to it first
    (:func:`~finslerconn.ad.lower_to`), and the chart jets with it, so the
    values are evaluated there and every stage is computed in the ring its
    reader reads, with the bits of the stage cut there (a coefficient of
    a sum, product or composition up to an order reads only its operands'
    coefficients up to that order).  The expression fields of the pack
    run as one tape (:attr:`DeformationParams.tape`) on those jets, so
    every product of their evaluation runs in that ring; a
    :class:`~finslerconn.ad.Constant` is the same at every point, and
    other fields (those that read the metric) are evaluated on the tower
    or the batch itself, with the point axis first (:func:`field_value`),
    and cut.  ``g`` is read first, so a metric that fails at the point is
    named before any field, and a value must be finite on the coefficients
    of the ring it is read in: ``read`` cut to ``g``'s ring, or ``g``'s
    ring without ``read``.  A coefficient outside that ring reaches no
    stage, so one that overflows there raises only for a reader that reads
    it.  When the tape raises, the fields run again slot by slot, so the
    error names the first slot that fails.
    """

    def __init__(
        self,
        params: DeformationParams | None,
        src: Tower | _Batch,
        read: tuple[int, int] | None = None,
        values: list[Series] | None = None,
    ):
        """``values`` are given (:func:`parameter_values`, ``params`` None)
        only for data whose stages run over several packs' values at once,
        laid side by side along the point axis of ``src``."""
        self.params = params
        self._src = weakref.ref(src)
        self.lead = src.lead
        if values is None:
            values = parameter_values(params, src, read)
        for slot, value in zip((*_SLOTS, "eye"), values):
            setattr(self, slot, value)

    @property
    def src(self) -> Tower | _Batch:
        """The tower or batch evaluated on, held weakly: the memo of the
        batch, or of a tower, holds this data, and the caller holds the
        tower."""
        src = self._src()
        if src is None:
            raise ReferenceError(
                "this data's tower is gone; hold the tower while you read its data"
            )
        return src

    # -- the point axis --------------------------------------------------------

    def _spec(self, spec: str) -> str:
        return lead_spec(spec, self.lead)

    def _transpose(self, s: Series, *axes: int) -> Series:
        return lead_transpose(s, self.lead, *axes)

    def _scalars(self, rank: int, *scalars: Series) -> tuple[Series, ...]:
        """Scalars with ``rank`` axes after the point axis, so they broadcast
        over the points' tensors of that rank (one point's broadcast by
        themselves)."""
        if not self.lead:
            return scalars
        index = (Ellipsis,) + (None,) * rank
        return tuple(s[index] for s in scalars)

    def _tvec(self, T: Series, v: Series) -> Series:
        """T^i_qj v^q, shape (n, n): the mixed Cartan tensor eating one vector."""
        return contract(self._spec("iqj,q->ij"), T, v)

    def _tlow(self, T: Series, v: Series) -> Series:
        """T_qjk v^q, shape (n, n): the lowered Cartan tensor eating one vector."""
        return contract(self._spec("qjk,q->jk"), T, v)

    def _s_second(self, S: Series, v: Series) -> Series:
        """S(e_j, v) e_k as [i, j, k]: the vector fills the second argument."""
        return contract(self._spec("ikjq,q->ijk"), S, v)

    def _s_first(self, S: Series, v: Series) -> Series:
        """S(v, e_j) e_k as [i, j, k]; antisymmetry flips the sign."""
        return -self._s_second(S, v)

    # -- split and raised forms ----------------------------------------------

    @cached_property
    def gphi(self) -> Series:
        """Lowered endomorphism g(phi e_j, e_l), shape (n, n)."""
        return contract(self._spec("ij,il->jl"), self.phi, self.src.g)

    @cached_property
    def gphi1(self) -> Series:
        return 0.5 * (self.gphi + self._transpose(self.gphi, 1, 0))

    @cached_property
    def gphi2(self) -> Series:
        return 0.5 * (self.gphi - self._transpose(self.gphi, 1, 0))

    @cached_property
    def phi1(self) -> Series:
        """g-symmetric part of phi (an endomorphism again), shape (n, n)."""
        return contract(self._spec("il,jl->ij"), self.src.gi, self.gphi1)

    @cached_property
    def phi2(self) -> Series:
        """g-antisymmetric part of phi, shape (n, n)."""
        return contract(self._spec("il,jl->ij"), self.src.gi, self.gphi2)

    @cached_property
    def avec(self) -> Series:
        """The vector g-dual to A."""
        return contract(self._spec("il,l->i"), self.src.gi, self.A)

    @cached_property
    def bvec(self) -> Series:
        return contract(self._spec("il,l->i"), self.src.gi, self.B)

    @cached_property
    def uvec(self) -> Series:
        return contract(self._spec("il,l->i"), self.src.gi, self.u)

    # -- tautological contractions -------------------------------------------

    @cached_property
    def A_eta(self) -> Series:
        return contract(self._spec("i,i->"), self.A, self.src.ys)

    @cached_property
    def u_eta(self) -> Series:
        return contract(self._spec("i,i->"), self.u, self.src.ys)

    @cached_property
    def phi1_eta(self) -> Series:
        return contract(self._spec("ij,j->i"), self.phi1, self.src.ys)

    @cached_property
    def phi2_eta(self) -> Series:
        return contract(self._spec("ij,j->i"), self.phi2, self.src.ys)

    @cached_property
    def w(self) -> Series:
        """(phi1 - phi2) applied to the tautological field."""
        return self.phi1_eta - self.phi2_eta

    @cached_property
    def ell_phi1(self) -> Series:
        """Covector l(phi1(e_k)), shape (n,)."""
        return contract(self._spec("i,ik->k"), self.src.ell, self.phi1)

    @cached_property
    def ell_phi1_eta(self) -> Series:
        return contract(self._spec("i,i->"), self.src.ell, self.phi1_eta)

    @cached_property
    def S(self) -> Series:
        """Vertical curvature of the metric connection, shape (n, n, n, n):
        a stage of the towers, so every pack there shares it."""
        return self.src.S

    # -- the three construction stages ---------------------------------------

    @cached_property
    def eta_shift(self) -> Series:
        """Vertical displacement of the canonical spray, shape (n,)."""
        src = self.src
        f1, f2, ys, L, L2, A_eta, u_eta, avec, bvec, uvec, w, ell_phi1_eta = lower(
            self.f1, self.f2, src.ys, src.L, src.L2, self.A_eta, self.u_eta,
            self.avec, self.bvec, self.uvec, self.w, self.ell_phi1_eta,
        )
        f1, f2, L, L2, A_eta, u_eta, ell_phi1_eta = self._scalars(
            1, f1, f2, L, L2, A_eta, u_eta, ell_phi1_eta
        )
        return (
            f1 * (2.0 * A_eta * ys - L2 * avec)
            + f2 * L2 * bvec
            + L * ell_phi1_eta * uvec
            - u_eta * w
        )

    @cached_property
    def frame_shift(self) -> Series:
        """Tilt of the j-th horizontal frame leg, shape (n, n) as [i, j]."""
        src, tv = self.src, self._tvec
        (
            f1, f2, A, u, eye, phi1, ys, ell, L, L2, T, A_eta, u_eta,
            avec, bvec, uvec, w, ell_phi1, ell_phi1_eta, phi2_eta,
        ) = lower(
            self.f1, self.f2, self.A, self.u, self.eye, self.phi1,
            src.ys, src.ell, src.L, src.L2, src.T_mix, self.A_eta, self.u_eta,
            self.avec, self.bvec, self.uvec, self.w,
            self.ell_phi1, self.ell_phi1_eta, self.phi2_eta,
        )
        f1, f2, L, L2, A_eta, u_eta, ell_phi1_eta = self._scalars(
            2, f1, f2, L, L2, A_eta, u_eta, ell_phi1_eta
        )
        return (
            f1
            * (
                ys[..., :, None] * A[..., None, :]
                + A_eta * eye
                - L * (avec[..., :, None] * ell[..., None, :])
                + L2 * tv(T, avec)
            )
            + f2
            * (
                L * (bvec[..., :, None] * ell[..., None, :])
                - L2 * tv(T, bvec)
            )
            - u_eta * phi1
            + u_eta * tv(T, w)
            + L * (uvec[..., :, None] * ell_phi1[..., None, :])
            - L * ell_phi1_eta * tv(T, uvec)
            + phi2_eta[..., :, None] * u[..., None, :]
        )

    @cached_property
    def difference(self) -> Series:
        """Difference tensor [i, j, k]: horizontal correction beyond the tilt.

        Slot j is the horizontal direction, slot k the vector acted on.  The
        whole tensor is what the deformed covariant derivative adds to the
        metric one after the frame tilt has been accounted for.
        """
        src, tv, tl, s1, s2 = self.src, self._tvec, self._tlow, self._s_first, self._s_second
        (
            f1, f2, A, u, eye, phi1, phi2, g, ys, ell, L, L2, T, Tl, S,
            avec, bvec, uvec, w, gphi1, u_eta, ell_phi1, ell_phi1_eta, phi1_eta, phi2_eta,
        ) = lower(
            self.f1, self.f2, self.A, self.u, self.eye, self.phi1, self.phi2,
            src.g, src.ys, src.ell, src.L, src.L2, src.T_mix, src.T_low, self.S,
            self.avec, self.bvec, self.uvec, self.w, self.gphi1, self.u_eta,
            self.ell_phi1, self.ell_phi1_eta, self.phi1_eta, self.phi2_eta,
        )
        f1, f2, L, L2, u_eta, ell_phi1_eta = self._scalars(3, f1, f2, L, L2, u_eta, ell_phi1_eta)
        a_block = (
            avec[..., :, None, None] * g[..., None, :, :]
            - A[..., None, :, None] * eye[..., :, None, :]
            - A[..., None, None, :] * eye[..., :, :, None]
            - L * (tv(T, avec)[..., :, :, None] * ell[..., None, None, :])
            + ys[..., :, None, None] * tl(Tl, avec)[..., None, :, :]
            + L2 * s2(S, avec)
        )
        b_block = (
            bvec[..., :, None, None] * g[..., None, :, :]
            - L * (tv(T, bvec)[..., :, :, None] * ell[..., None, None, :])
            + ys[..., :, None, None] * tl(Tl, bvec)[..., None, :, :]
            + L2 * s2(S, bvec)
        )
        tm1 = contract(self._spec("iqj,qk->ijk"), T, phi1)
        mt1 = contract(self._spec("iq,qjk->ijk"), phi1, T)
        return (
            f1 * a_block
            - f2 * b_block
            - (gphi1 + tl(Tl, phi2_eta))[..., None, :, :] * uvec[..., :, None, None]
            - u[..., None, :, None] * phi2[..., :, None, :]
            + L * (tv(T, uvec)[..., :, :, None] * ell_phi1[..., None, None, :])
            - u_eta * (s1(S, w) + tm1 - mt1)
            + (tv(T, phi2_eta) + phi1)[..., :, :, None] * u[..., None, None, :]
            + L * ell_phi1_eta * s1(S, uvec)
            - tl(Tl, uvec)[..., None, :, :] * phi1_eta[..., :, None, None]
        )

    # -- the deformed coefficient triple --------------------------------------

    @cached_property
    def nonlinear(self) -> Series:
        """Deformed nonlinear connection, shape (n, n)."""
        return self.src.N - self.frame_shift

    @cached_property
    def horizontal(self) -> Series:
        """Deformed horizontal coefficients, shape (n, n, n)."""
        src = self.src
        T, fs, Gamma, difference = lower(src.T_mix, self.frame_shift, src.Gamma, self.difference)
        return Gamma + contract(self._spec("iqk,qj->ijk"), T, fs) + difference

    @cached_property
    def spray(self) -> Series:
        """Deformed spray coefficients, shape (n,).

        Coefficient form of the spray the deformed nonlinear connection
        generates; the vector-field picture shifts the metric spray by the
        vertical lift of ``eta_shift``, which in coefficients (extracted
        from the ``-2 G^i`` slot) halves and flips the sign.
        """
        return self.src.G - 0.5 * self.eta_shift

    @cached_property
    def compatibility(self) -> Series:
        """Horizontal coefficients solved from the defining conditions alone
        (:func:`horizontal_from_compatibility`), shape (n, n, n)."""
        src, tr = self.src, self._transpose
        dg, g, gi, Tl, fs, f1, f2, A, B, u, gphi = lower(  # dg is [j, k, l]
            src.delta_g, src.g, src.gi, src.T_low, self.frame_shift,
            self.f1, self.f2, self.A, self.B, self.u, self.gphi,
        )
        f1, f2 = self._scalars(3, f1, f2)
        tilt = 2.0 * contract(self._spec("qkl,qj->jkl"), Tl, fs)
        E = (
            dg
            + tilt
            - 2.0 * f1 * (A[..., :, None, None] * g[..., None, :, :])
            - f2
            * (
                B[..., None, :, None] * tr(g, 1, 0)[..., :, None, :]
                + B[..., None, None, :] * g[..., :, :, None]
            )
        )
        Q = (
            u[..., None, :, None] * gphi[..., :, None, :]
            - u[..., :, None, None] * gphi[..., None, :, :]
        )
        low = 0.5 * (
            E
            + tr(E, 2, 0, 1)
            - tr(E, 1, 2, 0)
            + Q
            - tr(Q, 0, 2, 1)
            - tr(Q, 2, 0, 1)
        )
        return contract(self._spec("il,jkl->ijk"), gi, low)


class _PointData:
    """One point's view of a batch's :class:`DeformationData`: each value
    and stage is the point's slice of the batch's, read on first use."""

    def __init__(self, data: DeformationData, i: int):
        self.params, self._data, self._i = data.params, data, i

    def __getattr__(self, name: str) -> Series:
        if name.startswith("_"):  # no private or special name is a slice
            raise AttributeError(name)
        value = getattr(self._data, name)
        value = Series(value.ring, value.coef[self._i])
        setattr(self, name, value)
        return value


_SPLIT = object()
"""What a batch keeps for a build that raised (the data of a pack, the rows
of a reader): its points compute their own."""


class _SplitBuild(Exception):
    """A build over a batch raised at some point, so each point reads alone."""


def _batch_build(make):
    """``make()`` over a batch of more than one point, or :data:`_SPLIT` when
    it raises."""
    try:
        return make()
    except TruncationError:  # the ring's fault, the same at every point
        raise
    except Exception:  # whatever a point raises alone, it raises from its own build
        return _SPLIT


def _batch_data(params: DeformationParams, batch: _Batch, read) -> DeformationData | object:
    """The data of ``params`` over a batch of more than one point, or
    :data:`_SPLIT` when its build raises."""
    return _batch_build(lambda: DeformationData(params, batch, read))


def _point_data(params: DeformationParams, t: Tower, read, key) -> DeformationData | _PointData:
    """The data at ``t``'s point: its view of the data over its batch, kept
    in the batch's memo under ``key``, or for a batch of one or a batch
    split at its tower stages, data of its own."""
    batch = t._batch
    data = _SPLIT
    if batch.lead and batch.parts is None:
        data = batch.memo(key, lambda: _batch_data(params, batch, read))
    return DeformationData(params, t, read) if data is _SPLIT else _PointData(data, t._index)


def deformation_data(
    params: DeformationParams, t: Tower | _Batch, read: tuple[int, int] | None = None
) -> DeformationData | _PointData:
    """The evaluation of a deformation at one point; with ``read``, an
    ``(order, xorder)`` pair, every stage is computed in that ring, or lower
    where its inputs are (the same bits as the stage cut).  The data is
    built once per (pack, batch, read) in the memo of ``t``'s batch, and
    ``t``'s view of it is kept in ``t``'s memo (:class:`DeformationData`).

    ``t`` may also be a batch of more than one point: the data over it,
    from the same memo.  A batch whose build raised raises here, and its
    points build their own data."""
    key = (params, "deformation-data", read)
    if isinstance(t, _Batch):
        data = t.memo(key, lambda: _batch_data(params, t, read))
        if data is _SPLIT:
            raise _SplitBuild(f"the data of {params.name or 'a pack'} fails at a point of the batch")
        return data
    return t.memo(key, lambda: _point_data(params, t, read, key))


class _Stage:
    """A part of the deformed connection: one stage of its data, computed
    in the ring ``read`` (None: in the ring its inputs keep)."""

    __slots__ = ("params", "stage", "read")

    def __init__(self, params: DeformationParams, stage: str, read: tuple[int, int] | None = None):
        self.params, self.stage, self.read = params, stage, read

    def __call__(self, t: Tower | _Batch) -> Series:
        return getattr(deformation_data(self.params, t, self.read), self.stage)

    def at(self, read: tuple[int, int]) -> "_Stage":
        return _Stage(self.params, self.stage, read)


def build(params: DeformationParams) -> Connection:
    """The deformed connection as a coefficient triple, new on every call;
    its parts are memoized per (connection, tower) pair, so a caller that
    reads it on several towers holds one.  It holds ``params``, not the reverse."""
    return Connection(
        name=params.name or "deformed",
        nlc=_Stage(params, "nonlinear"),
        hor=_Stage(params, "horizontal"),
        ver=lambda t: t.T_mix,
    )


def deformed_at(
    params: DeformationParams,
    t: Tower | _Batch,
    read: tuple[int, int],
    conn: Connection | None = None,
) -> tuple[DeformationData, Connection]:
    """The data of ``params`` on ``t`` (a tower or a batch) and ``conn``
    (default: the built one), both computed in the ring ``read`` their
    reader reads: one ring for the two, so the connection's stages come
    from the same data.  The view is kept in ``t``'s memo under ``params``
    (or ``conn``)."""
    key = (params if conn is None else conn, "connection", read)
    view = t.memo(key, lambda: (build(params) if conn is None else conn).at(read))
    return deformation_data(params, t, read), view


# ---------------------------------------------------------------------------
# independent reconstruction from the defining conditions


def horizontal_from_compatibility(
    params: DeformationParams, t: Tower | _Batch, read: tuple[int, int] | None = None
) -> Series:
    """Horizontal coefficients solved from the defining conditions alone.

    Uses only the nonlinear tilt plus the prescribed metric deficit and
    torsion, cycled through the Christoffel trick -- never the difference
    tensor -- so agreement with :func:`build` confirms both routes.  With
    ``read``, computed from the data of that ring (:func:`deformation_data`,
    whose stage :attr:`DeformationData.compatibility` this is).
    """
    return deformation_data(params, t, read).compatibility


# ---------------------------------------------------------------------------
# identity residuals


def worst_residual(values: Iterable[float]) -> float:
    """The largest residual (0.0 for none); a NaN anywhere wins, so its row fails."""
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


def relative_residual(diff: np.ndarray, *refs: np.ndarray, lead: int = 0) -> float | np.ndarray:
    """Max-abs of ``diff`` relative to 1 + the largest participating value;
    a NaN anywhere wins, and an empty participant is skipped.

    With ``lead`` 1 the arrays carry a point axis first, and the result
    has one value per point: the max-abs over the trailing axes, with the
    bits of the call on that point's slices.
    """
    if not lead:
        num = float(np.max(np.abs(diff)))
        return num / (1.0 + worst_residual(np.max(np.abs(r)) for r in refs if np.size(r)))

    def per_point(a: np.ndarray) -> np.ndarray:
        return np.max(np.abs(a), axis=tuple(range(1, np.ndim(a))))

    scale = [per_point(r) for r in refs if np.size(r)]
    return per_point(diff) / (1.0 + np.max(scale, axis=0, initial=0.0))


def point_rows(t: Tower, key, rows) -> dict[str, float]:
    """The residual rows ``rows(src)`` at ``t``'s point.

    ``rows`` is a reader's formula over a tower or a batch of towers (one
    value per point on a batch).  On a batch of more than one point it
    runs once, kept in the batch's memo under ``key``, and each point reads
    its slice.  A lone tower, a batch split at its tower stages and a
    batch whose rows raised compute the point's rows on ``t`` alone, so
    each point raises its own error and the others are served.
    """
    batch = t._batch
    if batch.lead and batch.parts is None:
        built = batch.memo(key, lambda: _batch_build(lambda: rows(batch)))
        if built is not _SPLIT:
            i = t._index
            return {label: float(value[i]) for label, value in built.items()}
    return rows(t)


def bump(values: np.ndarray, size: float, lead: int = 0) -> np.ndarray:
    """A copy of ``values`` with ``size`` added at index ``(0, ..., 0)``,
    behind the ``lead`` point axes: at every point's ``(0, ..., 0)``.

    The fuzz controls shift one entry of a compared array through this;
    for ``size == 0`` the input comes back unchanged.
    """
    if not size:
        return values
    out = np.array(values, dtype=float)
    out[(slice(None),) * lead + (0,) * (out.ndim - lead)] += size
    return out


# the (order, xorder) of each suite's tower, and the ring it reads the
# deformed connection and its data in (``deformed_at``)
_CONSTRUCTION_ORDER, _CONSTRUCTION_READ = (4, 1), (0, 0)
_TORSION_ORDER, _TORSION_READ = (4, 2), (1, 1)
_CURVATURE_ORDER, _CURVATURE_READ = (5, 2), (1, 1)


def construction_residuals(
    params: DeformationParams,
    F: FinslerStructure,
    point: ChartPoint,
    conn: Connection | None = None,
) -> dict[str, float]:
    """Internal consistency of the build at one point.

    * ``deflection``: contracting the horizontal coefficients with y must
      reproduce the nonlinear connection.
    * ``spray-from-nonlinear``: half the y-contraction of the nonlinear
      connection must reproduce the deformed spray.
    * ``spray-shift-consistency``: twice the spray displacement must equal
      the tautological shift.
    * ``shift-contraction``: the frame tilt contracted with y must equal the
      tautological shift.
    * ``compatibility-route``: the horizontal coefficients must match the
      Christoffel-trick reconstruction from the defining conditions.

    ``conn`` (default: the built one) is the connection under test.  The
    rows are computed once over the point's batch (:func:`point_rows`).
    """
    t = F.tower(point, _CONSTRUCTION_ORDER)
    return point_rows(
        t, (params, conn, "construction-rows"), lambda src: _construction_rows(params, src, conn)
    )


def _construction_rows(
    params: DeformationParams, src: Tower | _Batch, conn: Connection | None
) -> dict:
    """:func:`construction_residuals` on a tower or over a batch."""
    lead = src.lead
    d, conn = deformed_at(params, src, _CONSTRUCTION_READ, conn)
    H, N = conn.H(src), conn.N(src)
    defl = contract(lead_spec("ijk,k->ij", lead), H, src.ys).val
    from_n = 0.5 * contract(lead_spec("ij,j->i", lead), N, src.ys).val
    spray, shift, G = d.spray.val, d.eta_shift.val, src.G.val
    compat = horizontal_from_compatibility(params, src, _CONSTRUCTION_READ).val
    tilt = contract(lead_spec("ij,j->i", lead), d.frame_shift, src.ys).val
    H, N = H.val, N.val
    return {
        "deflection": relative_residual(defl - N, defl, N, lead=lead),
        "spray-from-nonlinear": relative_residual(from_n - spray, from_n, spray, lead=lead),
        "spray-shift-consistency": relative_residual(
            2.0 * (G - spray) - shift, shift, G, lead=lead
        ),
        "shift-contraction": relative_residual(tilt - shift, shift, lead=lead),
        "compatibility-route": relative_residual(H - compat, H, compat, lead=lead),
    }


def torsion_relations(
    params: DeformationParams,
    F: FinslerStructure,
    point: ChartPoint,
    conn: Connection | None = None,
) -> dict[str, float]:
    """Residuals of the five torsion identities at one point.

    Each row compares a torsion of the deformed connection, computed from
    its coefficients by the generic machinery, against its closed form in
    terms of metric-connection data and the shift fields:

    * ``hv-coincides``: the vertical torsion is the Cartan tensor.
    * ``hh-quarter-form``: the horizontal torsion is ``u_k phi^i_j - u_j
      phi^i_k``.
    * ``vv-vanishes``: the vertical antisymmetry torsion is zero.
    * ``vhv-shift-rule``: the deflection-type torsion differs from the
      metric one by the vertical derivative of the frame tilt plus the
      difference tensor.
    * ``vh-shift-rule``: the nonlinear-curvature torsion differs from the
      metric one by the frame brackets of the tilt.

    ``conn`` (default: the built one) is the connection under test.  The
    rows are computed once over the point's batch (:func:`point_rows`).
    """
    t = F.tower(point, _TORSION_ORDER)
    return point_rows(
        t, (params, conn, "torsion-rows"), lambda src: _torsion_rows(params, src, conn)
    )


def _torsion_rows(params: DeformationParams, src: Tower | _Batch, conn: Connection | None) -> dict:
    """:func:`torsion_relations` on a tower or over a batch."""
    lead = src.lead
    spec = lambda s: lead_spec(s, lead)
    tr = lambda s, *axes: lead_transpose(s, lead, *axes)
    d, conn = deformed_at(params, src, _TORSION_READ, conn)
    tb = torsions(conn, src)
    tc = torsions(CARTAN, src)
    fs = d.frame_shift
    # read as values only: these products run at order 0
    phi, u, T0, fs0 = lower_to((0, 0), d.phi, d.u, src.T_mix, fs)
    quarter = (
        phi[..., :, :, None] * u[..., None, None, :] - phi[..., :, None, :] * u[..., None, :, None]
    )

    # vertical derivative of the tilt, with the Cartan tensor correction
    dyfs = fs.dy(axis=lead + 2)  # [i, j, k]
    tfs = contract(spec("iqk,qj->ijk"), T0, fs0)
    vhv_rhs = tc.vhv - (dyfs + tfs) - d.difference

    # frame brackets of the tilt (all derivatives along the metric frame)
    dfs = horizontal_gradient(fs, src.N, lead)  # [a, l, m]
    dN_y = src.N.dy(axis=lead + 2)  # [l, j, m]
    dyfs_m = tr(dyfs, 2, 0, 1)  # [m, l, a]
    lean = contract(spec("ljm,mk->ljk"), dN_y, fs)
    drag = contract(spec("mlk,mj->ljk"), dyfs_m, fs)
    vh_rhs = (
        tc.vh
        + tr(dfs, 1, 0, 2)  # delta_j fs[l, k]
        + lean
        - tr(dfs, 1, 2, 0)  # delta_k fs[l, j]
        - tr(lean, 0, 2, 1)
        + drag
        - tr(drag, 0, 2, 1)
    )

    hv, hh, vhv, vh, T = tb.hv.val, tb.hh.val, tb.vhv.val, tb.vh.val, src.T_mix.val
    quarter, vhv_rhs, vh_rhs = quarter.val, vhv_rhs.val, vh_rhs.val
    return {
        "hv-coincides": relative_residual(hv - T, hv, lead=lead),
        "hh-quarter-form": relative_residual(hh - quarter, hh, quarter, lead=lead),
        "vv-vanishes": relative_residual(tb.vv.val, T, lead=lead),
        "vhv-shift-rule": relative_residual(vhv - vhv_rhs, vhv, vhv_rhs, lead=lead),
        "vh-shift-rule": relative_residual(vh - vh_rhs, vh, vh_rhs, lead=lead),
    }


def curvature_relations(
    params: DeformationParams,
    F: FinslerStructure,
    point: ChartPoint,
    conn: Connection | None = None,
) -> dict[str, float]:
    """Residuals of the three curvature identities at one point.

    * ``v-curvature-coincides``: the vertical curvatures agree (both are
      built from the shared vertical coefficients).
    * ``hv-curvature-expansion``: the deformed mixed curvature equals the
      metric one plus the vertical covariant derivative of the difference
      tensor, a Cartan-tensor contraction of it, and a vertical-curvature
      term fed by the frame tilt.
    * ``h-curvature-expansion``: the deformed horizontal curvature equals
      the metric one plus mixed/vertical curvatures fed by the tilt and an
      alternated block of derivative and quadratic difference-tensor terms.

    ``conn`` (default: the built one) is the connection under test.  The
    rows are computed once over the point's batch (:func:`point_rows`).
    """
    t = F.tower(point, _CURVATURE_ORDER)
    return point_rows(
        t, (params, conn, "curvature-rows"), lambda src: _curvature_rows(params, src, conn)
    )


def _curvature_rows(
    params: DeformationParams, src: Tower | _Batch, conn: Connection | None
) -> dict:
    """:func:`curvature_relations` on a tower or over a batch."""
    lead = src.lead
    spec = lambda s: lead_spec(s, lead)
    tr = lambda s, *axes: lead_transpose(s, lead, *axes)
    d, conn = deformed_at(params, src, _CURVATURE_READ, conn)
    cartan = src.memo(
        (CARTAN, "connection", _CURVATURE_READ), lambda: CARTAN.at(_CURVATURE_READ)
    )
    P, R = curvature_mixed(cartan, src), curvature_h(cartan, src)
    covNv = cov_deriv(cartan, src, d.difference, horizontal=False)  # [l, i, j, m]
    covNh = cov_deriv(cartan, src, d.difference, horizontal=True)
    # only values are read: the products below run in the ring the curvatures land in
    NT, fs, S, T = lower_to((0, 0), d.difference, d.frame_shift, d.S, src.T_mix)

    rows: dict = {}
    Sd = curvature_v(conn, src)
    rows["v-curvature-coincides"] = relative_residual(Sd.val - S.val, Sd.val, S.val, lead=lead)

    Pd = curvature_mixed(conn, src)
    s_fs = contract(spec("imqk,qj->imjk"), S, fs)
    hv_rhs = (
        P
        + tr(covNv, 1, 3, 2, 0)  # vertical derivative along k
        + contract(spec("iqm,qkj->imjk"), NT, T)  # NT[i, q, m] T^q_kj
        + s_fs
    )
    rows["hv-curvature-expansion"] = relative_residual(
        Pd.val - hv_rhs.val, Pd.val, hv_rhs.val, lead=lead
    )

    Rd = curvature_h(conn, src)
    p_fs = contract(spec("imaq,qb->imab"), P, fs)
    s_fs2 = contract(spec("imjq,qk->imjk"), s_fs, fs)
    tilt_t = contract(spec("rqj,qk->rjk"), T, fs)
    block = (
        tr(covNh, 1, 3, 2, 0)
        + contract(spec("lijm,lk->imjk"), covNv, fs)
        + contract(spec("ikq,qjm->imjk"), NT, NT)
        + contract(spec("iqm,qjk->imjk"), NT, tilt_t)
    )
    h_rhs = (
        R
        + p_fs
        - tr(p_fs, 0, 1, 3, 2)
        + s_fs2
        + block
        - tr(block, 0, 1, 3, 2)
    )
    rows["h-curvature-expansion"] = relative_residual(
        Rd.val - h_rhs.val, Rd.val, h_rhs.val, lead=lead
    )
    return rows
