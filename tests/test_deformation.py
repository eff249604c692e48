"""Tests for the six-parameter deformation of the metric connection.

Oracles:

* hand-evaluated values: the g-dual of a constant one-form under a diagonal
  metric, the difference tensor of two parameter presets whose closed forms
  collapse to one or two terms, a spray displacement computable by hand;
* independent transcriptions: the tautological/frame shifts re-assembled at
  value level with einsum from raw tower data, and the horizontal
  coefficients re-solved from the defining conditions by the Christoffel
  trick (never touching the difference tensor);
* the defining conditions themselves: prescribed horizontal metric deficit,
  vertical compatibility, quarter-symmetric horizontal torsion, symmetric
  lowered vertical coefficients;
* the torsion and curvature shift rules relating the deformed connection
  back to the metric one.
"""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from finslerconn.ad import Constant, TaylorRing, lower_to
from finslerconn.connection import CARTAN, Connection, metric_deficit, torsions
from finslerconn.deformation import (
    DeformationParams,
    build,
    construction_residuals,
    curvature_relations,
    deformation_data,
    deformed_at,
    horizontal_from_compatibility,
    parameter_field,
    torsion_relations,
)
from finslerconn.expr import ExprCovectorField, ExprMatrixField, ExprScalarField
from finslerconn.finsler import ChartPoint, DomainError, FinslerStructure, HilbertFormField
from finslerconn.samples import (
    curved_three_dim,
    euclidean,
    hyperbolic,
    randers,
    warped_flat,
)
from finslerconn.verify import random_params

P2 = ChartPoint([0.3, -0.2], [0.7, 1.1])
P3 = ChartPoint([0.2, -0.3, 0.4], [0.9, 0.5, 1.2])
P34 = ChartPoint([0.0, 0.0], [3.0, 4.0])


def general_params(n: int) -> DeformationParams:
    """All six fields nonzero and x/y-dependent; nothing degenerate."""
    if n == 2:
        return DeformationParams(
            f1=ExprScalarField(2, "0.4 + 0.2*x1 - 0.1*y2"),
            f2=ExprScalarField(2, "0.3 - 0.2*x2 + 0.1*y1"),
            A=ExprCovectorField(2, ("0.5 + 0.3*x2", "0.2 - 0.1*y1")),
            B=ExprCovectorField(2, ("0.1 + 0.2*y2", "0.4 - 0.3*x1")),
            u=ExprCovectorField(2, ("0.3 - 0.2*x1", "0.1 + 0.1*y1")),
            phi=ExprMatrixField(
                2,
                (("1 + 0.2*x1", "0.3*y2"), ("0.1 - 0.2*y1", "0.5 + 0.1*x2")),
            ),
            name="general-2d",
        )
    return DeformationParams(
        f1=ExprScalarField(3, "0.3 + 0.1*x2"),
        f2=ExprScalarField(3, "0.2 - 0.1*y3"),
        A=ExprCovectorField(3, ("0.4", "0.1*x1", "0.2 - 0.1*y1")),
        B=ExprCovectorField(3, ("0.1*y2", "0.3", "0.2*x3")),
        u=ExprCovectorField(3, ("0.2", "0.1 - 0.1*x2", "0.3*y1")),
        phi=ExprMatrixField(
            3,
            (
                ("1", "0.2*x1", "0"),
                ("0.1", "0.8", "0.1*y2"),
                ("0", "0.2", "1.1 - 0.1*x3"),
            ),
        ),
        name="general-3d",
    )


def u_only_params(n: int, u=(0.4, -0.3), phi=None) -> DeformationParams:
    fields = dict(
        f1=Constant(0.0),
        f2=Constant(0.0),
        A=Constant(np.zeros(n)),
        B=Constant(np.zeros(n)),
        u=Constant(u),
        phi=phi if phi is not None else Constant(np.eye(n)),
    )
    return DeformationParams(name="u-only", **fields)


# Towers built by ``data_at``, kept for the whole run: the data holds its
# tower weakly and the callers read its stages after ``data_at`` returns.
_HELD_TOWERS = []


def data_at(params: DeformationParams, F: FinslerStructure, point: ChartPoint):
    """The deformation data at a point, on a tower of the construction order."""
    t = F.tower(point, 4)
    _HELD_TOWERS.append(t)
    return deformation_data(params, t)


# ---------------------------------------------------------------------------
# collapse: zero parameters rebuild the metric connection


def test_zero_params_collapse_exactly():
    zero = DeformationParams.zero(2)
    conn = build(zero)
    for F in (euclidean(), randers(), hyperbolic()):
        t = F.tower(P2, 4)
        assert np.max(np.abs((conn.N(t) - t.N).val)) < 1e-14
        assert np.max(np.abs((conn.H(t) - t.Gamma).val)) < 1e-14
        assert np.max(np.abs((conn.V(t) - t.T_mix).val)) < 1e-14


def test_build_and_data_are_cached():
    params = DeformationParams.zero(2)
    t = randers().tower(P2, 4)
    assert deformation_data(params, t) is deformation_data(params, t)


def test_data_on_a_dropped_tower_fails_closed():
    # the data holds its tower weakly, and nothing else holds a temporary one,
    # even with the structure bound to a name
    F = randers()
    d = deformation_data(general_params(2), F.tower(P2, 4))
    with pytest.raises(ReferenceError, match="hold the tower while you read its data"):
        d.frame_shift
    t = F.tower(P2, 4)  # held: the same read succeeds
    assert np.all(np.isfinite(deformation_data(general_params(2), t).frame_shift.val))


# ---------------------------------------------------------------------------
# the metric split of phi


def test_phi_split_identity():
    F = randers()
    d = data_at(u_only_params(2, phi=Constant(np.eye(2))), F, P2)
    assert np.allclose(d.phi1.val, np.eye(2), atol=1e-12)
    assert np.allclose(d.phi2.val, 0.0, atol=1e-12)


def test_phi_split_euclidean_antisymmetric():
    skew = ((0.0, 0.7), (-0.7, 0.0))
    params = u_only_params(2, phi=ExprMatrixField(2, (("0", "0.7"), ("-0.7", "0"))))
    F = euclidean()
    d = data_at(params, F, P2)
    assert np.allclose(d.phi1.val, 0.0, atol=1e-12)
    assert np.allclose(d.phi2.val, np.asarray(skew), atol=1e-12)


def test_phi_split_reassembles_on_randers():
    params = general_params(2)
    F = randers()
    d = data_at(params, F, P2)
    phi1, phi2 = d.phi1.val, d.phi2.val
    t = F.tower(P2, 4)
    phi = params.phi.eval(t.jets).val
    g = t.g.val
    assert np.allclose(phi1 + phi2, phi, atol=1e-10)
    low1 = g @ phi1
    low2 = g @ phi2
    assert np.allclose(low1, low1.T, atol=1e-10)
    assert np.allclose(low2, -low2.T, atol=1e-10)


# ---------------------------------------------------------------------------
# raising the index: the g-dual vector of the one-form A


def raised_A(form, F: FinslerStructure) -> np.ndarray:
    return data_at(replace(DeformationParams.zero(2), A=form), F, P2).avec.val


def test_raise_covector_euclidean():
    F = euclidean()
    assert np.allclose(raised_A(Constant((1.0, 0.0)), F), (1.0, 0.0))


def test_raise_hilbert_form_gives_unit_direction():
    F = randers()
    got = raised_A(HilbertFormField(), F)
    t = F.tower(P2, 2)
    assert np.allclose(got, P2.y / float(t.L.val), atol=1e-12)


def test_raise_covector_diagonal_hand_inverse():
    # warped metric g = diag(e^{2 x1}, 1); at x1 = 0.3 the dual of (1, 0)
    # is (e^{-0.6}, 0)
    F = warped_flat()
    got = raised_A(Constant((1.0, 0.0)), F)
    assert np.allclose(got, (np.exp(-0.6), 0.0), atol=1e-12)


# ---------------------------------------------------------------------------
# the tautological shift


def test_tautological_shift_term_by_term_oracle():
    params = general_params(2)
    F = randers()
    t = F.tower(P2, 4)
    d = deformation_data(params, t)
    g = t.g.val
    gi = t.gi.val
    ys = P2.y
    L = float(t.L.val)
    ell = t.ell.val
    f1 = float(d.f1.val)
    f2 = float(d.f2.val)
    A = d.A.val
    B = d.B.val
    u = d.u.val
    phi1 = d.phi1.val
    phi2 = d.phi2.val
    avec = gi @ A
    bvec = gi @ B
    uvec = gi @ u
    expected = (
        f1 * (2.0 * (A @ ys) * ys - L * L * avec)
        + f2 * L * L * bvec
        + L * (ell @ (phi1 @ ys)) * uvec
        - (u @ ys) * (phi1 @ ys - phi2 @ ys)
    )
    assert np.allclose(d.eta_shift.val, expected, atol=1e-10)


def test_tautological_shift_cancellation_for_hilbert_pair():
    # u = l and phi = id: the last two groups cancel exactly
    F = euclidean()
    params = DeformationParams(
        f1=Constant(0.0),
        f2=Constant(0.0),
        A=Constant(np.zeros(2)),
        B=Constant(np.zeros(2)),
        u=HilbertFormField(),
        phi=Constant(np.eye(2)),
        name="hilbert-pair",
    )
    assert np.allclose(data_at(params, F, P34).eta_shift.val, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the frame shift


def _frame_shift_oracle(d, t) -> np.ndarray:
    """Full value-level re-assembly of the frame tilt with einsum."""
    g = t.g.val
    gi = t.gi.val
    Tm = t.T_mix.val
    ys = t.point.y
    L = float(t.L.val)
    ell = t.ell.val
    f1 = float(d.f1.val)
    f2 = float(d.f2.val)
    A, B, u = d.A.val, d.B.val, d.u.val
    phi1, phi2 = d.phi1.val, d.phi2.val
    avec, bvec, uvec = gi @ A, gi @ B, gi @ u
    phi1_eta, phi2_eta = phi1 @ ys, phi2 @ ys
    w = phi1_eta - phi2_eta
    ell_phi1 = ell @ phi1
    return (
        f1
        * (
            np.outer(ys, A)
            + (A @ ys) * np.eye(t.n)
            - L * np.outer(avec, ell)
            + L * L * np.einsum("ipj,p->ij", Tm, avec)
        )
        + f2 * (L * np.outer(bvec, ell) - L * L * np.einsum("ipj,p->ij", Tm, bvec))
        - (u @ ys) * phi1
        + (u @ ys) * np.einsum("ipj,p->ij", Tm, w)
        + L * np.outer(uvec, ell_phi1)
        - L * (ell @ phi1_eta) * np.einsum("ipj,p->ij", Tm, uvec)
        + np.outer(phi2_eta, u)
    )


def test_frame_shift_full_oracle_on_randers():
    params = general_params(2)
    F = randers()
    t = F.tower(P2, 4)
    d = deformation_data(params, t)
    assert np.allclose(d.frame_shift.val, _frame_shift_oracle(d, t), atol=1e-10)


def test_frame_shift_riemannian_reduction():
    # with T = 0 all Cartan contractions drop out of the tilt
    params = u_only_params(2, phi=ExprMatrixField(2, (("1 + 0.1*x1", "0.2"), ("-0.1", "0.9"))))
    F = hyperbolic()
    t = F.tower(P2, 4)
    d = deformation_data(params, t)
    fs = d.frame_shift.val
    L = float(t.L.val)
    reduced = (
        -float(d.u_eta.val) * d.phi1.val
        + L * np.outer(d.uvec.val, d.ell_phi1.val)
        + np.outer(d.phi2_eta.val, d.u.val)
    )
    assert np.allclose(fs, reduced, atol=1e-9)
    assert np.allclose(t.T_mix.val, 0.0, atol=1e-12)


def test_frame_shift_contracts_to_tautological_shift():
    params = general_params(2)
    F = randers()
    d = data_at(params, F, P2)
    assert np.allclose(d.frame_shift.val @ P2.y, d.eta_shift.val, atol=1e-9)


# ---------------------------------------------------------------------------
# the difference tensor


def test_difference_tensor_hilbert_identity_preset_value():
    # u = l, phi = id, f1 = f2 = 0 on flat space collapses to
    # -g(e_j, Y)/L * y + l(Y) e_j; at y = (3, 4), j = 1, Y = e_1 that is
    # 0.6 * e_2
    F = euclidean()
    params = DeformationParams(
        f1=Constant(0.0),
        f2=Constant(0.0),
        A=Constant(np.zeros(2)),
        B=Constant(np.zeros(2)),
        u=HilbertFormField(),
        phi=Constant(np.eye(2)),
        name="hilbert-identity",
    )
    NT = data_at(params, F, P34).difference.val
    assert np.allclose(NT[:, 1, :] @ [1.0, 0.0], (0.0, 0.6), atol=1e-12)
    # and the full closed form at a second argument pair
    y = P34.y
    L = 5.0
    Y = np.array([0.2, -1.3])
    for j in range(2):
        ej = np.eye(2)[j]
        expected = -(ej @ Y) / L * y + (y @ Y) / L * ej
        assert np.allclose(NT[:, j, :] @ Y, expected, atol=1e-12)


def test_difference_tensor_antisymmetric_drift_preset():
    # f2 = -1, B = u, phi = id, f1 = 0 collapses to u(Y) e_j
    u = (0.35, -0.2)
    params = DeformationParams(
        f1=Constant(0.0),
        f2=Constant(-1.0),
        A=Constant(np.zeros(2)),
        B=Constant(u),
        u=Constant(u),
        phi=Constant(np.eye(2)),
        name="drift",
    )
    F = randers()
    NT = data_at(params, F, P2).difference.val
    rng = np.random.default_rng(7)
    for _ in range(5):
        Y = rng.uniform(-1.0, 1.0, size=2)
        for j in range(2):
            got = NT[:, j, :] @ Y
            expected = (np.asarray(u) @ Y) * np.eye(2)[j]
            assert np.allclose(got, expected, atol=1e-8)


# ---------------------------------------------------------------------------
# the defining conditions of the built connection


@pytest.mark.parametrize(
    "F,point",
    [(randers(), P2), (hyperbolic(), P2), (curved_three_dim(), P3)],
    ids=["randers", "hyperbolic", "threedim"],
)
def test_defining_conditions(F, point):
    params = general_params(F.n)
    t = F.tower(point, 4)
    d = deformation_data(params, t)
    conn = build(params)

    # (I) horizontal deficit is the prescribed combination
    deficit = metric_deficit(conn, t, horizontal=True)
    expected = 2.0 * d.f1 * (d.A[:, None, None] * t.g[None, :, :]) + d.f2 * (
        d.B[None, :, None] * t.g.transpose(1, 0)[:, None, :]
        + d.B[None, None, :] * t.g[:, :, None]
    )
    scale = 1.0 + np.max(np.abs(expected.val))
    assert np.max(np.abs((deficit - expected).val)) / scale < 1e-10

    # (II) vertical compatibility
    assert np.max(np.abs(metric_deficit(conn, t, horizontal=False).val)) < 1e-12

    # (III) quarter-symmetric horizontal torsion
    tb = torsions(conn, t)
    quarter = (
        d.phi[:, :, None] * d.u[None, None, :] - d.phi[:, None, :] * d.u[None, :, None]
    )
    assert np.max(np.abs((tb.hh - quarter).val)) < 1e-10

    # (IV) lowered vertical coefficients are totally symmetric
    low = (t.g[:, :, None, None] * conn.V(t)[:, None, :, :]).sum(axis=0)
    assert np.max(np.abs((low - low.transpose(0, 2, 1)).val)) < 1e-12
    assert np.max(np.abs((low - low.transpose(1, 0, 2)).val)) < 1e-12


def test_condition_one_hilbert_weight_example():
    # f1 = 1, A = l, everything else zero: deficit = 2 l_j g_kl
    F = randers()
    params = DeformationParams(
        f1=Constant(1.0),
        f2=Constant(0.0),
        A=HilbertFormField(),
        B=Constant(np.zeros(2)),
        u=Constant(np.zeros(2)),
        phi=Constant(np.zeros((2, 2))),
        name="hilbert-weight",
    )
    t = F.tower(P2, 4)
    deficit = metric_deficit(build(params), t, horizontal=True)
    expected = 2.0 * (t.ell[:, None, None] * t.g[None, :, :])
    assert np.max(np.abs((deficit - expected).val)) < 1e-12


# ---------------------------------------------------------------------------
# construction self-consistency (deflection, spray, two routes)


@pytest.mark.parametrize(
    "F,point",
    [(randers(), P2), (hyperbolic(), P2), (curved_three_dim(), P3)],
    ids=["randers", "hyperbolic", "threedim"],
)
def test_construction_residuals_general(F, point):
    rows = construction_residuals(general_params(F.n), F, point)
    for name, value in rows.items():
        assert value < 1e-12, f"{name}: {value:.3e}"


def test_compatibility_route_never_reads_difference_tensor():
    # solving the defining conditions must reproduce the closed-form build
    params = general_params(2)
    F = randers()
    t = F.tower(P2, 4)
    compat = horizontal_from_compatibility(params, t)
    d = deformation_data(params, t)
    assert np.max(np.abs((compat - d.horizontal).val)) < 1e-12


def test_spray_displacement_hand_value():
    # f2 = 1, B = (1, 0) on flat space at y = (3, 4): the spray drops by
    # L^2 b / 2 = (12.5, 0)
    params = DeformationParams(
        f1=Constant(0.0),
        f2=Constant(1.0),
        A=Constant(np.zeros(2)),
        B=Constant((1.0, 0.0)),
        u=Constant(np.zeros(2)),
        phi=Constant(np.zeros((2, 2))),
        name="f2-only",
    )
    F = euclidean()
    assert np.allclose(data_at(params, F, P34).spray.val, (-12.5, 0.0), atol=1e-12)


def test_spray_routes_agree():
    params = general_params(2)
    F = randers()
    d = data_at(params, F, P2)
    spray = d.spray.val
    assert np.allclose(0.5 * d.nonlinear.val @ P2.y, spray, atol=1e-10)
    t = F.tower(P2, 4)
    assert np.allclose(2.0 * (t.G.val - spray), d.eta_shift.val, atol=1e-10)


def test_associated_nonlinear_term_by_term():
    params = general_params(2)
    F = randers()
    t = F.tower(P2, 4)
    d = deformation_data(params, t)
    expected = t.N.val - _frame_shift_oracle(d, t)
    assert np.allclose(d.nonlinear.val, expected, atol=1e-10)


def test_zero_params_keep_metric_spray():
    t = randers().tower(P2, 4)
    d = deformation_data(DeformationParams.zero(2), t)
    assert np.allclose(d.spray.val, t.G.val, atol=1e-14)
    assert np.allclose(d.nonlinear.val, t.N.val, atol=1e-14)


# ---------------------------------------------------------------------------
# torsion relations


def test_torsion_relations_zero_params_trivial():
    rows = torsion_relations(DeformationParams.zero(2), randers(), P2)
    for name, value in rows.items():
        assert value < 1e-12, f"{name}: {value:.3e}"


def test_torsion_relations_quarter_preset():
    params = u_only_params(
        2, phi=ExprMatrixField(2, (("1 + 0.3*x2", "0.4*y1"), ("-0.2", "0.7")))
    )
    rows = torsion_relations(params, randers(), P2)
    assert rows["hh-quarter-form"] < 1e-12
    for name, value in rows.items():
        assert value < 1e-12, f"{name}: {value:.3e}"


@pytest.mark.parametrize(
    "F,point",
    [(randers(), P2), (hyperbolic(), P2), (curved_three_dim(), P3)],
    ids=["randers", "hyperbolic", "threedim"],
)
def test_torsion_relations_general(F, point):
    rows = torsion_relations(general_params(F.n), F, point)
    for name, value in rows.items():
        assert value < 1e-12, f"{name}: {value:.3e}"


def test_read_ring_view_and_its_data_are_freed_with_their_tower():
    # the tower's memo holds the view and the data of its ring, and nothing
    # else does, so reference counting frees all of them with the tower
    F, params = randers(), general_params(2)
    gc.disable()
    try:
        t = F.tower(P2, (4, 1))
        d, view = deformed_at(params, t, (0, 0))
        view.H(t)
        refs = [weakref.ref(x) for x in (t, view, d)]
        del t, d, view
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert not any(alive)


def test_condition_checks_detect_doctored_coefficients():
    # the condition checks must not be vacuous: a bumped horizontal
    # coefficient shows up in the metric deficit at the bump's size
    params = general_params(2)
    F = randers()
    point = ChartPoint([0.11, 0.07], [0.9, 0.8])
    conn = build(params)
    bump = np.zeros((2, 2, 2))
    bump[0, 0, 0] = 1e-3
    doctored = Connection(
        name="doctored",
        nlc=conn.nlc,
        hor=lambda t: conn.H(t) + t.jets.const(bump),
        ver=conn.ver,
    )
    t = F.tower(point, 4)
    d = deformation_data(params, t)
    deficit = metric_deficit(doctored, t, horizontal=True)
    expected = 2.0 * d.f1 * (d.A[:, None, None] * t.g[None, :, :]) + d.f2 * (
        d.B[None, :, None] * t.g[:, None, :] + d.B[None, None, :] * t.g[:, :, None]
    )
    assert np.max(np.abs((deficit - expected).val)) > 1e-5


# ---------------------------------------------------------------------------
# curvature relations


def test_curvature_relations_riemannian_zero_params():
    rows = curvature_relations(DeformationParams.zero(2), hyperbolic(), P2)
    for name, value in rows.items():
        assert value < 1e-12, f"{name}: {value:.3e}"


def test_curvature_relations_flat_u_only():
    # on flat space with constant parameters S = P = R = 0, so the mixed
    # expansion reduces to the derivative terms of the difference tensor
    params = u_only_params(2, phi=ExprMatrixField(2, (("1", "0.2"), ("-0.2", "0.8"))))
    rows = curvature_relations(params, euclidean(), P2)
    for name, value in rows.items():
        assert value < 1e-10, f"{name}: {value:.3e}"


@pytest.mark.parametrize(
    "F,point",
    [(randers(), P2), (hyperbolic(), P2), (curved_three_dim(), P3)],
    ids=["randers", "hyperbolic", "threedim"],
)
def test_curvature_relations_general(F, point):
    rows = curvature_relations(general_params(F.n), F, point)
    for name, value in rows.items():
        assert value < 1e-12, f"{name}: {value:.3e}"


# ---------------------------------------------------------------------------
# error paths


def test_parameter_shape_mismatch_raises():
    params = DeformationParams(
        f1=Constant(0.0),
        f2=Constant(0.0),
        A=Constant(np.zeros(3)),  # wrong length for a 2d chart
        B=Constant(np.zeros(2)),
        u=Constant(np.zeros(2)),
        phi=Constant(np.zeros((2, 2))),
        name="bad-shape",
    )
    with pytest.raises(ValueError, match="parameter field A"):
        data_at(params, euclidean(), P2)


def test_degenerate_structure_raises_domain_error():
    # the quartic norm degenerates on the axes: g_22 = 0 at y = (1, 0)
    quartic = FinslerStructure(
        2, ExprScalarField(2, "(y1^4 + y2^4)^(1/4)"), name="quartic"
    )
    params = general_params(2)
    with pytest.raises(DomainError):
        data_at(params, quartic, ChartPoint([0.0, 0.0], [1.0, 0.0])).difference


def _pack(n: int, **fields) -> DeformationParams:
    """The zero pack with some slots given as texts."""
    return replace(
        DeformationParams.zero(n), **{k: parameter_field(k, v, n) for k, v in fields.items()}
    )


# messages recorded before the parameter fields ran as one tape; the tape
# runs again slot by slot on a failure, so the first failing slot is named
@pytest.mark.parametrize(
    "fields,message",
    [
        (
            {"A": ("0.1", "log(x1)")},
            "parameter A cannot be evaluated at x = [-0.5, 0.2], y = [0.7, 1.1]: "
            "log of a series needs a positive value",
        ),
        (
            {"f2": "1/(x1 - x1)", "phi": (("1", "sqrt(x1)"), ("0", "1"))},
            "parameter f2 cannot be evaluated at x = [-0.5, 0.2], y = [0.7, 1.1]: "
            "series with zero constant term has no reciprocal",
        ),
        (
            {"u": ("sqrt(x1)", "log(x1)")},
            "parameter u cannot be evaluated at x = [-0.5, 0.2], y = [0.7, 1.1]: "
            "fractional power of a series needs a positive value",
        ),
        (
            {"f1": "exp(1000*y1)", "B": ("log(x1)", "1")},
            "parameter f1 is not finite at x = [-0.5, 0.2], y = [0.7, 1.1]: "
            "value 1.0142320547350045e+304",
        ),
    ],
)
def test_a_failing_parameter_names_its_slot_as_before(fields, message):
    t = randers().tower(ChartPoint([-0.5, 0.2], [0.7, 1.1]), (4, 1))
    with np.errstate(all="ignore"), pytest.raises(DomainError) as err:
        deformation_data(_pack(2, **fields), t)
    assert str(err.value) == message


def test_the_metric_error_wins_over_a_field_error():
    # g is read before the fields: where both fail, the metric is named
    # (before, the field f1 was)
    quartic = FinslerStructure(2, ExprScalarField(2, "(y1^4 + y2^4)^(1/4)"), name="quartic")
    t = quartic.tower(ChartPoint([-0.5, 0.2], [1.0, 0.0]), (4, 1))
    with pytest.raises(DomainError, match="^fundamental tensor is not positive definite"):
        deformation_data(_pack(2, f1="log(x1)"), t)


def test_only_the_kept_coefficients_of_a_field_must_be_finite():
    # y1^1000 at y1 = 2 overflows from degree 3 on; the data keeps g's
    # ring, degree 2, so it builds (before, its degree-3 terms raised)
    F = randers()
    t = F.tower(ChartPoint([0.1, 0.2], [2.0, 1.0]), (4, 1))
    params = _pack(2, f1="y1^1000")
    with np.errstate(all="ignore"):
        assert not np.isfinite(params.f1.eval(t).coef).all()
        d = deformation_data(params, t)
    assert d.f1.ring is t.g.ring and np.isfinite(d.f1.coef).all()
    assert d.f1.val == 2.0**1000


def test_a_value_must_be_finite_only_on_the_ring_it_is_read_in():
    # only the dy1^2 coefficient of f1 overflows: a reader of values or of
    # first derivatives never reads it, so the data is served there; without
    # a read ring the data keeps g's ring, and the Bianchi read (2, 2) holds
    # dy1^2, so both raise (before, every read ring raised)
    t = randers().tower(ChartPoint([0.0, 0.1], [1.0, 0.5]), (4, 1))
    params = _pack(2, f1="0.5 + (1e200*(y1 - 1))^2")
    for read in ((0, 0), (1, 1)):
        d = deformation_data(params, t, read)
        assert d.f1.ring is lower_to(read, t.g)[0].ring and d.f1.val == 0.5
        assert np.isfinite(d.f1.coef).all() and np.isfinite(d.difference.coef).all()
    for read in (None, (2, 2)):
        with pytest.raises(DomainError) as err:
            deformation_data(params, t, read)
        assert str(err.value).startswith(
            "parameter f1 is not finite at x = [0.0, 0.1], y = [1.0, 0.5]: value 0.5"
        ), read


def test_a_pack_runs_one_product_per_shape_in_the_ring_of_g(monkeypatch):
    F = curved_three_dim()
    params = random_params(3, np.random.default_rng(3))
    t = F.tower(P3, (5, 2))
    g = t.g  # the metric's own products run before the wrap
    rings = []
    mul_coef = TaylorRing.mul_coef

    def counted(rg, a, b):
        rings.append(rg)
        return mul_coef(rg, a, b)

    monkeypatch.setattr(TaylorRing, "mul_coef", counted)
    d = deformation_data(params, t)
    assert params.tape.size == 20 and len(params.tape.groups) < params.tape.size
    assert all(rg is g.ring for rg in rings)
    assert 0 < len(rings) <= len(params.tape.groups)
    assert d.phi.ring is g.ring
