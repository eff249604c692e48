"""Tests for the generic connection machinery on the reference connection.

Oracles:

* the hyperbolic plane's Riemann and Ricci tensors in closed form (the
  engine's horizontal curvature must match up to the package's overall
  sign convention);
* the purely algebraic closed form of the vertical curvature in terms of
  the Cartan tensor, which exercises a genuinely different derivation path
  than the coefficient formula;
* structural identities: torsion symmetries, tautological-field
  contractions, covariant-derivative Leibniz bookkeeping.
"""

import math

import numpy as np
import pytest

from finslerconn.ad import Series, contract
from finslerconn.connection import (
    CARTAN,
    RicciEndomorphism,
    contract_value_slot,
    cov_deriv,
    curvature_h,
    curvature_mixed,
    curvature_v,
    metric_deficit,
    nonlinear_curvature,
    ricci,
    torsions,
)
from finslerconn.finsler import ChartPoint
from finslerconn.samples import curved_three_dim, euclidean, hyperbolic, quartic_three_dim, randers

P2 = ChartPoint([0.3, -0.2], [0.7, 1.1])
P3 = ChartPoint([0.2, -0.3, 0.4], [0.9, 0.5, 1.2])


def _tower(F, p=None, order=5):
    return F.tower(p or (P2 if F.n == 2 else P3), order)


# ---------------------------------------------------------------------------
# flat space: everything curvature-like vanishes


def test_euclidean_curvatures_vanish():
    t = _tower(euclidean())
    for C in (curvature_h(CARTAN, t), curvature_mixed(CARTAN, t), curvature_v(CARTAN, t)):
        assert np.allclose(C.val, 0.0, atol=1e-12)
    tb = torsions(CARTAN, t)
    for part in (tb.hh, tb.hv, tb.vh, tb.vhv, tb.vv):
        assert np.allclose(part.val, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# hyperbolic plane: closed-form curvature oracle


def test_hyperbolic_horizontal_curvature_closed_form():
    # For a = diag(1, e^(2 x1)) the classical Riemann tensor has
    # R^1_212 = -e^(2 x1); this package's convention flips the sign.
    F = hyperbolic()
    p = ChartPoint([0.4, -0.1], [0.6, 0.9])
    t = F.tower(p, 5)
    R = curvature_h(CARTAN, t).val
    e2x = math.exp(0.8)
    assert R[0, 1, 0, 1] == pytest.approx(e2x, rel=1e-10)
    assert R[0, 1, 1, 0] == pytest.approx(-e2x, rel=1e-10)
    # constant curvature -1: R^i_mjk (classical) = -(d^i_j a_mk - d^i_k a_mj)
    a = np.diag([1.0, e2x])
    eye = np.eye(2)
    classical = -(
        np.einsum("ij,mk->imjk", eye, a) - np.einsum("ik,mj->imjk", eye, a)
    )
    assert np.allclose(R, -classical, atol=1e-10)


def test_hyperbolic_ricci_closed_form():
    F = hyperbolic()
    p = ChartPoint([0.4, -0.1], [0.6, 0.9])
    t = F.tower(p, 5)
    ric = ricci(CARTAN, t).val
    assert np.allclose(ric, np.diag([-1.0, -math.exp(0.8)]), atol=1e-10)


def test_hyperbolic_mixed_and_vertical_curvature_vanish():
    # Riemannian structures have no fiber dependence in the coefficients
    t = _tower(hyperbolic())
    assert np.allclose(curvature_mixed(CARTAN, t).val, 0.0, atol=1e-11)
    assert np.allclose(curvature_v(CARTAN, t).val, 0.0, atol=1e-11)


def test_riemannian_antisymmetric_output_pair_trace():
    # sum_i R[i, i, j, k] = 0 when the connection is metric (skew symmetry
    # of the curvature 2-form in an orthonormal gauge)
    for F in (hyperbolic(), curved_three_dim()):
        t = _tower(F)
        R = curvature_h(CARTAN, t).val
        assert np.allclose(np.einsum("iijk->jk", R), 0.0, atol=1e-10), F.name


def test_ricci_endomorphism_field():
    F = hyperbolic()
    p = ChartPoint([0.4, -0.1], [0.6, 0.9])
    phi = RicciEndomorphism().eval(F.tower(p, 5)).val
    # g^lm ric_mk with g = diag(1, e^(2x)), ric = diag(-1, -e^(2x)) = -identity
    assert np.allclose(phi, -np.eye(2), atol=1e-10)


@pytest.mark.parametrize("F", [randers(), quartic_three_dim()], ids=lambda F: F.name)
def test_ricci_endomorphism_on_cut_tower_matches_uncut(F):
    # the field takes two x-derivatives of the metric, so on a tower with no
    # x-order it builds the deeper tower itself; every coefficient it keeps
    # is the uncut tower's, bit for bit
    p = P2 if F.n == 2 else P3
    cut = RicciEndomorphism().eval(F.tower(p, (5, 0)))
    uncut = RicciEndomorphism().eval(F.tower(p, 5))
    assert cut.ring.xorder == 0
    assert np.array_equal(cut.coef, uncut.coef[..., uncut.ring.cut_index(cut.ring)])


# ---------------------------------------------------------------------------
# vertical curvature: independent algebraic oracle


@pytest.mark.parametrize("F", [randers(), curved_three_dim()], ids=lambda F: F.name)
def test_vertical_curvature_equals_cartan_square(F):
    # S[i, m, j, k] = T^i_jl T^l_km - T^i_kl T^l_jm: the derivative terms of
    # the coefficient formula must cancel into this purely algebraic form
    t = _tower(F)
    S = curvature_v(CARTAN, t).val
    T = t.T_mix.val
    TT = np.einsum("ijl,lkm->imjk", T, T)
    assert np.allclose(S, TT - np.swapaxes(TT, 2, 3), atol=1e-10)


def test_vertical_curvature_kills_tautological_argument():
    t = _tower(randers())
    S = curvature_v(CARTAN, t).val
    y = t.point.y
    assert np.allclose(np.einsum("imjk,j->imk", S, y), 0.0, atol=1e-10)
    assert np.allclose(np.einsum("imjk,m->ijk", S, y), 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# torsions of the reference connection


@pytest.mark.parametrize("F", [randers(), hyperbolic()], ids=lambda F: F.name)
def test_reference_connection_torsions(F):
    t = _tower(F)
    tb = torsions(CARTAN, t)
    assert np.allclose(tb.hh.val, 0.0, atol=1e-10)  # symmetric horizontal part
    assert np.allclose(tb.hv.val, t.T_mix.val, atol=1e-12)
    assert np.allclose(tb.vv.val, 0.0, atol=1e-12)  # symmetric Cartan tensor
    # deflection: H^i_jk y^k = N^i_j makes the vhv part kill y
    y = t.point.y
    assert np.allclose(np.einsum("ijk,k->ij", t.Gamma.val, y), t.N.val, atol=1e-9)
    assert np.allclose(np.einsum("ijk,j->ik", tb.vhv.val, y), 0.0, atol=1e-9)


def test_torsion_blocks_are_computed_when_read():
    t = _tower(randers())
    tb = torsions(CARTAN, t)
    tb.hh
    assert (CARTAN, "nonlinear_curvature") not in t.lift.cache  # memoized on the lift
    tb.vh
    assert (CARTAN, "nonlinear_curvature") in t.lift.cache


def test_nonlinear_curvature_two_routes():
    # delta-antisymmetry formula vs tautological contraction of the full
    # horizontal curvature (they agree because deflection holds)
    for F in (hyperbolic(), randers(), curved_three_dim()):
        t = _tower(F)
        vh = nonlinear_curvature(CARTAN, t).val
        R = curvature_h(CARTAN, t)
        contracted = contract_value_slot(R, t).val
        assert np.allclose(vh, contracted, atol=1e-9), F.name


def test_nonlinear_curvature_vanishes_flat():
    for F in (euclidean(),):
        t = _tower(F)
        assert np.allclose(nonlinear_curvature(CARTAN, t).val, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# metric deficits


@pytest.mark.parametrize("F", [randers(), curved_three_dim()], ids=lambda F: F.name)
def test_reference_connection_is_metric(F):
    t = _tower(F, order=4)
    assert np.allclose(metric_deficit(CARTAN, t, horizontal=True).val, 0.0, atol=1e-10)
    assert np.allclose(metric_deficit(CARTAN, t, horizontal=False).val, 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# covariant derivative bookkeeping


def _random_tensor(t, rng, shape):
    """A series tensor with genuine chart dependence in every slot."""
    base = t.jets.const(rng.uniform(-1.0, 1.0, size=shape))
    x, y = t.jets.xs, t.jets.ys
    bump = x[0] * y[t.n - 1] + 0.3 * (x[t.n - 1] ** 2)
    wiggle = t.jets.const(rng.uniform(-1.0, 1.0, size=shape)) * bump
    return base + wiggle


@pytest.mark.parametrize("horizontal", [True, False], ids=["h", "v"])
def test_cov_deriv_leibniz_on_contraction(horizontal):
    # D(W . U)^i = (D W)^i_a U^a + W^i_a (D U)^a for an endomorphism W and
    # a vector U: checks the sign and placement of the lower-index term
    rng = np.random.default_rng(5)
    t = _tower(randers(), order=4)
    W = _random_tensor(t, rng, (2, 2))
    U = _random_tensor(t, rng, (2,))
    WU = (W * U[None, :]).sum(axis=1)
    lhs = cov_deriv(CARTAN, t, WU, horizontal)  # [l, i]
    DW = cov_deriv(CARTAN, t, W, horizontal)  # [l, i, a]
    DU = cov_deriv(CARTAN, t, U, horizontal)  # [l, a]
    rhs = (DW * U[None, None, :]).sum(axis=2) + (W[None] * DU[:, None, :]).sum(axis=2)
    assert np.allclose(lhs.val, rhs.val, atol=1e-10)


def _cov_deriv_by_direction(conn, t, W, horizontal):
    """cov_deriv as a loop over directions, one contraction per direction
    and index of W: the reference its whole-array form must match bit for bit."""
    C = conn.H(t) if horizontal else conn.V(t)
    grad = conn.delta(t, W) if horizontal else W.dy()
    w = "abcd"[: len(W.shape)]
    rows = []
    for l in range(t.n):
        out = grad[l] + contract(f"ip,p{w[1:]}->i{w[1:]}", C[:, l, :], W)
        for s in range(1, len(w)):
            lowered = f"ip,{w[:s]}p{w[s + 1:]}->{w[:s]}i{w[s + 1:]}"
            out = out - contract(lowered, C.transpose(2, 1, 0)[:, l, :], W)
        rows.append(out)
    return Series.stack(rows)


def _metric_deficit_by_direction(conn, t, horizontal):
    C = conn.H(t) if horizontal else conn.V(t)
    grad = conn.delta(t, t.g) if horizontal else t.g.dy()
    rows = []
    for j in range(t.n):
        corr = contract("mk,ml->kl", C[:, j, :], t.g)
        rows.append(grad[j] - corr - corr.transpose(1, 0))
    return Series.stack(rows)


@pytest.mark.parametrize("F", [randers(), curved_three_dim()], ids=lambda F: F.name)
@pytest.mark.parametrize("horizontal", [True, False], ids=["h", "v"])
def test_direction_contractions_match_the_loop_over_directions(F, horizontal):
    rng = np.random.default_rng(7)
    # deep enough that coefficients sum three or more pairs, so a change of
    # operand or summation order shows in the bits
    t = _tower(F, order=6)
    pairs = [
        (cov_deriv(CARTAN, t, W, horizontal), _cov_deriv_by_direction(CARTAN, t, W, horizontal))
        for W in (_random_tensor(t, rng, (F.n,) * rank) for rank in range(1, 5))
    ]
    deficit = metric_deficit(CARTAN, t, horizontal)
    pairs.append((deficit, _metric_deficit_by_direction(CARTAN, t, horizontal)))
    for got, want in pairs:
        assert got.ring is want.ring
        assert np.array_equal(got.coef.view(np.int64), want.coef.view(np.int64))


def test_cov_deriv_of_metric_contraction_is_deficit_free():
    # lowering a vector with g commutes with D for the metric connection:
    # D_l (g_ia U^a) = g_ia (D_l U)^a, i.e. the deficit term is absent
    rng = np.random.default_rng(11)
    t = _tower(randers(), order=4)
    U = _random_tensor(t, rng, (2,))
    DU = cov_deriv(CARTAN, t, U, horizontal=True)  # [l, a]
    lowered_after = (t.g[None, :, :] * DU[:, None, :]).sum(axis=2)  # [l, i]
    # direct route: delta_l (g U) - H^p_li (g U)_p  (covariant covector rule)
    gU = (t.g * U[None, :]).sum(axis=1)
    H = CARTAN.H(t)
    grad = CARTAN.delta(t, gU)  # [l, i]
    rows = []
    for l in range(2):
        term = grad[l]
        # one horizontal derivative: the connection's gradient is the tower's
        assert np.array_equal(term.coef, t.delta(gU, l).coef)
        corr = (H.transpose(1, 0, 2)[l] * gU[:, None]).sum(axis=0)
        rows.append(term - corr)
    lowered_before = Series.stack(rows)
    assert np.allclose(lowered_after.val, lowered_before.val, atol=1e-10)


# ---------------------------------------------------------------------------
# mixed curvature structure


def test_mixed_curvature_nonzero_only_for_non_riemannian():
    tR = _tower(randers())
    P = curvature_mixed(CARTAN, tR).val
    assert np.max(np.abs(P)) > 1e-4  # genuinely present for Randers
    t3 = _tower(curved_three_dim())
    assert np.allclose(curvature_mixed(CARTAN, t3).val, 0.0, atol=1e-10)
