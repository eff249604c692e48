"""Tests for the fundamental-object tower.

Oracles:

* closed forms for the Euclidean, warped-flat and hyperbolic metrics
  (Christoffel symbols, sprays, nonlinear connection computed by hand);
* independent central finite differences on plain float evaluations of the
  norm (no shared AD code path) for the Randers metric;
* homogeneity and the Euler-type contraction identities every Finsler
  structure must satisfy;
* metric compatibility of the horizontal coefficients.

A source scan guards the one tower cache: towers are built only by
``FinslerStructure.tower`` and per-tower memos go only through
``Tower.memo``.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import finslerconn
from finslerconn.ad import ChartJets
from finslerconn.expr import ExprError, ExprScalarField
from finslerconn.finsler import (
    ChartPoint,
    DomainError,
    FinslerStructure,
    HilbertFormField,
    horizontal_gradient,
)
from finslerconn.samples import (
    curved_three_dim,
    euclidean,
    hyperbolic,
    randers,
    warped_flat,
)

P2 = ChartPoint([0.3, -0.2], [0.7, 1.1])
P3 = ChartPoint([0.2, -0.3, 0.4], [0.9, 0.5, 1.2])


def _norm_value(F, x, y):
    """Plain float evaluation of L, bypassing all derivative machinery."""
    return float(F.norm.eval(ChartJets.at(x, y, 0)).val)


# ---------------------------------------------------------------------------
# closed-form oracles


def test_euclidean_is_flat():
    tw = euclidean().tower(P2, 3)
    assert np.allclose(tw.g.val, np.eye(2), atol=1e-12)
    assert np.allclose(tw.T_low.val, 0.0, atol=1e-12)
    assert np.allclose(tw.G.val, 0.0, atol=1e-12)
    assert np.allclose(tw.N.val, 0.0, atol=1e-12)
    assert np.allclose(tw.Gamma.val, 0.0, atol=1e-12)
    ell = tw.ell.val
    assert np.allclose(ell, P2.y / np.linalg.norm(P2.y), atol=1e-12)


def test_warped_flat_closed_forms():
    # L^2 = e^(2 x1) y1^2 + y2^2: metric diag(e^(2 x1), 1), and the only
    # nonzero Christoffel symbol is [1; 1 1] = 1
    F = warped_flat()
    p = ChartPoint([0.3, 0.5], [0.8, -0.4])
    tw = F.tower(p, 3)
    assert np.allclose(tw.g.val, np.diag([math.exp(0.6), 1.0]), atol=1e-12)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    assert np.allclose(tw.Gamma.val, expected, atol=1e-10)
    spray = tw.G.val
    assert spray[0] == pytest.approx(0.5 * p.y[0] ** 2, abs=1e-12)
    assert spray[1] == pytest.approx(0.0, abs=1e-12)
    N = tw.N.val
    assert np.allclose(N, [[p.y[0], 0.0], [0.0, 0.0]], atol=1e-10)


def test_hyperbolic_closed_forms():
    # a = diag(1, e^(2 x1)): Christoffels [1; 2 2] = -e^(2 x1), [2; 1 2] = 1
    F = hyperbolic()
    p = ChartPoint([0.4, -0.1], [0.6, 0.9])
    e2x = math.exp(0.8)
    tw = F.tower(p, 3)
    assert np.allclose(tw.g.val, np.diag([1.0, e2x]), atol=1e-12)
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -e2x
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0
    assert np.allclose(tw.Gamma.val, expected, atol=1e-10)
    spray = tw.G.val
    assert spray[0] == pytest.approx(-0.5 * e2x * p.y[1] ** 2, abs=1e-11)
    assert spray[1] == pytest.approx(p.y[0] * p.y[1], abs=1e-11)
    N = tw.N.val
    assert np.allclose(
        N, [[0.0, -e2x * p.y[1]], [p.y[1], p.y[0]]], atol=1e-10
    )


def test_riemannian_cartan_tensor_vanishes():
    for F in (hyperbolic(), warped_flat(), curved_three_dim()):
        p = P2 if F.n == 2 else P3
        assert np.allclose(F.tower(p, 3).T_low.val, 0.0, atol=1e-11), F.name


# ---------------------------------------------------------------------------
# independent finite-difference oracles (Randers)


def test_fundamental_tensor_matches_finite_differences():
    F = randers()
    p = ChartPoint([0.25, -0.15], [0.9, 0.55])
    h = 1e-4

    def L2(dy):
        return _norm_value(F, p.x, p.y + dy) ** 2

    g_fd = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            ei = np.zeros(2)
            ej = np.zeros(2)
            ei[i] = h
            ej[j] = h
            g_fd[i, j] = 0.5 * (
                L2(ei + ej) - L2(ei - ej) - L2(-ei + ej) + L2(-ei - ej)
            ) / (4 * h * h)
    assert np.allclose(F.tower(p, 2).g.val, g_fd, rtol=1e-6, atol=1e-7)


def test_cartan_tensor_matches_finite_differences():
    F = randers()
    p = ChartPoint([0.25, -0.15], [0.9, 0.55])
    h = 8e-4

    def g_at(dy):
        return F.tower(ChartPoint(p.x, p.y + dy), 2).g.val

    T_fd = np.zeros((2, 2, 2))
    for k in range(2):
        ek = np.zeros(2)
        ek[k] = h
        T_fd[:, :, k] = (g_at(ek) - g_at(-ek)) / (4 * h)  # T = (1/2) dg/dy
    assert np.allclose(F.tower(p, 3).T_low.val, T_fd, rtol=1e-5, atol=1e-7)


def test_spray_matches_finite_differences():
    F = randers()
    p = ChartPoint([0.25, -0.15], [0.9, 0.55])
    h = 1e-4
    n = 2

    def L2(dx, dy):
        return _norm_value(F, p.x + dx, p.y + dy) ** 2

    rhs = np.zeros(n)
    for l in range(n):
        el = np.zeros(n)
        el[l] = h
        dL2_dxl = (L2(el, 0) - L2(-el, 0)) / (2 * h)
        mixed = 0.0
        for m in range(n):
            em = np.zeros(n)
            em[m] = h
            cross = (
                L2(em, el) - L2(em, -el) - L2(-em, el) + L2(-em, -el)
            ) / (4 * h * h)
            mixed += p.y[m] * cross
        rhs[l] = mixed - dL2_dxl
    tw = F.tower(p, 2)
    G_fd = 0.25 * tw.gi.val @ rhs
    assert np.allclose(tw.G.val, G_fd, rtol=1e-6, atol=1e-7)


def test_nonlinear_connection_is_y_gradient_of_spray():
    F = randers()
    p = ChartPoint([0.25, -0.15], [0.9, 0.55])
    h = 1e-5
    N_fd = np.zeros((2, 2))
    for j in range(2):
        ej = np.zeros(2)
        ej[j] = h
        Gp = F.tower(ChartPoint(p.x, p.y + ej), 2).G.val
        Gm = F.tower(ChartPoint(p.x, p.y - ej), 2).G.val
        N_fd[:, j] = (Gp - Gm) / (2 * h)
    assert np.allclose(F.tower(p, 3).N.val, N_fd, rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------------
# homogeneity and Euler identities


ALL_SAMPLES = [euclidean(), hyperbolic(), randers(), warped_flat(), curved_three_dim()]


@pytest.mark.parametrize("F", ALL_SAMPLES, ids=lambda F: F.name)
def test_homogeneity_degrees(F):
    p = P2 if F.n == 2 else P3
    lam = 1.7
    q = ChartPoint(p.x, lam * p.y)
    L_p = _norm_value(F, p.x, p.y)
    L_q = _norm_value(F, q.x, q.y)
    assert L_q == pytest.approx(lam * L_p, rel=1e-9)
    tp, tq = F.tower(p, 3), F.tower(q, 3)
    assert np.allclose(tq.g.val, tp.g.val, atol=1e-9)
    assert np.allclose(tq.T_low.val, tp.T_low.val / lam, atol=1e-9)
    assert np.allclose(tq.G.val, lam**2 * tp.G.val, atol=1e-8)
    assert np.allclose(tq.N.val, lam * tp.N.val, atol=1e-8)
    assert np.allclose(tq.Gamma.val, tp.Gamma.val, atol=1e-8)


@pytest.mark.parametrize("F", ALL_SAMPLES, ids=lambda F: F.name)
def test_euler_contractions(F):
    p = P2 if F.n == 2 else P3
    y = p.y
    L = _norm_value(F, p.x, p.y)
    tw = F.tower(p, 3)
    g, T, ell = tw.g.val, tw.T_low.val, tw.ell.val
    assert ell @ y == pytest.approx(L, rel=1e-12)
    assert y @ g @ y == pytest.approx(L**2, rel=1e-12)
    assert np.allclose(g @ y / L, ell, atol=1e-11)
    assert np.allclose(np.einsum("ijk,k->ij", T, y), 0.0, atol=1e-10)
    assert np.allclose(np.einsum("ijk,j->ik", T, y), 0.0, atol=1e-10)
    N, G = tw.N.val, tw.G.val
    assert np.allclose(N @ y, 2.0 * G, atol=1e-9)
    Gam = tw.Gamma.val
    assert np.allclose(np.einsum("ijk,j,k->i", Gam, y, y), 2.0 * G, atol=1e-9)
    # the spray-compatible horizontal coefficients also contract to N
    assert np.allclose(np.einsum("ijk,k->ij", Gam, y), N, atol=1e-9)


@pytest.mark.parametrize("F", ALL_SAMPLES, ids=lambda F: F.name)
def test_horizontal_coefficients_are_metric_compatible(F):
    # delta_j g_kl = Gamma^m_(jk) g_ml + Gamma^m_(jl) g_km
    p = P2 if F.n == 2 else P3
    tw = F.tower(p, 4)
    g = tw.g.val
    Gam = tw.Gamma.val
    for j in range(F.n):
        Dg = tw.delta(tw.g, j).val
        rhs = np.einsum("mk,ml->kl", Gam[:, j, :], g) + np.einsum(
            "ml,mk->kl", Gam[:, j, :], g
        )
        assert np.allclose(Dg, rhs, atol=1e-10), (F.name, j)
    assert np.allclose(Gam, np.swapaxes(Gam, 1, 2), atol=1e-12)


def _ordered_delta(s, j, N):
    """delta_j s by the per-index formula, the terms subtracted in order of m."""
    n = N.shape[0]
    out = s.d(j)
    for m in range(n):
        out = out - N[m, j] * s.d(n + m)
    return out


@pytest.mark.parametrize("F", [euclidean(), hyperbolic(), randers()], ids=lambda F: F.name)
def test_horizontal_gradient_has_the_bits_of_the_ordered_formula(F):
    tw = F.tower(P2, 4)
    N = tw.N
    varying = N.coef[..., 1:].any(axis=-1)
    assert varying.all() if F.name != "euclidean2" else not varying.any()
    # one entry frozen to its value: a column of N mixes constant and varying
    # entries, so the gradient's products take both paths of ad._product
    mixed = N.coef.copy()
    mixed[0, 1, 1:] = 0.0
    for N in (N, type(N)(N.ring, mixed)):
        for s in (tw.L, tw.ell, tw.g, tw.T_low):
            grad = horizontal_gradient(s[None], N[None])  # a batch of one point
            assert grad.shape == (1, F.n) + s.shape
            for j in range(F.n):
                want = _ordered_delta(s, j, N)
                assert grad[0, j].ring is want.ring
                assert np.array_equal(grad[0, j].coef.view(np.int64), want.coef.view(np.int64))
    for j in range(F.n):
        want = _ordered_delta(tw.g, j, tw.N)
        assert np.array_equal(tw.delta(tw.g, j).coef.view(np.int64), want.coef.view(np.int64))


# ---------------------------------------------------------------------------
# domain errors and validation


def test_zero_section_rejected():
    with pytest.raises(DomainError):
        ChartPoint([0.1, 0.2], [0.0, 0.0])


@pytest.mark.parametrize("x,y", [([0.1, 0.2], [np.nan, 1.0]), ([np.inf, 0.2], [1.0, 1.0])])
def test_non_finite_point_rejected(x, y):
    with pytest.raises(DomainError, match="finite"):
        ChartPoint(x, y)


def test_non_finite_fundamental_tensor_rejected():
    # y1^2 overflows, so L is inf and every entry of g is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="not finite"):
            euclidean().tower(ChartPoint([0.1, 0.2], [1e200, 1.0]), 2).g


def test_infinite_norm_rejected_at_L():
    # y1^2 overflows, so L itself is inf; L > 0 alone would pass it
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="norm is not finite"):
            euclidean().tower(ChartPoint([0.1, 0.2], [1e200, 1.0]), 2).L


def test_overflowing_power_of_norm_rejected_at_L():
    F = FinslerStructure(2, ExprScalarField(2, "sqrt(y1^2 + y2^2)^100000"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="norm is not finite"):
            F.tower(ChartPoint([0.1, 0.2], [1.0, 1.0]), 2).L


def test_underflowing_norm_rejected_at_L():
    # y1^2 + y2^2 underflows to 0, and sqrt of a zero series has no jet
    with pytest.raises(DomainError, match=r"cannot be evaluated at x = \[0.1, 0.2\]"):
        euclidean().tower(ChartPoint([0.1, 0.2], [1e-200, 1e-200]), 2).L


def test_expression_errors_pass_through_L():
    class Broken:
        def eval(self, jets):
            raise ExprError("broken norm", 3)

    with pytest.raises(ExprError, match="offset 3"):
        FinslerStructure(2, Broken()).tower(ChartPoint([0.1, 0.2], [1.0, 1.0]), 2).L


def test_negative_norm_rejected():
    F = FinslerStructure(2, ExprScalarField(2, "y1"))
    with pytest.raises(DomainError, match="positive"):
        F.tower(ChartPoint([0.0, 0.0], [-1.0, 0.5]), 2).L


def test_quartic_norm_fails_convexity():
    # L = (y1^4 + y2^4)^(1/4) is positive and 1-homogeneous, but its
    # fundamental tensor degenerates on the axes
    F = FinslerStructure(2, ExprScalarField(2, "(y1^4 + y2^4)^(1/4)"))
    with pytest.raises(DomainError, match="positive definite"):
        F.tower(ChartPoint([0.0, 0.0], [1.0, 0.0]), 2).g


def test_validate_at_catches_wrong_homogeneity():
    F = FinslerStructure(2, ExprScalarField(2, "y1^2 + y2^2"))
    with pytest.raises(DomainError, match="homogeneous"):
        F.validate_at(ChartPoint([0.0, 0.0], [1.0, 1.0]))


def test_validate_at_accepts_samples():
    for F in ALL_SAMPLES:
        F.validate_at(P2 if F.n == 2 else P3)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        euclidean().tower(P3, 2)


# ---------------------------------------------------------------------------
# tower plumbing


def test_tower_is_cached_per_point_and_order():
    F = randers()
    assert F.tower(P2, 4) is F.tower(P2, 4)
    assert F.tower(P2, 4) is not F.tower(P2, 5)
    other = ChartPoint(P2.x, P2.y + 0.1)
    assert F.tower(P2, 4) is not F.tower(other, 4)


def test_tower_at_reads_the_same_cache():
    F = randers()
    t = F.tower(P2, (4, 1))
    assert t.at((5, 3)) is F.tower(P2, (5, 3))
    assert t.at((4, 1)) is t
    del F  # a tower holds its structure weakly
    with pytest.raises(ReferenceError, match="bind the structure to a name"):
        t.at((5, 3))


def test_tower_memo_computes_once_per_key():
    F = randers()
    t = F.tower(P2, 2)
    calls = []
    first = t.memo("key", lambda: calls.append(1) or "value")
    assert t.memo("key", lambda: calls.append(2) or "other") == first == "value"
    assert calls == [1]


def _scoped_nodes(tree):
    """Every AST node with the names of the classes and functions around it."""
    stack = [(tree, ())]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def test_towers_are_built_and_memoized_in_one_place():
    # a tower is built only by FinslerStructure.tower, so every request goes
    # through its cache, and only Tower touches a tower's memo dict (and
    # only _Batch its own)
    builds, cache_uses = set(), set()
    for path in sorted(Path(finslerconn.__file__).parent.glob("*.py")):
        for node, scope in _scoped_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Tower":
                    builds.add((path.name, ".".join(scope)))
            elif isinstance(node, ast.Attribute) and node.attr == "cache":
                cache_uses.add((path.name, scope[0] if scope else ""))
    assert builds == {("finsler.py", "FinslerStructure.tower")}
    assert cache_uses == {("finsler.py", "Tower"), ("finsler.py", "_Batch")}


def test_hilbert_form_field_matches_tower():
    F = randers()
    field = HilbertFormField()
    assert np.allclose(field.eval(F.tower(P2, 2)).val, F.tower(P2, 1).ell.val, atol=1e-13)
