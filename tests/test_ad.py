"""Tests for the truncated Taylor arithmetic core.

Oracles used here, in order of strength:

* closed-form derivatives of elementary functions, checked exactly;
* central finite differences on random smooth composites (weak oracle,
  relative 1e-5);
* algebraic ring axioms and calculus rules (Leibniz, chain rule, Clairaut)
  as property tests.
"""

import ast
import contextlib
import dataclasses
import gc
import math
import operator
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finslerconn
from finslerconn import ad, cli, samples, verify
from finslerconn.ad import (
    ChartJets,
    Constant,
    Series,
    TaylorRing,
    TruncationError,
    contract,
    matinv,
    matmul,
    ring,
)
from finslerconn.cases import default_free_choices, preset
from finslerconn.connection import Connection
from finslerconn.deformation import DeformationParams
from finslerconn.finsler import ChartPoint, DomainError, Tower
from finslerconn.cli import tensor_report
from finslerconn.verify import (
    SamplePlan,
    check_curvatures,
    check_theorem,
    random_param_sets,
    random_params,
    run_all,
    sample_points,
)


# ---------------------------------------------------------------------------
# ring structure


def test_ring_monomial_enumeration_is_graded():
    rg = ring(4, 3)
    degs = [sum(m) for m in rg.monomials]
    assert degs == sorted(degs)
    assert rg.monomials[0] == (0, 0, 0, 0)
    assert rg.dim == math.comb(4 + 3, 3)


def test_ring_factory_caches():
    assert ring(4, 4) is ring(4, 4)
    assert ring(4, 4) is not ring(4, 3)


def test_seed_and_extract_roundtrip():
    jets = ChartJets.at([0.3, -0.2], [0.7, 1.1], order=3)
    assert jets.xs.val == pytest.approx([0.3, -0.2])
    assert jets.ys.val == pytest.approx([0.7, 1.1])
    # d x1 / d x1 = 1, everything else 0
    assert jets.xs[0].extract((1, 0, 0, 0)) == 1.0
    assert jets.xs[0].extract((0, 1, 0, 0)) == 0.0
    assert jets.ys[1].extract((0, 0, 0, 1)) == 1.0


def test_product_matches_closed_form():
    # f = x1^2 * y2 at (x1, y2) = (2, 5): handy low-degree oracle
    jets = ChartJets.at([2.0], [5.0], order=3)
    f = jets.xs[0] * jets.xs[0] * jets.ys[0]
    assert f.val == pytest.approx(20.0)
    assert f.extract((1, 0)) == pytest.approx(2 * 2.0 * 5.0)  # d/dx1
    assert f.extract((2, 0)) == pytest.approx(2 * 5.0)  # d2/dx1^2
    assert f.extract((1, 1)) == pytest.approx(2 * 2.0)  # d2/dx1 dy1
    assert f.extract((2, 1)) == pytest.approx(2.0)
    assert f.extract((0, 1)) == pytest.approx(4.0)


def test_truncation_drops_high_degree_products():
    jets = ChartJets.at([1.0], [1.0], order=2)
    f = (jets.xs[0] * jets.xs[0]) * jets.xs[0]  # degree 3 > order 2
    # the cubic coefficient is simply not representable; value still fine
    assert f.val == pytest.approx(1.0)
    with pytest.raises(TruncationError):
        f.extract((3, 0))


# ---------------------------------------------------------------------------
# analytic functions, closed-form oracles


def test_sqrt_jet_closed_form():
    # d/dt sqrt(t) = 1/(2 sqrt t), d2/dt2 = -1/(4 t^(3/2))
    jets = ChartJets.at([4.0], [1.0], order=3)
    s = jets.xs[0].sqrt()
    assert s.val == pytest.approx(2.0)
    assert s.extract((1, 0)) == pytest.approx(0.25)
    assert s.extract((2, 0)) == pytest.approx(-1.0 / 32.0)
    assert s.extract((3, 0)) == pytest.approx(3.0 / (8.0 * 4.0**2.5))


def test_exp_log_inverse_pair():
    jets = ChartJets.at([0.4], [2.0], order=4)
    f = jets.xs[0] * jets.ys[0]
    g = f.exp().log()
    assert np.allclose(g.coef, f.coef, atol=1e-12)


def test_log_derivatives():
    jets = ChartJets.at([3.0], [1.0], order=3)
    s = jets.xs[0].log()
    assert s.val == pytest.approx(math.log(3.0))
    assert s.extract((1, 0)) == pytest.approx(1.0 / 3.0)
    assert s.extract((2, 0)) == pytest.approx(-1.0 / 9.0)
    assert s.extract((3, 0)) == pytest.approx(2.0 / 27.0)


def test_sin_cos_derivative_cycle():
    jets = ChartJets.at([0.6], [1.0], order=4)
    s = jets.xs[0].sin()
    c = jets.xs[0].cos()
    assert s.extract((1, 0)) == pytest.approx(math.cos(0.6))
    assert s.extract((2, 0)) == pytest.approx(-math.sin(0.6))
    assert c.extract((1, 0)) == pytest.approx(-math.sin(0.6))
    assert (s * s + c * c).extract((2, 0)) == pytest.approx(0.0, abs=1e-14)


def test_recip_and_division():
    jets = ChartJets.at([2.0], [1.0], order=3)
    inv = jets.xs[0].recip()
    assert inv.val == pytest.approx(0.5)
    assert inv.extract((1, 0)) == pytest.approx(-0.25)
    assert inv.extract((2, 0)) == pytest.approx(2.0 / 8.0)
    one = jets.xs[0] * inv
    assert one.val == pytest.approx(1.0)
    assert one.extract((1, 0)) == pytest.approx(0.0, abs=1e-14)
    q = 1.0 / jets.xs[0]
    assert np.allclose(q.coef, inv.coef, atol=1e-14)


def test_recip_rejects_zero_value():
    jets = ChartJets.at([0.0], [1.0], order=2)
    with pytest.raises(ZeroDivisionError):
        jets.xs[0].recip()


def test_pow_integer_and_fractional():
    jets = ChartJets.at([1.7], [1.0], order=3)
    x = jets.xs[0]
    assert np.allclose((x**3).coef, (x * x * x).coef, atol=1e-13)
    assert np.allclose((x**-2).coef, (1.0 / (x * x)).coef, atol=1e-13)
    h = x**0.5
    assert np.allclose(h.coef, x.sqrt().coef, atol=1e-13)
    assert (x**0).val == pytest.approx(1.0)


def test_powr_rejects_nonpositive():
    jets = ChartJets.at([-1.0], [1.0], order=2)
    with pytest.raises(ValueError):
        jets.xs[0].powr(0.5)


def test_abs_smooth_branch_and_zero_rejection():
    jets = ChartJets.at([-0.8], [1.0], order=2)
    a = jets.xs[0].abs()
    assert a.val == pytest.approx(0.8)
    assert a.extract((1, 0)) == pytest.approx(-1.0)
    jets0 = ChartJets.at([0.0], [1.0], order=2)
    with pytest.raises(ValueError):
        jets0.xs[0].abs()


# ---------------------------------------------------------------------------
# derivatives of series


def test_series_derivative_shifts_coefficients():
    jets = ChartJets.at([0.5], [2.0], order=4)
    f = (jets.xs[0] ** 2) * jets.ys[0]
    fx = f.d(0)
    assert fx.val == pytest.approx(2 * 0.5 * 2.0)
    assert fx.extract((1, 0)) == pytest.approx(2 * 2.0)
    assert fx.extract((0, 1)) == pytest.approx(2 * 0.5)
    assert fx.valid == f.valid - 1


def test_derivative_validity_exhaustion():
    jets = ChartJets.at([0.5], [2.0], order=2)
    f = jets.xs[0].exp()
    f = f.d(0).d(0)
    assert f.valid == 0
    with pytest.raises(TruncationError):
        f.d(0)


def test_clairaut_mixed_partials_symmetric():
    # mixed second partials commute to machine precision on a composite
    jets = ChartJets.at([0.3, 0.9], [1.2, 0.5], order=4)
    x, y = jets.xs, jets.ys
    f = ((x[0] * y[1] + y[0] ** 2).exp() + (1.0 + x[1] ** 2).log()).sqrt()
    dxy = f.d(0).d(3)
    dyx = f.d(3).d(0)
    assert np.allclose(dxy.coef[: dxy.ring._prefix[3]], dyx.coef[: dxy.ring._prefix[3]], atol=1e-12)


# ---------------------------------------------------------------------------
# finite-difference oracle on random composites


def _eval_composite_float(rng_coefs, xv, yv):
    c = rng_coefs
    base = (
        2.0
        + abs(c[0])
        + c[1] * xv[0]
        + c[2] * xv[1] * yv[0]
        + c[3] * yv[1] ** 2
        + c[4] * xv[0] * xv[1]
    )
    s = base * base
    s = s + math.sin(c[5] * xv[1] + c[6] * yv[0] * yv[1])
    s = s + math.log(3.0 + c[7] * xv[0] ** 2)
    return s + math.sqrt(base)


def test_first_derivatives_match_finite_differences():
    rng = np.random.default_rng(20240811)
    h = 1e-5
    worst = 0.0
    for _ in range(60):
        x0 = rng.uniform(-0.4, 0.4, size=2)
        y0 = rng.uniform(0.5, 1.4, size=2)
        jets = ChartJets.at(x0, y0, order=2)
        coefs = rng.uniform(-1.0, 1.0, size=8)

        def f(xv, yv, c=coefs):
            return _eval_composite_float(c, xv, yv)

        s = _random_composite_from(coefs, jets)
        for slot in range(4):
            alpha = [0, 0, 0, 0]
            alpha[slot] = 1
            xp, yp = x0.copy(), y0.copy()
            xm, ym = x0.copy(), y0.copy()
            if slot < 2:
                xp[slot] += h
                xm[slot] -= h
            else:
                yp[slot - 2] += h
                ym[slot - 2] -= h
            fd = (f(xp, yp) - f(xm, ym)) / (2 * h)
            ad = s.extract(alpha)
            scale = 1.0 + abs(fd)
            worst = max(worst, abs(ad - fd) / scale)
    assert worst < 1e-5


def _random_composite_from(coefs, jets):
    x, y = jets.xs, jets.ys
    c = coefs
    base = (
        jets.const(2.0 + abs(c[0]))
        + c[1] * x[0]
        + c[2] * x[1] * y[0]
        + c[3] * y[1] ** 2
        + c[4] * x[0] * x[1]
    )
    s = base * base
    s = s + (c[5] * x[1] + c[6] * y[0] * y[1]).sin()
    s = s + (jets.const(3.0) + c[7] * x[0] ** 2).log()
    return s + base.sqrt()


def test_second_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 2e-4
    worst = 0.0
    for _ in range(25):
        x0 = rng.uniform(-0.4, 0.4, size=2)
        y0 = rng.uniform(0.5, 1.4, size=2)
        jets = ChartJets.at(x0, y0, order=2)
        coefs = rng.uniform(-1.0, 1.0, size=8)
        s = _random_composite_from(coefs, jets)

        def f(dy0, dy1, c=coefs, x0=x0, y0=y0):
            return _eval_composite_float(c, x0, [y0[0] + dy0, y0[1] + dy1])

        fd = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)
        ad = s.extract((0, 0, 1, 1))
        worst = max(worst, abs(ad - fd) / (1.0 + abs(fd)))
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# hypothesis: ring axioms


coef_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _series_from_list(vals, rg):
    coef = np.zeros(rg.dim)
    coef[: len(vals)] = vals
    return Series(rg, coef)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(coef_floats, min_size=6, max_size=15),
    st.lists(coef_floats, min_size=6, max_size=15),
    st.lists(coef_floats, min_size=6, max_size=15),
)
def test_ring_axioms(a_vals, b_vals, c_vals):
    rg = ring(4, 3)
    a = _series_from_list(a_vals, rg)
    b = _series_from_list(b_vals, rg)
    c = _series_from_list(c_vals, rg)
    assert np.allclose((a * b).coef, (b * a).coef, atol=1e-10)
    assert np.allclose(((a * b) * c).coef, (a * (b * c)).coef, atol=1e-9)
    assert np.allclose((a * (b + c)).coef, (a * b + a * c).coef, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(coef_floats, min_size=6, max_size=15),
    st.lists(coef_floats, min_size=6, max_size=15),
    st.integers(min_value=0, max_value=3),
)
def test_leibniz_rule(a_vals, b_vals, var):
    rg = ring(4, 3)
    a = _series_from_list(a_vals, rg)
    b = _series_from_list(b_vals, rg)
    lhs = (a * b).d(var)
    rhs = a.d(var) * b + a * b.d(var)
    # d() drops one order, and the sum lives in the lower ring
    assert lhs.valid == rhs.valid == rg.order - 1
    assert lhs.coef.shape[-1] == rhs.coef.shape[-1] == rg._prefix[rg.order]
    assert np.allclose(lhs.coef, rhs.coef, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(coef_floats, min_size=6, max_size=15), st.integers(min_value=0, max_value=3))
def test_chain_rule_exp(a_vals, var):
    rg = ring(4, 3)
    a = _series_from_list(a_vals, rg)
    lhs = a.exp().d(var)
    rhs = a.exp() * a.d(var)
    # exp() keeps the order; d() drops one on both routes
    assert lhs.valid == rhs.valid == rg.order - 1
    assert np.allclose(lhs.coef, rhs.coef, atol=1e-8)


# ---------------------------------------------------------------------------
# matrix helpers


def test_matmul_matches_numpy_on_constants():
    jets = ChartJets.at([0.1, 0.2], [1.0, 2.0], order=2)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.5, -1.0], [2.0, 0.25]])
    am = jets.const(a)
    bm = jets.const(b)
    assert np.allclose(matmul(am, bm).val, a @ b, atol=1e-14)
    # the general contraction agrees with np.einsum, traces included
    rng = np.random.default_rng(5)
    v, T, R = (rng.uniform(-1, 1, (2,) * k) for k in (1, 3, 4))
    for spec, arrays in [
        ("ij,jk->ik", (a, b)),
        ("il,jkl->ijk", (a, T)),
        ("ikl,ljm->imjk", (T, T)),
        ("ipj,p,jk->ik", (T, v, b)),
        ("i,i->", (v, v)),
        ("imki->mk", (R,)),
        ("ii->", (a,)),
        ("ijk->kji", (T,)),
    ]:
        got = contract(spec, *(jets.const(x) for x in arrays)).val
        assert np.allclose(got, np.einsum(spec, *arrays), atol=1e-14), spec


def _random_series(rg, rng, shape, valid):
    head = ring(rg.nvars, valid)
    return Series(head, rng.uniform(-1, 1, shape + (rg.dim,))[..., : head.dim])


@pytest.mark.parametrize("nvars,order", [(4, 4), (4, 5), (6, 5)])
def test_contract_is_bit_identical_to_broadcast_products(nvars, order):
    rg = ring(nvars, order)
    rng = np.random.default_rng(10 * nvars + order)
    n = nvars // 2
    gi, v = _random_series(rg, rng, (n, n), order), _random_series(rg, rng, (n,), order - 1)
    T, H = _random_series(rg, rng, (n, n, n), order), _random_series(rg, rng, (n, n, n), order)
    S = _random_series(rg, rng, (n, n, n, n), order - 2)
    pairs = [
        (contract("il,l->i", gi, v), (gi * v[None, :]).sum(axis=1)),
        (contract("il,jkl->ijk", gi, T), (gi[:, None, None, :] * T[None]).sum(axis=3)),
        (
            contract("ikl,ljm->imjk", H, T),
            (H[:, :, :, None, None] * T[None, None]).sum(axis=2).transpose(0, 3, 2, 1),
        ),
        (
            contract("ikjp,p->ijk", S, v),
            (S * v[None, None, None, :]).sum(axis=3).transpose(0, 2, 1),
        ),
    ]
    for got, want in pairs:
        assert got.valid == want.valid
        assert np.array_equal(got.coef, want.coef)
    R = _random_series(rg, rng, (n, n, n, n), order)
    # the loop the trace replaced, summing i in order
    trace = [
        [sum((R[i, m, k, i] for i in range(1, n)), start=R[0, m, k, 0]) for k in range(n)]
        for m in range(n)
    ]
    loop = Series.stack([Series.stack(row) for row in trace])
    assert np.array_equal(contract("imki->mk", R).coef, loop.coef)


def _in_ring(rg, rng, shape, constant=False):
    """A series of ``rg`` with random coefficients, or a random constant."""
    coef = rng.uniform(-1, 1, shape + (rg.dim,))
    if constant:
        coef[..., 1:] = 0.0
    return Series(rg, coef)


@pytest.mark.parametrize(
    "orders",
    [
        ((4, 4), (4, 2), (3, 3)),  # each product lands lower than the last
        ((4, 1), (4, 4), (2, 0)),  # x-order cuts, then a total-order cut
        ((3, 3), (3, 3), (0, 0)),  # a one-coefficient ring last
        ((2, 1), (4, 2), (4, 3)),  # the first ring is already the meet
    ],
)
@pytest.mark.parametrize("constant", [None, 0, 1, 2])
def test_contract_is_bit_identical_to_broadcast_products_in_mixed_rings(orders, constant):
    # the plan's meets and cuts give the bits of Series products left to
    # right, each in the meet of its factors, then sums in index order
    rng = np.random.default_rng(sum(sum(o) for o in orders) + 7 * (constant or 0))
    n = 2
    rings = [ring(2 * n, order, xorder) for order, xorder in orders]
    A, B, v = (
        _in_ring(rg, rng, shape, constant=k == constant)
        for k, (rg, shape) in enumerate(zip(rings, [(n, n), (n, n, n), (n,)]))
    )
    pairs = [
        ("ij,jkl,l->ik", (A, B, v),
         lambda: (A[:, :, None, None] * B[None] * v[None, None, None, :]).sum(axis=1).sum(axis=2)),
        ("ij,jkl->ikl", (A, B), lambda: (A[:, :, None, None] * B[None]).sum(axis=1)),
        ("jkl,l->kj", (B, v), lambda: (B * v[None, None, :]).sum(axis=2).transpose(1, 0)),
    ]
    for spec, ops, broadcast in pairs:
        for _ in range(2):  # compiled, then from the cache
            got, want = contract(spec, *ops), broadcast()
            assert got.ring is want.ring, spec
            assert np.array_equal(got.coef.view(np.int64), want.coef.view(np.int64)), spec


def test_a_cached_signature_still_rejects_mismatched_operands():
    # a plan is keyed by spec, operand rings and shapes, so a call that does
    # not fit the spec misses the cache and raises as an uncached one does
    jets = ChartJets.at([0.1], [1.0], order=2)
    a, b = jets.const(np.ones((2, 3))), jets.const(np.ones((3, 2)))
    contract("ij,jk->ik", a, b)
    assert any(key[0] == "ij,jk->ik" for key in ad._PLANS)
    for ops, message in [
        ((a,), "spec 'ij,jk->ik' names 2 operands, got 1"),
        ((a, jets.const(np.ones(3))), "operand 'jk' of 'ij,jk->ik' has shape (3,)"),
        ((a, a), "index 'j' of 'ij,jk->ik' has sizes 3 and 2"),
    ]:
        for _ in range(2):
            with pytest.raises(ValueError) as raised:
                contract("ij,jk->ik", *ops)
            assert str(raised.value) == message


@pytest.mark.parametrize(
    "spec", ["ij,jk", "ij,jk->ikk", "ij,jk->iq", "i1,jk->ik", "ij,jk->i->k", "->", ""]
)
def test_contract_rejects_malformed_specs(spec):
    a = ChartJets.at([0.1], [1.0], order=2).const(np.eye(2))
    with pytest.raises(ValueError):
        contract(spec, a, a)


def test_contract_rejects_mismatched_operands():
    jets = ChartJets.at([0.1], [1.0], order=2)
    a, b = jets.const(np.ones((2, 3))), jets.const(np.ones((2, 2)))
    with pytest.raises(ValueError, match="sizes"):
        contract("ij,jk->ik", a, b)
    with pytest.raises(ValueError, match="sizes"):
        contract("ii->i", a)
    with pytest.raises(ValueError, match="shape"):
        contract("ijk,jk->i", a, b)
    with pytest.raises(ValueError, match="operands"):
        contract("ij,jk->ik", b)


def test_series_contractions_live_in_ad_only():
    # every contraction of series goes through ad.contract
    package = Path(finslerconn.__file__).parent
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "ad.py" and ".sum(axis=" in path.read_text()
    ]
    assert offenders == []


def test_derivatives_are_taken_in_ad_only():
    # every partial outside ad is a gradient (Series.dx, Series.dy), so no
    # module stacks per-index derivatives of its own
    modules = {
        path.name
        for path in Path(finslerconn.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "d"
    }
    assert modules == {"ad.py"}


def test_every_import_is_used():
    # an imported name no module code refers to (outside __all__) is dead
    package = Path(finslerconn.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used | exported]
    assert unused == []


# ---------------------------------------------------------------------------
# products in the ring of the trusted order


def _full_ring_product(rg, a, b):
    """The product over the whole ring, each output summed from 0.0 in pair order."""
    I, J, _ = rg._mul_table()
    W = a[..., I] * b[..., J]
    out = np.zeros(W.shape[:-1] + (rg.dim,))
    for p, (i, j) in enumerate(zip(I, J)):
        k = rg.index[tuple(u + v for u, v in zip(rg.monomials[i], rg.monomials[j]))]
        out[..., k] += W[..., p]
    return out


TRUNCATION_RINGS = [(4, 4), (4, 5), (4, 6), (6, 5), (6, 6)]


@pytest.mark.parametrize("nvars,order", TRUNCATION_RINGS)
def test_truncated_product_is_bit_identical_to_full_ring(nvars, order):
    rg = ring(nvars, order)
    rng = np.random.default_rng(100 * nvars + order)
    shapes = [((), ()), ((2, 3), (2, 3)), ((3, 1), (1, 2))]  # single, batched, broadcast
    for sa, sb in shapes:
        a, b = rng.uniform(-1, 1, sa + (rg.dim,)), rng.uniform(-1, 1, sb + (rg.dim,))
        ab, ba = _full_ring_product(rg, a, b), _full_ring_product(rg, b, a)
        for valid in range(order + 1):
            low = ring(nvars, valid)
            head = low.dim
            for got, full in (
                (Series(low, a[..., :head]) * Series(rg, b), ab),
                (Series(rg, b) * Series(low, a[..., :head]), ba),
            ):
                assert got.valid == valid
                assert got.coef.shape[-1] == head
                assert np.array_equal(got.coef, full[..., :head])
    # an ndarray operand is a constant series in the other operand's ring
    a, arr = rng.uniform(-1, 1, (2, rg.dim)), rng.uniform(-1, 1, (3, 1))
    full = _full_ring_product(rg, a, Series.const(rg, arr).coef)
    for valid in range(order + 1):
        head = ring(nvars, valid).dim
        got = Series(ring(nvars, valid), a[..., :head]) * arr
        assert got.coef.shape[-1] == head
        assert np.array_equal(got.coef, full[..., :head])


@pytest.mark.parametrize("nvars,order", TRUNCATION_RINGS)
def test_truncated_compose_and_matinv_are_bit_identical(nvars, order):
    rg = ring(nvars, order)
    rng = np.random.default_rng(200 * nvars + order)
    coef = rng.uniform(-0.5, 0.5, (2, rg.dim))
    coef[..., 0] = rng.uniform(0.5, 1.5, 2)  # positive values: powr and log apply
    mat = rng.uniform(-0.2, 0.2, (3, 3, rg.dim))
    mat[..., 0] += 3.0 * np.eye(3)  # invertible constant term
    functions = {
        "recip": Series.recip,
        "powr": lambda s: s.powr(0.37),
        "exp": Series.exp,
        "log": Series.log,
        "sin": Series.sin,
        "cos": Series.cos,
    }
    for name, fn in functions.items():
        full = fn(Series(rg, coef)).coef
        for valid in range(order):
            head = ring(nvars, valid).dim
            got = fn(Series(ring(nvars, valid), coef[..., :head]))
            assert got.valid == valid
            assert got.coef.shape[-1] == head, (name, valid)
            assert np.array_equal(got.coef, full[..., :head]), (name, valid)
    # the full-order Neumann series sums more powers of a correction whose
    # constant term rounds to ~1e-16 instead of 0, so only the last bits agree
    full = matinv(Series(rg, mat)).coef
    for valid in range(order):
        head = ring(nvars, valid).dim
        got = matinv(Series(ring(nvars, valid), mat[..., :head]))
        assert got.coef.shape[-1] == head, ("matinv", valid)
        scale = np.max(np.abs(full[..., :head]))
        assert np.max(np.abs(got.coef - full[..., :head])) <= 1e-14 * scale, ("matinv", valid)


# ---------------------------------------------------------------------------
# constant operands: a factor with no coefficient past the constant term
# scales the other instead of running the ring product


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


constant_terms = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def constant_products(draw):
    """A ring, a constant and a general coefficient array of broadcast batch shapes."""
    nvars = draw(st.integers(2, 6))
    order = draw(st.integers(0, 6))
    rg = ring(nvars, order, draw(st.none() | st.integers(0, order)))
    batch = draw(st.lists(st.integers(1, 3), max_size=2))
    # each operand keeps some axes of the batch and sets the others to 1
    shapes = [
        tuple(k if draw(st.booleans()) else 1 for k in batch)[draw(st.integers(0, len(batch))):]
        for _ in range(2)
    ]
    values = draw(st.lists(constant_terms, min_size=math.prod(shapes[0]), max_size=math.prod(shapes[0])))
    const = np.zeros(shapes[0] + (rg.dim,))
    const[..., 0] = np.reshape(values, shapes[0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    other = rng.uniform(-2.0, 2.0, shapes[1] + (rg.dim,))
    other[rng.random(other.shape) < 0.2] = 0.0
    other[rng.random(other.shape) < 0.2] = -0.0
    return rg, const, other, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(constant_products())
def test_constant_factor_product_is_bit_identical_to_the_ring_product(case):
    rg, const, other, const_left = case
    a, b = (const, other) if const_left else (other, const)
    got = Series(rg, a) * Series(rg, b)
    want = rg.mul_coef(a, b)
    assert got.coef.shape == want.shape
    assert np.array_equal(_bits(got.coef), _bits(want))
    # an ndarray operand is lifted to the same constant series
    got = const[..., 0] * Series(rg, other) if const_left else Series(rg, other) * const[..., 0]
    assert np.array_equal(_bits(got.coef), _bits(rg.mul_coef(a, b)))


@pytest.mark.parametrize("c", [0.0, -0.0, -1.0, 2.5])
def test_scalar_product_has_the_bits_of_the_constant_product(c):
    # a zero product is +0.0 whichever spelling names the constant
    rg = ring(2, 2)
    s = Series(rg, np.array([[-0.0, 0.0, -1.5, 3.0, -0.0, 0.25], [0.0, -0.0, 0.0, -2.0, 1.0, -0.0]]))
    want = rg.mul_coef(s.coef, Series.const(rg, c).coef)
    assert np.array_equal(_bits((s * np.array(c)).coef), _bits(want))
    assert np.array_equal(_bits((s * Series.const(rg, c)).coef), _bits(want))
    for got in (s * c, c * s, s * np.float64(c), np.float64(c) * s):
        assert np.array_equal(_bits(got.coef), _bits(want))


def test_division_by_a_zero_dim_array_is_the_scalar_division():
    # a 0-d array divides as its scalar does, not by a rounded reciprocal,
    # and keeps a -0.0 coefficient
    rg = ring(2, 2)
    rng = np.random.default_rng(3)
    s = Series(rg, rng.uniform(-2.0, 2.0, (4, rg.dim)))
    s.coef[0, 0] = -0.0
    want = s / 3.0
    for got in (s / np.float64(3.0), s / np.array(3.0), s / np.array(3)):
        assert np.array_equal(_bits(got.coef), _bits(want.coef))
    assert math.copysign(1.0, want.coef[0, 0]) == -1.0


# ---------------------------------------------------------------------------
# a formula cuts its factors to their meet before it multiplies: the
# products in the lower ring have the bits of the higher ring's, cut

LOWERED_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "contract": lambda x, y: contract("ij,jk->ik", x, y.transpose(1, 0)),
}


@st.composite
def lowered_pairs(draw):
    """Two (2, 3)-batched series of one ring, and a ring of no higher orders."""
    nvars = draw(st.integers(2, 6))
    order = draw(st.integers(0, 4))
    high = ring(nvars, order, draw(st.none() | st.integers(0, order)))
    low_order = draw(st.integers(0, order))
    low = ring(nvars, low_order, draw(st.integers(0, min(low_order, high.xorder))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.uniform(-2.0, 2.0, (2, 2, 3, high.dim))
    for coef in (a, b):
        coef[rng.random(coef.shape) < 0.2] = 0.0
        coef[rng.random(coef.shape) < 0.2] = -0.0
    if draw(st.booleans()):
        b[..., 1:] = 0.0  # a constant factor
    return high, low, a, b


@settings(max_examples=200, deadline=None)
@given(lowered_pairs())
def test_lowered_factors_give_the_bits_of_the_cut_result(case):
    high, low, a, b = case
    x, y = Series(high, a), Series(high, b)
    marker = Series(low, np.zeros(low.dim))
    lx, ly, lm = ad.lower(x, y, marker)
    assert lx.ring is ly.ring is low and lm is marker
    idx = high.cut_index(low)
    for name, op in LOWERED_OPS.items():
        want = ad._cut(op(x, y).coef, idx)
        assert np.array_equal(_bits(op(lx, ly).coef), _bits(want)), name
    # a series already in the meet comes back as itself; a total-order cut
    # is a view of the coefficient prefix, an x-order cut a gather
    assert ad.lower(x, y)[0] is x
    if high is low:
        assert lx is x
    elif type(idx) is slice:
        assert np.shares_memory(lx.coef, a)
    else:
        assert not np.shares_memory(lx.coef, a)


# ---------------------------------------------------------------------------
# the ring product scatters its pairs with numpy's bincount; two independent
# references: scipy's public sparse product of the same pair table, and a
# Python loop that sums each coefficient's pairs in pair order


def _scipy_product(rg, a, b):
    import scipy.sparse as sp

    I, J, K = rg._mul_table()
    W = a[..., I] * b[..., J]
    npairs = len(I)
    scatter = sp.csr_matrix((np.ones(npairs), (K, np.arange(npairs))), shape=(rg.dim, npairs))
    return (scatter @ W.reshape(-1, npairs).T).T.reshape(W.shape[:-1] + (rg.dim,))


def _pair_order_product(rg, a, b):
    """Each coefficient summed from 0.0 over its pairs in pair order.

    A sum that is NaN keeps its NaN: Python's float ``+`` may return either
    NaN when both operands are NaN, so the loop states the rule itself.
    """
    I, J, K = rg._mul_table()
    W = a[..., I] * b[..., J]
    w = W.reshape(-1, len(I)).tolist()
    acc = [[0.0] * rg.dim for _ in w]
    for col, row in zip(acc, w):
        for k, term in zip(K.tolist(), row):
            col[k] = col[k] if math.isnan(col[k]) else col[k] + term
    return np.array(acc).reshape(W.shape[:-1] + (rg.dim,))


BATCH_SHAPES = [
    ((), ()),
    ((3,), (3,)),
    ((2, 3), (2, 3)),
    ((2, 1), (1, 3)),  # size-1 axes broadcast on both sides
    ((2, 2, 1), (1, 2, 2)),
    ((3,), (2, 3)),  # fewer batch axes on the left
    ((2, 3), (3,)),  # fewer on the right
    ((), (2,)),
    ((0,), (0,)),  # a zero-size batch
    ((2, 0), (1, 0)),
]

special_coefs = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


@st.composite
def ring_products(draw):
    """A ring, two coefficient arrays of broadcast batch shapes, some entries special."""
    nvars = draw(st.sampled_from([2, 4, 6]))
    order = draw(st.integers(0, 6))
    rg = ring(nvars, order, draw(st.none() | st.integers(0, order)))
    sa, sb = draw(st.sampled_from(BATCH_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []
    for shape in (sa, sb):
        coef = rng.uniform(-2.0, 2.0, shape + (rg.dim,))
        flat = coef.reshape(-1)
        for _ in range(draw(st.integers(0, 4)) if flat.size else 0):
            flat[draw(st.integers(0, flat.size - 1))] = draw(special_coefs)
        arrays.append(coef)
    return rg, arrays[0], arrays[1]


@settings(max_examples=300, deadline=None)
@given(ring_products())
def test_ring_product_is_bit_identical_to_the_scipy_product(case):
    # scipy's kernel keeps the new term's NaN where two NaNs meet, the ring
    # product the running sum's: every other bit and every NaN position agree
    rg, a, b = case
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = rg.mul_coef(a, b), _scipy_product(rg, a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(want))
    assert np.array_equal(_bits(got)[~nan], _bits(want)[~nan])
    assert got.flags.writeable


@settings(max_examples=300, deadline=None)
@given(ring_products())
def test_ring_product_sums_each_coefficient_in_pair_order(case):
    rg, a, b = case
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = rg.mul_coef(a, b), _pair_order_product(rg, a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(_bits(got), _bits(want))  # NaN signs included


@settings(max_examples=200, deadline=None)
@given(ring_products(), st.sampled_from([1, 7, 64, 500]))
def test_chunked_ring_product_sums_each_coefficient_in_pair_order(case, budget):
    # a product of more columns than the scatter index covers scatters in
    # chunks, each column still summing its own pairs in order, and the
    # index stays within the budget or one column's pairs
    rg, a, b = case
    saved = ad.SCATTER_ENTRIES
    ad.SCATTER_ENTRIES, rg._scatter_cache = budget, {}
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = rg.mul_coef(a, b), _pair_order_product(rg, a, b)
        size = max(map(len, rg._scatter_cache.values()), default=0)
    finally:
        ad.SCATTER_ENTRIES, rg._scatter_cache = saved, {}
    assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))
    assert size <= max(budget, len(rg._mul_table()[0]))


def test_ring_product_keeps_the_first_nan_of_a_sum():
    # the coefficient of x sums the pairs (1, x) and then (x, 1): NaNs of
    # both signs meet there, and the sum keeps the sign of the first, for
    # one column and for several
    rg = ring(2, 1)
    for first, then in ((np.nan, -np.nan), (-np.nan, np.nan)):
        for batch in ((), (3,)):
            a = np.broadcast_to([1.0, then, 0.0], batch + (3,))
            b = np.broadcast_to([1.0, first, 0.0], batch + (3,))
            got = rg.mul_coef(a, b)[..., 1]
            assert np.all(np.isnan(got)) and np.all(np.signbit(got) == np.signbit(first))


@pytest.mark.parametrize("nvars,order,xorder", [(2, 0, None), (2, 3, None), (4, 4, 2), (6, 5, None)])
def test_compose_is_bit_identical_to_the_ring_product_horner(nvars, order, xorder):
    # _compose's accumulator starts constant, so its first Horner step scales
    rg = ring(nvars, order, xorder)
    rng = np.random.default_rng(nvars + order)
    s = Series(rg, rng.uniform(-0.5, 0.5, (2, rg.dim)))
    t = s.coef.copy()
    t[..., 0] = 0.0
    lower = [rng.uniform(-2.0, 2.0, 2) for _ in range(order)]
    for top in (np.array([0.0, -0.0]), rng.uniform(-2.0, 2.0, 2)):  # zero and nonzero
        dcoefs = lower + [top]
        want = np.zeros(s.coef.shape)
        want[..., 0] = top
        for m in range(order - 1, -1, -1):
            want = rg.mul_coef(want, t)
            want[..., 0] += dcoefs[m]
        assert np.array_equal(_bits(s._compose(dcoefs).coef), _bits(want))


def test_infinite_constant_one_form_still_fails_the_theorem_rows():
    # a parameter with no finite value fails before any product, naming its slot
    F = samples.randers()
    for slot, value in (("A", [np.inf, 0.0]), ("B", [np.inf, np.inf]), ("u", [0.0, -np.inf])):
        pack = dataclasses.replace(
            DeformationParams.zero(2, "inf"),
            f1=Constant(0.3), f2=Constant(-0.2), phi=Constant([[1.0, 0.5], [0.0, 1.0]]),
            **{slot: Constant(value)},
        )
        with pytest.raises(DomainError, match=rf"^parameter {slot} is not finite at x = \["):
            check_theorem(pack, F, SamplePlan(theorem_points=2))


def test_infinite_factor_leaves_a_non_finite_product():
    # a constant factor scales the other instead of running the ring
    # product; with an inf on either side both still hold a non-finite
    # coefficient, so a residual computed from them fails closed
    rg = ring(4, 3)
    rng = np.random.default_rng(5)
    varying = rng.uniform(-1.0, 1.0, (2, rg.dim))
    spiked = varying.copy()
    spiked[0, 3] = np.inf
    cases = [
        (Series.const(rg, [np.inf, 1.0]).coef, varying),  # inf constant factor
        (Series.const(rg, [2.0, 0.0]).coef, spiked),  # inf in the scaled factor
        (varying[::-1].copy(), spiked),  # neither constant: the ring product
    ]
    with np.errstate(invalid="ignore", over="ignore"):
        for a, b in cases:
            for got in (ad._product(rg, a, b), ad._product(rg, b, a), rg.mul_coef(a, b)):
                assert not np.isfinite(got[0]).all()
                assert np.isfinite(got[1]).all()


# ---------------------------------------------------------------------------
# rings cut in x: the first nvars // 2 variables are the base, and a ring of
# x-order q keeps the monomials of x-degree <= q


def _kept(full, cut):
    """Positions of the cut ring's monomials among the uncut ring's."""
    return np.array([full.index[m] for m in cut.monomials])


CUT_RINGS = [
    (nvars, order, xorder)
    for nvars, order in [(4, 4), (4, 5), (4, 6), (6, 5), (6, 6)]
    for xorder in range(order + 1)
]


def test_cut_ring_keeps_the_graded_monomials_of_low_x_degree():
    full, cut = ring(6, 6), ring(6, 6, 3)
    assert (full.dim, cut.dim) == (924, 662)
    assert len(cut._mul_table()[0]) == 12_810 and len(full._mul_table()[0]) == 18_564
    assert cut.monomials == [m for m in full.monomials if sum(m[:3]) <= 3]
    assert ring(4, 4, 9) is ring(4, 4, 4) is ring(4, 4)  # x-order >= order cuts nothing
    assert ring(4, 4, 2) is not ring(4, 4) and ring(4, 4, 2).xorder == 2


@pytest.mark.parametrize("nvars,order,xorder", CUT_RINGS)
def test_cut_ring_arithmetic_is_bit_identical_to_the_uncut_ring(nvars, order, xorder):
    full, cut = ring(nvars, order), ring(nvars, order, xorder)
    keep = _kept(full, cut)
    rng = np.random.default_rng(1000 * nvars + 10 * order + xorder)
    n = nvars // 2

    def pair(shape, positive=False):
        coef = rng.uniform(-0.5, 0.5, shape + (full.dim,))
        if positive:
            coef[..., 0] = rng.uniform(0.5, 1.5, shape)
        return Series(full, coef), Series(cut, coef[..., keep])

    def same(got, want, cut_to=cut, label=""):
        assert got.ring is cut_to, label
        assert np.array_equal(got.coef, want.coef[..., _kept(want.ring, cut_to)]), label

    (a, a_cut), (b, b_cut) = pair((2, 3)), pair((1, 3))
    same(a_cut * b_cut, a * b, label="product")
    same(a_cut + b_cut, a + b, label="sum")
    s, s_cut = pair((2,), positive=True)
    for name, fn in (
        ("recip", Series.recip),
        ("powr", lambda v: v.powr(0.37)),
        ("exp", Series.exp),
        ("log", Series.log),
        ("sin", Series.sin),
        ("cos", Series.cos),
    ):
        same(fn(s_cut), fn(s), label=name)
    for var in range(nvars):
        if var < n and xorder == 0:
            continue
        low = ring(nvars, order - 1, xorder - (var < n))
        same(s_cut.d(var), s.d(var), cut_to=low, label=f"d{var}")
    mat, mat_cut = pair((n, n))
    for m in (mat, mat_cut):
        m.coef[..., 0] += 3.0 * np.eye(n)  # an invertible constant term
    same(matinv(mat_cut), matinv(mat), label="matinv")
    (T, T_cut), (v, v_cut) = pair((n, n, n)), pair((n,))
    same(contract("il,ljk->ijk", mat_cut, T_cut), contract("il,ljk->ijk", mat, T), label="contract")
    same(contract("ipj,p->ij", T_cut, v_cut), contract("ipj,p->ij", T, v), label="contract")
    same(Series.stack([v_cut, s_cut[0] * v_cut]), Series.stack([v, s[0] * v]), label="stack")


@pytest.mark.parametrize("nvars,order,xorder", [(4, 4, None), (4, 5, 2), (6, 5, 1), (6, 4, 3)])
def test_gradients_are_the_stacked_partials(nvars, order, xorder):
    rg, n = ring(nvars, order, xorder), nvars // 2
    rng = np.random.default_rng(nvars + order)
    for shape in ((), (n,), (n, 2)):
        s = Series(rg, rng.uniform(-1.0, 1.0, shape + (rg.dim,)))
        for axis in range(len(shape) + 1):
            for grad, vars_ in ((s.dx(axis), range(n)), (s.dy(axis), range(n, nvars))):
                parts = [s.d(v) for v in vars_]
                assert grad.ring is parts[0].ring
                want = np.stack([p.coef for p in parts], axis=axis)
                assert np.array_equal(_bits(grad.coef), _bits(want))
    with pytest.raises(TruncationError):
        Series(ring(nvars, order, 0), np.zeros(ring(nvars, order, 0).dim)).dx()


@pytest.mark.parametrize("nvars,order", [(4, 5), (6, 6)])
def test_meet_takes_the_lower_of_each_order(nvars, order):
    full = ring(nvars, order)
    rng = np.random.default_rng(nvars + order)
    coef = rng.uniform(-1, 1, (2, full.dim))
    rings = [ring(nvars, p, q) for p in range(order + 1) for q in range(p + 1)]
    for ra in rings:
        a = Series(ra, coef[..., _kept(full, ra)])
        for rb in rings:
            b = Series(rb, coef[::-1][..., _kept(full, rb)])
            low = ring(nvars, min(ra.order, rb.order), min(ra.xorder, rb.xorder))
            a_low = Series(low, coef[..., _kept(full, low)])
            b_low = Series(low, coef[::-1][..., _kept(full, low)])
            for got, want in (
                (a + b, a_low + b_low),
                (b - a, b_low - a_low),
                (a * b, a_low * b_low),
                (Series.stack([a, b]), Series.stack([a_low, b_low])),
            ):
                assert got.ring is want.ring is low, (ra, rb)
                assert np.array_equal(got.coef, want.coef), (ra, rb)
    with pytest.raises(ValueError):
        Series.const(ring(4, 3, 1), 1.0) + Series.const(ring(6, 3, 1), 1.0)


def test_seed_on_x_at_x_order_zero_is_the_constant():
    jets = ChartJets.at([0.3, -0.2], [0.7, 1.1], order=(3, 0))
    assert jets.ring is ring(4, 3, 0)
    assert np.array_equal(jets.xs.coef, Series.const(jets.ring, [0.3, -0.2]).coef)
    assert jets.ys[1].extract((0, 0, 0, 1)) == 1.0
    f = (jets.xs[0] * jets.ys[0]).exp()
    assert f.val == pytest.approx(math.exp(0.3 * 0.7))
    assert f.extract((0, 0, 2, 0)) == pytest.approx(0.3**2 * math.exp(0.3 * 0.7))


def test_d_and_extract_past_the_x_order_raise():
    jets = ChartJets.at([0.3, -0.2], [0.7, 1.1], order=(4, 1))
    f = (jets.xs[0] * jets.ys[1]).exp()
    fx = f.d(0)
    assert fx.ring is ring(4, 3, 0)
    with pytest.raises(TruncationError, match="x-order 0"):
        fx.d(1)
    assert fx.d(2).ring is ring(4, 2, 0)  # the fiber still differentiates
    assert f.extract((1, 0, 0, 1)) == pytest.approx(
        (1 + 0.3 * 1.1) * math.exp(0.3 * 1.1)
    )
    with pytest.raises(TruncationError, match="x-order"):
        f.extract((1, 1, 0, 0))
    with pytest.raises(TruncationError, match="x-order"):
        fx.extract((1, 0, 0, 0))
    with pytest.raises(TruncationError):
        f.extract((0, 0, 3, 2))  # past the total order still raises


@contextlib.contextmanager
def _tower_builds():
    """Every tower built inside, as ``(weakref, structure name, point key,
    order)``, with the cycle collector off so only reference counting frees."""
    built = []
    init = Tower.__init__

    def recording_init(self, structure, point, order):
        init(self, structure, point, order)
        built.append((weakref.ref(self), structure.name, point.key(), order))

    Tower.__init__ = recording_init
    gc.collect()
    gc.disable()
    try:
        yield built
    finally:
        gc.enable()
        Tower.__init__ = init


_ONE_POINT_PLAN = SamplePlan(
    param_sets=1, theorem_points=1, construction_points=1, torsion_points=1,
    curvature_points=1, bianchi_points=1, process_points=1, case_points=1, fd_points=1,
)


def test_dropped_structures_free_their_towers_without_gc():
    # a tower lives while its caller holds it: neither a dropped structure
    # nor a held one keeps a tower that no caller holds
    plan = _ONE_POINT_PLAN
    with _tower_builds() as towers:
        F = samples.quartic_three_dim()
        for case_id in (3, 4, 5):  # Ricci weight, metric split parts of phi
            pack = preset(case_id, F, **default_free_choices(case_id, F))
            check_curvatures(pack, F, plan)
        del F, pack
        run_all([samples.randers(0.5)], plan)  # every case pack of the catalog
        alive = sum(ref() is not None for ref, *_ in towers)
        F = samples.randers(0.5)  # held across 20 single-point reports
        pack = random_param_sets(F, plan)[0]
        points = sample_points(F, plan, 20, "lifetimes")
        before = len(towers)
        tensor_report(F, pack, points)
        reported = towers[before:]
        cached = len(F._towers)
        alive_reported = sum(ref() is not None for ref, *_ in reported)
    assert towers and alive == 0
    assert len(reported) == 20 and alive_reported == 0 and cached == 0


def test_run_all_builds_each_tower_once():
    # the suites that revisit points (the theorem's packs, the catalog's
    # entries) hold their towers in between, and the Cartan-flat verdict is
    # decided once per structure
    plan = dataclasses.replace(_ONE_POINT_PLAN, param_sets=3, theorem_points=2, case_points=2)
    with _tower_builds() as towers:
        run_all([samples.randers(0.5)], plan)
    keys = [tuple(key) for _, *key in towers]
    assert keys and len(set(keys)) == len(keys)


def test_scatter_index_caches_stay_bounded_across_passes():
    # the ring product caches one flat index per ring and column count; the
    # counts come from tensor shapes, not from points, so a second pass of
    # the battery adds no index
    config = cli.parse_config(cli.default_config_text(), origin="<built-in>")

    def cached():
        return {key: set(rg._scatter_cache) for key, rg in ad._RINGS.items()}

    run_all(cli._structures(config), _ONE_POINT_PLAN)
    first = cached()
    run_all(cli._structures(config), _ONE_POINT_PLAN)
    assert any(first.values()) and cached() == first


def test_call_plan_and_meet_caches_stay_bounded_across_passes():
    # contraction plans are keyed by spec, rings and shapes, and meets by the
    # tuple of rings; neither depends on the point, so a second pass of the
    # battery adds no entry to either
    config = cli.parse_config(cli.default_config_text(), origin="<built-in>")
    run_all(cli._structures(config), _ONE_POINT_PLAN)
    plans, meets = set(ad._PLANS), set(ad._MEETS)
    run_all(cli._structures(config), _ONE_POINT_PLAN)
    assert plans and meets
    assert set(ad._PLANS) == plans and set(ad._MEETS) == meets


def test_second_pass_adds_no_view_and_no_cache_entry(monkeypatch):
    # a read-ring view lives while a tower's memo or a caller holds it, so
    # no view outlives its pass and a second pass adds none, nor a plan or meet
    views = []
    at = Connection.at

    def recorded(self, read):
        view = at(self, read)
        views.append(weakref.ref(view))
        return view

    monkeypatch.setattr(Connection, "at", recorded)
    config = cli.parse_config(cli.default_config_text(), origin="<built-in>")
    gc.disable()
    try:
        run_all(cli._structures(config), _ONE_POINT_PLAN)
        first = sum(ref() is not None for ref in views)
        plans, meets = set(ad._PLANS), set(ad._MEETS)
        run_all(cli._structures(config), _ONE_POINT_PLAN)
        second = sum(ref() is not None for ref in views)
    finally:
        gc.enable()
    assert views and first == second == 0
    assert set(ad._PLANS) == plans and set(ad._MEETS) == meets


def test_random_packs_are_freed_without_gc(monkeypatch):
    # a pack's connection and process family hold the pack, not the other
    # way round, so reference counting frees every pack after the run
    packs = []

    def recorded(*args, **kwargs):
        pack = random_params(*args, **kwargs)
        packs.append(weakref.ref(pack))
        return pack

    monkeypatch.setattr(verify, "random_params", recorded)
    config = cli.parse_config(cli.default_config_text(), origin="<built-in>")
    gc.disable()
    try:
        run_all(cli._structures(config), _ONE_POINT_PLAN)
        alive = [ref() is not None for ref in packs]
    finally:
        gc.enable()
    assert len(alive) == 3 and not any(alive)


def test_matinv_inverts_series_matrix():
    jets = ChartJets.at([0.2, -0.1], [0.8, 1.2], order=3)
    x, y = jets.xs, jets.ys
    # SPD-ish matrix with genuine chart dependence in every entry
    m = Series.stack(
        [
            Series.stack([2.0 + x[0] ** 2 + y[0] * 0.1, x[0] * x[1] + 0.3 * y[1]]),
            Series.stack([x[0] * x[1] + 0.3 * y[1], 3.0 + x[1] ** 2 + 0.2 * y[0] ** 2]),
        ]
    )
    mi = matinv(m)
    prod = matmul(m, mi)
    eye = np.zeros_like(prod.coef)
    eye[0, 0, 0] = eye[1, 1, 0] = 1.0
    assert np.allclose(prod.coef, eye, atol=1e-12)
    assert np.allclose(matmul(mi, m).coef, eye, atol=1e-12)


def test_matinv_derivative_identity():
    # d(g^{-1}) = -g^{-1} (dg) g^{-1}
    jets = ChartJets.at([0.3], [1.1], order=3)
    x = jets.xs
    m = Series.stack(
        [
            Series.stack([2.0 + x[0] ** 2, jets.const(0.4)]),
            Series.stack([jets.const(0.4), 1.5 + x[0]]),
        ]
    )
    mi = matinv(m)
    lhs = mi.d(0)
    rhs = -matmul(matmul(mi, m.d(0)), mi)
    keep = lhs.ring._prefix[lhs.valid + 1]
    assert np.allclose(lhs.coef[..., :keep], rhs.coef[..., :keep], atol=1e-11)


@pytest.mark.parametrize("F", [samples.randers(), samples.quartic_three_dim()], ids=lambda F: F.name)
def test_matinv_multiplies_only_the_powers_it_sums(F, monkeypatch):
    # an order-m Neumann sum I + r + ... + r^m needs m - 1 products; the
    # result matches the sum written out term by term, bit for bit
    point = ChartPoint(np.full(F.n, 0.1), np.linspace(0.7, 1.3, F.n))
    calls = []
    counted = ad.contract

    def counting(spec, *operands):
        calls.append(spec)
        return counted(spec, *operands)

    for order in range(5):
        g = F.tower(point, order + 2).g
        assert g.valid == order
        b0 = np.linalg.inv(g.val)
        rem = Series.const(g.ring, np.eye(F.n)) - Series(g.ring, np.einsum("ij,jkd->ikd", b0, g.coef))
        acc, power = Series.const(g.ring, np.eye(F.n)), rem
        for _ in range(order):
            acc = acc + power
            power = matmul(power, rem)
        want = np.einsum("ijd,jk->ikd", acc.coef, b0)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ad, "contract", counting)
            got = matinv(g)
        assert len(calls) == max(order - 1, 0), order
        assert np.array_equal(got.coef, want), order


# ---------------------------------------------------------------------------
# field protocol + module-level helpers


def test_constant_fields_evaluate():
    jets = ChartJets.at([0.0, 0.0], [1.0, 0.0], order=2)
    assert Constant(2.5).eval(jets).val == pytest.approx(2.5)
    assert Constant((1.0, -2.0)).eval(jets).val == pytest.approx([1.0, -2.0])
    assert np.allclose(Constant(np.eye(2)).eval(jets).val, np.eye(2))
    assert np.allclose(Constant(np.zeros((2, 2))).eval(jets).val, 0.0)


def test_batch_getitem_keeps_ring_axis():
    jets = ChartJets.at([0.1, 0.2], [0.3, 0.4], order=2)
    stacked = Series.stack([jets.xs, jets.ys])  # shape (2, 2)
    assert stacked.shape == (2, 2)
    assert stacked[1, 0].val == pytest.approx(0.3)
    assert stacked[:, 1].shape == (2,)


def test_series_rejects_mixed_rings():
    a = ChartJets.at([0.1], [1.0], order=2)
    b = ChartJets.at([0.1, 0.2], [1.0, 1.0], order=2)
    with pytest.raises(ValueError):
        a.xs[0] + b.xs[0]
    with pytest.raises(ValueError):
        Series.stack([a.xs[0], b.xs[0]])


def test_mixed_orders_meet_in_the_lower_ring():
    jets = ChartJets.at([0.3], [1.2], order=4)
    f = (jets.xs[0] * jets.ys[0]).exp()
    low = f.d(1).d(0)  # order 2
    lower = ring(2, 2)
    cut = Series(lower, f.coef[..., : lower.dim])
    for got, want in (
        (f + low, cut + low),
        (low - f, low - cut),
        (f * low, cut * low),
        (low * f, low * cut),
        (Series.stack([f, low]), Series.stack([cut, low])),
        (contract("i,i->", Series.stack([f, f]), Series.stack([low, low])),
         contract("i,i->", Series.stack([cut, cut]), Series.stack([low, low]))),
    ):
        assert got.ring is want.ring is lower
        assert np.array_equal(got.coef, want.coef)


def test_benchmark_hooks_see_every_product(monkeypatch):
    # the benchmark paces its reference kernel from TaylorRing.mul_coef, so
    # a product that bypassed it would leave the benchmark without its unit
    # of machine speed; it also reads Series.valid as the trusted order of
    # every product
    calls = []
    mul_coef = TaylorRing.mul_coef

    def counting(rg, a, b):
        calls.append((rg.order, a.shape[:-1], b.shape[:-1]))
        return mul_coef(rg, a, b)

    monkeypatch.setattr(TaylorRing, "mul_coef", counting)
    jets = ChartJets.at([0.2, -0.1], [0.8, 1.2], order=3)
    x, y = jets.xs, jets.ys
    m = Series.stack([Series.stack([2.0 + x[0] * x[1], 0.1 * y[0]]),
                      Series.stack([0.3 * y[1], 3.0 + x[1] ** 2])])
    products = (
        ("product", lambda: x[0] * y[1]),
        ("exp", x[0].exp),
        ("sqrt", (2.0 + x[0] * y[1]).sqrt),
        ("matinv", lambda: matinv(m)),
        ("contract", lambda: contract("ij,jk->ik", m, m)),
    )
    for name, fn in products:
        calls.clear()
        fn()
        assert calls, name
    assert calls == [(3, (2, 2, 1), (1, 2, 2))]  # the broadcast contraction
    dx = x.d(0)
    for s in (x * dx, dx, Series.stack([x, dx]), contract("i,i->", x, dx)):
        assert s.valid == s.ring.order == 2
