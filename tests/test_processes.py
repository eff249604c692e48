"""Tests for the process transformations and the four-connection family.

Oracles:

* the classical square: the P1- and C-processes applied to the metric
  connection must land exactly on the independently constructed
  Hashiguchi / Chern-Rund / Berwald connections (fiber derivative of N,
  zero vertical part) -- this pins the argument-order convention;
* closed forms: the deformed Hashiguchi-type horizontal coefficients equal
  the horizontal torsion plus the fiber derivative of the deformed
  nonlinear connection;
* structural facts: the nonlinear part is invariant under both processes,
  the square commutes, and each process is idempotent where its defining
  torsion vanishes.
"""

import numpy as np
import pytest

from finslerconn.connection import CARTAN, torsions
from finslerconn.deformation import DeformationParams
from finslerconn.finsler import ChartPoint
from finslerconn.processes import (
    BERWALD,
    CHERN_RUND,
    CLASSICAL,
    HASHIGUCHI,
    _DIAGRAM_ORDER,
    berwald_coefficients,
    c_process,
    derive_family,
    diagram_residuals,
    p1_process,
)
from finslerconn.samples import curved_three_dim, hyperbolic, randers
from tests.test_deformation import P2, P3, general_params

# ---------------------------------------------------------------------------
# classical square


def test_p1_of_metric_connection_is_hashiguchi():
    out = p1_process(CARTAN)
    for F, p in ((randers(), P2), (curved_three_dim(), P3)):
        t = F.tower(p, 4)
        assert np.max(np.abs((out.H(t) - berwald_coefficients(t)).val)) < 1e-12
        assert np.max(np.abs((out.N(t) - t.N).val)) < 1e-14
        assert np.max(np.abs((out.V(t) - t.T_mix).val)) < 1e-14


def test_c_of_metric_connection_is_chern_rund():
    out = c_process(CARTAN)
    t = randers().tower(P2, 4)
    assert np.max(np.abs(out.V(t).val)) < 1e-14
    assert np.max(np.abs((out.H(t) - t.Gamma).val)) < 1e-14


def test_p1_of_chern_rund_is_berwald():
    # uses the symmetry of the metric horizontal coefficients
    out = p1_process(CHERN_RUND)
    t = randers().tower(P2, 4)
    assert np.max(np.abs((out.H(t) - BERWALD.H(t)).val)) < 1e-12
    assert np.max(np.abs(out.V(t).val)) < 1e-14


def test_berwald_coefficients_symmetric():
    t = curved_three_dim().tower(P3, 4)
    bc = berwald_coefficients(t)
    assert np.max(np.abs((bc - bc.transpose(0, 2, 1)).val)) < 1e-12


def test_p1_idempotent_on_hashiguchi():
    # the deflection-type torsion of the Hashiguchi connection vanishes
    once = p1_process(HASHIGUCHI)
    t = randers().tower(P2, 4)
    assert np.max(np.abs(torsions(HASHIGUCHI, t).vhv.val)) < 1e-12
    assert np.max(np.abs((once.H(t) - HASHIGUCHI.H(t)).val)) < 1e-12


def test_c_idempotent():
    once = c_process(CARTAN)
    twice = c_process(once)
    t = randers().tower(P2, 4)
    assert np.max(np.abs(twice.V(t).val)) < 1e-14
    assert np.max(np.abs((twice.H(t) - once.H(t)).val)) < 1e-14


def test_classical_registry_names():
    assert set(CLASSICAL) == {"cartan", "hashiguchi", "chern-rund", "berwald"}
    assert CLASSICAL["cartan"] is CARTAN


# ---------------------------------------------------------------------------
# deformed family


def test_family_shares_nonlinear_part():
    params = general_params(2)
    fam = derive_family(params)
    F = randers()
    t = F.tower(P2, 4)
    base_N = fam.base.N(t)
    for _, member in fam.members():
        assert np.max(np.abs((member.N(t) - base_N).val)) < 1e-14


def test_family_is_cached():
    # the diagram keeps one family per pack in the memo of the tower it reads
    F = randers()
    params = general_params(2)
    t = F.tower(P2, _DIAGRAM_ORDER)
    diagram_residuals(params, F, P2)
    family = t.cache[(params, "family")]
    diagram_residuals(params, F, P2)
    assert t.cache[(params, "family")] is family


def test_hashiguchi_type_closed_form():
    # H' = (h)h-torsion + fiber derivative of the deformed N
    params = general_params(2)
    fam = derive_family(params)
    F = randers()
    t = F.tower(P2, 4)
    n = t.n
    from finslerconn.ad import Series

    dyN = Series.stack([fam.base.N(t).d(n + k) for k in range(n)], axis=2)
    closed = torsions(fam.base, t).hh + dyN.transpose(0, 2, 1)
    assert np.max(np.abs((fam.hashiguchi.H(t) - closed).val)) < 1e-12


def test_square_commutes_exactly():
    params = general_params(3)
    fam = derive_family(params)
    other = p1_process(c_process(fam.base))
    t = curved_three_dim().tower(P3, 4)
    assert np.max(np.abs((other.H(t) - fam.berwald.H(t)).val)) < 1e-14
    assert np.max(np.abs((other.V(t) - fam.berwald.V(t)).val)) < 1e-14
    assert np.max(np.abs((other.N(t) - fam.berwald.N(t)).val)) < 1e-14


def test_zero_params_family_collapses_to_classical():
    fam = derive_family(DeformationParams.zero(2))
    t = randers().tower(P2, 4)
    for (_, member), classical in zip(
        fam.members(), (CARTAN, HASHIGUCHI, CHERN_RUND, BERWALD)
    ):
        assert np.max(np.abs((member.N(t) - classical.N(t)).val)) < 1e-12
        assert np.max(np.abs((member.H(t) - classical.H(t)).val)) < 1e-12
        assert np.max(np.abs((member.V(t) - classical.V(t)).val)) < 1e-12


def test_vertical_parts_after_c_process_vanish():
    params = general_params(2)
    fam = derive_family(params)
    t = hyperbolic().tower(P2, 4)
    assert np.max(np.abs(fam.chern_rund.V(t).val)) < 1e-14
    assert np.max(np.abs(fam.berwald.V(t).val)) < 1e-14
    assert np.max(np.abs((fam.hashiguchi.V(t) - t.T_mix).val)) < 1e-14


# ---------------------------------------------------------------------------
# the whole diagram


@pytest.mark.parametrize(
    "F,point",
    [(randers(), P2), (curved_three_dim(), P3)],
    ids=["randers", "threedim"],
)
def test_diagram_residuals_all_small(F, point):
    rows = diagram_residuals(general_params(F.n), F, point)
    assert len(rows) == 13
    for name, value in rows.items():
        assert value < 1e-12, f"{name}: {value:.3e}"


def test_diagram_residuals_reuse_their_memo_entries():
    # the zero pack, its family and the process connections are built once
    F = randers()
    params = general_params(2)
    t = F.tower(P2, _DIAGRAM_ORDER)  # the tower the diagram reads
    sizes = []
    for _ in range(3):
        diagram_residuals(params, F, P2)
        sizes.append(len(t.cache))
    assert sizes[0] == sizes[1] == sizes[2]


def test_diagram_rows_cover_both_squares_and_collapse():
    rows = diagram_residuals(DeformationParams.zero(2), randers(), P2)
    prefixes = {name.split(":")[0] for name in rows}
    assert prefixes == {"deformed", "classical", "collapse"}
