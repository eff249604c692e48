"""Tests for the catalog of classical connection types.

Oracles:

* the quadratic closed form of the vertical curvature (a pure Cartan-tensor
  expression) is pinned against the curvature machinery before any display
  that leans on it is trusted;
* hand values on the Euclidean plane at a 3-4-5 point;
* independence of routes: the displays are value-level einsum
  transcriptions, the built difference tensor comes from the jet-series
  assembly, and the two must agree at machine precision;
* the typo-flagged entries must disagree with their printed form exactly
  where the vertical curvature is nonzero (the 3d quartic sample) and agree
  where it collapses (dimension two, Riemannian metrics);
* packs read the metric of the tower they are evaluated on: a pack outlives
  the structure it was built on, and one built on another structure of the
  same dimension evaluates bit for bit like a pack built on the tower's own.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from finslerconn import cases, expr
from finslerconn.ad import Constant
from finslerconn.cases import (
    CATALOG,
    CaseError,
    MetricSplitPart,
    catalog,
    check_case,
    closed_form_delta,
    default_free_choices,
    preset,
)
from finslerconn.connection import CARTAN, curvature_v
from finslerconn.deformation import DeformationParams, deformation_data
from finslerconn.expr import ExprMatrixField
from finslerconn.finsler import ChartPoint, HilbertFormField
from finslerconn.samples import (
    euclidean,
    hyperbolic,
    quartic_three_dim,
    randers,
)
from finslerconn.verify import (
    SamplePlan,
    check_cases,
    check_processes,
    check_theorem,
    check_torsions,
    run_all,
    sample_points,
)
from tests.test_deformation import P2, data_at

P34 = ChartPoint([0.0, 0.0], [3.0, 4.0])
P3Q = ChartPoint([0.2, -0.3, 0.4], [0.9, 0.5, 1.2])
P3Q2 = ChartPoint([-0.1, 0.3, 0.1], [1.1, 0.8, 0.6])


def quadratic_vertical_curvature(t) -> np.ndarray:
    """S[i, m, j, k] from the Cartan tensor alone."""
    Tm = t.T_mix.val
    return np.einsum("ijl,lkm->imjk", Tm, Tm) - np.einsum("ikl,ljm->imjk", Tm, Tm)


# ---------------------------------------------------------------------------
# the quadratic vertical-curvature oracle
# ---------------------------------------------------------------------------


def test_vertical_curvature_is_quadratic_in_cartan_tensor():
    t = quartic_three_dim().tower(P3Q, 4)
    S = curvature_v(CARTAN, t).val
    assert np.max(np.abs(S)) > 0.1
    assert np.max(np.abs(S - quadratic_vertical_curvature(t))) < 1e-13


def test_vertical_curvature_collapses_in_dimension_two():
    # the Cartan tensor has rank one in dimension two, so any quadratic
    # alternation of it -- the vertical curvature in particular -- vanishes
    t = randers().tower(P2, 4)
    assert np.max(np.abs(curvature_v(CARTAN, t).val)) < 1e-14
    assert np.max(np.abs(quadratic_vertical_curvature(t))) < 1e-14


# ---------------------------------------------------------------------------
# registry shape and preset validation
# ---------------------------------------------------------------------------


def test_catalog_has_twenty_six_entries():
    rows = catalog()
    assert [row["id"] for row in rows] == list(range(1, 27))
    assert {row["id"] for row in rows if row["typo"]} == {11, 12, 13, 14}
    assert {row["id"] for row in rows if row["convention"]} == {3}
    assert {row["id"] for row in rows if not row["has_display"]} == {3}
    assert all(row["title"] for row in rows)
    for row in rows:
        assert set(row["free"]) <= {"t", "f1", "f2", "A", "B", "u", "phi"}
    assert [row["id"] for row in rows if not row["free"]] == [16, 19, 26]


def test_preset_rejects_missing_and_unknown_choices():
    F = randers()
    with pytest.raises(CaseError, match="f1, A, u, phi"):
        preset(7, F)
    with pytest.raises(CaseError, match="does not take B"):
        preset(15, F, u=(0.1, 0.2), B=(0.3, 0.4))
    with pytest.raises(CaseError, match="unknown case id"):
        preset(27, F, u=(0.1, 0.2))


@pytest.mark.parametrize("case_id", [1, 11])
def test_check_case_without_points_fails_closed(case_id):
    # an empty comparison would read as a residual of 0.0: a silent pass
    with pytest.raises(CaseError, match=f"case {case_id} needs at least one point"):
        check_case(case_id, randers(), points=[])


def test_preset_binds_constraints():
    F = randers()
    c1 = default_free_choices(1, F)
    p1 = preset(1, F, **c1)
    assert isinstance(p1.f1, Constant) and isinstance(p1.f2, Constant)
    assert p1.f1.values == pytest.approx(1.0 - c1["t"])
    assert p1.f2.values == pytest.approx(-c1["t"])
    assert p1.A is p1.B

    p8 = preset(8, F, u=(0.4, -0.3), phi=(("1", "0.2"), ("0.2", "1")))
    assert p8.A is p8.u

    p12 = preset(12, F, **default_free_choices(12, F))
    assert p12.B is p12.u
    assert isinstance(p12.A, Constant) and not np.any(p12.A.values)

    p16 = preset(16, F)
    assert isinstance(p16.u, HilbertFormField)
    t = F.tower(P2, 4)
    assert np.allclose(deformation_data(p16, t).u.val, t.ell.val, atol=1e-12)


def test_split_weight_presets_project_correctly():
    F = randers()
    grid = (("1 + 0.2*x1", "0.3*y2"), ("0.1 - 0.2*y1", "0.5 + 0.1*x2"))
    t = F.tower(P2, 4)
    p4 = preset(4, F, u=(0.4, -0.3), phi=grid)
    assert isinstance(p4.phi, MetricSplitPart)
    assert np.max(np.abs(deformation_data(p4, t).phi2.val)) < 1e-14
    p5 = preset(5, F, u=(0.4, -0.3), phi=grid)
    assert np.max(np.abs(deformation_data(p5, t).phi1.val)) < 1e-14


# ---------------------------------------------------------------------------
# hand values and explicit displays
# ---------------------------------------------------------------------------


def test_hilbert_drift_display_at_a_345_point():
    F = euclidean(2)
    params = preset(16, F)
    delta = closed_form_delta(16, params, F, P34)
    ell = np.array([0.6, 0.8])
    eye = np.eye(2)
    y = np.array([3.0, 4.0])
    expected = (
        -(1.0 / 5.0) * y[:, None, None] * eye[None, :, :]
        + eye[:, :, None] * ell[None, None, :]
    )
    assert np.allclose(delta, expected, atol=1e-12)
    assert np.allclose(delta[:, 0, :] @ (0.0, 1.0), [0.8, 0.0], atol=1e-12)
    assert np.max(np.abs(data_at(params, F, P34).difference.val - delta)) < 1e-12


def test_drift_only_display_is_rank_one():
    F = randers()
    params = preset(22, F, u=(0.4, -0.3))
    delta = closed_form_delta(22, params, F, P2)
    u = np.array([0.4, -0.3])
    assert np.allclose(delta, np.eye(2)[:, :, None] * u[None, None, :], atol=1e-14)
    assert np.max(np.abs(data_at(params, F, P2).difference.val - delta)) < 1e-12


def test_dual_weight_display_is_the_symmetrized_product():
    F = randers()
    params = preset(25, F, A=(0.3, 0.2))
    delta = closed_form_delta(25, params, F, P2)
    A = np.array([0.3, 0.2])
    eye = np.eye(2)
    expected = A[None, :, None] * eye[:, None, :] + A[None, None, :] * eye[:, :, None]
    assert np.allclose(delta, expected, atol=1e-14)
    assert np.max(np.abs(data_at(params, F, P2).difference.val - delta)) < 1e-12


@pytest.mark.parametrize("case_id,signs", [(19, (-1.0, -1.0, 1.0)), (26, (1.0, -1.0, -1.0))])
def test_hilbert_recurrent_displays(case_id, signs):
    # both parameter-free entries reduce to L-weighted combinations of the
    # metric, the Hilbert form and the identity
    F = randers()
    params = preset(case_id, F)
    t = F.tower(P2, 4)
    g, ell, L = t.g.val, t.ell.val, float(t.L.val)
    y = np.asarray(P2.y)
    eye = np.eye(2)
    s_g, s_j, s_k = signs
    expected = 0.5 * (
        s_g * (1.0 / L) * y[:, None, None] * g[None, :, :]
        + s_j * ell[None, :, None] * eye[:, None, :]
        + s_k * ell[None, None, :] * eye[:, :, None]
    )
    delta = closed_form_delta(case_id, params, F, P2)
    assert np.allclose(delta, expected, atol=1e-12)
    assert np.max(np.abs(data_at(params, F, P2).difference.val - delta)) < 1e-11


def test_ricci_weight_on_constant_curvature_is_minus_identity():
    F = hyperbolic()
    params = preset(3, F, u=(0.4, -0.3))
    t = F.tower(P2, 4)
    phi = deformation_data(params, t).phi.val
    assert np.allclose(phi, -np.eye(2), atol=1e-9)


def test_weights_are_inert_without_drift():
    # with u = 0 every phi-term of the difference tensor carries a factor
    # of u, so arbitrary phi must not change case 24
    F = randers()
    c = default_free_choices(24, F)
    p_plain = preset(24, F, **c)
    p_loaded = DeformationParams(
        f1=p_plain.f1,
        f2=p_plain.f2,
        A=p_plain.A,
        B=p_plain.B,
        u=p_plain.u,
        phi=ExprMatrixField(2, (("1 + 0.3*y2", "0.4"), ("0.2*x1", "0.7"))),
        name="case-24-loaded",
    )
    a = data_at(p_plain, F, P2).difference.val
    b = data_at(p_loaded, F, P2).difference.val
    assert np.max(np.abs(a - b)) < 1e-14


# ---------------------------------------------------------------------------
# the full catalog against the built connection
# ---------------------------------------------------------------------------


def case_points(F):
    """The points the ``cases`` suite samples on ``F`` under the default plan."""
    return sample_points(F, SamplePlan(), 4, "cases")


@pytest.mark.parametrize("build_structure", [euclidean, hyperbolic, randers])
def test_all_cases_pass_on_two_dimensional_structures(build_structure):
    F = build_structure()
    points = case_points(F)
    for case_id in range(1, 27):
        row = check_case(case_id, F, points)
        assert row["residual"] < 1e-7, (F.name, case_id, row["residual"])


def test_all_cases_pass_with_nonzero_vertical_curvature():
    F = quartic_three_dim()
    for case_id in range(1, 27):
        row = check_case(case_id, F, points=[P3Q, P3Q2])
        assert row["residual"] < 1e-7, (case_id, row["residual"])


@pytest.mark.parametrize("case_id", [11, 12, 13, 14])
def test_typo_entries_disagree_with_their_printed_form(case_id):
    # the printed displays put the switched-off first weight in the
    # vertical-curvature slot; where S is nonzero that term is visibly
    # missing, and where S collapses the printed form is accidentally right
    row = check_case(case_id, quartic_three_dim(), points=[P3Q, P3Q2])
    assert row["typo"] and row["residual"] < 1e-7
    assert row["literal_residual"] > 1e-3
    F = hyperbolic()
    flat = check_case(case_id, F, case_points(F))
    assert flat["residual"] < 1e-7 and flat["literal_residual"] < 1e-12


# ---------------------------------------------------------------------------
# packs read the metric of the tower they are evaluated on
# ---------------------------------------------------------------------------


def test_preset_packs_outlive_their_structure():
    F = randers()
    packs = [preset(cid, F, **default_free_choices(cid, F)) for cid in range(1, 27)]
    del F
    gc.collect()
    G = randers()
    for pack in packs:
        d = data_at(pack, G, P2)
        assert np.all(np.isfinite(d.difference.val)), pack.name


@pytest.mark.parametrize("case_id", [3, 4, 16])
def test_metric_constraints_follow_the_evaluating_tower(case_id):
    # Ricci weight, metric split part of phi, Hilbert-form drift: a pack
    # built on randers and one built on hyperbolic agree on hyperbolic towers
    F, H = randers(), hyperbolic()
    foreign = preset(case_id, F, **default_free_choices(case_id, F))
    own = preset(case_id, H, **default_free_choices(case_id, H))
    t = H.tower(P2, 4)
    a, b = deformation_data(foreign, t), deformation_data(own, t)
    assert np.array_equal(a.phi.coef, b.phi.coef)
    assert np.array_equal(a.u.coef, b.u.coef)
    assert np.array_equal(a.difference.coef, b.difference.coef)


@pytest.mark.parametrize("make", [randers, quartic_three_dim], ids=["randers", "quartic3d"])
def test_ricci_case_passes_the_suites_that_differentiate_phi(make):
    """Case 3's phi is the Ricci endomorphism, four derivatives of the norm
    deep; the defining conditions, torsions and process diagram take one
    more derivative of it, so it must come from a tower one order deeper
    than the one it is evaluated on."""
    F = make()
    pack = preset(3, F, **default_free_choices(3, F))
    plan = SamplePlan(theorem_points=2, torsion_points=2, process_points=2)
    for suite in (check_theorem, check_torsions, check_processes):
        report = suite(pack, F, plan)
        assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# one catalog per run
# ---------------------------------------------------------------------------

SMALL = SamplePlan(
    param_sets=1, theorem_points=2, construction_points=2, torsion_points=2,
    curvature_points=2, bianchi_points=2, process_points=2, case_points=3, fd_points=2,
)


def test_a_run_parses_each_catalog_text_once_and_compiles_one_catalog_tape(monkeypatch):
    metrics = [randers(), hyperbolic()]  # both of dimension 2
    parsed, compiled, parse, init = Counter(), [], expr.parse_expression, expr.Tape.__init__

    def parsing(text, n):
        parsed[(text, n)] += 1
        return parse(text, n)

    def compiling(self, trees, n):
        compiled.append(len(trees))
        init(self, trees, n)

    monkeypatch.setattr(expr, "parse_expression", parsing)
    monkeypatch.setattr(expr.Tape, "__init__", compiling)
    packs = cases.CasePacks(metrics[0], SMALL.seed)
    assert not parsed and not compiled  # built on first use
    size = packs.tape.size
    mine = Counter(parsed)
    assert len(mine) > 100 and compiled == [size]
    parsed.clear()
    compiled.clear()
    run_all(metrics, SMALL)
    assert all(parsed[text] == 1 for text in mine)  # and the random packs parse nothing
    assert max(parsed.values()) == 1
    assert compiled.count(size) == 1


def test_each_run_builds_its_own_catalog_and_frees_it(monkeypatch):
    built, init = [], cases.CasePacks.__init__

    def building(self, F, seed):
        init(self, F, seed)
        built.append(weakref.ref(self))

    monkeypatch.setattr(cases.CasePacks, "__init__", building)
    for runs in (1, 2):
        report = run_all([randers(), hyperbolic()], SMALL)
        assert report.passed
        assert len(built) == runs  # one per dimension per run
        assert built[-1]() is None  # freed once the run returns


def test_case_packs_of_another_dimension_are_refused():
    F = randers()
    with pytest.raises(ValueError, match="dimension 3"):
        check_cases(F, SMALL, packs=cases.CasePacks(quartic_three_dim(), SMALL.seed))


# ---------------------------------------------------------------------------
# reporting surface
# ---------------------------------------------------------------------------


def test_check_case_payload_is_deterministic():
    F = randers()
    a = check_case(6, F, case_points(F))
    b = check_case(6, F, case_points(F))
    assert a == b
    assert set(a) == {
        "id",
        "title",
        "constraints",
        "structure",
        "points",
        "typo",
        "convention",
        "residual",
        "literal_residual",
    }
    assert a["literal_residual"] is None
    assert CATALOG[6].free == ("A", "u", "phi")
