"""Acceptance gate: ten criteria, one test (= one pass/fail line) each.

Desk scale: dimensions 2 and 3; metrics Euclidean, a Riemannian sample
with position-dependent coefficients, and a Randers sample with drift
norm 0.5 (plus a position-dependent 3-d Riemannian sample for the n = 3
half of the scale); 50 seeded points per metric for the defining
conditions; total runtime target below 60 seconds.

Every tolerance is pinned literally in the test that asserts it.  The
shared battery is computed once at module scope; criteria that need
extra structure (process commutation, classical-corner reproduction,
fuzz controls, determinism) compute it themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from finslerconn.cases import check_case
from finslerconn.connection import CARTAN, Connection
from finslerconn.deformation import DeformationParams, build
from finslerconn.finsler import FinslerStructure
from finslerconn.processes import (
    BERWALD,
    CHERN_RUND,
    HASHIGUCHI,
    c_process,
    derive_family,
    p1_process,
)
from finslerconn.samples import (
    curved_three_dim,
    euclidean,
    hyperbolic,
    quartic_three_dim,
    randers,
)
from finslerconn.verify import (
    CheckReport,
    SamplePlan,
    check_theorem,
    random_param_sets,
    run_all,
    sample_points,
)

PLAN = SamplePlan()  # seed 42, 50 theorem points, 5 parameter packs


def acceptance_metrics() -> list[FinslerStructure]:
    return [euclidean(2), hyperbolic(), randers(0.5), curved_three_dim()]


@pytest.fixture(scope="module")
def battery() -> CheckReport:
    return run_all(metrics=acceptance_metrics(), plan=PLAN)


def rows_of(battery: CheckReport, suite_prefix: str, label_prefix: str = ""):
    picked = [
        r
        for r in battery.rows
        if r.suite.startswith(suite_prefix) and r.label.startswith(label_prefix)
    ]
    assert picked, f"no rows for {suite_prefix}/{label_prefix}"
    return picked


def worst(rows) -> float:
    return max(r.residual for r in rows)


# --------------------------------------------------------------------------
# 1. defining conditions of the unique regular connection


def test_criterion_01_defining_conditions(battery):
    rows = rows_of(battery, "theorem[")
    metrics = {r.suite for r in rows}
    assert len(metrics) == 4  # three named metrics + the 3-d sample
    assert battery.meta["plan"]["param_sets"] == 5
    assert battery.meta["plan"]["theorem_points"] == 50
    assert worst(rows) < 1e-7

    # fuzz-injection control: a doctored horizontal block must be caught
    control = SamplePlan(seed=5, param_sets=1, theorem_points=2)
    for F in (euclidean(2), hyperbolic(), randers(0.5)):
        packs = random_param_sets(F, control)
        report = check_theorem(packs, F, control, fuzz=True)
        assert not report.passed, f"fuzz control passed on {F.name}"


# --------------------------------------------------------------------------
# 2. route equivalence of the construction


def test_criterion_02_route_equivalence(battery):
    rows = rows_of(battery, "construction[", "compatibility-route")
    assert len(rows) == 4
    assert worst(rows) < 1e-8
    assert worst(rows_of(battery, "construction[")) < 1e-8


# --------------------------------------------------------------------------
# 3. collapse under vanishing parameters


def test_criterion_03_vanishing_collapse(battery):
    coeff = rows_of(battery, "processes[", "collapse:base")
    assert worst(coeff) < 1e-10
    spray = rows_of(battery, "processes[", "collapse:spray-and-nonlinear")
    assert worst(spray) < 1e-10
    assert worst(rows_of(battery, "processes[", "collapse:")) < 1e-10


# --------------------------------------------------------------------------
# 4. torsion propositions


def test_criterion_04_torsions(battery):
    assert worst(rows_of(battery, "torsions[", "hv-coincides")) < 1e-12
    assert worst(rows_of(battery, "torsions[", "hh-quarter-form")) < 1e-8
    assert worst(rows_of(battery, "torsions[", "vv-vanishes")) < 1e-8
    assert worst(rows_of(battery, "torsions[", "vhv-shift-rule")) < 1e-7
    assert worst(rows_of(battery, "torsions[", "vh-shift-rule")) < 1e-7


# --------------------------------------------------------------------------
# 5. curvature propositions


def test_criterion_05_curvatures(battery):
    assert worst(rows_of(battery, "curvatures[", "v-curvature-coincides")) < 1e-8
    for r in rows_of(battery, "curvatures[", "hv-curvature-expansion"):
        assert r.residual < (1e-6 if "randers" in r.suite else 1e-7), r
    for r in rows_of(battery, "curvatures[", "h-curvature-expansion"):
        assert r.residual < (1e-6 if "randers" in r.suite else 1e-7), r


# --------------------------------------------------------------------------
# 6. differential identities


def test_criterion_06_bianchi(battery):
    assert worst(rows_of(battery, "bianchi[", "bianchi-(")) < 1e-6
    first = rows_of(battery, "bianchi[", "first-bianchi-metric")
    assert {r.suite for r in first} == {
        "bianchi[euclidean2]", "bianchi[hyperbolic]", "bianchi[curved3d]",
    }
    assert worst(first) < 1e-7


# --------------------------------------------------------------------------
# 7. process square: commutation and the four classical corners


def _gap(a: Connection, b: Connection, t) -> float:
    out = 0.0
    for get in (Connection.N, Connection.H, Connection.V):
        x, y = get(a, t).val, get(b, t).val
        scale = 1.0 + max(np.max(np.abs(x)), np.max(np.abs(y)))
        out = max(out, float(np.max(np.abs(x - y))) / scale)
    return out


def test_criterion_07_process_square():
    for F in acceptance_metrics():
        plan = SamplePlan(seed=17, param_sets=1, process_points=8)
        pack = random_param_sets(F, plan)[0]
        conn = build(pack)
        forward = c_process(p1_process(conn))
        backward = p1_process(c_process(conn))
        for p in sample_points(F, plan, plan.process_points, "acceptance-7"):
            t = F.tower(p, 4)
            assert _gap(forward, backward, t) < 1e-8

        family = derive_family(DeformationParams.zero(F.n))
        corners = [
            (family.base, CARTAN),
            (family.hashiguchi, HASHIGUCHI),
            (family.chern_rund, CHERN_RUND),
            (family.berwald, BERWALD),
        ]
        for p in sample_points(F, plan, 4, "acceptance-7-vc"):
            t = F.tower(p, 4)
            for got, want in corners:
                assert _gap(got, want, t) < 1e-8, (F.name, want.name)


# --------------------------------------------------------------------------
# 8. the 26-case matrix


def test_criterion_08_case_matrix(battery):
    rows = rows_of(battery, "cases[")
    assert len(rows) == 26 * 4
    assert worst(rows) < 1e-7
    # Printed forms of the four flagged entries: evaluated and reported.
    # Their deviation lives in terms quadratic in the Cartan tensor, so it
    # is invisible on surfaces and Riemannian metrics; the 3-d quartic is
    # the smallest structure that exposes it.
    literal: dict[int, float] = {}
    F = quartic_three_dim()
    points = sample_points(F, PLAN, PLAN.case_points, "cases")
    for cid in (11, 12, 13, 14):
        res = check_case(cid, F, points, seed=PLAN.seed)
        assert res["residual"] < 1e-7  # regenerated form is the asserted one
        assert res["literal_residual"] is not None
        literal[cid] = res["literal_residual"]
    print("literal printed-form residuals (reported, not asserted):", literal)
    assert all(v > 1e-3 for v in literal.values())  # genuinely different


# --------------------------------------------------------------------------
# 9. substrate oracles


def test_criterion_09_substrate(battery):
    fd = rows_of(battery, "fd[")
    assert {r.label for r in fd} == {
        "fd-fundamental-tensor", "fd-cartan-tensor", "fd-spray",
        "fd-nonlinear", "fd-horizontal",
    }
    assert worst(fd) < 1e-5
    closed = rows_of(battery, "constant-curvature")
    assert len(closed) == 4
    assert worst(closed) < 1e-7


# --------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_determinism():
    plan = SamplePlan(
        seed=7, param_sets=2, theorem_points=5, construction_points=3,
        torsion_points=4, curvature_points=3, bianchi_points=2,
        process_points=3, case_points=1, fd_points=2,
    )
    metrics = lambda: [euclidean(2), hyperbolic(), randers(0.5)]  # noqa: E731
    first = run_all(metrics=metrics(), plan=plan)
    second = run_all(metrics=metrics(), plan=plan)
    assert first.payload_json() == second.payload_json()
    assert first.digest() == second.digest()
