"""Tests for the seeded verification suites.

Oracles:

* the identities themselves: the five differential curvature identities,
  the defining conditions, and the first classical identity must sit at
  machine precision for both the metric connection and fully general
  random parameter packs, on flat, curved-quadratic, drift, and
  non-quadratic three-dimensional samples;
* closed forms evaluated in the test: the constant-curvature surface's
  metric, Christoffel symbols, and Ricci trace;
* sensitivity controls: every suite must detect a ``1e-3`` injected
  perturbation (no vacuous passes);
* determinism: identical plans and seeds serialize byte-identically,
  different seeds do not.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from finslerconn import cli
from finslerconn.cases import _PRESETS
from finslerconn.deformation import (
    DeformationParams,
    construction_residuals,
    relative_residual,
    torsion_relations,
    worst_residual,
)
from finslerconn.expr import parse_expression
from finslerconn.finsler import ChartPoint
from finslerconn.processes import diagram_residuals
from finslerconn.samples import euclidean, hyperbolic, quartic_three_dim, randers
from finslerconn.verify import (
    DEFAULT_TOLERANCES,
    CheckReport,
    CheckRow,
    SamplePlan,
    bianchi_residuals,
    cartan_flat,
    check_bianchi,
    check_cases,
    check_constant_curvature,
    check_construction,
    check_curvatures,
    check_processes,
    check_theorem,
    check_torsions,
    constant_curvature_residuals,
    default_metrics,
    fd_crosscheck,
    fd_residuals,
    first_bianchi_residual,
    random_param_sets,
    random_params,
    resolve_tolerances,
    run_all,
    sample_points,
    theorem_residuals,
)
from finslerconn.verify import _aggregate, _poly, _report

P2 = ChartPoint([0.3, -0.2], [0.7, 1.1])
P3 = ChartPoint([0.2, -0.3, 0.4], [0.9, 0.5, 1.2])

QUICK = SamplePlan(
    seed=11,
    param_sets=2,
    theorem_points=4,
    construction_points=3,
    torsion_points=3,
    curvature_points=2,
    bianchi_points=2,
    process_points=2,
    case_points=2,
    fd_points=2,
)


def _pack(n: int, salt: int = 0) -> DeformationParams:
    return random_params(n, np.random.default_rng(100 + salt), name=f"pack-{salt}")


# ---------------------------------------------------------------------------
# sampling


def test_sample_plan_validates_its_fields():
    with pytest.raises(ValueError, match="shell floor"):
        SamplePlan(shell=(0.05, 1.0))
    with pytest.raises(ValueError, match="empty"):
        SamplePlan(shell=(0.5, 0.5))
    with pytest.raises(ValueError, match="box"):
        SamplePlan(box=0.0)
    with pytest.raises(ValueError, match="at least 1"):
        SamplePlan(bianchi_points=0)


def test_sample_plan_to_dict_lists_every_field_and_round_trips():
    plan = SamplePlan(seed=5, shell=(0.5, 1.5), fd_points=3)
    data = plan.to_dict()
    assert list(data) == [f.name for f in dataclasses.fields(SamplePlan)]
    assert data["shell"] == [0.5, 1.5]
    assert json.loads(json.dumps(data)) == data
    assert SamplePlan(**{**data, "shell": tuple(data["shell"])}) == plan


def test_sample_points_deterministic_and_in_range():
    F = randers()
    plan = SamplePlan(seed=3)
    pts_a = sample_points(F, plan, 5, "suite")
    pts_b = sample_points(F, plan, 5, "suite")
    for a, b in zip(pts_a, pts_b):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    pts_c = sample_points(F, plan, 5, "other-suite")
    assert not np.array_equal(pts_a[0].x, pts_c[0].x)
    for p in pts_a:
        assert np.all(np.abs(p.x) <= plan.box)
        assert np.all((p.y >= plan.shell[0]) & (p.y <= plan.shell[1]))


def test_random_params_deterministic_and_evaluable():
    a = random_params(2, np.random.default_rng(5))
    b = random_params(2, np.random.default_rng(5))
    assert a.describe() == b.describe()
    t = randers().tower(P2, 2)
    for field, shape in (("f1", ()), ("f2", ()), ("A", (2,)), ("B", (2,)), ("u", (2,)), ("phi", (2, 2))):
        val = getattr(a, field).eval(t.jets).val
        assert np.asarray(val).shape == shape
        assert np.all(np.isfinite(np.asarray(val)))


# the sha256 of every random pack's describe() text, as the texts were
# written before each tree was built beside its text: for n = 1..4 and
# seeds 0..19, then the built-in configuration's packs
RANDOM_DESCRIBE_SHA256 = "32758e09c3d0504e3740c6c357aeec985f98fc9b878116d9969c332060a2c821"


def test_random_polynomial_trees_are_their_texts_parsed():
    for n in range(1, 5):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            for _ in range(4):
                text, tree = _poly(rng, n)
                parsed = parse_expression(text, n)
                assert tree == parsed, text
                assert repr(tree) == repr(parsed), text  # the offsets too
    p = random_params(3, np.random.default_rng(7))
    texts = {
        "f1": [p.f1.text], "f2": [p.f2.text], "A": p.A.components, "B": p.B.components,
        "u": p.u.components, "phi": [t for row in p.phi.rows for t in row],
    }
    for slot, entries in texts.items():
        assert getattr(p, slot).trees == tuple(parse_expression(t, 3) for t in entries), slot


def test_random_pack_texts_are_pinned():
    digest = hashlib.sha256()
    for n in range(1, 5):
        for seed in range(20):
            digest.update(random_params(n, np.random.default_rng(seed)).describe().encode())
    config = cli.parse_config(cli.default_config_text(), origin="<built-in>")
    for F in cli._structures(config):
        for params in random_param_sets(F, config.plan):
            digest.update(params.describe().encode())
    assert digest.hexdigest() == RANDOM_DESCRIBE_SHA256


def test_cartan_flat_detection():
    assert cartan_flat(euclidean(2))
    assert cartan_flat(hyperbolic())
    assert not cartan_flat(randers())
    assert not cartan_flat(quartic_three_dim())


def test_default_metrics_cover_the_three_kinds():
    names = [F.name for F in default_metrics()]
    assert names == ["euclidean2", "hyperbolic", "randers"]


# ---------------------------------------------------------------------------
# defining conditions


def test_theorem_residuals_metric_connection_exact():
    rows = theorem_residuals(DeformationParams.zero(2), randers(), P2)
    assert set(rows) == {
        "condition-(i)-horizontal-deficit",
        "condition-(ii)-vertical-deficit",
        "condition-(iii)-quarter-torsion",
        "condition-(iv)-vertical-symmetry",
    }
    assert max(rows.values()) < 1e-12


@pytest.mark.parametrize("make", [euclidean, hyperbolic, randers])
def test_theorem_residuals_general_pack(make):
    F = make() if make is not euclidean else make(2)
    rows = theorem_residuals(_pack(F.n), F, P2)
    assert max(rows.values()) < 1e-9


def test_check_theorem_accepts_many_packs_and_detects_fuzz():
    F = randers()
    packs = [_pack(2, 0), _pack(2, 1)]
    report = check_theorem(packs, F, QUICK)
    assert report.passed
    assert report.meta["packs"] == ["pack-0", "pack-1"]
    fuzzed = check_theorem(packs, F, QUICK, fuzz=True)
    assert not fuzzed.passed
    failing = {row.label for row in fuzzed.failures()}
    assert "condition-(i)-horizontal-deficit" in failing


# ---------------------------------------------------------------------------
# differential curvature identities


@pytest.mark.parametrize("make", [euclidean, hyperbolic, randers])
def test_bianchi_residuals_machine_precision(make):
    F = make() if make is not euclidean else make(2)
    for params in (DeformationParams.zero(2), _pack(2)):
        rows = bianchi_residuals(params, F, P2)
        assert set(rows) == {f"bianchi-({k})" for k in "abcde"}
        assert max(rows.values()) < 1e-12


def test_bianchi_residuals_nonquadratic_three_dim():
    # exercises every vertical-curvature coupling: S is nonzero here
    rows = bianchi_residuals(_pack(3), quartic_three_dim(), P3)
    assert max(rows.values()) < 1e-12


def test_bianchi_perturbation_is_detected():
    rows = bianchi_residuals(_pack(2), randers(), P2, perturbation=1e-3)
    assert max(rows.values()) > 1e-4


def test_first_bianchi_on_quadratic_norm():
    assert first_bianchi_residual(hyperbolic(), P2) < 1e-12
    assert first_bianchi_residual(hyperbolic(), P2, perturbation=1e-3) > 1e-4


def test_check_bianchi_adds_metric_row_on_quadratic_norms():
    report = check_bianchi(_pack(2), hyperbolic(), QUICK)
    assert report.passed
    assert "first-bianchi-metric" in {row.label for row in report.rows}
    drift = check_bianchi(_pack(2), randers(), QUICK)
    assert "first-bianchi-metric" not in {row.label for row in drift.rows}


def test_check_bianchi_tightened_tolerance_documents_the_floor():
    report = check_bianchi(
        DeformationParams.zero(2), randers(), QUICK, tolerances={"bianchi": 1e-18}
    )
    assert not report.passed  # residuals are roundoff-floored near 1e-16


# ---------------------------------------------------------------------------
# finite differences and closed forms


def test_fd_residuals_across_samples():
    assert max(fd_residuals(euclidean(2), P2).values()) < 1e-8
    assert max(fd_residuals(hyperbolic(), P2).values()) < 1e-6
    assert max(fd_residuals(randers(), P2).values()) < 1e-5


def test_fd_residuals_perturbation_breaks_every_row():
    rows = fd_residuals(randers(), P2, perturbation=1e-3)
    tol = DEFAULT_TOLERANCES["fd"]
    assert all(value > tol for value in rows.values())


def test_constant_curvature_closed_forms():
    F = hyperbolic()
    for point in (P2, ChartPoint([-0.4, 0.2], [1.3, 0.5])):
        rows = constant_curvature_residuals(F, point)
        assert max(rows.values()) < 1e-10
    rows = constant_curvature_residuals(F, P2, perturbation=1e-3)
    assert min(rows.values()) > 1e-5


def test_constant_curvature_requires_a_surface():
    with pytest.raises(ValueError, match="surface"):
        constant_curvature_residuals(quartic_three_dim(), P3)


# ---------------------------------------------------------------------------
# suite reports and fuzz sensitivity


def _suite_runs(F, params):
    yield lambda fuzz: check_construction(params, F, QUICK, fuzz=fuzz)
    yield lambda fuzz: check_torsions(params, F, QUICK, fuzz=fuzz)
    yield lambda fuzz: check_curvatures(params, F, QUICK, fuzz=fuzz)
    yield lambda fuzz: check_bianchi(params, F, QUICK, fuzz=fuzz)
    yield lambda fuzz: check_processes(params, F, QUICK, fuzz=fuzz)
    yield lambda fuzz: check_cases(F, QUICK, fuzz=fuzz)
    yield lambda fuzz: fd_crosscheck(F, QUICK, fuzz=fuzz)
    yield lambda fuzz: check_constant_curvature(QUICK, fuzz=fuzz)


def test_every_suite_passes_clean_and_fails_fuzzed():
    F = randers()
    params = _pack(2)
    for make_report in _suite_runs(F, params):
        clean = make_report(False)
        assert clean.passed, clean.summary()
        fuzzed = make_report(True)
        assert not fuzzed.passed, fuzzed.suite


@pytest.mark.parametrize("position", range(3))
def test_nan_residual_at_any_position_fails_its_row(position):
    values = [1e-12, 2e-12, 3e-12]
    values[position] = float("nan")
    assert np.isnan(worst_residual(values))
    worst = _aggregate({"a": value} for value in values)
    row = _report("s", worst, {"a": "theorem"}, DEFAULT_TOLERANCES, {}).rows[0]
    assert not row.passed
    refs = [np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 2))]  # one point's
    refs[position] = np.array([[1.0, np.nan]])
    assert np.isnan(relative_residual(np.zeros((1, 2)), *refs)).all()


@pytest.mark.parametrize(
    "suite, residuals, label",
    [
        (check_construction, construction_residuals, "construction-fuzz"),
        (check_torsions, torsion_relations, "torsions-fuzz"),
        (check_processes, diagram_residuals, "processes-fuzz"),
    ],
    ids=["construction", "torsions", "processes"],
)
def test_fuzz_run_leaves_clean_residuals_untouched(suite, residuals, label):
    # the fuzz controls pass a perturbed connection; they write no cache
    F = randers()
    params = _pack(2)
    point = sample_points(F, QUICK, 1, label)[0]
    before = residuals(params, F, point)
    assert not suite(params, F, QUICK, fuzz=True).passed
    assert residuals(params, F, point) == before


def test_case_rows_carry_typo_annotations():
    report = check_cases(randers(), QUICK)
    assert len(report.rows) == 26
    noted = {
        row.label
        for row in report.rows
        if "literal printed form residual" in row.note
    }
    assert noted == {"case-11", "case-12", "case-13", "case-14"}


@pytest.mark.parametrize("fuzz,printed_calls", [(False, 4), (True, 0)])
def test_fuzzed_cases_skip_the_printed_forms(fuzz, printed_calls):
    # the fuzz row note discards the printed-form residual, so a fuzzed run
    # must not evaluate it; a clean run evaluates it for the four typo
    # cases, once over the batch of its two points, as every closed form
    calls = []
    originals = [(p.delta, p.printed) for p in _PRESETS]

    def counting(form, kind):
        def wrapped(ws):
            calls.append(kind)
            return form(ws)

        return wrapped

    try:
        for p in _PRESETS:
            object.__setattr__(p, "delta", counting(p.delta, "delta"))
            if p.printed is not None:
                object.__setattr__(p, "printed", counting(p.printed, "printed"))
        check_cases(randers(), SamplePlan(case_points=2), fuzz=fuzz)
    finally:
        for p, (delta, printed) in zip(_PRESETS, originals):
            object.__setattr__(p, "delta", delta)
            object.__setattr__(p, "printed", printed)
    assert calls.count("printed") == printed_calls
    assert calls.count("delta") == 26


def test_unknown_tolerance_name_is_rejected():
    with pytest.raises(ValueError, match="unknown name 'bogus'"):
        check_theorem(_pack(2), randers(), QUICK, tolerances={"bogus": 1.0})


@pytest.mark.parametrize("value", [-1.0, 0.0, math.inf, math.nan, "abc"])
def test_tolerances_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match="cases"):
        resolve_tolerances({"cases": value})
    with pytest.raises(ValueError, match="cases"):
        run_all(tolerances={"cases": value})


def test_resolve_tolerances_merges_overrides():
    assert resolve_tolerances() == DEFAULT_TOLERANCES
    merged = resolve_tolerances({"cases": "1e-9"})
    assert merged == {**DEFAULT_TOLERANCES, "cases": 1e-9}


@pytest.mark.parametrize(
    "changes",
    [{"box": math.inf}, {"box": math.nan}, {"shell": (0.4, math.inf)},
     {"shell": (0.4, math.nan)}, {"shell": (math.nan, 1.0)}],
)
def test_sample_plan_rejects_non_finite_numbers(changes):
    with pytest.raises(ValueError, match="must be finite"):
        SamplePlan(**changes)


def test_report_payload_and_digest():
    report = check_torsions(_pack(2), randers(), QUICK)
    payload = report.payload()
    assert set(payload) == {"suite", "meta", "rows", "passed"}
    assert payload["rows"][0].keys() == CheckRow(
        "s", "l", 0.0, 1.0, True
    ).to_dict().keys()
    # canonical serialization is what the digest hashes
    rebuilt = CheckReport(report.suite, report.rows, report.meta)
    assert rebuilt.digest() == report.digest()
    assert json.loads(report.payload_json()) == payload
    assert "pass" in report.summary()


def test_summary_shows_non_empty_notes():
    rows = [CheckRow("s", "a", 0.0, 1.0, True), CheckRow("s", "b", 0.0, 1.0, True, "why")]
    lines = CheckReport("s", rows, {}).summary().splitlines()
    assert lines[0].endswith("1.0e+00")
    assert lines[1].endswith("1.0e+00  why")


# ---------------------------------------------------------------------------
# the whole battery


def test_run_all_quick_battery():
    report = run_all(plan=QUICK)
    assert report.passed
    suites = {row.suite for row in report.rows}
    for prefix in (
        "theorem",
        "construction",
        "torsions",
        "curvatures",
        "bianchi",
        "processes",
        "cases",
        "fd",
    ):
        for F in ("euclidean2", "hyperbolic", "randers"):
            assert f"{prefix}[{F}]" in suites
    assert "constant-curvature" in suites
    assert report.meta["plan"]["seed"] == QUICK.seed


def test_run_all_is_deterministic_and_seed_sensitive():
    a = run_all(plan=QUICK)
    b = run_all(plan=QUICK)
    assert a.payload_json() == b.payload_json()
    assert a.digest() == b.digest()
    other = run_all(plan=SamplePlan(**{**QUICK.to_dict(), "seed": 12, "shell": tuple(QUICK.shell)}))
    assert other.digest() != a.digest()


def test_run_all_rejects_empty_metric_list():
    with pytest.raises(ValueError, match="empty"):
        run_all(metrics=[])


def test_run_all_fuzz_fails_in_every_suite_instance():
    report = run_all(plan=QUICK, fuzz=True)
    assert not report.passed
    failed_by_suite = {}
    for row in report.rows:
        failed_by_suite.setdefault(row.suite, False)
        failed_by_suite[row.suite] |= not row.passed
    vacuous = [suite for suite, failed in failed_by_suite.items() if not failed]
    assert vacuous == []
