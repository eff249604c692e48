"""Pinned outputs of the built-in configuration, bit for bit.

Changes that only make the arithmetic cheaper (skipping products by a
constant, sharing a computed stage between two readers, cutting factors to
the ring their sum keeps) must leave every residual unchanged.  These
values were recorded before constant factors left the ring product, at a
one-point plan so the whole battery runs in about a second; a change that
moves any residual or any reported value moves a digest here.  The 3-d
digest and the table of result rings were recorded before formulas cut
their factors to the meet of their rings: the digest reaches the
6-variable rings of orders 5 and 6, and the table fails a cut that lowers
the ring of any result.  The read-ring table pins where each result lands
when a suite computes the connection in the ring it reads, and its bits
against the result computed in the natural ring and cut there.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from finslerconn import cases, cli, deformation, samples, verify
from finslerconn.ad import TruncationError, lower
from finslerconn.connection import (
    CARTAN,
    cov_deriv,
    curvature_h,
    curvature_mixed,
    curvature_v,
    metric_deficit,
    torsions,
)
from finslerconn.deformation import (
    build,
    deformation_data,
    deformed_at,
    horizontal_from_compatibility,
)

CLEAN_DIGEST = "298b71dbc8e393fd1e56c37d9dc28c298bfd9eea4316c5620379f42c4462a2f6"
FUZZ_DIGEST = "da22d614af6aac7c40053fcc3a98dc490bb230227e489a846db67d74dc4caac5"
DRIFT_REPORT_SHA256 = "aea1f902d20dce9236e38cd31596d4a6bb9ba18b822ea05d76d23c95e28c2b7f"
THREE_DIM_DIGEST = "070b7f26138ef80aea48fd890550b0671e9c283ed4ad978b4cfe2fd00f192f45"


def _builtin_config() -> cli.Config:
    return cli.parse_config(cli.default_config_text(), origin="<built-in>")


def test_one_point_battery_digests_are_pinned():
    config = _builtin_config()
    counts = {
        f.name: 1
        for f in dataclasses.fields(verify.SamplePlan)
        if f.name == "param_sets" or f.name.endswith("_points")
    }
    plan = dataclasses.replace(config.plan, **counts)
    clean = verify.run_all(metrics=cli._structures(config), plan=plan)
    fuzzed = verify.run_all(metrics=cli._structures(config), plan=plan, fuzz=True)
    assert clean.passed and not fuzzed.passed
    assert clean.digest() == CLEAN_DIGEST
    assert fuzzed.digest() == FUZZ_DIGEST


def test_report_text_is_pinned(tmp_path):
    out = tmp_path / "drift.json"
    assert cli.main(["report", "--metric", "drift", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DRIFT_REPORT_SHA256


def test_three_dim_curvature_and_bianchi_rows_are_pinned():
    plan = verify.SamplePlan(param_sets=1, curvature_points=1, bianchi_points=1)
    rows = []
    for F in (samples.quartic_three_dim(), samples.curved_three_dim()):
        pack = verify.random_param_sets(F, plan)[0]
        for suite in (verify.check_curvatures, verify.check_bianchi):
            rows += [row.to_dict() for row in suite(pack, F, plan).rows]
    assert all(row["passed"] for row in rows)
    canonical = json.dumps(rows, sort_keys=True).encode("utf8")
    assert hashlib.sha256(canonical).hexdigest() == THREE_DIM_DIGEST


# the (order, xorder) of each result on randers at each suite's tower pair,
# None where the pair is too low for it (TruncationError)
RESULTS = {
    "eta_shift": lambda d, conn, t: d.eta_shift,
    "frame_shift": lambda d, conn, t: d.frame_shift,
    "difference": lambda d, conn, t: d.difference,
    "horizontal": lambda d, conn, t: d.horizontal,
    "nonlinear": lambda d, conn, t: d.nonlinear,
    "compat": lambda d, conn, t: horizontal_from_compatibility(d.params, t),
    "curvature_h": lambda d, conn, t: curvature_h(conn, t),
    "curvature_mixed": lambda d, conn, t: curvature_mixed(conn, t),
    "curvature_v": lambda d, conn, t: curvature_v(conn, t),
    "cov_deriv_h": lambda d, conn, t: cov_deriv(CARTAN, t, d.difference, horizontal=True),
    "cov_deriv_v": lambda d, conn, t: cov_deriv(CARTAN, t, d.difference, horizontal=False),
    "deficit_h": lambda d, conn, t: metric_deficit(conn, t, horizontal=True),
    "deficit_v": lambda d, conn, t: metric_deficit(conn, t, horizontal=False),
}
RINGS = {
    ("random", (4, 0)): ((2, 0), (1, 0), (0, 0), None, None, None, None, None, (0, 0), None, None, None, (1, 0)),
    ("random", (4, 1)): ((2, 1), (1, 1), (0, 0), (0, 0), (1, 0), (1, 0), None, None, (0, 0), None, None, (0, 0), (1, 1)),
    ("random", (4, 2)): ((2, 2), (1, 1), (0, 0), (0, 0), (1, 1), (1, 1), None, None, (0, 0), None, None, (0, 0), (1, 1)),
    ("random", (5, 2)): ((3, 2), (2, 2), (1, 1), (1, 1), (2, 1), (2, 1), (0, 0), (0, 0), (1, 1), (0, 0), (0, 0), (1, 1), (2, 2)),
    ("random", (6, 3)): ((4, 3), (3, 3), (2, 2), (2, 2), (3, 2), (3, 2), (1, 1), (1, 1), (2, 2), (1, 1), (1, 1), (2, 2), (3, 3)),
    ("ricci", (4, 0)): ((1, 0), (1, 0), (0, 0), None, None, None, None, None, (0, 0), None, None, None, (1, 0)),
    ("ricci", (4, 1)): ((1, 1), (1, 1), (0, 0), (0, 0), (1, 0), (1, 0), None, None, (0, 0), None, None, (0, 0), (1, 1)),
    ("ricci", (4, 2)): ((1, 1), (1, 1), (0, 0), (0, 0), (1, 1), (1, 1), None, None, (0, 0), None, None, (0, 0), (1, 1)),
    ("ricci", (5, 2)): ((2, 2), (2, 2), (1, 1), (1, 1), (2, 1), (2, 1), (0, 0), (0, 0), (1, 1), (0, 0), (0, 0), (1, 1), (2, 2)),
    ("ricci", (6, 3)): ((3, 3), (3, 3), (2, 2), (2, 2), (3, 2), (3, 2), (1, 1), (1, 1), (2, 2), (1, 1), (1, 1), (2, 2), (3, 3)),
}


@pytest.mark.parametrize("pack_name,pair", sorted(RINGS))
def test_result_rings_are_pinned(pack_name, pair):
    F = samples.randers()
    plan = verify.SamplePlan()
    point = verify.sample_points(F, plan, 1, "rings")[0]
    if pack_name == "random":
        pack = verify.random_param_sets(F, plan)[0]
    else:  # case 3: phi is the Ricci endomorphism, trusted to order 1
        pack = cases.preset(3, F, **cases.default_free_choices(3, F))
    t = F.tower(point, pair)
    d, conn = deformation_data(pack, t), build(pack)
    got = []
    for result in RESULTS.values():
        try:
            rg = result(d, conn, t).ring
        except TruncationError:
            got.append(None)
        else:
            got.append((rg.order, rg.xorder))
    assert dict(zip(RESULTS, got)) == dict(zip(RESULTS, RINGS[pack_name, pair]))


# each suite's tower pair and the ring it reads the deformed connection in
SUITE_READS = {
    "theorem": (verify._THEOREM_ORDER, verify._THEOREM_READ),
    "construction": (deformation._CONSTRUCTION_ORDER, deformation._CONSTRUCTION_READ),
    "cases": (cases._WORKSPACE_ORDER, cases._WORKSPACE_READ),
    "torsions": (deformation._TORSION_ORDER, deformation._TORSION_READ),
    "curvatures": (deformation._CURVATURE_ORDER, deformation._CURVATURE_READ),
    "report": (cli._REPORT_ORDER, cli._REPORT_READ),
    "bianchi": (verify._BIANCHI_ORDER, verify._BIANCHI_READ),
}
# each result of the data ``d`` and connection ``conn`` read in the ring
# ``read`` (None: the natural ring) on the tower ``t``
READ_RESULTS = {
    "eta_shift": lambda d, conn, t, read: d.eta_shift,
    "frame_shift": lambda d, conn, t, read: d.frame_shift,
    "difference": lambda d, conn, t, read: d.difference,
    "nonlinear": lambda d, conn, t, read: d.nonlinear,
    "horizontal": lambda d, conn, t, read: d.horizontal,
    "spray": lambda d, conn, t, read: d.spray,
    "compat": lambda d, conn, t, read: horizontal_from_compatibility(d.params, t, read),
    "curvature_h": lambda d, conn, t, read: curvature_h(conn, t),
    "curvature_mixed": lambda d, conn, t, read: curvature_mixed(conn, t),
    "curvature_v": lambda d, conn, t, read: curvature_v(conn, t),
    "hh": lambda d, conn, t, read: torsions(conn, t).hh,
    "hv": lambda d, conn, t, read: torsions(conn, t).hv,
    "vh": lambda d, conn, t, read: torsions(conn, t).vh,
    "vhv": lambda d, conn, t, read: torsions(conn, t).vhv,
    "vv": lambda d, conn, t, read: torsions(conn, t).vv,
    "deficit_h": lambda d, conn, t, read: metric_deficit(conn, t, horizontal=True),
    "deficit_v": lambda d, conn, t, read: metric_deficit(conn, t, horizontal=False),
}
# the (order, xorder) of each result at each (tower pair, read ring), the same
# for both metrics and both packs; None where the read ring is too low for it
READ_RINGS = {
    ((4, 0), (0, 0)): ((0, 0), (0, 0), (0, 0), None, None, None, None, None, None, None, None, (0, 0), None, None, (0, 0), None, (0, 0)),
    ((4, 1), (0, 0)): ((0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), None, None, None, (0, 0), (0, 0), None, None, (0, 0), (0, 0), (0, 0)),
    ((4, 2), (1, 1)): ((1, 1), (1, 1), (0, 0), (1, 1), (0, 0), (1, 1), (1, 1), None, None, (0, 0), (0, 0), (1, 1), (0, 0), (0, 0), (1, 1), (0, 0), (1, 1)),
    ((5, 2), (1, 1)): ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (0, 0), (0, 0), (0, 0), (1, 1), (1, 1), (0, 0), (0, 0), (1, 1), (1, 1), (1, 1)),
    ((6, 3), (2, 2)): ((2, 2), (2, 2), (2, 2), (2, 2), (2, 2), (2, 2), (2, 2), (1, 1), (1, 1), (1, 1), (2, 2), (2, 2), (1, 1), (1, 1), (2, 2), (2, 2), (2, 2)),
}


def _bits(coef: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(coef).view(np.int64)


def test_every_suite_read_ring_is_pinned():
    assert set(SUITE_READS.values()) == set(READ_RINGS)


@pytest.mark.parametrize("pair,read", sorted(READ_RINGS))
@pytest.mark.parametrize("pack_name", ["random", "ricci"])
@pytest.mark.parametrize("metric", ["randers", "quartic_three_dim"])
def test_read_ring_results_are_the_natural_ones_cut(metric, pack_name, pair, read):
    # every result computed in the read ring has the bits of the one computed
    # in the natural ring and cut there with ``lower``, and lands in its pinned ring
    F = getattr(samples, metric)()
    plan = verify.SamplePlan()
    point = verify.sample_points(F, plan, 1, "rings")[0]
    if pack_name == "random":
        pack = verify.random_param_sets(F, plan)[0]
    else:  # case 3: phi is the Ricci endomorphism, trusted to order 1
        pack = cases.preset(3, F, **cases.default_free_choices(3, F))
    t = F.tower(point, pair)
    natural = (deformation_data(pack, t), build(pack), t, None)
    cut = (*deformed_at(pack, t, read), t, read)
    got = []
    for name, result in READ_RESULTS.items():
        try:
            low = result(*cut)
        except TruncationError:
            got.append(None)
            continue
        nat, same = lower(result(*natural), low)
        assert same is low, name  # the natural result lies at or above the cut one
        assert np.array_equal(_bits(nat.coef), _bits(low.coef)), name
        got.append((low.ring.order, low.ring.xorder))
    assert dict(zip(READ_RESULTS, got)) == dict(zip(READ_RESULTS, READ_RINGS[pair, read]))
