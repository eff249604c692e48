"""Point batches of towers.

A tower is a view of one point of a batch: ``FinslerStructure.towers``
declares a batch, and a tower asked for alone is a batch of one, which
computes exactly what a lone tower computed before batches existed (the
``check`` digests and ``tests/test_bit_identity.py`` pin that).  So each
view of a batch is compared here with the lone tower of its point on a
fresh structure, stage by stage and bit for bit:

* at every order a suite, the finite-difference stencils or the Ricci
  field reads, on the metrics of the built-in configuration and both 3-d
  samples, for batches of 1, 2, 3 and 50 points (50 on the 3-d samples only
  up to the order-4 rings: their order-6 batch of 50 needs hundreds of MB);
* in a batch with one bad point, which raises exactly the error of its lone
  tower while the others still read their stages.

The deformation data of a pack is built once per batch too, and each
point's view of it is compared the same way with the data on the lone
tower, value by value and stage by stage, for random and preset packs, and
in a batch where one point's field fails.  Every function that takes a
tower (the torsions, curvatures, metric deficits, covariant derivatives,
Ricci trace and field, value-slot contraction, compatibility route and
``deformed_at``) runs on the tower's lift, and on a tower of a 3-point
batch each has the bits of the lone tower's.

The theorem, construction, torsion, curvature, Bianchi, first-Bianchi,
process-diagram, finite-difference and constant-curvature rows are
computed once per batch as well, and each point's rows are compared with the rows on its lone tower
as int64 bits, clean and with the fuzz suites' seam (a bumped connection,
a bumped curvature entry, a family with a bumped member, a shifted
entry), for the same packs, in a batch where one point's field fails and
in one where one point's shifted towers fail.  The case checks compare
every catalog entry at once over the batch their points share, one data
over all the packs side by side, and each point's residual and
literal-form residual are compared the same way, for every entry, as is
a field that reads the metric evaluated over the batch.  The relative
residual with a point axis, and the cyclic sum of the Bianchi
identities, have, point by point, the bits of the call on each point's
slice.

A pack's parameter values evaluated in a reader's read ring have the bits
of its values in ``g``'s ring cut there, for fields using every function
of the expression language and for fields that read the metric, on a lone
tower and on a batch; the catalog's one evaluation of all its packs has,
slice for slice, the bits of each pack's own evaluation.

Dropped batches are freed by reference counting, and in a small battery,
clean and fuzzed, each suite builds one batch per order it declares over
the points it reads (the finite-difference suite one more per order of
its shifted points), serves every per-point request from it, and builds
one deformation per (pack, batch, read ring), the case suite one over
every catalog pack; every row suite builds one set of rows per (pack,
seam, batch), the case suite one per batch, and no suite reads a torsion,
metric deficit, horizontal curvature or Ricci trace per point.  Every
tape run for a pack's values, a metric split part's inner expression
included, gets jets no higher than the ring its data is read in, and a
run compiles one tape over every catalog pack per chart dimension, in its
first case suite, and no other tape in any case suite.  A catalog batch
whose ``g`` fails at one point computes it once over the batch and once
per point.  A failed build marks only its own key, and
only a point's error (``ValueError``, ``ArithmeticError``) fails it: a
``TypeError`` or ``TruncationError`` met on the batch path propagates.  A
``check`` pass on the built-in configuration, clean and fuzzed, reads no
lift of a tower of several points and fails no key, and a report point's
lift is its tower's own batch.  The finite-difference stencils' energies are
one norm evaluation with the bits of one evaluation per energy.
"""

import gc
import math
import weakref
from dataclasses import replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerconn import (
    cases, cli, connection, deformation, expr, finsler, processes, samples, verify,
)
from finslerconn.ad import ChartJets, Series, TruncationError, lower_to
from finslerconn.connection import (
    CARTAN,
    contract_value_slot,
    cov_deriv,
    curvature_h,
    curvature_mixed,
    curvature_v,
    metric_deficit,
    ricci,
    torsions,
)
from finslerconn.deformation import (
    DeformationData,
    DeformationParams,
    build,
    deformation_data,
    deformed_at,
    horizontal_from_compatibility,
    parameter_field,
    relative_residual,
)
from finslerconn.expr import ExprError, ExprScalarField
from finslerconn.finsler import ChartPoint, FinslerStructure
from finslerconn.verify import SamplePlan, run_all, sample_points

STAGES = ("L", "L2", "g", "gi", "T_low", "T_mix", "ell", "S", "G", "N", "delta_g", "Gamma")

# every (order, xorder) a reader asks for: the suites, the finite-difference
# stencils, the Cartan-flat probe and the Ricci field's deeper tower
ORDERS = sorted({
    verify._THEOREM_ORDER, deformation._CONSTRUCTION_ORDER, deformation._TORSION_ORDER,
    deformation._CURVATURE_ORDER, verify._BIANCHI_ORDER, verify._FIRST_BIANCHI_ORDER,
    processes._DIAGRAM_ORDER, cases._WORKSPACE_ORDER, verify._FD_ORDER,
    verify._CONSTANT_CURVATURE_ORDER, cli._REPORT_ORDER, (2, 0), (3, 1), (3, 0),
})


def _metrics() -> dict:
    config = cli.parse_config(cli.default_config_text(), origin="<built-in>")
    built_in = {F.name: F for F in cli._structures(config)}
    three_dim = {"curved3d": samples.curved_three_dim(), "quartic3d": samples.quartic_three_dim()}
    return {**built_in, **three_dim}


METRICS = _metrics()


def _read(t, stage):
    """A stage's coefficients as int64 bits, or the error it raises."""
    try:
        return np.ascontiguousarray(getattr(t, stage).coef).view(np.int64)
    except Exception as err:  # compared with the lone tower's error
        return (type(err), str(err))


def _same(got, want) -> bool:
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    return got.shape == want.shape and np.array_equal(got, want)


def _assert_views_match_lone_towers(F, points, order, views):
    for k, (point, view) in enumerate(zip(points, views)):
        lone = FinslerStructure(F.n, F.norm, F.name).tower(point, order)
        for stage in STAGES:
            assert _same(_read(view, stage), _read(lone, stage)), (k, order, stage)


@pytest.mark.parametrize("size", [1, 2, 3, 50])
@pytest.mark.parametrize("name", sorted(METRICS))
def test_every_view_of_a_batch_reads_its_lone_towers_bits(name, size):
    F = METRICS[name]
    points = sample_points(F, SamplePlan(), size, "batch-bits")
    for order in ORDERS:
        if F.n == 3 and size == 50 and order[0] > 4:
            continue
        views = F.towers(points, order)
        assert len({id(t._batch) for t in views}) == 1 and len(views[0]._batch.points) == size
        _assert_views_match_lone_towers(F, points, order, views)
        assert views[0]._batch.parts is None  # served as one batch


class _Picky:
    """The Euclidean norm, refusing points with ``x1 > 0.4`` as a malformed
    expression would, whatever else is in the batch."""

    def __init__(self):
        self.inner = samples.euclidean(2).norm

    def eval(self, jets):
        if np.any(jets.x0[0] > 0.4):
            raise ExprError("picky norm", 3)
        return self.inner.eval(jets)


GOOD = [ChartPoint([0.1, 0.2], [1.0, 0.5]), ChartPoint([-0.3, 0.1], [0.6, 1.2])]
# norm, bad point, the text its lone tower raises
BAD = {
    "not-positive-definite": (
        ExprScalarField(2, "(y1^4 + y2^4)^(1/4)"), ChartPoint([0.0, 0.0], [1.0, 0.0]),
        "positive definite",
    ),
    "not-evaluable": (
        samples.euclidean(2).norm, ChartPoint([0.1, 0.2], [1e-200, 1e-200]), "cannot be evaluated",
    ),
    "not-positive": (
        ExprScalarField(2, "y1 + 2*y2"), ChartPoint([0.0, 0.0], [-1.0, 0.2]), "positive",
    ),
    "expression": (_Picky(), ChartPoint([0.45, 0.0], [1.0, 1.0]), "picky norm"),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_a_bad_point_raises_its_own_error_and_the_others_are_served(case):
    norm, bad, text = BAD[case]
    F = FinslerStructure(2, norm, case)
    points = [GOOD[0], bad, GOOD[1]]
    views = F.towers(points, (4, 1))
    got = _read(views[1], "Gamma")  # the bad view is read first: the batch splits there
    want = _read(FinslerStructure(2, norm, case).tower(bad, (4, 1)), "Gamma")
    assert isinstance(got, tuple) and got == want and text in got[1]
    assert got[0] in (finsler.DomainError, ExprError)
    _assert_views_match_lone_towers(F, points[::2], (4, 1), views[::2])
    assert views[0]._batch.parts is not None


def test_at_builds_the_other_order_once_for_the_batch():
    F = samples.randers()
    points = sample_points(F, SamplePlan(), 4, "batch-at")
    views = F.towers(points, (4, 0))
    deep = [t.at((5, 2)) for t in views]
    assert len({id(t._batch) for t in deep}) == 1 and len(deep[0]._batch.points) == 4
    first = deep[0].gi
    del deep
    # the batch the towers came from keeps the deeper one, stages and all
    again = views[0].at((5, 2))
    assert again._batch is views[0]._batch.deeper[(5, 2)]
    assert np.array_equal(again.gi.coef, first.coef) and "gi" in vars(again._batch)


def test_batch_at_an_order_whose_points_are_served_elsewhere_builds_its_own():
    F = samples.randers()
    points = sample_points(F, SamplePlan(), 4, "batch-at-own")
    held = F.towers(points[:2], (5, 2))  # two of the points already live at (5, 2)
    batch = F.towers(points, (4, 0))[0]._batch
    deep = batch.at((5, 2))
    assert deep.points == points and deep is not held[0]._batch
    assert batch.deeper[(5, 2)] is not deep  # the declared batch serves the other two only
    ricci = connection.RicciEndomorphism()
    got = ricci.eval(batch)
    for k, p in enumerate(points):
        fresh = FinslerStructure(F.n, F.norm, F.name)  # bound: the Ricci field reads it
        want = ricci.eval(fresh.tower(p, (4, 0)))
        assert np.array_equal(got.coef[k].view(np.int64), want.coef.view(np.int64)), k


def test_dropped_batches_and_their_towers_are_freed_without_gc():
    gc.collect()
    gc.disable()
    try:
        F = samples.randers()
        views = F.towers(sample_points(F, SamplePlan(), 5, "batch-free"), (4, 0))
        views[0].T_mix
        deep = views[0].at((5, 2))
        deep.g
        refs = [weakref.ref(t) for t in views + [deep]] + [
            weakref.ref(views[0]._batch), weakref.ref(deep._batch)
        ]
        del views, deep
        assert all(ref() is None for ref in refs)
        assert not F._towers and not F._batches
        plan = SamplePlan(
            param_sets=1, theorem_points=2, construction_points=2, torsion_points=2,
            curvature_points=2, bianchi_points=2, process_points=2, case_points=2, fd_points=2,
        )
        run_all([F], plan)
        assert not F._towers and not F._batches
    finally:
        gc.enable()


# the orders each suite declares to verify._suite
DECLARED = {
    "theorem": {verify._THEOREM_ORDER},
    "construction": {deformation._CONSTRUCTION_ORDER},
    "torsions": {deformation._TORSION_ORDER},
    "curvatures": {deformation._CURVATURE_ORDER},
    "bianchi": {verify._BIANCHI_ORDER},
    "processes": {processes._DIAGRAM_ORDER},
    "cases": {cases._WORKSPACE_ORDER},
    "fd": {verify._FD_ORDER},
    "constant-curvature": {verify._CONSTANT_CURVATURE_ORDER},
}


def _tracking_suites(monkeypatch) -> list:
    """The stack of suite names ``verify._suite`` is running."""
    running, suite = [], verify._suite

    def tracking(name, *args, **kwargs):
        running.append(name)
        try:
            return suite(name, *args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(verify, "_suite", tracking)
    return running


def _small_plan(count: int) -> SamplePlan:
    return SamplePlan(
        param_sets=2, theorem_points=count, construction_points=count, torsion_points=count,
        curvature_points=count, bianchi_points=count, process_points=count,
        case_points=count, fd_points=count,
    )


def test_each_suite_builds_one_batch_per_order_it_declares(monkeypatch):
    count = 3  # every suite's points; fd batches 9 and 4 shifted points per point
    running, built, splits = _tracking_suites(monkeypatch), [], []
    init = finsler._Batch.__init__

    def recording(self, norm, points, order, structure):
        init(self, norm, points, order, structure)
        built.append((running[-1] if running else None, order, {p.key() for p in points}))

    part = finsler._Batch.part

    def splitting(self, i):
        splits.append(self)
        return part(self, i)

    monkeypatch.setattr(finsler._Batch, "__init__", recording)
    monkeypatch.setattr(finsler._Batch, "part", splitting)
    for fuzz in (False, True):
        built.clear()
        metrics = [samples.randers(), samples.hyperbolic()]
        for F in metrics:
            F.cartan_flat  # the structure's one probe tower, outside any suite
        run_all(metrics, _small_plan(count), fuzz=fuzz)

        assert not splits
        names = {name for name, *_ in built} - {None}
        assert len(names) == 2 * (len(DECLARED) - 1) + 1  # constant curvature runs once
        for name in names:
            suite_name = name.split("[")[0]
            declared = DECLARED[suite_name] | (
                {verify._FIRST_BIANCHI_ORDER} if name == "bianchi[hyperbolic]" else set()
            )
            # the case-3 Ricci field reads its deeper order through Tower.at, one
            # batch for the suite's points too; a fuzzed case suite reads two
            deeper = {(5, 2)} if suite_name == "cases" else set()
            read = 2 if fuzz and suite_name == "cases" else count
            full = [order for n, order, keys in built if n == name and len(keys) == read]
            extra = {order for n, order, keys in built if n == name and len(keys) != read}
            assert sorted(full) == sorted(declared | deeper), (fuzz, name)
            # every per-point request at a declared order was served by its batch
            assert not extra & declared, (fuzz, name)
            if suite_name == "fd":  # one batch of every point's shifted points per order
                stencils = sorted(
                    (o, len(k)) for n, o, k in built if n == name and o != verify._FD_ORDER
                )
                assert stencils == [((2, 0), 9 * count), ((3, 1), 4 * count)], (fuzz, name)


# the deformation builds of each suite per metric, each over the suite's
# batch: one per (pack, read ring); the diagram reads its pack's data and
# the zero pack's, and the case checks build one over every catalog pack
# at once, on the suite's batch repeated once per pack
BUILDS = {
    "theorem": 2,  # the plan's packs
    "construction": 1,
    "torsions": 1,
    "curvatures": 1,
    "bianchi": 1,
    "processes": 2,
    "cases": 1,
    "fd": 0,
    "constant-curvature": 0,
}


def test_each_suite_builds_one_deformation_per_pack_batch_and_read(monkeypatch):
    count = 3
    running, builds, splits = _tracking_suites(monkeypatch), [], []
    init, serve = DeformationData.__init__, finsler._Batch.serve

    def recording(self, params, src, read=None, values=None):
        init(self, params, src, read, values)
        builds.append((running[-1] if running else None, src, params, read))

    def splitting(batch, i, key, build):
        built = serve(batch, i, key, build)
        if key in batch.failed:
            splits.append((batch, key))
        return built

    monkeypatch.setattr(DeformationData, "__init__", recording)
    monkeypatch.setattr(finsler._Batch, "serve", splitting)
    metrics = [samples.randers(), samples.hyperbolic()]
    run_all(metrics, _small_plan(count))

    assert not splits
    assert all(name is not None for name, *_ in builds)
    for F in metrics:
        for suite, want in BUILDS.items():
            name = suite if suite == "constant-curvature" else f"{suite}[{F.name}]"
            mine = [(src, params, read) for n, src, params, read in builds if n == name]
            assert len(mine) == want, name
            if suite == "cases":  # the packs' values side by side: no pack of its own
                (src, params, read), = mine
                assert params is None and isinstance(src, cases._Repeated)
                assert isinstance(src._batch, finsler._Batch) and len(src._batch.points) == count
                assert len(src.points) == len(cases.catalog()) * count
                continue
            assert all(isinstance(src, finsler._Batch) for src, *_ in mine), name
            assert all(len(src.points) == count for src, *_ in mine), name
            assert len({(id(src), id(params), read) for src, params, read in mine}) == want, name


# the values a pack's data starts from (deformation.parameter_values)
SLOTS = ("f1", "f2", "A", "B", "u", "phi", "eye")

# every value and stage a view of deformation data reads
DATA = SLOTS + tuple(
    name for name, stage in vars(DeformationData).items() if isinstance(stage, cached_property)
)


def _lone_data(F, point, order, params, read):
    """The data on the lone tower of a fresh structure, with the two it reads."""
    structure = FinslerStructure(F.n, F.norm, F.name)  # bound: the Ricci field reads it
    lone = structure.tower(point, order)
    return structure, lone, deformation_data(params, lone, read)


def _assert_data_views_match_lone_data(F, points, order, params, read, views):
    for k, (point, view) in enumerate(zip(points, views)):
        _, lone, want = _lone_data(F, point, order, params, read)
        got = deformation_data(params, view, read)
        for name in DATA:
            assert _same(_read(got, name), _read(want, name)), (k, order, read, name)
            if not isinstance(_read(want, name), tuple):
                assert getattr(got, name).ring is getattr(want, name).ring, (k, name)
        # the tower stage S is the vertical curvature of the metric connection
        cartan = np.ascontiguousarray(curvature_v(CARTAN, lone).coef).view(np.int64)
        assert _same(_read(lone, "S"), cartan), k


def _packs(F) -> dict:
    plan = SamplePlan()
    return {
        "random": verify.random_param_sets(F, plan)[0],
        **{
            f"case-{i}": cases.preset(i, F, **cases.default_free_choices(i, F, plan.seed))
            for i in (3, 4)
        },
    }


# (order, read) pairs the suites and the case checks read the data in
DATA_READS = [((4, 1), (0, 0)), ((4, 0), (0, 0)), ((4, 2), (1, 1)), ((4, 1), None)]


@pytest.mark.parametrize("name", ["randers", "hyperbolic", "quartic3d"])
def test_every_view_of_batch_data_reads_its_lone_datas_bits(name):
    F = {"randers": samples.randers(), **METRICS}[name]
    points = sample_points(F, SamplePlan(), 5, "batch-data")
    for label, params in _packs(F).items():
        for order, read in DATA_READS:
            views = F.towers(points, order)
            batch = views[0]._batch
            _assert_data_views_match_lone_data(F, points, order, params, read, views)
            # one build over the batch, each point a view of it
            data = batch.cache[(params, "deformation-data", read)]
            assert isinstance(data, DeformationData), (label, order)
            assert data.f1.shape == (len(points),), (label, order)
            assert all(v.cache[(params, "deformation-data", read)]._of is data for v in views)
            assert batch.parts is None
        # every function that takes a tower, on the towers of a 3-point batch
        _assert_functions_match_lone_towers(F, points[:3], params, deformation._CURVATURE_ORDER)


# every function that takes a tower, on the tower ``t``, the pack
# ``params``, and the data ``d`` and connection ``conn`` of ``deformed_at``
LIFTED = {
    **{
        f"torsions-{block}": lambda t, params, d, conn, block=block: getattr(
            torsions(conn, t), block
        )
        for block in ("hh", "hv", "vh", "vhv", "vv")
    },
    "curvature_h": lambda t, params, d, conn: curvature_h(conn, t),
    "curvature_mixed": lambda t, params, d, conn: curvature_mixed(conn, t),
    "curvature_v": lambda t, params, d, conn: curvature_v(conn, t),
    "deficit_h": lambda t, params, d, conn: metric_deficit(conn, t, horizontal=True),
    "deficit_v": lambda t, params, d, conn: metric_deficit(conn, t, horizontal=False),
    "cov_deriv_h": lambda t, params, d, conn: cov_deriv(CARTAN, t, d.difference, True),
    "cov_deriv_v": lambda t, params, d, conn: cov_deriv(CARTAN, t, d.difference, False),
    "ricci": lambda t, params, d, conn: ricci(CARTAN, t),
    "ricci-field": lambda t, params, d, conn: connection.RicciEndomorphism().eval(t),
    "contract_value_slot": lambda t, params, d, conn: contract_value_slot(
        curvature_h(conn, t), t
    ),
    "compat": lambda t, params, d, conn: horizontal_from_compatibility(params, t, (1, 1)),
    "deformed_at-data": lambda t, params, d, conn: d.horizontal,
    "deformed_at-connection": lambda t, params, d, conn: conn.H(t),
}


def _lifted(t, params, name):
    """A function's result on the tower ``t`` as int64 bits, or the error it raises."""
    try:
        d, conn = deformed_at(params, t, (1, 1))
        value = LIFTED[name](t, params, d, conn)
    except Exception as err:  # compared with the lone tower's error
        return (type(err), str(err))
    return np.ascontiguousarray(value.coef).view(np.int64)


def _assert_functions_match_lone_towers(F, points, params, order):
    # each function on a tower of the batch runs on its lift, whose stages
    # are views of the batch's, and has the bits of the lone tower's
    views = F.towers(points, order)
    for k, (point, view) in enumerate(zip(points, views)):
        structure = FinslerStructure(F.n, F.norm, F.name)  # bound: the Ricci field reads it
        lone = structure.tower(point, order)
        for name in LIFTED:
            got, want = _lifted(view, params, name), _lifted(lone, params, name)
            assert not isinstance(want, tuple), (k, name, want)
            assert _same(got, want), (k, order, name)


def _data_or_error(params, t, read):
    try:
        return deformation_data(params, t, read)
    except Exception as err:  # compared with the lone tower's error
        return (type(err), str(err))


def test_a_field_failing_at_one_point_raises_its_own_error_and_the_others_are_served():
    F = samples.randers()
    # x1 > 0 but at the third point, where log(x1) fails
    points = [
        ChartPoint([-0.25 if k == 2 else abs(p.x[0]) + 0.05, p.x[1]], p.y)
        for k, p in enumerate(sample_points(F, SamplePlan(), 5, "batch-data-fail"))
    ]
    params = replace(DeformationParams.zero(2), f1=parameter_field("f1", "log(x1)", 2))
    views = F.towers(points, (4, 1))
    got = [_data_or_error(params, t, (0, 0)) for t in views]  # the build fails at point 0
    with pytest.raises(finsler.DomainError) as err:
        _lone_data(F, points[2], (4, 1), params, (0, 0))
    assert str(err.value).startswith("parameter f1 cannot be evaluated at x = [-0.25,")
    assert got[2] == (finsler.DomainError, str(err.value))
    good = [k for k in range(5) if k != 2]
    assert all(got[k]._of.src is views[k].lift for k in good)  # each its own data
    assert all(views[k].lift is views[0]._batch.parts[k] for k in good)  # its batch of one
    _assert_data_views_match_lone_data(
        F, [points[k] for k in good], (4, 1), params, (0, 0), [views[k] for k in good]
    )
    # the batch marks the failed build alone; it still serves every stage
    assert views[0]._batch.failed == {(params, "deformation-data", (0, 0))}


def _lone_residual(diff, *refs) -> float:
    """The relative residual of one point's arrays, written out: max-abs of
    ``diff`` over 1 + the largest max-abs of a non-empty participant, a NaN
    anywhere winning."""
    num = float(np.max(np.abs(diff)))
    scales = np.fromiter((np.max(np.abs(r)) for r in refs if np.size(r)), dtype=float)
    return num / (1.0 + float(np.max(scales, initial=0.0)))


# finite values, both infinities and NaN
_VALUES = st.one_of(st.floats(allow_nan=False, width=64), st.just(math.nan))


@st.composite
def _point_arrays(draw):
    """A difference and participants with one point axis of 2-4 points
    in front; the participants may be empty or none."""
    points = draw(st.integers(2, 4))

    def array(least):
        shape = tuple(draw(st.lists(st.integers(least, 3), max_size=3)))
        size = points * math.prod(shape)
        values = draw(st.lists(_VALUES, min_size=size, max_size=size))
        return np.array(values, dtype=float).reshape((points,) + shape)

    return array(1), [array(0) for _ in range(draw(st.integers(0, 3)))]


@settings(max_examples=300, deadline=None)
@given(_point_arrays())
@example((np.array([[1.0, -2.0], [np.inf, 0.5]]), [np.zeros((2, 0)), np.zeros((2, 3, 0))]))
@example((np.array([[np.nan], [-np.inf]]), [np.array([np.inf, 1.0])]))
def test_relative_residual_per_point_has_the_bits_of_each_slice(arrays):
    diff, refs = arrays
    with np.errstate(invalid="ignore"):  # inf / inf is NaN on both paths
        got = relative_residual(diff, *refs)
        want = [_lone_residual(diff[i], *(r[i] for r in refs)) for i in range(len(diff))]
    assert isinstance(want[0], float) and got.shape == (len(diff),)
    assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def _fuzzed_family(params):
    """The fuzz process suite's family: the derived one with a bumped Hashiguchi member."""
    family = processes.derive_family(params)
    return replace(family, hashiguchi=verify._perturbed(family.hashiguchi, "hor"))


class _Reader(NamedTuple):
    """A reader whose rows are computed once per batch."""

    order: tuple  # its tower's (order, xorder)
    call: Callable  # (params, F, point, seam) -> its rows at the point
    seams: Callable  # params -> (the clean seam, the fuzz suite's seam)
    key: Callable  # (params, seam) -> the key of its rows in the batch's memo


def _conn_reader(fn, order, block, name) -> _Reader:
    return _Reader(
        order, lambda params, F, p, conn: fn(params, F, p, conn=conn),
        lambda params: (None, verify._perturbed(build(params), block)),
        lambda params, conn: (params, conn, name),
    )


_SIZES = (0.0, verify._FUZZ_SIZE)

ROW_READERS = {
    "theorem": _conn_reader(
        verify.theorem_residuals, verify._THEOREM_ORDER, "hor", "theorem-rows"
    ),
    "construction": _conn_reader(
        deformation.construction_residuals, deformation._CONSTRUCTION_ORDER, "hor",
        "construction-rows",
    ),
    "torsions": _conn_reader(
        deformation.torsion_relations, deformation._TORSION_ORDER, "ver", "torsion-rows"
    ),
    "curvatures": _conn_reader(
        deformation.curvature_relations, deformation._CURVATURE_ORDER, "ver", "curvature-rows"
    ),
    "bianchi": _Reader(
        verify._BIANCHI_ORDER,
        lambda params, F, p, size: verify.bianchi_residuals(params, F, p, perturbation=size),
        lambda params: _SIZES,
        lambda params, size: (params, size, "bianchi-rows"),
    ),
    "first-bianchi": _Reader(
        verify._FIRST_BIANCHI_ORDER,
        lambda params, F, p, size: {
            "first-bianchi-metric": verify.first_bianchi_residual(F, p, perturbation=size)
        },
        lambda params: _SIZES,
        lambda params, size: (CARTAN, size, "first-bianchi-rows"),
    ),
    "diagram": _Reader(
        processes._DIAGRAM_ORDER,
        lambda params, F, p, family: processes.diagram_residuals(params, F, p, family=family),
        lambda params: (None, _fuzzed_family(params)),
        lambda params, family: (params, family, "diagram-rows"),
    ),
    "fd": _Reader(
        verify._FD_ORDER,
        lambda params, F, p, size: verify.fd_residuals(F, p, perturbation=size),
        lambda params: _SIZES,
        lambda params, size: (size, "fd-rows"),
    ),
    "constant-curvature": _Reader(
        verify._CONSTANT_CURVATURE_ORDER,
        lambda params, F, p, size: verify.constant_curvature_residuals(F, p, perturbation=size),
        lambda params: _SIZES,
        lambda params, size: (size, "constant-curvature-rows"),
    ),
}
# the readers of a pack, whose rows fail where the pack does
PACK_READERS = sorted(set(ROW_READERS) - {"first-bianchi", "fd", "constant-curvature"})
# each reader on the metrics it reads: the constant-curvature closed forms are of surfaces
ROW_METRICS = [
    (name, reader)
    for name in ["randers", "hyperbolic", "quartic3d"]
    for reader in sorted(ROW_READERS)
    if reader != "constant-curvature" or name != "quartic3d"
]


def _row_bits(rows) -> dict:
    """Each row's residual as int64 bits."""
    return {label: int(np.float64(value).view(np.int64)) for label, value in rows.items()}


def _rows_or_error(call, params, F, point, seam):
    try:
        return _row_bits(call(params, F, point, seam))
    except Exception as err:  # compared with the lone tower's error
        return (type(err), str(err))


def _lone_rows(call, params, F, point, seam):
    """The rows on the lone tower of a fresh structure (bound: the Ricci field reads it)."""
    return _rows_or_error(call, params, FinslerStructure(F.n, F.norm, F.name), point, seam)


@pytest.mark.parametrize("name, reader", ROW_METRICS)
def test_every_point_of_batch_rows_reads_its_lone_rows_bits(name, reader):
    F = {"randers": samples.randers(), **METRICS}[name]
    order, call, seams, key = ROW_READERS[reader]
    points = sample_points(F, SamplePlan(), 3, "batch-rows")
    for label, params in _packs(F).items():
        for seam in seams(params):
            views = F.towers(points, order)
            got = [_rows_or_error(call, params, F, p, seam) for p in points]
            want = [_lone_rows(call, params, F, p, seam) for p in points]
            assert all(isinstance(rows, dict) for rows in want) and got == want, (label, seam)
            # one build over the batch, each point a slice of it
            rows = views[0]._batch.cache[key(params, seam)]
            assert all(np.shape(value) == (3,) for value in rows.values()), (label, seam)
            assert views[0]._batch.parts is None and not any(v.cache for v in views)


def _case_or_error(case_id, F, points, size):
    """A case check's residual and literal-form residual, or the error it raises."""
    try:
        result = cases.check_case(case_id, F, points, seed=42, perturbation=size)
    except Exception as err:  # compared with the lone tower's error
        return (type(err), str(err))
    return result["residual"], result["literal_residual"]


def _lone_case(case_id, F, point, size):
    return _case_or_error(case_id, FinslerStructure(F.n, F.norm, F.name), [point], size)


def _bits(values) -> list:
    """Each residual as int64 bits (None where a literal form is not evaluated)."""
    return [None if v is None else int(np.float64(v).view(np.int64)) for v in values]


def _recording(monkeypatch, module, name) -> list:
    """The arguments of every call of ``module.name`` from now on."""
    calls, function = [], getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def _recording_workspaces(monkeypatch) -> list:
    """The source (point, tower or batch) of every workspace built for one pack."""
    sources, init = [], cases._Workspace.__init__

    def recording(self, params, F, where):
        sources.append(where)
        init(self, params, F, where)

    monkeypatch.setattr(cases._Workspace, "__init__", recording)
    return sources


@pytest.mark.parametrize("name", ["randers", "hyperbolic", "quartic3d"])
def test_every_point_of_a_batched_case_check_reads_its_lone_bits(name, monkeypatch):
    F = {"randers": samples.randers(), **METRICS}[name]
    points = sample_points(F, SamplePlan(), 3, "batch-cases")
    catalogs = _recording(monkeypatch, cases, "_catalog_rows")
    presets = _recording(monkeypatch, cases, "preset")
    views = F.towers(points, cases._WORKSPACE_ORDER)
    batch = views[0]._batch
    for size in _SIZES:
        for k, entry in enumerate(cases.catalog()):
            spec = cases.CATALOG[entry["id"]]
            presets.clear()
            got = _case_or_error(spec.id, F, points, size)
            # the first call compares every entry over the batch, parsing each
            # pack once for the batch; each later call reads its slices and
            # parses nothing
            first = k == 0 and size == _SIZES[0]
            assert len(presets) == (len(cases.catalog()) if first else 0), (spec.id, size)
            rows = batch.cache[(42, size, "catalog-rows")][spec.id]
            pack = cases.preset(spec.id, F, **cases.default_free_choices(spec.id, F, 42))
            lone = []
            for p in points:
                fresh = FinslerStructure(F.n, F.norm, F.name)  # bound: the Ricci field reads it
                tower = fresh.tower(p, cases._WORKSPACE_ORDER)
                rows_at = cases._compare(spec, cases._Workspace(pack, fresh, tower), size)
                lone.append({key: value[0] for key, value in rows_at.items()})
            labels = {"residual", "literal"} if spec.typo and not size else {"residual"}
            assert set(rows) == set(lone[0]) == labels, (spec.id, size)
            for key, values in rows.items():
                assert np.shape(values) == (3,)
                assert _bits(values) == _bits(r[key] for r in lone), (spec.id, size, key)
            # the check reports the worst of the lone residuals
            want = [_lone_case(spec.id, F, p, size) for p in points]
            worst = [None if None in column else max(column) for column in zip(*want)]
            assert _bits(got) == _bits(worst), (spec.id, size)
            if spec.typo and not size and name == "quartic3d":
                # the printed form misses here, so its residual compares live numbers
                assert min(literal for _, literal in want) > 1e-3
    # one stacked build per (batch, perturbation); the memo keeps only rows:
    # the catalog's, and each entry's, which is the catalog's entry itself
    assert [(args[1], args[3]) for args in catalogs] == [(batch, size) for size in _SIZES]
    assert all(
        isinstance(value, np.ndarray) and value.shape == (3,)
        for entries in (batch.cache[(42, size, "catalog-rows")] for size in _SIZES)
        for rows in entries.values()
        for value in rows.values()
    )
    entries = {(42, size, i, "case-rows"): (42, size, "catalog-rows") for size in _SIZES
               for i in cases.CATALOG}
    assert set(batch.cache) == set(entries) | set(entries.values()) | {(42, "case-packs")}
    assert all(batch.cache[key] is batch.cache[rows][key[2]] for key, rows in entries.items())
    assert batch.parts is None and not batch.failed


@pytest.mark.parametrize("name", ["randers", "quartic3d"])
@pytest.mark.parametrize("case_id, slot", [(3, "phi"), (4, "phi"), (9, "phi"), (19, "A")])
def test_a_metric_reading_field_on_a_batch_has_each_towers_bits(name, case_id, slot):
    # the Ricci endomorphism, both metric split parts and the Hilbert form
    F = {"randers": samples.randers(), **METRICS}[name]
    points = sample_points(F, SamplePlan(), 3, "batch-field")
    field = getattr(cases.preset(case_id, F, **cases.default_free_choices(case_id, F, 42)), slot)
    views = F.towers(points, cases._WORKSPACE_ORDER)
    got = deformation.field_value(field, views[0]._batch)
    assert got.shape == (3,) + ((F.n,) if slot == "A" else (F.n, F.n))
    for k, p in enumerate(points):
        fresh = FinslerStructure(F.n, F.norm, F.name)  # bound: the Ricci field reads it
        want = field.eval(fresh.tower(p, cases._WORKSPACE_ORDER))
        assert got.ring is want.ring
        assert np.array_equal(got.coef[k].view(np.int64), want.coef.view(np.int64)), k
    assert views[0]._batch.parts is None


# every function and operator of the expression language, in every slot
EVERY_FUNCTION = {
    "f1": "0.5 + exp(0.2*x1)*sin(y1) - cos(x2*y2)",
    "f2": "log(2 + x1^2)/sqrt(1 + y2^2)",
    "A": ("abs(x1 - 2)*y1", "(3 + y1^2)^(1/3) - x2"),
    "B": ("-y2/(2 + x1)", "sin(x1 + y2)^2"),
    "u": ("cos(y1)*exp(-x2)", "sqrt(4 + x1*y1) - 0.1*y2"),
    "phi": (("1 + 0.1*log(1 + y1^2)", "abs(y2 - 3)/4"), ("x1*y2", "exp(sin(x2))")),
}

# the tower each reader of a pack's data builds, and the ring it reads it in
READ_RINGS = [
    (verify._THEOREM_ORDER, verify._THEOREM_READ),
    (cases._WORKSPACE_ORDER, cases._WORKSPACE_READ),
    (deformation._TORSION_ORDER, deformation._TORSION_READ),
    (deformation._CURVATURE_ORDER, deformation._CURVATURE_READ),
    (verify._BIANCHI_ORDER, verify._BIANCHI_READ),
]


def _value_bits(values) -> list:
    return [np.ascontiguousarray(v.coef).view(np.int64) for v in values]


@pytest.mark.parametrize("order, read", READ_RINGS)
@pytest.mark.parametrize("size", [1, 3])
def test_values_evaluated_in_the_read_ring_have_the_bits_of_the_cut_values(order, read, size):
    # the values in g's ring (no read ring) cut to the read ring afterwards
    F = samples.randers()
    points = sample_points(F, SamplePlan(), size, "read-ring-values")
    views = F.towers(points, order)
    src = views[0]._batch  # a lone point is a batch of one
    assert len(src.points) == size
    expressions = replace(
        DeformationParams.zero(2),
        **{slot: parameter_field(slot, value, 2) for slot, value in EVERY_FUNCTION.items()},
    )
    # the Ricci endomorphism, a metric split part and the Hilbert form, and constants
    metric = [cases.preset(i, F, **cases.default_free_choices(i, F, 42)) for i in (3, 4, 19)]
    assert lower_to(read, src.g)[0].ring.dim < src.g.ring.dim  # the read ring cuts g's
    for params in [expressions, *metric]:
        got = deformation.parameter_values(params, src, read)
        cut = lower_to(read, *deformation.parameter_values(params, src))
        assert [v.ring for v in got] == [v.ring for v in cut], params.name
        assert all(v.ring.order <= read[0] and v.ring.xorder <= read[1] for v in got)
        for slot, g, w in zip(SLOTS, _value_bits(got), _value_bits(cut)):
            assert g.shape == w.shape and np.array_equal(g, w), (params.name, slot)


@pytest.mark.parametrize("name", ["randers", "hyperbolic", "quartic3d"])
def test_the_catalogs_one_evaluation_has_each_packs_bits_slice_for_slice(name):
    F = {"randers": samples.randers(), **METRICS}[name]
    points = sample_points(F, SamplePlan(), 3, "catalog-values")
    batch = F.towers(points, cases._WORKSPACE_ORDER)[0]._batch
    read = cases._WORKSPACE_READ
    packs = [cases._pack(spec, F, 42) for spec in cases._PRESETS]
    # every pack, and the three that hold no expression field (no tape)
    bare = [packs[i - 1] for i in (16, 19, 26)]
    assert all(params.tape is None for params in bare)
    for group in (packs, bare):
        got = deformation.parameter_values(group, batch, read)
        assert all(v.shape[0] == len(group) * len(points) for v in got)
        for k, params in enumerate(group):
            want = deformation.parameter_values(params, batch, read)
            part = slice(k * len(points), (k + 1) * len(points))
            for slot, g, w in zip(SLOTS, got, want):
                assert g.ring is w.ring, (params.name, slot)
                bits = _value_bits([Series(g.ring, g.coef[part]), w])
                assert np.array_equal(*bits), (params.name, slot)


def test_pack_tapes_run_in_the_read_ring_and_the_catalog_compiles_one(monkeypatch):
    count = 3
    running = _tracking_suites(monkeypatch)
    norms, compiles, tapes, runs, reads = set(), [], [], [], []
    evaluate, compile_, run = deformation.parameter_values, deformation._tape, expr.Tape.run
    init = expr.Tape.__init__

    def evaluating(params, src, read=None, tape=None):
        reads.append(read)
        try:
            return evaluate(params, src, read, tape)
        finally:
            reads.pop()

    def compiling(packs):
        compiles.append((running[-1] if running else None, len(packs)))
        return compile_(packs)

    def building(self, trees, n):
        tapes.append(running[-1] if running else None)
        init(self, trees, n)

    def running_tape(self, jets):
        if reads and self not in norms:  # any tape run for a pack's values but the norm's
            runs.append((reads[-1], jets.xs.ring))
        return run(self, jets)

    for module in (deformation, cases):
        monkeypatch.setattr(module, "parameter_values", evaluating)
        monkeypatch.setattr(module, "_tape", compiling)
    monkeypatch.setattr(expr.Tape, "__init__", building)
    monkeypatch.setattr(expr.Tape, "run", running_tape)
    for fuzz in (False, True):
        metrics = [samples.randers(), samples.hyperbolic()]
        norms = {F.norm.tape for F in metrics}  # a tower stage may first be read there
        compiles.clear()
        tapes.clear()
        runs.clear()
        run_all(metrics, _small_plan(count), fuzz=fuzz)

        # every tape run while a pack's values are evaluated, a metric split
        # part's included, gets jets no higher than its read ring
        assert runs and {read for read, _ in runs} >= {(0, 0), (1, 1), (2, 2)}
        for read, rg in runs:
            assert read is None or rg.order <= read[0] and rg.xorder <= read[1], (read, rg)
        # the run compiles one tape over every catalog pack for its one
        # dimension, in its first case suite, and no other tape in any case suite
        catalog = [(name, packs) for name, packs in compiles if packs > 1]
        assert catalog == [("cases[randers]", len(cases.catalog()))], fuzz
        assert [name for name in tapes if name and name.startswith("cases[")] == [
            "cases[randers]"
        ], fuzz


def _failing_points(F, label):
    """Five sample points with x1 > 0 but at the third, where log(x1) fails."""
    return [
        ChartPoint([-0.25 if k == 2 else abs(p.x[0]) + 0.05, p.x[1]], p.y)
        for k, p in enumerate(sample_points(F, SamplePlan(), 5, label))
    ]


def test_a_catalog_batch_failing_in_g_computes_it_once_and_once_per_point(monkeypatch):
    # the norm is negative at the third point, so g raises there: the batch
    # computes it once, splits, and each point then computes its own
    F = FinslerStructure(2, ExprScalarField(2, "sqrt(y1^2 + y2^2) + x1*y1"), "negative")
    points = [
        ChartPoint([0.1, 0.2], [1.0, 0.5]),
        ChartPoint([-0.2, 0.1], [0.3, 1.0]),
        ChartPoint([1.5, 0.1], [-1.0, 0.1]),
    ]
    builds, g = [], finsler._Batch.__dict__["g"].func

    def building(batch):
        builds.append(len(batch.points))
        return g(batch)

    stage = cached_property(building)
    stage.__set_name__(finsler._Batch, "g")
    monkeypatch.setattr(finsler._Batch, "g", stage)
    views = F.towers(points, cases._WORKSPACE_ORDER)
    with pytest.raises(finsler.DomainError, match="norm must be positive"):
        cases.check_case(1, F, points)
    assert builds == [3, 1, 1, 1]
    assert views[0]._batch.parts is not None


@pytest.mark.parametrize("reader", PACK_READERS)
def test_rows_failing_at_one_point_raise_its_own_error_and_the_others_are_served(reader):
    F = samples.randers()
    order, call, seams, key = ROW_READERS[reader]
    points = _failing_points(F, "batch-rows-fail")
    params = replace(DeformationParams.zero(2), f1=parameter_field("f1", "log(x1)", 2))
    seam = seams(params)[0]
    views = F.towers(points, order)
    got = [_rows_or_error(call, params, F, p, seam) for p in points]  # the build fails at point 0
    want = [_lone_rows(call, params, F, p, seam) for p in points]
    assert got[2][0] is finsler.DomainError and "parameter f1 cannot be evaluated" in got[2][1]
    assert got == want
    assert all(isinstance(got[k], dict) for k in (0, 1, 3, 4))
    # the batch marks the failed build alone; it still serves every stage
    assert views[0]._batch.failed == {key(params, seam)}


def test_a_case_check_failing_at_one_point_raises_its_own_error_and_the_others_are_served(
    monkeypatch,
):
    F = samples.randers()
    points = _failing_points(F, "batch-cases-fail")
    choices = cases.default_free_choices

    def failing(case_id, F, seed=0):  # case 7's free weight f1 fails where x1 < 0
        out = choices(case_id, F, seed)
        return {**out, "f1": ExprScalarField(2, "log(x1)")} if case_id == 7 else out

    monkeypatch.setattr(cases, "default_free_choices", failing)
    workspaces = _recording_workspaces(monkeypatch)
    views = F.towers(points, cases._WORKSPACE_ORDER)
    want = [_lone_case(7, F, p, 0.0) for p in points]
    assert want[2][0] is finsler.DomainError and "parameter f1 cannot be evaluated" in want[2][1]
    workspaces.clear()
    # case 7's pack fails on the batch, alone too, so its points are compared
    # one by one: the first two are served, and the third raises its own error
    assert _case_or_error(7, F, points, 0.0) == want[2]
    batch = views[0]._batch
    assert workspaces == [batch] + [t.lift for t in views[:3]]
    assert all(t.lift is batch.parts[k] for k, t in enumerate(views[:3]))
    good = (0, 1, 3, 4)
    got = [_case_or_error(7, F, [points[k]], 0.0) for k in good]
    assert [_bits(g) for g in got] == [_bits(want[k]) for k in good]
    # the other entries are still compared over the batch, with their lone bits
    rows = batch.cache[(42, 0.0, "catalog-rows")]
    assert set(rows) == set(cases.CATALOG) - {7}
    for case_id in (1, 8):
        workspaces.clear()
        got = _case_or_error(case_id, F, points, 0.0)
        assert not workspaces  # a slice read
        want = [_lone_case(case_id, F, p, 0.0) for p in points]
        worst = [None if None in column else max(column) for column in zip(*want)]
        assert _bits(got) == _bits(worst), case_id
    # the batch marks case 7's rows alone; it still serves every stage
    assert batch.failed == {(42, 0.0, 7, "case-rows")}


class _PickyTowers(_Picky):
    """The picky norm on towers only: order-0 energies are evaluated anywhere."""

    def eval(self, jets):
        return self.inner.eval(jets) if jets.ring.order == 0 else super().eval(jets)


def test_fd_rows_failing_at_one_shifted_point_raise_its_own_error_and_the_others_are_served():
    F = FinslerStructure(2, _PickyTowers(), "picky")
    # the second point's x1-shifted towers lie past the norm's edge at x1 = 0.4
    points = [GOOD[0], ChartPoint([0.4 - 5e-5, 0.1], [1.0, 0.5]), GOOD[1]]
    views = F.towers(points, verify._FD_ORDER)
    call = ROW_READERS["fd"].call
    got = [_rows_or_error(call, None, F, p, 0.0) for p in points]
    want = [_lone_rows(call, None, F, p, 0.0) for p in points]
    assert got[1] == (ExprError, str(ExprError("picky norm", 3)))
    assert got == want and isinstance(got[0], dict) and isinstance(got[2], dict)
    # the batch marks the failed build alone; it still serves every stage
    assert views[0]._batch.failed == {(0.0, "fd-rows")}


def test_a_type_error_of_the_catalogs_batch_evaluation_propagates(monkeypatch):
    # a fault only the packs' evaluation side by side meets is not a point's error
    F = samples.randers()
    points = sample_points(F, SamplePlan(), 3, "batch-type-error")
    evaluate = cases.parameter_values

    def broken(params, src, read=None, tape=None):
        if not isinstance(params, DeformationParams) and len(params) > 1:
            raise TypeError("several packs")
        return evaluate(params, src, read, tape)

    monkeypatch.setattr(cases, "parameter_values", broken)
    views = F.towers(points, cases._WORKSPACE_ORDER)
    with pytest.raises(TypeError, match="several packs"):
        cases.check_case(1, F, points)
    assert not views[0]._batch.failed and views[0]._batch.parts is None


@pytest.mark.parametrize("error", [TypeError, TruncationError])
def test_an_error_of_batch_rows_that_is_not_a_points_propagates(monkeypatch, error):
    # a programming error met only on a batch of several points, or an order
    # too low for the rows, is raised as it is: no point builds alone
    F = samples.randers()
    points = sample_points(F, SamplePlan(), 3, "batch-rows-error")
    params = verify.random_param_sets(F, SamplePlan())[0]
    rows = verify._theorem_rows

    def broken(params, src, conn):
        if len(src.points) > 1:
            raise error("a batch of several points")
        return rows(params, src, conn)

    monkeypatch.setattr(verify, "_theorem_rows", broken)
    views = F.towers(points, verify._THEOREM_ORDER)
    with pytest.raises(error, match="several points"):
        verify.theorem_residuals(params, F, points[0])
    assert not views[0]._batch.failed and views[0]._batch.parts is None


def test_a_type_error_of_the_stencils_norm_evaluation_propagates_at_once():
    class Broken:
        calls = 0

        def eval(self, jets):
            Broken.calls += 1
            raise TypeError("not a point's error")

    stencil = verify._fd_stencil(GOOD[0])
    with pytest.raises(TypeError):
        verify._energies(FinslerStructure(2, Broken(), "broken"), stencil)
    assert Broken.calls == 1  # no point runs again alone


def test_a_check_pass_reads_no_lift_of_a_batch_of_several_and_fails_no_key(monkeypatch):
    # the built-in configuration, clean and fuzzed, as ``finslerconn check`` runs it
    lift, serve = finsler.Tower.lift, finsler._Batch.serve
    lifts, failed = [], []

    def reading(t):
        lifts.append(len(t._batch.points))
        return lift.fget(t)

    def serving(batch, i, key, build):
        out = serve(batch, i, key, build)
        failed.extend(batch.failed)
        return out

    monkeypatch.setattr(finsler.Tower, "lift", property(reading))
    monkeypatch.setattr(finsler._Batch, "serve", serving)
    config = cli.parse_config(cli.default_config_text(), origin="<built-in>")
    for fuzz in (False, True):
        run_all(cli._structures(config), config.plan, config.tolerances or None, fuzz)
    assert not [size for size in lifts if size > 1] and not failed
    # a report point reads its tower's own batch: no view, no batch of its own
    F = samples.randers()
    point = sample_points(F, SamplePlan(), 1, "report-lift")[0]
    t = F.tower(point, cli._REPORT_ORDER)
    cli.tensor_report(F, verify.random_param_sets(F, SamplePlan())[0], [point])
    assert t.lift is t._batch and t._batch.parts is None and t._batch.cache


@pytest.mark.parametrize("rank", [4, 5])
def test_cyclic_sum_behind_a_point_axis_has_the_bits_of_each_slice(rank):
    M = np.random.default_rng(rank).standard_normal((2,) + (3,) * rank)
    got = verify._cyc3(M)
    rest = tuple(range(4, rank))
    want = [m + m.transpose(0, 2, 3, 1, *rest) + m.transpose(0, 3, 1, 2, *rest) for m in M]
    assert got.shape == M.shape
    assert all(np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(got, want))
    # the cyclic sum over the argument axes 1, 2, 3; an axis after them stays in place
    m, rest = M[0], (2,) * (rank - 4)
    cyclic = m[(0, 1, 2, 0) + rest] + m[(0, 0, 1, 2) + rest] + m[(0, 2, 0, 1) + rest]
    assert want[0][(0, 1, 2, 0) + rest] == cyclic


# the rows formula of each batched suite: name -> (its module, the suite
# running it, and the places among its arguments of its pack (None: it
# takes none), its source and its fuzz seam)
ROW_FORMULAS = {
    "_theorem_rows": (verify, "theorem", 0, 1, 2),
    "_construction_rows": (deformation, "construction", 0, 1, 2),
    "_torsion_rows": (deformation, "torsions", 0, 1, 2),
    "_curvature_rows": (deformation, "curvatures", 0, 1, 2),
    "_bianchi_rows": (verify, "bianchi", 0, 1, 2),
    "_first_bianchi_rows": (verify, "bianchi", None, 0, 1),
    "_diagram_rows": (processes, "processes", 0, 1, 2),
    "_fd_rows": (verify, "fd", None, 1, 2),
    "_catalog_rows": (cases, "cases", None, 1, 3),
    "_constant_curvature_rows": (verify, "constant-curvature", None, 0, 1),
}


def test_each_batched_suite_builds_its_rows_once_per_batch(monkeypatch):
    count = 3
    running = _tracking_suites(monkeypatch)
    builds, lone = [], []
    for name, (module, _, pack, source, seam) in ROW_FORMULAS.items():
        formula = getattr(module, name)

        def recording(*args, __formula=formula, __name=name, __pack=pack, __src=source,
                      __seam=seam):
            src = args[__src]
            if isinstance(src, finsler._Batch):
                params = None if __pack is None else args[__pack]
                builds.append((running[-1], __name, src, params, args[__seam]))
            return __formula(*args)

        monkeypatch.setattr(module, name, recording)
    for module, name in (
        (verify, "metric_deficit"), (verify, "torsions"), (deformation, "torsions"),
        (processes, "torsions"), (verify, "curvature_h"), (verify, "ricci"),
    ):
        function = getattr(module, name)

        def per_point(conn, t, *args, __function=function, __name=name, **kwargs):
            if isinstance(t, finsler.Tower):
                lone.append((running[-1] if running else None, __name))
            return __function(conn, t, *args, **kwargs)

        monkeypatch.setattr(module, name, per_point)
    workspaces = _recording_workspaces(monkeypatch)
    for fuzz in (False, True):
        builds.clear()
        lone.clear()
        workspaces.clear()
        metrics = [samples.randers(), samples.hyperbolic()]
        run_all(metrics, _small_plan(count), fuzz=fuzz)

        assert not lone  # no suite reads a torsion, metric deficit or curvature per point
        assert not workspaces  # nor builds a case workspace of one pack
        for F in metrics:
            # one build per pack; the first-Bianchi row runs on quadratic norms,
            # and the catalog is one build over all its packs
            want = {name: 1 for name in ROW_FORMULAS}
            want |= {"_theorem_rows": 2, "_first_bianchi_rows": int(verify.cartan_flat(F))}
            for name, (_, suite, *_) in ROW_FORMULAS.items():
                # the constant-curvature suite runs once, on its own surface
                label = suite if suite == "constant-curvature" else f"{suite}[{F.name}]"
                mine = [b for b in builds if b[0] == label and b[1] == name]
                assert len(mine) == want[name], (fuzz, name)
                # one build per (pack, seam, batch): a pack's connection or
                # family, the size of the bump
                keys = {(id(src), id(p), id(seam)) for _, _, src, p, seam in mine}
                assert len(keys) == want[name], (fuzz, name)
                # a fuzzed case suite reads two points
                read = 2 if fuzz and suite == "cases" else count
                assert all(len(src.points) == read for _, _, src, _, _ in mine), (fuzz, name)
                assert all((seam not in (None, 0.0)) == fuzz for *_, seam in mine), (fuzz, name)


def _old_fd_energy_rows(F, point):
    """The fd rows built from the energy stencils, one norm evaluation per
    energy as ``fd_residuals`` evaluated them before they were batched."""
    t = FinslerStructure(F.n, F.norm, F.name).tower(point, verify._FD_ORDER)
    n, x0, y0 = F.n, point.x, point.y

    def energy(x, y):
        L = float(F.norm.eval(ChartJets.at(x, y, 0)).val)
        return 0.5 * L * L

    def e(i, h):
        out = np.zeros(n)
        out[i] = h
        return out

    h2 = 1e-3
    g_fd, mixed = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            g_fd[i, j] = (
                energy(x0, y0 + e(i, h2) + e(j, h2)) - energy(x0, y0 + e(i, h2) - e(j, h2))
                - energy(x0, y0 - e(i, h2) + e(j, h2)) + energy(x0, y0 - e(i, h2) - e(j, h2))
            ) / (4.0 * h2 * h2)
    dx_energy = np.array(
        [(energy(x0 + e(l, 1e-4), y0) - energy(x0 - e(l, 1e-4), y0)) / 2e-4 for l in range(n)]
    )
    for l in range(n):
        for m in range(n):
            mixed[l, m] = (
                energy(x0 + e(m, h2), y0 + e(l, h2)) - energy(x0 + e(m, h2), y0 - e(l, h2))
                - energy(x0 - e(m, h2), y0 + e(l, h2)) + energy(x0 - e(m, h2), y0 - e(l, h2))
            ) / (4.0 * h2 * h2)
    G_fd = 0.5 * np.linalg.inv(g_fd) @ (mixed @ y0 - dx_energy)
    return {
        "fd-fundamental-tensor": _lone_residual(g_fd - t.g.val, t.g.val),
        "fd-spray": _lone_residual(G_fd - t.G.val, t.G.val),
    }


@pytest.mark.parametrize("name", ["drift", "hyperbolic", "quartic3d"])
def test_fd_stencils_run_as_one_norm_evaluation_with_the_same_bits(name, monkeypatch):
    F = METRICS[name]
    point = sample_points(F, SamplePlan(), 1, "batch-fd")[0]
    want = _old_fd_energy_rows(F, point)
    orders, evaluate = [], type(F.norm).eval

    def counted(self, jets):
        orders.append(jets.ring.order)
        return evaluate(self, jets)

    monkeypatch.setattr(type(F.norm), "eval", counted)
    got = verify.fd_residuals(F, point)
    assert orders.count(0) == 1
    assert {key: got[key] for key in want} == want
