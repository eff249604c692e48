"""Every tower a library call asks for is cut in x exactly as far as it may be.

Each call site names an ``(order, xorder)`` pair for its towers, whatever
the pack.  On the 2-d Randers metric and the 3-d quartic metric, with one
random pack and the case-3 pack (whose Ricci endomorphism reads, for each
tower ``(order, xorder)`` it is evaluated on, the tower of the same point
at ``(order + 1, xorder + 2)`` through ``F.tower``, so every tower
request is seen here):

* every site's results are bit-identical to those on uncut towers of the
  same total order;
* the case-3 pack asks for each of the site's pairs and the Ricci pair
  above it, and nothing else;
* with the random pack, lowering the x-order of any one pair a site asks
  for by one raises ``TruncationError``, so each cut is checked to be the
  smallest that works, not guessed.

A site that computes the deformed connection in the ring it reads declares
that ring beside its pair; lowering its order or its x-order by one raises
``TruncationError`` too.
"""

import numpy as np
import pytest

from finslerconn import cases, cli, deformation, processes, samples, verify
from finslerconn.ad import TruncationError
from finslerconn.finsler import FinslerStructure

# site -> (per-point call, the pairs it asks for)
SITES = {
    "theorem": (lambda F, pack, p: verify.theorem_residuals(pack, F, p), {(4, 1)}),
    "construction": (
        lambda F, pack, p: deformation.construction_residuals(pack, F, p), {(4, 1)}
    ),
    "torsions": (lambda F, pack, p: deformation.torsion_relations(pack, F, p), {(4, 2)}),
    "curvatures": (lambda F, pack, p: deformation.curvature_relations(pack, F, p), {(5, 2)}),
    "bianchi": (lambda F, pack, p: verify.bianchi_residuals(pack, F, p), {(6, 3)}),
    "diagram": (lambda F, pack, p: processes.diagram_residuals(pack, F, p), {(4, 1)}),
    "cases": (lambda F, pack, p: vars(cases._Workspace(pack, F, p)), {(4, 0)}),
    "report": (lambda F, pack, p: cli.tensor_report(F, pack, [p]), {(5, 2)}),
    # sites that take no pack
    "first-bianchi": (lambda F, pack, p: verify.first_bianchi_residual(F, p), {(5, 2)}),
    "fd": (lambda F, pack, p: verify.fd_residuals(F, p), {(4, 1), (2, 0), (3, 1)}),
    # a fresh structure on the norm each time: the verdict is cached per structure
    "cartan-flat": (
        lambda F, pack, p: verify.cartan_flat(FinslerStructure(F.n, F.norm, F.name)), {(3, 0)}
    ),
    "validate": (lambda F, pack, p: F.validate_at(p), {(2, 0)}),
}
PACKLESS = {"first-bianchi", "fd", "cartan-flat", "validate"}
METRICS = {"randers": samples.randers, "quartic3d": samples.quartic_three_dim}


def _flat(result):
    """A result as nested lists of plain numbers, compared with ``==``."""
    if isinstance(result, dict):
        return [(key, _flat(value)) for key, value in sorted(result.items())]
    if isinstance(result, (list, tuple)):
        return [_flat(value) for value in result]
    if isinstance(result, np.ndarray):
        return result.tolist()
    return result


def _run(monkeypatch, call, F, pack, point, remap):
    """The pairs a site asks for, and its result (or ``TruncationError``)
    with each pair passed through ``remap`` on cold towers."""
    asked = []
    tower = FinslerStructure.tower

    def remapped(self, at, order):
        if isinstance(order, tuple):
            asked.append(order)
            order = remap(order)
        return tower(self, at, order)

    F._towers.clear()
    with monkeypatch.context() as patch:
        patch.setattr(FinslerStructure, "tower", remapped)
        try:
            out = _flat(call(F, pack, point))
        except TruncationError:
            out = TruncationError
    return set(asked), out


def _check_site(monkeypatch, call, pairs, F, pack, point, lowered: bool):
    asked, cut = _run(monkeypatch, call, F, pack, point, lambda order: order)
    assert asked == pairs
    _, uncut = _run(monkeypatch, call, F, pack, point, lambda order: order[0])
    assert cut == uncut
    if not lowered:
        return cut
    assert cut is not TruncationError
    for total, xorder in pairs - {(total, 0) for total, _ in pairs}:
        lower = lambda order: (total, xorder - 1) if order == (total, xorder) else order
        assert _run(monkeypatch, call, F, pack, point, lower)[1] is TruncationError, (total, xorder)
    return cut


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("site", sorted(SITES))
def test_site_xorder_is_exact(site, metric, monkeypatch):
    F = METRICS[metric]()
    plan = verify.SamplePlan()
    point = verify.sample_points(F, plan, 1, "xorder")[0]
    call, pairs = SITES[site]
    random_pack = verify.random_param_sets(F, plan)[0]
    _check_site(monkeypatch, call, pairs, F, random_pack, point, lowered=True)
    if site in PACKLESS:
        return
    ricci_pack = cases.preset(3, F, **cases.default_free_choices(3, F))
    ricci_pairs = pairs | {(total + 1, xorder + 2) for total, xorder in pairs}
    got = _check_site(monkeypatch, call, ricci_pairs, F, ricci_pack, point, lowered=False)
    assert got is not TruncationError


def test_constant_curvature_xorder_is_exact(monkeypatch):
    F = samples.hyperbolic()
    point = verify.sample_points(F, verify.SamplePlan(), 1, "xorder")[0]
    _check_site(
        monkeypatch, lambda F, pack, p: verify.constant_curvature_residuals(F, p), {(5, 2)},
        F, None, point, lowered=True,
    )


# site -> the module and name of the ring it reads the deformed connection in
READS = {
    "theorem": (verify, "_THEOREM_READ"),
    "construction": (deformation, "_CONSTRUCTION_READ"),
    "cases": (cases, "_WORKSPACE_READ"),
    "torsions": (deformation, "_TORSION_READ"),
    "curvatures": (deformation, "_CURVATURE_READ"),
    "report": (cli, "_REPORT_READ"),
    "bianchi": (verify, "_BIANCHI_READ"),
}


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("site", sorted(READS))
def test_site_read_ring_is_the_smallest(site, metric, monkeypatch):
    F = METRICS[metric]()
    plan = verify.SamplePlan()
    point = verify.sample_points(F, plan, 1, "xorder")[0]
    call, _ = SITES[site]
    random_pack = verify.random_param_sets(F, plan)[0]
    module, name = READS[site]
    order, xorder = getattr(module, name)
    lowered = [(o, x) for o, x in ((order - 1, xorder), (order, xorder - 1)) if min(o, x) >= 0]
    assert lowered or (order, xorder) == (0, 0)  # no ring lies below (0, 0)
    for read in lowered:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, read)
            _, out = _run(monkeypatch, call, F, random_pack, point, lambda order: order)
        assert out is TruncationError, read
