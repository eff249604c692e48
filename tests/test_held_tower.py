"""A held batch and its towers keep their memo sizes over repeated calls
of every reader.

A reader memoizes what it builds on a tower (the view of deformation data,
the read-ring views of connections, the process families of packs) and on
the tower's batch (the deformation data over all its points) under a key
its caller holds, so a caller that holds the batch's towers between calls
meets the same entries again, and the memos stop growing after the first
call.  Each reader is called three times at each of two Randers points
whose towers of the reader's order are held as one batch, with the first
random pack; the fuzz rows pass the connection the fuzz suites build once
per pack.  The theorem, construction, torsion, curvature, Bianchi and
diagram readers compute their rows once over the batch and keep them in
the batch's memo, so they memoize nothing on a tower.  The case checks build a new pack on every call
and keep its data nowhere.
"""

import pytest

from finslerconn import cases, cli, deformation, processes, verify
from finslerconn.deformation import build
from finslerconn.samples import randers

# reader -> (the (order, xorder) of its tower, per-point call)
READERS = {
    "theorem": (
        verify._THEOREM_ORDER, lambda F, pack, p, conn: verify.theorem_residuals(pack, F, p)
    ),
    "theorem-fuzz": (
        verify._THEOREM_ORDER,
        lambda F, pack, p, conn: verify.theorem_residuals(pack, F, p, conn=conn),
    ),
    "construction": (
        deformation._CONSTRUCTION_ORDER,
        lambda F, pack, p, conn: deformation.construction_residuals(pack, F, p),
    ),
    "torsions": (
        deformation._TORSION_ORDER,
        lambda F, pack, p, conn: deformation.torsion_relations(pack, F, p),
    ),
    "curvatures": (
        deformation._CURVATURE_ORDER,
        lambda F, pack, p, conn: deformation.curvature_relations(pack, F, p),
    ),
    "bianchi": (
        verify._BIANCHI_ORDER, lambda F, pack, p, conn: verify.bianchi_residuals(pack, F, p)
    ),
    "diagram": (
        processes._DIAGRAM_ORDER,
        lambda F, pack, p, conn: processes.diagram_residuals(pack, F, p),
    ),
    "report": (cli._REPORT_ORDER, lambda F, pack, p, conn: cli.tensor_report(F, pack, [p])),
    # the catalog builds its own pack on every call
    "case-02": (cases._WORKSPACE_ORDER, lambda F, pack, p, conn: cases.check_case(2, F, [p])),
    "case-03": (cases._WORKSPACE_ORDER, lambda F, pack, p, conn: cases.check_case(3, F, [p])),
}

# the readers whose rows are computed over the batch, each point reading its slice
BATCHED = {
    "theorem", "theorem-fuzz", "construction", "torsions", "curvatures", "bianchi", "diagram"
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_held_tower_memo_keeps_its_size(reader):
    F = randers()
    plan = verify.SamplePlan()
    points = verify.sample_points(F, plan, 2, "held-tower")
    pack = verify.random_param_sets(F, plan)[0]
    conn = verify._perturbed(build(pack), "hor")
    order, call = READERS[reader]
    towers = F.towers(points, order)
    t, batch = towers[0], towers[0]._batch
    assert batch.lead and towers[1]._batch is batch
    sizes = []
    for _ in range(3):
        for p in points:
            call(F, pack, p, conn)
        sizes.append((len(t.cache), len(towers[1].cache), len(batch.cache)))
    if reader.startswith("case"):
        assert sizes[0] == (0, 0, 0)  # each call's data is kept nowhere
    elif reader in BATCHED:  # the rows and all they read live in the batch's memo
        assert sizes[0][:2] == (0, 0) and sizes[0][2] > 0
    else:  # the reader memoizes on the towers and the batch held here
        assert sizes[0][0] > 0 and sizes[0][1] > 0 and sizes[0][2] > 0
    assert sizes == sizes[:1] * 3
