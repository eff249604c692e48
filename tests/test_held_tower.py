"""A held tower keeps its memo size over repeated calls of every reader.

A reader memoizes what it builds on a tower (deformation data, the
read-ring views of connections, the process families of packs) under a key
its caller holds, so a caller that holds the tower between calls meets the
same entries again, and the memo stops growing after the first call.  Each
reader is called three times on the tower of its own order at one Randers
point, with the first random pack; the fuzz rows pass the connection the
fuzz suites build once per pack.
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


@pytest.mark.parametrize("reader", sorted(READERS))
def test_held_tower_memo_keeps_its_size(reader):
    F = randers()
    plan = verify.SamplePlan()
    point = verify.sample_points(F, plan, 1, "held-tower")[0]
    pack = verify.random_param_sets(F, plan)[0]
    conn = verify._perturbed(build(pack), "hor")
    order, call = READERS[reader]
    t = F.tower(point, order)
    sizes = []
    for _ in range(3):
        call(F, pack, point, conn)
        sizes.append(len(t.cache))
    assert sizes[0] > 0  # the reader memoizes on the tower held here
    assert sizes == sizes[:1] * 3
