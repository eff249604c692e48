"""Mutation checks: a wrong connection must fail the rows that pin it.

Each mutant is a coefficient triple that differs from the built one in one
way and is handed to the pointwise suites through their ``conn=`` seam.  On
the Randers metric, with the first random pack, at two sample points:

* the built connection passes every row named below (so no row fails
  vacuously);
* each mutant fails every row listed for it, by the row's own tolerance
  tier.
"""

from dataclasses import replace

import pytest

from finslerconn.connection import CARTAN
from finslerconn.deformation import build, construction_residuals, torsion_relations
from finslerconn.samples import randers
from finslerconn.verify import (
    _TORSION_TOLS,
    DEFAULT_TOLERANCES,
    SamplePlan,
    random_param_sets,
    sample_points,
    theorem_residuals,
)

# suite -> (pointwise call, the tolerance tier of a row label)
SUITES = {
    "theorem": (theorem_residuals, lambda label: "theorem"),
    "construction": (construction_residuals, lambda label: "first-order"),
    "torsions": (torsion_relations, lambda label: _TORSION_TOLS[label]),
}


# mutant -> (the mutant made from the built connection, the rows it must fail)
MUTANTS = {
    "H-swapped": (
        lambda base: replace(base, hor=lambda t: base.H(t).transpose(0, 2, 1)),
        {"theorem": ["condition-(iii)-quarter-torsion"], "torsions": ["hh-quarter-form"]},
    ),
    "V-negated": (
        lambda base: replace(base, ver=lambda t: -base.V(t)),
        {"theorem": ["condition-(ii)-vertical-deficit"], "torsions": ["hv-coincides"]},
    ),
    "N-metric": (
        lambda base: replace(base, nlc=CARTAN.nlc),
        {"construction": ["deflection"], "torsions": ["vh-shift-rule"]},
    ),
    "H-scaled": (
        lambda base: replace(base, hor=lambda t: base.H(t) * (1.0 + 1e-6)),
        {
            "theorem": ["condition-(i)-horizontal-deficit"],
            "construction": ["compatibility-route"],
        },
    ),
    "H-metric": (
        lambda base: replace(base, hor=CARTAN.hor),
        {"theorem": ["condition-(iii)-quarter-torsion"]},
    ),
}


@pytest.fixture(scope="module")
def setup():
    F = randers()
    plan = SamplePlan()
    pack = random_param_sets(F, plan)[0]
    return F, pack, sample_points(F, plan, 2, "mutants")


def _rows(F, pack, points, suite, conn):
    """Every point's residuals of one suite, for the connection ``conn``."""
    call, _ = SUITES[suite]
    return [call(pack, F, p, conn=conn) for p in points]


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_its_rows(mutant, setup):
    F, pack, points = setup
    make, expected = MUTANTS[mutant]
    conn = make(build(pack))
    for suite, labels in expected.items():
        tier = SUITES[suite][1]
        built = _rows(F, pack, points, suite, None)
        mutated = _rows(F, pack, points, suite, conn)
        for label in labels:
            tol = DEFAULT_TOLERANCES[tier(label)]
            assert all(rows[label] <= tol for rows in built), (suite, label)
            assert all(rows[label] > tol for rows in mutated), (mutant, suite, label)
