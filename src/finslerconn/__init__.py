"""finslerconn: a coordinate engine for a six-parameter family of Finsler
connections, with verification suites for their torsion and curvature
identities.

The layers, bottom up:

* :mod:`.expr` -- expression fields over chart coordinates (x1..xn, y1..yn),
* :mod:`.ad` -- truncated multivariate Taylor arithmetic (jets), the
  field protocol every input evaluates through and its :class:`Constant`,
* :mod:`.finsler` -- Finsler structures and the tower of fundamental
  objects (fundamental tensor, Cartan tensor, spray, nonlinear connection,
  horizontal coefficients),
* :mod:`.connection` -- connection triples on the pullback bundle, their
  covariant derivatives, torsion bundle, and curvature blocks,
* :mod:`.deformation` -- the six-parameter deformed connection and its
  construction identities,
* :mod:`.processes` -- the P1/C coefficient surgeries and the four-corner
  square they generate,
* :mod:`.cases` -- the catalog of 26 classical special cases with closed
  forms,
* :mod:`.verify` -- seeded verification suites with fuzz controls,
* :mod:`.cli` -- the ``finslerconn`` command-line tool.
"""

from .ad import ChartJets, Constant, Field, Series
from .cases import CaseError, catalog, check_case, closed_form_delta, preset
from .connection import (
    CARTAN,
    Connection,
    TorsionBundle,
    contract_value_slot,
    cov_deriv,
    curvature_h,
    curvature_mixed,
    curvature_v,
    ricci,
    torsions,
)
from .deformation import (
    DeformationData,
    DeformationParams,
    build,
    construction_residuals,
    curvature_relations,
    deformation_data,
    torsion_relations,
)
from .expr import (
    ExprCovectorField,
    ExprError,
    ExprMatrixField,
    ExprScalarField,
)
from .finsler import ChartPoint, DomainError, FinslerStructure, Tower
from .processes import (
    BERWALD,
    CHERN_RUND,
    CLASSICAL,
    HASHIGUCHI,
    ConnectionFamily,
    berwald_coefficients,
    c_process,
    derive_family,
    diagram_residuals,
    p1_process,
)
from .verify import (
    DEFAULT_TOLERANCES,
    CheckReport,
    CheckRow,
    SamplePlan,
    bianchi_residuals,
    run_all,
    sample_points,
    theorem_residuals,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expression and jet substrate
    "ExprScalarField", "ExprCovectorField", "ExprMatrixField", "ExprError",
    "ChartJets", "Series", "Field", "Constant",
    # structures and towers
    "FinslerStructure", "ChartPoint", "Tower", "DomainError",
    # connections
    "Connection", "TorsionBundle", "CARTAN",
    "torsions", "cov_deriv", "contract_value_slot",
    "curvature_h", "curvature_mixed", "curvature_v", "ricci",
    # the six-parameter family
    "DeformationParams", "DeformationData", "build", "deformation_data",
    "construction_residuals", "torsion_relations", "curvature_relations",
    # processes and the classical square
    "ConnectionFamily", "derive_family", "p1_process", "c_process",
    "berwald_coefficients", "diagram_residuals",
    "HASHIGUCHI", "CHERN_RUND", "BERWALD", "CLASSICAL",
    # case catalog
    "catalog", "check_case", "preset", "closed_form_delta", "CaseError",
    # verification
    "SamplePlan", "CheckRow", "CheckReport", "DEFAULT_TOLERANCES",
    "run_all", "sample_points", "theorem_residuals", "bianchi_residuals",
]
