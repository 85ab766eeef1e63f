"""Nonparametric tests for network effects in weighted directed networks.

The four effects are pairwise edge covariances: reciprocity
Cov(e[i,j], e[j,i]), same-sender Cov(e[i,j], e[i,k]), same-receiver
Cov(e[i,j], e[k,j]), and sender-receiver Cov(e[i,j], e[j,k]).  The
package estimates each one, diagnoses whether its estimator is
degenerate, and tests it against zero on the appropriate branch
(studentized complete estimator, or subsampled 4-tuple kernel).
"""

from .api import LocalNetworkEffects, NetworkEffectTest
from .errors import (
    DuplicateEdgeError,
    InvalidSpecError,
    NetworkEffectsError,
    NonFiniteStatisticError,
    NonFiniteWeightError,
    SelfLoopError,
    TooFewNodesError,
    UnsupportedEffectError,
    ZeroVarianceError,
)
from .estimators import (
    EffectEstimate,
    QuadrupleSample,
    ReducedMoment,
    complete_estimate,
    mean_edge,
    projection_variance,
    reduced_estimate,
    sample_quadruples,
)
from .inference import (
    DegeneracyDiagnosis,
    LocalEffects,
    TestReport,
    diagnose_degeneracy,
    local_effects,
    test_effect,
)
from .network import (
    DirectedWeightedNetwork,
    EffectKind,
    NodeSummaries,
    as_network,
    from_edge_list,
    read_edge_list,
    row_col_summaries,
)
from .simulation import MonteCarloSummary, SimulationSpec, generate, monte_carlo

__version__ = "0.1.0"

__all__ = [
    "DirectedWeightedNetwork",
    "EffectKind",
    "NodeSummaries",
    "from_edge_list",
    "read_edge_list",
    "row_col_summaries",
    "EffectEstimate",
    "ReducedMoment",
    "QuadrupleSample",
    "mean_edge",
    "complete_estimate",
    "sample_quadruples",
    "reduced_estimate",
    "projection_variance",
    "DegeneracyDiagnosis",
    "TestReport",
    "LocalEffects",
    "diagnose_degeneracy",
    "test_effect",
    "local_effects",
    "SimulationSpec",
    "MonteCarloSummary",
    "generate",
    "monte_carlo",
    "NetworkEffectTest",
    "LocalNetworkEffects",
    "as_network",
    "NetworkEffectsError",
    "DuplicateEdgeError",
    "SelfLoopError",
    "NonFiniteWeightError",
    "TooFewNodesError",
    "UnsupportedEffectError",
    "ZeroVarianceError",
    "NonFiniteStatisticError",
    "InvalidSpecError",
    "__version__",
]
