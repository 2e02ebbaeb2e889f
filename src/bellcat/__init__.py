"""Bell-type inequality laboratory for bipartite spin-s cat states.

The package studies the entangled superposition of two back-to-back
product configurations of two spin-s particles: its measurement
correlations under extremal-outcome postselection, the local/non-local
split of those correlations, four Bell-type inequalities evaluated against
exact or Monte Carlo correlation sources, and derivative-free searches for
maximally violating measurement angles.  The physics headline is a parity
effect: for integer s the non-local part cancels identically and no
inequality is ever violated, while half-integer s violates up to the
Tsirelson bound, the difference being a (-1)^(2s) geometric phase.
"""

from .correlations import (
    CorrelationBreakdown,
    DegeneratePostselectionError,
    DiagonalElements,
    InternalConsistencyError,
    correlation,
    lc_correlation_closed,
    nlc_correlation_closed,
    outcome_basis,
    rho_elements_closed,
    rho_elements_oracle,
    unrestricted_correlation,
    wigner_joint,
)
from .inequalities import (
    INEQUALITIES,
    CorrelationProvider,
    InequalityReport,
    bell_check,
    check,
    chsh_check,
    full_provider,
    lc_provider,
    quadratic_check,
    sampled_provider,
    wigner_check,
)
from .optimize import (
    AngleConfig,
    GridTooLargeError,
    OptimizationResult,
    grid_sweep,
    multistart_refine,
    objective_value,
    refine,
)
from .sampling import (
    CATEGORIES,
    NegativeProbabilityError,
    PhotonEmulation,
    SampleStats,
    UnsupportedScenarioError,
    ZeroConclusiveError,
    outcome_probabilities,
    photon_emulation,
    sample_outcomes,
)
from .spins import (
    DegenerateTriangleError,
    DickeKet,
    Direction,
    SpinMatrices,
    SpinMismatchError,
    SpinMoments,
    SpinQuantum,
    berry_area,
    coherent_state,
    coherent_state_by_rotation,
    extreme_state,
    inner,
    overlap_plus,
    spin_matrices,
    spin_moments,
)
from .states import (
    CatCoefficients,
    CatState,
    DensityDyads,
    ProductKet,
    density_dyads,
    full_matrix,
    singlet,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spins
    "SpinQuantum", "Direction", "DickeKet", "SpinMatrices", "SpinMoments",
    "SpinMismatchError", "DegenerateTriangleError", "coherent_state",
    "coherent_state_by_rotation", "extreme_state", "spin_matrices", "inner",
    "overlap_plus", "berry_area", "spin_moments",
    # states
    "CatCoefficients", "CatState", "ProductKet", "DensityDyads", "singlet",
    "density_dyads", "full_matrix",
    # correlations
    "CorrelationBreakdown", "DiagonalElements", "DegeneratePostselectionError",
    "InternalConsistencyError", "outcome_basis", "rho_elements_oracle",
    "rho_elements_closed", "correlation", "lc_correlation_closed",
    "nlc_correlation_closed", "wigner_joint", "unrestricted_correlation",
    # inequalities
    "CorrelationProvider", "InequalityReport", "lc_provider", "full_provider",
    "sampled_provider", "bell_check", "chsh_check", "wigner_check",
    "quadratic_check", "check", "INEQUALITIES",
    # optimize
    "AngleConfig", "OptimizationResult", "GridTooLargeError", "objective_value",
    "grid_sweep", "refine", "multistart_refine",
    # sampling
    "CATEGORIES", "SampleStats", "PhotonEmulation", "NegativeProbabilityError",
    "ZeroConclusiveError", "UnsupportedScenarioError", "outcome_probabilities",
    "sample_outcomes", "photon_emulation",
]
