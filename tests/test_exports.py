"""The package's public names resolve, and so do the benchmark tracer's.

Every name a module lists in __all__ must exist, and bellcat.__all__ is
the lists of the six library modules it re-exports, which together spell
the package surface written out below.  The benchmark's
tracer (bellbench/tracer.py) patches module bindings by name and fails
on a missing one, so its tables are checked here too, without editing or
running it.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import bellcat

TRACER = Path(__file__).resolve().parent.parent / "bellbench" / "tracer.py"

# __main__ runs the command line on import.
SUBMODULES = [importlib.import_module(f"bellcat.{info.name}")
              for info in pkgutil.iter_modules(bellcat.__path__) if info.name != "__main__"]


@pytest.mark.parametrize("module", [bellcat, *SUBMODULES], ids=lambda m: m.__name__)
def test_every_export_is_defined(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_top_level_names_come_from_submodules():
    exported = {name for module in SUBMODULES for name in module.__all__}
    stray = [name for name in bellcat.__all__ if name != "__version__" and name not in exported]
    assert stray == []
    assert len(set(bellcat.__all__)) == len(bellcat.__all__)


# The package surface, written out so that a change to any module's
# __all__ that widens or narrows it fails here.
PACKAGE_NAMES = {
    "__version__",
    # spins
    "SpinQuantum", "Direction", "DickeKet", "SpinMatrices", "DegenerateTriangleError",
    "coherent_state", "spin_matrices", "overlap_plus", "berry_area",
    # states
    "CatCoefficients", "CatState", "singlet",
    # correlations
    "CorrelationBreakdown", "DiagonalElements", "DegeneratePostselectionError",
    "InternalConsistencyError", "rho_elements_closed", "correlation",
    "lc_correlation_closed", "wigner_joint", "unrestricted_correlation",
    # inequalities
    "CorrelationProvider", "InequalityReport", "lc_provider", "full_provider",
    "sampled_provider", "check", "INEQUALITIES",
    # optimize
    "AngleConfig", "OptimizationResult", "GridTooLargeError", "BudgetExceededError",
    "objective_value", "grid_sweep", "refine", "multistart_refine",
    # sampling
    "CATEGORIES", "SampleStats", "PhotonEmulation", "NegativeProbabilityError",
    "ZeroConclusiveError", "UnsupportedScenarioError", "outcome_probabilities",
    "sample_outcomes", "photon_emulation",
}


def test_package_exports_are_the_modules_exports():
    modules = [bellcat.spins, bellcat.states, bellcat.correlations, bellcat.inequalities,
               bellcat.optimize, bellcat.sampling]
    assert bellcat.__all__ == ["__version__", *(name for m in modules for name in m.__all__)]
    assert set(bellcat.__all__) == PACKAGE_NAMES


def test_tracer_bindings_exist():
    if not TRACER.is_file():
        pytest.skip("bellbench/ is absent")
    spec = importlib.util.spec_from_file_location("bellbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _name, module, attr, bindings in tracer.TRACED:
        for binding in (module, *bindings):
            if not hasattr(importlib.import_module(binding), attr):
                missing.append(f"{binding}.{attr}")
    for factory in tracer.PROVIDER_FACTORIES:
        for binding in ("bellcat.inequalities", "bellcat.cli"):
            if not hasattr(importlib.import_module(binding), factory):
                missing.append(f"{binding}.{factory}")
    assert missing == []
