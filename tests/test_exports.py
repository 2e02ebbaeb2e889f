"""The package's public names resolve, and so do the benchmark tracer's.

Every name a module lists in __all__ must exist, and every top-level
bellcat name must come from some submodule's __all__.  The benchmark's
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
