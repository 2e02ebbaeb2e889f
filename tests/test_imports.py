"""bellcat loads its submodules on first use.

`import bellcat` imports no submodule, and the closed-form reads (a state,
the full provider, correlation, a CHSH check and a postselected joint)
load neither the searches, the sampler and its generator, nor json,
numpy, dataclasses or inspect.  Without site (python -S) they load
neither typing, re nor enum: annotations stay strings, so the package
imports no typing names.  `import bellcat.cli` and its parser do not load
dataclasses either (numpy, once loaded, imports inspect itself).  Checked
in fresh interpreters, since this one has loaded them all.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellcat

# Exits non-zero, naming what loaded, when a guarded module is in sys.modules.
IMPORT_GUARD = """\
import sys
import bellcat
getattr(bellcat, "__wrapped__", None)  # a dunder probe imports nothing
loaded = sorted(m for m in sys.modules if m.startswith("bellcat."))
assert loaded == [], f"import bellcat loaded {loaded}"
state = bellcat.CatState(bellcat.SpinQuantum(3), bellcat.CatCoefficients(0.3, 0.1, 0.2))
a, b = bellcat.Direction(0.3, 0.2), bellcat.Direction(1.2, 0.1)
bellcat.correlation(state, a, b, "postselected")
bellcat.check(bellcat.full_provider(state), "chsh", a, b, bellcat.Direction(2.0, 4.0), a)
bellcat.full_provider(state, "postselected").joint(a, b, +1, -1)
guarded = ("bellcat.optimize", "bellcat.sampling", "bellcat.rng", "json", "numpy",
           "dataclasses", "inspect")
loaded = [m for m in guarded if m in sys.modules]
assert loaded == [], f"closed-form reads loaded {loaded}"
"""

# Appended to IMPORT_GUARD under python -S: site can load typing itself,
# through a .pth file.
NO_SITE_GUARD = IMPORT_GUARD + """\
loaded = [m for m in ("typing", "re", "enum") if m in sys.modules]
assert loaded == [], f"closed-form reads without site loaded {loaded}"
"""

CLI_GUARD = """\
import sys
import bellcat.cli
bellcat.cli.build_parser()
assert "dataclasses" not in sys.modules, "the command line loaded dataclasses"
"""


def run_guard(guard: str, *flags: str, env=None) -> None:
    proc = subprocess.run([sys.executable, *flags, "-c", guard], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_closed_form_reads_load_only_what_they_use():
    run_guard(IMPORT_GUARD)


def test_closed_form_reads_load_no_typing_without_site():
    # -S skips site, and with it an editable install's .pth, so the source
    # directory goes on the path explicitly
    src = Path(bellcat.__file__).resolve().parent.parent
    run_guard(NO_SITE_GUARD, "-S", env={**os.environ, "PYTHONPATH": str(src)})


def test_command_line_does_not_load_dataclasses():
    run_guard(CLI_GUARD)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bellcat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(bellcat.__all__)


def test_top_level_names_are_the_submodules_objects():
    for module in (bellcat.spins, bellcat.states, bellcat.correlations, bellcat.inequalities,
                   bellcat.optimize, bellcat.sampling):
        for name in module.__all__:
            assert getattr(bellcat, name) is getattr(module, name), name


@pytest.mark.parametrize("name", ["no_such_name", "__wrapped__"])
def test_unknown_name_is_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(bellcat, name)


def test_dir_lists_the_exports_and_submodules():
    listed = set(dir(bellcat))
    assert set(bellcat.__all__) <= listed
    assert {"spins", "states", "correlations", "inequalities", "optimize", "sampling"} <= listed
