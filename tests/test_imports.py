"""bellcat loads its submodules on first use.

`import bellcat` imports no submodule, and the closed-form reads (a state,
the full provider, correlation, a CHSH check and a postselected joint)
load neither the searches, the sampler and its generator, nor json,
numpy, dataclasses or inspect.  Without site (python -S) they load
neither typing, re nor enum: annotations stay strings, so the package
imports no typing names.  `import bellcat.cli` and its parser load no
library module, no numpy and no dataclasses (numpy, once loaded, imports
inspect itself); version, --help and the exit-2 errors load no library
module, and correlate and check on the lc and full providers load neither
the searches, the sampler nor its generator.  Checked in fresh
interpreters, since this one has loaded them all.
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
loaded = sorted(m for m in sys.modules if m.startswith("bellcat."))
assert loaded == ["bellcat.cli"], f"the command line's parser loaded {loaded}"
loaded = [m for m in ("numpy", "dataclasses") if m in sys.modules]
assert loaded == [], f"the command line's parser loaded {loaded}"
"""

# Each command runs in turn in one interpreter, so every check covers the
# commands before it too.
COMMANDS_GUARD = """\
import contextlib, io, sys, tempfile
from bellcat.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))

assert run("version") == 0
assert run("--help") == 0
assert run("correlate", "--two-s", "1", "--bogus") == 2
assert run("check", "--kind", "nope") == 2
with tempfile.TemporaryDirectory() as work:
    config = work + "/run.json"
    with open(config, "w") as fh:
        fh.write('{"state": {"spin": 1}}')
    assert run("correlate", "--config", config) == 2
    assert run("optimize", "--output", work + "/x.csv", "--format", "csv") == 2
loaded = sorted(m for m in sys.modules if m.startswith("bellcat."))
assert loaded == ["bellcat.cli"], f"version, --help and exit-2 errors loaded {loaded}"
assert run("correlate", "--two-s", "3", "--a", "0.3,0.2", "--b", "1.2,0.1",
           "--mode", "postselected") == 0
chsh = ("--kind", "chsh", "--two-s", "1", "--a", "0,0", "--b", "45,0", "--c", "45,180",
        "--d", "90,0", "--degrees")
assert run("check", *chsh, "--provider", "lc") == 0
assert run("check", *chsh) == 10
loaded = [m for m in ("bellcat.optimize", "bellcat.sampling", "bellcat.rng") if m in sys.modules]
assert loaded == [], f"correlate and check loaded {loaded}"
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


def test_short_commands_load_no_search_or_sampler():
    run_guard(COMMANDS_GUARD)


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
