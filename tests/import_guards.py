"""Programs that check what bellcat loads, each run in a fresh interpreter.

Each guard is the source of a short program that exits non-zero, naming
what loaded, when a guarded module is in sys.modules.  The guards must
run in fresh interpreters, since any one that has imported the tests has
loaded every module.  tests/test_imports.py runs each one; this file runs
them all without pytest, with the package installed or on the path:

    PYTHONPATH=src python tests/import_guards.py

It exits 1 after printing the error of each guard that failed.
"""

import os
import subprocess
import sys
from pathlib import Path

# import bellcat loads no submodule, and the closed-form reads (a state, the
# full provider, correlation, a CHSH check and a postselected joint) load
# neither the searches, the sampler and its generator, nor json, numpy,
# dataclasses or inspect.
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
# through a .pth file.  Annotations stay strings, so the package imports
# no typing names.
NO_SITE_GUARD = IMPORT_GUARD + """\
loaded = [m for m in ("typing", "re", "enum") if m in sys.modules]
assert loaded == [], f"closed-form reads without site loaded {loaded}"
"""

# import bellcat.cli and its parser load no library module, no numpy and no
# dataclasses (numpy, once loaded, imports inspect itself).
CLI_GUARD = """\
import sys
import bellcat.cli
bellcat.cli.build_parser()
loaded = sorted(m for m in sys.modules if m.startswith("bellcat."))
assert loaded == ["bellcat.cli"], f"the command line's parser loaded {loaded}"
loaded = [m for m in ("numpy", "dataclasses") if m in sys.modules]
assert loaded == [], f"the command line's parser loaded {loaded}"
"""

# version, --help and the exit-2 errors load no library module, and correlate
# and check on the lc and full providers load neither the searches, the
# sampler nor its generator.  Each command runs in turn in one interpreter,
# so every check covers the commands before it too.
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

# coherent loads spins and nothing else of the library.
COHERENT_GUARD = """\
import contextlib, io, sys
from bellcat.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["coherent", "--two-s", "3", "--dir", "90,45", "--degrees", "--sign", "-"])
assert code == 0, f"coherent exited {code}"
loaded = sorted(m for m in sys.modules if m.startswith("bellcat."))
assert loaded == ["bellcat.cli", "bellcat.spins"], f"coherent loaded {loaded}"
"""

# Building sampled providers, as the benchmark's sampled_bell_test setup
# does, loads no search.
SAMPLED_PROVIDER_GUARD = """\
import sys
import bellcat
for two_s in (1, 2, 3):
    c = bellcat.CatCoefficients(0.2, 0.1, 0.2)
    s = bellcat.CatState(bellcat.SpinQuantum(two_s), c)
    p = bellcat.sampled_provider(s, 1000, 7)
assert "bellcat.optimize" not in sys.modules, "building sampled providers loaded bellcat.optimize"
"""

# The sampler, imported and drawn from directly, loads neither the searches
# nor the inequalities.
SAMPLER_GUARD = """\
import sys
from bellcat.sampling import sample_outcomes
from bellcat.spins import Direction, SpinQuantum
from bellcat.states import CatCoefficients, CatState
state = CatState(SpinQuantum(2), CatCoefficients(0.2, 0.1, 0.2))
stats = sample_outcomes(state, Direction(0.3, 0.2), Direction(1.2, 0.1), 1000, 7)
assert stats.n_total == 1000
loaded = [m for m in ("bellcat.optimize", "bellcat.inequalities") if m in sys.modules]
assert loaded == [], f"a sample_outcomes draw loaded {loaded}"
"""


def run_guard(guard: str, *flags: str) -> subprocess.CompletedProcess:
    """Run one guard in a fresh interpreter with the given flags.  Under -S,
    which skips site and with it an editable install's .pth, the source
    directory goes on the path explicitly."""
    env = None
    if "-S" in flags:
        import bellcat

        env = {**os.environ, "PYTHONPATH": str(Path(bellcat.__file__).resolve().parent.parent)}
    return subprocess.run([sys.executable, *flags, "-c", guard], capture_output=True,
                          text=True, env=env)


# Each guard with the interpreter flags it runs under.
GUARDS = {
    "IMPORT_GUARD": (IMPORT_GUARD, ()),
    "NO_SITE_GUARD": (NO_SITE_GUARD, ("-S",)),
    "CLI_GUARD": (CLI_GUARD, ()),
    "COMMANDS_GUARD": (COMMANDS_GUARD, ()),
    "COHERENT_GUARD": (COHERENT_GUARD, ()),
    "SAMPLED_PROVIDER_GUARD": (SAMPLED_PROVIDER_GUARD, ()),
    "SAMPLER_GUARD": (SAMPLER_GUARD, ()),
}


def main() -> int:
    failed = 0
    for name, (guard, flags) in GUARDS.items():
        proc = run_guard(guard, *flags)
        print(f"{name}: {'ok' if proc.returncode == 0 else 'FAILED'}")
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
