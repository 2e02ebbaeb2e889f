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
the searches, the sampler nor its generator.  coherent loads spins alone,
building a sampled provider loads no search, and a sample_outcomes draw
loads neither the searches nor the inequalities.  Checked in fresh
interpreters, since this one has loaded them all; the guard programs live
in tests/import_guards.py, which also runs them without pytest.
"""

import pytest
from import_guards import (
    CLI_GUARD,
    COHERENT_GUARD,
    COMMANDS_GUARD,
    IMPORT_GUARD,
    NO_SITE_GUARD,
    SAMPLED_PROVIDER_GUARD,
    SAMPLER_GUARD,
    run_guard,
)

import bellcat


def assert_guard_passes(guard: str, *flags: str) -> None:
    proc = run_guard(guard, *flags)
    assert proc.returncode == 0, proc.stderr


def test_closed_form_reads_load_only_what_they_use():
    assert_guard_passes(IMPORT_GUARD)


def test_closed_form_reads_load_no_typing_without_site():
    assert_guard_passes(NO_SITE_GUARD, "-S")


def test_command_line_does_not_load_dataclasses():
    assert_guard_passes(CLI_GUARD)


def test_short_commands_load_no_search_or_sampler():
    assert_guard_passes(COMMANDS_GUARD)


def test_coherent_loads_spins_alone():
    assert_guard_passes(COHERENT_GUARD)


def test_building_sampled_providers_loads_no_search():
    assert_guard_passes(SAMPLED_PROVIDER_GUARD)


def test_sampler_loads_neither_searches_nor_inequalities():
    assert_guard_passes(SAMPLER_GUARD)


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
