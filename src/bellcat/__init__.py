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

Names load on first use: ``import bellcat`` imports no submodule, and the
first read of a name imports the modules up to the one that defines it,
so code that only evaluates the closed forms never loads the searches or
the sampler.
"""

from importlib import import_module as _import

__version__ = "0.1.0"

# The library modules whose __all__ the package exports: a name resolves from
# the first that lists it, after importing the ones before it.  sampling comes
# last, so reading a closed-form name never loads the sampler.
_MODULES = ("spins", "states", "correlations", "inequalities", "optimize", "sampling")


def __getattr__(name: str):
    """Resolve __all__, a submodule or a public name on first use (PEP 562)
    and bind it here, so later reads are plain attribute lookups."""
    if name == "__all__":
        value = ["__version__", *(n for m in _MODULES for n in _import(f"{__name__}.{m}").__all__)]
    elif name.startswith("__") and name.endswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        try:
            # the import system binds a submodule here itself
            return _import(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        for module_name in _MODULES:
            module = _import(f"{__name__}.{module_name}")
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__getattr__("__all__"), *_MODULES})
