"""Rules the package source keeps so that its floats stay bit-identical.

From Python 3.12 on, builtin sum() adds floats with compensated
summation, so a sum() in the package would change results with the
interpreter version.  Additions whose bits matter are written out in a
fixed order instead (see correlations._weight and optimize._nelder_mead's
centroid).

Each inequality is read in one place: inequalities.evaluator reads it at
one configuration for check and the searches, and optimize.grid_sweep
reads it on its broadcast pair table.  No other function in the package
touches an Inequality's kernel or sides.

numpy is imported only inside the functions that build or read arrays, so
importing the package, and the scalar closed forms, never load it.

dataclasses is never imported: it loads inspect (and with it ast, dis and
tokenize), about half of the closed-form path's start-up before they were
gone.  The package's value types derive from spins._Record instead.

typing is never imported either: every module postpones its annotations
(from __future__ import annotations), so names such as Callable and
Optional are only ever read as strings, and importing typing would cost
the closed-form path typing, re and enum for nothing.

The library modules form a plain layering: each imports only modules
before it in LAYERS, at module level or inside a function, so loading one
never loads a module above it.  A work limit sits in the module whose
check enforces it, and BudgetExceededError in spins, below every module
that raises it.
"""

import ast
from pathlib import Path

import pytest

import bellcat

SOURCES = sorted(Path(bellcat.__file__).resolve().parent.glob("*.py"))


def builtin_sum_uses(tree: ast.AST) -> list[int]:
    """Line numbers where the name sum is read: a call or a reference."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "sum"
            and isinstance(node.ctx, ast.Load)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_builtin_sum(path):
    assert builtin_sum_uses(ast.parse(path.read_text(), str(path))) == []


def test_the_rule_sees_calls_and_references():
    tree = ast.parse("a = sum(xs)\nb = map(sum, rows)\nc = xs.sum()\nd = np.sum(xs)\n")
    assert builtin_sum_uses(tree) == [1, 2]


def kernel_readers(tree: ast.Module) -> list[str]:
    """Top-level functions and classes that read an attribute named kernel or
    sides: a call such as spec.kernel(provider), or a reference."""
    return [top.name for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and any(isinstance(node, ast.Attribute) and node.attr in ("kernel", "sides")
                    and isinstance(node.ctx, ast.Load) for node in ast.walk(top))]


def test_only_the_evaluator_and_the_sweep_read_an_inequality():
    readers = {(path.name, name) for path in SOURCES
               for name in kernel_readers(ast.parse(path.read_text(), str(path)))}
    assert readers == {("inequalities.py", "evaluator"), ("optimize.py", "grid_sweep")}


def test_the_kernel_rule_sees_calls_and_references():
    tree = ast.parse("def f(s, p):\n    return s.kernel(p)\n"
                     "def g(s):\n    h = s.sides\n"
                     "class C:\n    def m(self, s):\n        s.sides(1)\n"
                     "def k(s):\n    s.sides = 1\n    return kernel(s)\n")
    assert kernel_readers(tree) == ["f", "g", "C"]


def is_numpy(module: str) -> bool:
    return module == "numpy" or module.startswith("numpy.")


def numpy_imports_on_import(tree: ast.AST) -> list[int]:
    """Line numbers of numpy imports that run when the module is imported:
    any outside a function body (module level, a class body, or under a
    module-level if, try or with)."""
    lines = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (isinstance(node, ast.Import) and any(is_numpy(a.name) for a in node.names)
                or isinstance(node, ast.ImportFrom) and not node.level
                and is_numpy(node.module or "")):
            lines.append(node.lineno)
        lines += numpy_imports_on_import(node)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numpy_is_imported_only_inside_functions(path):
    assert numpy_imports_on_import(ast.parse(path.read_text(), str(path))) == []


def test_the_numpy_rule_sees_imports_that_run_on_import():
    tree = ast.parse("import numpy as np\nfrom numpy import linalg\nimport os, numpy.linalg\n"
                     "class C:\n    import numpy\n"
                     "try:\n    import numpy\nexcept ImportError:\n    pass\n"
                     "def f():\n    import numpy as np\n"
                     "class D:\n    def m(self):\n        from numpy import sum\n"
                     "import numpyro\nfrom .numpy import x\n")
    assert numpy_imports_on_import(tree) == [1, 2, 3, 5, 7]


def imports_of(tree: ast.AST, module: str) -> list[int]:
    """Line numbers of every import of the top-level module, wherever it sits."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Import)
                  and any(a.name.partition(".")[0] == module for a in node.names)
                  or isinstance(node, ast.ImportFrom) and not node.level
                  and (node.module or "").partition(".")[0] == module)


def dataclasses_imports(tree: ast.AST) -> list[int]:
    """Line numbers of every dataclasses import, wherever it sits."""
    return imports_of(tree, "dataclasses")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_dataclasses_is_never_imported(path):
    assert dataclasses_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_dataclasses_rule_sees_every_import():
    tree = ast.parse("import dataclasses\nfrom dataclasses import dataclass\n"
                     "import os, dataclasses as dc\n"
                     "def f():\n    from dataclasses import asdict\n"
                     "class C:\n    def m(self):\n        import dataclasses\n"
                     "import dataclasses_json\nfrom .dataclasses import x\n"
                     "from dataclasses_json import y\n")
    assert dataclasses_imports(tree) == [1, 2, 3, 5, 8]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_typing_is_never_imported(path):
    assert imports_of(ast.parse(path.read_text(), str(path)), "typing") == []


def test_the_typing_rule_sees_every_import():
    tree = ast.parse("import typing\nfrom typing import Callable\n"
                     "import os, typing as t\n"
                     "def f():\n    from typing import Optional\n"
                     "class C:\n    def m(self):\n        import typing\n"
                     "import typing_extensions\nfrom .typing import x\n"
                     "from typing_extensions import y\n"
                     "if TYPE_CHECKING:\n    from typing import Sequence\n")
    assert imports_of(tree, "typing") == [1, 2, 3, 5, 8, 13]


# Every library module, each after the ones it imports.
LAYERS = ("spins", "states", "correlations", "rng", "sampling", "inequalities", "optimize", "cli")


def imported_modules(node: ast.AST) -> list[str]:
    """The bellcat submodules an import statement names: from . import m,
    from .m import x, import bellcat.m and from bellcat import m.  Names
    that are not submodules, such as __version__, come back as they are."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("bellcat.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    if not node.level:
        if module.partition(".")[0] != "bellcat":
            return []
        module = module.partition(".")[2]
    return [module.partition(".")[0]] if module else [a.name for a in node.names]


def upward_imports(tree: ast.AST, module: str) -> list[int]:
    """Line numbers where module imports a module after it in LAYERS,
    wherever the import sits."""
    later = LAYERS[LAYERS.index(module) + 1:]
    return sorted(node.lineno for node in ast.walk(tree)
                  if any(name in later for name in imported_modules(node)))


def test_the_layers_name_every_library_module():
    assert sorted(LAYERS) == sorted(p.stem for p in SOURCES if not p.stem.startswith("__"))


@pytest.mark.parametrize("module", LAYERS)
def test_modules_import_only_modules_below_them(module):
    path = SOURCES[0].parent / f"{module}.py"
    assert upward_imports(ast.parse(path.read_text(), str(path)), module) == []


def test_the_layering_rule_sees_every_import():
    tree = ast.parse("from . import rng, optimize\nfrom .optimize import x\n"
                     "from .spins import y\nimport bellcat.optimize\n"
                     "from bellcat import inequalities\nfrom bellcat.cli import main\n"
                     "from . import __version__, __getattr__\n"
                     "def f():\n    from . import optimize\n"
                     "class C:\n    def m(self):\n        import bellcat.optimize as o\n"
                     "from .sampling import z\nimport os, bellcat.rng\n"
                     "from .optimizer import q\nimport bellcat\nfrom optimize import w\n")
    assert upward_imports(tree, "sampling") == [1, 2, 4, 5, 6, 9, 12]
    assert upward_imports(ast.parse("from .cli import check\nfrom . import optimize\n"),
                          "cli") == []
