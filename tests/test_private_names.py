"""No src/acouz module reaches into another module's private names.

A name with a leading underscore belongs to the module that defines it.
Another module may neither import it (``from .multipliers import _helper``)
nor read it through an imported module (``ac._helper`` after
``from . import acoustic as ac``).  What two modules share is public, so
the reach check and the docstrings see it.  Dunders such as the package's
``__version__`` are not private.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "acouz")


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node):
    """True for a ``from`` import out of the acouz package."""
    return node.level > 0 or (node.module or "").split(".")[0] == "acouz"


def private_imports(source):
    """(line, text) of each private name of another acouz module that
    ``source`` imports or reads through an imported module."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"imports {alias.name}"))
                elif (node.module or "acouz") == "acouz":   # from . import acoustic
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "acouz":
                    if _private(alias.name.rsplit(".", 1)[-1]):
                        found.append((node.lineno, f"imports {alias.name}"))
                    if alias.asname:
                        modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f"reads {node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_imports_another_modules_private_names():
    found = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as f:
                hits = private_imports(f.read())
            if hits:
                found[fname] = hits
    assert found == {}


def test_the_check_sees_each_spelling():
    source = "\n".join([
        "from __future__ import annotations",
        "from . import __version__",
        "from . import acoustic as ac",
        "from .multipliers import TripleProductTensor, _real_if_exact",
        "from acouz.boundary import _fix_signs",
        "import acouz.harness as hn",
        "from acouz import shapes",
        "import numpy as np",
        "",
        "def f(x):",
        "    from .fgf import _raw_uniforms",
        "    return (ac._energy_reduction(x), hn._run_acoustic, ac.solve_pencil,",
        "            shapes._private, np._NoValue, x._private)",
    ])
    assert private_imports(source) == [
        (4, "imports _real_if_exact"), (5, "imports _fix_signs"),
        (11, "imports _raw_uniforms"), (12, "reads ac._energy_reduction"),
        (12, "reads hn._run_acoustic"), (13, "reads shapes._private")]
