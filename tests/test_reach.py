"""Every function, method and class in src/acouz is reached, or allowlisted.

A definition is reached when its name is referenced from module-level code
(outside `if __name__ == "__main__":`), from the body of a reached
definition, or it is a dunder of a reached class.  References are matched by
bare name, so the check can only over-approximate what runs: a name it
flags is referenced nowhere that runs.  Such a name is deleted, moved to
tests/ as an oracle, or listed below with the reason it stays.

A name moved to tests/ lives in one place: no function or class is defined
both at the top level of a src/acouz module and of a test helper module
(a tests/ module other than the test_* ones), so moving a name back into
the package cannot leave a second copy behind.
"""

import ast
import os

TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, os.pardir, "src", "acouz")

ENTRY_POINT = "cli.main"
# qualified name -> why it stays although no program path references it;
# an allowlisted class covers its methods
ALLOWLIST = {
    ENTRY_POINT: "the `acouz` console script (pyproject [project.scripts])",
    "acoustic._energy_reduction": "dense reference for verify_mdissipativity in "
                                  "the tests; perfbench/tracing.py wraps it by name",
    "boundary.BoundarySpectrum.dump_npz": "perfbench/tracing.py wraps it by name",
    "boundary.BoundarySpectrum.load_npz": "perfbench/tracing.py wraps it by name",
    "boundary.BoundaryGeometry.save_json": "writes the JSON that a `file` "
                                           "geometry reads",
    "acoustic.DomainMesh.save_json": "writes the JSON that a `file` mesh reads",
}


def _is_main_guard(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and node.test.left.id == "__name__")


def _names(nodes):
    """Every bare name and attribute name referenced in ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions():
    """(qualname -> referenced names, bare name -> qualnames, module-level
    references, class qualname -> its dunder qualnames)."""
    refs, by_name, roots, dunders = {}, {}, set(), {}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        with open(os.path.join(SRC, fname)) as f:
            tree = ast.parse(f.read())
        for node in tree.body:
            if not isinstance(node, defs):
                if not _is_main_guard(node):
                    roots |= _names([node])
                continue
            qual = f"{module}.{node.name}"
            by_name.setdefault(node.name, set()).add(qual)
            if not isinstance(node, ast.ClassDef):
                refs[qual] = _names([node])
                continue
            body = [n for n in node.body if not isinstance(n, defs)]
            refs[qual] = _names(body + node.decorator_list + node.bases)
            dunders[qual] = set()
            for meth in node.body:
                if isinstance(meth, defs):
                    mqual = f"{qual}.{meth.name}"
                    refs[mqual] = _names([meth])
                    by_name.setdefault(meth.name, set()).add(mqual)
                    if meth.name.startswith("__") and meth.name.endswith("__"):
                        dunders[qual].add(mqual)
    return refs, by_name, roots, dunders


def _reached(refs, by_name, roots, dunders, start):
    todo = list(start) + [q for n in roots for q in by_name.get(n, ())]
    seen = set()
    while todo:
        qual = todo.pop()
        if qual in seen:
            continue
        seen.add(qual)
        todo.extend(dunders.get(qual, ()))
        for name in refs[qual]:
            todo.extend(by_name.get(name, ()))
    return seen


def _expand(refs, quals):
    """The allowlisted names with the methods of allowlisted classes."""
    return {q for q in refs if q in quals or q.rsplit(".", 1)[0] in quals}


def test_every_definition_is_reached_or_allowlisted():
    refs, by_name, roots, dunders = _definitions()
    reached = _reached(refs, by_name, roots, dunders, _expand(refs, ALLOWLIST))
    assert sorted(set(refs) - reached) == []


def test_allowlist_entries_exist_and_are_otherwise_unreached():
    refs, by_name, roots, dunders = _definitions()
    assert sorted(set(ALLOWLIST) - set(refs)) == []
    program = _reached(refs, by_name, roots, dunders, {ENTRY_POINT})
    assert sorted((set(ALLOWLIST) & program) - {ENTRY_POINT}) == []


def _top_level_definitions(directory, keep):
    """module -> names of the functions and classes defined at the top level
    of each ``.py`` module in ``directory`` whose file name ``keep`` accepts."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = {}
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".py") and keep(fname):
            with open(os.path.join(directory, fname)) as f:
                tree = ast.parse(f.read())
            out[fname[:-3]] = {n.name for n in tree.body if isinstance(n, defs)}
    return out


def test_no_name_defined_in_both_the_package_and_a_test_helper():
    package = set().union(*_top_level_definitions(SRC, lambda f: True).values())
    helpers = _top_level_definitions(TESTS, lambda f: not f.startswith("test_"))
    assert sorted(f"{module}.{name}" for module, names in helpers.items()
                  for name in names & package) == []
