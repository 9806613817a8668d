"""One import path per name: the package re-exports nothing, and every
importer names the module that defines what it imports."""

import ast
import subprocess
import sys
from pathlib import Path

import pmlog

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(pmlog.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
IMPORTERS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("tools/*.py")])


def defined_names(module: str) -> set[str]:
    """The names a def, class or assignment binds at the top level of the module."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def pmlog_imports(path: Path):
    """Each `from pmlog[.m] import name` in the file, as (line, module, name)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "pmlog" or (node.module or "").startswith("pmlog."):
                for alias in node.names:
                    yield node.lineno, node.module, alias.name


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import pmlog; print(*sorted(set(sys.modules) - before))"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", code, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.split() == ["pmlog"]


def test_every_import_names_the_defining_module():
    defined = {module: defined_names(module) for module in MODULES}
    wrong = []
    for path in IMPORTERS:
        for line, module, name in pmlog_imports(path):
            if module == "pmlog":
                ok = name in MODULES
            else:
                ok = name in defined.get(module[len("pmlog.") :], ())
            if not ok:
                wrong.append(f"{path.relative_to(ROOT)}:{line}: from {module} import {name}")
    assert wrong == []

