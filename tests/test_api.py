"""Every function, class and method the package defines is used: referenced
by the package's own code or named in the README.  Code that only tests
reach belongs with the tests.  The command line imports nothing beyond
numpy and the standard library, and gives each package error its own
``except`` clause."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bxsim").glob("*.py"))


def definitions(tree: ast.Module) -> list[str]:
    """Module-level functions and classes, and the methods of those classes;
    dunder methods are called by Python itself."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")]
    return names


def references(tree: ast.Module) -> set[str]:
    """Every name, attribute and imported name the code of ``tree`` reads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def readme_code() -> str:
    """The README's fenced code blocks and inline code spans."""
    text = (ROOT / "README.md").read_text()
    return "\n".join(re.findall(r"```.*?```|`[^`\n]+`", text, re.S))


def test_every_definition_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert {"adapt.py", "cli.py", "equilibrium.py", "model.py", "simulate.py"} <= set(trees)
    used = set().union(*map(references, trees.values()))
    documented = readme_code()
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in definitions(tree)
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", documented)
    ]
    assert unused == []


def test_one_except_clause_per_package_error():
    # one class per way a run fails, so each maps to one exit code
    errors: list[str] = []
    for node in ast.parse((ROOT / "src" / "bxsim" / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id in {"Exception", *errors} for b in node.bases):
            errors.append(node.name)
    main = next(n for n in ast.parse((ROOT / "src" / "bxsim" / "cli.py").read_text()).body if getattr(n, "name", "") == "main")
    outer = next(n for n in main.body if isinstance(n, ast.Try))
    clauses = []
    for handler in outer.handlers:
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        clauses.append([name for name in (getattr(c, "id", None) or getattr(c, "attr", None) for c in caught) if name in errors])
    assert all(len(names) <= 1 for names in clauses), clauses
    assert sorted(name for names in clauses for name in names) == sorted(set(errors) - {"BxsimError"})


def test_cli_imports_only_numpy_beyond_the_standard_library():
    # every import recompiles where no bytecode is written, and comes before any work
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bxsim.cli\n"
        "print(sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    extra = set(ast.literal_eval(out)) - {"bxsim", "numpy"} - sys.stdlib_module_names
    assert extra == set()
