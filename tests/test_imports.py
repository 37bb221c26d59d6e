"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import classprod


def test_the_package_imports_only_the_standard_library():
    # Every absolute import, at module level or inside a function, is
    # collected as (file, top-level name); relative ones stay in the package.
    seen = set()
    for path in sorted(Path(classprod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            seen.update((path.name, name.split(".")[0]) for name in names)
    # the job map's imports, made inside the function
    assert {("verify.py", m) for m in ("pickle", "select", "signal")} <= seen
    assert [(f, m) for f, m in sorted(seen)
            if m not in sys.stdlib_module_names] == []
