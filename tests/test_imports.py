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


def test_every_public_name_has_a_caller_outside_the_tests():
    # A public top-level def, class or assignment of a module must be
    # used somewhere in the package or the bench harness: a name that
    # only tests call is a test helper and belongs in tests/conftest.py.
    root = Path(__file__).resolve().parents[1]
    modules = sorted(p for p in (root / "src" / "classprod").glob("*.py")
                     if p.name != "__init__.py")
    trees = {p: ast.parse(p.read_text(), str(p))
             for p in modules + sorted((root / "bench").glob("*.py"))}
    defined = set()
    for path in modules:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((path.name, n) for n in names
                           if not n.startswith("_"))
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted((f, n) for f, n in defined if n not in used) == []


def test_only_the_cli_and_the_job_map_switch_the_collector():
    # Pausing, resuming or freezing the cyclic collector acts on the whole
    # process, so only the command line, which owns it, and the job map,
    # which freezes around its forks, may do so; a library caller keeps
    # its collector as it set it.
    switches = {"disable", "enable", "freeze", "unfreeze"}
    seen = set()
    for path in sorted(Path(classprod.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in switches
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "gc"):
                    seen.add((path.name, getattr(top, "name", None)))
                assert not (isinstance(node, ast.ImportFrom)
                            and node.module == "gc"), path.name
    assert {f for f, _ in seen} == {"cli.py", "verify.py"}
    assert {top for f, top in seen if f == "verify.py"} == {"_map_jobs"}
