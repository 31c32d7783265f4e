"""Layout guards: every module under ``src/repro`` has a caller outside
``tests/``, and importing the runtime pulls in no graph library.

A module that only its own tests import is code no experiment, example,
app or benchmark runs.  A *caller* is a file under ``src/``,
``examples/`` or ``benchmarks/``, other than the module itself, that
imports the module or one of its ``__all__`` names (from the module or
from a package above it); importing a module also calls the packages
above it.  A package ``__init__.py`` counts only when its own code uses
the name: importing it to list it in ``__all__`` is a re-export, not a
use.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "examples", "benchmarks")
#: What every workload imports.
STACK = ("repro.core", "repro.obs", "repro.sim.shard", "repro.workload")


def module_name(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def imports(tree: ast.Module, package: str):
    """Yield ``(module, name or None, local name)`` per imported alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.name, None,
                       alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[:len(package.split("."))
                                            - node.level + 1]
                base = ".".join(anchor + [base] if base else anchor)
            for alias in node.names:
                yield base, alias.name, alias.asname or alias.name


def uncalled_modules(root: pathlib.Path) -> list:
    src = root / "src"
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        name = module_name(path, src)
        if not name.endswith("__main__"):
            modules[name] = exported(ast.parse(path.read_text()))
    called = set()
    for folder in CALLER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            is_init = path.name == "__init__.py"
            own = module_name(path, src) if folder == "src" else None
            package = own if is_init else (own or "").rpartition(".")[0]
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for module, name, local in imports(tree, package):
                if is_init and local not in used:
                    continue  # a re-export, not a use
                hits = {module, f"{module}.{name}"}
                hits.update(m for m, names in modules.items()
                            if name in names
                            and m.startswith(module + "."))
                # Importing a module runs every package above it.
                for hit in hits - {own}:
                    parts = hit.split(".")
                    called.update(".".join(parts[:i])
                                  for i in range(1, len(parts) + 1))
    return sorted(set(modules) - called)


def test_every_module_has_a_caller_outside_tests():
    assert uncalled_modules(ROOT) == []


def test_the_stack_imports_no_graph_library(sentinel):
    """Import sentinel: a fresh interpreter imports the stack and nothing
    of networkx, which only the tests load, as their reference."""
    code = (
        "import importlib, json, resource, sys\n"
        f"for name in {STACK!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps([len(sys.modules),\n"
        "    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,\n"
        "    sorted(m for m in sys.modules\n"
        "           if m.split('.')[0] == 'networkx')]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    modules, rss_mb, graph_modules = json.loads(out.stdout)
    # CI runs this test with -s and greps the line into the summary.
    sentinel(f"import sentinel: {modules} modules, {rss_mb:.1f} MB")
    assert graph_modules == []
