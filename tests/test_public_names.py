"""The library names that README and the benchmark scripts use must exist."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S)
    assert tour, "README has no Library tour code block"
    exec(compile(tour.group(1), "README.md (Library tour)", "exec"), {})


def _resolves(module: str, name: str) -> bool:
    return (hasattr(importlib.import_module(module), name)
            or importlib.util.find_spec(f"{module}.{name}") is not None)


def test_perfbench_names_resolve():
    """Every `from ivtskit... import x`, and every `m.x` where m is an imported
    ivtskit module (`iv`, `cli`, `dgp`), names something the package has."""
    missing, importers = [], set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> ivtskit module name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name) for a in node.names
                               if a.name.split(".")[0] == "ivtskit")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ivtskit"):
                for a in node.names:
                    if not _resolves(node.module, a.name):
                        missing.append(f"{path.name}:{node.lineno}: {node.module}.{a.name}")
                    elif importlib.util.find_spec(f"{node.module}.{a.name}") is not None:
                        modules[a.asname or a.name] = f"{node.module}.{a.name}"
        if modules:
            importers.add(path.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and not _resolves(modules[node.value.id], node.attr)):
                missing.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert not missing, missing
    assert {"run.py", "traced.py"} <= importers
