"""The public names: the ones README and the benchmark scripts use exist, and
`import ivtskit` loads each on first use, without numpy."""

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ivtskit as iv

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


def _fresh(code: str) -> str:
    """The stdout of `code` run in a new interpreter."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_loads_no_numpy():
    """`import ivtskit` loads its names on first use; the first one loads numpy."""
    assert _fresh(
        "import sys, ivtskit as iv\n"
        "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('ivtskit')))\n"
        "iv.train\n"
        "print('numpy' in sys.modules, iv.train is sys.modules['ivtskit.classify'].train)\n"
        "print(iv.theory is sys.modules['ivtskit.theory'])\n"
    ).splitlines() == ["False ['ivtskit']", "True True", "True"]


def test_every_name_is_its_module_attribute():
    for module, names in iv._NAMES.items():
        owner = importlib.import_module(f"ivtskit.{module}")
        for name in names:
            assert name in vars(owner), f"ivtskit.{module} does not define {name}"
            assert getattr(iv, name) is getattr(owner, name), name
    assert iv.train is iv.classify.train
    assert len(iv.__all__) == len(set(iv.__all__))


def test_no_two_names_are_one_object():
    """Each public name is its own object: an alias is a second name to keep."""
    names_of = {}
    for name in iv.__all__:
        names_of.setdefault(id(getattr(iv, name)), []).append(name)
    assert [names for names in names_of.values() if len(names) > 1] == []


def test_dir_and_star_import_list_every_name():
    assert set(iv.__all__) <= set(dir(iv))
    scope = {}
    exec("from ivtskit import *", scope)
    assert {name: scope[name] for name in iv.__all__} == {
        name: getattr(iv, name) for name in iv.__all__}


def test_unknown_name_raises_attribute_error():
    for name in ("no_such_name", "__no_such_dunder__", "_NO_SUCH"):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(iv, name)
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from ivtskit import no_such_name", {})


def test_no_object_built_through_new():
    """Every object is built by its constructor, which runs its checks; none
    through `__new__`, which skips them."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "ivtskit").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert not found, found
