import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import frictionlab


def _unused_imports(source: str) -> list:
    """(line, name) of each name that the module source imports and never
    reads; `from __future__` imports bind no name."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        unused += [(node.lineno, name) for name in names if name not in used]
    return unused


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs on the package, so this scan stands in for one;
    # __init__ imports names to export them
    for path in sorted(Path(frictionlab.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            assert _unused_imports(path.read_text()) == [], path.name


ROOT = Path(__file__).resolve().parent.parent


def _fl_attributes(path: Path) -> set:
    """Each name read as fl.<name> in the module at path, with frictionlab
    imported as fl."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "fl"}


def _tracer_modules() -> tuple:
    """The MODULES tuple of the benchmark's tracer."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (value,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["MODULES"]]
    return ast.literal_eval(value)


def test_every_exported_name_resolves():
    assert len(frictionlab.__all__) == len(set(frictionlab.__all__))
    for name in frictionlab.__all__:
        assert getattr(frictionlab, name) is not None, name


def test_the_exported_names_are_those_the_benchmark_and_readme_read():
    # the benchmark's workloads read fl.<name>, and the README's minimal
    # run imports names from the package itself: __all__ holds those and
    # nothing more
    used = _fl_attributes(ROOT / "perfbench" / "workloads.py")
    assert used, "no fl.<name> found in perfbench/workloads.py"
    readme = re.findall(r"^from frictionlab import (.+)$",
                        (ROOT / "README.md").read_text(), flags=re.M)
    assert readme, "no package import found in README.md"
    used |= {name.strip() for line in readme for name in line.split(",")}
    assert used == set(frictionlab.__all__), \
        used.symmetric_difference(frictionlab.__all__)


def test_importing_the_package_imports_every_traced_module():
    # the tracer reads sys.modules["frictionlab.<layer>"]; a fresh
    # interpreter, since this one has imported the modules by now
    modules = _tracer_modules()
    assert "ksmap" in modules
    code = ("import sys, frictionlab; print(' '.join(sorted(m for m in "
            "sys.modules if m.startswith('frictionlab.'))))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert {f"frictionlab.{m}" for m in modules} <= set(out)


# public names that no caller in the program references, each kept on
# purpose: the benchmark's tracer names ksmap in MODULES until the next
# benchmark change, and the tests take their reference derivative from
# spectral.deriv
UNCALLED_ON_PURPOSE = {
    "ksmap.ks_map_torus": "perfbench/tracing.py's MODULES names its module",
    "spectral.deriv": "the tests' reference spectral derivative",
}


def _is_click_command(node: ast.FunctionDef) -> bool:
    """Whether a decorator registers the function (`@main.command(...)`)."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def _public_entry_points(module: str, tree: ast.Module) -> list:
    """(name, key) of each public module-level function, as
    module.function, and of each public method of a public class, as
    module.Class.method; click commands left out."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") \
                and not _is_click_command(node):
            out.append((node.name, f"{module}.{node.name}"))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [(m.name, f"{module}.{node.name}.{m.name}")
                    for m in node.body if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_")]
    return out


def test_every_public_entry_point_has_a_caller_in_the_program():
    # callers in the package and the benchmark count, tests do not.  A
    # function counts as referenced by its bare name in its own module, an
    # import of it from its module, or an attribute <module>.<name>; a
    # method by any attribute of its name (its receiver's type is unknown)
    package = Path(frictionlab.__file__).parent
    trees = {path: ast.parse(path.read_text())
             for path in [*sorted(package.glob("*.py")),
                          *sorted((ROOT / "perfbench").glob("*.py"))]}
    functions, attributes = set(), set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    functions.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                functions |= {f"{source}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Name) and path.parent == package:
                functions.add(f"{path.stem}.{node.id}")
    uncalled = []
    for path in sorted(package.glob("*.py")):
        for name, key in _public_entry_points(path.stem, trees[path]):
            method = key.count(".") == 2
            if not (name in attributes if method else key in functions):
                uncalled.append(key)
    assert sorted(uncalled) == sorted(UNCALLED_ON_PURPOSE), uncalled
