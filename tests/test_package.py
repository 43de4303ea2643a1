import ast
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
