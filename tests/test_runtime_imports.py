"""The package runs on the standard library and numpy alone; scipy and
hypothesis are test-only dependencies."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "beliefproj"
RUNTIME = {"numpy", "beliefproj"}


def test_the_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(SOURCE.glob("*.py"))
    assert len(sources) >= 10
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} imports {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | RUNTIME]
    assert not foreign, "\n".join(foreign)
