"""numpy stays the only runtime dependency beside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "voxelpaint"


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign
