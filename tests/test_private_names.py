import ast
from pathlib import Path

import proctomo

MODULES = sorted(Path(proctomo.__file__).parent.glob("*.py"))


def test_no_module_imports_a_private_name_from_a_sibling():
    # A name with a leading underscore is a module's own decision; a sibling that needs it
    # belongs in the same module.
    found = [
        f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("proctomo"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert len(MODULES) > 1 and found == []
