"""Every module of the package uses each name it imports; only `__init__.py`
imports names to re-export them."""

import ast
import pathlib

import dualunitary

REEXPORTER = "__init__.py"


def _unused_imports(source):
    """'line: name' of each name an import binds that no other line reads."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name.split(".")[0], node.lineno)
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nx = np.zeros(1) * pi\n"
    assert _unused_imports(source) == ["1: os", "3: tau"]


def test_no_module_imports_a_name_it_never_uses():
    offenders = [f"{path.name}:{hit}"
                 for path in sorted(pathlib.Path(dualunitary.__file__).parent.glob("*.py"))
                 if path.name != REEXPORTER
                 for hit in _unused_imports(path.read_text())]
    assert offenders == []
