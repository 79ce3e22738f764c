"""The package refuses input with one exception type, ValidationError."""

import ast
import pathlib

import dualunitary
from dualunitary import ValidationError


def test_no_module_raises_a_bare_value_error():
    # a bare ValueError would reach the CLI as an internal fault (exit 1)
    # instead of a refused input (exit 3)
    assert issubclass(ValidationError, ValueError)
    offenders = []
    for path in sorted(pathlib.Path(dualunitary.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
