"""The Haar engine's thread pool is the package's one parallel mechanism."""

import ast
import pathlib

import dualunitary

# what starts or pickles work for other processes
BANNED_MODULES = ("multiprocessing", "concurrent.futures.process")
BANNED_NAMES = {"ProcessPoolExecutor"}


def _banned_module(name):
    return any(name == m or name.startswith(m + ".") for m in BANNED_MODULES)


def _offences(node):
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if _banned_module(a.name)]
    if isinstance(node, ast.ImportFrom):
        if _banned_module(node.module or ""):
            return [node.module]
        return [a.name for a in node.names if a.name in BANNED_NAMES]
    if isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES:
        return [node.attr]
    return []


def test_no_module_starts_a_process_pool():
    offenders = []
    for path in sorted(pathlib.Path(dualunitary.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}: {name}" for node in ast.walk(tree)
                      for name in _offences(node)]
    assert offenders == []
