"""The Haar engine's threads are the package's one parallel mechanism."""

import ast
import pathlib

import dualunitary

# what starts or pickles work for other processes
BANNED_MODULES = ("multiprocessing", "concurrent.futures.process")
BANNED_NAMES = {"ProcessPoolExecutor"}
# what starts threads: only the Haar engine may import it
THREAD_MODULES = ("threading", "concurrent.futures")
THREAD_MODULE_HOME = "haar_mc.py"


def _under(name, modules):
    return any(name == m or name.startswith(m + ".") for m in modules)


def _offences(node):
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if _under(a.name, BANNED_MODULES)]
    if isinstance(node, ast.ImportFrom):
        if _under(node.module or "", BANNED_MODULES):
            return [node.module]
        return [a.name for a in node.names if a.name in BANNED_NAMES]
    if isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES:
        return [node.attr]
    return []


def _modules():
    for path in sorted(pathlib.Path(dualunitary.__file__).parent.glob("*.py")):
        yield path.name, ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _imported(node):
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):  # from concurrent import futures: concurrent.futures
        return [f"{node.module or ''}.{a.name}" for a in node.names]
    return []


def test_no_module_starts_a_process_pool():
    offenders = [f"{name}:{node.lineno}: {what}" for name, nodes in _modules()
                 for node in nodes for what in _offences(node)]
    assert offenders == []


def test_only_the_haar_engine_imports_threads():
    offenders = [f"{name}:{node.lineno}: {module}" for name, nodes in _modules()
                 if name != THREAD_MODULE_HOME for node in nodes
                 for module in _imported(node) if _under(module, THREAD_MODULES)]
    assert offenders == []
