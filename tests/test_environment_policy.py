"""No module of the package reads the process environment: a run's seed and
thread cap come from its arguments alone."""

import ast
import pathlib

import dualunitary

# what reads or writes the environment of the os module
ENVIRONMENT = {"environ", "environb", "getenv", "putenv"}


def _reads(source):
    """'line: os.name' of each use of the environment in source, by attribute
    (os.environ) or by a name imported from os."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            hits += [(node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT]
    return [f"{line}: os.{name}" for line, name in sorted(hits)]


def test_the_check_sees_each_read():
    source = ("import os\nfrom os import getenv, path\n"
              "x = os.environ.get('A', os.getenv('B'))\nos.putenv('C', '1')\n"
              "y = os.environb\nz = os.path.join('a', 'b')\n")
    assert _reads(source) == ["2: os.getenv", "3: os.environ", "3: os.getenv",
                              "4: os.putenv", "5: os.environb"]


def test_no_module_reads_the_environment():
    offenders = [f"{path.name}:{hit}"
                 for path in sorted(pathlib.Path(dualunitary.__file__).parent.glob("*.py"))
                 for hit in _reads(path.read_text())]
    assert offenders == []
