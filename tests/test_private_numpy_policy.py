"""numpy's private linalg gufuncs are bound in one place: the realign-polar
flow's SVD in constructions.py, pinned to `np.linalg.svd` by its tests."""

import ast

from test_parallelism_policy import _imported, _modules, _under

PRIVATE_MODULES = ("numpy.linalg._umath_linalg",)
PRIVATE_HOME = "constructions.py"


def _private_uses(node):
    uses = [m for m in _imported(node) if _under(m, PRIVATE_MODULES)]
    if isinstance(node, ast.Attribute) and node.attr == "_umath_linalg":
        uses.append(f"<attribute>.{node.attr}")
    return uses


def test_only_the_flow_imports_numpys_private_linalg():
    found = {name: [(node.lineno, use) for node in nodes for use in _private_uses(node)]
             for name, nodes in _modules()}
    assert found[PRIVATE_HOME]  # the home module does bind it
    offenders = [f"{name}:{line}: {use}" for name, uses in found.items()
                 if name != PRIVATE_HOME for line, use in uses]
    assert offenders == []
