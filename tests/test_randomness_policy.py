"""All randomness flows from the seeded streams of haar_mc."""

import ast
import pathlib

import dualunitary

# numpy calls that build or reseed a generator
BUILDERS = {"default_rng", "RandomState", "Philox", "Generator"}
# the only functions that may make one: the substream factory and the
# counter-indexed Philox + Box-Muller stream of the Haar locals
ALLOWED = {("haar_mc.py", "substream"), ("haar_mc.py", "_haar_block")}


def _builds_generator(call):
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "seed":  # np.random.seed, not any .seed(...) method
        return isinstance(func.value, ast.Attribute) and func.value.attr == "random"
    return name in BUILDERS


def test_only_the_seeded_streams_build_generators():
    # a generator built anywhere else would draw numbers no --seed controls
    offenders = []
    for path in sorted(pathlib.Path(dualunitary.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                   and (path.name, fn.name) in ALLOWED for node in ast.walk(fn)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and id(node) not in allowed
                      and _builds_generator(node)]
    assert offenders == []
