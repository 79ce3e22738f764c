"""Every file a command writes goes through `cli._write_text`, which hashes the
bytes as it writes them; the run manifest records those digests."""

import ast
import hashlib
import json
import os
import pathlib

from dualunitary import cli
from dualunitary.cli import main

# the cli functions that may open a file, and the modes they may open it in
OPENERS = {"_write_text": {"w"}, "_emit_manifest": {"w"}, "_read_json": {"rb"}}
FILE_CALLS = {"open", "write_text", "write_bytes", "fdopen", "NamedTemporaryFile", "savetxt"}


def _called_name(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _mode(node):
    args = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    return args[0].value if args and isinstance(args[0], ast.Constant) else "r"


def test_no_command_opens_a_file_except_through_write_text():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    assert any(f.name.startswith("cmd_") for f in functions)
    offenders = []
    for f in functions:
        for node in ast.walk(f):
            if isinstance(node, ast.Call) and _called_name(node) in FILE_CALLS:
                if f.name not in OPENERS or _mode(node) not in OPENERS[f.name]:
                    offenders.append(f"{f.name}:{node.lineno}")
    assert offenders == []
    # the package's other modules open no file at all
    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        if path.name != "cli.py":
            calls = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
            assert not [n.lineno for n in calls if _called_name(n) in FILE_CALLS], path.name


def _commands(tmp_path, output):
    gate, cfg = tmp_path / "g.json", tmp_path / "cfg.json"
    assert main(["gate", "make", "cat", "-q", "2", "--b", "0.7", "-o", str(gate)]) == 0
    cfg.write_text(json.dumps({"q": 2, "L": 3, "gate": str(gate), "t_max": 1}))
    return [["gate", "make", "fixture", "--name", "dual_q3_ep8over9", "-o", output("gate")],
            ["sweep", "haar", str(gate), "-N", "20", "--workers", "1", "-o", output("sweep")],
            ["circuit", "corr", str(cfg), "-o", output("corr")],
            ["circuit", "verify", str(cfg), "-o", output("verify")]]


def test_every_manifest_digest_is_the_sha256_of_the_file_on_disk(tmp_path, capsys):
    for argv in _commands(tmp_path, lambda name: str(tmp_path / f"{name}.out")):
        assert main(argv) == 0, argv
        out = pathlib.Path(argv[-1])
        manifest = json.loads(pathlib.Path(f"{out}.manifest.json").read_text())
        assert manifest["command"] == " ".join(argv[:2])
        assert manifest["outputs"] == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}
    assert capsys.readouterr().err == ""


def test_an_output_to_dev_null_sends_its_manifest_to_stderr(tmp_path, capsys):
    stray = pathlib.Path(os.devnull + ".manifest.json")
    existed = stray.exists()
    try:
        for argv in _commands(tmp_path, lambda name: os.devnull):
            capsys.readouterr()
            assert main(argv) == 0, argv
            manifest = json.loads(capsys.readouterr().err)
            assert manifest["command"] == " ".join(argv[:2]) and manifest["outputs"] == {}
        assert existed or not stray.exists()
    finally:
        if not existed:
            stray.unlink(missing_ok=True)
