import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import dualunitary
from dualunitary import cli
from dualunitary.cli import main
from dualunitary.constructions import perm_spec_to_json, PERM_OLS_EXAMPLE_Q3


def run_cli(args, tmp_path=None):
    """In-process invocation; returns (exit_code,)"""
    return main(args)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _strict_json(text):
    """json.loads that refuses the Infinity / NaN tokens strict JSON does not have."""
    return json.loads(text, parse_constant=_refuse_constant)


def test_gate_make_and_classify_cat(tmp_path, capsys):
    gate = tmp_path / "cat.json"
    assert main(["gate", "make", "cat", "-q", "3", "-o", str(gate)]) == 0
    assert main(["gate", "classify", str(gate)]) == 0
    rep = _strict_json(capsys.readouterr().out)
    assert rep["duality"]["two_unitary"] is True
    assert abs(rep["e_p"] - 1.0) < 1e-12
    assert rep["ergodic_class"] == "Bernoulli"


def test_gate_make_cartan_ep(tmp_path, capsys):
    gate = tmp_path / "u.json"
    assert main(["gate", "make", "cartan", "--J", "0.3926990817", "-o", str(gate)]) == 0
    assert main(["gate", "classify", str(gate)]) == 0
    rep = _strict_json(capsys.readouterr().out)
    assert abs(rep["e_p"] - 1 / 3) < 1e-9


def test_gate_make_families(tmp_path, capsys):
    # (family, options, exit code, whether `gate classify` must call it dual)
    for k, (fam, extra, code, dual) in enumerate([
        ("block", ["-q", "3"], 0, True),
        ("block", ["-q", "3", "--sizes", "6,3"], 0, True),
        ("block", ["-q", "4", "--sizes", "8,4,4"], 0, True),
        ("block", ["-q", "3", "--sizes", "4,5"], 3, None),
        ("diag", ["-q", "2", "--epsilon", "0.5"], 0, True),
        ("mr", ["-q", "3", "--tol", "1e-8"], 0, None),
        ("fixture", ["--name", "dual_q3_ep8over9"], 0, True),
    ]):
        out = tmp_path / f"{fam}{k}.json"
        assert main(["gate", "make", fam, "-o", str(out), "--seed", "3"] + extra) == code
        if code:
            continue
        assert out.exists()
        assert (tmp_path / f"{fam}{k}.json.manifest.json").exists()
        if dual:
            capsys.readouterr()
            assert main(["gate", "classify", str(out)]) == 0
            assert _strict_json(capsys.readouterr().out)["duality"]["dual"] is True


def test_gate_make_perm_spec(tmp_path):
    spec = tmp_path / "perm.json"
    spec.write_text(json.dumps(perm_spec_to_json(*PERM_OLS_EXAMPLE_Q3)))
    gate = tmp_path / "perm_gate.json"
    assert main(["gate", "make", "perm", "--spec", str(spec), "-o", str(gate)]) == 0
    payload = _strict_json(gate.read_text())
    assert payload["q"] == 3


def test_channel_spectrum_csv(tmp_path):
    gate = tmp_path / "g.json"
    main(["gate", "make", "cartan", "--J", "0.19634954085", "-o", str(gate)])
    out = tmp_path / "spec.csv"
    assert main(["channel", "spectrum", str(gate), "--side", "plus", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,modulus,rate"
    assert len(lines) == 4  # header + 3 nontrivial eigenvalues
    mods = sorted(float(l.split(",")[2]) for l in lines[1:])
    s = math.sin(2 * 0.19634954085)
    assert abs(mods[0] - s) < 1e-9 and abs(mods[2] - 1.0) < 1e-9


def test_channel_spectrum_json_writes_zero_mode_rates_as_inf(tmp_path, capsys):
    # the q = 3 cat map is Bernoulli (a zero channel) and so is the q = 4 one
    # (a nilpotent channel): every nontrivial mode is a zero mode
    for q in (3, 4):
        gate = tmp_path / f"cat{q}.json"
        assert main(["gate", "make", "cat", "-q", str(q), "-o", str(gate)]) == 0
        capsys.readouterr()
        assert main(["channel", "spectrum", str(gate), "--format", "json"]) == 0
        rep = _strict_json(capsys.readouterr().out)
        assert [e["rate"] for e in rep["eigenvalues"]] == ["inf"] * (q * q - 1)
        assert main(["channel", "spectrum", str(gate)]) == 0
        csv_rates = [line.split(",")[3] for line in capsys.readouterr().out.splitlines()[1:]]
        assert csv_rates == ["inf"] * (q * q - 1)


def test_sweep_haar_deterministic(tmp_path):
    gate = tmp_path / "g.json"
    main(["gate", "make", "diag", "-q", "2", "-o", str(gate), "--seed", "5"])
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    for out in (out1, out2):
        assert main(["sweep", "haar", str(gate), "-N", "200", "--seed", "7", "-o", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    man = _strict_json((tmp_path / "s1.csv.manifest.json").read_text())
    assert man["seed"] == 7 and str(out1) in man["outputs"]
    assert man["stream_scheme"] == 2


def test_sweep_counts_the_zero_modes(tmp_path):
    # the q = 3 cat map is 2-unitary: every sample is a zero mode, an infinite rate
    gate = tmp_path / "cat.json"
    assert main(["gate", "make", "cat", "-q", "3", "-o", str(gate)]) == 0
    out = tmp_path / "s.csv"
    assert main(["sweep", "haar", str(gate), "-N", "20", "--seed", "1", "-o", str(out)]) == 0
    header, line = out.read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert row["infinite_count"] == "20" and row["mu_plus"] == "inf"


def test_sweep_family(tmp_path):
    out = tmp_path / "fam.csv"
    assert main(["sweep", "family", "cartan", "--points", "3", "-N", "50",
                 "--seed", "1", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("param,e_p,")
    assert len(lines) == 4


def test_circuit_corr_and_verify(tmp_path):
    gate = tmp_path / "g.json"
    main(["gate", "make", "fixture", "--name", "dual_q3_ep8over9", "-o", str(gate)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 3, "L": 2, "gate": str(gate), "t_max": 1,
                               "basis_pairs": [[1, 1], [1, 2]]}))
    grid = tmp_path / "grid.csv"
    assert main(["circuit", "corr", str(cfg), "-o", str(grid)]) == 0
    lines = grid.read_text().splitlines()
    assert lines[0] == "x,t,i,j,value_re,value_im"
    assert len(lines) == 1 + 4 * 2  # 2L = 4 positions, both configured pairs, t=1
    # the only nonzero row sits on the light cone x = t = 1
    for line in lines[1:]:
        x, t, i, j, re, im = line.split(",")
        mag = abs(complex(float(re), float(im)))
        if float(x) != 1.0:
            assert mag < 1e-10
    assert main(["circuit", "verify", str(cfg)]) == 0


def test_circuit_corr_rejects_bad_basis_pairs(tmp_path, capsys):
    gate = tmp_path / "g.json"
    main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)])
    cfg = tmp_path / "cfg.json"
    # q = 2 has basis indices 0..3: 7 is out of range, -1 would wrap to 3
    for pairs in ([[1, 7]], [[-1, 1]]):
        cfg.write_text(json.dumps({"q": 2, "L": 2, "gate": str(gate), "t_max": 1,
                                   "basis_pairs": pairs}))
        capsys.readouterr()
        assert main(["circuit", "corr", str(cfg)]) == 3
        err = _strict_json(capsys.readouterr().err.splitlines()[0])
        assert err["error"] == "validation" and "basis_pairs" in err["message"]


def test_non_finite_gate_file_is_a_validation_error(tmp_path, capsys):
    gate = tmp_path / "g.json"
    main(["gate", "make", "fixture", "--name", "dual_q3_d3s", "-o", str(gate)])
    good = _strict_json(gate.read_text())
    bad_nan = dict(good, re=[row[:] for row in good["re"]])
    bad_nan["re"][4][2] = float("nan")
    # q must be a JSON integer >= 2: a float, string or bool is refused, never coerced
    cases = [(bad_nan, "non-finite")] + [
        (dict(good, q=q), "q must be an integer") for q in (3.7, 3.0, "3", True, -3, 1)]
    # the object, its keys and the type and shape of re and im are checked too
    # a file holding a JSON string, a doubly encoded gate among them, is not parsed again
    cases += [({"q": 3}, "re"), ([1, 2], "JSON object"), ("3", "JSON object"),
              ("hello", "a gate must be a JSON object"), (json.dumps(good), "JSON object"),
              (dict(good, im=0), "im"), (dict(good, re=[["a"] * 9] * 9), "re"),
              (dict(good, im=good["im"][:8]), "im"), (dict(good, re=[[10**400] * 9] * 9), "re")]
    cases = [(json.dumps(payload).encode(), message) for payload, message in cases]
    cases += [(b'{"q": 3, "re": "\xff"}', "UTF-8 JSON"), (b"{not json", "UTF-8 JSON")]
    for text, message in cases:
        gate.write_bytes(text)
        for argv in (["gate", "classify", str(gate)], ["sweep", "haar", str(gate), "-N", "10"]):
            capsys.readouterr()
            assert main(argv) == 3
            err = _strict_json(capsys.readouterr().err.splitlines()[0])
            assert err["error"] == "validation" and message in err["message"]
    # a file that cannot be read, a directory say, is exit 3 too
    assert main(["gate", "classify", str(tmp_path)]) == 3
    assert _strict_json(capsys.readouterr().err.splitlines()[0])["error"] == "validation"
    # non-finite gate parameters are refused before any gate is built
    for argv, flag in ((["cat", "--b", "nan"], "--b"), (["cat", "-q", "2", "--b", "inf"], "--b"),
                       (["cartan", "--J", "nan"], "--J"), (["cartan", "--J=-inf"], "--J"),
                       (["mrt", "--tol", "nan", "--max-iter", "5"], "--tol")):
        assert main(["gate", "make", *argv]) == 3
        err = _strict_json(capsys.readouterr().err.splitlines()[0])
        assert err["error"] == "validation" and flag in err["message"]


def test_oracles(tmp_path, capsys):
    assert main(["oracle", "reshuffle-identities", "-q", "4", "--seed", "7"]) == 0
    rep = _strict_json(capsys.readouterr().out)
    assert max(rep.values()) < 1e-12
    assert main(["oracle", "haar-identity", "-q", "2", "-N", "4000", "--seed", "2"]) == 0
    rep2 = _strict_json(capsys.readouterr().out)
    assert rep2["z_score"] < 3.0


def test_perm_enumerate_q2(tmp_path):
    out = tmp_path / "perms.csv"
    assert main(["perm", "enumerate", "-q", "2", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "perm_id,e_p,lambda1_mod,lambda2_mod"
    assert len(lines) == 13  # 12 dual permutations of [2] x [2]


def test_exit_codes(tmp_path, capsys):
    # usage error: unknown family
    assert main(["gate", "make", "nonsense"]) == 2
    capsys.readouterr()
    # validation error: unknown fixture name
    assert main(["gate", "make", "fixture", "--name", "nope"]) == 3
    err = _strict_json(capsys.readouterr().err.splitlines()[0])
    assert err["error"] == "validation"
    # malformed gate file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["gate", "classify", str(bad)])
    assert rc == 3
    capsys.readouterr()
    # non-convergence
    assert main(["gate", "make", "mr", "-q", "3", "--max-iter", "1", "--tol", "1e-15"]) == 4
    err2 = _strict_json(capsys.readouterr().err.splitlines()[0])
    assert err2["error"] == "non-convergence"
    # guard violation through circuit config
    cfg = tmp_path / "cfg.json"
    gate = tmp_path / "g.json"
    main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)])
    capsys.readouterr()
    # t_max = 4 is evaluated first: its 16-leg operator is refused before any other work
    cfg.write_text(json.dumps({"q": 2, "L": 9, "gate": str(gate)}))
    assert main(["circuit", "verify", str(cfg)]) == 3
    assert "budget" in _strict_json(capsys.readouterr().err.splitlines()[0])["message"]


def test_a_fault_of_the_program_is_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise KeyError("re")

    monkeypatch.setattr(cli, "cmd_perm_enumerate", broken)
    assert main(["perm", "enumerate", "-q", "2"]) == 1
    err = _strict_json(capsys.readouterr().err.splitlines()[0])
    assert err == {"error": "internal", "type": "KeyError", "message": "'re'"}


def test_manifest_of_a_non_regular_output_goes_to_stderr(capsys):
    stray = pathlib.Path(os.devnull + ".manifest.json")
    existed = stray.exists()
    try:
        assert main(["gate", "make", "cat", "-q", "3", "-o", os.devnull]) == 0
        assert existed or not stray.exists()
        manifest = _strict_json(capsys.readouterr().err)
        assert manifest["command"] == "gate make" and manifest["outputs"] == {}
    finally:
        if not existed:
            stray.unlink(missing_ok=True)


def _child_python(*args):
    """A fresh interpreter that finds the package where this process found it,
    also when that is pytest's `pythonpath` setting rather than PYTHONPATH."""
    src = str(pathlib.Path(dualunitary.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_script_installed():
    assert _child_python("-m", "dualunitary.cli", "--version").returncode == 0
    # a usage error is argparse's exit 2 and message, from the parser built once
    proc = _child_python("-m", "dualunitary.cli", "gate", "make", "nonsense")
    assert proc.returncode == 2 and "invalid choice: 'nonsense'" in proc.stderr


# Run in a fresh interpreter: prints whether scipy is loaded after the imports,
# then the exit code of each argv of argv[1] and whether scipy is loaded after
# it, then whether a process pool was started.
SCIPY_PROBE = """
import json, sys
import dualunitary, dualunitary.cli
loaded = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    loaded.append([dualunitary.cli.main(argv), "scipy" in sys.modules])
loaded.append("concurrent.futures.process" in sys.modules)
print(json.dumps(loaded))
"""


def test_scipy_loads_only_where_it_is_called(tmp_path):
    gate, cfg, fixture = (str(tmp_path / n) for n in ("cat.json", "cfg.json", "d3s.json"))
    assert main(["gate", "make", "cat", "-q", "2", "-o", gate]) == 0
    assert main(["gate", "make", "fixture", "--name", "dual_q3_d3s", "-o", fixture]) == 0
    pathlib.Path(cfg).write_text(json.dumps({"q": 2, "L": 4, "gate": gate}))
    out = str(tmp_path / "out")
    argvs = [["gate", "make", "mrt", "-q", "3", "--max-iter", "5", "-o", out],
             ["sweep", "haar", gate, "-N", "20", "-o", out],
             ["circuit", "verify", cfg, "-o", out],
             ["gate", "classify", fixture, "-o", out],
             ["channel", "spectrum", fixture, "--side", "minus", "-o", out],
             ["perm", "enumerate", "-q", "2", "-o", out]]
    proc = _child_python("-c", SCIPY_PROBE, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    # neither the imports nor any command (mrt: 5 steps, unconverged) load
    # scipy, and a serial sweep starts no process pool
    assert json.loads(proc.stdout) == [False, [4, False], [0, False], [0, False], [0, False],
                                       [0, False], [0, False], False]


def _validation_error(capsys):
    err = _strict_json(capsys.readouterr().err.splitlines()[0])
    assert err["error"] == "validation"
    return err["message"]


def test_malformed_environment_defaults_are_validation_errors(tmp_path, monkeypatch, capsys):
    gate = tmp_path / "g.json"
    assert main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)]) == 0
    for name, argv in (("DUALUNITARY_SEED", ["gate", "make", "block", "-q", "2"]),
                       ("DUALUNITARY_WORKERS", ["sweep", "haar", str(gate), "-N", "10"])):
        monkeypatch.setenv(name, "abc")
        capsys.readouterr()
        assert main(argv) == 3
        assert name in _validation_error(capsys)
        monkeypatch.delenv(name)
    # the integers inside option values are parsed the same way; --locals takes
    # seed:<int> and nothing else, a gate file among them
    for argv, word in ((["gate", "make", "block", "--sizes", "3,x"], "--sizes"),
                       (["channel", "spectrum", str(gate), "--locals", "seed:abc"], "--locals"),
                       (["channel", "spectrum", str(gate), "--locals", "7"], "--locals"),
                       (["channel", "spectrum", str(gate), "--locals", str(gate)], "--locals")):
        capsys.readouterr()
        assert main(argv) == 3
        assert word in _validation_error(capsys)


def test_fewer_than_one_worker_is_a_validation_error(tmp_path, capsys):
    gate = tmp_path / "g.json"
    assert main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)]) == 0
    for workers in ("0", "-2"):
        capsys.readouterr()
        assert main(["sweep", "haar", str(gate), "-N", "10", "--workers", workers]) == 3
        assert "--workers" in _validation_error(capsys)
    assert main(["sweep", "family", "cartan", "--points", "2", "-N", "10",
                 "--workers", "0"]) == 3


def test_gate_make_perm_rejects_theta_of_the_wrong_shape(tmp_path, capsys):
    spec = tmp_path / "perm.json"
    for theta in (np.zeros((2, 2)), np.zeros((4, 4)), np.full((3, 3), np.nan)):
        spec.write_text(json.dumps(perm_spec_to_json(*PERM_OLS_EXAMPLE_Q3, theta)))
        capsys.readouterr()
        assert main(["gate", "make", "perm", "--spec", str(spec)]) == 3
        assert "theta" in _validation_error(capsys)


def test_fewer_than_one_sample_is_a_validation_error(tmp_path, capsys):
    gate = tmp_path / "g.json"
    assert main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)]) == 0
    oracle = ["oracle", "haar-identity", "-q", "2"]
    cases = [(argv, n, "-N") for argv in (["sweep", "haar", str(gate)],
                                          ["sweep", "family", "cartan", "--points", "2"], oracle)
             for n in ("0", "-3")]
    # the oracle's z-score needs a finite standard error, so it also refuses N = 1
    cases.append((oracle, "1", "N >= 2"))
    for argv, n, word in cases:
        capsys.readouterr()
        assert main([*argv, "-N", n]) == 3
        assert word in _validation_error(capsys)
    # so are fewer than one sweep point or flow step, and fewer than two local levels
    for argv, word in ((["sweep", "family", "cartan", "-N", "10", "--points", "-1"], "--points"),
                       (["sweep", "family", "cartan", "-N", "10", "--points", "0"], "--points"),
                       (["gate", "make", "mr", "--max-iter", "0"], "--max-iter"),
                       (["gate", "make", "diag", "-q", "-2"], "-q"),
                       (["perm", "enumerate", "-q", "1"], "-q")):
        capsys.readouterr()
        assert main(argv) == 3
        assert word in _validation_error(capsys)


@pytest.mark.parametrize("key, value", [
    ("q", 3.7), ("q", 3.0), ("q", True),
    ("K", [[1, 2, 3], [2, 3, 1], [3, 1, 2.5]]), ("K", [[1, 2, 3], [2, 3, True], [3, 1, 2]]),
    ("L", [[1.9, 3, 2], [2, 1, 3], [3, 2, 1]]), ("L", [[1, 3, 2], [2, 1, 3], [3, 2, 1.0]]),
    ("q", 10**23), ("K", [[1, 2, 3], [2, 3, 1], [3, 1, 10**23]]),
    ("q", -3), ("K", [[1, 2, 3], [1]]), ("L", None),
    ("theta", [["a"] * 3] * 3), ("theta", [[0.0] * 3, [0.0]]), ("theta", 0.0),
])
def test_gate_make_perm_rejects_non_integer_spec_entries(tmp_path, capsys, key, value):
    spec = tmp_path / "perm.json"
    spec.write_text(json.dumps({**perm_spec_to_json(*PERM_OLS_EXAMPLE_Q3), key: value}))
    assert main(["gate", "make", "perm", "--spec", str(spec)]) == 3
    assert key in _validation_error(capsys)


def test_circuit_config_keys_and_t_max_are_checked(tmp_path, capsys):
    gate = tmp_path / "g.json"
    main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)])
    cfg = tmp_path / "cfg.json"
    base = {"q": 2, "L": 2, "gate": str(gate)}
    cases = [(extra, word, word) for extra, word in (
        ({"t_max": 0}, "t_max"), ({"t_max": 1.7}, "t_max"), ({"t_max": True}, "t_max"),
        ({"t_max": "1"}, "t_max"), ({"basis_pair": [[1, 1]]}, "basis_pair"), ({"L": 2.9}, "L"),
        ({"q": 2.0}, "q"), ({}, None),
        # a gate is a path string or an inline gate object, nothing else
        *(({"gate": g}, "gate") for g in (0, 1, True, 3.5, [1], None, {"q": 2})),
        # the ring size is bounded by real bytes only: 24 legs at t <= 2
        ({"L": 12, "t_max": 2}, None))]
    # t_max > L/2: the ring grid is exact, only the channel prediction is out of its window
    cases.append(({"t_max": 2}, None, "t_max"))
    for extra, corr_word, verify_word in cases:
        cfg.write_text(json.dumps({**base, **extra}))
        for cmd, word in (("corr", corr_word), ("verify", verify_word)):
            capsys.readouterr()
            code = main(["circuit", cmd, str(cfg)])
            if word is None:
                assert code == 0
            else:
                assert code == 3
                assert word in _validation_error(capsys)
    for bad in ([], {"q": 2, "L": 2}, {"q": 2, "gate": str(gate)}):
        cfg.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["circuit", "corr", str(cfg)]) == 3
    cfg.write_bytes(b"\xff")
    capsys.readouterr()
    assert main(["circuit", "corr", str(cfg)]) == 3
    assert "UTF-8 JSON" in _validation_error(capsys)
