import json
import math
import os
import pathlib
import subprocess
import sys

import dualunitary
from dualunitary.cli import main
from dualunitary.constructions import perm_spec_to_json, PERM_OLS_EXAMPLE_Q3


def run_cli(args, tmp_path=None):
    """In-process invocation; returns (exit_code,)"""
    return main(args)


def test_gate_make_and_classify_cat(tmp_path, capsys):
    gate = tmp_path / "cat.json"
    assert main(["gate", "make", "cat", "-q", "3", "-o", str(gate)]) == 0
    assert main(["gate", "classify", str(gate)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["duality"]["two_unitary"] is True
    assert abs(rep["e_p"] - 1.0) < 1e-12
    assert rep["ergodic_class"] == "Bernoulli"


def test_gate_make_cartan_ep(tmp_path, capsys):
    gate = tmp_path / "u.json"
    assert main(["gate", "make", "cartan", "--J", "0.3926990817", "-o", str(gate)]) == 0
    assert main(["gate", "classify", str(gate)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["e_p"] - 1 / 3) < 1e-9


def test_gate_make_families(tmp_path):
    for fam, extra in [
        ("block", ["-q", "3"]),
        ("diag", ["-q", "2", "--epsilon", "0.5"]),
        ("mr", ["-q", "3", "--tol", "1e-8"]),
        ("fixture", ["--name", "dual_q3_ep8over9"]),
    ]:
        out = tmp_path / f"{fam}.json"
        assert main(["gate", "make", fam, "-o", str(out), "--seed", "3"] + extra) == 0
        assert out.exists()
        assert (tmp_path / f"{fam}.json.manifest.json").exists()


def test_gate_make_perm_spec(tmp_path):
    spec = tmp_path / "perm.json"
    spec.write_text(json.dumps(perm_spec_to_json(*PERM_OLS_EXAMPLE_Q3)))
    gate = tmp_path / "perm_gate.json"
    assert main(["gate", "make", "perm", "--spec", str(spec), "-o", str(gate)]) == 0
    payload = json.loads(gate.read_text())
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


def test_sweep_haar_deterministic(tmp_path):
    gate = tmp_path / "g.json"
    main(["gate", "make", "diag", "-q", "2", "-o", str(gate), "--seed", "5"])
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    for out in (out1, out2):
        assert main(["sweep", "haar", str(gate), "-N", "200", "--seed", "7", "-o", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    man = json.loads((tmp_path / "s1.csv.manifest.json").read_text())
    assert man["seed"] == 7 and str(out1) in man["outputs"]


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
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert err["error"] == "validation" and "basis_pairs" in err["message"]


def test_oracles(tmp_path, capsys):
    assert main(["oracle", "reshuffle-identities", "-q", "4", "--seed", "7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert max(rep.values()) < 1e-12
    assert main(["oracle", "haar-identity", "-q", "2", "-N", "4000", "--seed", "2"]) == 0
    rep2 = json.loads(capsys.readouterr().out)
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
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err["error"] == "validation"
    # malformed gate file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["gate", "classify", str(bad)])
    assert rc == 3
    capsys.readouterr()
    # non-convergence
    assert main(["gate", "make", "mr", "-q", "3", "--max-iter", "1", "--tol", "1e-15"]) == 4
    err2 = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err2["error"] == "non-convergence"
    # guard violation through circuit config
    cfg = tmp_path / "cfg.json"
    gate = tmp_path / "g.json"
    main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)])
    capsys.readouterr()
    cfg.write_text(json.dumps({"q": 2, "L": 9, "gate": str(gate)}))
    assert main(["circuit", "verify", str(cfg)]) == 3


def test_console_script_installed():
    # the child finds the package where this process found it, also when that
    # is pytest's `pythonpath` setting rather than PYTHONPATH
    src = str(pathlib.Path(dualunitary.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "dualunitary.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
