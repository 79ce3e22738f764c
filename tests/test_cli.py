import argparse
import ast
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import dualunitary
from dualunitary import circuit_sim as cs
from dualunitary import cli
from dualunitary import haar_mc as hm
from dualunitary.circuit_sim import CircuitSimulator, weyl_basis
from dualunitary.cli import main
from dualunitary.constructions import ols_pair, perm_spec_to_json
from dualunitary.qubit_exact import cartan_gate
from dualunitary.tensor_ops import gate_to_json, sample_haar
from dualunitary.tolerances import CONE_TOL, FLOW_TOL, ORACLE_SIGMAS, RESHUFFLE_TOL
from parity_corpus import defective_gate


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


def test_gate_make_cat_keeps_a_large_b_unitary(tmp_path, capsys):
    # b far beyond the period q: no overflow warning, and a gate every
    # consumer accepts (its unitarity defect is within GATE_UNITARY_TOL)
    for b in ("1e15", "1e308"):
        gate = tmp_path / f"cat{b}.json"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["gate", "make", "cat", "-q", "3", "--b", b, "-o", str(gate)]) == 0
        assert caught == [] and capsys.readouterr().err == ""
        assert main(["gate", "classify", str(gate)]) == 0
        assert _strict_json(capsys.readouterr().out)["duality"]["dual"] is True


def test_gate_make_block_refuses_sizes_by_the_option(tmp_path, capsys):
    # sizes that are multiples of q but not positive or not summing to q^2 are
    # refused in the terms of --sizes, not of the library's multipliers
    out = tmp_path / "g.json"
    for sizes in ("0,9", "3,3", "-3,12"):
        capsys.readouterr()
        assert main(["gate", "make", "block", "-q", "3", f"--sizes={sizes}", "-o", str(out)]) == 3
        message = _validation_error(capsys)
        assert message.startswith(f"--sizes {sizes}:") and "multipliers" not in message
        assert not out.exists()


def test_gate_make_block_refuses_an_empty_sizes_list(tmp_path, capsys):
    # --sizes "" is an empty size list, not the uniform default of no --sizes
    out = tmp_path / "g.json"
    assert main(["gate", "make", "block", "-q", "3", "--sizes", "", "-o", str(out)]) == 3
    assert "--sizes" in _validation_error(capsys)
    assert not out.exists()


def test_gate_make_cartan_ep(tmp_path, capsys):
    gate = tmp_path / "u.json"
    assert main(["gate", "make", "cartan", "--J", "0.3926990817", "-o", str(gate)]) == 0
    assert main(["gate", "classify", str(gate)]) == 0
    rep = _strict_json(capsys.readouterr().out)
    assert abs(rep["e_p"] - 1 / 3) < 1e-9


def test_gate_make_families(tmp_path, capsys):
    # (family, options, exit code, whether `gate classify` must call it dual)
    for k, (fam, extra, code, dual) in enumerate([
        ("block", ["-q", "3", "--seed", "3"], 0, True),
        ("block", ["-q", "3", "--sizes", "6,3", "--seed", "3"], 0, True),
        ("block", ["-q", "4", "--sizes", "8,4,4", "--seed", "3"], 0, True),
        ("block", ["-q", "3", "--sizes", "4,5", "--seed", "3"], 3, None),
        ("diag", ["-q", "2", "--epsilon", "0.5", "--seed", "3"], 0, True),
        ("mr", ["-q", "3", "--tol", "1e-8", "--seed", "3"], 0, None),
        ("fixture", ["--name", "dual_q3_ep8over9"], 0, True),
    ]):
        out = tmp_path / f"{fam}{k}.json"
        assert main(["gate", "make", fam, "-o", str(out)] + extra) == code
        if code:
            continue
        assert out.exists()
        assert (tmp_path / f"{fam}{k}.json.manifest.json").exists()
        if dual:
            capsys.readouterr()
            assert main(["gate", "classify", str(out)]) == 0
            assert _strict_json(capsys.readouterr().out)["duality"]["dual"] is True


def test_gate_make_refuses_options_its_family_ignores(tmp_path, capsys):
    # exit 3 naming the first ignored option, before any gate is built or written
    out = tmp_path / "g.json"
    for argv, flag in ((["cartan", "-q", "5", "--epsilon", "0.3", "--seed", "9"], "-q"),
                       (["cartan", "--J", "0.2", "--seed", "9"], "--seed"),
                       (["cat", "-q", "3", "--epsilon", "0.5"], "--epsilon"),
                       (["fixture", "--name", "dual_q3_d3s", "-q", "3"], "-q"),
                       (["diag", "--max-iter", "5"], "--max-iter"),
                       (["mr", "--sizes", "3,3"], "--sizes"),
                       (["perm", "--J", "0.1"], "--J"),
                       (["block", "--b", "1"], "--b"),
                       (["mrt", "--name", "x"], "--name")):
        capsys.readouterr()
        assert main(["gate", "make", *argv, "-o", str(out)]) == 3
        assert f"takes no {flag}" in _validation_error(capsys)
        assert not out.exists()


def _choices(parser):
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _subparser(*path):
    parser = cli.build_parser()
    for name in path:
        parser = _choices(parser)[name]
    return parser


def test_each_family_declares_only_its_own_options():
    # (command path, the options it declares besides -h and -o, its defaults)
    seeded = {"seed": 0}
    for path, defaults in (
            (("gate", "make", "block"), {"q": 3, "side": "ds", "sizes": None, **seeded}),
            (("gate", "make", "diag"), {"q": 3, "epsilon": 1.0, **seeded}),
            (("gate", "make", "perm"), {"spec": None}),
            (("gate", "make", "cat"), {"q": 3, "b": None}),
            (("gate", "make", "cartan"), {"J": 0.0}),
            (("gate", "make", "mr"), {"q": 3, "max_iter": 10_000, "tol": FLOW_TOL, **seeded}),
            (("gate", "make", "mrt"), {"q": 3, "max_iter": 10_000, "tol": FLOW_TOL, **seeded}),
            (("gate", "make", "fixture"), {"name": None}),
            (("sweep", "family", "cartan"), {"points": 10, "n": 2000, "workers": None,
                                             **seeded}),
            (("sweep", "family", "diag"), {"q": 2, "epsilon": 1.0, "points": 10, "n": 2000,
                                           "workers": None, **seeded})):
        options = {a.dest: a.default for a in _subparser(*path)._actions if a.option_strings}
        assert options == {"help": argparse.SUPPRESS, "output": "-", **defaults}, path
    assert list(_choices(_subparser("gate", "make"))) == [
        "block", "diag", "perm", "cat", "cartan", "mr", "mrt", "fixture"]
    assert list(_choices(_subparser("sweep", "family"))) == ["cartan", "diag"]


def test_every_command_refuses_an_argument_it_does_not_take(tmp_path, capsys):
    # exit 3 with the JSON line, naming the first such argument as typed
    gate, cfg = tmp_path / "g.json", tmp_path / "cfg.json"
    assert main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)]) == 0
    cfg.write_text(json.dumps({"q": 2, "L": 2, "gate": str(gate)}))
    out = tmp_path / "out"
    for argv in (["gate", "classify", str(gate)], ["channel", "spectrum", str(gate)],
                 ["sweep", "haar", str(gate), "-N", "10"], ["circuit", "corr", str(cfg)],
                 ["circuit", "verify", str(cfg)], ["oracle", "haar-identity", "-N", "10"],
                 ["oracle", "reshuffle-identities"], ["perm", "enumerate", "-q", "2"],
                 ["gate", "make", "cat"], ["sweep", "family", "diag", "-N", "10"]):
        command = " ".join(argv[:3] if argv[1] in ("make", "family") else argv[:2])
        for extra in (["--bogus", "1"], ["--bogus=1", "--other"], ["stray"]):
            capsys.readouterr()
            assert main([*argv, *extra, "-o", str(out)]) == 3
            name = extra[0].partition("=")[0]
            # sweep haar reads a word after its options as one more gate file
            want = ("[Errno 2] No such file or directory: 'stray'" if command == "sweep haar"
                    and name == "stray" else f"{command} takes no {name}")
            assert _validation_error(capsys) == want
            assert not out.exists()


def test_an_option_is_spelled_in_full_and_named_without_its_value(capsys):
    # no prefix of an option stands for it, and a refused short option is
    # named without a value attached to it
    for argv, name in ((["diag", "--s", "4"], "--s"), (["diag", "--seed=4", "--eps", "1"], "--eps"),
                       (["mr", "--max", "5", "--seed", "1"], "--max"),
                       (["cartan", "-q5"], "-q"), (["cartan", "--J=0.1", "-q=5"], "-q")):
        capsys.readouterr()
        assert main(["gate", "make", *argv, "-o", "-"]) == 3
        assert _validation_error(capsys) == f"gate make {argv[0]} takes no {name}"
    capsys.readouterr()
    assert main(["oracle", "haar-identity", "--see", "1", "-N", "10"]) == 3
    assert _validation_error(capsys) == "oracle haar-identity takes no --see"


def test_sweep_haar_reads_gate_files_before_and_after_its_options(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gate", "make", "cartan", "--J", "0.2", "-o", str(a)]) == 0
    assert main(["gate", "make", "cat", "-q", "3", "-o", str(b)]) == 0
    orders = (["-N", "10", str(a), str(b)], [str(a), "-N", "10", str(b)],
              [str(a), str(b), "-N", "10"], [str(a), "-N", "10", "--seed", "2", str(b)])
    outs = []
    for k, argv in enumerate(orders):
        outs.append(tmp_path / f"s{k}.csv")
        seed = [] if "--seed" in argv else ["--seed", "2"]
        assert main(["sweep", "haar", *argv, *seed, "-o", str(outs[-1])]) == 0
    assert len({out.read_bytes() for out in outs}) == 1
    assert len(outs[0].read_text().splitlines()) == 3  # the header and one row per gate


def test_an_option_before_the_family_is_a_usage_error(capsys):
    # argparse reads the option's value as the family: exit 2, no JSON line
    for argv in (["gate", "make", "-q", "3", "cat"], ["sweep", "family", "-N", "10", "diag"]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and not err.startswith("{")


def test_unseeded_families_read_no_seed(tmp_path):
    # perm, cat, cartan and fixture draw nothing: the manifest records no seed
    spec = tmp_path / "perm.json"
    spec.write_text(json.dumps(perm_spec_to_json(*ols_pair(3))))
    for k, extra in enumerate((["perm", "--spec", str(spec)], ["cat", "-q", "3"],
                               ["cartan", "--J", "0.2"], ["fixture", "--name", "dual_q3_d3s"])):
        out = tmp_path / f"g{k}.json"
        assert main(["gate", "make", *extra, "-o", str(out)]) == 0
        manifest = _strict_json((tmp_path / f"g{k}.json.manifest.json").read_text())
        assert manifest["seed"] is None


def test_gate_make_perm_spec(tmp_path):
    spec = tmp_path / "perm.json"
    spec.write_text(json.dumps(perm_spec_to_json(*ols_pair(3))))
    gate = tmp_path / "perm_gate.json"
    assert main(["gate", "make", "perm", "--spec", str(spec), "-o", str(gate)]) == 0
    payload = _strict_json(gate.read_text())
    assert payload["q"] == 3


# the dual permutation 147258360 (1-indexed K, L): unphased it is NonErgodic;
# a phase pi on |00> leaves it dual and gives the hierarchy's fourth level
PERM_147258360 = {"q": 3, "K": [[1, 2, 3], [1, 2, 3], [2, 3, 1]],
                  "L": [[2, 2, 2], [3, 3, 3], [1, 1, 1]]}


@pytest.mark.parametrize("theta00, e_p, label, counts", [
    (None, 0.5, "NonErgodic", (4, 2, 6)),
    (math.pi, 13 / 18, "ErgodicNonMixing", (2, 0, 6)),
])
def test_a_phased_dual_permutation_is_ergodic_but_not_mixing(tmp_path, capsys, theta00, e_p,
                                                             label, counts):
    spec = dict(PERM_147258360)
    K, L = (np.array(spec[key]) - 1 for key in ("K", "L"))
    assert "".join(str(k) for k in (3 * K + L).ravel()) == "147258360"
    if theta00 is not None:
        spec["theta"] = [[theta00, 0, 0], [0, 0, 0], [0, 0, 0]]
    (tmp_path / "perm.json").write_text(json.dumps(spec))
    gate = tmp_path / "g.json"
    assert main(["gate", "make", "perm", "--spec", str(tmp_path / "perm.json"),
                 "-o", str(gate)]) == 0
    capsys.readouterr()
    assert main(["gate", "classify", str(gate)]) == 0
    rep = _strict_json(capsys.readouterr().out)
    assert rep["duality"]["dual"] is True and abs(rep["e_p"] - e_p) < 1e-12
    assert rep["ergodic_class"] == label
    assert (rep["ergodic_counts"]["unit"], rep["ergodic_counts"]["one"],
            rep["ergodic_counts"]["zero"]) == counts
    # the library reports the same class of the same gate
    U = dualunitary.gate_from_json(_strict_json(gate.read_text()))
    erg = dualunitary.classify_gate(U)
    assert (erg.label, erg.unit_count, erg.one_count, erg.zero_count) == (label, *counts)
    if theta00 is not None:  # its unit modes, both of M-, are the cube roots e^(+-2 pi i/3)
        unit = [lam for M in (dualunitary.build_m_plus(U), dualunitary.build_m_minus(U))
                for lam in dualunitary.channel_spectrum(M).eigenvalues if abs(abs(lam) - 1) < 1e-9]
        assert np.allclose(sorted(unit, key=np.angle),
                           np.exp([-2j * math.pi / 3, 2j * math.pi / 3]), atol=1e-12)


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


def test_sweep_manifest_records_the_thread_cap(tmp_path, monkeypatch):
    # from the option, else the usable CPUs
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
    gate = tmp_path / "g.json"
    assert main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)]) == 0
    out = tmp_path / "s.csv"
    for option, workers in ((["--workers", "2"], 2), ([], 5)):
        for argv in (["sweep", "haar", str(gate)], ["sweep", "family", "cartan", "--points", "2"]):
            assert main([*argv, "-N", "10", *option, "-o", str(out)]) == 0
            man = _strict_json((tmp_path / "s.csv.manifest.json").read_text())
            assert man["workers"] == workers
    assert main(["gate", "classify", str(gate), "-o", str(out)]) == 0
    assert "workers" not in _strict_json((tmp_path / "s.csv.manifest.json").read_text())


def test_the_environment_changes_no_seed_thread_cap_or_output_byte(tmp_path, monkeypatch):
    # --seed and --workers are the only sources of the seed and the thread cap:
    # the variables that once stood in for them change nothing, malformed or not
    gate = tmp_path / "g.json"
    assert main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)]) == 0
    commands = (["gate", "make", "block", "-q", "3"], ["gate", "make", "diag", "-q", "3"],
                ["sweep", "haar", str(gate), "-N", "300"],
                ["sweep", "family", "diag", "--points", "2", "-N", "100"])

    def runs(tag):
        for k, argv in enumerate(commands):
            out = tmp_path / f"{tag}{k}.out"
            assert main([*argv, "-o", str(out)]) == 0
            man = _strict_json(pathlib.Path(f"{out}.manifest.json").read_text())
            yield out.read_bytes(), man["seed"], man.get("workers")

    plain = list(runs("plain"))
    assert [(seed, workers) for _, seed, workers in plain] == [
        (0, None), (0, None), (0, hm._usable_cpus()), (0, hm._usable_cpus())]
    monkeypatch.setenv("DUALUNITARY_SEED", "9")
    monkeypatch.setenv("DUALUNITARY_WORKERS", "abc")
    assert list(runs("env")) == plain


def test_manifest_records_the_blas_kernel(tmp_path, monkeypatch):
    # the core name numpy's OpenBLAS reports, read once per process; null where
    # the library is not found
    def kernel_of_run(name):
        assert main(["gate", "make", "cartan", "--J", "0.2", "-o", str(tmp_path / name)]) == 0
        return _strict_json((tmp_path / f"{name}.manifest.json").read_text())["blas_kernel"]

    hm.openblas_kernel.cache_clear()
    assert kernel_of_run("a.json") == kernel_of_run("b.json") == hm.openblas_kernel()
    assert hm.openblas_kernel.cache_info().misses == 1
    with monkeypatch.context() as mp:
        mp.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        hm.openblas_kernel.cache_clear()
        try:
            assert kernel_of_run("c.json") is None
        finally:
            hm.openblas_kernel.cache_clear()


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
    # q = 2 has basis indices 0..3: 7 is out of range, -1 would wrap to 3; an
    # empty list asks for no pairs, never for the default ones
    for pairs in ([[1, 7]], [[-1, 1]], []):
        cfg.write_text(json.dumps({"q": 2, "L": 2, "gate": str(gate), "t_max": 1,
                                   "basis_pairs": pairs}))
        for kind in ("corr", "verify"):
            capsys.readouterr()
            assert main(["circuit", kind, str(cfg)]) == 3
            err = _strict_json(capsys.readouterr().err.splitlines()[0])
            assert err["error"] == "validation" and "basis_pairs" in err["message"]
    # verify checks nontrivial pairs only: index 0 is the identity, and its
    # correlator is no channel prediction
    cfg.write_text(json.dumps({"q": 2, "L": 2, "gate": str(gate), "t_max": 1,
                               "basis_pairs": [[1, 1], [0, 2]]}))
    capsys.readouterr()
    assert main(["circuit", "verify", str(cfg)]) == 3
    assert "basis_pairs" in _validation_error(capsys)
    assert main(["circuit", "corr", str(cfg), "-o", os.devnull]) == 0


def test_circuit_verify_checks_the_configured_pairs(tmp_path, capsys, monkeypatch):
    gate = tmp_path / "g.json"
    main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "L": 2, "gate": str(gate), "t_max": 1,
                               "basis_pairs": [[3, 2], [1, 3], [3, 3]]}))
    checked = []
    real = cli.lightcone_correlation_prediction
    monkeypatch.setattr(cli, "lightcone_correlation_prediction", lambda U, a, b, t, side: (
        checked.append((U, a, b, t, side)) or real(U, a, b, t, side)))
    assert main(["circuit", "verify", str(cfg)]) == 0
    assert _strict_json(capsys.readouterr().out)["ok"] is True
    # every configured pair, in one stack, on the M+ ray and then the M- ray
    U, basis = cli._read_gate(str(gate)), weyl_basis(2)
    assert [(t, side) for *_, t, side in checked] == [(1, "plus"), (1, "minus")]
    for V, a, b, _, _ in checked:
        assert np.array_equal(V, U)
        assert np.array_equal(a, basis[[3, 1, 3]]) and np.array_equal(b, basis[[2, 3, 3]])


def test_circuit_verify_refuses_a_cone_residual_above_its_tolerance(tmp_path, capsys,
                                                                   monkeypatch):
    # no unitary gate reaches this branch: the cone holds the channel's values
    # for every one, a non-dual Haar gate too (residual about 1e-16), so the
    # prediction is shifted here; the report is written with ok false, exit 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "L": 4, "gate": gate_to_json(cartan_gate(0.2))}))
    real = cli.lightcone_correlation_prediction
    monkeypatch.setattr(cli, "lightcone_correlation_prediction", lambda U, a, b, t, side: [
        v + 10 * CONE_TOL for v in real(U, a, b, t, side)])
    out = tmp_path / "verify.json"
    assert main(["circuit", "verify", str(cfg), "-o", str(out)]) == 3
    report = _strict_json(out.read_text())
    assert report["ok"] is False and report["cone_residual"] > CONE_TOL
    assert _validation_error(capsys).startswith(
        f"cone residual {report['cone_residual']:.3e} above {CONE_TOL:.1e}")
    assert not pathlib.Path(f"{out}.manifest.json").exists()


@pytest.mark.parametrize("q", [2, 3])
def test_circuit_verify_refuses_a_gate_that_is_not_dual(tmp_path, capsys, q):
    # a Haar gate's cone still holds the channel's values, but its interior
    # entry C+(x = 0) does not vanish: only a dual gate's does
    cfg = tmp_path / "cfg.json"
    U = sample_haar(q * q, hm.substream(37, "not-dual", q))
    cfg.write_text(json.dumps({"q": q, "L": 4, "gate": gate_to_json(U)}))
    out = tmp_path / "verify.json"
    assert main(["circuit", "verify", str(cfg), "-o", str(out)]) == 3
    report = _strict_json(out.read_text())
    assert report["ok"] is False and report["cone_residual"] <= CONE_TOL
    assert report["interior_max"] > 1e-3
    assert _validation_error(capsys).startswith(
        f"interior_max {report['interior_max']:.3e} above {CONE_TOL:.1e}")
    assert not pathlib.Path(f"{out}.manifest.json").exists()


def test_a_gate_is_read_from_stdin_for_a_dash(capsys, monkeypatch):
    text = json.dumps(gate_to_json(cartan_gate(0.2)))
    for data, code in ((text, 0), ("{", 3)):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data.encode())))
        capsys.readouterr()
        assert main(["gate", "classify", "-"]) == code
        if code == 0:
            assert _strict_json(capsys.readouterr().out)["duality"]["dual"] is True
        else:  # the refusal names where the bad JSON came from
            assert "stdin" in _validation_error(capsys)


def test_circuit_verify_builds_the_channels_once_per_ray_and_time(tmp_path, capsys, monkeypatch):
    # per t, one M+ and then one M-, each gate checked as it is built and raised to 2t
    from dualunitary import channels

    calls = []
    for name in ("build_m_plus", "build_m_minus"):
        monkeypatch.setattr(channels, name, lambda U, real=getattr(channels, name), name=name: (
            calls.append(name) or real(U)))
    check = channels.require_unitary
    monkeypatch.setattr(channels, "require_unitary", lambda U, what: (
        calls.append("require_unitary") or check(U, what=what)))
    power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power", lambda M, n: calls.append(n) or power(M, n))
    gate = tmp_path / "g.json"
    main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)])
    for L, t_max, times in ((2, 1, [1]), (4, 2, [2, 1]), (6, 3, [3, 1, 2])):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 2, "L": L, "gate": str(gate), "t_max": t_max}))
        calls.clear()
        capsys.readouterr()
        assert main(["circuit", "verify", str(cfg)]) == 0  # the nine default pairs
        assert _strict_json(capsys.readouterr().out)["ok"] is True
        assert calls == [call for t in times for call in (
            "build_m_plus", "require_unitary", 2 * t, "build_m_minus", "require_unitary", 2 * t)]


def test_circuit_verify_reaches_q3_at_t2(tmp_path, capsys):
    # a t = 2 sweep carries at most 3 legs: the 8-leg operator (657 MiB at q = 3) is never built
    for name, gate in (("dual_q3_ep8over9", ["fixture", "--name", "dual_q3_ep8over9"]),
                       ("cat_q3", ["cat", "-q", "3"])):
        path = tmp_path / f"{name}.json"
        assert main(["gate", "make", *gate, "-o", str(path)]) == 0
        cfg = tmp_path / f"{name}_cfg.json"
        cfg.write_text(json.dumps({"q": 3, "L": 4, "t_max": 2, "gate": str(path)}))
        capsys.readouterr()
        assert main(["circuit", "verify", str(cfg)]) == 0
        rep = _strict_json(capsys.readouterr().out)
        assert rep["ok"] is True and rep["t_max"] == 2 and rep["cone_residual"] < 1e-12


def test_circuit_verify_reaches_q3_at_t4(tmp_path, capsys):
    # q = 3, L = 8, t_max = 4: the centre sweep carries 5 legs; every split of
    # the former meet-in-the-middle engine left a half of 8 legs or more
    gate, cfg = tmp_path / "g.json", tmp_path / "cfg.json"
    assert main(["gate", "make", "fixture", "--name", "dual_q3_ep8over9", "-o", str(gate)]) == 0
    cfg.write_text(json.dumps({"q": 3, "L": 8, "t_max": 4, "gate": str(gate)}))
    capsys.readouterr()
    assert main(["circuit", "verify", str(cfg)]) == 0
    rep = _strict_json(capsys.readouterr().out)
    assert rep["ok"] is True and rep["t_max"] == 4
    assert rep["cone_residual"] < 1e-12 and rep["interior_max"] <= 1e-10


def _write_gate_and_config(tmp_path, U):
    gate, cfg = tmp_path / "g.json", tmp_path / "cfg.json"
    gate.write_text(json.dumps(gate_to_json(U)))
    cfg.write_text(json.dumps({"q": 3, "L": 2, "gate": str(gate)}))
    return str(gate), str(cfg)


@pytest.mark.parametrize("defect", [2e-13, 4e-11, 6e-9, 6e-7, 0.69])
def test_every_gate_taking_command_keeps_one_unitarity_rule(tmp_path, capsys, defect):
    # max|U U^dag - 1| <= 1e-12 is accepted; anything more is refused as not
    # unitary, never as a non-unital channel or a failed light-cone check
    gate, cfg = _write_gate_and_config(tmp_path, defective_gate(defect))
    for argv in (["gate", "classify", gate], ["channel", "spectrum", gate],
                 ["sweep", "haar", gate, "-N", "20"], ["circuit", "corr", cfg],
                 ["circuit", "verify", cfg]):
        capsys.readouterr()
        code = main(argv)
        if defect < 1e-12:
            assert code == 0, argv
        else:
            assert code == 3, argv
            message = _validation_error(capsys)
            assert message.startswith("gate is not unitary") and "> 1.0e-12" in message


def test_circuit_commands_refuse_a_non_unitary_gate_before_evolving(tmp_path, capsys,
                                                                   monkeypatch):
    def evolve(*_):
        raise RuntimeError("evolved")

    monkeypatch.setattr(CircuitSimulator, "_sweeps", evolve)
    for defect, code in ((2e-13, 1), (6e-9, 3)):  # a unitary gate reaches the sweeps
        _, cfg = _write_gate_and_config(tmp_path, defective_gate(defect))
        for kind in ("corr", "verify"):
            capsys.readouterr()
            assert main(["circuit", kind, cfg]) == code
            err = _strict_json(capsys.readouterr().err.splitlines()[0])
            assert (err["message"] == "evolved" if code == 1
                    else err["message"].startswith("gate is not unitary"))


def test_sweep_family_cartan_refuses_the_options_it_ignores(tmp_path, capsys):
    # cartan is a qubit family of J alone: it takes no -q, not even -q 2
    cartan = ["sweep", "family", "cartan", "--points", "2", "-N", "10"]
    for extra, word in ((["-q", "5"], "-q"), (["-q", "3"], "-q"), (["-q", "2"], "-q"),
                        (["--epsilon", "0.1"], "--epsilon"), (["--epsilon", "1.0"], "--epsilon")):
        capsys.readouterr()
        assert main([*cartan, *extra]) == 3
        assert _validation_error(capsys) == f"sweep family cartan takes no {word}"
    # diag still sweeps epsilon up to 1.0 by default
    runs = [(tmp_path / f"diag{k}.csv", extra) for k, extra in enumerate(([], ["--epsilon", "1"]))]
    for out, extra in runs:
        assert main(["sweep", "family", "diag", "-q", "2", "--points", "2", "-N", "10",
                     *extra, "-o", str(out)]) == 0
    assert runs[0][0].read_bytes() == runs[1][0].read_bytes()


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
    # non-finite gate parameters and a flow --tol <= 0 are refused before any gate is built
    for argv, flag in ((["cat", "--b", "nan"], "--b"), (["cat", "-q", "2", "--b", "inf"], "--b"),
                       (["cartan", "--J", "nan"], "--J"), (["cartan", "--J=-inf"], "--J"),
                       (["mrt", "--tol", "nan", "--max-iter", "5"], "--tol"),
                       (["mr", "--tol", "-1", "--max-iter", "5"], "--tol"),
                       (["mr", "--tol", "0", "--max-iter", "5"], "--tol")):
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


def test_oracles_refuse_a_result_outside_their_bounds(tmp_path, capsys, monkeypatch):
    # the oracles hold at their defaults, so each check is handed a result
    # outside its bound: the report is still written, and the run exits 3
    real_oracle, real_identities = cli.haar_monomial_oracle, cli.verify_reshuffle_identities
    monkeypatch.setattr(cli, "haar_monomial_oracle", lambda *a: {
        **real_oracle(*a), "z_score": ORACLE_SIGMAS + 1.0})
    monkeypatch.setattr(cli, "verify_reshuffle_identities", lambda *a: {
        **real_identities(*a), "r1_from_r2": 2 * RESHUFFLE_TOL})
    for argv, message in ((["haar-identity", "-N", "100"],
                           f"MC estimate {ORACLE_SIGMAS + 1.0:.2f} sigma from closed form"),
                          (["reshuffle-identities"],
                           f"identity residual {2 * RESHUFFLE_TOL:.3e} above {RESHUFFLE_TOL:.0e}")):
        out = tmp_path / f"{argv[0]}.json"
        assert main(["oracle", *argv, "-o", str(out)]) == 3
        assert _strict_json(out.read_text())
        assert _validation_error(capsys).startswith(message)


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
    # q = 2, L = 24: t_max = 12 is evaluated first, and its centre sweep carries
    # 13 legs (1024 MiB), refused before any other work
    cfg.write_text(json.dumps({"q": 2, "L": 24, "gate": str(gate)}))
    assert main(["circuit", "verify", str(cfg)]) == 3
    message = _strict_json(capsys.readouterr().err.splitlines()[0])["message"]
    assert "budget" in message and "13 legs" in message and "1024 MiB" in message


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
# it, then whether the process-pool module was ever loaded.
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
    # scipy, and no command starts a process pool: the Haar engine's one
    # parallel loop runs on plain threads (tests/test_parallelism_policy.py)
    assert json.loads(proc.stdout) == [False, [4, False], [0, False], [0, False], [0, False],
                                       [0, False], [0, False], False]


# Run in a fresh interpreter: calls the library functions that exponentiate a
# Hermitian generator or match two spectra, then prints whether scipy was loaded.
LIBRARY_PROBE = """
import sys
from dualunitary import constructions as co, haar_mc as hm, tensor_ops as to
co.perturbed_two_unitary(co.two_unitary_permutation(3), 0.05, hm.substream(1, "probe"))
hm.max_mixing_rate(co.cat_family(3, 1), 20, seed=2, refine_steps=5)
co.block_channel_forms(3, [to.sample_haar(3, hm.substream(3, "probe", k)) for k in range(3)])
co.unistochastic_reduction(to.sample_haar(3, hm.substream(4, "probe")))
print("scipy" in sys.modules)
"""


def test_library_runs_without_scipy():
    proc = _child_python("-c", LIBRARY_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_no_module_imports_scipy():
    for path in pathlib.Path(dualunitary.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name


def _validation_error(capsys):
    err = _strict_json(capsys.readouterr().err.splitlines()[0])
    assert err["error"] == "validation"
    return err["message"]


def test_malformed_integers_in_option_values_are_validation_errors(tmp_path, capsys):
    gate = tmp_path / "g.json"
    assert main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)]) == 0
    # --locals takes seed:<int> and nothing else, a gate file among them
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
        spec.write_text(json.dumps(perm_spec_to_json(*ols_pair(3), theta)))
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
    spec.write_text(json.dumps({**perm_spec_to_json(*ols_pair(3)), key: value}))
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


def test_circuit_refusal_names_the_default_t_max(tmp_path, capsys):
    # L = 1 with no t_max: the default L // 2 = 0 is refused, and the message
    # says it is the default; an explicit t_max = 0 keeps its own message
    gate = tmp_path / "g.json"
    main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)])
    cfg = tmp_path / "cfg.json"
    for extra, message in (({"L": 1}, "t_max must be an integer >= 1, got the default "
                                      "t_max = L // 2 = 0 for L = 1; set t_max"),
                           ({"L": 1, "t_max": 0}, "t_max must be an integer >= 1, got 0"),
                           ({"L": 2, "t_max": 0}, "t_max must be an integer >= 1, got 0")):
        cfg.write_text(json.dumps({"q": 2, "gate": str(gate), **extra}))
        for cmd in ("corr", "verify"):
            capsys.readouterr()
            assert main(["circuit", cmd, str(cfg)]) == 3
            assert _validation_error(capsys) == message
    # L = 1 with an explicit t_max runs: the ring grid is exact at any t
    cfg.write_text(json.dumps({"q": 2, "L": 1, "t_max": 1, "gate": str(gate)}))
    assert main(["circuit", "corr", str(cfg), "-o", str(tmp_path / "c.csv")]) == 0


_CSV_FLOATS = (st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-17, 0.1, 1 / 3])
               | st.floats())


@st.composite
def _corr_tables(draw):
    """(tables, batch, pairs): complex tables C[x, batch index, j] at t = 1 ..
    t_max over 2L legs, and the basis pairs whose rows `circuit corr` writes."""
    q, n_legs, t_max = draw(st.integers(2, 3)), 2 * draw(st.integers(1, 6)), draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, q * q - 1), st.integers(0, q * q - 1)),
                          min_size=1, max_size=5))
    batch = tuple(sorted({i for i, _ in pairs}))
    shape = (n_legs, len(batch), q * q)
    part = arrays(np.float64, shape, elements=_CSV_FLOATS)
    tables = {}
    for t in range(1, t_max + 1):
        tables[t] = np.empty(shape, dtype=complex)
        tables[t].real, tables[t].imag = draw(part), draw(part)
    return tables, batch, pairs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_corr_tables())
def test_circuit_corr_rows_keep_the_text_of_fmt(case):
    # one pass over the table arrays writes each row as ",".join(map(_fmt, row)),
    # the same text in chunks of any number of legs
    tables, batch, pairs = case
    header = ("x", "t", "i", "j", "value_re", "value_im")
    rows = ((0.5 * n, t, i, j, c.real, c.imag)
            for t in range(1, len(tables) + 1) for n in range(len(tables[1]))
            for i, j in pairs for c in [tables[t][n, batch.index(i), j]])
    want = "".join(",".join(map(cli._fmt, row)) + "\n" for row in itertools.chain([header], rows))
    for legs in (1, 5, cli.CORR_CHUNK_LEGS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CORR_CHUNK_LEGS", legs)
            chunks = list(cli._corr_csv(tables, batch, pairs))
        assert "".join(chunks) == want
        assert len(chunks) == 1 + len(tables) * -(-len(tables[1]) // legs)


def test_circuit_corr_grid_over_budget_is_refused_before_any_sweep(tmp_path, capsys,
                                                                    monkeypatch):
    # q = 2, L = 16: a table of the three default a_i takes 6 KiB and a t <= 2
    # sweep at most 3 KiB, so a budget of 8 KiB holds the t_max = 1 grid and
    # refuses the t_max = 2 grid (12 KiB) before its first sweep
    gate, cfg = tmp_path / "g.json", tmp_path / "cfg.json"
    assert main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)]) == 0
    monkeypatch.setattr(cs, "SUPPORT_BUDGET", 8 * 2**10)
    runs, run = [], CircuitSimulator._run
    monkeypatch.setattr(CircuitSimulator, "_run",
                        lambda self, *args: runs.append(args) or run(self, *args))
    for t_max, code in ((1, 0), (2, 3)):
        cfg.write_text(json.dumps({"q": 2, "L": 16, "t_max": t_max, "gate": str(gate)}))
        runs.clear()
        capsys.readouterr()
        assert main(["circuit", "corr", str(cfg), "-o", os.devnull]) == code
    assert runs == []
    assert _validation_error(capsys).startswith("t = 1..2 correlator tables on 32 legs: ")


def test_circuit_corr_memory_follows_its_tables(tmp_path, monkeypatch):
    # q = 2, L = 8000, t_max = 1: the table of the three default a_i takes
    # 2.9 MiB, and the CSV is written in chunks of 256 legs (63 per table),
    # never held whole
    monkeypatch.setattr(cli, "CORR_CHUNK_LEGS", 256)
    gate, cfg = tmp_path / "g.json", tmp_path / "cfg.json"
    assert main(["gate", "make", "cartan", "--J", "0.2", "-o", str(gate)]) == 0
    cfg.write_text(json.dumps({"q": 2, "L": 8000, "t_max": 1, "gate": str(gate)}))
    tracemalloc.start()
    try:
        assert main(["circuit", "corr", str(cfg), "-o", str(tmp_path / "grid.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 16 * 16000 * 3 * 4
    assert peak <= 1.5 * table, peak / table
