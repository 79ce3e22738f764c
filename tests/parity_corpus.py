"""The byte-parity corpus: CLI argvs and the sha256 of what each one emits.

`tests/parity_corpus.json` lists, for every argv of `ARGVS`, its exit code,
the sha256 of its stdout and of its `-o` file, and the sha256 of its error
line (the first stderr line of a failed run).  `test_parity_corpus.py` runs
every argv in-process and compares the digests.

Run `PYTHONPATH=src python tests/parity_corpus.py` to rewrite the data file after a
deliberate output change; it prints each entry whose record changed, and
every such change is named in CHANGES.md.

The argvs run in order in one directory: `{dir}` stands for it.  The gate
files the later argvs read are written by the `gate make` argvs before them;
the other inputs (`INPUTS`) are written first.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import numpy as np
import scipy

from dualunitary.cli import main
from dualunitary.constructions import PERM_OLS_EXAMPLE_Q3, fixtures, perm_spec_to_json

DATA = pathlib.Path(__file__).with_name("parity_corpus.json")

FIXTURES = sorted(fixtures())
CATS = [f"cat_q{q}" for q in (2, 3, 4, 5, 6)] + [f"cat_q{q}_b1" for q in (2, 3, 4)]


def _gate(name):
    return "{dir}/" + name + ".json"


def _inputs():
    """name -> text of every input file that no argv writes."""
    good = {"q": 2, "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}
    bad_gates = {
        "bad_nan": {**good, "re": [[float("nan")] * 4] + good["re"][1:]},
        "bad_q_float": {**good, "q": 2.0},
        "bad_q_negative": {**good, "q": -3},
        "bad_q_bool": {**good, "q": True},
        "bad_no_im": {"q": 2, "re": good["re"]},
        "bad_im_rows": {**good, "im": good["im"][:3]},
        "bad_huge": {**good, "re": [[10**400] * 4] * 4},
        "bad_list": [1, 2],
        "bad_double_encoded": json.dumps(good),
        "bad_not_unitary": {**good, "re": [[1.0] * 4] * 4},
    }
    texts = {f"{name}.json": json.dumps(obj, allow_nan=True) for name, obj in bad_gates.items()}
    texts["bad_utf8.json"] = '{"q": 2, "re": "\udcff"}'
    texts["bad_syntax.json"] = "{not json"
    K, L = PERM_OLS_EXAMPLE_Q3
    texts["perm_ols_q3.json"] = json.dumps(perm_spec_to_json(K, L))
    texts["perm_bad_theta.json"] = json.dumps(perm_spec_to_json(K, L, np.zeros((2, 2))))
    texts["perm_bad_k.json"] = json.dumps({**perm_spec_to_json(K, L), "K": [[1, 2, 3], [1]]})
    # the four circuit_cone shapes, then refused configs
    configs = {
        "cone0": {"q": 2, "L": 5, "t_max": 1, "gate": _gate("diag_q2_s1")},
        "cone1": {"q": 3, "L": 3, "gate": _gate("dual_q3_ep8over9")},
        "cone2": {"q": 2, "L": 4, "gate": _gate("cat_q2_b0.7")},
        "cone3": {"q": 3, "L": 3, "gate": _gate("block_q3_s1")},
        "cone_pairs": {"q": 3, "L": 2, "t_max": 1, "gate": _gate("dual_q3_ep8over9"),
                       "basis_pairs": [[1, 1], [1, 2]]},
        "cfg_t_max_zero": {"q": 2, "L": 2, "t_max": 0, "gate": _gate("cartan_0.2")},
        "cfg_t_max_window": {"q": 2, "L": 2, "t_max": 2, "gate": _gate("cartan_0.2")},
        "cfg_unknown_key": {"q": 2, "L": 2, "basis_pair": [[1, 1]], "gate": _gate("cartan_0.2")},
        "cfg_bad_pairs": {"q": 2, "L": 2, "t_max": 1, "basis_pairs": [[1, 7]],
                          "gate": _gate("cartan_0.2")},
        "cfg_gate_number": {"q": 2, "L": 2, "gate": 3.5},
        "cfg_budget": {"q": 2, "L": 9, "gate": _gate("cartan_0.2")},
        "cfg_inline": {"q": 2, "L": 2, "gate": good},
    }
    texts.update({f"{name}.json": json.dumps(cfg) for name, cfg in configs.items()})
    return texts


def _argvs():
    out = []

    def make(name, *args):
        out.append(["gate", "make", *args, "-o", _gate(name)])

    for name in FIXTURES:
        make(name, "fixture", "--name", name)
    for q in (2, 3, 4, 5, 6):
        make(f"cat_q{q}", "cat", "-q", str(q))
    for q in (2, 3, 4):
        make(f"cat_q{q}_b1", "cat", "-q", str(q), "--b", "1")
    make("cat_q2_b0.7", "cat", "-q", "2", "--b", "0.7")
    for J in ("0.2", "0.3926990817"):
        make(f"cartan_{J}", "cartan", "--J", J)
    make("perm_ols_q3", "perm", "--spec", "{dir}/perm_ols_q3.json")
    for seed in ("1", "2", "3"):
        make(f"block_q3_s{seed}", "block", "-q", "3", "--seed", seed)
        make(f"block_q4_s{seed}", "block", "-q", "4", "--sizes", "8,4,4", "--seed", seed)
        make(f"diag_q2_s{seed}", "diag", "-q", "2", "--epsilon", "0.5", "--seed", seed)
        make(f"diag_q3_s{seed}", "diag", "-q", "3", "--seed", seed)
    # mr seed 2 and mrt seed 4 hit the step cap: exit 4
    for fam, seeds in (("mr", "123"), ("mrt", "1234")):
        for seed in seeds:
            make(f"{fam}_q3_s{seed}", fam, "-q", "3", "--seed", seed)

    for name in FIXTURES + CATS + ["perm_ols_q3"]:
        out.append(["gate", "classify", _gate(name)])
        for side in ("plus", "minus"):
            for fmt in ("csv", "json"):
                for locals_ in ([], ["--locals", "seed:5"]):
                    out.append(["channel", "spectrum", _gate(name), "--side", side,
                                "--format", fmt, *locals_])

    out.append(["sweep", "haar", *(_gate(g) for g in ("dual_q3_d3s", "dual_q4_d4s")),
                "-N", "300", "--seed", "13"])
    out.append(["sweep", "haar", *(_gate(g) for g in ("dual_q3_d2s", "cat_q3", "diag_q3_s1")),
                "-N", "200", "--seed", "7"])
    out.append(["sweep", "family", "cartan", "--points", "3", "-N", "50", "--seed", "1"])
    out.append(["sweep", "family", "diag", "-q", "3", "--points", "3", "-N", "100",
                "--seed", "5"])

    for k, kind in enumerate(("corr", "verify", "verify", "corr")):
        out.append(["circuit", kind, f"{{dir}}/cone{k}.json"])
    for kind in ("corr", "verify"):
        out.append(["circuit", kind, "{dir}/cone_pairs.json"])
        out.append(["circuit", kind, "{dir}/cfg_inline.json"])

    out.append(["perm", "enumerate", "-q", "2"])
    out.append(["perm", "enumerate", "-q", "3"])
    out.append(["oracle", "haar-identity", "-q", "2", "-N", "4000", "--seed", "2"])
    out.append(["oracle", "haar-identity", "-q", "3", "-N", "500", "--seed", "3"])
    out.append(["oracle", "reshuffle-identities", "-q", "3", "--seed", "7"])
    out.append(["oracle", "reshuffle-identities", "-q", "4", "--seed", "7"])

    # refused inputs: exit 3 with a validation error line
    for name in ("bad_nan", "bad_q_float", "bad_q_negative", "bad_q_bool", "bad_no_im",
                 "bad_im_rows", "bad_huge", "bad_list", "bad_double_encoded", "bad_not_unitary",
                 "bad_utf8", "bad_syntax"):
        out.append(["gate", "classify", _gate(name)])
    out.append(["sweep", "haar", _gate("bad_nan"), "-N", "10"])
    out.append(["gate", "classify", "{dir}/missing.json"])
    out.append(["gate", "make", "fixture", "--name", "nope"])
    out.append(["gate", "make", "block", "-q", "3", "--sizes", "4,5"])
    out.append(["gate", "make", "block", "--sizes", "3,x"])
    out.append(["gate", "make", "diag", "-q", "-2"])
    out.append(["gate", "make", "cat", "--b", "nan"])
    out.append(["gate", "make", "cartan", "--J=-inf"])
    out.append(["gate", "make", "mr", "--max-iter", "0"])
    out.append(["gate", "make", "perm"])
    out.append(["gate", "make", "perm", "--spec", "{dir}/perm_bad_theta.json"])
    out.append(["gate", "make", "perm", "--spec", "{dir}/perm_bad_k.json"])
    for locals_ in ("seed:abc", "7"):
        out.append(["channel", "spectrum", _gate("cartan_0.2"), "--locals", locals_])
    out.append(["sweep", "haar", _gate("cartan_0.2"), "-N", "0"])
    out.append(["sweep", "haar", _gate("cartan_0.2"), "-N", "10", "--workers", "0"])
    out.append(["sweep", "family", "cartan", "--points", "0", "-N", "10"])
    out.append(["oracle", "haar-identity", "-q", "2", "-N", "1"])
    out.append(["perm", "enumerate", "-q", "1"])
    for name in ("cfg_t_max_zero", "cfg_unknown_key", "cfg_bad_pairs", "cfg_gate_number",
                 "cfg_budget"):
        out.append(["circuit", "corr", f"{{dir}}/{name}.json"])
    out.append(["circuit", "verify", "{dir}/cfg_t_max_window.json"])
    return out


INPUTS = _inputs()
ARGVS = _argvs()


def entry_id(argv):
    return " ".join(argv).replace("{dir}/", "")


def _sha(data):
    return hashlib.sha256(data).hexdigest() if data else None


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_corpus(argvs, inputs, directory):
    """entry_id -> {"exit", "stdout", "output", "error"} of every argv, run in order."""
    directory = str(directory)
    for name, text in inputs.items():
        pathlib.Path(directory, name).write_text(text.replace("{dir}", directory),
                                                 errors="surrogateescape")
    records = {}
    for argv in argvs:
        real = [a.replace("{dir}", directory) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(real)
        target = real[real.index("-o") + 1] if "-o" in real else None
        path = pathlib.Path(target) if target else None
        error = err.getvalue().splitlines()[0].replace(directory, "{dir}") if code else ""
        records[entry_id(argv)] = {
            "exit": code,
            "stdout": _sha(out.getvalue().encode()),
            "output": _sha(path.read_bytes()) if path and path.is_file() else None,
            "error": _sha(error.encode()),
        }
    return records


def load():
    return json.loads(DATA.read_text())


def rewrite():
    """Rerun the corpus and rewrite the data file; return the ids of the
    entries whose record changed, was added or was removed."""
    old = {entry_id(e["argv"]): e for e in load()["entries"]} if DATA.exists() else {}
    with tempfile.TemporaryDirectory() as d:
        records = run_corpus(ARGVS, INPUTS, d)
    entries = [{"argv": argv, **records[entry_id(argv)]} for argv in ARGVS]
    DATA.write_text(json.dumps({"versions": versions(), "inputs": INPUTS, "entries": entries},
                               indent=1) + "\n")
    new = {entry_id(e["argv"]): e for e in entries}
    return ([k for k in new if old.get(k) != new[k]]
            + [f"(removed) {k}" for k in old if k not in new])


if __name__ == "__main__":
    for line in rewrite():
        print(line)
