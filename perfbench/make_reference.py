"""Recompute perfbench/reference.json, the baseline values the checks use.

    python3 perfbench/make_reference.py [--part haar|flow|all] [--workers 2]

haar: the mean |lambda_1| of each haar_deep gate, from the library's own
estimator at 10^6 samples on REF_SEED, which no workload op uses (op seeds
are 31-bit); gates already in the file are kept, so delete an entry to
recompute it.  flow: the per-group convergence rate of the gate_flow ops over
many seeds, and the exact converged count per pass on the development and
held-out seeds.  Run it only on the baseline program: a reference taken
from a changed program proves nothing.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from dualunitary import cli  # noqa: E402
from dualunitary.haar_mc import avg_spectral_radius  # noqa: E402

import workloads  # noqa: E402

REF_SEED = 2**31 + 12345
HAAR_SAMPLES = 10**6
DEV_SEED = 1
HELD_OUT_SEED = 20261017
RATE_SEEDS = {"mrt3": 400, "mr3": 400, "mrt4": 200, "mr4": 200}
PATH = os.path.join(HERE, "reference.json")


def haar_reference(workers, known):
    """Reference means; gates already in `known` (same seed and N) are kept."""
    same = known.get("seed") == REF_SEED and known.get("n") == HAAR_SAMPLES
    gates = dict(known.get("gates", {})) if same else {}
    for g in workloads.HaarDeep.GATES:
        if g in gates:
            continue
        U = workloads.HaarDeep.gate(g)
        est = avg_spectral_radius(U, HAAR_SAMPLES, REF_SEED, workers=workers)
        gates[g] = {"q": int(round(U.shape[0] ** 0.5)), "mean": est.mean, "stderr": est.stderr}
        print(g, gates[g], flush=True)
    return {"seed": REF_SEED, "n": HAAR_SAMPLES, "estimator": "avg_spectral_radius",
            "gates": gates}


def flow_reference(work_dir):
    def converged(ops):
        with contextlib.redirect_stderr(io.StringIO()):
            return sum(cli.main(op.argv) == 0 for op in ops)

    rates = {}
    for fam, q, _, cap in workloads.GateFlow.GROUPS:
        n = RATE_SEEDS[f"{fam}{q}"]
        flow = workloads.GateFlow(REF_SEED, work_dir, {})
        ops = [flow._op(fam, q, workloads.derive(REF_SEED, "rate", fam, q, k), cap, "rate")
               for k in range(n)]
        rates[f"{fam}{q}"] = converged(ops) / n
        print(fam, q, "cap", cap, "rate", rates[f"{fam}{q}"], flush=True)
    by_seed = {}
    for seed in (DEV_SEED, HELD_OUT_SEED):
        flow = workloads.GateFlow(seed, work_dir, {})
        flow.setup()
        by_seed[str(seed)] = converged(flow.ops())
        print("seed", seed, "converged per pass", by_seed[str(seed)], flush=True)
    return {"groups": [list(g) for g in workloads.GateFlow.GROUPS], "rate_seed": REF_SEED,
            "rate_samples": RATE_SEEDS, "convergence_rate": rates, "converged_by_seed": by_seed}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", choices=("haar", "flow", "all"), default="all")
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    ref = {}
    if os.path.exists(PATH):
        with open(PATH) as fh:
            ref = json.load(fh)
    ref["seeds"] = {"development": DEV_SEED, "held_out": HELD_OUT_SEED,
                    "reference": REF_SEED}
    if args.part in ("haar", "all"):
        ref["haar_deep"] = haar_reference(args.workers, ref.get("haar_deep", {}))
    if args.part in ("flow", "all"):
        work_dir = os.path.join(HERE, "work", f"reference-{os.getpid()}")
        os.makedirs(work_dir)
        try:
            ref["gate_flow"] = flow_reference(work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    with open(PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
