"""Benchmark of the `dualu` command surface of the dualunitary library.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload runs in a fresh process
(perfbench/worker.py) as a closed loop: one client calls
`dualunitary.cli.main(argv)` in-process, each op after the previous one
returned, in whole passes over the workload's op list for about --seconds
of pass time.  All inputs come from --seed.  Every op's output is
checked; see workloads.py and README.md.

--trace 0 prints the end-to-end metrics; set-up is repeated in separate
processes and its median reported.  --trace 1 runs a separate process whose
passes alternate untraced and traced and prints the per-layer metrics from
the spans, the tracing overhead and the time no layer accounts for.  Traced
numbers never feed the end-to-end metrics.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("haar_deep", "gate_atlas", "gate_flow", "circuit_cone")
# end-to-end metrics of the result line: those every workload has.  The op
# latency percentiles are printed where a run has at least MIN_OPS ops, and
# failed_ops_frac travels as "failed"/"attempted", since it is 0 on most
# workloads
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
MIN_OPS = 100
SETUP_RUNS = 3         # set-ups per run, the measuring process included
DEADLINE_S = 170.0     # a run ends within this, or fails
BLAS_THREADS = "1"


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # the program's own defaults are what gets measured
    env.pop("DUALUNITARY_WORKERS", None)
    env.pop("DUALUNITARY_SEED", None)
    return env


def spawn(args, workload, work_dir, result, deadline, extra=()):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a process")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--result", result,
           "--spawned-at", repr(time.time()), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker did not finish within the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}")
    with open(result) as fh:
        return json.load(fh)


def run_workload(args, workload, run_dir, out_dir, deadline):
    def paths(tag):
        return os.path.join(run_dir, f"{workload}-{tag}"), os.path.join(run_dir, f"{workload}-{tag}.json")

    if args.trace:
        spans = os.path.join(out_dir, f"spans-{workload}-seed{args.seed}.csv")
        res = spawn(args, workload, *paths("trace"), deadline, ("--spans", spans))
        res["spans_file"] = os.path.relpath(spans, ROOT)
        return res
    setups = []
    for k in range(SETUP_RUNS - 1):
        setups.append(spawn(args, workload, *paths(f"setup{k}"), deadline,
                            ("--setup-only",))["setup_s"])
    res = spawn(args, workload, *paths("measure"), deadline)
    setups.append(res["setup_s"])
    res["metrics"]["setup_s"] = statistics.median(setups)
    res["setup_samples"] = setups
    return res


def report(args, res):
    """Human-readable lines for one workload."""
    m = res["metrics"]
    lines = [f"== {res['workload']} seed {res['seed']} trace {args.trace}: "
             f"{res['passes']} passes x {res['ops_per_pass']} ops, "
             f"{res['failed']}/{res['attempted']} failed, {res['wrong']} wrong"]
    if args.trace:
        for name, (unit, _) in LAYER_METRICS.items():
            lines.append(f"  {name:42s} {m[name]!r:>24} {unit}")
    else:
        n = res["op_samples"]
        rows = [("setup_s", "s", f"median of {len(res['setup_samples'])} set-ups"),
                ("wall_s", "s", f"timed phase / {res['passes']} passes")]
        if n >= MIN_OPS:
            rows += [("op_p50_ms", "ms", f"n = {n}"), ("op_p90_ms", "ms", f"n = {n}")]
        rows += [("failed_ops_frac", "ratio", f"{res['failed']}/{res['attempted']}"),
                 ("peak_rss_mb", "MB", "worker process")]
        for name, unit, note in rows:
            lines.append(f"  {name:16s} {m[name]!r:>24} {unit:6s} {note}")
        if n < MIN_OPS:
            lines.append(f"  op_p50_ms, op_p90_ms not reported: {n} ops < {MIN_OPS}")
    for f in res["failures"][:20]:
        lines.append(f"  failure: {f}")
    lines.append("  env: " + json.dumps(res["env"], sort_keys=True))
    return lines


def metric_block(args, res, prefix=""):
    if args.trace:
        units = {k: u for k, (u, _) in LAYER_METRICS.items()}
    else:
        units = END_TO_END
    return {prefix + k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)

    if not os.path.isfile(os.path.join(ROOT, "src", "dualunitary", "cli.py")):
        sys.stderr.write(f"perfbench: no dualunitary sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    out_dir = os.path.join(HERE, "out")
    run_dir = os.path.join(HERE, "work", f"run-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(run_dir)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(args, w, run_dir, out_dir, deadline) for w in names]
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for res in results:
        for line in report(args, res):
            print(line)
        tag = f"{res['workload']}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
            json.dump(res, fh, indent=1)
    prefix = len(results) > 1
    metrics = {}
    for res in results:
        metrics.update(metric_block(args, res, res["workload"] + "." if prefix else ""))
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
