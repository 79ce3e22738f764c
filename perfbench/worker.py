"""One benchmark process: set up a workload, then run its timed phase.

Started by run.py, never by hand.  With --setup-only it stops after set-up
and reports only the set-up time.  Otherwise it runs whole passes over the
workload's ops for about --seconds of pass time, checks every
op's output after each pass, and writes a result JSON.  With --trace 1 the
passes alternate untraced and traced, and the result holds per-layer metrics
and the tracing overhead instead of end-to-end metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "DUALUNITARY_WORKERS")


def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dualunitary")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def load_library():
    sys.path.insert(0, SRC)
    import dualunitary

    where = os.path.dirname(os.path.abspath(dualunitary.__file__))
    if where != os.path.join(SRC, "dualunitary"):
        raise RuntimeError(f"dualunitary imported from {where}, not from this checkout")
    from dualunitary import cli

    return cli


def run_op(cli, op):
    """One in-process `dualu` call: (seconds, exit code or None, stderr)."""
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, err.getvalue()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this CSV")
    args = ap.parse_args()

    cli = load_library()
    import workloads

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    os.makedirs(args.work_dir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.work_dir, reference)
    wl.setup()
    # warm-up results are not checked: a failing op shows in the timed passes
    for op in wl.warmup():
        run_op(cli, op)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    ops = wl.ops()
    passes = []        # {"wall_s", "latencies", "traced"}
    failures = set()   # distinct failure reasons, by op index
    attempted = failed = wrong = 0
    measured = 0.0
    # whole passes, stopping once another pass would end more than half a
    # pass past --seconds; a traced run alternates untraced and traced passes,
    # at least two of each
    min_passes = 4 if tracer is not None else 1
    while len(passes) < min_passes or measured * (1 + 0.5 / len(passes)) < args.seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_index = len(passes)
            tracer.install()
        records = []
        t0 = time.perf_counter()
        try:
            for k, op in enumerate(ops):
                if traced:
                    tracer.op_index = k
                records.append(run_op(cli, op))
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        measured += wall
        checked = [(op, wl.verdict(op, code, err)) for op, (_, code, err) in zip(ops, records)]
        failures.update(f"op {k}: {v.reason}" for k, (_, v) in enumerate(checked) if v.failed)
        short = wl.shortfall(checked)
        if short:
            failures.add(f"pass: {short} fewer converged seeds than the baseline")
        attempted += len(ops)
        failed += sum(v.failed for _, v in checked) + short
        wrong += sum(v.wrong for _, v in checked)
        passes.append({"wall_s": wall, "latencies": [r[0] for r in records], "traced": traced})

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": sorted(failures),
        "env": environment(),
    }
    if tracer is None:
        lat_ms = [x * 1e3 for p in passes for x in p["latencies"]]
        result["metrics"] = {
            "setup_s": setup_s,
            "wall_s": measured / len(passes),
            "op_p50_ms": percentile(lat_ms, 50),
            "op_p90_ms": percentile(lat_ms, 90),
            "failed_ops_frac": failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["op_samples"] = len(lat_ms)
        result["op_median_ms"] = {
            f"{k}:{op.kind}:{op.info.get('gate', op.info.get('k', ''))}":
                statistics.median(p["latencies"][k] for p in passes) * 1e3
            for k, op in enumerate(ops)
        }
    else:
        per_pass = []
        for i, p in enumerate(passes):
            if p["traced"]:
                m = tracer.layer_metrics(i)
                m["trace.wall_s"] = p["wall_s"]
                m["trace.unaccounted_s"] = p["wall_s"] - m.pop("_self_total_s")
                per_pass.append(m)
        layer = {}
        for m in per_pass[0]:
            v = [pp[m] for pp in per_pass]
            # counts repeat exactly from pass to pass; keep them whole numbers
            layer[m] = statistics.median_low(v) if isinstance(v[0], int) else statistics.median(v)
        layer["trace.untraced_wall_s"] = statistics.median(
            p["wall_s"] for p in passes if not p["traced"])
        layer["trace.overhead_frac"] = layer["trace.wall_s"] / layer["trace.untraced_wall_s"] - 1.0
        result["metrics"] = layer
        result["traced_passes"] = len(per_pass)
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
