"""Span tracing of the dualunitary library from the benchmark's side.

`Tracer.install()` replaces every public function of the package at every
module attribute that binds it -- so the copies made by `from .x import f`
are traced too -- and the public methods of `CircuitSimulator`, with a
wrapper that records one span per call: name, start, end, parent span and
op.  `uninstall()` puts the originals back, so untraced passes run the
library unmodified.  Spans stay in memory until `write()`.

`layer_metrics()` turns the spans of a pass into the per-layer metrics named
`<module>.<group>.<quantity>`.  A span's self time is its duration minus the
durations of its child spans; every traced function belongs to exactly one
group, so the groups' self times plus the time outside any span add up to
the traced pass.
"""

import importlib
import inspect
import time

MODULES = ("tensor_ops", "invariants", "channels", "haar_mc", "constructions",
           "qubit_exact", "circuit_sim", "cli")

# function -> layer group; a module's other functions fall in `<module>.other`,
# and in `<module>` for the modules reported as one layer
GROUPS = {
    "haar_mc.substream": "haar_mc.substream",
    "haar_mc.sample_haar": "haar_mc.sample_haar",
    "haar_mc.spectral_radius_samples": "haar_mc.radius",
    "haar_mc.max_mixing_rate": "haar_mc.max_rate",
    "channels.build_m_plus": "channels.build",
    "channels.build_m_minus": "channels.build",
    "channels.deflate_trivial": "channels.build",
    "channels.unitality_residual": "channels.build",
    "channels.eigvals_schur": "channels.eigensolve",
    "channels.eigvals_companion": "channels.eigensolve",
    "channels.channel_spectrum": "channels.eigensolve",
    "channels.lightcone_correlation_prediction": "channels.prediction",
    "constructions.nearest_unitary": "constructions.polar",
    "constructions.mr_iterate": "constructions.flow",
    "constructions.mrt_iterate": "constructions.flow",
    "constructions.mr_step": "constructions.flow",
    "constructions.s_half": "constructions.flow",
    "tensor_ops.realign_r1": "tensor_ops.reshuffle",
    "tensor_ops.realign_r2": "tensor_ops.reshuffle",
    "tensor_ops.partial_transpose_t1": "tensor_ops.reshuffle",
    "tensor_ops.partial_transpose_t2": "tensor_ops.reshuffle",
    "tensor_ops.gate_to_json": "tensor_ops.gate_json",
    "tensor_ops.gate_from_json": "tensor_ops.gate_json",
    "circuit_sim.build_floquet": "circuit_sim.floquet",
    "circuit_sim.translation_matrix": "circuit_sim.floquet",
    "circuit_sim.CircuitSimulator.power": "circuit_sim.power",
    "circuit_sim.CircuitSimulator.heisenberg": "circuit_sim.heisenberg",
    "circuit_sim.CircuitSimulator.embed": "circuit_sim.embed",
}
WHOLE_MODULES = ("invariants", "cli", "qubit_exact")

# the argument position of the sample count of each Monte-Carlo estimator
SAMPLE_COUNT_ARG = {
    "haar_mc.spectral_radius_samples": 1,
    "haar_mc.max_mixing_rate": 1,
    "haar_mc.avg_norm_power": 2,
    "haar_mc.haar_monomial_oracle": 2,
}

# (unit, better) of every per-layer metric, in report order
LAYER_METRICS = {
    "haar_mc.samples": ("count", "higher"),
    "haar_mc.substream.calls": ("count", "lower"),
    "haar_mc.substream.self_s": ("s", "lower"),
    "haar_mc.sample_haar.calls": ("count", "lower"),
    "haar_mc.sample_haar.self_s": ("s", "lower"),
    "haar_mc.radius.self_s": ("s", "lower"),
    "haar_mc.max_rate.self_s": ("s", "lower"),
    "haar_mc.other.self_s": ("s", "lower"),
    "haar_mc.us_per_sample": ("us", "lower"),
    "channels.build.calls": ("count", "lower"),
    "channels.build.self_s": ("s", "lower"),
    "channels.eigensolve.calls": ("count", "lower"),
    "channels.eigensolve.self_s": ("s", "lower"),
    "channels.prediction.self_s": ("s", "lower"),
    "channels.other.self_s": ("s", "lower"),
    "constructions.polar.calls": ("count", "lower"),
    "constructions.polar.self_s": ("s", "lower"),
    "constructions.flow.self_s": ("s", "lower"),
    "constructions.flow.iterations": ("count", "lower"),
    "constructions.flow.converged": ("count", "higher"),
    "constructions.flow.rank_deficient_steps": ("count", "lower"),
    "constructions.other.self_s": ("s", "lower"),
    "invariants.calls": ("count", "lower"),
    "invariants.self_s": ("s", "lower"),
    "tensor_ops.reshuffle.calls": ("count", "lower"),
    "tensor_ops.reshuffle.self_s": ("s", "lower"),
    "tensor_ops.gate_json.self_s": ("s", "lower"),
    "tensor_ops.other.self_s": ("s", "lower"),
    "circuit_sim.floquet.calls": ("count", "lower"),
    "circuit_sim.floquet.self_s": ("s", "lower"),
    "circuit_sim.power.self_s": ("s", "lower"),
    "circuit_sim.heisenberg.calls": ("count", "lower"),
    "circuit_sim.heisenberg.self_s": ("s", "lower"),
    "circuit_sim.embed.calls": ("count", "lower"),
    "circuit_sim.embed.self_s": ("s", "lower"),
    "circuit_sim.other.self_s": ("s", "lower"),
    "circuit_sim.max_dim": ("count", "lower"),
    "circuit_sim.flops_computed": ("flop", "lower"),
    "circuit_sim.bytes_computed": ("B", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unaccounted_s": ("s", "lower"),
}


def group_of(name):
    if name in GROUPS:
        return GROUPS[name]
    module = name.split(".", 1)[0]
    return module if module in WHOLE_MODULES else module + ".other"


def _circuit_probe(name, args):
    """(D, matmuls, bytes) a circuit_sim call computes, from its arguments.

    Counts dense D x D complex matmuls (8 D^3 real flops, 3 * 16 D^2 bytes
    each) and the 16 D^2 bytes of an embedded operator; krons, copies and
    cache effects are left out, so the numbers are labelled as computed.
    """
    if name == "circuit_sim.build_floquet":
        cfg = args[0]
        return cfg.q ** (2 * cfg.L), 3, 0
    sim = args[0]
    if name == "circuit_sim.CircuitSimulator.power":
        return sim.dim, int(args[1] not in sim._powers), 0
    if name == "circuit_sim.CircuitSimulator.heisenberg":
        return sim.dim, 2, 0
    if name == "circuit_sim.CircuitSimulator.embed":
        return sim.dim, 0, 16 * sim.dim**2
    return None


class Tracer:
    def __init__(self):
        import dualunitary

        self.modules = [dualunitary] + [importlib.import_module("dualunitary." + m) for m in MODULES]
        self.names = []        # span name of each name id
        self.spans = []        # (name id, start ns, end ns, parent, pass, op)
        self.extra = {}        # span index -> what the call computed
        self.stack = []
        self.pass_index = -1
        self.op_index = -1
        self._patches = []
        self._wrappers = {}

    def _wrapper(self, fn, name):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, extra = self.spans, self.stack, self.extra
        clock = time.perf_counter_ns
        n_arg = SAMPLE_COUNT_ARG.get(name)
        is_flow = name in ("constructions.mr_iterate", "constructions.mrt_iterate")
        is_circuit = name.startswith("circuit_sim.")

        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            if n_arg is not None:
                extra[i] = kwargs["n"] if "n" in kwargs else args[n_arg]
            elif is_circuit:
                probe = _circuit_probe(name, args)
                if probe is not None:
                    extra[i] = probe
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (name_id, t0, t1, parent, self.pass_index, self.op_index)
            if is_flow:
                trace = result[1]
                extra[i] = (trace.n_iter, trace.converged, trace.rank_deficient_steps)
            return result

        wrapper.__wrapped__ = fn
        self._wrappers[fn] = wrapper
        return wrapper

    def _targets(self):
        """(owner, attribute, function, span name) for every binding to wrap."""
        from dualunitary.circuit_sim import CircuitSimulator

        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("dualunitary.")):
                    home = obj.__module__.split(".", 1)[1]
                    yield mod, attr, obj, f"{home}.{obj.__name__}"
        for attr, obj in list(vars(CircuitSimulator).items()):
            if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                yield CircuitSimulator, attr, obj, f"circuit_sim.CircuitSimulator.{attr}"

    def install(self):
        for owner, attr, fn, name in list(self._targets()):
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, name))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def write(self, path):
        """All spans as CSV, times in ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,pass,op\n")
            for i, (nid, t0, t1, parent, p, op) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{t0 - origin},{t1 - origin},{parent},{p},{op}\n")

    def layer_metrics(self, pass_index):
        """Per-layer metrics of one traced pass (times in s, counts per pass)."""
        spans = self.spans
        groups = [group_of(n) for n in self.names]
        idx = [i for i, s in enumerate(spans) if s[4] == pass_index]
        child = {}
        for i in idx:
            _, t0, t1, parent, _, _ = spans[i]
            if parent >= 0:
                child[parent] = child.get(parent, 0) + (t1 - t0)
        self_ns, calls = {}, {}
        above = {}             # span -> frozenset of groups on its ancestor chain
        samples = 0
        outer_haar_ns = 0
        flow_iter = flow_conv = flow_rank = 0
        max_dim = flops = nbytes = 0
        for i in idx:
            nid, t0, t1, parent, _, _ = spans[i]
            g = groups[nid]
            anc = above[parent] | {groups[spans[parent][0]]} if parent >= 0 else frozenset()
            above[i] = anc
            self_ns[g] = self_ns.get(g, 0) + (t1 - t0) - child.get(i, 0)
            if g not in anc:
                calls[g] = calls.get(g, 0) + 1
            if g.startswith("haar_mc") and not any(a.startswith("haar_mc") for a in anc):
                outer_haar_ns += t1 - t0
                # a Haar draw outside any estimator (a seed, a local) is a sample
                samples += self.names[nid] == "haar_mc.sample_haar"
            x = self.extra.get(i)
            if x is None:
                continue
            name = self.names[nid]
            if name in SAMPLE_COUNT_ARG:
                samples += x
            elif name.startswith("constructions."):
                flow_iter += x[0]
                flow_conv += int(x[1])
                flow_rank += x[2]
            else:
                dim, matmuls, b = x
                max_dim = max(max_dim, dim)
                flops += matmuls * 8 * dim**3
                nbytes += matmuls * 48 * dim**2 + b
        s = {g: v * 1e-9 for g, v in self_ns.items()}
        out = {
            "haar_mc.samples": samples,
            "haar_mc.us_per_sample": outer_haar_ns * 1e-3 / samples if samples else 0.0,
            "constructions.flow.iterations": flow_iter,
            "constructions.flow.converged": flow_conv,
            "constructions.flow.rank_deficient_steps": flow_rank,
            "circuit_sim.max_dim": max_dim,
            "circuit_sim.flops_computed": flops,
            "circuit_sim.bytes_computed": nbytes,
            "trace.spans": len(idx),
        }
        for metric in LAYER_METRICS:
            if metric in out or metric.startswith("trace."):
                continue
            g, quantity = metric.rsplit(".", 1)
            out[metric] = s.get(g, 0.0) if quantity == "self_s" else calls.get(g, 0)
        out["_self_total_s"] = sum(s.values())
        return out
