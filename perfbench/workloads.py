"""The benchmark workloads: inputs made from the seed, the ops of one pass and
the check every op's output must pass.

Every op is one call of the public entry point `dualunitary.cli.main(argv)`,
issued after the previous one returned.  The same op list is repeated in
passes; outputs are checked after each pass, outside its timing.  README.md
says why each workload exists and which layers it stresses.

An op fails when it exits with an unexpected code or its output fails a
check.  A failure is also *wrong* when the op produced a number that
contradicts a bound or a reference; a missing number (NaN, no output) fails
the op without being wrong.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from dualunitary.channels import lightcone_correlation_prediction
from dualunitary.circuit_sim import weyl_basis
from dualunitary.constructions import (
    cat_family,
    cat_map,
    diagonal_dual_sample,
    fixtures,
    random_uniform_block_gate,
)
from dualunitary.qubit_exact import cartan_gate, ep_cartan

# max-entry defect below which a written gate counts as unitary
GATE_TOL = 1e-8
# slack on analytic bounds that the outputs must respect
BOUND_TOL = 1e-9


def derive(seed, *labels):
    """A 31-bit seed for one labelled input, made from the benchmark seed."""
    digest = hashlib.blake2b(repr((seed,) + labels).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


def write_gate(path, U):
    """The CLI's gate interchange format {"q", "re", "im"}."""
    U = np.asarray(U, dtype=complex)
    q = math.isqrt(U.shape[0])
    with open(path, "w") as fh:
        json.dump({"q": q, "re": U.real.tolist(), "im": U.imag.tolist()}, fh)


def read_gate(path):
    with open(path) as fh:
        obj = json.load(fh)
    return int(obj["q"]), np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])


def _reshuffle(U, q, perm):
    return U.reshape(q, q, q, q).transpose(perm).reshape(q * q, q * q)


def _unitarity_defect(U):
    return float(np.abs(U @ U.conj().T - np.eye(U.shape[0])).max())


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Op:
    kind: str                 # op type; one warm-up op per type runs in set-up
    argv: list
    output: str
    info: dict = field(default_factory=dict)


@dataclass
class Verdict:
    failed: bool = False
    wrong: bool = False
    reason: str = ""


OK = Verdict()


def failed(reason):
    return Verdict(failed=True, reason=reason)


def wrong(reason):
    return Verdict(failed=True, wrong=True, reason=reason)


def exit_verdict(code, err):
    if code is None:
        return failed("raised: " + err.strip().splitlines()[-1] if err.strip() else "raised")
    return failed(f"exit code {code}: {err.strip()[:200]}")


class Workload:
    name = ""

    def __init__(self, seed, work_dir, reference):
        self.seed = seed
        self.work_dir = work_dir
        self.reference = reference

    def path(self, name):
        return os.path.join(self.work_dir, name)

    def setup(self):
        """Generate the inputs and write them to the work directory."""
        raise NotImplementedError

    def warmup(self):
        """One small op per op type, run during set-up and not checked."""
        raise NotImplementedError

    def ops(self):
        """The ops of one pass, in order."""
        raise NotImplementedError

    def check(self, op, code, err):
        raise NotImplementedError

    def verdict(self, op, code, err):
        """check(), counting output that cannot be parsed as wrong."""
        try:
            return self.check(op, code, err)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return wrong(f"unreadable output: {exc!r}")

    def shortfall(self, checked):
        """Ops missing from a pass, given its (op, verdict) pairs; counted failed."""
        return 0


# ---------------------------------------------------------------------------

class HaarDeep(Workload):
    name = "haar_deep"
    N = 1500
    GATES = ("dual_q3_d3s", "dual_q3_d2s", "dual_q4_d4s", "cat_q3")

    @staticmethod
    def gate(name):
        return cat_map(3) if name == "cat_q3" else fixtures()[name]

    def setup(self):
        for g in self.GATES:
            write_gate(self.path(g + ".json"), self.gate(g))

    def _op(self, g, n, tag):
        out = self.path(f"{tag}_{g}.csv")
        argv = ["sweep", "haar", self.path(g + ".json"), "-N", str(n),
                "--seed", str(derive(self.seed, self.name, g)), "-o", out]
        return Op("sweep", argv, out, {"gate": g})

    def warmup(self):
        return [self._op(self.GATES[0], 20, "warmup")]

    def ops(self):
        return [self._op(g, self.N, "sweep") for g in self.GATES]

    def check(self, op, code, err):
        if code != 0:
            return exit_verdict(code, err)
        (row,) = _read_rows(op.output)
        g = op.info["gate"]
        ref = self.reference["haar_deep"]["gates"][g]
        q = int(ref["q"])
        ep, mean, se = float(row["e_p"]), float(row["mean_lambda1"]), float(row["stderr"])
        # the absolute 1e-12 lets the cat map's zero modes (|lambda1| ~ 1e-16,
        # far below the library's 1e-9 zero tolerance) differ in rounding
        if abs(mean - ref["mean"]) > 5 * math.hypot(se, ref["stderr"]) + 1e-12:
            return wrong(f"mean |lambda1| {mean} is not within 5 stderr of {ref['mean']}")
        if mean > math.sqrt((q * q - 1) * (1 - ep)) + BOUND_TOL:
            return wrong(f"mean |lambda1| {mean} above the norm bound at e_p = {ep}")
        if math.isnan(float(row["mu_plus"])):
            return failed("mu_plus is nan")
        return OK


# ---------------------------------------------------------------------------

class GateAtlas(Workload):
    name = "gate_atlas"
    N = 100
    # (family, q, gates per pass); parameters are drawn from the seed
    FAMILIES = (("diag", 3, 5), ("diag", 4, 3), ("block", 3, 5), ("block", 4, 3),
                ("cartan", 2, 5), ("cat", 2, 3), ("cat", 3, 3), ("cat", 4, 3))

    def setup(self):
        self.gates = []
        for fam, q, count in self.FAMILIES:
            for k in range(count):
                rng = np.random.default_rng(derive(self.seed, self.name, fam, q, k))
                info = {"family": fam, "q": q}
                if fam == "diag":
                    U = diagonal_dual_sample(q, float(rng.uniform(0.2, 1.0)), rng)
                elif fam == "block":
                    U = random_uniform_block_gate(q, rng)
                elif fam == "cartan":
                    info["J"] = float(rng.uniform(0.0, math.pi / 4))
                    U = cartan_gate(info["J"])
                else:
                    U = cat_family(q, float(rng.uniform(0.0, 1.0)))
                name = f"{fam}{q}_{k}"
                write_gate(self.path(name + ".json"), U)
                self.gates.append((name, info))
        self.ep = {}

    def _ops(self, name, info, tag, n):
        gate = self.path(name + ".json")
        info = dict(info, gate=name)
        out = self.path(f"{tag}_{name}")
        locals_seed = derive(self.seed, self.name, name, "locals")
        sweep_seed = derive(self.seed, self.name, name, "sweep")
        return [
            Op("classify", ["gate", "classify", gate, "-o", out + ".cls.json"],
               out + ".cls.json", info),
            Op("spectrum", ["channel", "spectrum", gate, "--locals", f"seed:{locals_seed}",
                            "-o", out + ".spec.csv"], out + ".spec.csv", info),
            Op("sweep", ["sweep", "haar", gate, "-N", str(n), "--seed", str(sweep_seed),
                         "-o", out + ".sweep.csv"], out + ".sweep.csv", info),
        ]

    def warmup(self):
        name, info = self.gates[0]
        return self._ops(name, info, "warmup", 10)

    def ops(self):
        return [op for name, info in self.gates for op in self._ops(name, info, "op", self.N)]

    def check(self, op, code, err):
        if code != 0:
            return exit_verdict(code, err)
        info = op.info
        q = info["q"]
        if op.kind == "classify":
            with open(op.output) as fh:
                rep = json.load(fh)
            ep = float(rep["e_p"])
            self.ep[info["gate"]] = ep
            if not rep["duality"]["dual"]:
                return wrong("gate not classified dual")
            if "J" in info and abs(ep - ep_cartan(info["J"])) > 1e-12:
                return wrong(f"e_p {ep} differs from ep_cartan {ep_cartan(info['J'])}")
            if info["family"] in ("diag", "block") and ep > q / (q + 1) + 1e-12:
                return wrong(f"e_p {ep} above q/(q+1)")
            return OK
        ep = self.ep.get(info["gate"])
        if ep is None:
            return failed("no e_p from this gate's classify op")
        if op.kind == "spectrum":
            mods = [float(r["modulus"]) for r in _read_rows(op.output)]
            if len(mods) != q * q - 1:
                return wrong(f"{len(mods)} eigenvalues, expected {q * q - 1}")
            for k, m in enumerate(mods, start=1):
                if m > math.sqrt((q * q - 1) * max(1 - ep, 0.0) / k) + BOUND_TOL:
                    return wrong(f"|lambda_{k}| = {m} above its bound at e_p = {ep}")
            return OK
        (row,) = _read_rows(op.output)
        if float(row["e_p"]) != ep:
            return wrong("sweep e_p differs from classify e_p")
        if float(row["mean_lambda1"]) > math.sqrt((q * q - 1) * (1 - ep)) + BOUND_TOL:
            return wrong("mean |lambda1| above the norm bound")
        if math.isnan(float(row["mu_plus"])):
            return failed("mu_plus is nan")
        return OK


# ---------------------------------------------------------------------------

class GateFlow(Workload):
    name = "gate_flow"
    # (family, q, seeds per pass, --max-iter).  The caps bound each op's cost,
    # so the work of a pass depends little on which seeds the flow gets
    GROUPS = (("mrt", 3, 20, 40), ("mr", 3, 15, 150), ("mrt", 4, 40, 100), ("mr", 4, 25, 200))
    TOL = 1e-10     # the CLI's default --tol, passed explicitly

    def setup(self):
        self.seeds = {
            (fam, q): [derive(self.seed, self.name, fam, q, k) for k in range(count)]
            for fam, q, count, _ in self.GROUPS
        }

    def _op(self, fam, q, seed, cap, tag):
        out = self.path(f"{tag}_{fam}{q}_{seed}.json")
        argv = ["gate", "make", fam, "-q", str(q), "--seed", str(seed),
                "--max-iter", str(cap), "--tol", repr(self.TOL), "-o", out]
        return Op(f"{fam}{q}", argv, out, {"family": fam, "q": q})

    def warmup(self):
        return [self._op(fam, q, 0, 2, "warmup") for fam, q, _, _ in self.GROUPS]

    def ops(self):
        return [self._op(fam, q, s, cap, "op")
                for fam, q, _, cap in self.GROUPS for s in self.seeds[(fam, q)]]

    def check(self, op, code, err):
        if code == 4:
            try:
                kind = json.loads(err.strip().splitlines()[-1])["error"]
            except (ValueError, KeyError, IndexError):
                kind = None
            if kind == "non-convergence":
                op.info["converged"] = False
                return OK
            return failed(f"exit code 4 without a non-convergence error: {err.strip()[:200]}")
        if code != 0:
            return exit_verdict(code, err)
        op.info["converged"] = True
        q, U = read_gate(op.output)
        # the flow stops once E(S) - E(U) < tol, and E(S) - E(U) equals
        # ||R R^dag - 1||_F^2 / q^4 for R = U^R1; so a converged gate's
        # max-entry duality defect is at most q^2 sqrt(tol), ~1e-4 at the
        # default tol -- a 1e-8 duality threshold is out of the flow's reach
        dual_tol = q * q * math.sqrt(self.TOL + 1e-14)
        defects = {"dual": _unitarity_defect(_reshuffle(U, q, (3, 1, 2, 0)))}
        if op.info["family"] == "mrt":
            defects["t_dual"] = _unitarity_defect(_reshuffle(U, q, (0, 3, 2, 1)))
        bad = {k: v for k, v in defects.items() if v > dual_tol}
        unitary = _unitarity_defect(U)
        if unitary > GATE_TOL:
            bad["unitary"] = unitary
        return wrong(f"defects above their bounds: {bad}") if bad else OK

    def converged_floor(self):
        """Fewest converged seeds per pass the baseline allows for this seed.

        For the recorded seeds it is the baseline's exact count; otherwise a
        binomial lower bound, four standard deviations under the baseline's
        per-group convergence rates.
        """
        ref = self.reference["gate_flow"]
        exact = ref["converged_by_seed"].get(str(self.seed))
        if exact is not None:
            return exact
        mean = var = 0.0
        for fam, q, count, _ in self.GROUPS:
            p = ref["convergence_rate"][f"{fam}{q}"]
            mean += count * p
            var += count * p * (1 - p)
        return max(0, math.floor(mean - 4 * math.sqrt(var)))

    def shortfall(self, checked):
        converged = sum(1 for op, v in checked if op.info.get("converged") and not v.failed)
        return max(0, self.converged_floor() - converged)


# ---------------------------------------------------------------------------

class CircuitCone(Workload):
    name = "circuit_cone"
    # (op, q, L, t_max or None for the CLI default, gate)
    CIRCUITS = (("corr", 2, 5, 1, "diag"), ("verify", 3, 3, None, "dual_q3_ep8over9"),
                ("verify", 2, 4, None, "cat_b0.7"), ("corr", 3, 3, None, "block"))

    def _gate(self, q, spec, k):
        rng = np.random.default_rng(derive(self.seed, self.name, k))
        if spec == "diag":
            return diagonal_dual_sample(q, 1.0, rng)
        if spec == "block":
            return random_uniform_block_gate(q, rng)
        if spec == "cat_b0.7":
            return cat_family(q, 0.7)
        return fixtures()[spec]

    def _write_config(self, name, q, L, t_max, U):
        cfg = {"q": q, "L": L, "gate": {"q": q, "re": U.real.tolist(), "im": U.imag.tolist()}}
        if t_max is not None:
            cfg["t_max"] = t_max
        with open(self.path(name), "w") as fh:
            json.dump(cfg, fh)

    def setup(self):
        self.gates = {}
        for k, (_, q, L, t_max, spec) in enumerate(self.CIRCUITS):
            U = self._gate(q, spec, k)
            self.gates[k] = U
            self._write_config(f"circuit{k}.json", q, L, t_max, U)
        self._write_config("warmup.json", 2, 2, None, cat_family(2, 0.7))
        self.predictions = {}

    def warmup(self):
        cfg = self.path("warmup.json")
        return [Op(kind, ["circuit", kind, cfg, "-o", self.path(f"warmup_{kind}.out")],
                   self.path(f"warmup_{kind}.out")) for kind in ("corr", "verify")]

    def ops(self):
        ops = []
        for k, (kind, q, L, t_max, _) in enumerate(self.CIRCUITS):
            out = self.path(f"op{k}_{kind}.out")
            ops.append(Op(kind, ["circuit", kind, self.path(f"circuit{k}.json"), "-o", out],
                          out, {"k": k, "q": q, "L": L}))
        return ops

    def _prediction(self, k, q, i, j, t):
        key = (k, i, j, t)
        if key not in self.predictions:
            basis = weyl_basis(q)
            self.predictions[key] = lightcone_correlation_prediction(
                self.gates[k], basis[i], basis[j], t, side="plus")
        return self.predictions[key]

    def check(self, op, code, err):
        if code != 0:
            return exit_verdict(code, err)
        if op.kind == "verify":
            with open(op.output) as fh:
                rep = json.load(fh)
            return OK if rep["ok"] else wrong(f"verify not ok: {rep}")
        k, q, L = op.info["k"], op.info["q"], op.info["L"]
        for r in _read_rows(op.output):
            x, t = float(r["x"]), int(r["t"])
            val = complex(float(r["value_re"]), float(r["value_im"]))
            xs = x if x <= L / 2 else x - L   # signed position on the ring
            if -t < xs < t and abs(val) > 1e-10:
                return wrong(f"|C| = {abs(val)} inside the cone at x = {x}, t = {t}")
            if x == t:
                pred = self._prediction(k, q, int(r["i"]), int(r["j"]), t)
                if abs(val - pred) > 1e-10:
                    return wrong(f"C at x = t = {t} is {val}, prediction {pred}")
        return OK


WORKLOADS = {w.name: w for w in (HaarDeep, GateAtlas, GateFlow, CircuitCone)}
