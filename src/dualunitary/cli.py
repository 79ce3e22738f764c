"""Command-line surface: seeded, reproducible runs with plot-ready CSV/JSON.

Subcommand map (program name `dualu`):

    gate make <family> ... -o gate.json     every gate factory
    gate classify <gate.json|->             invariants + duality report
    channel spectrum <gate.json> --side ... spectrum CSV
    sweep haar <gate.json ...> -N --seed    E|lambda1|, mu+, nu+ per gate
    sweep family <cartan|diag> --points ... parameter sweeps
    circuit corr <config.json> -o grid.csv  light-cone grids
    circuit verify <config.json>            channel-vs-circuit residuals
    oracle haar-identity / reshuffle-identities
    perm enumerate -q 3 -o perms.csv

Determinism: all randomness flows from one --seed (env DUALUNITARY_SEED as
default); subsystems derive substreams by labeled hashing, so reruns are
byte-identical.  CSV floats are written with shortest round-trip formatting,
'.' decimal, ',' separator and LF line ends.  Exit codes: 0 ok, 2 usage,
3 validation, 4 non-convergence.  Every command emits a run manifest next to
its output (or on stderr when writing to stdout).
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .channels import (
    build_m_minus,
    build_m_plus,
    channel_spectrum,
    classify_ergodicity,
    lightcone_correlation_prediction,
)
from .circuit_sim import CircuitConfig, CircuitSimulator
from .constructions import (
    cat_family,
    cat_map,
    block_diagonal_gate,
    diagonal_dual_sample,
    enumerate_dual_permutations,
    fixtures,
    mr_iterate,
    mrt_iterate,
    perm_spec_from_json,
    permutation_gate,
    random_uniform_block_gate,
)
from .haar_mc import (
    avg_mixing_rate,
    avg_spectral_radius,
    haar_monomial_oracle,
    max_mixing_rate,
    sample_haar,
    substream,
)
from .invariants import entangling_power, invariants_report
from .qubit_exact import cartan_gate
from .tensor_ops import gate_from_json, gate_to_json, verify_reshuffle_identities

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4


class ValidationError(Exception):
    pass


class NonConvergence(Exception):
    pass


def _fmt(x):
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    payload = "\n".join(lines) + "\n"
    return _write_text(path, payload)


def _write_text(path, payload):
    if path in (None, "-"):
        sys.stdout.write(payload)
        return None
    with open(path, "w", newline="\n") as fh:
        fh.write(payload)
    return path


def _read_gate(path):
    if path == "-":
        return gate_from_json(sys.stdin.read())
    with open(path) as fh:
        return gate_from_json(fh.read())


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _emit_manifest(args, outputs, t0):
    manifest = {
        "command": " ".join(args._command_path),
        "argv": args._raw_argv,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 6),
        "outputs": {p: _digest(p) for p in outputs if p},
    }
    blob = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    real = [p for p in outputs if p]
    if real:
        mpath = real[0] + ".manifest.json"
        with open(mpath, "w", newline="\n") as fh:
            fh.write(blob)
    else:
        sys.stderr.write(blob)


def _default_seed():
    return int(os.environ.get("DUALUNITARY_SEED", "0"))


def _default_workers():
    return int(os.environ.get("DUALUNITARY_WORKERS", "1"))


# ---------------------------------------------------------------------------
# gate make / classify

def _make_gate(args):
    rng = substream(args.seed, f"gate-make-{args.family}")
    fam = args.family
    if fam == "block":
        if args.sizes:
            sizes = [int(s) for s in args.sizes.split(",")]
            blocks = [sample_haar(s, rng) for s in sizes]
            return block_diagonal_gate(args.q, blocks, side=args.side)
        return random_uniform_block_gate(args.q, rng, side=args.side)
    if fam == "diag":
        return diagonal_dual_sample(args.q, args.epsilon, rng)
    if fam == "perm":
        with open(args.spec) as fh:
            K, L, theta = perm_spec_from_json(json.load(fh))
        return permutation_gate(K, L, phases=theta)
    if fam == "cat":
        return cat_map(args.q) if args.b is None else cat_family(args.q, args.b)
    if fam == "cartan":
        return cartan_gate(args.J)
    if fam == "mr" or fam == "mrt":
        U0 = sample_haar(args.q * args.q, rng)
        it = mr_iterate if fam == "mr" else mrt_iterate
        U, trace = it(U0, max_iter=args.max_iter, tol=args.tol)
        if not trace.converged:
            raise NonConvergence(
                f"{fam} did not converge in {args.max_iter} iterations "
                f"(defects {trace.final_defects})"
            )
        return U
    if fam == "fixture":
        bank = fixtures()
        if args.name not in bank:
            raise ValidationError(
                f"unknown fixture {args.name!r}; have {sorted(bank)}"
            )
        return bank[args.name]
    raise ValidationError(f"unknown family {fam!r}")


def cmd_gate_make(args):
    U = _make_gate(args)
    payload = json.dumps(gate_to_json(U)) + "\n"
    out = _write_text(args.output, payload)
    return [out]


def cmd_gate_classify(args):
    U = _read_gate(args.gate)
    rep = invariants_report(U)
    sp = channel_spectrum(build_m_plus(U, tol=1e-6), side="plus")
    sm = channel_spectrum(build_m_minus(U, tol=1e-6), side="minus")
    erg = classify_ergodicity(sp, sm)
    rep["ergodic_class"] = erg.label
    rep["ergodic_counts"] = {
        "unit": erg.unit_count,
        "one": erg.one_count,
        "zero": erg.zero_count,
        "boundary": erg.boundary,
    }
    out = _write_text(args.output, json.dumps(rep, indent=2) + "\n")
    return [out]


# ---------------------------------------------------------------------------
# channel spectrum

def cmd_channel_spectrum(args):
    U = _read_gate(args.gate)
    if args.locals is not None:
        if args.locals.startswith("seed:"):
            u = sample_haar(int(math.isqrt(U.shape[0])),
                            substream(int(args.locals[5:]), "channel-locals"))
        else:
            with open(args.locals) as fh:
                u = gate_from_json(fh.read())
        U = U @ np.kron(np.eye(u.shape[0]), u)
    M = build_m_plus(U, tol=1e-6) if args.side == "plus" else build_m_minus(U, tol=1e-6)
    spec = channel_spectrum(M, side=args.side)
    rows = [
        (lam.real, lam.imag, abs(lam), rate)
        for lam, rate in zip(spec.eigenvalues, spec.rates)
    ]
    if args.format == "json":
        payload = json.dumps(
            {
                "q": spec.q,
                "side": spec.side,
                "eigenvalues": [{"re": r, "im": i, "modulus": m, "rate": rate}
                                 for r, i, m, rate in rows],
            },
            indent=2,
        ) + "\n"
        out = _write_text(args.output, payload)
    else:
        out = _write_csv(args.output, ("re", "im", "modulus", "rate"), rows)
    return [out]


# ---------------------------------------------------------------------------
# sweeps

def _sweep_row(U, n, seed, workers):
    est = avg_spectral_radius(U, n, seed, workers=workers)
    mu = avg_mixing_rate(U, n, seed, workers=workers)
    nu = max_mixing_rate(U, min(n, 2000), seed, refine_steps=0)
    return (
        entangling_power(U),
        est.mean,
        est.stderr,
        mu.mean,
        nu["nu"],
        n,
        seed,
    )


SWEEP_HEADER = ("e_p", "mean_lambda1", "stderr", "mu_plus", "nu_plus", "N", "seed")


def cmd_sweep_haar(args):
    rows = [_sweep_row(_read_gate(g), args.n, args.seed, args.workers) for g in args.gates]
    out = _write_csv(args.output, SWEEP_HEADER, rows)
    return [out]


def cmd_sweep_family(args):
    rows = []
    if args.family == "cartan":
        from .qubit_exact import mu_prime, nu_plus_exact, nu_prime

        grid = np.linspace(0.0, math.pi / 4, args.points)
        header = ("param",) + SWEEP_HEADER + ("nu_prime", "mu_prime", "nu_exact")
        for J in grid:
            rows.append(
                (float(J),)
                + _sweep_row(cartan_gate(J), args.n, args.seed, args.workers)
                + (nu_prime(J), mu_prime(J), nu_plus_exact(J))
            )
    elif args.family == "diag":
        header = ("param",) + SWEEP_HEADER
        for k in range(args.points):
            eps = (k + 1) / args.points * args.epsilon
            rng = substream(args.seed, "sweep-family-diag", k)
            U = diagonal_dual_sample(args.q, eps, rng)
            rows.append((float(eps),) + _sweep_row(U, args.n, args.seed, args.workers))
    else:
        raise ValidationError(f"unknown family {args.family!r}")
    out = _write_csv(args.output, header, rows)
    return [out]


# ---------------------------------------------------------------------------
# circuit

def _load_circuit(path):
    with open(path) as fh:
        cfg = json.load(fh)
    gate = gate_from_json(cfg["gate"]) if isinstance(cfg["gate"], dict) else _read_gate(cfg["gate"])
    return CircuitConfig(q=int(cfg["q"]), L=int(cfg["L"]), gate=gate), cfg


def _basis_pairs(pairs, d):
    """The configured (i, j) basis-index pairs, each index an int in [0, d)."""
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(k) is int and 0 <= k < d for k in p)
        for p in pairs
    ):
        raise ValidationError(f"basis_pairs must be [i, j] pairs of integers in [0, {d}), "
                              f"got {pairs!r}")
    return [tuple(p) for p in pairs]


def cmd_circuit_corr(args):
    cfg, raw = _load_circuit(args.config)
    sim = CircuitSimulator(cfg)
    t_max = int(raw.get("t_max", cfg.L // 2))
    pairs = raw.get("basis_pairs")
    nb = min(cfg.q * cfg.q, 4)
    pairs = _basis_pairs(pairs, cfg.q * cfg.q) if pairs else [
        (i, j) for i in range(1, nb) for j in range(1, nb)
    ]
    rows = []
    for t in range(1, t_max + 1):
        for n in range(sim.n_legs):
            for (i, j) in pairs:
                # the grid is exact on the ring at any t; only verify needs t <= L/2
                val = sim.single_site_table(i, 0.0, t, override_window=True)[n, j]
                rows.append((0.5 * n, t, i, j, val.real, val.imag))
    out = _write_csv(args.output, ("x", "t", "i", "j", "value_re", "value_im"), rows)
    return [out]


def cmd_circuit_verify(args):
    cfg, raw = _load_circuit(args.config)
    sim = CircuitSimulator(cfg)
    t_max = int(raw.get("t_max", cfg.L // 2))
    nb = min(cfg.q * cfg.q, 4)
    worst_cone, worst_interior = 0.0, 0.0
    for t in range(1, t_max + 1):
        for i in range(1, nb):
            for j in range(1, nb):
                gp = sim.c_plus(i, j, float(t), t)
                pp = lightcone_correlation_prediction(
                    cfg.gate, sim.basis[i], sim.basis[j], t, side="plus")
                gm = sim.c_minus(i, j, float(-t), t)
                pm = lightcone_correlation_prediction(
                    cfg.gate, sim.basis[i], sim.basis[j], t, side="minus")
                worst_cone = max(worst_cone, abs(gp - pp), abs(gm - pm))
        if t > 0:
            worst_interior = max(worst_interior, abs(sim.c_plus(1, 1, 0.0, t)))
    report = {
        "cone_residual": worst_cone,
        "interior_max": worst_interior,
        "t_max": t_max,
        "ok": bool(worst_cone <= args.tol),
    }
    out = _write_text(args.output, json.dumps(report, indent=2) + "\n")
    if not report["ok"]:
        raise ValidationError(f"cone residual {worst_cone:.3e} above {args.tol:.1e}")
    return [out]


# ---------------------------------------------------------------------------
# oracles and enumeration

def cmd_oracle_haar_identity(args):
    rng = substream(args.seed, "oracle-haar-identity")
    d = args.q * args.q
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rep = haar_monomial_oracle(X, Y, args.n, args.seed)
    out = _write_text(
        args.output,
        json.dumps(
            {
                "mc_mean": [rep["mc_mean"].real, rep["mc_mean"].imag],
                "mc_stderr": rep["mc_stderr"],
                "closed_form": [rep["closed_form"].real, rep["closed_form"].imag],
                "z_score": rep["z_score"],
                "n": rep["n"],
                "seed": rep["seed"],
            },
            indent=2,
        )
        + "\n",
    )
    if rep["z_score"] > 3.0:
        raise ValidationError(f"MC estimate {rep['z_score']:.2f} sigma from closed form")
    return [out]


def cmd_oracle_reshuffle(args):
    rng = substream(args.seed, "oracle-reshuffle")
    d = args.q * args.q
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    res = verify_reshuffle_identities(X)
    out = _write_text(args.output, json.dumps(res, indent=2) + "\n")
    worst = max(res.values())
    if worst > 1e-12:
        raise ValidationError(f"identity residual {worst:.3e} above 1e-12")
    return [out]


def cmd_perm_enumerate(args):
    rows = []
    for rec in enumerate_dual_permutations(args.q):
        rows.append((rec["perm_id"], rec["e_p"], rec["lambda1_mod"], rec["lambda2_mod"]))
    out = _write_csv(args.output, ("perm_id", "e_p", "lambda1_mod", "lambda2_mod"), rows)
    return [out]


# ---------------------------------------------------------------------------
# parser

def build_parser():
    p = argparse.ArgumentParser(prog="dualu", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="group", required=True)

    def add_seed(sp):
        sp.add_argument("--seed", type=int, default=_default_seed())

    # gate
    gate = sub.add_parser("gate").add_subparsers(dest="sub", required=True)
    gm = gate.add_parser("make")
    gm.add_argument("family", choices=["block", "diag", "perm", "cat", "cartan", "mr", "mrt", "fixture"])
    gm.add_argument("-q", type=int, default=3)
    gm.add_argument("--side", choices=["ds", "sd"], default="ds")
    gm.add_argument("--sizes", help="comma-separated block sizes (multiples of q)")
    gm.add_argument("--epsilon", type=float, default=1.0)
    gm.add_argument("--spec", help="permutation spec JSON (1-indexed K, L, optional theta)")
    gm.add_argument("--b", type=float, default=None, help="cat-family parameter")
    gm.add_argument("--J", type=float, default=0.0)
    gm.add_argument("--max-iter", type=int, default=10_000)
    gm.add_argument("--tol", type=float, default=1e-10)
    gm.add_argument("--name", help="fixture name")
    gm.add_argument("-o", "--output", default="-")
    add_seed(gm)
    gm.set_defaults(func=cmd_gate_make)

    gc = gate.add_parser("classify")
    gc.add_argument("gate")
    gc.add_argument("-o", "--output", default="-")
    gc.set_defaults(func=cmd_gate_classify)

    # channel
    chan = sub.add_parser("channel").add_subparsers(dest="sub", required=True)
    cspec = chan.add_parser("spectrum")
    cspec.add_argument("gate")
    cspec.add_argument("--side", choices=["plus", "minus"], default="plus")
    cspec.add_argument("--locals", help="'seed:<int>' or a gate JSON file with one local")
    cspec.add_argument("--format", choices=["csv", "json"], default="csv")
    cspec.add_argument("-o", "--output", default="-")
    cspec.set_defaults(func=cmd_channel_spectrum)

    # sweep
    sweep = sub.add_parser("sweep").add_subparsers(dest="sub", required=True)
    sh = sweep.add_parser("haar")
    sh.add_argument("gates", nargs="+")
    sh.add_argument("-N", "--n", type=int, default=10_000)
    sh.add_argument("--workers", type=int, default=_default_workers())
    sh.add_argument("-o", "--output", default="-")
    add_seed(sh)
    sh.set_defaults(func=cmd_sweep_haar)

    sf = sweep.add_parser("family")
    sf.add_argument("family", choices=["cartan", "diag"])
    sf.add_argument("-q", type=int, default=2)
    sf.add_argument("--points", type=int, default=10)
    sf.add_argument("--epsilon", type=float, default=1.0)
    sf.add_argument("-N", "--n", type=int, default=2000)
    sf.add_argument("--workers", type=int, default=_default_workers())
    sf.add_argument("-o", "--output", default="-")
    add_seed(sf)
    sf.set_defaults(func=cmd_sweep_family)

    # circuit
    circ = sub.add_parser("circuit").add_subparsers(dest="sub", required=True)
    cc = circ.add_parser("corr")
    cc.add_argument("config")
    cc.add_argument("-o", "--output", default="-")
    cc.set_defaults(func=cmd_circuit_corr)
    cv = circ.add_parser("verify")
    cv.add_argument("config")
    cv.add_argument("--tol", type=float, default=1e-10)
    cv.add_argument("-o", "--output", default="-")
    cv.set_defaults(func=cmd_circuit_verify)

    # oracle
    orc = sub.add_parser("oracle").add_subparsers(dest="sub", required=True)
    oh = orc.add_parser("haar-identity")
    oh.add_argument("-N", "--n", type=int, default=100_000)
    oh.add_argument("-q", type=int, default=2)
    oh.add_argument("-o", "--output", default="-")
    add_seed(oh)
    oh.set_defaults(func=cmd_oracle_haar_identity)
    orr = orc.add_parser("reshuffle-identities")
    orr.add_argument("-q", type=int, default=3)
    orr.add_argument("-o", "--output", default="-")
    add_seed(orr)
    orr.set_defaults(func=cmd_oracle_reshuffle)

    # perm
    perm = sub.add_parser("perm").add_subparsers(dest="sub", required=True)
    pe = perm.add_parser("enumerate")
    pe.add_argument("-q", type=int, default=3)
    pe.add_argument("-o", "--output", default="-")
    pe.set_defaults(func=cmd_perm_enumerate)

    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return exc.code
    args._raw_argv = argv
    args._command_path = [args.group, getattr(args, "sub", "")]
    t0 = time.time()
    try:
        outputs = args.func(args)
    except (NonConvergence, np.linalg.LinAlgError) as exc:
        sys.stderr.write(json.dumps({"error": "non-convergence", "message": str(exc)}) + "\n")
        return EXIT_NONCONVERGENCE
    except (ValidationError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": "validation", "message": str(exc)}) + "\n")
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        sys.stderr.write(json.dumps({"error": "validation", "message": str(exc)}) + "\n")
        return EXIT_VALIDATION
    _emit_manifest(args, outputs, t0)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
