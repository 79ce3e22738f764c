"""Command-line surface: seeded, reproducible runs with plot-ready CSV/JSON.

Subcommand map (program name `dualu`):

    gate make <family> ... -o gate.json     every gate factory
    gate classify <gate.json|->             invariants + duality report
    channel spectrum <gate.json> --side ... spectrum CSV
    sweep haar <gate.json ...> -N --seed    E|lambda1|, mu+, nu+, zero modes per gate
    sweep family <cartan|diag> --points ... parameter sweeps
    circuit corr <config.json> -o grid.csv  light-cone grids
    circuit verify <config.json>            channel-vs-circuit residuals
    oracle haar-identity / reshuffle-identities
    perm enumerate -q 3 -o perms.csv

Determinism: all randomness flows from one --seed (env DUALUNITARY_SEED as
default); subsystems derive substreams by labeled hashing, so reruns are
byte-identical.  CSV floats are written with shortest round-trip formatting,
'.' decimal, ',' separator and LF line ends.  Exit codes: 0 ok, 1 internal
error, 2 usage, 3 validation (a refused input, or a file that cannot be read
or written), 4 non-convergence; every failure writes a one-line JSON error
record as the first line on stderr.  A circuit config's "gate" is a gate file
path or an inline gate object; `channel spectrum --locals` takes seed:<int>.
Every command emits a run manifest next to its output file (or on stderr when
the output is stdout or not a regular file); it records the Haar-stream
layout (`stream_scheme`, see haar_mc).
"""

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .channels import (
    build_m_minus,
    build_m_plus,
    channel_spectrum,
    classify_gate,
    lightcone_correlation_prediction,
)
from .circuit_sim import CircuitConfig, CircuitSimulator
from .constructions import (
    cat_family,
    cat_map,
    diagonal_dual_sample,
    enumerate_dual_permutations,
    fixtures,
    mr_iterate,
    mrt_iterate,
    perm_spec_from_json,
    permutation_gate,
    random_block_gate,
)
from .haar_mc import (
    STREAM_SCHEME,
    haar_monomial_oracle,
    max_rate,
    mixing_rate_estimate,
    radius_estimate,
    sample_haar,
    spectral_radius_samples,
    substream,
)
from .invariants import entangling_power, invariants_report
from .qubit_exact import cartan_gate
from .tensor_ops import (
    ValidationError,
    _parse_json,
    gate_from_json,
    gate_to_json,
    local_dim,
    verify_reshuffle_identities,
)
from .tolerances import CONE_TOL, FLOW_TOL, INPUT_UNITARY_TOL, ORACLE_SIGMAS, RESHUFFLE_TOL

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4


class NonConvergence(Exception):
    pass


def _fmt(x):
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows):
    """Header and rows as CSV lines; rows may be a generator, written as it yields."""
    return _write_text(path, (",".join(map(_fmt, row)) + "\n"
                              for row in itertools.chain([header], rows)))


def _json(obj, **fmt):
    """Strict JSON and a newline: a non-finite float is an error, never a
    bare Infinity or NaN token."""
    return json.dumps(obj, allow_nan=False, **fmt) + "\n"


def _write_json(path, obj):
    return _write_text(path, [_json(obj, indent=2)])


def _write_text(path, chunks):
    """Write the text chunks in order to path, or to stdout for '-'."""
    if path in (None, "-"):
        sys.stdout.writelines(chunks)
        return None
    with open(path, "w", newline="\n") as fh:
        fh.writelines(chunks)
    return path


def _read_json(path):
    """The JSON value in the file at path, or on stdin for '-': the one reader
    of every gate file, circuit config and permutation spec."""
    if path == "-":
        return _parse_json(sys.stdin.buffer.read(), "stdin")
    with open(path, "rb") as fh:
        return _parse_json(fh.read(), path)


def _read_gate(path):
    return gate_from_json(_read_json(path))


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _emit_manifest(args, outputs, t0):
    files = [p for p in outputs if p and os.path.isfile(p)]
    manifest = {
        "command": " ".join(args._command_path),
        "argv": args._raw_argv,
        "seed": getattr(args, "seed", None),
        "stream_scheme": STREAM_SCHEME,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 6),
        "outputs": {p: _digest(p) for p in files},
    }
    blob = _json(manifest, indent=2, sort_keys=True)
    if files:
        with open(files[0] + ".manifest.json", "w", newline="\n") as fh:
            fh.write(blob)
    else:  # stdout, /dev/null, a pipe: nothing to write beside
        sys.stderr.write(blob)


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{what} must be an integer, got {text!r}") from None


def _finite(x, what):
    if not math.isfinite(x):
        raise ValidationError(f"{what} must be finite, got {x}")
    return x


# (option attribute, flag, least value) of every integer option with a floor
OPTION_FLOORS = (("workers", "--workers", 1), ("n", "-N", 1), ("points", "--points", 1),
                 ("q", "-q", 2), ("max_iter", "--max-iter", 1))


def _resolve_defaults(args):
    """Fill --seed/--workers from the environment and check the integer options."""
    if getattr(args, "seed", 0) is None:
        args.seed = _int(os.environ.get("DUALUNITARY_SEED", 0), "DUALUNITARY_SEED")
    if getattr(args, "workers", 1) is None:
        args.workers = _int(os.environ.get("DUALUNITARY_WORKERS", 1), "DUALUNITARY_WORKERS")
    for attr, flag, least in OPTION_FLOORS:
        value = getattr(args, attr, least)
        if value < least:
            raise ValidationError(f"{flag} must be at least {least}, got {value}")


# ---------------------------------------------------------------------------
# gate make / classify

def _make_gate(args):
    rng = substream(args.seed, f"gate-make-{args.family}")
    fam = args.family
    if fam == "block":
        sizes = ([_int(s, "--sizes entry") for s in args.sizes.split(",")] if args.sizes
                 else [args.q] * args.q)
        if any(s % args.q for s in sizes):
            raise ValidationError(f"block sizes {sizes} must be positive multiples of q={args.q}")
        return random_block_gate(args.q, [s // args.q for s in sizes], rng, side=args.side)
    if fam == "diag":
        return diagonal_dual_sample(args.q, args.epsilon, rng)
    if fam == "perm":
        if args.spec is None:
            raise ValidationError("gate make perm needs --spec")
        K, L, theta = perm_spec_from_json(_read_json(args.spec))
        return permutation_gate(K, L, phases=theta)
    if fam == "cat":
        return cat_map(args.q) if args.b is None else cat_family(args.q, _finite(args.b, "--b"))
    if fam == "cartan":
        return cartan_gate(_finite(args.J, "--J"))
    if fam == "mr" or fam == "mrt":
        U0 = sample_haar(args.q * args.q, rng)
        it = mr_iterate if fam == "mr" else mrt_iterate
        U, trace = it(U0, max_iter=args.max_iter, tol=_finite(args.tol, "--tol"))
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
    return [_write_text(args.output, [_json(gate_to_json(U))])]


def cmd_gate_classify(args):
    U = _read_gate(args.gate)
    rep = invariants_report(U)
    erg = classify_gate(U, tol=INPUT_UNITARY_TOL)
    rep["ergodic_class"] = erg.label
    rep["ergodic_counts"] = {
        "unit": erg.unit_count,
        "one": erg.one_count,
        "zero": erg.zero_count,
        "boundary": erg.boundary,
    }
    return [_write_json(args.output, rep)]


# ---------------------------------------------------------------------------
# channel spectrum

def cmd_channel_spectrum(args):
    U = _read_gate(args.gate)
    if args.locals is not None:
        form, _, seed = args.locals.partition(":")
        if form != "seed":
            raise ValidationError(f"--locals takes seed:<int>, got {args.locals!r}")
        q = local_dim(U)
        u = sample_haar(q, substream(_int(seed, "--locals seed"), "channel-locals"))
        U = U @ np.kron(np.eye(q), u)
    M = (build_m_plus if args.side == "plus" else build_m_minus)(U, tol=INPUT_UNITARY_TOL)
    spec = channel_spectrum(M, side=args.side)
    rows = [
        (lam.real, lam.imag, abs(lam), rate)
        for lam, rate in zip(spec.eigenvalues, spec.rates)
    ]
    if args.format == "json":
        # a zero mode's infinite rate is the string "inf", as in the CSV
        out = _write_json(args.output, {
            "q": spec.q,
            "side": spec.side,
            "eigenvalues": [{"re": r, "im": i, "modulus": m,
                             "rate": "inf" if math.isinf(rate) else rate}
                            for r, i, m, rate in rows],
        })
    else:
        out = _write_csv(args.output, ("re", "im", "modulus", "rate"), rows)
    return [out]


# ---------------------------------------------------------------------------
# sweeps

def _sweep_row(U, n, seed, workers):
    # E|lambda1|, mu+ and nu+ are reductions of one sample set
    r = spectral_radius_samples(U, n, seed, workers=workers)
    est = radius_estimate(r, seed, entangling_power(U))
    mu = mixing_rate_estimate(r, seed)
    return (est.extras["e_p"], est.mean, est.stderr, mu.mean, max_rate(r),
            mu.extras["infinite_count"], n, seed)


SWEEP_HEADER = ("e_p", "mean_lambda1", "stderr", "mu_plus", "nu_plus", "infinite_count", "N",
                "seed")


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

CIRCUIT_KEYS = ("q", "L", "gate", "t_max", "basis_pairs")


def _positive_int(raw, key, default=None):
    value = raw.get(key, default)
    if type(value) is not int or value < 1:
        raise ValidationError(f"{key} must be an integer >= 1, got {value!r}")
    return value


def _load_circuit(path):
    """The circuit config, its t_max (default L // 2) and its basis pairs."""
    raw = _read_json(path)
    if not isinstance(raw, dict) or "gate" not in raw:
        raise ValidationError("a circuit config is a JSON object with a gate")
    unknown = sorted(raw.keys() - set(CIRCUIT_KEYS))
    if unknown:
        raise ValidationError(f"unknown circuit config keys {unknown}; allowed {list(CIRCUIT_KEYS)}")
    q, L = _positive_int(raw, "q"), _positive_int(raw, "L")
    t_max = _positive_int(raw, "t_max", L // 2)
    gate = raw["gate"]
    if isinstance(gate, str):
        gate = _read_gate(gate)
    elif isinstance(gate, dict):
        gate = gate_from_json(gate)
    else:
        raise ValidationError(f"gate must be a gate file path or a gate object, got {gate!r}")
    return CircuitConfig(q=q, L=L, gate=gate), t_max, raw.get("basis_pairs")


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
    cfg, t_max, pairs = _load_circuit(args.config)
    sim = CircuitSimulator(cfg)
    nb = min(cfg.q * cfg.q, 4)
    pairs = _basis_pairs(pairs, cfg.q * cfg.q) if pairs else [
        (i, j) for i in range(1, nb) for j in range(1, nb)
    ]
    # every table before the first row, t_max's first: a grid over the budget
    # is refused before any other work, and no output is half written
    tables = {(i, t): sim.single_site_table(i, 0.0, t)
              for t in (t_max, *range(1, t_max)) for i, _ in pairs}
    rows = ((0.5 * n, t, i, j, tables[i, t][n, j].real, tables[i, t][n, j].imag)
            for t in range(1, t_max + 1) for n in range(sim.n_legs) for i, j in pairs)
    out = _write_csv(args.output, ("x", "t", "i", "j", "value_re", "value_im"), rows)
    return [out]


def cmd_circuit_verify(args):
    cfg, t_max, _ = _load_circuit(args.config)
    if 2 * t_max > cfg.L:
        # the grid is exact on the ring at any t; the channel prediction is not
        raise ValidationError(
            f"t_max = {t_max} is outside the prediction window t <= L/2 = {cfg.L / 2}: "
            "finite-size recurrences invalidate the light-cone predictions")
    sim = CircuitSimulator(cfg)
    nb = min(cfg.q * cfg.q, 4)
    worst_cone, worst_interior = 0.0, 0.0
    for t in (t_max, *range(1, t_max)):  # an over-budget t_max is refused first
        for i in range(1, nb):
            for j in range(1, nb):
                gp = sim.c_plus(i, j, float(t), t)
                pp = lightcone_correlation_prediction(
                    cfg.gate, sim.basis[i], sim.basis[j], t, side="plus")
                gm = sim.c_minus(i, j, float(-t), t)
                pm = lightcone_correlation_prediction(
                    cfg.gate, sim.basis[i], sim.basis[j], t, side="minus")
                worst_cone = max(worst_cone, abs(gp - pp), abs(gm - pm))
        worst_interior = max(worst_interior, abs(sim.c_plus(1, 1, 0.0, t)))
    report = {
        "cone_residual": worst_cone,
        "interior_max": worst_interior,
        "t_max": t_max,
        "ok": bool(worst_cone <= CONE_TOL),
    }
    out = _write_json(args.output, report)
    if not report["ok"]:
        raise ValidationError(f"cone residual {worst_cone:.3e} above {CONE_TOL:.1e}")
    return [out]


# ---------------------------------------------------------------------------
# oracles and enumeration

def cmd_oracle_haar_identity(args):
    rng = substream(args.seed, "oracle-haar-identity")
    d = args.q * args.q
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rep = haar_monomial_oracle(X, Y, args.n, args.seed)
    out = _write_json(args.output, {
        "mc_mean": [rep["mc_mean"].real, rep["mc_mean"].imag],
        "mc_stderr": rep["mc_stderr"],
        "closed_form": [rep["closed_form"].real, rep["closed_form"].imag],
        "z_score": rep["z_score"],
        "n": rep["n"],
        "seed": rep["seed"],
    })
    if not rep["z_score"] <= ORACLE_SIGMAS:
        raise ValidationError(f"MC estimate {rep['z_score']:.2f} sigma from closed form")
    return [out]


def cmd_oracle_reshuffle_identities(args):
    rng = substream(args.seed, "oracle-reshuffle")
    d = args.q * args.q
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    res = verify_reshuffle_identities(X, [sample_haar(args.q, rng) for _ in range(4)])
    out = _write_json(args.output, res)
    worst = max(res.values())
    if not worst <= RESHUFFLE_TOL:
        raise ValidationError(f"identity residual {worst:.3e} above {RESHUFFLE_TOL:.0e}")
    return [out]


def cmd_perm_enumerate(args):
    rows = []
    for rec in enumerate_dual_permutations(args.q):
        rows.append((rec["perm_id"], rec["e_p"], rec["lambda1_mod"], rec["lambda2_mod"]))
    out = _write_csv(args.output, ("perm_id", "e_p", "lambda1_mod", "lambda2_mod"), rows)
    return [out]


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser():
    """The argument parser, built once per process.  A parsed command names
    its function only by its path: `gate make` runs cmd_gate_make."""
    p = argparse.ArgumentParser(prog="dualu", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="group", required=True)

    def add_seed(sp):
        sp.add_argument("--seed", type=int, default=None)

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
    gm.add_argument("--tol", type=float, default=FLOW_TOL)
    gm.add_argument("--name", help="fixture name")
    gm.add_argument("-o", "--output", default="-")
    add_seed(gm)

    gc = gate.add_parser("classify")
    gc.add_argument("gate")
    gc.add_argument("-o", "--output", default="-")

    # channel
    chan = sub.add_parser("channel").add_subparsers(dest="sub", required=True)
    cspec = chan.add_parser("spectrum")
    cspec.add_argument("gate")
    cspec.add_argument("--side", choices=["plus", "minus"], default="plus")
    cspec.add_argument("--locals", help="'seed:<int>': U times 1 (x) u for a Haar local u")
    cspec.add_argument("--format", choices=["csv", "json"], default="csv")
    cspec.add_argument("-o", "--output", default="-")

    # sweep
    sweep = sub.add_parser("sweep").add_subparsers(dest="sub", required=True)
    sh = sweep.add_parser(
        "haar", description="Per gate: e_p, E|lambda1| and its stderr, mu+ = E[-ln|lambda1|], "
        "nu+ = max -ln|lambda1| and the count of zero modes (infinite rates), all from one "
        "set of N Haar locals (stream 'spectral-radius').")
    sh.add_argument("gates", nargs="+")
    sh.add_argument("-N", "--n", type=int, default=10_000)
    sh.add_argument("--workers", type=int, default=None)
    sh.add_argument("-o", "--output", default="-")
    add_seed(sh)

    sf = sweep.add_parser("family")
    sf.add_argument("family", choices=["cartan", "diag"])
    sf.add_argument("-q", type=int, default=2)
    sf.add_argument("--points", type=int, default=10)
    sf.add_argument("--epsilon", type=float, default=1.0)
    sf.add_argument("-N", "--n", type=int, default=2000)
    sf.add_argument("--workers", type=int, default=None)
    sf.add_argument("-o", "--output", default="-")
    add_seed(sf)

    # circuit
    circ = sub.add_parser("circuit").add_subparsers(dest="sub", required=True)
    cc = circ.add_parser("corr")
    cc.add_argument("config")
    cc.add_argument("-o", "--output", default="-")
    cv = circ.add_parser("verify")
    cv.add_argument("config")
    cv.add_argument("-o", "--output", default="-")

    # oracle
    orc = sub.add_parser("oracle").add_subparsers(dest="sub", required=True)
    oh = orc.add_parser("haar-identity")
    oh.add_argument("-N", "--n", type=int, default=100_000)
    oh.add_argument("-q", type=int, default=2)
    oh.add_argument("-o", "--output", default="-")
    add_seed(oh)
    orr = orc.add_parser("reshuffle-identities")
    orr.add_argument("-q", type=int, default=3)
    orr.add_argument("-o", "--output", default="-")
    add_seed(orr)

    # perm
    perm = sub.add_parser("perm").add_subparsers(dest="sub", required=True)
    pe = perm.add_parser("enumerate")
    pe.add_argument("-q", type=int, default=3)
    pe.add_argument("-o", "--output", default="-")

    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return exc.code
    args._raw_argv = argv
    args._command_path = [args.group, getattr(args, "sub", "")]
    t0 = time.time()
    try:
        _resolve_defaults(args)
        # looked up at call time, so a rebound cmd_* function takes effect
        command = "_".join(["cmd", *args._command_path]).replace("-", "_")
        outputs = globals()[command](args)
        _emit_manifest(args, outputs, t0)
    except (ValidationError, OSError) as exc:
        sys.stderr.write(_json({"error": "validation", "message": str(exc)}))
        return EXIT_VALIDATION
    except (NonConvergence, np.linalg.LinAlgError) as exc:
        sys.stderr.write(_json({"error": "non-convergence", "message": str(exc)}))
        return EXIT_NONCONVERGENCE
    except Exception as exc:  # a fault of the program, not of its input
        sys.stderr.write(_json({"error": "internal", "type": type(exc).__name__,
                                "message": str(exc)}))
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
