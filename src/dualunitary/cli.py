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

Determinism: all randomness flows from one --seed (default 0; no environment
variable is read); subsystems derive substreams by labeled hashing, so reruns
are byte-identical.  CSV floats are written with shortest round-trip
formatting, '.' decimal, ',' separator and LF line ends.  Exit codes: 0 ok, 1
internal error, 2 usage, 3 validation (an argument the command does not take,
a refused value, or a file that cannot be read or written), 4 non-convergence.
Exits 1, 3 and 4 write a one-line JSON error record as the first line on
stderr; exit 2 is argparse's usage message alone (an unknown command or
family, a value argparse cannot convert, or an option placed before the
family, as in `gate make -q 3 cat`).  Each gate family and each `sweep
family` is its own subparser that declares only the options it reads, so
`dualu gate make <family> --help` lists exactly those.  Options are spelled
in full: no prefix stands for one.  A circuit config's
"gate" is a gate file path or an inline gate object; `channel spectrum
--locals` takes seed:<int>.
Every command emits a run manifest next to its output file (or on stderr when
the output is stdout or not a regular file); it records the sha256 of the
output's bytes as written, the Haar-stream layout (`stream_scheme`, see
haar_mc), numpy's OpenBLAS kernel (`blas_kernel`, null if unknown) and, for
the sweeps, the thread cap `workers` the run used.
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
    _usable_cpus,
    haar_monomial_oracle,
    max_rate,
    mixing_rate_estimate,
    openblas_kernel,
    radius_estimate,
    spectral_radius_samples,
    substream,
)
from .invariants import entangling_power, invariants_report
from .qubit_exact import cartan_gate, mu_prime, nu_plus_exact, nu_prime
from .tensor_ops import (
    ValidationError,
    _parse_json,
    gate_from_json,
    gate_to_json,
    local_dim,
    require_finite,
    require_int,
    sample_haar,
    verify_reshuffle_identities,
)
from .tolerances import CONE_TOL, FLOW_TOL, ORACLE_SIGMAS, RESHUFFLE_TOL

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
    """Write the text chunks in order to path, or to stdout for '-'.  A file
    output is (path, sha256 of the bytes as written), None for stdout."""
    if path in (None, "-"):
        sys.stdout.writelines(chunks)
        return None
    h = hashlib.sha256()
    with open(path, "w", newline="\n") as fh:
        for chunk in chunks:
            fh.write(chunk)
            h.update(chunk.encode(fh.encoding))
    return path, h.hexdigest()


def _read_json(path):
    """The JSON value in the file at path, or on stdin for '-': the one reader
    of every gate file, circuit config and permutation spec."""
    if path == "-":
        return _parse_json(sys.stdin.buffer.read(), "stdin")
    with open(path, "rb") as fh:
        return _parse_json(fh.read(), path)


def _read_gate(path):
    return gate_from_json(_read_json(path))


def _emit_manifest(args, output, t0):
    """The run manifest: beside the command's one output when that is a
    regular file, with the digest `_write_text` took of it, else on stderr."""
    files = dict([output]) if output and os.path.isfile(output[0]) else {}
    manifest = {
        "command": " ".join(args._command_path),
        "argv": args._raw_argv,
        "blas_kernel": openblas_kernel(),
        "seed": getattr(args, "seed", None),
        "stream_scheme": STREAM_SCHEME,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 6),
        "outputs": files,
    }
    if hasattr(args, "workers"):
        manifest["workers"] = args.workers
    blob = _json(manifest, indent=2, sort_keys=True)
    if files:
        with open(next(iter(files)) + ".manifest.json", "w", newline="\n") as fh:
            fh.write(blob)
    else:  # stdout, /dev/null, a pipe: nothing to write beside
        sys.stderr.write(blob)


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{what} must be an integer, got {text!r}") from None


# (option attribute, flag, least value) of every integer option with a floor
OPTION_FLOORS = (("workers", "--workers", 1), ("n", "-N", 1), ("points", "--points", 1),
                 ("q", "-q", 2), ("max_iter", "--max-iter", 1))


# ---------------------------------------------------------------------------
# gate make / classify

def _make_gate(args):
    fam = args.family
    # block, diag, mr and mrt take a --seed; the other families draw nothing
    rng = substream(args.seed, f"gate-make-{fam}") if "seed" in args else None
    if fam == "block":
        sizes = ([_int(s, "--sizes entry") for s in args.sizes.split(",")]
                 if args.sizes is not None else [args.q] * args.q)
        if any(s % args.q for s in sizes):
            raise ValidationError(f"block sizes {sizes} must be positive multiples of q={args.q}")
        if min(sizes) < 1 or sum(sizes) != args.q ** 2:
            raise ValidationError(f"--sizes {args.sizes}: the block sizes must be positive "
                                  f"and sum to q^2={args.q ** 2}")
        return random_block_gate(args.q, [s // args.q for s in sizes], rng, side=args.side)
    if fam == "diag":
        return diagonal_dual_sample(args.q, args.epsilon, rng)
    if fam == "perm":
        if args.spec is None:
            raise ValidationError("gate make perm needs --spec")
        K, L, theta = perm_spec_from_json(_read_json(args.spec))
        return permutation_gate(K, L, phases=theta)
    if fam == "cat":
        if args.b is None:
            return cat_map(args.q)
        return cat_family(args.q, require_finite(args.b, "--b"))
    if fam == "cartan":
        return cartan_gate(require_finite(args.J, "--J"))
    if fam == "mr" or fam == "mrt":
        # E(S) - E(U) >= 0 up to rounding: a flow with tol <= 0 stops only by chance
        if not require_finite(args.tol, "--tol") > 0:
            raise ValidationError(f"--tol must be positive, got {args.tol}")
        U0 = sample_haar(args.q * args.q, rng)
        it = mr_iterate if fam == "mr" else mrt_iterate
        U, trace = it(U0, max_iter=args.max_iter, tol=args.tol)
        if not trace.converged:
            raise NonConvergence(
                f"{fam} did not converge in {args.max_iter} iterations "
                f"(defects {trace.final_defects})"
            )
        return U
    # fam == "fixture": argparse's choices admit no other family
    bank = fixtures()
    if args.name not in bank:
        raise ValidationError(
            f"unknown fixture {args.name!r}; have {sorted(bank)}"
        )
    return bank[args.name]


def cmd_gate_make(args):
    U = _make_gate(args)
    return _write_text(args.output, [_json(gate_to_json(U))])


def cmd_gate_classify(args):
    U = _read_gate(args.gate)
    rep = invariants_report(U)
    erg = classify_gate(U)
    rep["ergodic_class"] = erg.label
    rep["ergodic_counts"] = {
        "unit": erg.unit_count,
        "one": erg.one_count,
        "zero": erg.zero_count,
        "boundary": erg.boundary,
    }
    return _write_json(args.output, rep)


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
    M = (build_m_plus if args.side == "plus" else build_m_minus)(U)
    spec = channel_spectrum(M)
    rows = [
        (lam.real, lam.imag, abs(lam), rate)
        for lam, rate in zip(spec.eigenvalues, spec.rates)
    ]
    if args.format == "json":
        # a zero mode's infinite rate is the string "inf", as in the CSV
        return _write_json(args.output, {
            "q": spec.q,
            "side": args.side,
            "eigenvalues": [{"re": r, "im": i, "modulus": m,
                             "rate": "inf" if math.isinf(rate) else rate}
                            for r, i, m, rate in rows],
        })
    return _write_csv(args.output, ("re", "im", "modulus", "rate"), rows)


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
    return _write_csv(args.output, SWEEP_HEADER, rows)


def cmd_sweep_family(args):
    rows = []
    if args.family == "cartan":
        grid = np.linspace(0.0, math.pi / 4, args.points)
        header = ("param",) + SWEEP_HEADER + ("nu_prime", "mu_prime", "nu_exact")
        for J in grid:
            rows.append(
                (float(J),)
                + _sweep_row(cartan_gate(J), args.n, args.seed, args.workers)
                + (nu_prime(J), mu_prime(J), nu_plus_exact(J))
            )
    else:  # "diag"
        header = ("param",) + SWEEP_HEADER
        for k in range(args.points):
            eps = (k + 1) / args.points * args.epsilon
            rng = substream(args.seed, "sweep-family-diag", k)
            U = diagonal_dual_sample(args.q, eps, rng)
            rows.append((float(eps),) + _sweep_row(U, args.n, args.seed, args.workers))
    return _write_csv(args.output, header, rows)


# ---------------------------------------------------------------------------
# circuit

CIRCUIT_KEYS = ("q", "L", "gate", "t_max", "basis_pairs")


def _load_circuit(path):
    """The circuit config, its t_max (default L // 2) and its basis pairs."""
    raw = _read_json(path)
    if not isinstance(raw, dict) or "gate" not in raw:
        raise ValidationError("a circuit config is a JSON object with a gate")
    unknown = sorted(raw.keys() - set(CIRCUIT_KEYS))
    if unknown:
        raise ValidationError(f"unknown circuit config keys {unknown}; allowed {list(CIRCUIT_KEYS)}")
    q, L = (require_int(raw.get(key), key, 1) for key in ("q", "L"))
    if "t_max" not in raw and L < 2:
        raise ValidationError(f"t_max must be an integer >= 1, got the default "
                              f"t_max = L // 2 = {L // 2} for L = {L}; set t_max")
    t_max = require_int(raw.get("t_max", L // 2), "t_max", 1)
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
    if pairs == []:
        raise ValidationError("basis_pairs must list at least one [i, j] pair, got []")
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(k) is int and 0 <= k < d for k in p)
        for p in pairs
    ):
        raise ValidationError(f"basis_pairs must be [i, j] pairs of integers in [0, {d}), "
                              f"got {pairs!r}")
    return [tuple(p) for p in pairs]


def _pairs_or_default(pairs, q):
    """The configured basis pairs, else every (i, j) with 1 <= i, j < min(q^2, 4)."""
    if pairs is not None:
        return _basis_pairs(pairs, q * q)
    nb = min(q * q, 4)
    return [(i, j) for i in range(1, nb) for j in range(1, nb)]


# legs of `circuit corr` rows formatted at once: the text held in memory stays
# a small part of the tables it is written from
CORR_CHUNK_LEGS = 4096


def _corr_csv(tables, batch, pairs):
    """The `circuit corr` CSV of the tables C[x, batch index, j] at t = 1, 2,
    ...: a row (x, t, i, j, re, im) per t, leg and pair, as `_fmt` writes it
    (repr of a Python float is its shortest round-trip text), yielded in
    chunks of at most CORR_CHUNK_LEGS legs."""
    k, j = [batch.index(i) for i, _ in pairs], [j for _, j in pairs]
    labels = [f"{i},{j}" for i, j in pairs]
    yield "x,t,i,j,value_re,value_im\n"
    for t in range(1, len(tables) + 1):
        for start in range(0, len(tables[t]), CORR_CHUNK_LEGS):
            c = tables[t][start:start + CORR_CHUNK_LEGS, k, j]
            lines = []
            for n, (res, ims) in enumerate(zip(c.real.tolist(), c.imag.tolist()), start):
                head = f"{0.5 * n!r},{t},"
                lines += [f"{head}{ij},{re!r},{im!r}\n" for ij, re, im in zip(labels, res, ims)]
            yield "".join(lines)


def cmd_circuit_corr(args):
    cfg, t_max, pairs = _load_circuit(args.config)
    sim = CircuitSimulator(cfg)
    pairs = _pairs_or_default(pairs, cfg.q)
    # every table before the first row: a grid over the budget is refused
    # before any sweep, and no output is half written; the configured a_i
    # travel as one batch, so each (t, x) is one sweep
    batch = tuple(sorted({i for i, _ in pairs}))
    tables = sim.single_site_grid(batch, 0.0, t_max)
    return _write_text(args.output, _corr_csv(tables, batch, pairs))


def cmd_circuit_verify(args):
    cfg, t_max, pairs = _load_circuit(args.config)
    if 2 * t_max > cfg.L:
        # the grid is exact on the ring at any t; the channel prediction is not
        raise ValidationError(
            f"t_max = {t_max} is outside the prediction window t <= L/2 = {cfg.L / 2}: "
            "finite-size recurrences invalidate the light-cone predictions")
    pairs = _pairs_or_default(pairs, cfg.q)
    if any(0 in p for p in pairs):
        raise ValidationError(f"circuit verify takes basis_pairs of nontrivial indices "
                              f"(>= 1), got {[list(p) for p in pairs]}")
    sim = CircuitSimulator(cfg)
    worst_cone, worst_interior = 0.0, 0.0
    a_i, a_j = (sim.basis[[p[k] for p in pairs]] for k in (0, 1))
    batch = sorted({i for i, _ in pairs})
    for t in (t_max, *range(1, t_max)):  # an over-budget t_max is refused first
        # interior entry C+(x = 0), 0 for a dual gate, first: its sweep carries the largest state
        worst_interior = max(worst_interior, abs(sim.correlations(1, 0.0, 0.0, t)[1]))
        # one sweep per ray, the configured a_i as its batch: C+(x = t), C-(x = -t)
        gp, gm = (sim.correlations(batch, y, y + x, t) for y, x in ((0.0, t), (0.5, -t)))
        # the channel prediction tr[M^(2t)(a_i) a_j] / q on each ray
        pp, pm = (lightcone_correlation_prediction(cfg.gate, a_i, a_j, t, side)
                  for side in ("plus", "minus"))
        for (i, j), vp, vm in zip(pairs, pp, pm, strict=True):
            k = batch.index(i)
            worst_cone = max(worst_cone, abs(gp[k, j] - vp), abs(gm[k, j] - vm))
    failed = [f"{name} {worst:.3e}" for name, worst in (
        ("cone residual", worst_cone), ("interior_max", worst_interior)) if not worst <= CONE_TOL]
    report = {"cone_residual": worst_cone, "interior_max": worst_interior, "t_max": t_max,
              "ok": not failed}
    out = _write_json(args.output, report)
    if failed:
        raise ValidationError(f"{' and '.join(failed)} above {CONE_TOL:.1e}")
    return out


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
    return out


def cmd_oracle_reshuffle_identities(args):
    rng = substream(args.seed, "oracle-reshuffle")
    d = args.q * args.q
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    res = verify_reshuffle_identities(X, [sample_haar(args.q, rng) for _ in range(4)])
    out = _write_json(args.output, res)
    worst = max(res.values())
    if not worst <= RESHUFFLE_TOL:
        raise ValidationError(f"identity residual {worst:.3e} above {RESHUFFLE_TOL:.0e}")
    return out


def cmd_perm_enumerate(args):
    rows = []
    for rec in enumerate_dual_permutations(args.q):
        rows.append((rec["perm_id"], rec["e_p"], rec["lambda1_mod"], rec["lambda2_mod"]))
    return _write_csv(args.output, ("perm_id", "e_p", "lambda1_mod", "lambda2_mod"), rows)


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """A parser, and so every subparser it adds, that takes options spelled in
    full only: argparse would otherwise read `--s` as `--seed`."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


@functools.cache
def build_parser():
    """The argument parser, built once per process.  A parsed command names
    its function only by its path: `gate make` runs cmd_gate_make."""
    p = _Parser(prog="dualu", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="group", required=True)

    def add_seed(sp):
        sp.add_argument("--seed", type=int, default=0)

    def add_workers(sp):
        sp.add_argument("--workers", type=int, default=None,
                        help="run the samples on at most this many threads (default: "
                        "the usable CPUs); the output does not depend on it")

    # gate: each family is a subparser with only the options it reads
    gate = sub.add_parser("gate").add_subparsers(dest="sub", required=True)
    families = gate.add_parser("make").add_subparsers(dest="family", required=True)

    def family(name, q=None):
        sp = families.add_parser(name)
        if q is not None:
            sp.add_argument("-q", type=int, default=q)
        sp.add_argument("-o", "--output", default="-")
        return sp

    block = family("block", q=3)
    block.add_argument("--side", choices=["ds", "sd"], default="ds")
    block.add_argument("--sizes", help="comma-separated block sizes (multiples of q)")
    add_seed(block)
    diag = family("diag", q=3)
    diag.add_argument("--epsilon", type=float, default=1.0)
    add_seed(diag)
    family("perm").add_argument(
        "--spec", help="permutation spec JSON (1-indexed K, L, optional theta)")
    family("cat", q=3).add_argument("--b", type=float, help="cat-family parameter")
    family("cartan").add_argument("--J", type=float, default=0.0)
    for name in ("mr", "mrt"):
        flow = family(name, q=3)
        flow.add_argument("--max-iter", type=int, default=10_000)
        flow.add_argument("--tol", type=float, default=FLOW_TOL)
        add_seed(flow)
    family("fixture").add_argument("--name", help="fixture name")

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
    add_workers(sh)
    sh.add_argument("-o", "--output", default="-")
    add_seed(sh)

    sweep_families = sweep.add_parser("family").add_subparsers(dest="family", required=True)
    for name in ("cartan", "diag"):
        sf = sweep_families.add_parser(name)
        if name == "diag":  # cartan is a qubit family of J alone
            sf.add_argument("-q", type=int, default=2)
            sf.add_argument("--epsilon", type=float, default=1.0)
        sf.add_argument("--points", type=int, default=10)
        sf.add_argument("-N", "--n", type=int, default=2000)
        add_workers(sf)
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


def _is_option(token):
    return token.startswith("-") and token != "-"  # a lone "-" is stdin


def _option_name(token):
    """The name a leftover token is refused by, without an attached value:
    `--max=5` names --max and `-q5` names -q."""
    if token.startswith("--"):
        return token.partition("=")[0]
    return token[:2] if _is_option(token) else token


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extra = build_parser().parse_known_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return exc.code
    if "gates" in args:  # argparse ends the gate list at an option; later words are gates too
        args.gates += [a for a in extra if not _is_option(a)]
        extra = [a for a in extra if _is_option(a)]
    args._raw_argv = argv
    args._command_path = [args.group, args.sub]
    t0 = time.time()
    try:
        if extra:  # the leftovers of every parser level, in argv order
            where = " ".join([*args._command_path, *([args.family] if "family" in args else [])])
            raise ValidationError(f"{where} takes no {_option_name(extra[0])}")
        if getattr(args, "workers", 1) is None:  # a sweep without --workers
            args.workers = _usable_cpus()
        for attr, flag, least in OPTION_FLOORS:
            value = getattr(args, attr, None)
            if value is not None and value < least:
                raise ValidationError(f"{flag} must be at least {least}, got {value}")
        # looked up at call time, so a rebound cmd_* function takes effect
        command = "_".join(["cmd", *args._command_path]).replace("-", "_")
        _emit_manifest(args, globals()[command](args), t0)
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
