"""Monte-Carlo mixing estimates over Haar-random single-particle unitaries.

Randomness is counter-based: every sample index owns an independent Philox
stream keyed by hash(seed, label, index) (`substream`), and the Haar draws of
index i are sample_haar(q, substream(seed, label, i)) (`haar_sample_at`).
Results are therefore bit-identical for a given (seed, N) regardless of how
the index range is split across workers, and adding a new consumer label
never perturbs existing streams.

The estimators evaluate the indices in blocks of BLOCK: each index's normals
come from one Philox re-keyed to that index's fresh stream (the same bytes a
new `substream` draws), then the block runs one stacked QR with the phase
fold, one broadcast u x u*, one stacked product with Mt and one stacked
eigensolve.  The stacked numpy calls still hand LAPACK/BLAS one matrix at a
time, so every value equals the per-index recipe's bit for bit and neither
BLOCK nor the worker split changes an output.

The central estimates: for a dual gate U with deflated channel Mt,

    E|lambda_1|  over  (u x u*) Mt,  u Haar        (~ f_q sqrt(1-e_p))
    mu_plus = E[-ln|lambda_1|],  nu_plus = max mu_1 over sampled locals
    E||[(u x u*) Mt]^k||^2   (exact (q^2-1)(1-e_p)^2 at k = 2)

plus a Monte-Carlo oracle for the degree-2 Haar monomial identity

    int du tr[X (u x u*) Y (u^dag x u^T)]
      = (tr X^R2 tr Y^R2 + tr X tr Y)/(q^2-1)
        - (tr X^R2 tr Y + tr X tr Y^R2)/(q(q^2-1)).
"""

import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .channels import build_m_plus, deflate_trivial, eigvals_schur
from .invariants import entangling_power
from .tensor_ops import haar_from_ginibre, local_dim, realign_r2, sample_haar

ZERO_TOL = 1e-9
# indices evaluated as one stack; results do not depend on it
BLOCK = 64


@dataclass
class MCEstimate:
    mean: float
    stderr: float
    n: int
    seed: int
    extras: dict = field(default_factory=dict)


def _philox_key(seed, label, index):
    digest = hashlib.blake2b(
        f"{seed}:{label}:{index}".encode(), digest_size=16
    ).digest()
    return int.from_bytes(digest, "little")


def substream(seed, label, index=0):
    """Independent deterministic generator for one (seed, label, index)."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, label, index)))


def haar_sample_at(d, seed, label, index):
    """Pure function of the index: the Haar sample any worker would draw."""
    return sample_haar(d, substream(seed, label, index))


def _haar_block(q, seed, label, lo, hi, draws=1):
    """(hi - lo, draws, q, q) stack of the Haar unitaries that `draws`
    successive sample_haar(q, substream(seed, label, i)) calls return, for
    every i in [lo, hi).

    A Philox per index would cost more than the rest of the pipeline, so one
    Philox is re-keyed per index to the state a new Philox(key=...) starts in.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0, empty buffer
    g = np.empty((hi - lo, draws, 2, q, q))
    for row, i in enumerate(range(lo, hi)):
        key = _philox_key(seed, label, i)
        fresh["state"]["key"] = np.array([key % 2**64, key >> 64], dtype=np.uint64)
        bitgen.state = fresh
        gen.standard_normal(out=g[row])
    z = (g[:, :, 0] + 1j * g[:, :, 1]) / math.sqrt(2)
    return haar_from_ginibre(z)


def _kron_conj(u):
    """np.kron(u, u.conj()) of every matrix of a stack, as one broadcast product."""
    n, q = u.shape[0], u.shape[-1]
    return (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]).reshape(n, q * q, q * q)


def _rotated_channels(Mt, q, seed, label, lo, hi, four_locals=False):
    """The locally rotated channels of indices [lo, hi), stacked.

    One local: (u x u*) Mt.  Four locals: sandwiching U with (u1 x u2),
    (v1 x v2) maps the channel to (v2^dag x v2^T) Mt (u1^dag x u1^T); u2, v1
    never enter, and u1 is drawn before v2.
    """
    if not four_locals:
        return _kron_conj(_haar_block(q, seed, label, lo, hi)[:, 0]) @ Mt
    u = _haar_block(q, seed, label, lo, hi, draws=2)
    left = _kron_conj(u[:, 1].conj().swapaxes(-1, -2))
    right = _kron_conj(u[:, 0].conj().swapaxes(-1, -2))
    return left @ Mt @ right


def _blocks(lo, hi):
    return ((b, min(b + BLOCK, hi)) for b in range(lo, hi, BLOCK))


def _radius_chunk(args):
    # np.linalg.eigvals is the same balanced Hessenberg+QR Schur reduction as
    # the channel-spectrum path, minus the accumulated Schur vectors
    Mt_bytes, shape, q, seed, label, lo, hi, four_locals = args
    Mt = np.frombuffer(Mt_bytes, dtype=complex).reshape(shape)
    out = np.empty(hi - lo)
    for b, e in _blocks(lo, hi):
        A = _rotated_channels(Mt, q, seed, label, b, e, four_locals)
        out[b - lo : e - lo] = np.abs(np.linalg.eigvals(A)).max(axis=-1)
    return lo, out


def spectral_radius_samples(U, n, seed, four_locals=False, workers=None,
                            label="spectral-radius"):
    """|lambda_1| of the locally rotated deflated channel, one value per index."""
    U = np.asarray(U, dtype=complex)
    q = local_dim(U)
    Mt = deflate_trivial(build_m_plus(U))
    workers = workers or int(os.environ.get("DUALUNITARY_WORKERS", "1"))
    out = np.empty(n)
    if workers <= 1:
        _, out[:] = _radius_chunk((Mt.tobytes(), Mt.shape, q, seed, label, 0, n, four_locals))
        return out
    chunk = max(1, (n + workers - 1) // workers)
    jobs = [
        (Mt.tobytes(), Mt.shape, q, seed, label, lo, min(lo + chunk, n), four_locals)
        for lo in range(0, n, chunk)
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for lo, vals in pool.map(_radius_chunk, jobs):
            out[lo : lo + len(vals)] = vals
    return out


def _estimate(values, seed, extras=None):
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = float(values.mean()) if n else float("nan")
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return MCEstimate(mean=mean, stderr=stderr, n=int(n), seed=seed, extras=extras or {})


def avg_spectral_radius(U, n, seed, four_locals=False, workers=None):
    """Haar average of the channel spectral radius under local rotations."""
    vals = spectral_radius_samples(U, n, seed, four_locals=four_locals, workers=workers)
    ep = entangling_power(U)
    ref = math.sqrt(max(1.0 - ep, 0.0))
    extras = {
        "e_p": ep,
        "sqrt_one_minus_ep": ref,
        "fudge_factor": float(vals.mean() / ref) if ref > 0 else float("inf"),
        "mean_sq": float((vals**2).mean()),
        "stderr_sq": float((vals**2).std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf"),
    }
    return _estimate(vals, seed, extras)


def avg_mixing_rate(U, n, seed, zero_tol=ZERO_TOL, workers=None):
    """mu_plus = E[-ln|lambda_1|].

    A zero mode (|lambda_1| < zero_tol) has an infinite rate, so any zero mode
    makes the mean and its stderr infinite; extras count them.
    """
    vals = spectral_radius_samples(U, n, seed, workers=workers, label="mixing-rate")
    finite = vals >= zero_tol
    extras = {"infinite_count": int(n - finite.sum()), "e_p": entangling_power(U)}
    if extras["infinite_count"]:
        return MCEstimate(mean=math.inf, stderr=math.inf, n=int(n), seed=seed, extras=extras)
    return _estimate(-np.log(vals), seed, extras)


def max_mixing_rate(U, n, seed, refine_steps=0, zero_tol=ZERO_TOL):
    """nu_plus as a sampled (lower-bound) maximum of mu_1 over Haar locals.

    With refine_steps > 0 the best sample is polished by a hill-climb
    u <- u exp(i eps H) over random Hermitian directions with a shrinking
    step.  Returns the rate and the method record.
    """
    U = np.asarray(U, dtype=complex)
    q = local_dim(U)
    Mt = deflate_trivial(build_m_plus(U))

    def radius(A):
        # the channel-spectrum eigensolver, one matrix at a time
        return np.abs(eigvals_schur(A)).max()

    best_r, best_u = np.inf, None
    for b, e in _blocks(0, n):
        u = _haar_block(q, seed, "max-rate", b, e)[:, 0]
        for uj, A in zip(u, _kron_conj(u) @ Mt):
            r = radius(A)
            if r < best_r:
                best_r, best_u = r, uj

    rng = substream(seed, "max-rate-refine")
    eps = 0.15
    for step in range(refine_steps):
        H = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        H = (H + H.conj().T) / 2
        trial = best_u @ scipy.linalg.expm(1j * eps * H)
        r = radius(np.kron(trial, trial.conj()) @ Mt)
        if r < best_r:
            best_r, best_u = r, trial
        else:
            eps *= 0.97
    nu = float("inf") if best_r < zero_tol else float(-math.log(best_r))
    return {
        "nu": nu,
        "min_radius": float(best_r),
        "n": n,
        "refine_steps": refine_steps,
        "seed": seed,
        "method": "haar sampling + hermitian-direction hill climb",
        "local": best_u,
    }


def avg_norm_power(U, k, n, seed, workers=None):
    """E || [(u x u*) Mtilde]^k ||_F^2 with the exact k = 2 reference value."""
    if k < 2:
        raise ValueError("k must be >= 2")
    U = np.asarray(U, dtype=complex)
    q = local_dim(U)
    Mt = deflate_trivial(build_m_plus(U))
    vals = np.empty(n)
    for b, e in _blocks(0, n):
        B = np.linalg.matrix_power(_rotated_channels(Mt, q, seed, f"norm-power-{k}", b, e), k)
        vals[b:e] = [np.vdot(Bi, Bi).real for Bi in B]
    ep = entangling_power(U)
    extras = {
        "e_p": ep,
        "exact_k2": (q * q - 1) * (1.0 - ep) ** 2,
        "approx_k": (q * q - 1) * (1.0 - ep) ** k,
        "k": k,
    }
    return _estimate(vals, seed, extras)


def haar_monomial_closed_form(X, Y):
    """The degree-2 closed form of int du tr[X (u x u*) Y (u^dag x u^T)]."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    q = local_dim(X)
    trx, trY = np.trace(X), np.trace(Y)
    trxr, tryr = np.trace(realign_r2(X)), np.trace(realign_r2(Y))
    return (trxr * tryr + trx * trY) / (q * q - 1) - (trxr * trY + trx * tryr) / (
        q * (q * q - 1)
    )


def haar_monomial_oracle(X, Y, n, seed):
    """Monte-Carlo check of the Haar monomial identity; returns both sides."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    q = local_dim(X)
    vals = np.empty(n, dtype=complex)
    for b, e in _blocks(0, n):
        W = _kron_conj(_haar_block(q, seed, "monomial", b, e)[:, 0])
        vals[b:e] = np.trace(X @ W @ Y @ W.conj().swapaxes(-1, -2), axis1=-2, axis2=-1)
    mean = vals.mean()
    stderr = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    closed = haar_monomial_closed_form(X, Y)
    z = abs(mean - closed) / stderr if stderr > 0 else 0.0
    return {
        "mc_mean": complex(mean),
        "mc_stderr": stderr,
        "closed_form": complex(closed),
        "z_score": float(z),
        "n": n,
        "seed": seed,
    }
