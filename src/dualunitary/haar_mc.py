"""Monte-Carlo mixing estimates over Haar-random single-particle unitaries.

Randomness is counter-based.  The Haar locals of stream (seed, label) come
from one Philox keyed by hash(seed, label) (stream scheme 2): index i reads
the W = 4 ceil(2 q^2 / 4) 64-bit words at counter blocks [i W/4, (i+1) W/4),
turns them into q^2 complex normals by Box-Muller (no rejection) and those
into a Haar unitary by the QR with the phase fold (`_haar_block`,
`haar_sample_at`).  Every index is addressable on its own, so results are
bit-identical for a given (seed, N) however the index range is split across
blocks or workers, and adding a new consumer label never perturbs existing
streams.  `substream` gives one independent generator per (seed, label,
index) for everything else: the gate factories, `channel spectrum --locals`
and the oracles' inputs.

The radius engine factors the deflated channel once per gate, Mt = X Yh
(`channels.factored_channel`, the same factorisation `channel_spectrum`
eigensolves: one real SVD in an orthonormal Hermitian operator basis that
keeps the m singular values above `channel_rank_tol(q)`).  The nonzero
eigenvalues of (u x u*) X Yh are those of the m x m matrix Yh (u x u*) X
(Sylvester).  u x u* preserves Hermiticity, so that matrix is real up to
rounding, and only its real part is eigensolved.
A 2-unitary (Bernoulli) gate has m = 0: every radius is exactly 0.0, with no
Haar draw and no eigensolve.  The block duals D3S and D4S have m = 2 and 3,
the even-q cat map m = 1, and a generic dual gate m = q^2 - 1.

One local per sample is the paper's full average: sandwiching U with
(u1 x u2) and (v1 x v2) maps the channel to (v2^dag x v2^T) Mt (u1^dag x u1^T),
whose nonzero spectrum is that of (u x u*) Mt with u = u1^dag v2^dag; u is
Haar whenever u1 and v2 are independent Haar unitaries (invariance of the
Haar measure).

The estimators evaluate the indices in blocks of BLOCK (`_map_blocks`): each
block reads its Philox words with one `random_raw` call from the counter of
its first index, then runs one vectorised Box-Muller step, one stacked QR
with the phase fold and one broadcast u x u* before its kernel, e.g. one
stacked compression Yh (u x u*) X and one stacked m x m eigensolve.  The
stacked numpy calls still hand LAPACK/BLAS one matrix at a time, so every
value equals the per-index recipe's bit for bit and neither BLOCK nor the
worker split changes an output.

The central estimates: for a dual gate U with deflated channel Mt and
r = |lambda_1((u x u*) Mt)|, u Haar,

    E r  (~ f_q sqrt(1-e_p)),  mu_plus = E[-ln r],  nu_plus = -ln min r
    E||[(u x u*) Mt]^k||^2   (exact (q^2-1)(1-e_p)^2 at k = 2)

The first three are reductions of one radius vector (`radius_estimate`,
`mixing_rate_estimate`, `max_rate`).  `dualu sweep` applies all three to one
sample set on the "spectral-radius" stream, so its nu_plus is the minimum
over all N samples; the standalone estimators keep their own stream labels.

plus a Monte-Carlo oracle for the degree-2 Haar monomial identity

    int du tr[X (u x u*) Y (u^dag x u^T)]
      = (tr X^R2 tr Y^R2 + tr X tr Y)/(q^2-1)
        - (tr X^R2 tr Y + tr X tr Y^R2)/(q(q^2-1)).
"""

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .channels import build_m_plus, decay_rates, deflate_trivial, factored_channel
from .invariants import entangling_power
from .tensor_ops import ValidationError, haar_from_ginibre, local_dim, realign_r2, sample_haar

# indices evaluated as one stack; results do not depend on it
BLOCK = 64
# the Haar-stream layout, recorded in every run manifest
STREAM_SCHEME = 2


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


def _stream_key(seed, label):
    """Philox key of the Haar stream (seed, label); the person tag keeps it
    apart from every `substream` key."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=16,
                             person=b"haar-stream").digest()
    return int.from_bytes(digest, "little")


def _haar_from_words(q, words):
    """Haar q x q unitaries from an (n, W) array of Philox words: the first
    2 q^2 words of a row pair up as (u, v), two 53-bit uniforms with u in
    (0, 1], and give the Ginibre entries sqrt(-ln u) exp(2 pi i v) (Box-Muller)."""
    w = words[:, : 2 * q * q] >> np.uint64(11)
    u = (w[:, 0::2] + np.uint64(1)) * 2.0**-53
    v = w[:, 1::2] * (2 * math.pi * 2.0**-53)
    r = np.sqrt(-np.log(u))
    z = np.empty(u.shape, dtype=complex)
    z.real = r * np.cos(v)
    z.imag = r * np.sin(v)
    return haar_from_ginibre(z.reshape(-1, q, q))


def _haar_block(q, seed, label, lo, hi):
    """(hi - lo, q, q) stack of the Haar locals of indices [lo, hi) of stream
    (seed, label): one `random_raw` read from counter block lo W/4."""
    W = 4 * -(-2 * q * q // 4)  # two words per normal, in whole counter blocks of 4
    bitgen = np.random.Philox(key=_stream_key(seed, label), counter=lo * W // 4)
    return _haar_from_words(q, bitgen.random_raw((hi - lo) * W).reshape(hi - lo, W))


def haar_sample_at(d, seed, label, index):
    """Pure function of the index: the Haar local any block or worker draws there."""
    return _haar_block(d, seed, label, index, index + 1)[0]


def _map_blocks(kernel, q, seed, label, lo, hi):
    """kernel(K) of every BLOCK of indices in [lo, hi), concatenated; K is the
    (n, q^2, q^2) stack of u x u* for the block's Haar locals u."""
    out = [np.empty(0)]  # lo == hi: an empty result
    for b in range(lo, hi, BLOCK):  # BLOCK read per call: tests rebind it
        u = _haar_block(q, seed, label, b, min(b + BLOCK, hi))
        K = (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]).reshape(-1, q * q, q * q)
        out.append(kernel(K))
    return np.concatenate(out)


def _radii(X, Yh, K):
    """|lambda_1| of every K X Yh in the stack K: its nonzero eigenvalues are
    those of the m x m matrix Yh K X (Sylvester), real up to rounding because
    K preserves Hermiticity (`factored_channel`), so only its real part is
    eigensolved."""
    return np.abs(np.linalg.eigvals((Yh @ K @ X).real)).max(axis=-1)


def _radius_chunk(args):
    X, Yh, q, seed, label, lo, hi = args
    return lo, _map_blocks(lambda K: _radii(X, Yh, K), q, seed, label, lo, hi)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def spectral_radius_samples(U, n, seed, workers=None, label="spectral-radius"):
    """|lambda_1| of the locally rotated deflated channel, one value per index.

    workers > 1 splits the indices into ceil(n / workers)-sized chunks, run by
    at most one process per usable CPU; workers=None means 1.
    """
    U = np.asarray(U, dtype=complex)
    X, Yh = factored_channel(build_m_plus(U))
    return _factored_radii(X, Yh, local_dim(U), n, seed, workers, label)


def _factored_radii(X, Yh, q, n, seed, workers, label):
    """spectral_radius_samples of the channel factored as Mt = X Yh."""
    if not Yh.shape[0]:  # a zero channel: no Haar draw, no eigensolve
        return np.zeros(n)
    if workers is None or workers <= 1:
        return _radius_chunk((X, Yh, q, seed, label, 0, n))[1]
    from concurrent.futures import ProcessPoolExecutor

    out = np.empty(n)
    chunk = max(1, (n + workers - 1) // workers)
    jobs = [(X, Yh, q, seed, label, lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    with ProcessPoolExecutor(max_workers=max(1, min(len(jobs), _usable_cpus()))) as pool:
        for lo, vals in pool.map(_radius_chunk, jobs):
            out[lo : lo + len(vals)] = vals
    return out


def _estimate(values, seed, extras=None):
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = float(values.mean()) if n else float("nan")
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return MCEstimate(mean=mean, stderr=stderr, n=int(n), seed=seed, extras=extras or {})


# Reductions of one radius vector r = spectral_radius_samples(...); the
# estimators below and `dualu sweep` both read their numbers through these.

def radius_estimate(r, seed, ep):
    """E|lambda_1| and its stderr, with the e_p comparison in extras."""
    ref = math.sqrt(max(1.0 - ep, 0.0))
    sq = _estimate(r**2, seed)
    extras = {"e_p": ep, "sqrt_one_minus_ep": ref,
              "fudge_factor": float(r.mean() / ref) if ref > 0 else float("inf"),
              "mean_sq": sq.mean, "stderr_sq": sq.stderr}
    return _estimate(r, seed, extras)


def mixing_rate_estimate(r, seed, extras=None):
    """mu_plus = E[-ln r].  A zero mode has an infinite rate (`decay_rates`),
    so any zero mode makes the mean and its stderr infinite; extras count them."""
    rates = decay_rates(r)
    extras = {"infinite_count": int(np.isinf(rates).sum()), **(extras or {})}
    if extras["infinite_count"]:
        return MCEstimate(mean=math.inf, stderr=math.inf, n=int(r.size), seed=seed, extras=extras)
    return _estimate(rates, seed, extras)


def max_rate(r):
    """nu_plus = -ln min r; infinite for a zero mode (`decay_rates`)."""
    return float(decay_rates(np.min(r)))


def avg_spectral_radius(U, n, seed, workers=None):
    """Haar average of the channel spectral radius under local rotations."""
    r = spectral_radius_samples(U, n, seed, workers=workers)
    return radius_estimate(r, seed, entangling_power(U))


def avg_mixing_rate(U, n, seed):
    """mu_plus = E[-ln|lambda_1|] on its own stream (see mixing_rate_estimate)."""
    r = spectral_radius_samples(U, n, seed, label="mixing-rate")
    return mixing_rate_estimate(r, seed, {"e_p": entangling_power(U)})


def max_mixing_rate(U, n, seed, refine_steps=0):
    """nu_plus as a sampled (lower-bound) maximum of mu_1 over Haar locals.

    With refine_steps > 0 the best sample is polished by a hill-climb
    u <- u exp(i eps H) over random Hermitian directions with a shrinking
    step.  Returns the rate and the method record.
    """
    import scipy.linalg

    U = np.asarray(U, dtype=complex)
    q = local_dim(U)
    X, Yh = factored_channel(build_m_plus(U))
    r = _factored_radii(X, Yh, q, n, seed, None, "max-rate")
    i = int(np.argmin(r))  # the first strict minimum
    best_r, best_u = r[i], haar_sample_at(q, seed, "max-rate", i)

    rng = substream(seed, "max-rate-refine")
    eps = 0.15
    for step in range(refine_steps if best_r > 0 else 0):  # nothing beats a zero radius
        H = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        H = (H + H.conj().T) / 2
        trial = best_u @ scipy.linalg.expm(1j * eps * H)
        r_trial = _radii(X, Yh, np.kron(trial, trial.conj()))
        if r_trial < best_r:
            best_r, best_u = r_trial, trial
        else:
            eps *= 0.97
    return {
        "nu": max_rate(best_r),
        "min_radius": float(best_r),
        "n": n,
        "refine_steps": refine_steps,
        "seed": seed,
        "method": "haar sampling + hermitian-direction hill climb",
        "local": best_u,
    }


def avg_norm_power(U, k, n, seed):
    """E || [(u x u*) Mtilde]^k ||_F^2 with the exact k = 2 reference value."""
    if k < 2:
        raise ValidationError("k must be >= 2")
    U = np.asarray(U, dtype=complex)
    q = local_dim(U)
    Mt = deflate_trivial(build_m_plus(U))

    def norm_powers(K):
        return [np.vdot(B, B).real for B in np.linalg.matrix_power(K @ Mt, k)]

    vals = _map_blocks(norm_powers, q, seed, f"norm-power-{k}", 0, n)
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
    """Monte-Carlo check of the Haar monomial identity; returns both sides.

    The z-score needs a finite standard error, so n >= 2 samples."""
    if n < 2:
        raise ValidationError(f"the Haar-identity oracle needs N >= 2 samples for a "
                         f"standard error, got N = {n}")
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    q = local_dim(X)

    def monomials(W):
        return np.trace(X @ W @ Y @ W.conj().swapaxes(-1, -2), axis1=-2, axis2=-1)

    vals = _map_blocks(monomials, q, seed, "monomial", 0, n)
    mean = vals.mean()
    stderr = float(vals.std(ddof=1) / math.sqrt(n))
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
