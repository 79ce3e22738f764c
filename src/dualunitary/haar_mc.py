"""Monte-Carlo mixing estimates over Haar-random single-particle unitaries.

Randomness is counter-based.  The Haar locals of stream (seed, label) come
from one Philox keyed by hash(seed, label) (stream scheme 2): index i reads
the W = 4 ceil(2 q^2 / 4) 64-bit words at counter blocks [i W/4, (i+1) W/4),
turns them into q^2 complex normals by Box-Muller (no rejection) and those
into a Haar unitary by the QR with the phase fold (`_haar_block`,
`haar_sample_at`).  Every index is addressable on its own, and adding a
new consumer label never perturbs existing streams.  `substream` gives one
independent generator per (seed, label, index) for everything else: the
gate factories, `channel spectrum --locals` and the oracles' inputs.

The engine factors the deflated channel once per gate, Mt = X Yh, keeping
its m singular values s above `channel_rank_tol(q)` (`channels.factored_channel`,
the factorisation `channel_spectrum` eigensolves), and that one factorisation
feeds the radii and the norm powers alike.  A sample's one object is the real
m x m compression C = Yh (u x u*) X (`_compression`; u x u* preserves
Hermiticity, so C is real up to rounding): the nonzero eigenvalues of
(u x u*) Mt are those of C (Sylvester), and its norm powers are those of
diag(s) C^(k-1) (`avg_norm_power`).  A 2-unitary (Bernoulli) gate has m = 0:
every sample is exactly 0.0, with no Haar draw.  The block duals D3S and D4S
have m = 2 and 3, the even-q cat map m = 1, a generic dual gate m = q^2 - 1.

One local per sample is the paper's full average: sandwiching U with
(u1 x u2) and (v1 x v2) maps the channel to (v2^dag x v2^T) Mt (u1^dag x u1^T),
whose nonzero spectrum is that of (u x u*) Mt with u = u1^dag v2^dag; u is
Haar whenever u1 and v2 are independent Haar unitaries (invariance of the
Haar measure).

The estimators evaluate the indices on one fixed grid of blocks
(`_map_blocks`): block k holds the indices [k BLOCK, (k + 1) BLOCK), the last
one cut at N.  A block reads its Philox words with one `random_raw` call,
then runs one vectorised Box-Muller step, one stacked QR with the phase fold
and one broadcast u x u* before its kernel, e.g. the stacked compressions C
and their eigensolves.  BLOCK bounds a thread's memory (BLOCK q^2 x q^2
complex u x u*, 1 MiB at q = 4), and a block's fixed Python cost (Philox
set-up, the QR and eigvals wrappers) holds the GIL, which is why a block is
not fewer indices.  The QR, the compression's two products, the eigensolve
and the powers of C run one index at a time, as in the per-index recipe.
So sample i of stream (seed, label) is the recipe's value, whatever N, the
block and the thread count, on every OpenBLAS kernel that the kernel test
forces (`OPENBLAS_CORETYPE`: SkylakeX, Haswell, Sandybridge, Prescott).  The
values round per kernel, so the CLI parity corpus holds on SkylakeX, where
it was made.

`_map_blocks`, the engine's one parallel loop, deals the blocks round-robin
to at most `workers` threads (default: the usable CPUs; never more than the
usable CPUs or the blocks): thread i, the caller being thread 0, takes the
blocks k = i mod threads, each other thread a plain thread the call starts
and joins, and one block starts none.  An exception in a helper's block is
re-raised in the caller after the join, so no partial result is returned.
The threads share only the result list: every BLAS and LAPACK call runs
unsynchronised (numpy's OpenBLAS is thread-safe) and releases the GIL, so
the draws and kernels of different blocks overlap.

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

import ctypes
import functools
import hashlib
import math
import os
import pathlib
import threading
from dataclasses import dataclass, field

import numpy as np

from .channels import build_m_plus, decay_rates, factored_channel
from .invariants import entangling_power
from .tensor_ops import (ValidationError, expi_hermitian, haar_from_ginibre, local_dim,
                         realign_r2, require_int)

# indices evaluated as one stack; results do not depend on it
BLOCK = 256
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
    """Independent deterministic generator for one (seed, label, index).  The
    key hashes their text, so a seed or index that is not an integer is
    refused: 1.0 or True would silently key another stream than 1."""
    require_int(seed, "seed")
    require_int(index, "index")
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


@functools.cache
def openblas_kernel():
    """The kernel (core name) numpy's bundled OpenBLAS runs, e.g. "SkylakeX",
    read once per process; None where that library or its symbol is missing."""
    for path in sorted((pathlib.Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _kron_block(q, seed, label, lo, hi):
    """(hi - lo, q^2, q^2) stack of u x u* for the Haar locals of indices [lo, hi)."""
    u = _haar_block(q, seed, label, lo, hi)
    return (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]).reshape(-1, q * q, q * q)


def _map_blocks(kernel, q, seed, label, n, workers=None):
    """kernel(K) of every block of the fixed BLOCK grid on [0, n),
    concatenated in index order; K is the `_kron_block` stack of the block.
    The blocks are dealt round-robin to the threads (see the module doc)."""
    block = BLOCK  # read per call: tests rebind it
    blocks = -(-n // block)
    cpus = _usable_cpus()
    threads = min(workers or cpus, cpus, blocks)
    results, errors = [None] * blocks, []

    def run(i):
        try:
            # no block's stack outlives its kernel call, so a thread holds one at a time
            for k in range(i, blocks, threads):
                results[k] = kernel(_kron_block(q, seed, label, k * block, min((k + 1) * block, n)))
        except BaseException as exc:  # re-raised in the caller after the join
            errors.append(exc)

    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, threads)]
    for t in helpers:
        t.start()
    run(0)
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]
    return np.concatenate(results)


def _compression(X, Yh, K):
    """The real m x m compression (Yh K) X of each K of a stack, or of one K."""
    return ((Yh @ K) @ X).real


def _radii(X, Yh, K):
    """|lambda_1| of K X Yh: the largest eigenvalue modulus of the compression."""
    return np.abs(np.linalg.eigvals(_compression(X, Yh, K))).max(axis=-1)


def spectral_radius_samples(U, n, seed, workers=None, label="spectral-radius"):
    """|lambda_1| of the locally rotated deflated channel, one value per index.

    The indices run on at most `workers` threads (default: the usable CPUs;
    see `_map_blocks`); the values do not depend on it.  An n or workers
    that is not an integer >= 1, or a seed that is not an integer, is
    refused, here and in every estimator.
    """
    U = np.asarray(U, dtype=complex)
    X, _, Yh = factored_channel(build_m_plus(U))
    return _factored_samples(_radii, X, Yh, local_dim(U), n, seed, workers, label)


def _check_counts(n, seed, workers=None):
    """Refuse a sample count or a thread cap that is not an integer >= 1, and
    a seed that is not an integer (its text keys the stream, as in `substream`)."""
    require_int(n, "N", 1)
    require_int(seed, "seed")
    if workers is not None:
        require_int(workers, "workers", 1)


def _factored_samples(kernel, X, Yh, q, n, seed, workers, label):
    """kernel(X, Yh, K) of the blocks of stream (seed, label); m = 0: zeros, no draw."""
    _check_counts(n, seed, workers)
    if not Yh.shape[0]:
        return np.zeros(n)
    return _map_blocks(lambda K: kernel(X, Yh, K), q, seed, label, n, workers)


def _estimate(values, seed, extras=None):
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = float(values.mean()) if n else float("nan")
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return MCEstimate(mean=mean, stderr=stderr, n=int(n), seed=seed, extras=extras or {})


# Reductions of one radius vector r = spectral_radius_samples(...); the
# estimators below and `dualu sweep` both read their numbers through these.

def radius_estimate(r, seed, ep):
    """E|lambda_1| and its stderr; extras hold e_p and E|lambda_1|^2 with its stderr."""
    sq = _estimate(r**2, seed)
    extras = {"e_p": ep, "mean_sq": sq.mean, "stderr_sq": sq.stderr}
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
    require_int(refine_steps, "refine_steps", 0)
    U = np.asarray(U, dtype=complex)
    q = local_dim(U)
    X, _, Yh = factored_channel(build_m_plus(U))
    r = _factored_samples(_radii, X, Yh, q, n, seed, None, "max-rate")
    i = int(np.argmin(r))  # the first strict minimum
    best_r, best_u = r[i], haar_sample_at(q, seed, "max-rate", i)

    rng = substream(seed, "max-rate-refine")
    eps = 0.15
    for step in range(refine_steps if best_r > 0 else 0):  # nothing beats a zero radius
        H = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        H = (H + H.conj().T) / 2
        trial = best_u @ expi_hermitian(H, eps)
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
    """E ||[(u x u*) Mt]^k||_F^2 over Haar u.  With Mt = X Yh (`factored_channel`),
    X^dag X = diag(s)^2 and Yh Yh^dag = 1, (K Mt)^k = K X C^(k-1) Yh for K = u x u*
    and the radii's compression C = Yh K X, so a sample is ||diag(s) C^(k-1)||_F^2.
    extras: exact_k2 = (q^2-1)(1-e_p)^2 is the k = 2 average; approx_k =
    (q^2-1)(1-e_p)^k is a scale, not the average, at k >= 3."""
    require_int(k, "k", 2)
    U = np.asarray(U, dtype=complex)
    q = local_dim(U)
    X, s, Yh = factored_channel(build_m_plus(U))

    def norm_powers(X, Yh, K):
        P = s[:, None] * np.linalg.matrix_power(_compression(X, Yh, K), k - 1)
        return (P * P).reshape(len(P), -1).sum(axis=-1)

    vals = _factored_samples(norm_powers, X, Yh, q, n, seed, None, f"norm-power-{k}")
    ep = entangling_power(U)
    extras = {"e_p": ep, "exact_k2": (q * q - 1) * (1.0 - ep) ** 2,
              "approx_k": (q * q - 1) * (1.0 - ep) ** k, "k": k}
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
    _check_counts(n, seed)
    if n < 2:
        raise ValidationError(f"the Haar-identity oracle needs N >= 2 samples for a "
                         f"standard error, got N = {n}")
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    q = local_dim(X)

    def monomials(W):
        return np.trace(X @ W @ Y @ W.conj().swapaxes(-1, -2), axis1=-2, axis2=-1)

    vals = _map_blocks(monomials, q, seed, "monomial", n)
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
