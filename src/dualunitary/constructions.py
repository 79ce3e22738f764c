"""Gate factories: block-diagonal duals, diagonal ensembles, the realign-polar
iteration, permutation gates with Latin-square logic, quantum cat maps, and
the hard-coded reference gates.

Families and their entangling-power ranges:

  * D_{q_1..q_K} (x) swap, block sizes q_j = m_j q:  e_p <= (q^2-K)/(q^2-1);
    the uniform case K = q tops out at q/(q+1);
  * diagonal-phase gates D_1 S: same uniform bound, mean e_p = (q-1)/(q+1),
    arcsin-law distributed for qubits;
  * iterated realign+nearest-unitary flow ("dual-CUE"): dual gates of large
    e_p; with an extra partial-transpose polish step it lands on 2-unitaries;
  * permutation gates P|ij> = e^{i theta_ij}|k_ij l_ij>: dual iff K has
    distinct rows and L distinct columns, 2-unitary iff (K, L) are orthogonal
    Latin squares;
  * the coupled quantum cat map: dual for every q, 2-unitary for odd q, and
    e_p = (q^2-2)/(q^2-1) (the tight mixing threshold) for even q.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .channels import build_m_plus, channel_spectrum
from .invariants import (
    DualityClass,
    classify_duality,
    entangling_power,
    operator_entanglement_swapped,
    swap_entanglement,
)
from .tensor_ops import (
    ValidationError,
    _json_array,
    _json_object,
    expi_hermitian,
    local_dim,
    max_entangled_vector,
    partial_transpose_t2,
    realign_r1,
    realign_r2,
    require_finite,
    require_int,
    require_positive,
    require_unitary,
    sample_haar,
    swap_operator,
)
from .tolerances import (CAT_CHECK_TOL, DELTOID_SHRINK, FLOW_TOL, POLAR_RANK_TOL, REFLOW_TOL,
                         UNISTOCHASTIC_TOL)


# ---------------------------------------------------------------------------
# block-diagonal constructions

def block_diagonal_matrix(q, blocks):
    """Direct sum of unitary blocks whose sizes are multiples of q summing to q^2."""
    require_int(q, "q", 2)
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    sizes = [b.shape[0] for b in blocks]
    for b in blocks:
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValidationError("blocks must be square")
    if any(s % q for s in sizes):
        raise ValidationError(f"block sizes {sizes} must be multiples of q={q}")
    if sum(sizes) != q * q:
        raise ValidationError(f"block sizes {sizes} must sum to q^2={q*q}")
    D = np.zeros((q * q, q * q), dtype=complex)
    off = 0
    for b, s in zip(blocks, sizes):
        D[off : off + s, off : off + s] = b
        off += s
    return D


def block_diagonal_gate(q, blocks, side="ds"):
    """Dual gate D.S (side="ds") or S.D (side="sd") from a block-diagonal D."""
    D = block_diagonal_matrix(q, blocks)
    S = swap_operator(q)
    if side == "ds":
        return D @ S
    if side == "sd":
        return S @ D
    raise ValidationError("side must be 'ds' or 'sd'")


def random_uniform_block_gate(q, rng, side="ds"):
    """Uniform case: q Haar blocks of size q on the diagonal."""
    return random_block_gate(q, [1] * q, rng, side=side)


def random_block_gate(q, m_sizes, rng, side="ds"):
    """Random dual gate D.S (or S.D) with blocks of sizes m_j q, sum m_j = q.

    m_j = 1 blocks are Haar unitaries; m_j > 1 blocks are tensor products
    u_{m_j} (x) v_q, the simplest choice that stays unitary under the
    partial transpose of the q-dimensional factor, so the assembled gate is
    dual for any K.
    """
    if min(m_sizes) < 1 or sum(m_sizes) != q:
        raise ValidationError(f"multipliers {m_sizes} must be positive and sum to q={q}")
    blocks = []
    for m in m_sizes:
        if m == 1:
            blocks.append(sample_haar(q, rng))
        else:
            blocks.append(np.kron(sample_haar(m, rng), sample_haar(q, rng)))
    return block_diagonal_gate(q, blocks, side=side)


def diagonal_dual_sample(q, epsilon, rng):
    """D_1 S with diagonal phases e^{i epsilon phi}, phi uniform on [-pi, pi).

    epsilon = 1 is the full diagonal ensemble; small epsilon stays near the
    swap and sweeps the small-e_p corner.
    """
    require_int(q, "q", 2)
    if not 0 < epsilon <= 1:
        raise ValidationError("epsilon must be in (0, 1]")
    phases = rng.uniform(-math.pi, math.pi, size=q * q)
    D = np.diag(np.exp(1j * epsilon * phases))
    return D @ swap_operator(q)


def _embed_block(q, block, offset):
    E = np.zeros((q * q, q * q), dtype=complex)
    E[offset : offset + block.shape[0], offset : offset + block.shape[0]] = block
    return E


def _matched_residual(a, b):
    """Largest |a_i - b_j| over pairs taken by increasing distance, each index once.
    It is the Hungarian matching's value when one side repeats each degenerate
    eigenvalue exactly and the other lies well inside the gaps between them."""
    cost = np.abs(np.subtract.outer(a, b))
    free_a, free_b = np.ones(len(cost), bool), np.ones(len(cost), bool)
    for i, j in zip(*np.unravel_index(np.argsort(cost, axis=None), cost.shape)):
        if free_a[i] and free_b[j]:
            free_a[i] = free_b[j] = False
            last = cost[i, j]  # the largest pair so far
    return float(last)


def block_channel_forms(q, blocks, side="ds"):
    """Closed-form channel of a block-diagonal dual gate, checked against the
    direct construction.

    For D.S the channel splits into diagonal blocks, one per ordered block
    pair (k, l); in the uniform case it is diagonal with entries
    tr(U_k U_l^dag)/q.  For S.D in the uniform case it is
    sum_j U_j^dag (x) U_j^T / q.
    """
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    gate = block_diagonal_gate(q, blocks, side=side)
    direct = build_m_plus(gate)

    offsets = np.cumsum([0] + [b.shape[0] for b in blocks])
    if side == "ds":
        assembled = np.zeros_like(direct)
        for k, bk in enumerate(blocks):
            for l, bl in enumerate(blocks):
                Ak = realign_r2(_embed_block(q, bk, offsets[k]))
                Al = realign_r2(_embed_block(q, bl, offsets[l]))
                assembled += realign_r1(Ak @ Al.conj().T) / q
    else:
        S = swap_operator(q)
        assembled = np.zeros_like(direct)
        for j, bj in enumerate(blocks):
            Aj = realign_r1(_embed_block(q, bj, offsets[j]))
            assembled += realign_r1(S @ Aj @ Aj.conj().T @ S) / q

    report = {
        "q": q,
        "side": side,
        "assembly_residual": float(np.abs(direct - assembled).max()),
    }
    uniform = all(b.shape[0] == q for b in blocks)
    report["uniform"] = uniform
    if uniform:
        if side == "ds":
            lam = np.array(
                [np.trace(bk @ bl.conj().T) / q for bk in blocks for bl in blocks]
            )
            report["spectrum_closed"] = lam
            report["spectrum_residual"] = _matched_residual(lam, np.linalg.eigvals(direct))
        else:
            closed = sum(np.kron(b.conj().T, b.T) for b in blocks) / q
            report["closed_form_residual"] = float(np.abs(direct - closed).max())
    return report


# ---------------------------------------------------------------------------
# realign + nearest-unitary iteration

@dataclass
class MRTrace:
    n_iter: int
    s_half_history: np.ndarray  # entry k: S_1/2 of iterate k, k = 1..n_iter
    final_defects: dict = field(default_factory=dict)
    converged: bool = False
    rank_deficient_steps: int = 0


def _svd_did_not_converge(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


# The gufunc np.linalg.svd runs for a full SVD of a complex matrix (numpy >= 2),
# bound once: (P, sigma, Qh) with sigma descending, the same bytes as
# np.linalg.svd, without its per-call checks.  It reports a LAPACK failure
# through the "invalid" floating-point flag, so call it only inside
# _SVD_ERRSTATE, the error state np.linalg.svd sets around it.
_svd = functools.partial(_umath_linalg.svd_f, signature="D->DdD")
_SVD_ERRSTATE = dict(call=_svd_did_not_converge, invalid="call", over="ignore",
                     divide="ignore", under="ignore")


def _iterate(U0, max_iter, tol, two_unitary=False):
    """The loop of both flows.  The SVD P diag(sigma) Q^dag of U^R2 is the next
    polar step P Q^dag and, as U^R1 = (S U^R2 S)^T, U's Schmidt spectrum
    gamma_j = sigma_j^2: E(U) = 1 - sum sigma^4/q^4, S_1/2 = 2(sum sigma/q - 1)
    and the rank flag sigma_min < POLAR_RANK_TOL.  Each step ends with the new
    iterate's SVD, so entry k describes iterate k; two_unitary inserts the
    partial-transpose polar step before it and also stops on E(S) - E(US).
    Where a sigma_j < POLAR_RANK_TOL the polar factor is not unique; its phase
    on that subspace comes from the LAPACK basis completion, deterministic for
    a given input.

    Each step is one LAPACK call per SVD and little else: the reshuffles are
    gathers U.take(idx) by flat indices made once per flow (the reshuffle
    applied to arange(q^4)), the SVD is the bound gufunc `_svd`, and one
    np.errstate around the whole loop turns a LAPACK failure into
    LinAlgError("SVD did not converge"), as np.linalg.svd does per call."""
    require_int(max_iter, "max_iter", 1)
    require_positive(tol, "tol")
    U = np.asarray(U0, dtype=complex)
    q = local_dim(U)
    es = swap_entanglement(q)
    flat = np.arange(q**4).reshape(q * q, q * q)
    r2, t2 = realign_r2(flat), partial_transpose_t2(flat)
    s_hist = []
    rank_flags = 0
    converged = False
    n = 0
    with np.errstate(**_SVD_ERRSTATE):
        P, sigma, Qh = _svd(U.take(r2))
        for n in range(1, max_iter + 1):
            U = P @ Qh
            rank_flags += bool(sigma[-1] < POLAR_RANK_TOL)
            if two_unitary:
                P, sigma, Qh = _svd(U.take(t2))
                U = P @ Qh
                rank_flags += bool(sigma[-1] < POLAR_RANK_TOL)
            P, sigma, Qh = _svd(U.take(r2))
            s_hist.append(2.0 * (sigma.sum() / q - 1.0))
            deficit = es - (1.0 - (sigma**4).sum() / q**4)
            if two_unitary and deficit < tol:  # E(US) can only delay convergence
                deficit = max(deficit, es - operator_entanglement_swapped(U))
            if deficit < tol:
                converged = True
                break
    dc = classify_duality(U)
    trace = MRTrace(
        n_iter=n,
        s_half_history=np.array(s_hist),
        final_defects=dc.residuals,
        converged=converged,
        rank_deficient_steps=rank_flags,
    )
    return U, trace


def mr_iterate(U0, max_iter=10_000, tol=FLOW_TOL):
    """Iterate the realign-polar map towards a dual-unitary gate.

    Stops when E(S) - E(U) < tol; each step takes one SVD, whose singular
    values give the trace's monotone Tsallis-1/2 entropy of every iterate.
    The trace also records the final unitarity/duality defects.  Feeding it
    Haar seeds produces the "dual-CUE" ensemble.
    """
    return _iterate(U0, max_iter, tol)


def mrt_iterate(U0, max_iter=10_000, tol=FLOW_TOL):
    """Alternate realign-polar and partial-transpose-polar steps, targeting
    2-unitary gates (both deficits below tol); two SVDs per step."""
    return _iterate(U0, max_iter, tol, two_unitary=True)


def perturbed_two_unitary(U2, scale, rng):
    """A dual gate with e_p slightly below 1: kick a 2-unitary with a random
    Hermitian generator and flow back to the dual manifold (at most 6000
    realign-polar steps)."""
    q = local_dim(U2)
    H = rng.standard_normal((q * q, q * q)) + 1j * rng.standard_normal((q * q, q * q))
    H = (H + H.conj().T) / 2
    kicked = np.asarray(U2, dtype=complex) @ expi_hermitian(H, scale)
    return mr_iterate(kicked, max_iter=6000, tol=REFLOW_TOL)[0]


# ---------------------------------------------------------------------------
# permutation gates and Latin squares

def _as_perm_matrices(K, L):
    K = np.asarray(K, dtype=int)
    L = np.asarray(L, dtype=int)
    if K.shape != L.shape or K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValidationError("K and L must be square integer matrices of equal size")
    q = K.shape[0]
    if K.min() < 0 or K.max() >= q or L.min() < 0 or L.max() >= q:
        raise ValidationError("entries must lie in 0..q-1 (0-indexed)")
    pairs = {(int(K[i, j]), int(L[i, j])) for i in range(q) for j in range(q)}
    if len(pairs) != q * q:
        raise ValidationError("(K, L) is not a bijection on the index pairs")
    return K, L, q


def permutation_gate(K, L, phases=None):
    """P|ij> = e^{i theta_ij} |K_ij L_ij> from 0-indexed target matrices."""
    K, L, q = _as_perm_matrices(K, L)
    P = np.zeros((q * q, q * q), dtype=complex)
    for i in range(q):
        for j in range(q):
            amp = 1.0 if phases is None else np.exp(1j * phases[i][j])
            P[K[i, j] * q + L[i, j], i * q + j] = amp
    return P


def _rows_are_permutations(A):
    """Whether every row of the trailing q x q matrix of A is a permutation of
    0..q-1, one flag per leading index."""
    return (np.sort(A, axis=-1) == np.arange(A.shape[-1])).all(axis=(-2, -1))


def _duality_flags(K, L):
    """(dual, T-dual) of the permutation gates of target matrices K, L, stacked
    or not: dual = every row of K and every column of L is a permutation,
    T-dual = the transposed conditions."""
    Kt, Lt = K.swapaxes(-1, -2), L.swapaxes(-1, -2)
    return (_rows_are_permutations(K) & _rows_are_permutations(Lt),
            _rows_are_permutations(Kt) & _rows_are_permutations(L))


def classify_permutation(K, L):
    """Duality class straight from the combinatorics, no matrix algebra:
    dual = distinct rows of K and distinct columns of L, T-dual = the
    transposed conditions, 2-unitary = both (orthogonal Latin squares)."""
    K, L, _ = _as_perm_matrices(K, L)
    is_dual, is_t_dual = map(bool, _duality_flags(K, L))
    return DualityClass(
        is_dual=is_dual,
        is_t_dual=is_t_dual,
        is_two_unitary=is_dual and is_t_dual,
    )


def perm_spec_from_json(obj):
    """Parse the 1-indexed JSON permutation spec into 0-indexed arrays.

    Expected keys: "q" (an integer >= 2), "K", "L" (1-indexed q x q integer
    arrays) and an optional finite q x q "theta" phase matrix.
    """
    q = _json_object(obj, "a permutation spec", ("q", "K", "L"))
    K = _json_array(obj["K"], "K", (q, q)) - 1
    L = _json_array(obj["L"], "L", (q, q)) - 1
    theta = _json_array(obj["theta"], "theta", (q, q), "number") if "theta" in obj else None
    if theta is not None and not np.isfinite(theta).all():
        raise ValidationError("theta must be a finite q x q matrix, got non-finite entries")
    return K, L, theta


def perm_spec_to_json(K, L, theta=None):
    out = {"q": int(np.asarray(K).shape[0]),
           "K": (np.asarray(K) + 1).tolist(),
           "L": (np.asarray(L) + 1).tolist()}
    if theta is not None:
        out["theta"] = np.asarray(theta, dtype=float).tolist()
    return out


# a worked q=3 example (0-indexed): a dual-but-not-T-dual permutation; the
# orthogonal-Latin-square 2-unitary of the same order is `ols_pair(3)`
PERM_DUAL_EXAMPLE_Q3 = (
    np.array([[0, 1, 2], [2, 1, 0], [2, 0, 1]]),
    np.array([[0, 2, 0], [1, 0, 2], [2, 1, 1]]),
)

_GF4_MUL = np.array(
    [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], dtype=int
)


def ols_pair(q):
    """Orthogonal Latin squares of order q (odd q, or q = 4 via GF(4))."""
    require_int(q, "q", 2)
    idx = np.arange(q)
    if q % 2 == 1:
        K = (idx[:, None] + idx[None, :]) % q
        L = (idx[:, None] - idx[None, :]) % q
        return K, L
    if q == 4:
        K = idx[:, None] ^ idx[None, :]
        L = _GF4_MUL[2, idx][:, None] ^ idx[None, :]
        return K, L
    raise ValidationError(f"no orthogonal Latin squares of order {q} available here")


def two_unitary_permutation(q):
    """A 2-unitary permutation gate (perfect tensor) from orthogonal Latin squares."""
    K, L = ols_pair(q)
    return permutation_gate(K, L)


def enumerate_dual_permutations(q):
    """Stream every dual-unitary permutation of [q] x [q].

    Yields dicts with the one-line permutation id, (K, L), e_p, the
    2-unitary flag and the two leading nontrivial channel moduli, in
    lexicographic order of the id.  q = 2 scans 24 cases, q = 3 all 9!, as
    one int8 stack filtered by the duality rule of `classify_permutation`.
    """
    if require_int(q, "q", 2) > 3:
        raise ValidationError("exhaustive enumeration is limited to q <= 3")
    n = q * q
    perms = np.fromiter(itertools.permutations(range(n)), dtype=(np.int8, n),
                        count=math.factorial(n))
    K, L = (perms // q).reshape(-1, q, q), (perms % q).reshape(-1, q, q)
    dual, t_dual = _duality_flags(K, L)
    for k in np.flatnonzero(dual):
        Kk, Lk = K[k].astype(int), L[k].astype(int)
        P = permutation_gate(Kk, Lk)
        mods = np.abs(channel_spectrum(build_m_plus(P)).eigenvalues)
        yield {
            "perm_id": "".join(map(str, perms[k].tolist())),
            "K": Kk,
            "L": Lk,
            "e_p": entangling_power(P),
            "two_unitary": bool(t_dual[k]),
            "lambda1_mod": float(mods[0]),
            "lambda2_mod": float(mods[1]),
        }


# ---------------------------------------------------------------------------
# quantum cat maps

def cat_map(q):
    """Coupled quantum cat map: entries (1/q) e^{-2 pi i [ka + 2jb - kb - ja]/q}.

    Dual for every q; 2-unitary (e_p = 1) for odd q; for even q it sits
    exactly on the mixing threshold e_p = (q^2-2)/(q^2-1).  Phases are exact
    integer multiples of 2 pi/q, reduced mod q before exponentiation.
    """
    require_int(q, "q", 2)
    k, a, j, b = np.ogrid[0:q, 0:q, 0:q, 0:q]
    expo = (k * a + 2 * j * b - k * b - j * a) % q
    U = np.exp(-2j * math.pi * expo / q) / q
    return U.reshape(q * q, q * q)


def cat_family(q, b):
    """One-parameter dual family (1/q) e^{2 pi i [b jb' + kb' + ja']/q}.

    Locally equivalent to a swap-diagonal gate; e_p peaks at q/(q+1) for b=1.
    The family has period q in b (b multiplies an integer), so a finite b
    beyond q is reduced by the exact fmod first: b * jb' would lose the phase
    to rounding.  A q that is not an integer >= 2 or a non-finite b is refused.
    """
    require_int(q, "q", 2)
    if abs(require_finite(b, "b")) > q:
        b = math.fmod(b, q)
    k, a, jj, bb = np.ogrid[0:q, 0:q, 0:q, 0:q]
    fixed = (k * bb + jj * a) % q
    U = np.exp(2j * math.pi * (b * (jj * bb) + fixed) / q) / q
    return U.reshape(q * q, q * q)


def cat_psi_vectors(q):
    """The pair of maximally entangled vectors in the even-q cat channel."""
    if q % 2:
        raise ValidationError("defined for even q")
    psi = np.zeros(q * q, dtype=complex)
    psibar = np.zeros(q * q, dtype=complex)
    for k in range(q):
        psi[k * q + (k + q // 2) % q] = 1.0
        psibar[k * q + k] = (-1.0) ** k
    return psi / math.sqrt(q), psibar / math.sqrt(q)


def cat_channel_closed(q):
    """Closed form of the cat-map channel: the trivial projector for odd q,
    plus the nilpotent |Psi><Psibar| for even q."""
    phi = max_entangled_vector(q)
    M = np.outer(phi, phi.conj())
    if q % 2 == 0:
        psi, psibar = cat_psi_vectors(q)
        M = M + np.outer(psi, psibar.conj())
    return M


def phased_dft_local(q, phi1, phi2):
    """Discrete Fourier local with phase offsets: u[k,l] = e^{2 pi i (l+phi1)(k+phi2)/q}/sqrt(q)."""
    k, l = np.ogrid[0:q, 0:q]
    return np.exp(2j * math.pi * (l + phi1) * (k + phi2) / q) / math.sqrt(q)


def cat_fourier_local_lambda1(q, phi1, phi2):
    """Leading nontrivial channel eigenvalue of the even-q cat under a phased
    DFT local: cos(pi phi2).  Computed as <Psibar|(u x u*)|Psi> and verified
    against the eigensolver to CAT_CHECK_TOL.  A non-finite phi1 or phi2 is refused."""
    if require_int(q, "q", 2) % 2:
        raise ValidationError("defined for even q")
    u = phased_dft_local(q, require_finite(phi1, "phi1"), require_finite(phi2, "phi2"))
    psi, psibar = cat_psi_vectors(q)
    lam = complex(psibar.conj() @ np.kron(u, u.conj()) @ psi)

    M = np.kron(u, u.conj()) @ build_m_plus(cat_map(q))
    top = channel_spectrum(M).eigenvalues[0]
    if not abs(abs(top) - abs(lam)) <= CAT_CHECK_TOL:
        raise AssertionError(
            f"closed form |{lam:.12f}| disagrees with eigensolve |{top:.12f}|"
        )
    return lam


# ---------------------------------------------------------------------------
# hard-coded reference gates

_S3 = math.sqrt(3.0)
_R2 = 1.0 / math.sqrt(2.0)

_DUAL_Q3_EP8OVER9 = 0.5 * np.array(
    [
        [_S3, 0, -1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 2, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, -_S3, 0, 1],
        [0, 0, 0, 1, 0, _S3, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, _S3],
        [0, 2, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 2, 0],
        [0, 0, 0, _S3, 0, -1, 0, 0, 0],
        [1, 0, _S3, 0, 0, 0, 0, 0, 0],
    ]
)

_TWO_UNITARY_Q3 = 0.5 * np.array(
    [
        [_S3, 0, 0, 0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 2, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0, _S3],
        [0, -1, 0, 0, 0, _S3, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 2, 0, 0],
        [0, _S3, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, _S3, 0],
        [0, 0, 2, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, -_S3, 0, 0, 0, 1, 0],
    ]
)

_DUAL_Q3_EP3OVER4 = np.array(
    [
        [0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1],
        [-0.5, 0, 0.5, 0.5, 0, -0.5, 0, 0, 0],
        [-0.5, 0, 0.5, -0.5, 0, 0.5, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0],
        [-0.5, 0, -0.5, -0.5, 0, -0.5, 0, 0, 0],
        [-0.5, 0, -0.5, 0.5, 0, 0.5, 0, 0, 0],
    ]
)

# rotation parameter tuned so that e_p(D2.S) matches e_p(D3.S) = 3/4
D2_ROTATION_PARAMETER = 0.315167


def _shift_powers(q):
    """The powers C_q^k, k = 0..q-1, of the cyclic shift C_q|j> = |j+1 mod q>."""
    return [np.roll(np.eye(q), k, axis=0) for k in range(q)]


def _dual_q4_ep4over5():
    U = np.zeros((16, 16))
    ones = {0: 0, 1: 4, 2: 8, 3: 12, 5: 1, 6: 5, 14: 11, 15: 15}
    for r, c in ones.items():
        U[r, c] = 1.0
    halves = {
        4: [(9, _R2), (13, _R2)],
        7: [(10, -_R2), (14, _R2)],
        8: [(6, _R2), (7, _R2)],
        9: [(2, _R2), (3, _R2)],
        10: [(10, _R2), (14, _R2)],
        11: [(9, _R2), (13, -_R2)],
        12: [(2, -_R2), (3, _R2)],
        13: [(6, _R2), (7, -_R2)],
    }
    for r, cols in halves.items():
        for c, v in cols:
            U[r, c] = v
    return U


def fixtures():
    """The named reference gates: explicit duals and 2-unitaries plus the
    block matrices behind the locally inequivalent e_p = 3/4 and 4/5 pairs.

    d3_q3 and d4_q4 are `block_diagonal_matrix` instances with the shift
    powers C_q^k on the diagonal; d2_q3 is a 6 x 6 permutation block plus
    1 (+) a rotation by D2_ROTATION_PARAMETER pi.  Each dual_q*_d*s is the
    `block_diagonal_gate` D.S of the same blocks."""
    c, s = math.cos(D2_ROTATION_PARAMETER * math.pi), math.sin(D2_ROTATION_PARAMETER * math.pi)
    d2 = [np.eye(6)[[0, 1, 5, 4, 3, 2]], np.array([[1, 0, 0], [0, c, s], [0, -s, c]])]
    d3, d4 = _shift_powers(3), _shift_powers(4)
    return {
        "dual_q3_ep8over9": _DUAL_Q3_EP8OVER9.astype(complex),
        "two_unitary_q3": _TWO_UNITARY_Q3.astype(complex),
        "dual_q3_ep3over4": _DUAL_Q3_EP3OVER4.astype(complex),
        "d3_q3": block_diagonal_matrix(3, d3),
        "d2_q3": block_diagonal_matrix(3, d2),
        "d4_q4": block_diagonal_matrix(4, d4),
        "dual_q3_d3s": block_diagonal_gate(3, d3),
        "dual_q3_d2s": block_diagonal_gate(3, d2),
        "dual_q4_d4s": block_diagonal_gate(4, d4),
        "dual_q4_ep4over5": _dual_q4_ep4over5().astype(complex),
    }


# ---------------------------------------------------------------------------
# the unistochastic reduction of the D3.S channel

def _deltoid_contains(z, samples=720):
    """Even-odd containment test of each point of z against the 3-cusped
    hypocycloid (2 e^{it} + e^{-2it})/3, a polygon of `samples` edges."""
    t = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    bx = (2 * np.cos(t) + np.cos(2 * t)) / 3
    by = (2 * np.sin(t) - np.sin(2 * t)) / 3
    bxj, byj = np.roll(bx, 1), np.roll(by, 1)  # edge i runs from vertex i - 1 to i
    x, y = np.asarray(z).real[..., None], np.asarray(z).imag[..., None]
    xi = bxj + (y - byj) * (bx - bxj) / (by - byj)
    return np.count_nonzero(((by > y) != (byj > y)) & (x < xi), axis=-1) % 2 == 1


def unistochastic_reduction(u):
    """Spectrum of the locally rotated D3.S channel vs the bistochastic
    matrix |u_ij|^2.

    Restricted to the span of |ii> the channel matrix IS B = |u_ij|^2; the
    remaining six modes vanish.  Returns the restriction residual, the two
    sorted spectra, and a (reported, never asserted) deltoid-containment
    summary for the complex eigenvalues.  A local that is not a 3 x 3
    unitary is refused.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3):
        raise ValidationError(f"the reduction fixture is the q = 3 gate D3.S: "
                              f"the local must be 3 x 3, got shape {u.shape}")
    require_unitary(u, what="local")
    q = 3
    gate = fixtures()["dual_q3_d3s"]
    M = np.kron(u, u.conj()) @ build_m_plus(gate)
    diag_idx = [i * q + i for i in range(q)]
    restricted = M[np.ix_(diag_idx, diag_idx)]
    B = np.abs(u) ** 2

    eigs = np.linalg.eigvals(B)
    spectrum_residual = _matched_residual(np.linalg.eigvals(M),
                                          np.concatenate([eigs, np.zeros(q * q - q)]))
    # the trivial eigenvalue 1 sits exactly on a cusp of the curve
    inside = _deltoid_contains(eigs * (1.0 - DELTOID_SHRINK))
    return {
        "restriction_residual": float(np.abs(restricted - B).max()),
        "spectrum_residual": spectrum_residual,
        "bistochastic_spectrum": eigs,
        "deltoid_fraction": float(np.mean(inside)),
        "ok": spectrum_residual <= UNISTOCHASTIC_TOL,
    }
