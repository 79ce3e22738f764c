"""Correlation channels of a two-qudit gate, their spectra and the ergodic hierarchy.

The single-site correlations of a brickwork circuit along the two light-cone
rays are generated by the superoperators (row-vectorization convention)

    M_plus[U]  = (U^T2 U^T2^dag)^R1 / q        acts as  a -> tr_1[U^dag (a x 1) U]/q
    M_minus[U] = (U^T2^dag U^T2)^R2 / q        acts as  a -> tr_2[U^dag (1 x a) U]/q

Both are unital CPTP maps; |Phi+> is always a fixed point (the trivial mode).
Deflating it isolates the nontrivial spectrum, whose moduli set the decay
rates mu_k = -ln|lambda_k| and the five-class ergodic hierarchy, and whose
Frobenius norm ties to the entangling power:  for dual U,

    ||Mtilde_plus[U]||^2 = (q^2-1)(1 - e_p(U)).
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .invariants import classify_duality, entangling_power
from .tensor_ops import (
    local_dim,
    max_entangled_vector,
    partial_transpose_t2,
    realign_r1,
    realign_r2,
    ValidationError,
    require_int,
    require_unitary,
)
from .tolerances import (BOUND_SLACK_TOL, DUALITY_TOL, UNIT_BOUNDARY_TOL, UNIT_TOL,
                         UNITALITY_TOL, ZERO_TOL, channel_rank_tol)

@dataclass
class ChannelSpectrum:
    """The nontrivial spectrum of one channel; which channel (M_plus or
    M_minus) it is, the caller knows."""
    q: int
    eigenvalues: np.ndarray   # the q^2-1 nontrivial eigenvalues, |.| descending
    rates: np.ndarray         # mu_k = -ln|lambda_k|, inf for zero modes


@dataclass
class ErgodicReport:
    label: str
    unit_count: int          # modes with |lambda| at unit modulus
    one_count: int           # modes with lambda = 1
    zero_count: int          # modes below the zero tolerance
    total: int
    boundary: bool = False


def build_m_plus(U):
    """Superoperator of a -> tr_1[U^dag (a x 1) U]/q.

    U must be unitary to GATE_UNITARY_TOL; any other matrix is refused."""
    U = require_unitary(np.asarray(U, dtype=complex), what="gate")
    q = local_dim(U)
    T = partial_transpose_t2(U)
    return realign_r1(T @ T.conj().T) / q


def build_m_minus(U):
    """Superoperator of a -> tr_2[U^dag (1 x a) U]/q; U as for build_m_plus."""
    U = require_unitary(np.asarray(U, dtype=complex), what="gate")
    q = local_dim(U)
    T = partial_transpose_t2(U)
    return realign_r2(T.conj().T @ T) / q


def unitality_residual(M):
    """How far M is from fixing |Phi+> on both sides (max of the two)."""
    M = np.asarray(M)
    q = local_dim(M)
    phi = max_entangled_vector(q)
    right = np.abs(M @ phi - phi).max()
    left = np.abs(phi.conj() @ M - phi.conj()).max()
    return float(max(right, left))


def deflate_trivial(M):
    """Remove the trivial mode: Mtilde = M - |Phi+><Phi+|."""
    M = np.asarray(M, dtype=complex)
    r = unitality_residual(M)
    if not r <= UNITALITY_TOL:
        raise ValidationError(f"channel is not unital: trivial-mode residual {r:.3e}")
    q = local_dim(M)
    phi = max_entangled_vector(q)
    return M - np.outer(phi, phi.conj())


def _sort_desc(vals):
    # modulus descending; ties broken by descending real then imaginary part
    idx = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    return vals[idx]


def decay_rates(mods):
    """mu = -ln|lambda| of each modulus; a zero mode (|lambda| < ZERO_TOL)
    decays at an infinite rate, never at a large finite one, and a modulus
    of at least 1 (a unit mode, or one rounded above it) at 0.0, never a
    negative rate or -0.0."""
    mods = np.asarray(mods, dtype=float)
    zero = mods < ZERO_TOL
    rates = -np.log(np.where(zero, 1.0, mods))
    return np.where(zero, np.inf, np.where(mods >= 1.0, 0.0, rates))


@functools.cache
def hermitian_basis(q):
    """T: an orthonormal basis of Hermitian q x q matrices, row-major vec, as
    columns.  Column j q + k is E_jj for j = k, (E_jk + E_kj)/sqrt 2 for j < k
    and i(E_jk - E_kj)/sqrt 2 for j > k.  A map that preserves Hermiticity is
    a real matrix T^dag M T in this basis."""
    d = q * q
    E = np.eye(d)
    S = E.reshape(q, q, d).transpose(1, 0, 2).reshape(d, d)  # column j q + k: vec E_kj
    j, k = np.divmod(np.arange(d), q)
    T = np.where(j < k, (E + S) / math.sqrt(2), np.where(j > k, 1j * (E - S) / math.sqrt(2), E))
    T.flags.writeable = False
    return T


def factored_channel(M):
    """(X, s, Yh): Mt = X Yh for the deflated channel Mt of the unital channel M.

    A unital channel preserves Hermiticity, so Mt is a real matrix R in the
    Hermitian basis T (`hermitian_basis`); one real SVD R = W diag(s) V gives
    X = T W diag(s) (q^2 x m) and Yh = V T^dag (m x q^2), so X^dag X = diag(s)^2,
    Yh Yh^dag = 1 and Yh A X is real for every A that preserves Hermiticity.
    s keeps the m singular values above `channel_rank_tol(q)`: none for a
    2-unitary, q^2 - 1 for a generic dual gate and never more, as Mt |Phi+> = 0
    (a channel unital only to UNITALITY_TOL keeps that one out).  A channel
    whose imaginary part in T exceeds UNITALITY_TOL is refused.
    """
    q = local_dim(M)
    T = hermitian_basis(q)
    R = T.conj().T @ deflate_trivial(M) @ T
    im = float(np.abs(R.imag).max())
    if not im <= UNITALITY_TOL:
        raise ValidationError(f"channel does not preserve Hermiticity: imaginary part {im:.3e} "
                              "in the Hermitian basis")
    W, s, Yh = np.linalg.svd(R.real)
    m = min(int((s > channel_rank_tol(q)).sum()), q * q - 1)
    return T @ (W[:, :m] * s[:m]), s[:m], Yh[:m] @ T.conj().T


def channel_spectrum(M):
    """Nontrivial spectrum of a unital channel M, sorted, with decay rates;
    M_plus and M_minus alike, so the result does not name its side.

    The trivial mode is deflated first, so the leading eigenvalue is never
    contaminated by it, even when the spectrum is degenerate at 1.  The
    nonzero eigenvalues of Mt = X Yh (`factored_channel`) are those of the
    m x m matrix Yh X (Sylvester), real up to rounding, so its real part is
    eigensolved; the other q^2 - 1 - m modes are exact zeros.
    """
    q = local_dim(M)
    X, _, Yh = factored_channel(M)
    zeros = np.zeros(q * q - 1 - Yh.shape[0], dtype=complex)
    vals = _sort_desc(np.concatenate([np.linalg.eigvals((Yh @ X).real), zeros]))
    return ChannelSpectrum(q=q, eigenvalues=vals, rates=decay_rates(np.abs(vals)))


def classify_ergodicity(spec_plus, spec_minus):
    """Five-way ergodic class from the nontrivial spectra of both channels."""
    lam = np.concatenate([spec_plus.eigenvalues, spec_minus.eigenvalues])
    mods = np.abs(lam)
    one_count = int(np.count_nonzero(np.abs(lam - 1.0) <= UNIT_TOL))
    unit_count = int(np.count_nonzero(mods >= 1.0 - UNIT_TOL))
    zero_count = int(np.count_nonzero(mods < ZERO_TOL))
    total = lam.size

    if one_count == total:
        label = "NonInteracting"
    elif one_count > 0:
        label = "NonErgodic"
    elif unit_count > 0:
        label = "ErgodicNonMixing"
    elif zero_count == total:
        label = "Bernoulli"
    else:
        label = "ErgodicMixing"

    # a spectrum is "boundary" when any mode sits within UNIT_BOUNDARY_TOL of
    # unit modulus: the NonErgodic / ErgodicNonMixing split is tolerance-sensitive
    boundary = bool(np.any(np.abs(mods - 1.0) <= UNIT_BOUNDARY_TOL))
    return ErgodicReport(label=label, unit_count=unit_count, one_count=one_count,
                         zero_count=zero_count, total=total, boundary=boundary)


def classify_gate(U):
    """Ergodic class of the circuit built from U, a unitary to GATE_UNITARY_TOL."""
    sp = channel_spectrum(build_m_plus(U))
    sm = channel_spectrum(build_m_minus(U))
    return classify_ergodicity(sp, sm)


def check_norm_and_bounds(U, dual_tol=DUALITY_TOL):
    """Norm identity and the eigenvalue bounds for a dual-unitary gate.

    Returns the residual of ||Mtilde_plus||^2 = (q^2-1)(1-e_p) and the slack
    of every bound |lambda_k| <= sqrt(1-e_p) sqrt((q^2-1)/k); negative slack
    beyond BOUND_SLACK_TOL means a violation.
    """
    U = np.asarray(U, dtype=complex)
    q = local_dim(U)
    dc = classify_duality(U, tol=dual_tol)
    if not dc.is_dual:
        raise ValidationError(f"gate is not dual-unitary (defect {dc.residuals['dual']:.3e})")

    ep = entangling_power(U)
    M = build_m_plus(U)
    Mt = deflate_trivial(M)
    norm_sq = float(np.vdot(Mt, Mt).real)
    expected = (q * q - 1) * (1.0 - ep)

    mods = np.abs(channel_spectrum(M).eigenvalues)
    k = np.arange(1, q * q)
    bound = np.sqrt(max(1.0 - ep, 0.0)) * np.sqrt((q * q - 1) / k)
    slack = bound - mods
    return {
        "q": q,
        "e_p": ep,
        "norm_sq": norm_sq,
        "norm_sq_expected": expected,
        "norm_residual": abs(norm_sq - expected),
        "slack": slack,
        "min_slack": float(slack.min()),
        "ok": bool(slack.min() >= -BOUND_SLACK_TOL),
    }


def lightcone_correlation_prediction(U, a_i, a_j, t, side="plus"):
    """Light-cone correlation C_(+/-)(+/-t, t) = tr[M^(2t)(a_i) a_j]/q, the
    prediction that `dualu circuit verify` checks on the brickwork circuit.

    a_i and a_j are q x q operators, or paired stacks of them (k x q x q),
    which give a list of one value per pair.  The channel is built and raised
    to the power 2t once per call, applied to each a_i alone as one stacked
    matrix-vector product, then traced with the a_j in one stacked product."""
    if side not in ("plus", "minus"):
        raise ValidationError(f"side must be 'plus' or 'minus', got {side!r}")
    require_int(t, "t", 0)
    M = build_m_plus(U) if side == "plus" else build_m_minus(U)
    P = np.linalg.matrix_power(M, 2 * t)
    q = local_dim(P)
    stacked = np.ndim(a_i) == 3
    a_i = np.asarray(a_i, dtype=complex).reshape(-1, q * q)
    a_j = np.asarray(a_j).reshape(-1, q, q)
    if len(a_i) != len(a_j):
        raise ValidationError(f"{len(a_i)} a_i against {len(a_j)} a_j: the stacks must pair up")
    traces = np.trace(np.matmul(P, a_i[..., None]).reshape(-1, q, q) @ a_j, axis1=1, axis2=2)
    values = [c / q for c in traces.tolist()]
    return values if stacked else values[0]


def inhomogeneous_bound(gates):
    """Disorder-averaged squared-correlation bound for a sequence of dual gates.

    The bound after applying the listed gates once each is
    (q^2-1) * prod_k (1 - e_p(U_k)); when all gates coincide the decay is
    exponential with rate gamma = -ln(1-e_p)^2 per time step (two gate layers).
    Every gate must act on the same q and be unitary (`require_unitary`) as
    well as dual.
    """
    gates = [np.asarray(U, dtype=complex) for U in gates]
    if not gates:
        raise ValidationError("need at least one gate")
    q = local_dim(gates[0])
    eps = []
    for U in gates:
        if local_dim(U) != q:
            raise ValidationError(f"all gates must share q = {q}, got a gate of q = {local_dim(U)}")
        require_unitary(U, what="gate")
        if not classify_duality(U).is_dual:
            raise ValidationError("all gates must be dual-unitary")
        eps.append(entangling_power(U))
    bound = (q * q - 1) * float(np.prod([1.0 - e for e in eps]))
    gamma = None
    if all(np.array_equal(g, gates[0]) for g in gates[1:]):
        x = 1.0 - eps[0]
        gamma = float("inf") if x <= 0 else -2.0 * cmath.log(x).real
    return {"q": q, "e_p": eps, "bound": bound, "gamma": gamma}
