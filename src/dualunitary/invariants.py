"""Operator Schmidt spectrum, operator entanglements, entangling power, duality classes.

For a two-qudit unitary U the Schmidt coefficients gamma_j are the eigenvalues
of U^R1 U^R1^dag; they sum to q^2.  The linear-entropy operator entanglements

    E(U)  = 1 - tr[(U^R1 U^R1^dag)^2] / q^4
    E(US) = 1 - tr[(U^T2 U^T2^dag)^2] / q^4

and the normalized entangling power

    e_p(U) = [E(U) + E(US) - E(S)] / E(S),       E(S) = 1 - 1/q^2

are all invariant under single-particle unitaries.  U is dual-unitary when
U^R1 is unitary (equivalently all gamma_j = 1), T-dual when U^T2 is unitary,
and 2-unitary when it is both, which happens exactly at e_p(U) = 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .tensor_ops import (
    local_dim,
    partial_transpose_t2,
    realign_r1,
    require_int,
    require_positive,
    unitarity_defect,
)
from .tolerances import DUALITY_TOL, THRESHOLD_BOUNDARY_TOL


@dataclass
class SchmidtSpectrum:
    q: int
    gamma: np.ndarray          # descending, clipped at 0, sums to q^2


@dataclass
class DualityClass:
    is_dual: bool
    is_t_dual: bool
    is_two_unitary: bool
    residuals: dict = field(default_factory=dict)


def schmidt_spectrum(U):
    """Schmidt coefficients of U: eigenvalues of U^R1 U^R1^dag, descending."""
    U = np.asarray(U, dtype=complex)
    q = local_dim(U)
    R = realign_r1(U)
    gamma = np.linalg.eigvalsh(R @ R.conj().T)[::-1]
    return SchmidtSpectrum(q=q, gamma=np.clip(gamma, 0.0, None))


def swap_entanglement(q):
    """E(S) = 1 - 1/q^2, the maximal operator entanglement."""
    require_int(q, "q", 2)
    return 1.0 - 1.0 / q**2


def _purity_entanglement(G):
    # 1 - tr[(G G^dag)^2]/q^4 computed via the Frobenius norm of G G^dag
    q2 = G.shape[0]
    H = G @ G.conj().T
    return 1.0 - float(np.vdot(H, H).real) / q2**2


def operator_entanglement(U):
    """E(U), the linear entropy of the Schmidt spectrum of U."""
    return _purity_entanglement(realign_r1(np.asarray(U, dtype=complex)))


def operator_entanglement_swapped(U):
    """E(US), the operator entanglement of U composed with the swap."""
    return _purity_entanglement(partial_transpose_t2(np.asarray(U, dtype=complex)))


def entangling_power(U):
    """Normalized entangling power e_p(U) in [0, 1]."""
    q = local_dim(U)
    es = swap_entanglement(q)
    ep = (operator_entanglement(U) + operator_entanglement_swapped(U) - es) / es
    return float(min(max(ep, 0.0), 1.0))


def classify_duality(U, tol=DUALITY_TOL):
    """Dual / T-dual / 2-unitary predicates with the raw unitarity defects,
    each defect compared with tol, a finite positive number."""
    require_positive(tol, "tol")
    U = np.asarray(U, dtype=complex)
    residuals = {
        "unitary": unitarity_defect(U),
        "dual": unitarity_defect(realign_r1(U)),
        "t_dual": unitarity_defect(partial_transpose_t2(U)),
    }
    is_dual = residuals["dual"] <= tol
    is_t_dual = residuals["t_dual"] <= tol
    return DualityClass(
        is_dual=is_dual,
        is_t_dual=is_t_dual,
        is_two_unitary=is_dual and is_t_dual,
        residuals=residuals,
    )


def mixing_thresholds(q):
    """The ladder e*_{p,k} = 1 - k/(q^2-1) for k = 1 .. q^2-1.

    e_p(U) > e*_{p,k} guarantees at least q^2-k mixing modes whatever the
    single-particle unitaries are; k = 1 is the full-mixing threshold e*_p.
    A q that is not an integer >= 2 is refused.
    """
    require_int(q, "q", 2)
    k = np.arange(1, q * q)
    return 1.0 - k / (q * q - 1.0)


def threshold_report(q, ep):
    """Guaranteed number of mixing modes for a dual gate of entangling power ep.

    Values of ep within THRESHOLD_BOUNDARY_TOL of a threshold are not silently
    classified; the report carries a `boundary` flag instead.
    """
    ladder = mixing_thresholds(q)
    boundary = bool(np.any(np.abs(ladder - ep) <= THRESHOLD_BOUNDARY_TOL))
    exceeded = np.nonzero(ep > ladder + THRESHOLD_BOUNDARY_TOL)[0]
    k = int(exceeded[0]) + 1 if exceeded.size else None  # smallest k with ep > e*_{p,k}
    guaranteed = q * q - k if k is not None else 0
    return {
        "q": q,
        "e_p": float(ep),
        "guaranteed_mixing_modes": guaranteed,
        "boundary": boundary,
    }


def invariants_report(U):
    """The full invariant record for one gate (CLI-facing)."""
    q = local_dim(U)
    dc = classify_duality(U)
    ep = entangling_power(U)
    thresholds = threshold_report(q, ep)
    return {
        "q": q,
        "e_p": ep,
        "E_U": operator_entanglement(U),
        "E_US": operator_entanglement_swapped(U),
        "gamma": schmidt_spectrum(U).gamma.tolist(),
        "duality": {
            "dual": dc.is_dual,
            "t_dual": dc.is_t_dual,
            "two_unitary": dc.is_two_unitary,
            "residuals": dc.residuals,
        },
        "thresholds": {
            "guaranteed_mixing_modes": thresholds["guaranteed_mixing_modes"],
            "boundary": thresholds["boundary"],
        },
    }
