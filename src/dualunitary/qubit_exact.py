"""Closed forms for the one-parameter qubit dual family and its channel spectra.

Every two-qubit dual-unitary gate is locally equivalent to

    U(J) = swap . diag(e^{-iJ}, -i e^{iJ}, -i e^{iJ}, e^{-iJ}),   J in [0, pi/4],

whose bare channel is diag(1, sin 2J, sin 2J, 1) and whose entangling power is
e_p = (2/3) cos^2(2J).  Rotating the channel with restricted single-qubit
families keeps the nontrivial spectrum solvable:

  * the "w" family (real diagonal, phi = 0) gives a quadratic pair plus the
    constant root sin 2J, a critical angle theta_c where the pair turns
    complex with modulus sqrt(sin 2J), and hence
        nu'  = -1/4 ln(1 - e_p/e_max),   mu' = (1-sin2J)/(1+sin2J);
  * the "v" family (theta = pi/2) gives a cubic whose minimal spectral radius
    over phi is sin^{2/3}(2J) at phi = pi/2, hence
        nu   = -1/3 ln(1 - e_p/e_max),
    which numerically also matches the optimum over all of SU(2).
"""

import cmath
import math

import numpy as np

from .tensor_ops import ValidationError, require_finite, swap_operator

# the general-cubic minimum: a GRID x GRID scan of (theta, phi) over [0, pi]^2,
# then REFINE coordinate-shrink steps from the best grid point
GRID, REFINE = 96, 50


def cartan_diagonal(J):
    """diag(e^{-iJ}, -i e^{iJ}, -i e^{iJ}, e^{-iJ})."""
    a = cmath.exp(-1j * J)
    b = -1j * cmath.exp(1j * J)
    return np.diag([a, b, b, a])


def cartan_gate(J):
    """The dual two-qubit gate U(J) = S D(J); J = pi/4 is swap-like, J = 0 dcnot-like.
    A non-finite J is refused."""
    return swap_operator(2) @ cartan_diagonal(require_finite(J, "J"))


def ep_cartan(J):
    """e_p(U(J)) = (2/3) cos^2(2J)."""
    return (2.0 / 3.0) * math.cos(2 * require_finite(J, "J")) ** 2


def su2_local(theta, phi, psi):
    """General single-qubit gate; theta in [0, pi], phi, psi in [0, 4 pi]."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c * cmath.exp(1j * phi / 2), -cmath.exp(1j * psi / 2) * s],
            [cmath.exp(-1j * psi / 2) * s, c * cmath.exp(-1j * phi / 2)],
        ]
    )


def w_local(theta, psi=0.0):
    """Restricted family with phi = 0 (real diagonal)."""
    return su2_local(theta, 0.0, psi)


def v_local(phi, psi=0.0):
    """Restricted family with theta = pi/2 (flat moduli)."""
    return su2_local(math.pi / 2, phi, psi)


def restricted_w_spectrum(J, theta):
    """The three nontrivial channel eigenvalues for a w-family local; a
    non-finite J or theta is refused."""
    s = math.sin(2 * require_finite(J, "J"))
    c = math.cos(require_finite(theta, "theta"))
    disc = cmath.sqrt((1 + s) ** 2 * c * c - 4 * s)
    lam1 = 0.5 * ((1 + s) * c + disc)
    lam2 = 0.5 * ((1 + s) * c - disc)
    return np.array([lam1, lam2, complex(s)])


def _sin_2j(J):
    """sin 2J, if J is finite and sin 2J >= 0, as on the family's [0, pi/4];
    the closed forms below take its root or its logarithm, so anything else
    is refused."""
    s = math.sin(2 * require_finite(J, "J"))
    if s < 0:
        raise ValidationError(f"J must be a number with sin 2J >= 0, got J = {J} (sin 2J = {s})")
    return s


def critical_theta(J):
    """Angle where the w-family eigenvalue pair coalesces and turns complex."""
    s = _sin_2j(J)
    return math.acos(2 * math.sqrt(s) / (1 + s))


def _neg_log(s):
    """-ln s for s = sin 2J in [0, 1]: inf at 0, and 0.0 (never -0.0) at 1."""
    return math.inf if s == 0 else 0.0 if s == 1 else -math.log(s)


def nu_prime(J):
    """Maximal mixing rate over the w family: -1/2 ln sin 2J."""
    return 0.5 * _neg_log(_sin_2j(J))


def mu_prime(J):
    """Mean mixing rate over the w family with cos(theta) uniform."""
    s = _sin_2j(J)
    return (1 - s) / (1 + s)


def nu_plus_exact(J):
    """Maximal mixing rate over the v family, -ln sin^{2/3}(2J); numerically
    the optimum over all single-qubit gates."""
    return (2.0 / 3.0) * _neg_log(_sin_2j(J))


def cubic_roots(a2, a1, a0):
    """Roots of x^3 + a2 x^2 + a1 x + a0, the eigenvalues of its companion
    matrix, broadcast over the coefficients: shape (..., 3)."""
    a2, a1, a0 = np.broadcast_arrays(a2, a1, a0)
    C = np.zeros(a2.shape + (3, 3), dtype=np.result_type(a2, a1, a0))
    C[..., 0, :] = -np.stack([a2, a1, a0], axis=-1)
    C[..., 1, 0] = C[..., 2, 1] = 1.0
    return np.linalg.eigvals(C).astype(complex)


def restricted_v_cubic(J, phi):
    """Nontrivial channel eigenvalues for a v-family local:
    roots of x^3 - cos(phi) sin(2J) x^2 + cos(phi) sin(2J) x - sin^2(2J),
    broadcast over phi; a non-finite J or phi entry is refused."""
    s = math.sin(2 * require_finite(J, "J"))
    c = np.cos(require_finite(phi, "phi"))
    return cubic_roots(-c * s, c * s, -s * s)


def general_su2_cubic(J, theta, phi):
    """Nontrivial channel eigenvalues for a general single-qubit local,
    broadcast over theta and phi; a non-finite J, theta or phi entry is refused."""
    s = math.sin(2 * require_finite(J, "J"))
    c2 = np.cos(require_finite(theta, "theta") / 2) ** 2
    cp = np.cos(require_finite(phi, "phi"))
    a2 = 1.0 - 2.0 * c2 * (s * cp + 1.0)
    a1 = s * (2.0 * c2 * (s + cp) - s)
    a0 = -s * s
    return cubic_roots(a2, a1, a0)


def min_lambda1_general(J):
    """Smallest spectral radius over (theta, phi) from the general cubic.

    Coarse grid then coordinate shrink; the closed-form reference is
    sin^{2/3}(2J).  A J that is not finite or has sin 2J < 0 is refused.
    """
    s = _sin_2j(J)

    def radius(theta, phi):
        return np.abs(general_su2_cubic(J, theta, phi)).max(axis=-1)

    angles = np.linspace(0.0, math.pi, GRID)
    scan = radius(angles[:, None], angles[None, :])
    i, k = np.unravel_index(np.argmin(scan), scan.shape)
    r, th, ph = float(scan[i, k]), float(angles[i]), float(angles[k])
    d = angles[1] - angles[0]
    for _ in range(REFINE):
        nth = np.clip([th + d, th - d, th, th], 0.0, math.pi)
        nph = np.array([ph, ph, ph + d, ph - d])
        rn = radius(nth, nph)
        k = np.argmin(rn)
        if rn[k] < r:
            r, th, ph = float(rn[k]), float(nth[k]), float(nph[k])
        else:
            d *= 0.5
    return {"min_radius": r, "theta": th, "phi": ph,
            "closed_form": s ** (2.0 / 3.0)}
