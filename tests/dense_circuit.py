"""Dense brickwork-circuit evolution on a ring of 2L qudits: the test oracle.

This is the library's former simulator, kept only to check the light-cone
engine of `dualunitary.circuit_sim` against.  It builds the full
q^(2L) x q^(2L) Floquet operator U_F = A T B T^dag (A, B the bond layers, T
the one-site translation), embeds observables by kron with identities and
evolves them by dense matmuls, so it is exact but costs D^3 per step.
"""

from functools import reduce

import numpy as np

from dualunitary.circuit_sim import weyl_basis


def _translation_index(q, n_legs):
    """Basis-index image of the one-site shift T|k1 ... kn> = |kn k1 ... k(n-1)>.

    The orientation is chosen so that an operator seeded on the first leg of
    a first-layer gate propagates towards larger x, putting the M_plus ray
    on x = +t.
    """
    dim = q**n_legs
    idx = np.arange(dim)
    digits = np.empty((n_legs, dim), dtype=np.int64)
    rem = idx
    for leg in range(n_legs - 1, -1, -1):
        digits[leg] = rem % q
        rem = rem // q
    shifted = np.roll(digits, 1, axis=0)  # leg j of the image holds k_{j-1}
    out = np.zeros(dim, dtype=np.int64)
    for leg in range(n_legs):
        out = out * q + shifted[leg]
    return out


def translation_matrix(q, n_legs):
    """Dense one-site translation operator."""
    dim = q**n_legs
    tgt = _translation_index(q, n_legs)
    T = np.zeros((dim, dim))
    T[tgt, np.arange(dim)] = 1.0
    return T


def build_floquet(cfg):
    """The one-period brickwork operator: the shifted layer on pairs
    (x+1/2, x+1), then the unshifted layer on pairs (x, x+1/2).

    The half-period convention is fixed by the observable contract, not by
    taste: with site x on leg 2x and numpy's kron putting the first gate
    factor on the left leg, this order is the one for which the correlator
    ray leaving y = 0 towards x = +t carries the powers of M_plus (and the
    y = 1/2 ray towards -t those of M_minus).  For L = 1 it reads U . SUS.
    """
    even = cfg.even_gates if cfg.even_gates is not None else [cfg.gate] * cfg.L
    odd = cfg.odd_gates if cfg.odd_gates is not None else [cfg.gate] * cfg.L
    A = reduce(np.kron, [np.asarray(g, dtype=complex) for g in even])
    B = reduce(np.kron, [np.asarray(g, dtype=complex) for g in odd])
    T = translation_matrix(cfg.q, 2 * cfg.L)
    F = A @ T @ B @ T.T
    return F


class DenseCircuitSimulator:
    """Holds the dense evolution operator; embeds observables and evolves them
    in the Heisenberg picture."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.q = cfg.q
        self.L = cfg.L
        self.n_legs = 2 * cfg.L
        self.dim = cfg.q**self.n_legs
        self.floquet = build_floquet(cfg)
        self.basis = weyl_basis(cfg.q)
        self._powers = {0: np.eye(self.dim, dtype=complex)}

    def power(self, t):
        if t not in self._powers:
            self._powers[t] = self.power(t - 1) @ self.floquet
        return self._powers[t]

    def site_leg(self, x):
        leg = int(round(2 * x))
        if abs(2 * x - leg) > 1e-12:
            raise ValueError(f"site {x} is not a half-integer position")
        return leg % self.n_legs

    def embed(self, op, x):
        """1 x ... x op x ... x 1 with op on the leg of site x."""
        leg = self.site_leg(x)
        left = self.q**leg
        right = self.q ** (self.n_legs - leg - 1)
        return np.kron(np.kron(np.eye(left), op), np.eye(right))

    def heisenberg(self, op_embedded, t):
        """U_F^(-t) A U_F^t."""
        Ut = self.power(t)
        return Ut.conj().T @ op_embedded @ Ut
