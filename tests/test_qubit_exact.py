import math

import numpy as np
import pytest

from dualunitary import qubit_exact as qe
from dualunitary import tensor_ops as to
from dualunitary.channels import build_m_plus, channel_spectrum
from dualunitary.invariants import classify_duality, entangling_power


def sorted_mods(vals):
    return np.sort(np.abs(np.asarray(vals)))


def spectrum_of_sandwiched(J, u):
    """Channel spectrum of U(J) (1 x u): equals (u^dag x u^T) M[U(J)]."""
    Up = qe.cartan_gate(J) @ np.kron(np.eye(2), u)
    return channel_spectrum(build_m_plus(Up)).eigenvalues


def test_cartan_gate_matrix_and_factorization():
    J = 0.37
    U = qe.cartan_gate(J)
    D = qe.cartan_diagonal(J)
    S = to.swap_operator(2)
    assert np.abs(U - S @ D).max() < 1e-15
    assert np.abs(U - D @ S).max() < 1e-15
    expl = np.array(
        [
            [np.exp(-1j * J), 0, 0, 0],
            [0, 0, -1j * np.exp(1j * J), 0],
            [0, -1j * np.exp(1j * J), 0, 0],
            [0, 0, 0, np.exp(-1j * J)],
        ]
    )
    assert np.abs(U - expl).max() < 1e-15
    assert classify_duality(U).is_dual


def test_cartan_limits():
    # J = pi/4 is the swap up to a global phase; J = 0 has maximal qubit e_p
    U = qe.cartan_gate(math.pi / 4)
    S = to.swap_operator(2)
    phase = U[0, 0]
    assert np.abs(U - phase * S).max() < 1e-12
    assert abs(entangling_power(qe.cartan_gate(0.0)) - 2 / 3) < 1e-12


def test_bare_channel_diag():
    J = 0.3
    M = build_m_plus(qe.cartan_gate(J))
    assert np.abs(M - qe.cartan_channel_diag(J)).max() < 1e-12


@pytest.mark.parametrize("J", [0.1, math.pi / 16, 0.5])
@pytest.mark.parametrize("theta", [0.0, 0.4, 1.3, 2.8])
def test_w_family_closed_form_vs_eigensolve(J, theta):
    got = sorted_mods(spectrum_of_sandwiched(J, qe.w_local(theta, psi=0.7)))
    want = sorted_mods(qe.restricted_w_spectrum(J, theta))
    assert np.abs(got - want).max() < 1e-12


def test_w_family_psi_independence():
    J, theta = 0.25, 0.9
    a = sorted_mods(spectrum_of_sandwiched(J, qe.w_local(theta, psi=0.0)))
    b = sorted_mods(spectrum_of_sandwiched(J, qe.w_local(theta, psi=2.3)))
    assert np.abs(a - b).max() < 1e-12


def test_w_family_plateau_between_critical_angles():
    J = math.pi / 16
    s = math.sin(2 * J)
    thc = qe.critical_theta(J)
    for theta in np.linspace(thc + 0.01, math.pi - thc - 0.01, 7):
        lam = qe.restricted_w_spectrum(J, theta)
        assert abs(abs(lam[0]) - math.sqrt(s)) < 1e-12
        assert abs(abs(lam[1]) - math.sqrt(s)) < 1e-12


def test_rates_closed_forms():
    J = math.pi / 8
    s = math.sin(2 * J)
    assert abs(qe.nu_prime(J) + 0.5 * math.log(s)) < 1e-15
    assert abs(qe.nu_prime(J) + 0.25 * math.log(1 - qe.ep_cartan(J) / (2 / 3))) < 1e-12
    assert abs(qe.mu_prime(J) - (1 - s) / (1 + s)) < 1e-15
    assert abs(qe.nu_plus_exact(J) + (1 / 3) * math.log(1 - qe.ep_cartan(J) / (2 / 3))) < 1e-12
    # J = pi/4: e_p = 0, all rates vanish
    assert qe.nu_prime(math.pi / 4) == pytest.approx(0.0, abs=1e-15)
    assert qe.mu_prime(math.pi / 4) == pytest.approx(0.0, abs=1e-15)
    assert qe.nu_plus_exact(math.pi / 4) == pytest.approx(0.0, abs=1e-15)
    # J = 0 is the dcnot point: the closed forms diverge
    assert qe.nu_prime(0.0) == math.inf and qe.nu_plus_exact(0.0) == math.inf


def test_sampled_w_maximum_matches_nu_prime():
    J = math.pi / 8
    best = min(
        np.abs(qe.restricted_w_spectrum(J, th)).max()
        for th in np.linspace(0, math.pi, 4001)
    )
    assert abs(-math.log(best) - qe.nu_prime(J)) < 1e-6


def test_mu_prime_matches_quadrature():
    # average of -ln|lambda_1| over cos(theta) uniform, trapezoid on 10^4 nodes
    from scipy.integrate import trapezoid

    for J in (math.pi / 16, 0.3):
        c = np.linspace(-1.0, 1.0, 10_001)
        lam1 = np.array(
            [np.abs(qe.restricted_w_spectrum(J, math.acos(x))).max() for x in c]
        )
        mu = trapezoid(-np.log(lam1), c) / 2.0
        assert abs(mu - qe.mu_prime(J)) < 1e-6


@pytest.mark.parametrize("J", [0.11, math.pi / 16, 0.6])
@pytest.mark.parametrize("phi", [0.0, 0.8, 2.0, math.pi])
def test_v_family_cubic_vs_eigensolve(J, phi):
    got = sorted_mods(spectrum_of_sandwiched(J, qe.v_local(phi, psi=1.1)))
    want = sorted_mods(qe.restricted_v_cubic(J, phi))
    assert np.abs(got - want).max() < 1e-11


def test_v_family_special_roots_and_vieta():
    J = math.pi / 16
    s = math.sin(2 * J)
    r0 = qe.restricted_v_cubic(J, 0.0)
    assert np.abs(sorted_mods(r0) - sorted_mods([1j * math.sqrt(s), -1j * math.sqrt(s), s])).max() < 1e-12
    rpi = qe.restricted_v_cubic(J, math.pi)
    assert np.abs(sorted_mods(rpi) - sorted_mods([math.sqrt(s), -math.sqrt(s), -s])).max() < 1e-12
    for phi in (0.3, 1.7):
        r = qe.restricted_v_cubic(J, phi)
        assert abs(np.prod(r) - s * s) < 1e-12
        assert abs(np.sum(r) - math.cos(phi) * s) < 1e-12
    # the minimum of |lambda_1| over phi sits at phi = pi/2 with value s^(2/3)
    r_half = qe.restricted_v_cubic(J, math.pi / 2)
    assert abs(np.abs(r_half).max() - s ** (2 / 3)) < 1e-12


@pytest.mark.parametrize("J", [0.2, 0.5])
@pytest.mark.parametrize("theta,phi", [(0.7, 0.3), (1.9, 2.5), (math.pi / 2, math.pi / 2)])
def test_general_cubic_vs_eigensolve(J, theta, phi):
    got = sorted_mods(spectrum_of_sandwiched(J, qe.su2_local(theta, phi, 0.4)))
    want = sorted_mods(qe.general_su2_cubic(J, theta, phi))
    assert np.abs(got - want).max() < 1e-11


def test_stacked_cubic_roots_match_np_roots_per_point():
    rng = np.random.default_rng(5)
    real = rng.standard_normal((3, 5, 7))
    cplx = real + 1j * rng.standard_normal((3, 5, 7))
    real[2, 0, 0] = 0.0  # a zero root
    for a2, a1, a0 in (real, cplx):
        stacked = qe.cubic_roots(a2, a1, a0)
        assert stacked.shape == (5, 7, 3)
        for idx in np.ndindex(5, 7):
            want = np.roots([1.0, a2[idx], a1[idx], a0[idx]])
            dist = np.abs(stacked[idx][:, None] - want[None, :])
            assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) < 1e-12
    # the v and general families broadcast over their angles
    thetas, phis = np.meshgrid(np.linspace(0, math.pi, 4), np.linspace(0, math.pi, 3), indexing="ij")
    grid = qe.general_su2_cubic(0.3, thetas, phis)
    for idx in np.ndindex(4, 3):
        assert np.array_equal(grid[idx], qe.general_su2_cubic(0.3, thetas[idx], phis[idx]))
    assert np.array_equal(qe.restricted_v_cubic(0.3, phis[0])[1], qe.restricted_v_cubic(0.3, phis[0, 1]))


def test_general_minimum_matches_v_family_value():
    for J in (0.2, math.pi / 8):
        rep = qe.min_lambda1_general(J)
        assert abs(rep["min_radius"] - rep["closed_form"]) < 1e-4


def test_restricted_maximality_ordering():
    for J in np.linspace(0.05, math.pi / 4, 9):
        assert qe.nu_plus_exact(J) >= qe.nu_prime(J) - 1e-14
