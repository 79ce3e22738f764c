import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualunitary import channels as ch
from dualunitary import invariants as iv
from dualunitary import tensor_ops as to
from dualunitary.constructions import (cat_family, cat_map, diagonal_dual_sample, fixtures,
                                       two_unitary_permutation)
from dualunitary.haar_mc import sample_haar, substream
from dualunitary.qubit_exact import cartan_gate
from dualunitary.tensor_ops import ValidationError
from dualunitary.tolerances import UNITALITY_TOL, ZERO_TOL


def haar(d, label, i=0, seed=0):
    return sample_haar(d, substream(seed, label, i))


def multiset_residual(a, b):
    """Hungarian matching distance between two complex multisets."""
    import scipy.optimize

    a, b = np.asarray(a), np.asarray(b)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return cost[rows, cols].max()


def test_build_rejects_non_unitary():
    with pytest.raises(ValueError):
        ch.build_m_plus(np.ones((4, 4)))


def test_channel_matches_partial_trace_definition():
    for q, label in ((2, "mp2"), (3, "mp3")):
        U = haar(q * q, label)
        Mp = ch.build_m_plus(U)
        Mm = ch.build_m_minus(U)
        rng = np.random.default_rng(5)
        worst_p = worst_m = 0.0
        for _ in range(100):
            rho = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            got_p = ch.apply_channel(Mp, rho)
            ref = (U.conj().T @ np.kron(rho, np.eye(q)) @ U).reshape(q, q, q, q)
            worst_p = max(worst_p, np.abs(got_p - np.einsum("iaib->ab", ref) / q).max())
            got_m = ch.apply_channel(Mm, rho)
            refm = (U.conj().T @ np.kron(np.eye(q), rho) @ U).reshape(q, q, q, q)
            worst_m = max(worst_m, np.abs(got_m - np.einsum("iaja->ij", refm) / q).max())
        assert worst_p < 1e-12 and worst_m < 1e-12


def test_swap_conjugation_relates_the_channels():
    U = haar(9, "swapconj")
    S = to.swap_operator(3)
    assert np.abs(ch.build_m_plus(S @ U @ S) - ch.build_m_minus(U)).max() < 1e-13


def test_unitality_of_both_channels():
    for U in (haar(4, "uni1"), haar(9, "uni2"), cat_map(3), fixtures()["dual_q3_d3s"]):
        assert ch.unitality_residual(ch.build_m_plus(U)) < 1e-12
        assert ch.unitality_residual(ch.build_m_minus(U)) < 1e-12


def test_two_unitary_channel_is_the_projector():
    M = ch.build_m_plus(cat_map(3))
    phi = to.max_entangled_vector(3)
    assert np.abs(M - np.outer(phi, phi.conj())).max() < 1e-12
    assert np.abs(ch.deflate_trivial(M)).max() < 1e-12


def test_cartan_channel_is_diagonal():
    J = math.pi / 16
    s = math.sin(2 * J)
    M = ch.build_m_plus(cartan_gate(J))
    assert np.abs(M - np.diag([1.0, s, s, 1.0])).max() < 1e-12


def test_deflation_norm_and_spectrum():
    U = diagonal_dual_sample(3, 1.0, substream(2, "defl"))
    M = ch.build_m_plus(U)
    Mt = ch.deflate_trivial(M)
    assert abs(np.vdot(Mt, Mt).real - (np.vdot(M, M).real - 1.0)) < 1e-10
    # spectrum of the deflated matrix = spectrum of M with one 1 -> 0
    full = np.sort(np.abs(np.linalg.eigvals(M)))
    defl = np.sort(np.abs(np.linalg.eigvals(Mt)))
    expect = np.sort(np.concatenate([np.delete(full, -1), [0.0]]))
    assert np.abs(defl - expect).max() < 1e-9


def test_deflate_rejects_non_unital():
    with pytest.raises(ValueError):
        ch.deflate_trivial(np.eye(4) * 0.5)


def test_spectrum_sorting_rates_and_conjugation_closure():
    U = diagonal_dual_sample(3, 1.0, substream(3, "spec"))
    spec = ch.channel_spectrum(ch.build_m_plus(U))
    mods = np.abs(spec.eigenvalues)
    assert np.all(np.diff(mods) <= 1e-12)
    assert mods.max() <= 1 + 1e-9
    assert spec.eigenvalues.size == 8
    finite = np.isfinite(spec.rates)
    assert np.allclose(spec.rates[finite], -np.log(mods[finite]), atol=1e-12)
    assert multiset_residual(spec.eigenvalues, spec.eigenvalues.conj()) < 1e-9


def test_cartan_spectrum_and_swap_limit():
    spec = ch.channel_spectrum(ch.build_m_plus(cartan_gate(math.pi / 16)))
    s = math.sin(math.pi / 8)
    assert np.allclose(np.sort(np.abs(spec.eigenvalues)), sorted([s, s, 1.0]), atol=1e-12)
    # J = pi/4 is swap-like: all three nontrivial modes stay at 1
    spec2 = ch.channel_spectrum(ch.build_m_plus(cartan_gate(math.pi / 4)))
    assert np.allclose(np.abs(spec2.eigenvalues), 1.0, atol=1e-12)


def test_even_cat_nilpotent_spectrum():
    # exactly nilpotent deflated channels: every nontrivial mode is a zero mode
    for U in [cat_map(q) for q in (2, 4, 6)] + [cat_family(q, 1) for q in (2, 3, 4)]:
        rep = ch.classify_gate(U)
        assert rep.label == "Bernoulli" and rep.zero_count == rep.total
        for M in (ch.build_m_plus(U), ch.build_m_minus(U)):
            assert np.abs(ch.channel_spectrum(M).eigenvalues).max() < ZERO_TOL
    M = ch.build_m_plus(cat_map(2))
    phi = to.max_entangled_vector(2)
    P = np.outer(phi, phi.conj())
    assert np.abs(np.linalg.matrix_power(M, 2) - P).max() < 1e-12


def test_spectrum_companion_cross_check():
    for q, label in ((2, "cc2"), (3, "cc3")):
        M = ch.build_m_plus(haar(q * q, label))
        Mt = ch.deflate_trivial(M)
        # the deflated trivial mode is the q^2-th eigenvalue of Mt, an exact zero
        vals = np.append(ch.channel_spectrum(M).eigenvalues, 0.0)
        assert multiset_residual(vals, ch.eigvals_companion(Mt)) < 1e-7
        assert multiset_residual(vals, np.linalg.eigvals(Mt)) < 1e-12
        # a channel unital only to UNITALITY_TOL still has q^2 - 1 nontrivial modes
        E = 1e-13 * (haar(q * q, label, 1) - np.eye(q * q))
        assert ch.channel_spectrum(M + E).eigenvalues.size == q * q - 1
    # rank-deficient channels: the modes beyond the factored rank m are exact zeros
    fx = fixtures()
    for U, m in ((fx["two_unitary_q3"], 0), (cat_map(4), 1), (fx["dual_q3_d3s"], 2),
                 (fx["dual_q4_d4s"], 3)):
        M = ch.build_m_plus(U)
        q = to.local_dim(U)
        assert ch.factored_channel(M)[1].shape[0] == m
        assert np.count_nonzero(ch.channel_spectrum(M).eigenvalues == 0.0) == q * q - 1 - m


def test_classify_ergodicity_reference_gates():
    S = to.swap_operator(2).astype(complex)
    rep = ch.classify_gate(S)
    assert rep.label == "NonInteracting"
    rep3 = ch.classify_gate(cat_map(3))
    assert rep3.label == "Bernoulli"
    repJ = ch.classify_gate(cartan_gate(math.pi / 16))
    assert repJ.label == "NonErgodic"
    assert repJ.boundary  # unit modes present: tolerance-sensitive split
    # generic diagonal-phase gate: chiral mixing classes
    U = diagonal_dual_sample(2, 1.0, substream(4, "erg"))
    rep_d = ch.classify_gate(U)
    assert rep_d.label in ("NonErgodic", "ErgodicNonMixing", "ErgodicMixing")


@pytest.mark.parametrize("lam", [ZERO_TOL, np.nextafter(ZERO_TOL, 0.0)])
def test_zero_mode_boundary_agrees_between_rates_and_classes(lam):
    # a mode is zero iff |lambda| < ZERO_TOL, for the rate and the class count alike
    vals = np.array([0.5, 0.25, lam], dtype=complex)
    spec = ch.ChannelSpectrum(q=2, side="plus", eigenvalues=vals,
                              rates=ch.decay_rates(np.abs(vals)))
    zero = lam < ZERO_TOL
    assert np.isinf(spec.rates[2]) == zero
    assert ch.classify_ergodicity(spec, spec).zero_count == 2 * zero


def test_norm_identity_and_bounds():
    rep = ch.check_norm_and_bounds(diagonal_dual_sample(3, 1.0, substream(5, "norm")))
    assert rep["norm_residual"] < 1e-10
    assert rep["ok"] and rep["min_slack"] >= -1e-9
    # e_p = 1: everything collapses to zero
    rep2 = ch.check_norm_and_bounds(cat_map(3))
    assert rep2["norm_sq"] < 1e-10
    assert np.abs(rep2["slack"]).max() < 1e-7
    # even cat: the k = 1 bound is exactly 1 (tight)
    rep4 = ch.check_norm_and_bounds(cat_map(2))
    bound1 = math.sqrt(1 - rep4["e_p"]) * math.sqrt(3)
    assert abs(bound1 - 1.0) < 1e-12
    with pytest.raises(ValueError):
        ch.check_norm_and_bounds(np.eye(4, dtype=complex))  # not dual


def test_lightcone_prediction_values():
    from dualunitary.circuit_sim import weyl_basis

    basis = weyl_basis(3)
    for t in (1, 2):
        val = ch.lightcone_correlation_prediction(cat_map(3), basis[1], basis[2], t)
        assert abs(val) < 1e-12
    b2 = weyl_basis(2)
    val0 = ch.lightcone_correlation_prediction(cartan_gate(0.3), b2[1], b2[1], 0)
    assert abs(val0 - np.trace(b2[1] @ b2[1]) / 2) < 1e-13
    # sigma_x decays as sin(2J)^{2t}; sigma_z sits in the unit eigenspace
    J = 0.3
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    for t in (1, 2, 3):
        vx = ch.lightcone_correlation_prediction(cartan_gate(J), sx, sx, t)
        assert abs(vx - math.sin(2 * J) ** (2 * t)) < 1e-12
        vz = ch.lightcone_correlation_prediction(cartan_gate(J), sz, sz, t)
        assert abs(vz - 1.0) < 1e-12


def _moduli(M):
    return np.sort(np.abs(np.linalg.eigvals(M)))


@settings(derandomize=True, max_examples=24, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1))
def test_spectrum_covariance_under_locals(q, seed):
    # the channels of U' = (u1 x u2) U (v1 x v2):
    #   M+[U'] = (v2^dag x v2^T) M+[U] (u1^dag x u1^T)
    #   M-[U'] = (v1^dag x v1^T) M-[U] (u2^dag x u2^T)
    U = haar(q * q, "cov-gate", seed=seed)
    u1, u2, v1, v2 = (haar(q, "cov", i, seed=seed) for i in range(4))
    Up = to.sandwich_locals(U, u1, u2, v1, v2)
    rhs = np.kron(v2.conj().T, v2.T) @ ch.build_m_plus(U) @ np.kron(u1.conj().T, u1.T)
    assert np.abs(ch.build_m_plus(Up) - rhs).max() < 1e-12
    rhs = np.kron(v1.conj().T, v1.T) @ ch.build_m_minus(U) @ np.kron(u2.conj().T, u2.T)
    assert np.abs(ch.build_m_minus(Up) - rhs).max() < 1e-12
    # so v2 = u1^dag makes M+ a similarity transform, v1 = u2^dag does so for
    # M-, and the spectral moduli stay put
    plus = to.sandwich_locals(U, u1, u2, v1, u1.conj().T)
    assert np.abs(_moduli(ch.build_m_plus(plus)) - _moduli(ch.build_m_plus(U))).max() < 1e-12
    minus = to.sandwich_locals(U, u1, u2, u2.conj().T, v2)
    assert np.abs(_moduli(ch.build_m_minus(minus)) - _moduli(ch.build_m_minus(U))).max() < 1e-12


def test_inhomogeneous_bound():
    assert ch.inhomogeneous_bound([cat_map(3)])["bound"] < 1e-10
    U = diagonal_dual_sample(3, 1.0, substream(6, "inh"))
    rep = ch.inhomogeneous_bound([U, U])
    x = 1 - iv.entangling_power(U)
    assert abs(rep["bound"] - 8 * x * x) < 1e-10
    assert abs(rep["gamma"] + 2 * math.log(x)) < 1e-10
    # mixed sequence: the bound is the product over the listed gates
    V = diagonal_dual_sample(3, 1.0, substream(7, "inh"))
    rep2 = ch.inhomogeneous_bound([U, V])
    prod = (1 - iv.entangling_power(U)) * (1 - iv.entangling_power(V))
    assert abs(rep2["bound"] - 8 * prod) < 1e-10
    assert rep2["gamma"] is None


def test_lightcone_prediction_sides_differ_for_chiral_gate():
    from dualunitary.circuit_sim import weyl_basis

    U = diagonal_dual_sample(2, 1.0, substream(7, "chiral"))
    b = weyl_basis(2)
    gap = max(
        abs(
            ch.lightcone_correlation_prediction(U, b[i], b[j], 1, side="plus")
            - ch.lightcone_correlation_prediction(U, b[i], b[j], 1, side="minus")
        )
        for i in range(1, 4)
        for j in range(1, 4)
    )
    assert gap > 1e-6


# ---------------------------------------------------------------------------
# the real Hermitian-basis factorisation

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_hermitian_basis_is_orthonormal_and_hermitian(q):
    T = ch.hermitian_basis(q)
    assert np.abs(T.conj().T @ T - np.eye(q * q)).max() <= 1e-15
    for c in range(q * q):
        h = T[:, c].reshape(q, q)
        assert np.array_equal(h, h.conj().T)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_channels_are_real_in_the_hermitian_basis(q):
    T = ch.hermitian_basis(q)
    for i in range(5):
        U = haar(q * q, "herm-basis", i)
        for M in (ch.build_m_plus(U), ch.build_m_minus(U)):
            assert np.abs((T.conj().T @ ch.deflate_trivial(M) @ T).imag).max() <= UNITALITY_TOL


def test_a_channel_that_does_not_preserve_hermiticity_is_refused():
    # unital (it fixes |Phi+> on both sides) but i times the identity elsewhere
    phi = to.max_entangled_vector(3)
    P = np.outer(phi, phi.conj())
    M = P + 1e-3j * (np.eye(9) - P)
    assert ch.unitality_residual(M) <= UNITALITY_TOL
    with pytest.raises(ValidationError, match="Hermiticity"):
        ch.factored_channel(M)
    with pytest.raises(ValidationError, match="Hermiticity"):
        ch.channel_spectrum(M)


# (label, unit, one, zero counts) of `classify_gate`, recorded with the
# complex factorisation the real one replaced
REFERENCE_CLASSES = {
    "dual_q3_ep8over9": ("ErgodicMixing", 0, 0, 10),
    "two_unitary_q3": ("Bernoulli", 0, 0, 16),
    "dual_q3_ep3over4": ("ErgodicMixing", 0, 0, 3),
    "d3_q3": ("Bernoulli", 0, 0, 16),
    "d2_q3": ("Bernoulli", 0, 0, 16),
    "d4_q4": ("Bernoulli", 0, 0, 30),
    "dual_q3_d3s": ("NonErgodic", 4, 4, 12),
    "dual_q3_d2s": ("NonErgodic", 1, 1, 0),
    "dual_q4_d4s": ("NonErgodic", 6, 6, 24),
    "dual_q4_ep4over5": ("NonErgodic", 1, 1, 0),
    "cat_map(2)": ("Bernoulli", 0, 0, 6),
    "cat_map(3)": ("Bernoulli", 0, 0, 16),
    "cat_map(4)": ("Bernoulli", 0, 0, 30),
    "cat_map(5)": ("Bernoulli", 0, 0, 48),
    "cat_map(6)": ("Bernoulli", 0, 0, 70),
    "cat_family(2, 0.3)": ("ErgodicMixing", 0, 0, 0),
    "cat_family(2, 0.7)": ("ErgodicMixing", 0, 0, 0),
    "cat_family(2, 1)": ("Bernoulli", 0, 0, 6),
    "cat_family(3, 0.3)": ("ErgodicMixing", 0, 0, 0),
    "cat_family(3, 0.7)": ("ErgodicMixing", 0, 0, 0),
    "cat_family(3, 1)": ("Bernoulli", 0, 0, 16),
    "cat_family(4, 0.3)": ("ErgodicMixing", 0, 0, 0),
    "cat_family(4, 0.7)": ("ErgodicMixing", 0, 0, 0),
    "cat_family(4, 1)": ("Bernoulli", 0, 0, 30),
    "two_unitary_permutation(4)": ("Bernoulli", 0, 0, 30),
}


@functools.cache
def _reference_gates():
    return {**fixtures(), **{f"cat_map({q})": cat_map(q) for q in range(2, 7)},
            **{f"cat_family({q}, {b})": cat_family(q, b) for q in (2, 3, 4) for b in (0.3, 0.7, 1)},
            "two_unitary_permutation(4)": two_unitary_permutation(4)}


@pytest.mark.parametrize("name", list(REFERENCE_CLASSES))
def test_real_factorisation_keeps_every_class_and_count(name):
    rep = ch.classify_gate(_reference_gates()[name])
    label, unit, one, zero = REFERENCE_CLASSES[name]
    assert (rep.label, rep.unit_count, rep.one_count, rep.zero_count) == (label, unit, one, zero)
    assert rep.boundary == (unit > 0)
