import math

import numpy as np
import pytest

from dualunitary import constructions as co
from dualunitary import invariants as iv
from dualunitary import tensor_ops as to
from dualunitary.channels import build_m_plus, channel_spectrum, classify_gate
from dualunitary.haar_mc import sample_haar, substream


def test_block_diagonal_validation():
    with pytest.raises(ValueError):
        co.block_diagonal_matrix(3, [np.eye(4), np.eye(5)])
    with pytest.raises(ValueError):
        co.block_diagonal_matrix(3, [np.eye(3), np.eye(3)])
    with pytest.raises(ValueError):
        co.block_diagonal_gate(3, [np.eye(3)] * 3, side="bogus")


def test_identity_blocks_give_the_swap():
    U = co.block_diagonal_gate(3, [np.eye(3)] * 3, side="sd")
    assert np.array_equal(U, to.swap_operator(3))
    assert iv.entangling_power(U) == 0.0


def test_block_gates_are_dual_and_bounded():
    rng = substream(0, "block-bound")
    worst = 0.0
    for k in range(200):
        U = co.random_uniform_block_gate(3, rng)
        assert iv.classify_duality(U).is_dual
        worst = max(worst, iv.entangling_power(U))
    assert worst <= 3 / 4 + 1e-12


def test_general_k_blocks_dual_and_below_bound():
    rng = substream(1, "block-k2")
    worst = 0.0
    for k in range(100):
        U = co.random_block_gate(3, [2, 1], rng)
        assert iv.classify_duality(U).is_dual
        worst = max(worst, iv.entangling_power(U))
    assert worst < 7 / 8  # bound (q^2-K)/(q^2-1) is not attained in this family


def test_diagonal_sample_properties():
    rng = substream(2, "diag")
    eps_small = co.diagonal_dual_sample(2, 1e-4, rng)
    assert iv.entangling_power(eps_small) < 1e-6
    vals = [iv.entangling_power(co.diagonal_dual_sample(2, 1.0, rng)) for _ in range(4000)]
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1 / 3) < 3 * se
    with pytest.raises(ValueError):
        co.diagonal_dual_sample(2, 0.0, rng)


def test_block_channel_forms_uniform_ds():
    rng = substream(3, "forms")
    blocks = [sample_haar(3, rng) for _ in range(3)]
    rep = co.block_channel_forms(3, blocks, side="ds")
    assert rep["assembly_residual"] < 1e-12
    assert rep["spectrum_residual"] < 1e-12
    # q unit eigenvalues lambda_kk = 1
    lam = rep["spectrum_closed"]
    assert np.count_nonzero(np.abs(lam - 1.0) < 1e-12) >= 3


def test_block_channel_forms_orthonormal_blocks():
    C = np.roll(np.eye(3), 1, axis=0)
    rep = co.block_channel_forms(3, [np.eye(3), C, C @ C], side="ds")
    lam = np.sort(np.abs(rep["spectrum_closed"]))
    assert np.allclose(lam[:6], 0.0, atol=1e-12)
    assert np.allclose(lam[6:], 1.0, atol=1e-12)


def test_block_channel_forms_uniform_sd():
    rng = substream(4, "forms-sd")
    blocks = [sample_haar(3, rng) for _ in range(3)]
    rep = co.block_channel_forms(3, blocks, side="sd")
    assert rep["assembly_residual"] < 1e-12
    assert rep["closed_form_residual"] < 1e-12


def test_mr_fixed_point_and_trace():
    U = co.fixtures()["dual_q3_ep8over9"]
    V1, _ = co.nearest_unitary(to.realign_r2(U))
    V2, _ = co.nearest_unitary(to.realign_r2(V1))
    assert np.abs(V2 - U).max() < 1e-12
    U0 = sample_haar(9, substream(5, "mr"))
    U1, trace = co.mr_iterate(U0, max_iter=800, tol=1e-13)
    assert trace.converged
    assert np.all(np.diff(trace.s_half_history) >= -1e-10)
    assert iv.classify_duality(U1).residuals["dual"] < 1e-5


@pytest.mark.parametrize("flow", [co.mr_iterate, co.mrt_iterate])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_history_describes_the_returned_gate(flow, seed):
    # the S_1/2 history is read off each step's SVD; its last entry is the
    # returned gate's, not the one before it
    U0 = sample_haar(9, substream(seed, "flow-no-lag"))
    U, trace = flow(U0, max_iter=60, tol=1e-10)
    assert len(trace.s_half_history) == trace.n_iter
    p = iv.schmidt_spectrum(U).gamma / 9
    assert abs(trace.s_half_history[-1] - 2 * (np.sqrt(p).sum() - 1)) < 1e-12


def test_flow_takes_one_svd_per_realign_step(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda X: calls.append(1) or svd(X))
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # no second spectrum per step
    U0 = sample_haar(9, substream(8, "flow-svd-count"))
    for flow, per_step in ((co.mr_iterate, 1), (co.mrt_iterate, 2)):
        calls.clear()
        _, trace = flow(U0, max_iter=25, tol=1e-10)
        assert len(calls) == per_step * trace.n_iter + 1  # + the seed's SVD


def test_mrt_reaches_two_unitary_from_documented_seed():
    K, L = co.PERM_DUAL_EXAMPLE_Q3
    P = co.permutation_gate(K, L)
    U, trace = co.mrt_iterate(P, max_iter=500, tol=1e-12)
    assert trace.converged
    assert iv.entangling_power(U) > 1 - 1e-6
    assert trace.rank_deficient_steps > 0  # permutation seeds hit singular polar steps


def test_perturbed_two_unitary_stays_dual_near_one():
    U2 = co.two_unitary_permutation(4)
    U = co.perturbed_two_unitary(U2, 0.05, substream(6, "perturb"))
    dc = iv.classify_duality(U)
    assert dc.residuals["dual"] < 1e-3  # the realign-polar flow converges linearly
    assert 0.99 < iv.entangling_power(U) < 1.0


def test_permutation_gate_validation_and_phases():
    K = np.zeros((2, 2), dtype=int)
    L = np.zeros((2, 2), dtype=int)
    with pytest.raises(ValueError):
        co.permutation_gate(K, L)
    K2, L2 = co.PERM_OLS_EXAMPLE_Q3
    theta = substream(7, "phases").uniform(-math.pi, math.pi, size=(3, 3))
    P = co.permutation_gate(K2, L2, phases=theta)
    assert to.unitarity_defect(P) < 1e-14
    # enphasing preserves 2-unitarity
    assert iv.entangling_power(P) > 1 - 1e-12


def test_worked_permutation_examples():
    K, L = co.PERM_DUAL_EXAMPLE_Q3
    dc = co.classify_permutation(K, L)
    assert dc.is_dual and not dc.is_t_dual
    m = iv.classify_duality(co.permutation_gate(K, L))
    assert m.is_dual == dc.is_dual and m.is_t_dual == dc.is_t_dual
    K2, L2 = co.PERM_OLS_EXAMPLE_Q3
    assert co.classify_permutation(K2, L2).is_two_unitary
    assert iv.entangling_power(co.permutation_gate(K2, L2)) > 1 - 1e-12


def test_identity_permutation_is_t_dual():
    idx = np.arange(3)
    K = np.tile(idx[:, None], (1, 3))
    L = np.tile(idx[None, :], (3, 1))
    dc = co.classify_permutation(K, L)
    assert dc.is_t_dual and not dc.is_dual
    P = co.permutation_gate(K, L)
    assert np.array_equal(P, np.eye(9).astype(complex))
    assert iv.entangling_power(P) == 0.0


def test_enumerate_q2_has_no_two_unitary():
    recs = list(co.enumerate_dual_permutations(2))
    assert len(recs) == 12
    assert not any(r["two_unitary"] for r in recs)
    eps = sorted(r["e_p"] for r in recs)
    assert eps[0] < 1e-12  # the swap is dual with e_p = 0
    assert max(eps) <= 2 / 3 + 1e-12


def test_ols_pairs():
    for q in (3, 4, 5, 7):
        K, L = co.ols_pair(q)
        assert co.classify_permutation(K, L).is_two_unitary
    with pytest.raises(ValueError):
        co.ols_pair(6)


def test_perm_spec_json_round_trip():
    K, L = co.PERM_OLS_EXAMPLE_Q3
    obj = co.perm_spec_to_json(K, L)
    assert np.asarray(obj["K"]).min() == 1  # 1-indexed on the wire
    K2, L2, theta = co.perm_spec_from_json(obj)
    assert np.array_equal(K, K2) and np.array_equal(L, L2) and theta is None


def test_cat_map_classes_and_symmetry():
    for q in range(2, 7):
        U = co.cat_map(q)
        dc = iv.classify_duality(U)
        assert dc.is_dual
        assert dc.is_t_dual == (q % 2 == 1)
        expect = 1.0 if q % 2 else (q * q - 2) / (q * q - 1)
        assert abs(iv.entangling_power(U) - expect) < 1e-12
        S = to.swap_operator(q)
        assert np.abs(U @ S - S @ U).max() < 1e-13


def test_cat_channel_closed_forms():
    phi = to.max_entangled_vector(3)
    assert np.abs(build_m_plus(co.cat_map(3)) - np.outer(phi, phi.conj())).max() < 1e-12
    for q in (2, 4):
        M = build_m_plus(co.cat_map(q))
        assert np.abs(M - co.cat_channel_closed(q)).max() < 1e-12
        P = np.outer(to.max_entangled_vector(q), to.max_entangled_vector(q).conj())
        for n in (2, 3):
            assert np.abs(np.linalg.matrix_power(M, n) - P).max() < 1e-12


def test_cat_family_duality_and_factorization():
    for q in (2, 3):
        for b in (0.4, 1.0):
            U = co.cat_family(q, b)
            assert iv.classify_duality(U).is_dual
        assert abs(iv.entangling_power(co.cat_family(q, 1.0)) - q / (q + 1)) < 1e-12
    # U_C(b) = (F x F) S D(b): locally a swap-diagonal gate
    q, b = 3, 0.7
    k, a = np.ogrid[0:q, 0:q]
    F = np.exp(2j * np.pi * k * a / q) / np.sqrt(q)
    D = np.zeros((q * q, q * q), dtype=complex)
    for j in range(q):
        for be in range(q):
            D[j * q + be, j * q + be] = np.exp(2j * np.pi * b * (j * be) / q)
    rhs = np.kron(F, F) @ to.swap_operator(q) @ D
    assert np.abs(co.cat_family(q, b) - rhs).max() < 1e-13


def test_cat_fourier_local_lambda1():
    for q in (2, 4, 6):
        for phi2, expect in ((0.0, 1.0), (0.5, 0.0), (0.25, math.cos(math.pi / 4))):
            lam = co.cat_fourier_local_lambda1(q, 0.3, phi2)
            assert abs(lam - math.cos(math.pi * phi2)) < 1e-10
            assert abs(abs(lam) - abs(expect)) < 1e-10
    with pytest.raises(ValueError):
        co.cat_fourier_local_lambda1(3, 0.0, 0.0)


def test_fixture_values():
    fx = co.fixtures()
    assert abs(iv.entangling_power(fx["dual_q3_ep8over9"]) - 8 / 9) < 1e-12
    assert abs(iv.entangling_power(fx["two_unitary_q3"]) - 1.0) < 1e-12
    assert classify_gate(fx["two_unitary_q3"]).label == "Bernoulli"
    assert abs(iv.entangling_power(fx["dual_q3_ep3over4"]) - 0.75) < 1e-12
    assert abs(iv.entangling_power(fx["dual_q3_d3s"]) - 0.75) < 1e-12
    assert abs(iv.entangling_power(fx["dual_q3_d2s"]) - 0.75) < 1e-6
    assert abs(iv.entangling_power(fx["dual_q4_d4s"]) - 0.8) < 1e-12
    assert abs(iv.entangling_power(fx["dual_q4_ep4over5"]) - 0.8) < 1e-12
    for name, U in fx.items():
        assert to.unitarity_defect(U) < 1e-12, name


def test_d3s_d2s_channels_differ_under_same_local():
    # equal e_p yet locally inequivalent: the rotated channel spectra differ
    fx = co.fixtures()
    u = sample_haar(3, substream(8, "ineq"))
    W = np.kron(u, u.conj())
    s1 = np.sort(np.abs(channel_spectrum(W @ build_m_plus(fx["dual_q3_d3s"])).eigenvalues))
    s2 = np.sort(np.abs(channel_spectrum(W @ build_m_plus(fx["dual_q3_d2s"])).eigenvalues))
    assert np.abs(s1 - s2).max() > 1e-3


def test_unistochastic_reduction():
    rep = co.unistochastic_reduction(np.eye(3))
    assert rep["restriction_residual"] < 1e-14
    assert np.allclose(np.sort(rep["bistochastic_spectrum"].real), [1, 1, 1])
    k, a = np.ogrid[0:3, 0:3]
    F = np.exp(2j * np.pi * k * a / 3) / math.sqrt(3)
    rep2 = co.unistochastic_reduction(F)
    assert rep2["restriction_residual"] < 1e-14
    mods = np.sort(np.abs(rep2["bistochastic_spectrum"]))
    assert np.allclose(mods, [0, 0, 1], atol=1e-12)
    for i in range(20):
        u = sample_haar(3, substream(9, "unisto", i))
        rep3 = co.unistochastic_reduction(u)
        assert rep3["ok"] and rep3["spectrum_residual"] < 1e-10
        # deltoid containment is a cited conjecture: reported, never asserted
        assert 0.0 <= rep3["deltoid_fraction"] <= 1.0
        assert np.abs(rep3["bistochastic_spectrum"]).max() <= 1 + 1e-12
