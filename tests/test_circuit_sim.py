import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from dense_circuit import DenseCircuitSimulator, build_floquet, translation_matrix
from dualunitary import circuit_sim as cs
from dualunitary import tensor_ops as to
from dualunitary.channels import lightcone_correlation_prediction
from dualunitary.constructions import cat_map, diagonal_dual_sample, fixtures
from dualunitary.haar_mc import sample_haar, substream
from dualunitary.qubit_exact import cartan_gate


def test_weyl_basis_orthonormal_traceless_complete():
    for q in (2, 3):
        B = cs.weyl_basis(q)
        gram = np.einsum("aij,bij->ab", B.conj(), B) / q
        assert np.abs(gram - np.eye(q * q)).max() < 1e-13
        assert np.array_equal(B[0], np.eye(q, dtype=complex))
        for k in range(1, q * q):
            assert abs(np.trace(B[k])) < 1e-13
        rng = np.random.default_rng(q)
        rho = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        acc = sum(b @ rho @ b.conj().T for b in B) / q**2
        assert np.abs(acc - np.trace(rho) * np.eye(q) / q).max() < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        cs.CircuitConfig(q=3, L=2, gate=np.eye(4))  # wrong local dimension
    with pytest.raises(ValueError):
        cs.CircuitConfig(q=2, L=2, gate=np.eye(4), even_gates=[np.eye(4)])


def test_floquet_l1_hand_composition():
    U = cartan_gate(0.3)
    F = build_floquet(cs.CircuitConfig(q=2, L=1, gate=U))
    S = to.swap_operator(2)
    assert np.abs(F - U @ S @ U @ S).max() < 1e-14


def test_floquet_unitarity_and_two_site_shift_symmetry():
    U = diagonal_dual_sample(2, 1.0, substream(0, "circ"))
    sim = DenseCircuitSimulator(cs.CircuitConfig(q=2, L=4, gate=U))
    assert to.unitarity_defect(sim.floquet) < 1e-11
    T = translation_matrix(2, 8)
    assert np.abs(sim.floquet @ T @ T - T @ T @ sim.floquet).max() < 1e-12


def test_swap_circuit_is_free():
    # swap bricks translate operators ballistically with unchanged weight
    S = to.swap_operator(2).astype(complex)
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=4, gate=S))
    for t in (1, 2):
        val = sim.c_plus(1, 1, float(t), t)
        pred = lightcone_correlation_prediction(S, sim.basis[1], sim.basis[1], t)
        assert abs(val - pred) < 1e-12
        assert abs(val - 1.0) < 1e-12


def test_window_guard():
    # the ring evolution is exact at any t >= 0 (t <= L/2 is a condition of the
    # channel prediction, checked by `circuit verify`): only a negative t and a
    # trivial basis index are refused
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=2, gate=cartan_gate(0.2)))
    for call in (lambda: sim.c_plus(1, 1, 1.0, -1),
                 lambda: sim.correlation_two_site(1, 1, 1, 1, 0.0, 0.5, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            call()
    for i, j in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match="nontrivial"):
            sim.correlation_single(i, j, 0.0, 0.0, 1)


def test_interior_vanishes_and_cone_matches_channel_for_dual_gates():
    cases = [
        (diagonal_dual_sample(2, 1.0, substream(1, "circ")), 2, 4),
        (fixtures()["dual_q3_ep8over9"], 3, 3),
    ]
    for U, q, L in cases:
        sim = cs.CircuitSimulator(cs.CircuitConfig(q=q, L=L, gate=U))
        for t in range(1, L // 2 + 1):
            for i in (1, 2):
                for j in (1, 2):
                    gp = sim.c_plus(i, j, float(t), t)
                    pp = lightcone_correlation_prediction(U, sim.basis[i], sim.basis[j], t, side="plus")
                    assert abs(gp - pp) < 1e-10
                    gm = sim.c_minus(i, j, float(-t), t)
                    pm = lightcone_correlation_prediction(U, sim.basis[i], sim.basis[j], t, side="minus")
                    assert abs(gm - pm) < 1e-10
                    # every position strictly inside the cone, on both rays' sides
                    for n in range(sim.n_legs):
                        x = 0.5 * n if n <= L else 0.5 * n - L  # signed offset on the ring
                        if abs(x) < t:
                            assert abs(sim.c_plus(i, j, x, t)) < 1e-10
                            assert abs(sim.c_minus(i, j, x, t)) < 1e-10


def test_t0_orthonormality():
    U = cartan_gate(0.4)
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=2, gate=U))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            val = sim.correlation_single(i, j, 0.0, 0.0, 0)
            expect = np.trace(sim.basis[j] @ sim.basis[i]) / 2
            assert abs(val - expect) < 1e-13


def test_two_site_t0_factorizes():
    U = cat_map(3)
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=3, L=2, gate=U))
    i, j, k, l = 1, 2, 3, 4
    val = sim.correlation_two_site(i, j, k, l, 0.0, 0.5, 0)
    expect = (
        np.trace(sim.basis[k] @ sim.basis[i]) * np.trace(sim.basis[l] @ sim.basis[j]) / 9
    )
    assert abs(val - expect) < 1e-12


def test_bernoulli_two_site_correlations_vanish():
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=3, L=3, gate=cat_map(3)))
    worst = 0.0
    for (i, j, k, l) in [(1, 1, 1, 1), (1, 2, 3, 4), (2, 5, 7, 1)]:
        for n1 in range(6):
            for n2 in range(6):
                val = sim.correlation_two_site(i, j, k, l, 0.5 * n1, 0.5 * n2, 1)
                worst = max(worst, abs(val))
    assert worst < 1e-9


def test_dual_but_not_two_unitary_has_nonzero_two_site_lightcone():
    U = diagonal_dual_sample(2, 1.0, substream(2, "circ"))
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=4, gate=U))
    t = 1
    best = max(
        abs(sim.correlation_two_site(i, j, k, l, t - 0.5, float(t), t))
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        for k in (1, 2, 3)
        for l in (1, 2, 3)
    )
    assert best > 1e-6


def test_t_dual_only_gate_cone_vanishes():
    D = fixtures()["d3_q3"]  # T-dual, not dual
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=3, L=2, gate=D))
    for i in (1, 2):
        for j in (1, 2):
            assert abs(sim.c_plus(i, j, 1.0, 1)) < 1e-12
            assert abs(sim.c_minus(i, j, -1.0, 1)) < 1e-12


def test_non_dual_gate_has_interior_correlations():
    U = sample_haar(4, substream(3, "circ"))
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=4, gate=U))
    best = max(
        abs(sim.c_plus(i, j, x, 2))
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        for x in (0.0, 0.5, 1.0)
    )
    assert best > 1e-3


def test_lightcone_scan_structure():
    # max |C_+| / |C_-| over basis pairs at every half-integer position, t = 1:
    # for a dual gate only the ray x = t of the plus side carries weight
    U = fixtures()["dual_q3_ep8over9"]
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=3, L=2, gate=U))
    pairs = [(1, 1), (1, 2), (2, 1)]
    recs = [{"x": 0.5 * n, "side": side,
             "max_abs": max(abs(c(i, j, 0.5 * n, 1)) for i, j in pairs)}
            for n in range(sim.n_legs)
            for side, c in (("plus", sim.c_plus), ("minus", sim.c_minus))]
    assert len(recs) == 2 * 2 * sim.n_legs // 2  # both sides, all positions, t=1
    interior = [r for r in recs if r["side"] == "plus" and r["x"] not in (1.0,)]
    cone = [r for r in recs if r["side"] == "plus" and r["x"] == 1.0]
    assert max(r["max_abs"] for r in interior) < 1e-10
    assert len(cone) == 1


def test_inhomogeneous_bond_gates_run():
    rng = substream(4, "circ")
    gates_even = [diagonal_dual_sample(2, 1.0, rng) for _ in range(2)]
    gates_odd = [diagonal_dual_sample(2, 1.0, rng) for _ in range(2)]
    cfg = cs.CircuitConfig(q=2, L=2, gate=gates_even[0],
                           even_gates=gates_even, odd_gates=gates_odd)
    assert to.unitarity_defect(DenseCircuitSimulator(cfg).floquet) < 1e-11
    # translation symmetry is broken but the evolution stays unitary
    cs.CircuitSimulator(cfg).c_plus(1, 1, 1.0, 1)


def _oracle_worst(cfg, t_max, i_set, y_set, two_site):
    """max |engine - dense oracle| over t <= t_max: single-site tables (every
    x, j) for the given i and y, and two-site correlators (every x1, x2) for
    the given (i, j, k, l).  The oracle's embedded observables are monomial
    matrices, so their products are taken as sparse matrices."""
    sim, ref = cs.CircuitSimulator(cfg), DenseCircuitSimulator(cfg)
    n, nb = sim.n_legs, cfg.q**2
    E = {(x, j): ref.embed(ref.basis[j], 0.5 * x) for x in range(n) for j in range(nb)}
    Es = {key: sparse.csr_matrix(op) for key, op in E.items()}
    worst = 0.0
    for t in range(t_max + 1):
        for i in i_set:
            for y in y_set:
                A = ref.heisenberg(ref.embed(ref.basis[i], y), t)
                table = sim.single_site_table(i, y, t)
                for (x, j), B in E.items():
                    val = complex(np.einsum("ij,ji->", B, A)) / ref.dim
                    worst = max(worst, abs(table[x, j] - val))
        for (i, j, k, l) in two_site:
            A = ref.heisenberg(E[(0, i)] @ E[(1, j)], t)
            for x1 in range(n):
                for x2 in range(n):
                    val = complex((Es[(x1, k)] @ Es[(x2, l)]).multiply(A.T).sum()) / ref.dim
                    got = sim.correlation_two_site(i, j, k, l, 0.5 * x1, 0.5 * x2, t)
                    worst = max(worst, abs(got - val))
    return worst


def test_engine_matches_dense_oracle():
    rng = substream(5, "oracle")
    haar2 = sample_haar(4, rng)
    bonds = [sample_haar(4, rng) for _ in range(8)]
    cases = [
        # (config, t_max, i, y, two-site (i, j, k, l))
        (cs.CircuitConfig(q=2, L=1, gate=haar2), 1, (1, 2, 3), (0.0, 0.5),
         [(1, 3, 2, 1), (3, 0, 1, 1)]),
        (cs.CircuitConfig(q=3, L=1, gate=fixtures()["dual_q3_ep8over9"]), 1, (1, 5), (0.0, 0.5),
         [(1, 2, 3, 4)]),
        (cs.CircuitConfig(q=2, L=4, gate=haar2), 4, (1, 3), (0.0, 1.5), [(1, 3, 2, 1)]),
        (cs.CircuitConfig(q=2, L=4, gate=bonds[0], even_gates=bonds[:4], odd_gates=bonds[4:]),
         4, (2,), (0.5, 2.0), [(2, 1, 1, 3)]),
        (cs.CircuitConfig(q=3, L=3, gate=sample_haar(9, rng)), 3, (4,), (0.0, 0.5), [(1, 8, 2, 4)]),
    ]
    for cfg, t_max, i_set, y_set, two_site in cases:
        assert _oracle_worst(cfg, t_max, i_set, y_set, two_site) < 1e-12


def test_support_budget_refuses_before_allocating(monkeypatch):
    # q = 2, L = 8: at t = 4 the operator covers all 16 legs, a 64 GiB tensor
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=8, gate=cartan_gate(0.3)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            sim.c_plus(1, 1, 4.0, 4)
        with pytest.raises(ValueError, match="budget"):
            sim.correlation_two_site(1, 1, 1, 1, 0.0, 0.5, 4)
        # a ring of 6e6 legs costs nothing to set up, and its first correlator
        # table alone (384 MiB) is refused
        ring = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=3 * 10**6, gate=cartan_gate(0.3)))
        with pytest.raises(ValueError, match="budget"):
            ring.c_plus(1, 1, 1.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    sim.c_plus(1, 1, 2.0, 2)  # at t = 2 the support is 8 legs, well inside the budget
    # the kept tables count together: 512 B each on 8 legs at q = 2, and a
    # t = 1 operator on 4 legs takes the whole 4 KiB
    monkeypatch.setattr(cs, "SUPPORT_BUDGET", 8 * 512)
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=4, gate=cartan_gate(0.3)))
    for k in range(8):
        sim.single_site_table(1 + k % 3, 0.5 * (k // 3), 1)
    with pytest.raises(ValueError, match="kept correlator tables"):
        sim.single_site_table(3, 1.0, 1)
    sim.single_site_table(1, 0.0, 1)  # a kept table is read without a new charge
