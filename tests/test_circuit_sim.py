import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from dense_circuit import DenseCircuitSimulator, build_floquet, translation_matrix
from dualunitary import circuit_sim as cs
from dualunitary import tensor_ops as to
from dualunitary.channels import lightcone_correlation_prediction
from dualunitary.constructions import cat_map, diagonal_dual_sample, fixtures
from dualunitary.haar_mc import substream
from dualunitary.qubit_exact import cartan_gate
from dualunitary.tensor_ops import sample_haar
from reference_plan import plan as reference_plan


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


def _weyl_basis_loop(q):
    """The basis as q^2 Python-level products X^m @ Z^n, its former form."""
    w = np.exp(2j * np.pi / q)
    X = np.zeros((q, q), dtype=complex)
    for k in range(q):
        X[(k + 1) % q, k] = 1.0
    Z = np.diag(w ** np.arange(q))
    basis = []
    Xm = np.eye(q, dtype=complex)
    for _ in range(q):
        Zn = np.eye(q, dtype=complex)
        for _ in range(q):
            basis.append(Xm @ Zn)
            Zn = Zn @ Z
        Xm = Xm @ X
    return np.array(basis)


def test_weyl_basis_keeps_the_bytes_of_its_loop_form():
    # every real and imaginary part, the sign of each zero included
    for q in range(2, 9):
        new, old = cs.weyl_basis(q), _weyl_basis_loop(q)
        assert new.shape == old.shape == (q * q, q, q)
        for part in (np.real, np.imag):
            assert np.array_equal(part(new), part(old))
            assert np.array_equal(np.signbit(part(new)), np.signbit(part(old)))


def test_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        cs.CircuitConfig(q=3, L=2, gate=np.eye(4))  # wrong local dimension
    with pytest.raises(ValueError):
        cs.CircuitConfig(q=2, L=2, gate=np.eye(4), even_gates=[np.eye(4)])
    # every gate, uniform or per bond, is q^2 x q^2 and unitary to 1e-12
    U = cartan_gate(0.3)
    off = U * (1 + 1e-9)
    for kwargs, word in (({"gate": off}, "not unitary"),
                         ({"gate": U, "even_gates": [U, np.eye(9)]}, "local dimension"),
                         ({"gate": U, "odd_gates": [U, off]}, "not unitary")):
        with pytest.raises(to.ValidationError, match=word):
            cs.CircuitConfig(q=2, L=2, **kwargs)
    # ... and each gate object is checked once, however many bonds it fills
    calls = []
    monkeypatch.setattr(cs, "require_unitary", lambda g, what: calls.append(g))
    cs.CircuitConfig(q=2, L=1000, gate=U, even_gates=[U] * 1000, odd_gates=[U] * 1000)
    assert len(calls) == 1


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
    # a negative t stays that refusal after a large t is refused for its size
    big = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=24, gate=cartan_gate(0.2)))
    with pytest.raises(ValueError, match="budget"):
        big.c_plus(1, 1, 0.0, 12)
    with pytest.raises(ValueError, match="nonnegative"):
        big.c_plus(1, 1, 1.0, -1)


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


def test_non_dual_q3_gate_keeps_interior_correlations_at_t2():
    # a t = 2 sweep carries at most 3 legs, where the 8-leg operator would be 657 MiB
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=3, L=4, gate=sample_haar(9, substream(6, "circ"))))
    best = max(abs(sim.c_plus(i, j, x, 2)) for i in (1, 2) for j in (1, 2) for x in (0.0, 0.5, 1.0))
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
    matrices, so they are kept and multiplied as sparse matrices."""
    sim, ref = cs.CircuitSimulator(cfg), DenseCircuitSimulator(cfg)
    n, nb = sim.n_legs, cfg.q**2
    E = {(x, j): sparse.csr_matrix(ref.embed(ref.basis[j], 0.5 * x))
         for x in range(n) for j in range(nb)}
    worst = 0.0
    for t in range(t_max + 1):
        for i in i_set:
            for y in y_set:
                A = ref.heisenberg(ref.embed(ref.basis[i], y), t)
                table = sim.single_site_table(i, y, t)
                for (x, j), B in E.items():
                    val = complex(B.multiply(A.T).sum()) / ref.dim
                    worst = max(worst, abs(table[x, j] - val))
        for (i, j, k, l) in two_site:
            A = ref.heisenberg((E[(0, i)] @ E[(1, j)]).toarray(), t)
            for x1 in range(n):
                for x2 in range(n):
                    val = complex((E[(x1, k)] @ E[(x2, l)]).multiply(A.T).sum()) / ref.dim
                    got = sim.correlation_two_site(i, j, k, l, 0.5 * x1, 0.5 * x2, t)
                    worst = max(worst, abs(got - val))
    return worst


@pytest.mark.slow
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
        (cs.CircuitConfig(q=2, L=5, gate=sample_haar(4, rng)), 2, (2,), (0.0, 4.5), []),
    ]
    for cfg, t_max, i_set, y_set, two_site in cases:
        assert _oracle_worst(cfg, t_max, i_set, y_set, two_site) < 1e-12


def test_support_budget_refuses_before_allocating():
    # q = 2, L = 24: at t = 12 the centre sweep carries 13 legs, a 1 GiB state,
    # and so does the two-site sweep back to the initial legs
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=24, gate=cartan_gate(0.3)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="13 legs .* budget"):
            sim.c_plus(1, 1, 0.0, 12)
        with pytest.raises(ValueError, match="budget"):
            sim.correlation_two_site(1, 1, 1, 1, 0.0, 0.5, 12)
        # a ring of 6e6 legs costs nothing to set up, a point query on it is
        # one sweep, and its correlator table alone (366 MiB) is refused
        ring = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=3 * 10**6, gate=cartan_gate(0.3)))
        assert abs(ring.c_plus(1, 1, 1.0, 1)) > 1e-3
        with pytest.raises(ValueError, match="correlator table on 6000000 legs: 366 MiB"):
            ring.single_site_table(1, 0.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # q = 2, L = 16, t = 8 was refused by the meet-in-the-middle engine: its
    # centre sweep carries 9 legs, 4 MiB
    small = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=16, gate=cartan_gate(0.3)))
    assert abs(small.correlations(1, 0.0, 0.0, 8)[1]) < 1e-10


def test_sweeps_match_dense_oracle_without_tensordot_or_moveaxis(monkeypatch):
    # a gate step is one matrix product on a labelled state: the kernel neither
    # contracts with tensordot nor restores the axis order with moveaxis
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called tensordot or moveaxis")

    monkeypatch.setattr(np, "tensordot", refuse)
    monkeypatch.setattr(np, "moveaxis", refuse)
    rng = substream(7, "kernel")
    bonds = [sample_haar(4, rng) for _ in range(6)]
    for cfg in (cs.CircuitConfig(q=2, L=3, gate=sample_haar(4, rng)),
                cs.CircuitConfig(q=2, L=3, gate=bonds[0], even_gates=bonds[:3], odd_gates=bonds[3:]),
                cs.CircuitConfig(q=3, L=2, gate=sample_haar(9, rng))):
        assert _oracle_worst(cfg, 2, (1, 2), (0.0, 1.5), [(1, 3, 2, 1)]) < 1e-12
        # a batch of initial operators gives the rows of each alone
        sim = cs.CircuitSimulator(cfg)
        batch = sim.correlations([3, 1, 2], 0.5, -1.0, 2)
        for row, i in zip(batch, (3, 1, 2), strict=True):
            assert np.abs(row - sim.single_site_table(i, 0.5, 2)[sim.site_leg(-1.0)]).max() < 1e-15


def _largest_state(plan, legs):
    """The most legs a state holds along a plan."""
    size = top = len(legs)
    for _, ins, outs in plan:
        size += len(outs) - len(ins)
        top = max(top, size)
    return top


def test_sweeps_carry_at_most_t_plus_one_legs_in_the_window():
    # the causal diamond of one initial leg and one target leg, swept along its
    # shorter side; two initial legs, with one or two targets, add one more
    for L in range(1, 9):
        sim = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=L, gate=cartan_gate(0.3)))
        n = sim.n_legs
        for t in range(L // 2 + 1):
            for legs in ([0], [1], [0, 1]):
                steps = sim._steps(legs, t)
                for x in range(n):
                    for targets in ((x,), (x, (x + 3) % n)) if len(legs) == 2 else ((x,),):
                        plan = sim._plan(steps, legs, targets, 1, t)
                        assert _largest_state(plan, legs) <= t + len(legs), (L, t, legs, targets)
    # on the cone the diamond is one ray of 2t gates, each opening one leg and
    # tracing the other: the one-leg channel M+, so the state keeps one leg
    sim = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=8, gate=cartan_gate(0.3)))
    plan = sim._plan(sim._steps([0], 4), [0], (8,), 1, 4)
    assert [W.shape for W, _, _ in plan] == [(4, 4)] * 8 and _largest_state(plan, [0]) == 1


def test_tables_do_not_depend_on_build_order():
    # the gate matrices a simulator keeps in its `_gates` cache never change a
    # table's bytes: two build orders give identical tables
    rng = substream(8, "order")
    for q, L in ((2, 4), (3, 3)):
        bonds = [sample_haar(q * q, rng) for _ in range(2 * L)]
        for cfg in (cs.CircuitConfig(q=q, L=L, gate=bonds[0]),
                    cs.CircuitConfig(q=q, L=L, gate=bonds[0],
                                     even_gates=bonds[:L], odd_gates=bonds[L:])):
            single = [(i, y, t) for t in (1, 2) for y in (0.0, 0.5, 1.5) for i in (1, 2)]
            two = [(1, 2, 1), (3, 1, 1)]
            first, second = cs.CircuitSimulator(cfg), cs.CircuitSimulator(cfg)
            a = {key: first.single_site_table(*key) for key in single}
            a.update({key: first._two_site_table(*key) for key in two})
            b = {key: second._two_site_table(*key) for key in reversed(two)}
            b.update({key: second.single_site_table(*key) for key in reversed(single)})
            for key in a:
                assert np.array_equal(a[key], b[key]), (q, L, key)


def test_batched_tables_are_checked_one_at_a_time(monkeypatch):
    cfg = cs.CircuitConfig(q=2, L=4, gate=cartan_gate(0.3))
    sim = cs.CircuitSimulator(cfg)
    batched = sim.single_site_table((1, 3), 0.0, 2)
    assert batched.shape == (sim.n_legs, 2, 4)
    # with room for one batched table, one after another is built, bit for bit
    # as without the bound; a larger table is refused before any sweep
    monkeypatch.setattr(cs, "SUPPORT_BUDGET", batched.nbytes)
    tight = cs.CircuitSimulator(cfg)
    for i, y in (((1, 3), 0.0), ((2, 1), 0.5), ((3, 2), 1.5)):
        assert np.array_equal(tight.single_site_table(i, y, 1), sim.single_site_table(i, y, 1))
    monkeypatch.setattr(cs.CircuitSimulator, "_run", None)
    with pytest.raises(ValueError, match="correlator table on 8 legs"):
        tight.single_site_table((1, 2, 3), 0.0, 1)


def _point_query_configs():
    rng = substream(13, "point queries")
    for q, L in ((2, 4), (3, 2), (3, 3)):
        bonds = [sample_haar(q * q, rng) for _ in range(2 * L)]
        yield cs.CircuitConfig(q=q, L=L, gate=bonds[0])
        yield cs.CircuitConfig(q=q, L=L, gate=bonds[0], even_gates=bonds[:L], odd_gates=bonds[L:])


@pytest.mark.parametrize("cfg", _point_query_configs(),
                         ids=lambda c: f"q{c.q}_L{c.L}_{'bonds' if c.even_gates else 'uniform'}")
def test_point_queries_equal_their_table_entries(cfg):
    # each point query runs its own sweep, or the shared off-cone state, and
    # gives the bytes of its table entry; x1 > x2 reads the transposed pair
    sim = cs.CircuitSimulator(cfg)
    n, nb = sim.n_legs, cfg.q**2
    for t in range(cfg.L + 1):
        for i, y in itertools.product((1, 2), (0.0, 0.5)):
            table = sim.single_site_table(i, y, t)
            for x in range(n):
                assert sim.correlations(i, y, 0.5 * x, t).tobytes() == table[x].tobytes()
                j = 1 + x % (nb - 1)
                got = sim.correlation_single(i, j, 0.5 * x, y, t)
                assert np.complex128(got).tobytes() == table[x, j].tobytes()
        table = sim._two_site_table(1, 2, t)
        for x1, x2 in itertools.product(range(n), repeat=2):
            k, l = divmod((x1 * n + x2) % nb**2, nb)
            got = sim.correlation_two_site(1, 2, k, l, 0.5 * x1, 0.5 * x2, t)
            assert np.complex128(got).tobytes() == table[x1, x2, k, l].tobytes()


@pytest.mark.parametrize("q, L, t", [(3, 6, 3), (2, 12, 6)])
def test_tables_reach_beyond_the_split(q, L, t):
    # both were refused by the meet-in-the-middle engine: every split left a
    # half of 8 legs (657 MiB) at q = 3 and of 13 or more (1 GiB) at q = 2
    dual = (fixtures()["dual_q3_ep8over9"] if q == 3
            else diagonal_dual_sample(2, 1.0, substream(9, "circ")))
    haar = sample_haar(q * q, substream(10, "circ"))
    for U, is_dual in ((dual, True), (haar, False)):
        sim = cs.CircuitSimulator(cs.CircuitConfig(q=q, L=L, gate=U))
        plus, minus = sim.single_site_table((1, 2), 0.0, t), sim.single_site_table((1, 2), 0.5, t)
        interior = max(np.abs(table[(y + k) % sim.n_legs, :, 1:]).max()
                       for table, y in ((plus, 0), (minus, 1)) for k in range(-2 * t + 1, 2 * t))
        if not is_dual:  # the control: a Haar gate keeps correlations inside the cone
            assert interior > 1e-3
            continue
        assert interior <= 1e-10
        for table, side, x in ((plus, "plus", 2 * t), (minus, "minus", 1 - 2 * t)):
            for k, i in enumerate((1, 2)):
                for j in range(1, q * q):
                    pred = lightcone_correlation_prediction(U, sim.basis[i], sim.basis[j], t,
                                                            side=side)
                    assert abs(table[x % sim.n_legs, k, j] - pred) < 1e-12


def test_off_cone_legs_share_one_row_equal_to_their_sweeps(monkeypatch):
    # a leg off the forward cone of the initial leg is planned no sweep of its
    # own: its row is the shared trace-then-open one, bit for bit its sweep's
    plans = []
    plan = cs.CircuitSimulator._plan
    monkeypatch.setattr(cs.CircuitSimulator, "_plan",
                        lambda self, *args: plans.append(args[2]) or plan(self, *args))
    rng = substream(11, "off-cone")
    offs = 0
    for q, L in ((2, 4), (3, 3)):
        sim = cs.CircuitSimulator(cs.CircuitConfig(q=q, L=L, gate=sample_haar(q * q, rng)))
        n = sim.n_legs
        for t in (0, 1, 2):
            for y in (0.0, 0.5):
                for i in (2, (1, 3)):
                    leg, steps = sim.site_leg(y), sim._steps([sim.site_leg(y)], t)
                    cone = {leg}.union(*(step[1:3] for step in steps))
                    plans.clear()
                    table = sim.single_site_table(i, y, t)
                    assert sorted(plans) == [(x,) for x in range(n) if x in cone]
                    offs += n - len(cone)
                    T = sim.basis[np.asarray(i)].reshape(-1, q * q).T
                    states = sim._sweeps(steps, [leg], T, [(x,) for x in range(n)], t)
                    for x, S in enumerate(states):
                        assert np.array_equal(table[x], (S.T @ sim._read).reshape(table[x].shape))
    assert offs > 0


def _two_site_by_sweeps(sim, i, j, t):
    """The two-site table with one planned sweep for every pair {x1, x2}."""
    n, nb, B = sim.n_legs, sim.q**2, sim.basis
    products = np.einsum("kim,lmo->oikl", B, B).reshape(nb, -1) / sim.q
    T = np.multiply.outer(B[i].reshape(nb), B[j].reshape(nb))[..., None]
    pairs = [(x1, x2) for x1 in range(n) for x2 in range(x1, n)]
    targets = [(x1,) if x1 == x2 else (x1, x2) for x1, x2 in pairs]
    table = np.empty((n, n, nb, nb), dtype=complex)
    for (x1, x2), S in zip(pairs, sim._sweeps(sim._steps([0, 1], t), [0, 1], T, targets, t)):
        if x1 == x2:
            table[x1, x1] = (S[:, 0] @ products).reshape(nb, nb)
        else:
            table[x1, x2] = sim._read.T @ S[..., 0] @ sim._read
            table[x2, x1] = table[x1, x2].T
    return table


def test_two_site_pairs_off_the_cone_share_one_state_equal_to_their_sweeps(monkeypatch):
    # a pair with both legs off the forward cone of {0, 1} is planned no sweep:
    # it shares the trace-then-open state, bit for bit its own sweep's
    plans = []
    plan = cs.CircuitSimulator._plan
    monkeypatch.setattr(cs.CircuitSimulator, "_plan",
                        lambda self, *args: plans.append(args[2]) or plan(self, *args))
    rng = substream(12, "two-site off-cone")
    for q, L, t, off in ((2, 4, 1, 10), (2, 8, 1, 78), (2, 16, 2, 300), (3, 3, 1, 3)):
        cfg = cs.CircuitConfig(q=q, L=L, gate=sample_haar(q * q, rng))
        sim, n = cs.CircuitSimulator(cfg), 2 * L
        plans.clear()
        table = sim._two_site_table(1, 2, t)
        assert len(plans) == n * (n + 1) // 2 - off, (q, L, t)
        if L <= 4:
            assert np.array_equal(table, _two_site_by_sweeps(sim, 1, 2, t))
            assert _oracle_worst(cfg, t, (), (), [(1, 2, 3, 1), (2, 0, 1, 2)]) < 1e-12


def _plan_or_refusal(plan, *args):
    try:
        return plan(*args)
    except to.ValidationError as exc:
        return str(exc)


def _plans_match_the_former_planner(sim, batches, pairs_from=2):
    """Compare the planners on every t <= 2L + 1, initial legs [0], [1] and
    [0, 1], and every single target, every pair too from `pairs_from` initial
    legs on; return the number of cases."""
    n, cases = sim.n_legs, 0
    for legs in ([0], [1], [0, 1]):
        targets = [(x,) for x in range(n)]
        if len(legs) >= pairs_from:
            targets += list(itertools.combinations(range(n), 2))
        for t in range(n + 2):
            steps = sim._steps(legs, t)
            for tg, batch in itertools.product(targets, batches):
                args = (steps, legs, tg, batch, t)
                want = _plan_or_refusal(reference_plan, sim, *args)
                got = _plan_or_refusal(sim._plan, *args)
                cases += 1
                if isinstance(want, str) or isinstance(got, str):
                    assert got == want, (sim.q, sim.L, legs, t, tg, batch)
                    continue
                assert len(got) == len(want), (sim.q, sim.L, legs, t, tg)
                for (W, ins, outs), (W0, ins0, outs0) in zip(got, want):
                    assert W is W0 and ins == ins0 and outs == outs0, (sim.q, sim.L, legs, t, tg)
    return cases


@pytest.mark.slow
def test_plan_matches_the_former_planner(monkeypatch):
    # the one-pass planner gives the former planner's sweep: the same matrix
    # objects, input and output legs and order, or the same budget refusal
    rng = substream(9, "planner")
    bonds = [sample_haar(4, rng) for _ in range(16)]
    sims = {(2, L): cs.CircuitSimulator(cs.CircuitConfig(
        q=2, L=L, gate=bonds[0], even_gates=bonds[:L], odd_gates=bonds[8:8 + L]))
        for L in range(1, 9)}
    cases = sum(_plans_match_the_former_planner(sim, (1,)) for sim in sims.values())
    # q = 3: wrapped sweeps of 8 legs, and of 7 with a batch of 4, are refused
    for L in range(1, 5):
        sim = cs.CircuitSimulator(cs.CircuitConfig(q=3, L=L, gate=sample_haar(9, rng)))
        cases += _plans_match_the_former_planner(sim, (1, 4))
    assert cases == 10240
    # budgets of 1 to 4 legs at q = 2: every largest state, the initial legs
    # and the targets opened at the end included, sits on one side of a
    # budget, also for target pairs from one initial leg
    for legs in range(1, 5):
        monkeypatch.setattr(cs, "SUPPORT_BUDGET", 16 * 4**legs)
        for L in range(1, 5):
            _plans_match_the_former_planner(sims[2, L], (1,), pairs_from=1)
