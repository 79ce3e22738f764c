"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest -v -s tests/test_acceptance.py`.  Every tolerance is pinned
here; nothing is deferred to later calibration.  The whole module targets a
laptop budget of ~10 minutes.
"""

import json
import math

import numpy as np
import scipy.stats

from dualunitary import channels as ch
from dualunitary import circuit_sim as cs
from dualunitary import constructions as co
from dualunitary import haar_mc as hm
from dualunitary import invariants as iv
from dualunitary import qubit_exact as qe
from dualunitary import tensor_ops as to
from dualunitary.cli import main as cli_main

SEED = 20240811

# recorded on the first full enumeration run (q = 3): the number of
# dual-unitary permutations of [3] x [3] and the 2-unitary count among them
DUAL_PERMUTATION_COUNT_Q3 = 8784
TWO_UNITARY_PERMUTATION_COUNT_Q3 = 72


def _report(num, ok, detail):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_01_reshuffle_algebra():
    worst = 0.0
    for q in (2, 3, 4, 5, 6):
        for k in range(100):
            rng = hm.substream(SEED, f"c1-{q}", k)
            X = rng.standard_normal((q * q, q * q)) + 1j * rng.standard_normal((q * q, q * q))
            locs = [to.sample_haar(q, hm.substream(SEED, f"c1l-{q}-{k}", i)) for i in range(4)]
            worst = max(worst, max(to.verify_reshuffle_identities(X, locals_=locs).values()))
    _report(1, worst <= 1e-12, f"reshuffle identities, 100 matrices per q in 2..6: max residual {worst:.2e}")


def test_criterion_02_exact_invariants():
    errs = []
    errs.append(abs(iv.entangling_power(to.swap_operator(2).astype(complex))))
    for J in np.linspace(0.0, math.pi / 4, 20):
        errs.append(abs(iv.entangling_power(qe.cartan_gate(J)) - qe.ep_cartan(J)))
    for q, expect in ((2, 2 / 3), (3, 1.0), (4, 14 / 15), (5, 1.0)):
        errs.append(abs(iv.entangling_power(co.cat_map(q)) - expect))
    fx = co.fixtures()
    errs.append(abs(iv.entangling_power(fx["dual_q3_ep8over9"]) - 8 / 9))
    errs.append(abs(iv.entangling_power(fx["two_unitary_q3"]) - 1.0))
    worst = max(errs)
    _report(2, worst <= 1e-12, f"exact e_p values (swap, Cartan x20, cat, fixtures): max error {worst:.2e}")


def test_criterion_03_channel_structure():
    errs = []
    phi3 = to.max_entangled_vector(3)
    errs.append(np.abs(ch.build_m_plus(co.cat_map(3)) - np.outer(phi3, phi3.conj())).max())
    for q in (2, 4):
        M = ch.build_m_plus(co.cat_map(q))
        errs.append(np.abs(M - co.cat_channel_closed(q)).max())
        P = np.outer(to.max_entangled_vector(q), to.max_entangled_vector(q).conj())
        for n in (2, 3, 5):
            errs.append(np.abs(np.linalg.matrix_power(M, n) - P).max())
    for J in (0.0, math.pi / 16, 0.6):
        s = math.sin(2 * J)
        errs.append(np.abs(ch.build_m_plus(qe.cartan_gate(J)) - np.diag([1, s, s, 1])).max())
    worst = max(float(e) for e in errs)
    _report(3, worst <= 1e-12, f"channel closed forms (cat odd/even, powers, Cartan diag): max residual {worst:.2e}")


# ---------------------------------------------------------------------------

def _criterion4_bank():
    """500 dual gates spread over every factory, q in {2, 3, 4}."""
    gates = []

    def add(tag, U):
        gates.append((tag, U))

    fx = co.fixtures()
    # q = 2 (170)
    for k in range(60):
        add("diag2", co.diagonal_dual_sample(2, 1.0, hm.substream(SEED, "c4-diag2", k)))
    for k in range(30):
        add("diag2eps", co.diagonal_dual_sample(2, 0.3, hm.substream(SEED, "c4-diag2e", k)))
    for J in np.linspace(0.0, math.pi / 4, 20):
        add("cartan", qe.cartan_gate(J))
    for k in range(30):
        add("block2", co.random_uniform_block_gate(2, hm.substream(SEED, "c4-blk2", k)))
    for b in np.linspace(0.1, 2.0, 20):
        add("catfam2", co.cat_family(2, b))
    for k in range(10):
        locs = [to.sample_haar(2, hm.substream(SEED, "c4-lu2", 4 * k + i)) for i in range(4)]
        add("cartan-lu", to.sandwich_locals(qe.cartan_gate(0.2 + 0.03 * k), *locs))

    # q = 3 (180)
    for k in range(60):
        add("diag3", co.diagonal_dual_sample(3, 1.0, hm.substream(SEED, "c4-diag3", k)))
    for k in range(40):
        add("block3", co.random_uniform_block_gate(3, hm.substream(SEED, "c4-blk3", k)))
    for k in range(20):
        add("block3k2", co.random_block_gate(3, [2, 1], hm.substream(SEED, "c4-blk3k2", k)))
    n_mr3 = 0
    k = 0
    while n_mr3 < 15 and k < 40:
        U0 = to.sample_haar(9, hm.substream(SEED, "c4-mr3", k))
        U, tr = co.mr_iterate(U0, max_iter=30_000, tol=5e-12)
        k += 1
        if tr.converged:
            add("dualcue3", U)
            n_mr3 += 1
    K3, L3 = co.PERM_OLS_EXAMPLE_Q3
    for k in range(20):
        theta = hm.substream(SEED, "c4-enph3", k).uniform(-math.pi, math.pi, size=(3, 3))
        add("enph3", co.permutation_gate(K3, L3, phases=theta))
    Kd, Ld = co.PERM_DUAL_EXAMPLE_Q3
    for k in range(10):
        theta = hm.substream(SEED, "c4-enphd3", k).uniform(-math.pi, math.pi, size=(3, 3))
        add("enphd3", co.permutation_gate(Kd, Ld, phases=theta))
    for b in np.linspace(0.2, 1.8, 10):
        add("catfam3", co.cat_family(3, b))
    for name in ("dual_q3_ep8over9", "two_unitary_q3", "dual_q3_ep3over4", "dual_q3_d3s", "dual_q3_d2s"):
        add("fixture3", fx[name])
    while sum(1 for t, _ in gates if t.endswith("3") or t == "fixture3") < 180:
        add("diag3", co.diagonal_dual_sample(3, 1.0, hm.substream(SEED, "c4-diag3b", len(gates))))

    # q = 4 (150)
    for k in range(50):
        add("diag4", co.diagonal_dual_sample(4, 1.0, hm.substream(SEED, "c4-diag4", k)))
    for k in range(30):
        add("block4", co.random_uniform_block_gate(4, hm.substream(SEED, "c4-blk4", k)))
    for k in range(20):
        add("block4k2", co.random_block_gate(4, [2, 2], hm.substream(SEED, "c4-blk4k2", k)))
    n_mr4 = 0
    k = 0
    while n_mr4 < 10 and k < 30:
        U0 = to.sample_haar(16, hm.substream(SEED, "c4-mr4", k))
        U, tr = co.mr_iterate(U0, max_iter=30_000, tol=1e-11)
        k += 1
        if tr.converged:
            add("dualcue4", U)
            n_mr4 += 1
    K4, L4 = co.ols_pair(4)
    for k in range(20):
        theta = hm.substream(SEED, "c4-enph4", k).uniform(-math.pi, math.pi, size=(4, 4))
        add("enph4", co.permutation_gate(K4, L4, phases=theta))
    for b in np.linspace(0.2, 1.8, 10):
        add("catfam4", co.cat_family(4, b))
    add("cat4", co.cat_map(4))
    add("fixture4", fx["dual_q4_d4s"])
    add("fixture4", fx["dual_q4_ep4over5"])
    while len(gates) < 500:
        add("diag4b", co.diagonal_dual_sample(4, 1.0, hm.substream(SEED, "c4-diag4b", len(gates))))
    return gates[:500]


def test_criterion_04_norm_and_bounds_ledger():
    gates = _criterion4_bank()
    worst_norm, worst_slack = 0.0, math.inf
    for tag, U in gates:
        rep = ch.check_norm_and_bounds(U, dual_tol=1e-5)
        worst_norm = max(worst_norm, rep["norm_residual"])
        worst_slack = min(worst_slack, rep["min_slack"])
    ok = worst_norm <= 1e-9 and worst_slack >= -1e-9
    _report(4, ok, f"norm identity and bound slacks on {len(gates)} gates: "
                   f"max residual {worst_norm:.2e}, min slack {worst_slack:.2e}")


def test_criterion_05_haar_second_moment():
    worst_z = 0.0
    for q in (2, 3):
        for k in range(10):
            if k < 5:
                U = co.diagonal_dual_sample(q, 1.0, hm.substream(SEED, f"c5-diag{q}", k))
            else:
                U0 = to.sample_haar(q * q, hm.substream(SEED, f"c5-mr{q}", k))
                U, _ = co.mr_iterate(U0, max_iter=5000, tol=1e-9)
            est = hm.avg_norm_power(U, 2, 10_000, seed=SEED + k)
            se = max(est.stderr, 1e-15)
            worst_z = max(worst_z, abs(est.mean - est.extras["exact_k2"]) / se)
    est2 = hm.avg_spectral_radius(co.cat_map(2), 10_000, seed=SEED)
    z2 = abs(est2.extras["mean_sq"] - 1 / 3) / est2.extras["stderr_sq"]
    ok = worst_z <= 3.0 and z2 <= 3.0
    _report(5, ok, f"E||Mt^2||^2 = (q^2-1)(1-e_p)^2 at N=1e4, 10 gates per q in (2,3): "
                   f"max z {worst_z:.2f}; cat q=2 E|l1|^2 = 1/3 z {z2:.2f}")


def test_criterion_06_averaged_radius_trend():
    gates = []
    for k in range(50):
        gates.append(co.diagonal_dual_sample(3, 1.0, hm.substream(SEED, "c6-diag3", k)))
    for k in range(25):
        U0 = to.sample_haar(9, hm.substream(SEED, "c6-mr3", k))
        U, _ = co.mr_iterate(U0, max_iter=4000, tol=1e-9)
        gates.append(U)
    for k in range(25):
        gates.append(co.diagonal_dual_sample(4, 1.0, hm.substream(SEED, "c6-diag4", k)))
    xs, ys = [], []
    for i, U in enumerate(gates):
        ep = iv.entangling_power(U)
        if ep >= 1 - 1e-9:
            continue
        est = hm.avg_spectral_radius(U, 800, seed=SEED + i)
        xs.append(math.sqrt(1 - ep))
        ys.append(est.mean)
    xs, ys = np.array(xs), np.array(ys)
    f_q = float(xs @ ys / (xs @ xs))  # least squares through the origin
    ok = 1.0 <= f_q <= 1.2
    _report(6, ok, f"E|l1| ~ f sqrt(1-e_p) over {len(xs)} D1S/dual-CUE gates (q=3,4): "
                   f"f = {f_q:.3f} in [1.0, 1.2]")


def test_criterion_06b_near_one_factor():
    """Faithful check of the 'factor -> 1 within 0.05 near e_p = 1' clause.

    This is expected to fail honestly: for every faithful realization of
    'perturbed 2-unitaries, q=4' (kicks of any rank re-dualized by the
    realign-polar flow, enphased or locally rotated bases) the measured
    factor is 1.07 +- 0.01, and a unit-Frobenius-normalized random
    contraction of size q^2 = 16 (the Ginibre reference for the deflated
    channel) gives a mean spectral radius 1.058: the finite-size edge excess
    of the circular law.  The f_q = 1 law is the leading large-size
    asymptotics (absolute deviation ~ 0.07 sqrt(1-e_p) < 0.01, invisible on
    any plot of E|lambda_1| itself); a 0.05 factor tolerance is unreachable
    at q = 4 by any amount of statistics.
    """
    U2 = co.two_unitary_permutation(4)
    ratios = []
    for j, scale in enumerate(np.linspace(0.02, 0.12, 12)):
        U = co.perturbed_two_unitary(U2, scale, hm.substream(SEED, "c6-pert", j))
        ep = iv.entangling_power(U)
        if ep >= 1 - 1e-9 or ep < 0.99:
            continue
        est = hm.avg_spectral_radius(U, 1200, seed=SEED + 100 + j)
        ratios.append(est.mean / math.sqrt(1 - ep))
    f_near = float(np.mean(ratios))
    ok = abs(f_near - 1.0) <= 0.05
    _report("6b", ok, f"near e_p->1 (q=4, {len(ratios)} perturbed 2-unitaries): factor "
                       f"{f_near:.3f}, required |f-1| <= 0.05; honest red: the finite-size "
                       f"circular-law edge gives ~1.06 at q^2 = 16 (see docstring)")


def test_criterion_07_qubit_closed_forms():
    # (a) sampled maximum over the w family vs the closed form, 1e-6
    errs_w = []
    for J in (math.pi / 16, math.pi / 8, 0.5):
        best = min(
            np.abs(qe.restricted_w_spectrum(J, th)).max()
            for th in np.linspace(0.0, math.pi, 4001)
        )
        errs_w.append(abs(-math.log(best) - qe.nu_prime(J)))
    err_w = max(errs_w)

    # (b) Monte-Carlo mean rate over cos(theta)-uniform w locals at N = 1e5, 1e-3
    errs_mu = []
    for J in (math.pi / 16, math.pi / 8):
        rng = hm.substream(SEED, f"c7-mu-{J:.4f}")
        c = rng.uniform(-1.0, 1.0, size=100_000)
        s = math.sin(2 * J)
        cc = (1 + s) * c
        disc = np.sqrt((cc * cc - 4 * s).astype(complex))
        lam1 = np.maximum(np.abs((cc + disc) / 2), np.abs((cc - disc) / 2))
        lam1 = np.maximum(lam1, s)
        errs_mu.append(abs(float(np.mean(-np.log(lam1))) - qe.mu_prime(J)))
    err_mu = max(errs_mu)

    # (c) sampled maximum over all of SU(2) vs -1/3 ln(1 - e_p/e_max), 1e-3,
    #     and (d) the general-cubic minimum vs sin^(2/3)(2J), 1e-4
    err_nu, err_min = 0.0, 0.0
    for J in np.linspace(0.02, math.pi / 4, 20):
        rep = qe.min_lambda1_general(J)
        err_nu = max(err_nu, abs(-math.log(rep["min_radius"]) - qe.nu_plus_exact(J)))
        err_min = max(err_min, abs(rep["min_radius"] - rep["closed_form"]))

    ok = err_w <= 1e-6 and err_mu <= 1e-3 and err_nu <= 1e-3 and err_min <= 1e-4
    _report(7, ok, f"qubit closed forms: w-max err {err_w:.1e} (<=1e-6), "
                   f"mu MC err {err_mu:.1e} (<=1e-3), SU(2) nu err {err_nu:.1e} (<=1e-3), "
                   f"cubic min err {err_min:.1e} (<=1e-4)")


def test_criterion_08_diagonal_ensemble_statistics():
    n = 100_000
    rng = hm.substream(SEED, "c8-diag")
    vals = np.empty(n)
    for k in range(n):
        vals[k] = iv.entangling_power(co.diagonal_dual_sample(2, 1.0, rng))
    mean_err = abs(vals.mean() - 1 / 3)
    se = vals.std(ddof=1) / math.sqrt(n)

    edges = np.linspace(0.0, 2 / 3, 21)
    counts, _ = np.histogram(np.clip(vals, 0.0, 2 / 3), bins=edges)
    cdf = (2 / math.pi) * np.arcsin(np.sqrt(np.clip(edges / (2 / 3), 0, 1)))
    expected = np.diff(cdf) * n
    chi2 = scipy.stats.chisquare(counts, expected)

    worst_block = 0.0
    for k in range(10_000):
        U = co.random_uniform_block_gate(3, hm.substream(SEED, "c8-blk", k))
        worst_block = max(worst_block, iv.entangling_power(U))
    ok = mean_err <= 3 * se and chi2.pvalue > 0.01 and worst_block <= 0.75 + 1e-12
    _report(8, ok, f"diag ensemble q=2: mean e_p err {mean_err:.2e} (3se {3*se:.2e}), "
                   f"arcsin chi2 p {chi2.pvalue:.3f} (>0.01); block-uniform q=3 max e_p "
                   f"{worst_block:.12f} <= 3/4 + 1e-12")


def test_criterion_09_mr_map():
    converged = 0
    monotone = True
    for k in range(100):
        U0 = to.sample_haar(9, hm.substream(SEED, "c9-mr", k))
        U, tr = co.mr_iterate(U0, max_iter=1000, tol=1e-6)
        converged += tr.converged
        if np.any(np.diff(tr.s_half_history) < -1e-10):
            monotone = False
    K, L = co.PERM_DUAL_EXAMPLE_Q3
    U2, tr2 = co.mrt_iterate(co.permutation_gate(K, L), max_iter=2000, tol=1e-12)
    ep2 = iv.entangling_power(U2)
    ok = converged >= 95 and monotone and ep2 > 1 - 1e-6
    _report(9, ok, f"MR map: {converged}/100 CUE seeds reach E(S)-E(U) < 1e-6 within 1e3 iters "
                   f"(>=95); S_1/2 monotone: {monotone}; MRT from the documented permutation seed: "
                   f"e_p = {ep2:.9f} (within 1e-6 of 1)")


def test_criterion_10_permutation_enumeration():
    n_dual = n_two = 0
    bad_two = bad_l1 = bad_l2 = 0
    for rec in co.enumerate_dual_permutations(3):
        n_dual += 1
        if rec["two_unitary"]:
            n_two += 1
            if rec["lambda1_mod"] > 1e-12:
                bad_two += 1
        if rec["e_p"] > 7 / 8 + 1e-12 and rec["lambda1_mod"] >= 1 - 1e-9:
            bad_l1 += 1
        if rec["e_p"] > 3 / 4 + 1e-12 and rec["lambda2_mod"] >= 1 - 1e-9:
            bad_l2 += 1
    ok = (
        n_dual == DUAL_PERMUTATION_COUNT_Q3
        and n_two == TWO_UNITARY_PERMUTATION_COUNT_Q3
        and bad_two == bad_l1 == bad_l2 == 0
    )
    _report(10, ok, f"q=3 scan: {n_dual} dual permutations (regression {DUAL_PERMUTATION_COUNT_Q3}), "
                    f"{n_two} 2-unitary all with |l1|<=1e-12; e_p>7/8 => |l1|<1 and "
                    f"e_p>e*_2 => |l2|<1 (violations {bad_two}/{bad_l1}/{bad_l2})")


def test_criterion_11_circuit_cross_validation():
    worst_cone, worst_interior = 0.0, 0.0
    cases = [
        (2, 4, qe.cartan_gate(math.pi / 16)),
        (2, 4, co.diagonal_dual_sample(2, 1.0, hm.substream(SEED, "c11-d1"))),
        (2, 4, co.cat_map(2)),
        (3, 3, co.cat_map(3)),
        (3, 3, co.fixtures()["dual_q3_ep8over9"]),
    ]
    for q, L, U in cases:
        sim = cs.CircuitSimulator(cs.CircuitConfig(q=q, L=L, gate=U))
        pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        for t in range(1, L // 2 + 1):
            for (i, j) in pairs:
                pred_p = ch.lightcone_correlation_prediction(U, sim.basis[i], sim.basis[j], t, "plus")
                pred_m = ch.lightcone_correlation_prediction(U, sim.basis[i], sim.basis[j], t, "minus")
                worst_cone = max(
                    worst_cone,
                    abs(sim.c_plus(i, j, float(t), t) - pred_p),
                    abs(sim.c_minus(i, j, float(-t), t) - pred_m),
                )
                for n in range(sim.n_legs):
                    x = 0.5 * n
                    for y in (0.0, 0.5):
                        # strictly inside the cone: |x - y| < t on the ring
                        dist = min(abs(x - y), sim.L - abs(x - y))
                        if dist < t - 0.25:
                            val = abs(sim.correlation_single(i, j, x, y, t))
                            worst_interior = max(worst_interior, val)

    worst_two = 0.0
    sim3 = cs.CircuitSimulator(cs.CircuitConfig(q=3, L=3, gate=co.cat_map(3)))
    for (i, j, k, l) in [(1, 1, 1, 1), (1, 2, 3, 4), (2, 5, 7, 1)]:
        for n1 in range(6):
            for n2 in range(6):
                worst_two = max(
                    worst_two,
                    abs(sim3.correlation_two_site(i, j, k, l, 0.5 * n1, 0.5 * n2, 1)),
                )

    U_ctrl = to.sample_haar(4, hm.substream(SEED, "c11-ctrl"))
    simc = cs.CircuitSimulator(cs.CircuitConfig(q=2, L=4, gate=U_ctrl))
    ctrl = max(
        abs(simc.c_plus(i, j, x, 2))
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        for x in (0.0, 0.5, 1.0)
    )
    ok = worst_interior <= 1e-10 and worst_cone <= 1e-10 and worst_two <= 1e-9 and ctrl > 1e-3
    _report(11, ok, f"circuit vs channel on 5 dual gates: interior {worst_interior:.1e} (<=1e-10), "
                    f"cone residual {worst_cone:.1e} (<=1e-10); cat q=3 two-site "
                    f"{worst_two:.1e} (<=1e-9); non-dual control {ctrl:.2e} (>1e-3)")


def test_criterion_12_unistochastic_reduction_and_lu_inequivalence():
    worst = 0.0
    deltoid_frac = []
    for k in range(1000):
        u = to.sample_haar(3, hm.substream(SEED, "c12-u", k))
        rep = co.unistochastic_reduction(u)
        worst = max(worst, rep["spectrum_residual"])
        deltoid_frac.append(rep["deltoid_fraction"])

    fx = co.fixtures()
    # 10^6 samples (10x the stated floor): the D2S-vs-reference distance is
    # 0.0096, so at N = 1e5 (stderr 3.5e-4) the verdict rides on seed luck;
    # the tolerance itself is untouched
    n = 1_000_000
    a = hm.avg_spectral_radius(fx["dual_q3_d3s"], n, seed=SEED)
    b = hm.avg_spectral_radius(fx["dual_q3_d2s"], n, seed=SEED + 1)
    distinct = abs(a.mean - b.mean) > 3 * (a.stderr + b.stderr)
    near_ref = abs(a.mean - 0.48655) <= 0.01 and abs(b.mean - 0.55045) <= 0.01
    ok = worst <= 1e-10 and distinct and near_ref
    _report(12, ok, f"unistochastic spectrum match over 1e3 locals: {worst:.1e} (<=1e-10, "
                    f"deltoid fraction {np.mean(deltoid_frac):.4f} reported); "
                    f"E|l1|(D3S) = {a.mean:.5f} (ref 0.48655), E|l1|(D2S) = {b.mean:.5f} "
                    f"(ref 0.55045), distinct: {distinct}")


def test_criterion_13_determinism(tmp_path):
    gate = tmp_path / "g.json"
    assert cli_main(["gate", "make", "diag", "-q", "3", "--seed", "11", "-o", str(gate)]) == 0
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli_main(["sweep", "haar", str(gate), "-N", "300", "--seed", "13", "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    gates_again = tmp_path / "g2.json"
    assert cli_main(["gate", "make", "diag", "-q", "3", "--seed", "11", "-o", str(gates_again)]) == 0
    same_gate = gate.read_bytes() == gates_again.read_bytes()
    man = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    ok = outs[0] == outs[1] and same_gate and man["seed"] == 13
    _report(13, ok, "manifest reruns byte-identical (sweep CSV and gate JSON), seed recorded")
