import math
import pathlib

import numpy as np
import pytest
import scipy.stats

from dualunitary import haar_mc as hm
from dualunitary import tensor_ops as to
from dualunitary.channels import build_m_plus, deflate_trivial, eigvals_schur
from dualunitary.cli import main as cli_main
from dualunitary.constructions import cat_map, diagonal_dual_sample, fixtures
from dualunitary.invariants import entangling_power
from dualunitary.qubit_exact import cartan_gate


def test_samples_are_unitary():
    for i in range(50):
        u = hm.haar_sample_at(3, 0, "unit", i)
        assert to.unitarity_defect(u) < 1e-12


def test_first_moment_of_entries():
    n = 20_000
    vals = np.array([abs(hm.haar_sample_at(2, 1, "mom", i)[0, 0]) ** 2 for i in range(n)])
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - 0.5) < 3 * se


def test_eigenphase_spacing_matches_cue():
    # 2x2 CUE: the circular gap (randomized labeling) has density
    # sin^2(s/2)/pi on (0, 2 pi), CDF (s - sin s)/(2 pi)
    n = 1000
    spacings = []
    for i in range(n):
        rng = hm.substream(2, "spacing", i)
        u = hm.sample_haar(2, rng)
        ang = np.angle(np.linalg.eigvals(u))
        if rng.integers(2):
            ang = ang[::-1]
        spacings.append((ang[0] - ang[1]) % (2 * math.pi))
    cdf = lambda s: (s - np.sin(s)) / (2 * math.pi)
    stat = scipy.stats.kstest(spacings, cdf)
    assert stat.pvalue > 0.01


def test_determinism_and_substream_independence():
    a = hm.spectral_radius_samples(cartan_gate(0.2), 64, seed=5)
    b = hm.spectral_radius_samples(cartan_gate(0.2), 64, seed=5)
    assert np.array_equal(a, b)
    c = hm.spectral_radius_samples(cartan_gate(0.2), 64, seed=6)
    assert not np.array_equal(a, c)


def test_worker_split_reproduces_serial():
    a = hm.spectral_radius_samples(cartan_gate(0.2), 48, seed=7)
    b = hm.spectral_radius_samples(cartan_gate(0.2), 48, seed=7, workers=3)
    assert np.array_equal(a, b)


def test_avg_spectral_radius_two_unitary_is_zero():
    est = hm.avg_spectral_radius(cat_map(3), 40, seed=1)
    assert est.mean < 1e-7


def test_cat2_haar_averaged_radius_squared():
    est = hm.avg_spectral_radius(cat_map(2), 4000, seed=2)
    # |lambda_1|^2 averages to 1/(q^2-1) = 1/3
    assert abs(est.extras["mean_sq"] - 1 / 3) < 3 * est.extras["stderr_sq"]


def test_single_u_and_four_local_averages_agree():
    U = diagonal_dual_sample(3, 1.0, hm.substream(3, "gate"))
    a = hm.avg_spectral_radius(U, 1500, seed=4)
    b = hm.avg_spectral_radius(U, 1500, seed=5, four_locals=True)
    assert abs(a.mean - b.mean) < 3 * (a.stderr + b.stderr)


def test_avg_mixing_rate_dcnot_limit():
    est = hm.avg_mixing_rate(cartan_gate(0.0), 3000, seed=6)
    assert abs(est.mean - 1.0) < 3 * est.stderr
    est2 = hm.avg_mixing_rate(cat_map(3), 50, seed=7)
    assert est2.extras["infinite_count"] == 50
    assert est2.mean == math.inf


def test_max_mixing_rate_reports_and_two_unitary():
    rep = hm.max_mixing_rate(cat_map(3), 20, seed=8)
    assert rep["nu"] == math.inf
    rep2 = hm.max_mixing_rate(cartan_gate(0.3), 200, seed=9, refine_steps=50)
    assert rep2["nu"] >= 0 and rep2["min_radius"] <= 1.0
    assert "hill climb" in rep2["method"]


def test_avg_norm_power_second_is_exact():
    U = diagonal_dual_sample(3, 1.0, hm.substream(10, "gate"))
    est = hm.avg_norm_power(U, 2, 3000, seed=11)
    assert abs(est.mean - est.extras["exact_k2"]) < 3 * est.stderr
    est4 = hm.avg_norm_power(cat_map(2), 4, 500, seed=12)
    assert est4.extras["approx_k"] == pytest.approx(3 * (1 / 3) ** 4)
    with pytest.raises(ValueError):
        hm.avg_norm_power(U, 1, 10, seed=0)


def test_monomial_identity_identity_inputs():
    q = 3
    rep = hm.haar_monomial_oracle(np.eye(q * q), np.eye(q * q), 200, seed=13)
    assert abs(rep["mc_mean"] - q * q) < 1e-10
    assert abs(rep["closed_form"] - q * q) < 1e-10


def test_monomial_identity_random_inputs():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rep = hm.haar_monomial_oracle(X, Y, 30_000, seed=15)
    assert rep["z_score"] < 3.0


def test_monomial_identity_deflated_channel_inputs():
    # X = Mt^dag Mt, Y = Mt Mt^dag: the realigned traces vanish and the
    # closed form collapses to ||A||^2 ||B||^2 / (q^2 - 1)
    U = diagonal_dual_sample(2, 1.0, hm.substream(16, "gate"))
    Mt = deflate_trivial(build_m_plus(U))
    X = Mt.conj().T @ Mt
    Y = Mt @ Mt.conj().T
    closed = hm.haar_monomial_closed_form(X, Y)
    expect = np.vdot(Mt, Mt).real ** 2 / 3
    assert abs(closed - expect) < 1e-12
    assert abs(np.trace(to.realign_r2(X))) < 1e-12


def test_averaged_radius_inequality():
    U = fixtures()["dual_q3_ep8over9"]
    est = hm.avg_spectral_radius(U, 2000, seed=17)
    bound = (9 - 1) ** 0.25 * math.sqrt(1 - entangling_power(U))
    assert est.mean <= bound + 3 * est.stderr


# ---------------------------------------------------------------------------
# the block engine against the per-index recipe it replaces, bit for bit

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# two full blocks and a partial one
N_BLOCKS = 2 * hm.BLOCK + 7


def _engine_gates():
    fx = fixtures()
    return {
        2: diagonal_dual_sample(2, 1.0, hm.substream(18, "gate")),
        3: fx["dual_q3_d3s"],
        4: fx["dual_q4_d4s"],
    }


def _reference_radii(U, n, seed, four_locals, label="spectral-radius"):
    q = to.local_dim(U)
    Mt = deflate_trivial(build_m_plus(U))
    out = np.empty(n)
    for i in range(n):
        if four_locals:
            rng = hm.substream(seed, label, i)
            u1 = hm.sample_haar(q, rng)
            v2 = hm.sample_haar(q, rng)
            A = np.kron(v2.conj().T, v2.T) @ Mt @ np.kron(u1.conj().T, u1.T)
        else:
            u = hm.haar_sample_at(q, seed, label, i)
            A = np.kron(u, u.conj()) @ Mt
        out[i] = np.abs(np.linalg.eigvals(A)).max()
    return out


@pytest.mark.parametrize("four_locals", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_block_radii_equal_per_index_reference(q, four_locals):
    U = _engine_gates()[q]
    ref = _reference_radii(U, N_BLOCKS, 19, four_locals)
    serial = hm.spectral_radius_samples(U, N_BLOCKS, 19, four_locals=four_locals)
    split = hm.spectral_radius_samples(U, N_BLOCKS, 19, four_locals=four_locals, workers=3)
    assert np.array_equal(serial, ref)
    assert np.array_equal(split, ref)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_block_max_mixing_rate_equals_per_index_reference(q):
    U = _engine_gates()[q]
    Mt = deflate_trivial(build_m_plus(U))
    best_r, best_u = np.inf, None
    for i in range(N_BLOCKS):
        u = hm.haar_sample_at(q, 20, "max-rate", i)
        r = np.abs(eigvals_schur(np.kron(u, u.conj()) @ Mt)).max()
        if r < best_r:
            best_r, best_u = r, u
    rep = hm.max_mixing_rate(U, N_BLOCKS, 20)
    assert rep["min_radius"] == best_r
    assert np.array_equal(rep["local"], best_u)


@pytest.mark.parametrize("q", [2, 3])
def test_block_norm_power_and_monomial_equal_per_index_reference(q):
    U = _engine_gates()[q]
    Mt = deflate_trivial(build_m_plus(U))
    n = hm.BLOCK + 5
    vals = []
    for i in range(n):
        u = hm.haar_sample_at(q, 21, "norm-power-3", i)
        B = np.linalg.matrix_power(np.kron(u, u.conj()) @ Mt, 3)
        vals.append(np.vdot(B, B).real)
    est = hm.avg_norm_power(U, 3, n, 21)
    assert est.mean == np.mean(vals)
    assert est.stderr == np.std(vals, ddof=1) / math.sqrt(n)

    rng = np.random.default_rng(22)
    X, Y = (rng.standard_normal((q * q, q * q)) + 1j * rng.standard_normal((q * q, q * q))
            for _ in range(2))
    vals = []
    for i in range(n):
        u = hm.haar_sample_at(q, 23, "monomial", i)
        W = np.kron(u, u.conj())
        vals.append(np.trace(X @ W @ Y @ W.conj().T))
    rep = hm.haar_monomial_oracle(X, Y, n, 23)
    assert rep["mc_mean"] == np.mean(vals)


# `dualu sweep haar fixtures/dual_q3_d3s.json fixtures/dual_q4_d4s.json -N 300
# --seed 13` as written by the per-sample engine
SWEEP_GOLDEN = """\
e_p,mean_lambda1,stderr,mu_plus,nu_plus,N,seed
0.7500000000000001,0.4710783907922758,0.010615414703545828,0.8076877258156239,3.162725987491758,300,13
0.8,0.46489247544084633,0.008077055116271114,0.8486239936838365,2.6710841205909857,300,13
"""


def test_sweep_haar_csv_matches_golden_bytes(tmp_path):
    out = tmp_path / "sweep.csv"
    gates = [str(FIXTURE_DIR / f"{name}.json") for name in ("dual_q3_d3s", "dual_q4_d4s")]
    assert cli_main(["sweep", "haar", *gates, "-N", "300", "--seed", "13", "-o", str(out)]) == 0
    assert out.read_bytes() == SWEEP_GOLDEN.encode()
