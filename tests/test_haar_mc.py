import concurrent.futures
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from dualunitary import haar_mc as hm
from dualunitary import tensor_ops as to
from dualunitary.channels import build_m_plus, deflate_trivial, factored_channel, hermitian_basis
from dualunitary.cli import _sweep_row, main as cli_main
from dualunitary.constructions import (cat_map, cat_psi_vectors, diagonal_dual_sample, fixtures,
                                       two_unitary_permutation)
from dualunitary.invariants import entangling_power
from dualunitary.qubit_exact import cartan_gate
from dualunitary.tolerances import ZERO_TOL, channel_rank_tol


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


def test_haar_sample_at_eigenphase_spacing_matches_cue():
    # the same 2x2 CUE gap law for the counter-indexed stream; the parity of
    # the index randomises the labeling
    spacings = []
    for i in range(1000):
        ang = np.angle(np.linalg.eigvals(hm.haar_sample_at(2, 2, "spacing", i)))
        if i % 2:
            ang = ang[::-1]
        spacings.append((ang[0] - ang[1]) % (2 * math.pi))
    stat = scipy.stats.kstest(spacings, lambda s: (s - np.sin(s)) / (2 * math.pi))
    assert stat.pvalue > 0.01


@pytest.mark.parametrize("q", [3, 4])
def test_trace_moments_of_the_block_stream(q):
    # Haar: E|tr u|^2 = 1 and E|tr u|^4 = 2 for q >= 2
    n = 20_000
    t = np.abs(np.trace(hm._haar_block(q, 3, "trace-moments", 0, n), axis1=1, axis2=2)) ** 2
    for k, exact in ((1, 1.0), (2, 2.0)):
        vals = t**k
        assert abs(vals.mean() - exact) <= 4 * vals.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("lo, hi", [(0, 1), (5, 70), (63, 65), (130, 131), (100, 3 * 64 + 9)])
def test_block_stream_reads_the_plain_philox_stream_from_counter_zero(q, lo, hi):
    # index i owns words [i W, (i + 1) W) of one Philox keyed by (seed, label)
    W = 4 * math.ceil(2 * q * q / 4)
    words = np.random.Philox(key=hm._stream_key(26, "plain")).random_raw(hi * W)
    expect = hm._haar_from_words(q, words.reshape(hi, W)[lo:hi])
    assert np.array_equal(hm._haar_block(q, 26, "plain", lo, hi), expect)


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


@pytest.mark.parametrize("cpus, workers, n, pool, jobs", [
    (2, 100_000, 48, 2, 48),   # one index per chunk, one process per CPU
    (64, 100_000, 5, 5, 5),    # never more processes than chunks
    (2, 3, 48, 2, 3),          # the split stays three ways
])
def test_worker_pool_is_capped_by_chunks_and_cpus(monkeypatch, cpus, workers, n, pool, jobs):
    # a stand-in pool that records its size and maps in this process
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            args = list(args)
            seen.append(len(args))
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(hm, "_usable_cpus", lambda: cpus, raising=False)
    a = hm.spectral_radius_samples(cartan_gate(0.2), n, seed=7)
    b = hm.spectral_radius_samples(cartan_gate(0.2), n, seed=7, workers=workers)
    assert seen == [pool, jobs]
    assert np.array_equal(a, b)


def test_unset_workers_run_serially_whatever_the_environment(monkeypatch):
    monkeypatch.setenv("DUALUNITARY_WORKERS", "4")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # any pool would fail
    assert hm.spectral_radius_samples(cartan_gate(0.2), 8, seed=7).shape == (8,)


def test_avg_spectral_radius_two_unitary_is_zero():
    est = hm.avg_spectral_radius(cat_map(3), 40, seed=1)
    assert est.mean == 0.0


def test_cat2_haar_averaged_radius_squared():
    est = hm.avg_spectral_radius(cat_map(2), 4000, seed=2)
    # |lambda_1|^2 averages to 1/(q^2-1) = 1/3
    assert abs(est.extras["mean_sq"] - 1 / 3) < 3 * est.extras["stderr_sq"]


def test_single_u_and_four_local_averages_agree():
    # the paper's average: the radius of U' = (u1 x u2) U (v1 x v2) with all
    # four locals drawn per index, against the engine's one local per sample
    U = diagonal_dual_sample(3, 1.0, hm.substream(3, "gate"))
    a = hm.avg_spectral_radius(U, 1500, seed=4)
    b = np.empty(1500)
    for i in range(1500):
        rng = hm.substream(5, "four-locals", i)
        V = to.sandwich_locals(U, *(hm.sample_haar(3, rng) for _ in range(4)))
        b[i] = np.abs(np.linalg.eigvals(deflate_trivial(build_m_plus(V)))).max()
    b_stderr = b.std(ddof=1) / math.sqrt(b.size)
    assert abs(a.mean - b.mean()) < 3 * (a.stderr + b_stderr)


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

# two full blocks and a partial one
N_BLOCKS = 2 * hm.BLOCK + 7


def _engine_gates():
    fx = fixtures()
    return {
        2: diagonal_dual_sample(2, 1.0, hm.substream(18, "gate")),
        3: fx["dual_q3_d3s"],
        4: fx["dual_q4_d4s"],
    }


def _factored(U):
    """Mt = X Yh from the real SVD of Mt in the Hermitian basis T, truncated
    at the rank rule, computed here independently."""
    q = to.local_dim(U)
    T = hermitian_basis(q)
    W, s, Vh = np.linalg.svd((T.conj().T @ deflate_trivial(build_m_plus(U)) @ T).real)
    m = int((s > channel_rank_tol(q)).sum())
    return T @ (W[:, :m] * s[:m]), Vh[:m] @ T.conj().T


def _locals_at(q, seed, label, i, four_locals):
    """(L, R) with L Mt R the rotated channel of index i (R = identity: None)."""
    if four_locals:
        rng = hm.substream(seed, label, i)
        u1 = hm.sample_haar(q, rng)
        v2 = hm.sample_haar(q, rng)
        return np.kron(v2.conj().T, v2.T), np.kron(u1.conj().T, u1.T)
    u = hm.haar_sample_at(q, seed, label, i)
    return np.kron(u, u.conj()), None


def _compressed_radius(X, Yh, L):
    return np.abs(np.linalg.eigvals((Yh @ L @ X).real)).max()


def _reference_radii(U, n, seed, label="spectral-radius"):
    """The per-index recipe: eig of the real m x m compression Yh (u x u*) X."""
    q = to.local_dim(U)
    X, Yh = _factored(U)
    return np.array([_compressed_radius(X, Yh, _locals_at(q, seed, label, i, False)[0])
                     for i in range(n)])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_block_radii_equal_per_index_reference(q):
    U = _engine_gates()[q]
    ref = _reference_radii(U, N_BLOCKS, 19)
    serial = hm.spectral_radius_samples(U, N_BLOCKS, 19)
    split = hm.spectral_radius_samples(U, N_BLOCKS, 19, workers=3)
    assert np.array_equal(serial, ref)
    assert np.array_equal(split, ref)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_block_max_mixing_rate_equals_per_index_reference(q):
    U = _engine_gates()[q]
    X, Yh = _factored(U)
    best_r, best_u = np.inf, None
    for i in range(N_BLOCKS):
        L, _ = _locals_at(q, 20, "max-rate", i, False)
        r = _compressed_radius(X, Yh, L)
        if r < best_r:
            best_r, best_u = r, hm.haar_sample_at(q, 20, "max-rate", i)
    rep = hm.max_mixing_rate(U, N_BLOCKS, 20)
    assert rep["min_radius"] == best_r
    assert np.array_equal(rep["local"], best_u)


# ---------------------------------------------------------------------------
# the compressed radius against the full q^2 x q^2 eigensolve it replaces

def _rank_gates():
    """(gate, rank of its deflated channel): zero (2-unitary), one (even-q
    cat), partial (block duals) and full, q^2 - 1 (generic dual gates)."""
    fx = fixtures()
    return {
        "cat_q2": (cat_map(2), 1),
        "diag_q2": (_engine_gates()[2], 3),
        "cat_q3": (cat_map(3), 0),
        "d3s": (fx["dual_q3_d3s"], 2),
        "d2s": (fx["dual_q3_d2s"], 8),
        "cat_q4": (cat_map(4), 1),
        "two_unitary_q4": (two_unitary_permutation(4), 0),
        "d4s": (fx["dual_q4_d4s"], 3),
        "diag_q4": (diagonal_dual_sample(4, 1.0, hm.substream(26, "gate")), 15),
    }


@pytest.mark.parametrize("four_locals", [False, True])
@pytest.mark.parametrize("gate", list(_rank_gates()))
def test_compressed_radii_match_the_full_eigensolve(gate, four_locals):
    U, rank = _rank_gates()[gate]
    q = to.local_dim(U)
    X, Yh = factored_channel(build_m_plus(U))
    assert Yh.shape == (rank, q * q) and X.shape == (q * q, rank)
    Mt = deflate_trivial(build_m_plus(U))
    full = np.empty(N_BLOCKS)
    for i in range(N_BLOCKS):
        L, R = _locals_at(q, 27, "spectral-radius", i, four_locals)
        A = L @ Mt if R is None else L @ Mt @ R
        full[i] = np.abs(np.linalg.eigvals(A)).max()
    r = hm.spectral_radius_samples(U, N_BLOCKS, 27)
    if four_locals and rank:
        # R L = w x w* with w = u1^dag v2^dag: one local carries the
        # four-local spectrum through the engine's compression
        K = np.stack([R @ L for L, R in (_locals_at(q, 27, "spectral-radius", i, True)
                                         for i in range(N_BLOCKS))])
        r = hm._radii(X, Yh, K)
    assert np.abs(r - full).max() <= 1e-13
    if rank == 0:
        assert not r.any()


@pytest.mark.parametrize("q", [2, 4])
def test_even_cat_radius_is_the_closed_form(q):
    # Mt = |Psi><Psibar|, so (u x u*) Mt has one nonzero eigenvalue
    # <Psibar|(u x u*)|Psi>
    psi, psibar = cat_psi_vectors(q)
    closed = [abs(np.vdot(psibar, np.kron(u, u.conj()) @ psi))
              for u in (hm.haar_sample_at(q, 28, "spectral-radius", i) for i in range(N_BLOCKS))]
    r = hm.spectral_radius_samples(cat_map(q), N_BLOCKS, 28)
    assert np.abs(r - closed).max() <= 1e-15


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


# The e_p, mean_lambda1 and stderr fields of `dualu sweep haar d3s.json
# d4s.json -N 300 --seed 13`, the gate files from `dualu gate make fixture
# --name dual_q3_d3s` and `--name dual_q4_d4s`; the whole output's bytes are a
# corpus entry (tests/parity_corpus.json).  The values are those of stream
# scheme 2 (the counter-indexed draw).  mu_plus and nu_plus are read off the
# same samples as mean_lambda1 (checked against a per-index loop below)
SWEEP_GOLDEN_RADIUS_FIELDS = [
    ["0.7500000000000001", "0.4965751676090546", "0.01163798827317086"],
    ["0.8", "0.4832524380147142", "0.009282952031071282"],
]


def _golden_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    gates = [str(tmp_path / f"{name}.json") for name in ("dual_q3_d3s", "dual_q4_d4s")]
    for name, path in zip(("dual_q3_d3s", "dual_q4_d4s"), gates):
        assert cli_main(["gate", "make", "fixture", "--name", name, "-o", path]) == 0
    assert cli_main(["sweep", "haar", *gates, "-N", "300", "--seed", "13", "-o", str(out)]) == 0
    return out.read_bytes()


def _csv_rows(text):
    lines = text.splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def test_golden_sweep_keeps_the_radius_bytes_and_rates_follow_one_sample_set(tmp_path):
    rows = _csv_rows(_golden_sweep(tmp_path).decode())
    fx = fixtures()
    for row, radius_fields, name in zip(rows, SWEEP_GOLDEN_RADIUS_FIELDS,
                                        ("dual_q3_d3s", "dual_q4_d4s")):
        assert [row["e_p"], row["mean_lambda1"], row["stderr"]] == radius_fields
        ref = _reference_radii(fx[name], 300, 13)
        assert row["mean_lambda1"] == repr(float(ref.mean()))
        assert row["mu_plus"] == repr(float(np.mean(-np.log(ref))))
        assert row["nu_plus"] == repr(float(-np.log(ref.min())))


def _expected_row(U, r, n, seed):
    """The sweep row written out from one radius vector with plain numpy."""
    zeros = int((r < ZERO_TOL).sum())
    return (entangling_power(U), float(r.mean()), float(r.std(ddof=1) / math.sqrt(n)),
            math.inf if zeros else float(np.mean(-np.log(r))),
            math.inf if zeros else float(-np.log(r.min())), zeros, n, seed)


@pytest.mark.parametrize("gate", ["q2", "q3", "q4", "cat_q3", "cartan"])
def test_sweep_row_is_reductions_of_one_radius_vector(gate):
    U = {**{f"q{q}": V for q, V in _engine_gates().items()},
         "cat_q3": cat_map(3), "cartan": cartan_gate(0.3)}[gate]
    r = hm.spectral_radius_samples(U, N_BLOCKS, 24)
    row = _sweep_row(U, N_BLOCKS, 24, 1)
    assert row == _expected_row(U, r, N_BLOCKS, 24)
    est = hm.radius_estimate(r, 24, entangling_power(U))
    assert row[1:5] == (est.mean, est.stderr, hm.mixing_rate_estimate(r, 24).mean,
                        hm.max_rate(r))
    assert row[4] >= row[3]


RATE_COLUMNS = ("mu_plus", "nu_plus", "nu_prime", "mu_prime", "nu_exact")


def test_sweep_rows_have_nu_at_least_mu_and_cartan_below_exact(tmp_path):
    gate = tmp_path / "g.json"
    assert cli_main(["gate", "make", "diag", "-q", "3", "--seed", "2", "-o", str(gate)]) == 0
    runs = {
        "haar": ["sweep", "haar", str(gate), "-N", "200", "--seed", "3"],
        "cartan": ["sweep", "family", "cartan", "--points", "6", "-N", "200", "--seed", "4"],
        "diag": ["sweep", "family", "diag", "-q", "3", "--points", "3", "-N", "200",
                 "--seed", "5"],
    }
    for kind, argv in runs.items():
        out = tmp_path / f"{kind}.csv"
        assert cli_main([*argv, "-o", str(out)]) == 0
        rows = _csv_rows(out.read_text())
        assert rows
        for row in rows:
            assert float(row["nu_plus"]) >= float(row["mu_plus"])
            # a rate is never negative, nor -0.0 (a radius rounded above 1)
            rates = [row[c] for c in RATE_COLUMNS if c in row]
            assert not [r for r in rates if r.startswith("-")], row
            if kind == "cartan":
                assert float(row["nu_plus"]) <= float(row["nu_exact"]) + 1e-12


@settings(derandomize=True, max_examples=10, deadline=None)
@given(workers=st.sampled_from([1, 2, 3]), block=st.integers(1, 9),
       n=st.integers(2, 40), q=st.sampled_from([2, 3]))
def test_samples_and_sweep_row_do_not_depend_on_workers_or_block(workers, block, n, q):
    U = _engine_gates()[q]
    r = hm.spectral_radius_samples(U, n, 25)
    row = _sweep_row(U, n, 25, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hm, "BLOCK", block)
        assert np.array_equal(hm.spectral_radius_samples(U, n, 25, workers=workers), r)
        assert np.array_equal(_sweep_row(U, n, 25, workers), row)
