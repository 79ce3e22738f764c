import math
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from dualunitary import haar_mc as hm
from dualunitary import tensor_ops as to
from dualunitary.channels import build_m_plus, deflate_trivial, factored_channel
from dualunitary.cli import _sweep_row, main as cli_main
from dualunitary.constructions import (cat_map, cat_psi_vectors, diagonal_dual_sample, fixtures,
                                       two_unitary_permutation)
from dualunitary.invariants import entangling_power
from dualunitary.qubit_exact import cartan_gate
from dualunitary.tolerances import ZERO_TOL
from haar_recipe import kron_at, reference_max_rate, reference_norm_powers, reference_radii


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
        u = to.sample_haar(2, rng)
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
    n = 2 * hm.BLOCK + 7
    a = hm.spectral_radius_samples(cartan_gate(0.2), n, seed=7, workers=1)
    b = hm.spectral_radius_samples(cartan_gate(0.2), n, seed=7, workers=3)
    assert np.array_equal(a, b)


class RecordingThread(threading.Thread):
    """A real thread that records every start."""
    started = []

    def start(self):
        RecordingThread.started.append(self)
        super().start()


@pytest.fixture
def helpers(monkeypatch):
    monkeypatch.setattr(RecordingThread, "started", [])
    monkeypatch.setattr(threading, "Thread", RecordingThread)
    return RecordingThread.started


def _no_thread(*args, **kwargs):
    raise AssertionError("a thread was started")


# the calling thread takes the first block, so one thread fewer is started
@pytest.mark.parametrize("cpus, workers, blocks, threads", [
    (2, 100_000, 5, 2),        # never more threads than usable CPUs
    (64, 100_000, 3, 3),       # never more threads than blocks
    (64, 3, 5, 3),             # at most `workers`
    (64, 1, 5, 1),             # one worker: the calling thread, no helper
])
def test_worker_pool_is_capped_by_blocks_and_cpus(monkeypatch, helpers, cpus, workers, blocks,
                                                  threads):
    monkeypatch.setattr(hm, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(hm, "BLOCK", 4)
    n = 4 * blocks - 1  # the last block is partial
    b = hm.spectral_radius_samples(cartan_gate(0.2), n, seed=7, workers=workers)
    assert len(helpers) == threads - 1
    assert not any(t.is_alive() for t in helpers)  # every helper was joined
    assert np.array_equal(b, reference_radii(cartan_gate(0.2), n, 7))


def test_usable_cpus_fall_back_to_the_cpu_count_without_an_affinity_api(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert hm._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable: one
    assert hm._usable_cpus() == 1


def test_unset_workers_use_the_usable_cpus_and_one_block_starts_no_thread(monkeypatch, helpers):
    monkeypatch.setattr(hm, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("DUALUNITARY_WORKERS", "1")  # the library does not read it
    U = cartan_gate(0.2)
    r = hm.spectral_radius_samples(U, 3 * hm.BLOCK, seed=7)
    assert len(helpers) == 2  # and the calling thread
    monkeypatch.setattr(threading, "Thread", _no_thread)
    assert np.array_equal(hm.spectral_radius_samples(U, hm.BLOCK, seed=7), r[: hm.BLOCK])


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_a_kernel_error_on_any_thread_reaches_the_caller(monkeypatch, where):
    monkeypatch.setattr(hm, "_usable_cpus", lambda: 3)
    caller = threading.get_ident()
    done = []

    def kernel(K):
        if (threading.get_ident() == caller) == (where == "caller"):
            raise ZeroDivisionError(f"block on the {where}")
        done.append(len(K))
        return np.zeros(len(K))

    before = threading.active_count()
    with pytest.raises(ZeroDivisionError, match=f"block on the {where}$"):
        hm._map_blocks(kernel, 2, 1, "error", 3 * hm.BLOCK, workers=3)
    assert threading.active_count() == before  # no helper outlives the call
    assert done == [hm.BLOCK] * (2 if where == "caller" else 1)


def test_concurrent_callers_get_the_bytes_of_sequential_calls(monkeypatch):
    monkeypatch.setattr(hm, "_usable_cpus", lambda: 2)
    gates = [fixtures()["dual_q3_d3s"], _engine_gates()[2]]
    n = 3 * hm.BLOCK + 5
    expect = [hm.spectral_radius_samples(U, n, 31, workers=2) for U in gates]
    start, got = threading.Barrier(len(gates)), [None] * len(gates)

    def call(i):
        start.wait()
        got[i] = hm.spectral_radius_samples(gates[i], n, 31, workers=2)

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(gates))]
    for t in callers:
        t.start()
    for t in callers:
        t.join()
    for r, e in zip(got, expect):
        assert r is not None and r.tobytes() == e.tobytes()


# OpenBLAS kernels (OPENBLAS_CORETYPE) and the CPU flag each one needs
KERNELS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}
# radii that differ from the prefix of the N = 1537 one-thread run or from the
# per-index recipe, max_mixing_rate minima and locals that differ from it, and
# norm-power means and stderrs that differ from the recipe's on three threads
MOVED_SAMPLES = """
import math
import numpy as np
from dualunitary import haar_mc as hm
from dualunitary.constructions import fixtures
from haar_recipe import reference_max_rate, reference_norm_powers, reference_radii

hm._usable_cpus = lambda: 3  # three threads on a smaller machine too
moved = 0
for name in ("dual_q3_ep8over9", "dual_q3_d2s", "dual_q4_ep4over5"):
    U = fixtures()[name]
    full = hm.spectral_radius_samples(U, 1537, 29, workers=1)
    moved += int((full[:600] != reference_radii(U, 600, 29)).sum())
    for n in (17, 300, 600, 1000, 1537):
        for workers in (1, 2, 3):
            r = hm.spectral_radius_samples(U, n, 29, workers=workers)
            moved += int((r != full[:n]).sum())
    rep = hm.max_mixing_rate(U, 600, 30)
    best_r, best_u = reference_max_rate(U, 600, 30)
    moved += int(rep["min_radius"] != best_r) + int(not np.array_equal(rep["local"], best_u))
    for k in (2, 3, 4):
        est, ref = hm.avg_norm_power(U, k, 600, 31), reference_norm_powers(U, k, 600, 31)
        moved += int(est.mean != ref.mean()) + int(est.stderr != ref.std(ddof=1) / math.sqrt(600))
print(hm.openblas_kernel(), moved)
"""


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_sample_depends_on_its_index_alone_on_every_blas_kernel(kernel):
    # the engine makes the recipe's BLAS and LAPACK calls one index at a time,
    # so no kernel moves a radius or a norm power with N, the threads or the
    # block, nor off the recipe; at the row-stacked X product Haswell,
    # Sandybridge and Prescott did
    cpuinfo = pathlib.Path("/proc/cpuinfo")
    flags = set(cpuinfo.read_text().split()) if cpuinfo.is_file() else set()
    if KERNELS[kernel] not in flags:
        pytest.skip(f"the CPU lacks {KERNELS[kernel]}, which the {kernel} kernel needs")
    here = pathlib.Path(__file__).resolve().parent
    src = str(pathlib.Path(hm.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=os.pathsep.join(
        p for p in (src, str(here), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", MOVED_SAMPLES], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    running, moved = proc.stdout.split()
    assert moved == "0", (f"{moved} values moved with N or the threads, or off the recipe, "
                          f"under OPENBLAS_CORETYPE={kernel} (OpenBLAS reports {running})")


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
        V = to.sandwich_locals(U, *(to.sample_haar(3, rng) for _ in range(4)))
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


@pytest.mark.parametrize("U", [cat_map(2), cat_map(3)], ids=["rank_one", "two_unitary"])
def test_estimators_refuse_empty_sample_sets_and_no_workers(U):
    calls = {
        "spectral_radius_samples": lambda n, w: hm.spectral_radius_samples(U, n, 1, workers=w),
        "avg_spectral_radius": lambda n, w: hm.avg_spectral_radius(U, n, 1, workers=w),
        "avg_mixing_rate": lambda n, w: hm.avg_mixing_rate(U, n, 1),
        "max_mixing_rate": lambda n, w: hm.max_mixing_rate(U, n, 1),
        "avg_norm_power": lambda n, w: hm.avg_norm_power(U, 2, n, 1),
    }
    for call in calls.values():
        for n in (0, -3):
            with pytest.raises(to.ValidationError, match=f"^N must be an integer >= 1, got {n}$"):
                call(n, None)
    for name in ("spectral_radius_samples", "avg_spectral_radius"):
        for w in (0, -1):
            with pytest.raises(to.ValidationError,
                               match=f"^workers must be an integer >= 1, got {w}$"):
                calls[name](5, w)


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


def _locals_at(q, seed, label, i, four_locals):
    """(L, R) with L Mt R the rotated channel of index i (R = identity: None)."""
    if four_locals:
        rng = hm.substream(seed, label, i)
        u1 = to.sample_haar(q, rng)
        v2 = to.sample_haar(q, rng)
        return np.kron(v2.conj().T, v2.T), np.kron(u1.conj().T, u1.T)
    return kron_at(q, seed, label, i), None


def _compression_gates():
    """The engine gates and gates that send the compression down every path
    numpy has: a one-column X (m = 1) and m from 5 to 24."""
    fx = fixtures()
    return {**_engine_gates(),
            "cat_q2": cat_map(2), "cat_q4": cat_map(4),
            "ep8over9": fx["dual_q3_ep8over9"], "d2s": fx["dual_q3_d2s"],
            "ep4over5": fx["dual_q4_ep4over5"],
            "diag_q5": diagonal_dual_sample(5, 1.0, hm.substream(18, "gate"))}


@pytest.mark.parametrize("gate", list(_compression_gates()))
def test_block_radii_equal_per_index_reference(gate):
    U = _compression_gates()[gate]
    ref = reference_radii(U, N_BLOCKS, 19)
    serial = hm.spectral_radius_samples(U, N_BLOCKS, 19)
    split = hm.spectral_radius_samples(U, N_BLOCKS, 19, workers=3)
    assert np.array_equal(serial, ref)
    assert np.array_equal(split, ref)


@pytest.mark.parametrize("gate", list(_compression_gates()))
def test_block_max_mixing_rate_equals_per_index_reference(gate):
    U = _compression_gates()[gate]
    best_r, best_u = reference_max_rate(U, N_BLOCKS, 20)
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
    X, s, Yh = factored_channel(build_m_plus(U))
    assert Yh.shape == (rank, q * q) and X.shape == (q * q, rank) and s.shape == (rank,)
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


def _norm_power_gates():
    """m from 1 (the even-q cat map) to 15 (a generic q = 4 dual gate)."""
    fx = fixtures()
    return {"cartan": cartan_gate(0.3), "cat_q2": cat_map(2), "d3s": fx["dual_q3_d3s"],
            "d2s": fx["dual_q3_d2s"], "ep4over5": fx["dual_q4_ep4over5"]}


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("gate", list(_norm_power_gates()))
def test_factored_norm_powers_equal_the_dense_channel_power(gate, k):
    # (K X Yh)^k = K X C^(k-1) Yh, X^dag X = diag(s)^2 and Yh Yh^dag = 1: the
    # engine's ||diag(s) C^(k-1)||_F^2 is the dense ||(K Mt)^k||_F^2
    U = _norm_power_gates()[gate]
    q = to.local_dim(U)
    Mt = deflate_trivial(build_m_plus(U))
    n = hm.BLOCK + 5
    dense = np.empty(n)
    for i in range(n):
        B = np.linalg.matrix_power(kron_at(q, 21, f"norm-power-{k}", i) @ Mt, k)
        dense[i] = np.vdot(B, B).real
    vals = reference_norm_powers(U, k, n, 21)
    # relative to the largest sample: the dense product rounds at that scale, so
    # a sample near zero (the rank-one cat map at k = 4 reads 2e-13) keeps no digits
    assert np.abs(vals - dense).max() <= 1e-13 * dense.max()
    est = hm.avg_norm_power(U, k, n, 21)
    assert est.mean == vals.mean()


def test_a_two_unitary_norm_power_is_zero_with_no_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a Haar block was drawn")

    monkeypatch.setattr(hm, "_kron_block", no_draw)
    for n in (0, -3):  # a refused N is refused first
        with pytest.raises(to.ValidationError, match=f"^N must be an integer >= 1, got {n}$"):
            hm.avg_norm_power(cat_map(3), 2, n, 1)
    for k in (2, 3, 4):
        est = hm.avg_norm_power(cat_map(3), k, 40, 1)
        assert (est.mean, est.stderr, est.n) == (0.0, 0.0, 40)


@pytest.mark.parametrize("q", [2, 3])
def test_block_norm_power_and_monomial_equal_per_index_reference(q, monkeypatch):
    U = _engine_gates()[q]
    n = hm.BLOCK + 5
    vals = reference_norm_powers(U, 3, n, 21)
    seen, estimate = [], hm._estimate
    monkeypatch.setattr(hm, "_estimate", lambda v, *args: seen.append(v) or estimate(v, *args))
    est = hm.avg_norm_power(U, 3, n, 21)
    # sample by sample: a change of per-sample rounding can keep the mean
    assert len(seen) == 1 and np.array_equal(seen[0], vals)
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
# scheme 2 (the counter-indexed draw), as OpenBLAS's SkylakeX kernel rounds
# them: like the corpus, these are that kernel's bytes.  mu_plus and nu_plus
# are read off the same samples as mean_lambda1 (checked against a per-index
# loop below)
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
        ref = reference_radii(fx[name], 300, 13)
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
    r = hm.spectral_radius_samples(U, n, 25, workers=1)
    row = _sweep_row(U, n, 25, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hm, "BLOCK", block)
        mp.setattr(hm, "_usable_cpus", lambda: 3)  # threads run on a 1-CPU machine too
        assert np.array_equal(hm.spectral_radius_samples(U, n, 25, workers=workers), r)
        assert np.array_equal(_sweep_row(U, n, 25, workers), row)


def test_norm_power_and_monomial_oracle_do_not_depend_on_workers(monkeypatch):
    # they run on one thread per usable CPU: 1, then 3
    U = _engine_gates()[3]
    n = 2 * hm.BLOCK + 7
    rng = np.random.default_rng(27)
    X, Y = (rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)) for _ in range(2))

    def run():
        est, rep = hm.avg_norm_power(U, 3, n, 26), hm.haar_monomial_oracle(X, Y, n, 28)
        return [est.mean, est.stderr, rep["mc_mean"], rep["mc_stderr"]]

    monkeypatch.setattr(hm, "_usable_cpus", lambda: 1)
    serial = run()
    monkeypatch.setattr(hm, "_usable_cpus", lambda: 3)
    assert np.array_equal(run(), serial)
