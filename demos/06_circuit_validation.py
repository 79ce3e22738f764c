"""Exact circuit evolution against the channel predictions.

Brickwork circuits on 8 qubits (or 6 qutrits) are evolved exactly, each
operator on its light-cone support.  For dual gates the single-site
correlator must vanish strictly inside the light cone and equal channel
powers on it; for the 2-unitary cat even two-site correlators vanish
everywhere off the origin.
"""

import numpy as np

from dualunitary import (
    CircuitConfig,
    CircuitSimulator,
    cat_map,
    diagonal_dual_sample,
    fixtures,
    lightcone_correlation_prediction,
    sample_haar,
    substream,
)

np.set_printoptions(precision=3, suppress=True)


def cone_picture(sim, i, j, t_max):
    """Rows t, columns x: |C| on the (x, t) grid for one basis pair."""
    for t in range(1, t_max + 1):
        row = []
        for n in range(sim.n_legs):
            val = abs(sim.correlation_single(i, j, 0.5 * n, 0.0, t))
            row.append(f"{val:7.4f}")
        print(f"   t={t}: " + " ".join(row))


print("=== Dual gate (q=2, 8 sites): support only on the cone ===")
U = diagonal_dual_sample(2, 1.0, substream(0, "demo6"))
sim = CircuitSimulator(CircuitConfig(q=2, L=4, gate=U))
print("   x =  " + " ".join(f"{0.5*n:7.1f}" for n in range(8)))
cone_picture(sim, 2, 2, 2)

print("\n=== Cone values = channel powers (both rays) ===")
for t in (1, 2):
    got_p = sim.c_plus(2, 2, float(t), t)
    pred_p = lightcone_correlation_prediction(U, sim.basis[2], sim.basis[2], t, "plus")
    got_m = sim.c_minus(2, 2, float(-t), t)
    pred_m = lightcone_correlation_prediction(U, sim.basis[2], sim.basis[2], t, "minus")
    print(f"  t={t}: C+({t},{t}) = {got_p.real:+.6f} (channel {pred_p.real:+.6f})   "
          f"C-({-t},{t}) = {got_m.real:+.6f} (channel {pred_m.real:+.6f})")

print("\n=== Non-dual control (Haar gate): the interior fills in ===")
Uc = sample_haar(4, substream(1, "demo6"))
simc = CircuitSimulator(CircuitConfig(q=2, L=4, gate=Uc))
print("   x =  " + " ".join(f"{0.5*n:7.1f}" for n in range(8)))
cone_picture(simc, 2, 2, 2)

print("\n=== Bernoulli circuit from the q=3 cat: two-site correlators vanish ===")
sim3 = CircuitSimulator(CircuitConfig(q=3, L=3, gate=cat_map(3)))
worst = 0.0
for (i, j, k, l) in [(1, 2, 3, 4), (2, 5, 7, 1)]:
    for n1 in range(6):
        for n2 in range(6):
            worst = max(worst, abs(sim3.correlation_two_site(i, j, k, l, 0.5 * n1, 0.5 * n2, 1)))
print(f"  max |two-site C| over all spacetime-separated points at t=1: {worst:.2e}")

print("\n=== T-dual-only gate: the cone itself is silent ===")
D = fixtures()["d3_q3"]
simT = CircuitSimulator(CircuitConfig(q=3, L=2, gate=D))
print(f"  |C+(1,1)| = {abs(simT.c_plus(1, 1, 1.0, 1)):.2e}, "
      f"|C-(-1,1)| = {abs(simT.c_minus(1, 1, -1.0, 1)):.2e}")
print("  (T-duality kills the light-cone rays even without dual-unitarity)")
