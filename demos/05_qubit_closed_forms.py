"""The fully solvable qubit case: closed-form spectra and mixing rates.

For two qubits the dual gates form the one-parameter Cartan family U(J),
and the channel spectrum under restricted single-qubit rotations is exactly
solvable.  This demo writes the |lambda_i|(theta) curves, compares every
closed form against the eigensolver, and reproduces the maximal-rate law
nu_+ = -1/3 ln(1 - e_p/e_max) that full SU(2) sampling attains.
"""

import math
import os

import numpy as np
from scipy.integrate import trapezoid

from dualunitary import build_m_plus, channel_spectrum
from dualunitary.qubit_exact import (
    cartan_gate,
    critical_theta,
    ep_cartan,
    general_su2_cubic,
    min_lambda1_general,
    mu_prime,
    nu_plus_exact,
    nu_prime,
    restricted_v_cubic,
    restricted_w_spectrum,
    su2_local,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

J = math.pi / 16
s = math.sin(2 * J)
print(f"=== Cartan gate at J = pi/16: e_p = {ep_cartan(J):.6f}, sin 2J = {s:.6f} ===")

print("\n=== w-family spectrum: quadratic pair + constant root ===")
thc = critical_theta(J)
print(f"  critical angle theta_c = {thc:.6f}; between theta_c and pi-theta_c the")
print(f"  leading pair is complex with constant modulus sqrt(sin 2J) = {math.sqrt(s):.6f}")
path = os.path.join(OUT, "qubit_w_family_curves.csv")
with open(path, "w", newline="\n") as fh:
    fh.write("theta,l1,l2,l3\n")
    for th in np.linspace(0.0, math.pi, 301):
        mods = sorted(np.abs(restricted_w_spectrum(J, th)), reverse=True)
        fh.write(f"{th!r},{mods[0]!r},{mods[1]!r},{mods[2]!r}\n")
print(f"  |lambda_i|(theta) curves -> {path}")

print("\n=== Every closed form against the eigensolver ===")
worst = 0.0
rng = np.random.default_rng(3)
for _ in range(50):
    th, ph, ps = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
    Jr = rng.uniform(0.05, math.pi / 4)
    got = np.sort(np.abs(channel_spectrum(
        build_m_plus(cartan_gate(Jr) @ np.kron(np.eye(2), su2_local(th, ph, ps)))
    ).eigenvalues))
    want = np.sort(np.abs(general_su2_cubic(Jr, th, ph)))
    worst = max(worst, float(np.abs(got - want).max()))
print(f"  general SU(2) cubic vs eigensolve, 50 random tuples: max diff {worst:.2e}")

print("\n=== Rate laws ===")
print(f"  {'J':>8} {'nu_prime':>10} {'mu_prime':>10} {'nu_plus':>10} {'sampled nu':>11}")
for Jv in (0.15, math.pi / 8, 0.55):
    rep = min_lambda1_general(Jv)
    print(f"  {Jv:8.4f} {nu_prime(Jv):10.5f} {mu_prime(Jv):10.5f} "
          f"{nu_plus_exact(Jv):10.5f} {-math.log(rep['min_radius']):11.5f}")
print("  the unrestricted SU(2) optimum lands exactly on the v-family value")
print("  nu_+ = -1/3 ln(1 - e_p/e_max); the gap to the closed form is reported:")
for Jv in (0.15, 0.55):
    rep = min_lambda1_general(Jv)
    print(f"    J = {Jv}: |min - closed| = {abs(rep['min_radius'] - rep['closed_form']):.2e}")

print("\n=== The cos(theta)-averaged rate over the w family ===")
for Jv in (math.pi / 16, 0.3):
    c = np.linspace(-1, 1, 20001)
    lam = np.array([np.abs(restricted_w_spectrum(Jv, math.acos(x))).max() for x in c])
    quad = float(trapezoid(-np.log(lam), c) / 2)
    print(f"  J = {Jv:.4f}: quadrature {quad:.6f} vs closed form "
          f"(1-sin2J)/(1+sin2J) = {mu_prime(Jv):.6f}")

print("\n=== phi = 0 and pi endpoints of the v-family cubic ===")
r0 = np.round(restricted_v_cubic(J, 0.0), 5)
rpi = np.round(restricted_v_cubic(J, math.pi), 5)
print(f"  phi = 0:  roots {r0}  (pair +-i sqrt(sin 2J), plus sin 2J)")
print(f"  phi = pi: roots {rpi}  (+-sqrt(sin 2J), -sin 2J)")
