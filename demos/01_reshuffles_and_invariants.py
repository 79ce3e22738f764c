"""Tour of the index reshuffles and the gate invariants built on them.

Every two-qudit gate U has four useful element rearrangements: two
realignments (R1, R2) and two partial transposes (T1, T2).  Whether the
realigned/transposed matrices stay unitary is exactly what separates the
gate zoo:

    dual-unitary     U^R1 unitary      (swap, Cartan family, cat maps, ...)
    T-dual           U^T2 unitary      (identity, block-diagonal D, cnot)
    2-unitary        both              (odd-q cat maps, OLS permutations)

and the entangling power e_p(U) measures where U sits between swap (0) and
a perfect tensor (1).
"""

import numpy as np

from dualunitary import (
    cat_map,
    classify_duality,
    entangling_power,
    fixtures,
    mixing_thresholds,
    sample_haar,
    schmidt_spectrum,
    swap_operator,
    verify_reshuffle_identities,
)
from dualunitary.qubit_exact import cartan_gate

np.set_printoptions(precision=4, suppress=True)

print("=== The reshuffle algebra holds to machine precision ===")
rng = np.random.default_rng(7)
X = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
res = verify_reshuffle_identities(X, [sample_haar(3, rng) for _ in range(4)])
for name, r in res.items():
    print(f"  {name:26s} residual {r:.2e}")

print("\n=== Gate zoo: duality class and entangling power ===")
zoo = {
    "swap (q=2)": swap_operator(2).astype(complex),
    "identity (q=2)": np.eye(4, dtype=complex),
    "Cartan J=0 (dcnot class)": cartan_gate(0.0),
    "Cartan J=pi/8": cartan_gate(np.pi / 8),
    "cat map q=2": cat_map(2),
    "cat map q=3": cat_map(3),
    "cat map q=4": cat_map(4),
    "explicit dual, e_p=8/9": fixtures()["dual_q3_ep8over9"],
    "explicit 2-unitary q=3": fixtures()["two_unitary_q3"],
}
for name, U in zoo.items():
    dc = classify_duality(U)
    tags = [t for t, f in (("dual", dc.is_dual), ("T-dual", dc.is_t_dual),
                           ("2-unitary", dc.is_two_unitary)) if f]
    print(f"  {name:28s} e_p = {entangling_power(U):8.6f}   {', '.join(tags) or 'generic'}")

print("\n=== Schmidt spectra: flat iff dual ===")
for name in ("swap (q=2)", "cat map q=3", "identity (q=2)"):
    g = schmidt_spectrum(zoo[name]).gamma
    print(f"  {name:28s} gamma = {np.round(g, 4)}")

print("\n=== The mixing-threshold ladder e*_(p,k) = 1 - k/(q^2-1) ===")
for q in (2, 3, 4):
    t = mixing_thresholds(q)
    print(f"  q={q}: e_p* = {t[0]:.6f} (full mixing guaranteed above this); "
          f"ladder top 3: {np.round(t[:3], 4)}")
print("\nEntangling power above e*_(p,k) forces at least q^2-k mixing modes,")
print("whatever single-particle fields dress the circuit.")
