"""Every way this library manufactures dual (and 2-unitary) gates.

Block-diagonal matrices times swap give duals with bounded e_p; the
realign + nearest-unitary iteration flows almost any unitary onto the dual
manifold ("dual-CUE"); adding a partial-transpose polish step lands on
2-unitaries; permutations classified by Latin-square combinatorics and cat
maps give exact constructions at every local dimension.
"""

import numpy as np

from dualunitary import (
    block_channel_forms,
    block_diagonal_gate,
    cat_family,
    cat_fourier_local_lambda1,
    cat_map,
    classify_duality,
    classify_permutation,
    diagonal_dual_sample,
    entangling_power,
    mr_iterate,
    mrt_iterate,
    ols_pair,
    permutation_gate,
    sample_haar,
    substream,
    two_unitary_permutation,
)
from dualunitary.constructions import (
    PERM_DUAL_EXAMPLE_Q3,
    perturbed_two_unitary,
    random_block_gate,
)

rng = substream(0, "demo3")

print("=== Block-diagonal duals and their e_p ceilings ===")
for q in (2, 3, 4):
    best = max(
        entangling_power(block_diagonal_gate(q, [sample_haar(q, rng) for _ in range(q)]))
        for _ in range(300)
    )
    print(f"  q={q}, uniform blocks: max e_p over 300 samples = {best:.4f} "
          f"(ceiling q/(q+1) = {q/(q+1):.4f})")
best_k2 = max(entangling_power(random_block_gate(3, [2, 1], rng)) for _ in range(300))
print(f"  q=3, K=2 blocks: max e_p = {best_k2:.4f} (ceiling 7/8 = 0.875, not attained)")

print("\n=== Diagonal-phase ensemble: mean e_p = (q-1)/(q+1) ===")
for q in (2, 3):
    vals = [entangling_power(diagonal_dual_sample(q, 1.0, rng)) for _ in range(2000)]
    print(f"  q={q}: mean e_p = {np.mean(vals):.4f} (expected {(q-1)/(q+1):.4f})")

print("\n=== Uniform-block channel: closed form vs direct construction ===")
blocks = [sample_haar(3, rng) for _ in range(3)]
rep = block_channel_forms(3, blocks, side="ds")
print(f"  assembly residual {rep['assembly_residual']:.2e}, "
      f"spectrum residual {rep['spectrum_residual']:.2e}")
print(f"  unit eigenvalues (the lambda_kk): "
      f"{np.count_nonzero(np.abs(rep['spectrum_closed'] - 1) < 1e-12)} of 9")

print("\n=== The realign-polar flow: dual-CUE ===")
eps = []
for k in range(25):
    U0 = sample_haar(9, substream(1, "demo3-mr", k))
    U, tr = mr_iterate(U0, max_iter=2000, tol=1e-10)
    eps.append(entangling_power(U))
    if k == 0:
        mono = np.all(np.diff(tr.s_half_history) >= -1e-10)
        print(f"  first trace: {tr.n_iter} iterations, Tsallis-1/2 monotone: {mono}")
print(f"  25 dual-CUE gates, e_p range [{min(eps):.3f}, {max(eps):.3f}], "
      f"mean {np.mean(eps):.3f} (CUE mean e_p = (q^2-1)/(q^2+1) = 0.8)")

print("\n=== The alternating flow reaches 2-unitaries ===")
K, L = PERM_DUAL_EXAMPLE_Q3
U2, tr2 = mrt_iterate(permutation_gate(K, L), max_iter=500, tol=1e-12)
print(f"  from the worked dual permutation: e_p = {entangling_power(U2):.10f} "
      f"in {tr2.n_iter} iterations")
print("  seed-class statistics (q=3, 200 iters):")
for tag, seed_gate in (
    ("dual permutation", permutation_gate(*PERM_DUAL_EXAMPLE_Q3)),
    ("identity", np.eye(9, dtype=complex)),
    ("Haar", sample_haar(9, substream(2, "demo3-mrt"))),
):
    U, tr = mrt_iterate(seed_gate, max_iter=200, tol=1e-12)
    print(f"    {tag:18s} -> e_p = {entangling_power(U):.6f} (converged: {tr.converged})")

print("\n=== Permutations: Latin-square logic vs matrix algebra ===")
dc = classify_permutation(*PERM_DUAL_EXAMPLE_Q3)
print(f"  worked example: dual {dc.is_dual}, T-dual {dc.is_t_dual}")
dc2 = classify_permutation(*ols_pair(3))
print(f"  orthogonal Latin squares: 2-unitary {dc2.is_two_unitary}, "
      f"e_p = {entangling_power(permutation_gate(*ols_pair(3))):.1f}")
print(f"  OLS 2-unitaries exist at q = 3, 4, 5, 7: "
      f"{[entangling_power(two_unitary_permutation(q)) for q in (3, 4, 5, 7)]}")

print("\n=== Cat maps: dual at every q, perfect tensors at odd q ===")
for q in range(2, 7):
    U = cat_map(q)
    dc = classify_duality(U)
    print(f"  q={q}: e_p = {entangling_power(U):.6f}, 2-unitary: {dc.is_two_unitary}")
print(f"  one-parameter family at b=1: e_p = {entangling_power(cat_family(3, 1.0)):.4f} "
      f"(= q/(q+1), swap-diagonal class)")
lam = cat_fourier_local_lambda1(2, 0.0, 0.25)
print(f"  even cat + phased-DFT local: lambda_1 = {lam.real:.6f} (= cos(pi/4))")

print("\n=== The q=3 attainability gap below e_p = 1 (open question data) ===")
U23 = two_unitary_permutation(3)
for scale in (0.1, 0.3, 0.5):
    U = perturbed_two_unitary(U23, scale, substream(3, f"demo3-gap-{scale}"))
    print(f"  kick {scale:.1f} then re-dualize: e_p = {entangling_power(U):.8f}")
print("  small kicks flow back to exactly 1; larger ones fall far below -")
print("  the dual manifold at q=3 appears to have no members just under 1.")
