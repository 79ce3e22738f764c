"""The Haar engine's per-index recipe: the test oracle for `haar_mc`.

Index i of stream (seed, label) draws its local u = `haar_sample_at(q, seed,
label, i)` on its own and forms the real m x m compression C = (Yh (u x u*)) X,
with Mt = X Yh and its kept singular values s factored here independently of
the library.  Its radius is the largest eigenvalue modulus of C, and its
k-th norm power ||diag(s) C^(k-1)||_F^2.  The engine's radii, norm powers and
`max_mixing_rate`'s sampled minimum equal these bit for bit, on every
OpenBLAS kernel.  The module imports no test framework, so a kernel test's
subprocess loads it fast.
"""

import numpy as np

from dualunitary import haar_mc as hm
from dualunitary.channels import build_m_plus, deflate_trivial, hermitian_basis
from dualunitary.tensor_ops import local_dim
from dualunitary.tolerances import channel_rank_tol


def factored(U):
    """(X, s, Yh) with Mt = X Yh from the real SVD of Mt in the Hermitian
    basis T, truncated at the rank rule, computed here independently."""
    q = local_dim(U)
    T = hermitian_basis(q)
    W, s, Vh = np.linalg.svd((T.conj().T @ deflate_trivial(build_m_plus(U)) @ T).real)
    m = int((s > channel_rank_tol(q)).sum())
    return T @ (W[:, :m] * s[:m]), s[:m], Vh[:m] @ T.conj().T


def kron_at(q, seed, label, i):
    """u x u* of the Haar local of index i."""
    u = hm.haar_sample_at(q, seed, label, i)
    return np.kron(u, u.conj())


def compressed_radius(X, Yh, L):
    return np.abs(np.linalg.eigvals((Yh @ L @ X).real)).max()


def reference_radii(U, n, seed, label="spectral-radius"):
    """The radii of indices [0, n), one index at a time."""
    q = local_dim(U)
    X, _, Yh = factored(U)
    return np.array([compressed_radius(X, Yh, kron_at(q, seed, label, i)) for i in range(n)])


def reference_norm_powers(U, k, n, seed):
    """The k-th norm powers of indices [0, n) of stream "norm-power-{k}", one
    index at a time: ||diag(s) C^(k-1)||_F^2, with C the compression."""
    q = local_dim(U)
    X, s, Yh = factored(U)
    vals = []
    for i in range(n):
        C = (Yh @ kron_at(q, seed, f"norm-power-{k}", i) @ X).real
        P = s[:, None] * np.linalg.matrix_power(C, k - 1)
        vals.append((P * P).sum())
    return np.array(vals)


def reference_max_rate(U, n, seed):
    """`max_mixing_rate`'s sampled minimum over indices [0, n): the first
    smallest radius and the Haar local drawn at its index."""
    q = local_dim(U)
    r = reference_radii(U, n, seed, "max-rate")
    i = int(np.argmin(r))
    return r[i], hm.haar_sample_at(q, seed, "max-rate", i)
