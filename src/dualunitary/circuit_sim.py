"""Brickwork-circuit correlators on a ring of 2L qudits, evolved on the light cone.

The one-period evolution is U_F = T U^(xL) T^dag U^(xL): a layer of two-site
gates on pairs (x, x+1/2), then the same layer shifted by one site.  Sites
sit at half-integer positions; site x maps to tensor leg 2x.  Operators are
evolved in the Heisenberg picture gate by gate and kept as a tensor on their
support legs, the identity elsewhere: a gate g touching the support acts as
g^dag O g on its two legs, and a gate off the support cancels.  After t
periods a single-site operator lives on at most 4t legs, so the cost grows
with the light cone, not with the ring (the folded picture of Bertini, Kos
and Prosen, PRL 123, 210601 (2019)).  The correlators are
infinite-temperature traces, i.e. partial traces of the support tensor, so
no state sampling enters and the results are exact.

The simulator exists to validate channel predictions: for dual gates the
single-site correlator vanishes strictly inside the light cone and equals
tr[M_pm^(2t)(a_i) a_j]/q on the cone, and for 2-unitary gates the two-site
correlator vanishes at every spacetime-separated point.  The predictions
hold up to half the particle number, t <= L/2; that window is a condition
of the prediction, checked by `dualu circuit verify`, while the ring
evolution here is exact at any t >= 0.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .tensor_ops import ValidationError, local_dim, require_unitary
from .tolerances import SITE_TOL

# bytes a simulator may spend on each of: the support tensor an evolution
# builds (16 q^(2 |supp|); a gate step holds about three at once), and all the
# correlator tables it keeps, together
SUPPORT_BUDGET = 2**28


def _require_budget(nbytes, what):
    if nbytes > SUPPORT_BUDGET:
        raise ValidationError(f"{what}: {nbytes / 2**20:.0f} MiB, above the "
                              f"{SUPPORT_BUDGET / 2**20:.0f} MiB budget")


@dataclass
class CircuitConfig:
    """A brickwork ring of 2L qudits of dimension q.  The gate and every
    per-bond gate are q^2 x q^2 and unitary to GATE_UNITARY_TOL; anything
    else is refused here, before a simulator is built."""
    q: int
    L: int
    gate: np.ndarray
    even_gates: list = None   # optional per-bond gates for the (x, x+1/2) layer
    odd_gates: list = None    # ... and the (x+1/2, x+1) layer; L entries each

    def __post_init__(self):
        self.gate = np.asarray(self.gate, dtype=complex)
        for name in ("even_gates", "odd_gates"):
            gates = getattr(self, name)
            if gates is not None and len(gates) != self.L:
                raise ValidationError(f"{name} must list one gate per cell (L entries)")
        # each gate object once: a layer may repeat one gate L times
        gates = [self.gate, *(self.even_gates or ()), *(self.odd_gates or ())]
        for g in {id(g): g for g in gates}.values():
            if local_dim(g) != self.q:
                raise ValidationError("gate local dimension does not match q")
            require_unitary(g, what="gate")


def weyl_basis(q):
    """Heisenberg-Weyl orthonormal operator basis, a_0 = identity.

    a_{(m,n)} = X^m Z^n with X|k> = |k+1>, Z|k> = w^k |k>; every monomial is
    unitary, hence tr(a^dag a) = q, and traceless except (0,0).
    """
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


class CircuitSimulator:
    """Evolves local operators on their light cone and evaluates correlators.

    An evolved operator is a pair (legs, tensor): the tensor has one output
    axis per support leg, then one input axis per leg, in the order of
    `legs`.  Correlator tables are cached per initial operator and time.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.q = cfg.q
        self.L = cfg.L
        self.n_legs = 2 * cfg.L
        self.basis = weyl_basis(cfg.q)
        shape = (cfg.q,) * 4

        def folded(g):  # (g, g^dag) as q x q x q x q tensors
            g = np.asarray(g, dtype=complex)
            return g.reshape(shape), g.conj().T.reshape(shape)

        self._uniform = folded(cfg.gate)
        self._layers = [None if gates is None else [folded(g) for g in gates]
                        for gates in (cfg.even_gates, cfg.odd_gates)]
        self._single = {}
        self._two = {}
        self._kept = 0  # bytes of the kept correlator tables

    def site_leg(self, x):
        leg = int(round(2 * x))
        if abs(2 * x - leg) > SITE_TOL:
            raise ValidationError(f"site {x} is not a half-integer position")
        return leg % self.n_legs

    def _evolve(self, factors, t):
        """U_F^-t (x_leg factors[leg]) U_F^t as (support legs, tensor).

        The gates that touch the growing support are listed first, so a
        negative t or a final support over the budget is refused before
        anything is built."""
        if t < 0:
            raise ValidationError("t must be nonnegative")
        # One period of U_F^dag O U_F, gate by gate: the unshifted layer on legs
        # (2k, 2k+1), then the shifted one on (2k+1, 2k+2), first gate factor
        # on the first leg, bonds in ascending k.  This is the convention for
        # which the correlator ray leaving y = 0 towards x = +t carries the
        # powers of M_plus (and the y = 1/2 ray towards -t those of M_minus);
        # for L = 1 it reads U_F = U . SUS.  The gates of a layer are disjoint,
        # so the bonds it adds to the support are those of its legs at its start.
        n = self.n_legs
        support = set(factors)
        steps = []
        for _ in range(t):
            for layer, gates in enumerate(self._layers):
                for k in sorted({(leg - layer) % n // 2 for leg in support}):
                    a, b = 2 * k + layer, (2 * k + 1 + layer) % n
                    support |= {a, b}
                    steps.append((a, b) + (self._uniform if gates is None else gates[k]))
        _require_budget(16 * self.q ** (2 * len(support)),
                        f"at t = {t} the evolved operator covers {len(support)} legs "
                        f"as a q={self.q} tensor")
        q = self.q
        legs = list(factors)
        s = len(legs)
        T = reduce(np.multiply.outer, [np.asarray(factors[leg], dtype=complex) for leg in legs])
        T = T.transpose(list(range(0, 2 * s, 2)) + list(range(1, 2 * s, 2)))
        for a, b, g, gd in steps:
            for leg in (a, b):
                if leg not in legs:  # O x 1 on the new leg
                    T = np.moveaxis(np.multiply.outer(T, np.eye(q)), 2 * s, s)
                    legs.append(leg)
                    s += 1
            pa, pb = legs.index(a), legs.index(b)
            T = np.moveaxis(np.tensordot(gd, T, axes=([2, 3], [pa, pb])), [0, 1], [pa, pb])
            T = np.moveaxis(np.tensordot(T, g, axes=([s + pa, s + pb], [0, 1])),
                            [-2, -1], [s + pa, s + pb])
        return legs, T

    def _marginal(self, op, legs):
        """tr_rest(O) / q^(traced legs) on `legs`, axes (outputs..., inputs...).

        A leg outside the support carries the identity, so the correlator of
        an observable B on `legs` is tr(B rho) / q^len(legs).
        """
        support, T = op
        s = len(support)
        labels = list(range(s)) * 2  # equal output and input labels: traced
        operands, outs, ins = [T, labels], [], []
        for k, leg in enumerate(legs):
            if leg in support:
                p = support.index(leg)
                labels[s + p] = s + p
                outs.append(p)
                ins.append(s + p)
            else:
                operands += [np.eye(self.q), [2 * s + 2 * k, 2 * s + 2 * k + 1]]
                outs.append(2 * s + 2 * k)
                ins.append(2 * s + 2 * k + 1)
        traced = s - sum(leg in support for leg in legs)
        return np.einsum(*operands, outs + ins) / self.q**traced

    def _table(self, store, key, entries, build):
        """store[key], built by build() on first use.  The tables a simulator
        keeps count against the budget together, checked before one is built."""
        if key not in store:
            _require_budget(self._kept + 16 * entries, "the kept correlator tables")
            table = build()
            table.setflags(write=False)
            store[key] = table
            self._kept += table.nbytes
        return store[key]

    def single_site_table(self, i, y, t):
        """C[x, j] = tr[a_j^x U^-t a_i^y U^t] / q^(2L) for every leg x and basis index j."""
        leg = self.site_leg(y)

        def build():
            op = self._evolve({leg: self.basis[i]}, t)
            rows = [np.einsum("jab,ba->j", self.basis, self._marginal(op, [x]))
                    for x in range(self.n_legs)]
            return np.array(rows) / self.q

        return self._table(self._single, (i, leg, t), self.n_legs * self.q**2, build)

    def _two_site_table(self, i, j, t):
        """C[x1, x2, k, l] = tr[a_k^{x1} a_l^{x2} U^-t a_i^0 a_j^{1/2} U^t] / q^(2L)
        for every pair of legs and basis indices."""
        n, q, B = self.n_legs, self.q, self.basis

        def build():
            op = self._evolve({0: B[i], 1: B[j]}, t)
            products = np.einsum("kab,lbc->klac", B, B)  # a_k a_l on one leg
            table = np.empty((n, n, q * q, q * q), dtype=complex)
            for x1 in range(n):
                for x2 in range(n):
                    if x1 == x2:
                        table[x1, x2] = np.einsum(
                            "klab,ba->kl", products, self._marginal(op, [x1])) / q
                    else:
                        table[x1, x2] = np.einsum(
                            "kab,lcd,bdac->kl", B, B, self._marginal(op, [x1, x2])) / q**2
            return table

        return self._table(self._two, (i, j, t), (n * q * q) ** 2, build)

    def correlation_single(self, i, j, x, y, t):
        """D^{ij}(x, y, t) = tr[a_j^x U^-t a_i^y U^t] / q^(2L), i, j > 0."""
        if i <= 0 or j <= 0:
            raise ValidationError("basis indices must be nontrivial (> 0)")
        return complex(self.single_site_table(i, y, t)[self.site_leg(x), j])

    def c_plus(self, i, j, x, t):
        return self.correlation_single(i, j, x, 0.0, t)

    def c_minus(self, i, j, x, t):
        return self.correlation_single(i, j, x + 0.5, 0.5, t)

    def correlation_two_site(self, i, j, k, l, x1, x2, t):
        """tr[a_k^{x1} a_l^{x2} U^-t a_i^{0} a_j^{1/2} U^t] / q^(2L)."""
        table = self._two_site_table(i, j, t)
        return complex(table[self.site_leg(x1), self.site_leg(x2), k, l])
