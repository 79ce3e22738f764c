"""Brickwork-circuit correlators on a ring of 2L qudits, evolved on the light cone.

The one-period evolution is U_F = T U^(xL) T^dag U^(xL): a layer of two-site
gates on pairs (x, x+1/2), then the same layer shifted by one site.  Sites
sit at half-integer positions; site x maps to tensor leg 2x.  Operators are
evolved in the Heisenberg picture gate by gate and kept as a tensor on their
support legs, the identity elsewhere: a gate g touching the support acts as
g^dag O g on its two legs, two matrix products, and a gate off the support
cancels.  After t
periods a single-site operator lives on at most 4t legs, a tensor of
16 q^(8t) bytes, so the cost grows with the light cone, not with the ring
(the folded picture of Bertini, Kos and Prosen, PRL 123, 210601 (2019)).
Single-site tables meet in the middle: t1 periods forward from the initial
operator and t2 = t - t1 backward from the final one, so each half covers
at most 4 t1 or 4 t2 legs; t2 is picked per table from the sizes alone, and
t2 = 0 wherever a split costs more.  Two-site tables evolve the whole t.
The correlators are infinite-temperature traces, i.e. partial traces of the
support tensors, so no state sampling enters and the results are exact.

The simulator exists to validate channel predictions: for dual gates the
single-site correlator vanishes strictly inside the light cone and equals
tr[M_pm^(2t)(a_i) a_j]/q on the cone, and for 2-unitary gates the two-site
correlator vanishes at every spacetime-separated point.  The predictions
hold up to half the particle number, t <= L/2; that window is a condition
of the prediction, checked by `dualu circuit verify`, while the ring
evolution here is exact at any t >= 0.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .tensor_ops import ValidationError, local_dim, require_unitary
from .tolerances import SITE_TOL

# bytes a simulator may spend on each of: the support tensor an evolution
# builds (16 q^(2 |supp|), times q^2 for a backward half; a gate step holds
# about three at once), and all the correlator tables and backward halves it
# keeps, together, with the marginals of the halves it keeps in the room they
# leave
SUPPORT_BUDGET = 2**28

# the overhead of one numpy call in the cost model of a table's split, counted
# in complex multiply-adds: about 15 us at about 2 ns each.  Fit on a 2-CPU
# x86 box with OpenBLAS when a gate step made two tensordot and two moveaxis
# calls, charged as 4 CALL_COST per step; the model then picked the t2 of the
# fastest first table in each of 41 measured (q, L, t) with q <= 5, L <= 24
# and more than one split within the budget.  A step of the labelled kernel
# costs less than that charge, but the constant stays as fit: it picks t2, and
# so the bytes of every split table.
CALL_COST = 2**13


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
    `legs`, after a leading batch axis where it holds a batch of operators.
    Correlator tables are cached per initial operator and time, the
    backward halves of the single-site tables per t2, and a half's marginal
    per set of legs it shares with a forward half.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.q = cfg.q
        self.L = cfg.L
        self.n_legs = 2 * cfg.L
        self.basis = weyl_basis(cfg.q)
        self._eye = np.eye(cfg.q)

        def folded(g):  # (g, g^dag) as the C-ordered q^2 x q^2 matrices a gate step multiplies
            g = np.asarray(g, dtype=complex)
            return np.ascontiguousarray(g), np.ascontiguousarray(g.conj().T)

        self._uniform = folded(cfg.gate)
        self._layers = [None if gates is None else [folded(g) for g in gates]
                        for gates in (cfg.even_gates, cfg.odd_gates)]
        self._single = {}
        self._two = {}
        self._halves = {}  # t2 -> the backward halves at every leg
        self._shared = {}  # (t2, leg, common legs) -> that half's marginal on them
        self._works = {}  # (leg parity, backward) -> _work per number of periods
        self._kept = 0  # bytes of the kept tables, backward halves and their marginals

    def site_leg(self, x):
        leg = int(round(2 * x))
        if abs(2 * x - leg) > SITE_TOL:
            raise ValidationError(f"site {x} is not a half-integer position")
        return leg % self.n_legs

    def _steps(self, legs, t, backward=False):
        """The gate steps of t periods on the growing support of `legs`, each as
        (a, b, right factor, left factor) on legs (a, b), and the final support.

        Forward, one period of U_F^dag O U_F gate by gate: the unshifted layer
        on legs (2k, 2k+1), then the shifted one on (2k+1, 2k+2), first gate
        factor on the first leg, bonds in ascending k, each gate g as g^dag O g.
        This is the convention for which the correlator ray leaving y = 0
        towards x = +t carries the powers of M_plus (and the y = 1/2 ray towards
        -t those of M_minus); for L = 1 it reads U_F = U . SUS.  Backward,
        U_F O U_F^dag: the layers in reverse order, each gate as g O g^dag.  The
        gates of a layer are disjoint, so the bonds it adds to the support are
        those of its legs at its start."""
        if t < 0:
            raise ValidationError("t must be nonnegative")
        n = self.n_legs
        layers = list(enumerate(self._layers))
        if backward:
            layers.reverse()
        support = set(legs)
        steps = []
        for _ in range(t):
            for layer, gates in layers:
                for k in sorted({(leg - layer) % n // 2 for leg in support}):
                    a, b = 2 * k + layer, (2 * k + 1 + layer) % n
                    support |= {a, b}
                    g, gd = self._uniform if gates is None else gates[k]
                    steps.append((a, b, gd, g) if backward else (a, b, g, gd))
        return steps, support

    def _evolve(self, factors, t, backward=False):
        """U_F^-t (x_leg factors[leg]) U_F^t as (support legs, tensor), or
        backward U_F^t (...) U_F^-t.  The operator on a single leg may carry a
        leading batch axis, which the tensor keeps in front.

        The steps are listed first, so a final support over the budget is
        refused before anything is built.  The tensor's axes carry labels (-1
        the batch, 2 leg the output of a leg, 2 leg + 1 its input), so no step
        restores their order.  A gate step is two matrix products: the left
        factor on the outputs of its legs, read with those two axes in front,
        then the right factor on their inputs, read with those two behind.
        The other axes are read in the order of the result, batch, outputs,
        inputs, each in the order of `legs`: that fixes each operand's layout,
        and so the bits of each product, and leaves one transpose for the end.
        A new leg is an outer product with the identity and two labels."""
        steps, support = self._steps(factors, t, backward)
        q = self.q
        legs = list(factors)
        arrays = [np.asarray(factors[leg], dtype=complex) for leg in legs]
        batch = math.prod(a.size for a in arrays) // q ** (2 * len(legs))
        _require_budget(16 * batch * q ** (2 * len(support)),
                        f"at t = {t} the {'backward half' if backward else 'evolved operator'} "
                        f"covers {len(support)} legs as a q={q} tensor"
                        + (f" batch of {batch}" if batch > 1 else ""))
        T = reduce(np.multiply.outer, arrays)
        head = [-1] * (T.ndim - 2 * len(legs))
        dims = (batch,) * len(head)
        axes = head + [2 * leg + side for leg in legs for side in (0, 1)]  # in T's order
        outs, ins = [2 * leg for leg in legs], [2 * leg + 1 for leg in legs]
        for a, b, g, gd in steps:
            for leg in (a, b):
                if leg not in legs:  # O x 1 on the new leg
                    T = np.multiply.outer(T, self._eye)
                    axes += [2 * leg, 2 * leg + 1]
                    outs.append(2 * leg)
                    ins.append(2 * leg + 1)
                    legs.append(leg)
            new = [2 * a, 2 * b, *head, *[x for x in outs if x != 2 * a and x != 2 * b], *ins]
            T = np.dot(gd, T.transpose([axes.index(x) for x in new]).reshape(q * q, -1))
            T, axes = T.reshape((q, q) + dims + (q,) * (len(new) - 2 - len(head))), new
            new = [*head, *outs, *[x for x in ins if x != 2 * a + 1 and x != 2 * b + 1],
                   2 * a + 1, 2 * b + 1]
            T = np.dot(T.transpose([axes.index(x) for x in new]).reshape(-1, q * q), g)
            T, axes = T.reshape(dims + (q,) * (len(new) - len(head))), new
        return legs, T.transpose([axes.index(x) for x in head + outs + ins])

    def _work(self, leg, t, backward=False):
        """(cost, support size) of evolving an operator on one leg t periods,
        from the step lists alone, in complex multiply-adds: a gate step costs
        q^2 per entry of the tensor it leaves (times the batch of q^2 backward)
        and a fixed 4 CALL_COST, the four numpy calls a step made when the
        model was fit (see CALL_COST).  The geometry repeats with a shift of
        two legs, and each period extends the one before."""
        if t < 0:
            raise ValidationError("t must be nonnegative")
        periods = self._works.setdefault((leg % 2, backward), [(0, {leg % 2})])
        batch = self.q**2 if backward else 1
        while len(periods) <= t:
            cost, seen = periods[-1]
            steps, support = self._steps(seen, 1, backward)
            seen = set(seen)
            for a, b, _, _ in steps:
                seen |= {a, b}
                cost += batch * self.q ** (2 * len(seen) + 2) + 4 * CALL_COST
            periods.append((cost, support))
        cost, support = periods[t]
        return cost, len(support)

    def _split(self, leg, t):
        """The t2 of the cheapest way to build a single-site table at `leg`:
        a_i forward t - t2 periods, and the basis backward t2 periods at every
        leg (see single_site_table).  The cost counts the gate steps, the reads
        of the halves at each leg, and the whole backward build, kept or not,
        so the choice does not depend on which tables were built before.  A
        split is not taken if one of its tensors, or its backward halves with
        the kept tables, would exceed the budget; if none fits, the one with
        the smallest tensors is refused."""
        q, n, nb = self.q, self.n_legs, self.q**2
        cost, s_f = self._work(leg, t)
        options = [(cost + n * (q ** (2 * s_f) + CALL_COST), 0, [(
            16 * q ** (2 * s_f),
            f"at t = {t} the evolved operator covers {s_f} legs as a q={q} tensor")])]
        for t2 in range(1, t + 1):
            cost, s_f = self._work(leg, t - t2)
            (c0, s0), (c1, s1) = (self._work(x, t2, backward=True) for x in (0, 1))
            s_b = max(s0, s1)
            halves = 0 if t2 in self._halves else 16 * nb * n // 2 * (q**(2 * s0) + q**(2 * s1))
            split = f"at t = {t} = {t - t2} + {t2} the"
            self._make_room(halves + 16 * n * nb)
            options.append((
                cost + n // 2 * (c0 + c1) + n * (q ** (2 * s_f) + nb * q ** (2 * s_b) + 3 * CALL_COST),
                t2,
                [(16 * q ** (2 * s_f), f"{split} forward half covers {s_f} legs as a q={q} tensor"),
                 (16 * nb * q ** (2 * s_b),
                  f"{split} backward half covers {s_b} legs as a q={q} tensor batch of {nb}"),
                 (self._kept + halves + 16 * n * nb,
                  "the kept correlator tables and backward halves")]))
        fits = [(cost, t2) for cost, t2, checks in options
                if all(nbytes <= SUPPORT_BUDGET for nbytes, _ in checks)]
        if not fits:
            for nbytes, what in min((checks for _, _, checks in options), key=max):
                _require_budget(nbytes, what)
        return min(fits)[1]

    def _backward(self, t2):
        """The q^2 basis operators at every leg evolved backward t2 periods, as
        one (support legs, batch tensor) per leg, built once and kept."""
        if t2 not in self._halves:
            halves = [self._evolve({x: self.basis}, t2, backward=True)
                      for x in range(self.n_legs)]
            self._kept += sum(T.nbytes for _, T in halves)
            self._halves[t2] = halves
        return self._halves[t2]

    def _meet(self, op, t2, x):
        """tr[B_j O] / q^(legs of O or B) for each operator B_j of the backward
        half at leg x: both are traced down to their common legs, where the
        outputs of B meet the inputs of O and the inputs of B the outputs of O.
        The half's marginal is kept per (t2, x, common legs), with the halves,
        if it fits the budget beside the table being built."""
        half = self._backward(t2)[x]
        shared = tuple(leg for leg in half[0] if leg in op[0])
        m = len(shared)
        key = (t2, x, shared)
        B = self._shared.get(key)
        if B is None:
            B = self._marginal(half, shared)
            if self._kept + B.nbytes + 16 * self.n_legs * self.q**2 <= SUPPORT_BUDGET:
                self._shared[key] = B
                self._kept += B.nbytes
        O = self._marginal(op, shared)
        O = O.transpose([*range(m, 2 * m), *range(m)]).reshape(-1, 1)
        return np.dot(B.reshape(len(B), -1), O)[:, 0] / self.q**m

    def _make_room(self, nbytes):
        """Drop the kept marginals of the halves if `nbytes` more fit the budget
        without them but not with them.  They are a cache that yields to the
        tables and halves, so no split and no refusal depends on them."""
        cached = sum(B.nbytes for B in self._shared.values())
        if self._kept - cached + nbytes <= SUPPORT_BUDGET < self._kept + nbytes:
            self._kept -= cached
            self._shared.clear()

    def _marginal(self, op, legs):
        """tr_rest(O) / q^(traced legs) on `legs`, axes (outputs..., inputs...)
        after the batch axis, if the tensor has one.

        A leg outside the support carries the identity, so the correlator of
        an observable B on `legs` is tr(B rho) / q^len(legs).
        """
        support, T = op
        s = len(support)
        labels = list(range(s)) * 2  # equal output and input labels: traced
        extra, outs, ins = [], [], []
        for k, leg in enumerate(legs):
            if leg in support:
                p = support.index(leg)
                labels[s + p] = s + p
                outs.append(p)
                ins.append(s + p)
            else:
                extra += [self._eye, [2 * s + 2 * k, 2 * s + 2 * k + 1]]
                outs.append(2 * s + 2 * k)
                ins.append(2 * s + 2 * k + 1)
        batch = [2 * s + 2 * len(legs)] * (T.ndim - 2 * s)
        traced = s - sum(leg in support for leg in legs)
        return np.einsum(T, batch + labels, *extra, batch + outs + ins) / self.q**traced

    def _table(self, store, key, entries, build):
        """store[key], built by build() on first use.  The tables a simulator
        keeps count against the budget together, checked before one is built."""
        if key not in store:
            self._make_room(16 * entries)
            _require_budget(self._kept + 16 * entries,
                            "the kept correlator tables and backward halves")
            table = build()
            table.setflags(write=False)
            store[key] = table
            self._kept += table.nbytes
        return store[key]

    def single_site_table(self, i, y, t):
        """C[x, j] = tr[a_j^x U^-t a_i^y U^t] / q^(2L) for every leg x and basis index j.

        Built by meeting in the middle.  With V = V1 V2 the gates of
        t = t1 + t2 periods in the order they are applied,
        tr[a_j^x V^dag a_i V] = tr[(V2 a_j^x V2^dag)(V1^dag a_i V1)]: a_i is
        evolved forward t1 periods, and the basis at each leg x backward t2
        periods, once per simulator for every table.  Each half covers at most
        4 t1 or 4 t2 legs, not 4t.  t2 = 0 reads the marginals of the forward
        operator; `_split` picks t2 from the sizes alone."""
        leg = self.site_leg(y)

        def build():
            t2 = self._split(leg, t)
            op = self._evolve({leg: self.basis[i]}, t - t2)
            if t2:
                return np.array([self._meet(op, t2, x) for x in range(self.n_legs)])
            rows = {}  # per support leg, and one for every leg off it (None)
            for x in range(self.n_legs):
                key = x if x in op[0] else None
                if key not in rows:
                    rows[key] = np.einsum("jab,ba->j", self.basis, self._marginal(op, [x]))
            return np.array([rows[x if x in op[0] else None]
                             for x in range(self.n_legs)]) / self.q

        return self._table(self._single, (i, leg, t), self.n_legs * self.q**2, build)

    def _two_site_table(self, i, j, t):
        """C[x1, x2, k, l] = tr[a_k^{x1} a_l^{x2} U^-t a_i^0 a_j^{1/2} U^t] / q^(2L)
        for every pair of legs and basis indices."""
        n, q, B = self.n_legs, self.q, self.basis

        def build():
            op = self._evolve({0: B[i], 1: B[j]}, t)
            products = np.einsum("kab,lbc->klac", B, B)  # a_k a_l on one leg

            def entry(x1, x2):
                if x1 == x2:
                    return np.einsum("klab,ba->kl", products, self._marginal(op, [x1])) / q
                return np.einsum("kab,lcd,bdac->kl", B, B, self._marginal(op, [x1, x2])) / q**2

            table = np.empty((n, n, q * q, q * q), dtype=complex)
            values = {}  # a leg off the support (None) carries the identity, whichever it is
            for x1 in range(n):
                for x2 in range(n):
                    key = (x1 if x1 in op[0] else None, x2 if x2 in op[0] else None, x1 == x2)
                    if key not in values:
                        values[key] = entry(x1, x2)
                    table[x1, x2] = values[key]
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
