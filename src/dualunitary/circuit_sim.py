"""Brickwork-circuit correlators on a ring of 2L qudits, contracted on their causal diamond.

The one-period evolution is U_F = T U^(xL) T^dag U^(xL): a layer of two-site
gates on pairs (x, x+1/2), then the same layer shifted by one site.  Sites
sit at half-integer positions; site x maps to tensor leg 2x.

A correlator tr[B U_F^-t A U_F^t] / q^(2L), of an operator A on the initial
legs and an observable B on the target legs, is a network of folded gates:
on the operator spaces of its two legs (q^2 each), a gate g is the q^4 x q^4
matrix W = g^dag (x) g^T of A -> g^dag A g.  A gate outside the forward light
cone of A meets identities and cancels by unitarity, and so does one outside
the backward cone of B; what is left is the causal diamond of Bertini, Kos
and Prosen, PRL 123, 210601 (2019).  One sweep contracts it: its gates act in
a topological order on a state over the live legs, a leg opening with the
identity at its first gate and, unless it is a target, traced out after its
last, both folded into that gate's matrix.  The plan is made in one backward
pass over the forward cone; of the two orders that put first the smaller
light-cone coordinate depth + position or depth - position, it keeps the one
whose largest state is smaller: inside the window t <= L/2 a single-site
sweep carries at most t + 1 legs, 16 q^(2(t+1)) bytes per batch entry, where
the whole evolved operator covers 4t legs.  The plan is the geometry alone,
so every output byte follows from the inputs, and its state is checked
against the budget before anything is allocated.  A correlator is computed
when it is asked for: a point query is one sweep, and a table of them, or a
`circuit corr` grid of tables, checks its own bytes against the same budget
before its first sweep; the simulator keeps no result.  Beyond the window the
cones wrap around the ring: the sweep stays exact, and only its state grows.
The correlators are infinite-temperature traces, so no state sampling enters
and the results are exact.

The simulator exists to validate channel predictions: for dual gates the
single-site correlator vanishes strictly inside the light cone and equals
tr[M_pm^(2t)(a_i) a_j]/q on the cone, and for 2-unitary gates the two-site
correlator vanishes at every spacetime-separated point.  The predictions
hold up to half the particle number, t <= L/2; that window is a condition
of the prediction, checked by `dualu circuit verify`, while the contraction
here is exact at any t >= 0.
"""

import heapq
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .tensor_ops import ValidationError, local_dim, require_int, require_unitary
from .tolerances import SITE_TOL

# bytes a simulator may spend on each of: the state of one sweep (16 q^(2 legs)
# per batch entry; a gate step holds about three at once), one correlator
# table, and the tables of a `circuit corr` grid together
SUPPORT_BUDGET = 2**28
# the sides (0 for a gate's first leg, 1 for its second) in a bit mask, and the
# slice of [first leg, second leg] that the mask leaves
_SIDES = ((), (0,), (1,), (0, 1))
_LEFT = (slice(0, 2), slice(1, 2), slice(0, 1), slice(0, 0))


def _require_budget(nbytes, what):
    if nbytes > SUPPORT_BUDGET:
        raise ValidationError(f"{what}: {nbytes / 2**20:.0f} MiB, above the "
                              f"{SUPPORT_BUDGET / 2**20:.0f} MiB budget")


@dataclass
class CircuitConfig:
    """A brickwork ring of 2L qudits of dimension q, q an integer >= 2 and L
    an integer >= 1.  The gate and every per-bond gate are q^2 x q^2 and
    unitary to GATE_UNITARY_TOL; anything else is refused here, before a
    simulator is built."""
    q: int
    L: int
    gate: np.ndarray
    even_gates: list = None   # optional per-bond gates for the (x, x+1/2) layer
    odd_gates: list = None    # ... and the (x+1/2, x+1) layer; L entries each

    def __post_init__(self):
        require_int(self.q, "q", 2)
        require_int(self.L, "L", 1)
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
    require_int(q, "q", 2)
    w = np.exp(2j * np.pi / q)
    X = np.zeros((q, q), dtype=complex)
    for k in range(q):
        X[(k + 1) % q, k] = 1.0
    XZ = np.array([X, np.diag(w ** np.arange(q))])
    # P[:, m] = X^m, Z^m as the products I X X ... and I Z Z ..., one matmul a
    # step, so every part of a_(m,n) = X^m Z^n keeps its bits and its zero signs
    P = np.empty((2, q, q, q), dtype=complex)
    P[:, 0] = np.eye(q)
    for m in range(1, q):
        np.matmul(P[:, m - 1], XZ, out=P[:, m])
    return np.matmul(P[0, :, None], P[1]).reshape(q * q, q, q)


class CircuitSimulator:
    """Contracts correlators on their causal diamonds.

    A sweep's state has one axis of q^2 per live leg, the leg's operator read
    row-major as (output, input), then a last axis for a batch of initial
    operators.  Nothing a call computes outlives it but the gate matrices.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.q = q = cfg.q
        self.L = cfg.L
        self.n_legs = 2 * cfg.L
        self.basis = B = weyl_basis(q)
        self._layers = (cfg.even_gates, cfg.odd_gates)
        one = np.eye(q).reshape(q * q)  # the identity on one leg
        self._open, self._trace = one[:, None], one[None, :] / q
        # C[j] = tr[a_j rho] / q from the state rho of one leg
        self._read = B.transpose(0, 2, 1).reshape(q * q, q * q).T / q
        self._gates = {}  # (gate id, opened, traced) -> the gate's matrix in a sweep

    def site_leg(self, x):
        leg = int(round(2 * x))
        if abs(2 * x - leg) > SITE_TOL:
            raise ValidationError(f"site {x} is not a half-integer position")
        return leg % self.n_legs

    def _steps(self, legs, t):
        """The gates of t periods in the forward light cone of `legs`, in the
        order they act, each as (depth, a, b, gate) on legs (a, b), the depth
        counting layers from 0.

        One period of U_F^dag A U_F, gate by gate: the unshifted layer on legs
        (2k, 2k+1), then the shifted one on (2k+1, 2k+2), first gate factor on
        the first leg, each gate g as g^dag A g.  This is the convention for
        which the correlator ray leaving y = 0 towards x = +t carries the
        powers of M_plus (and the y = 1/2 ray towards -t those of M_minus); for
        L = 1 it reads U_F = U . SUS.  The gates of a layer are disjoint, so the
        bonds it adds to the cone are those of its legs at its start."""
        if t < 0:
            raise ValidationError("t must be nonnegative")
        n = self.n_legs
        support = set(legs)
        steps = []
        for period in range(t):
            for layer, gates in enumerate(self._layers):
                for k in sorted({(leg - layer) % n // 2 for leg in support}):
                    a, b = 2 * k + layer, (2 * k + 1 + layer) % n
                    support |= {a, b}
                    steps.append((2 * period + layer, a, b,
                                  self.cfg.gate if gates is None else gates[k]))
        return steps

    def _gate(self, g, opened, traced):
        """The matrix of gate g in a sweep, from the operator spaces of its live
        input legs to those of its kept output legs: W = g^dag (x) g^T, with the
        identity fed to the legs in `opened` and the legs in `traced` traced
        out (tr / q); a leg is 0 for the gate's first and 1 for its second.
        One einsum: labels 0-3 are the outputs and inputs of g^dag, 4-7 the
        inputs and outputs of g, and an opened or traced leg shares a label."""
        key = (id(g), opened, traced)
        if key not in self._gates:
            q = self.q
            g = np.asarray(g, dtype=complex)
            right = [4, 5, 6, 7]
            for s in opened:
                right[s] = 2 + s
            for s in traced:
                right[2 + s] = s
            out = ([x for s in (0, 1) if s not in traced for x in (s, 6 + s)]
                   + [x for s in (0, 1) if s not in opened for x in (2 + s, 4 + s)])
            W = np.einsum(g.conj().T.reshape((q,) * 4), [0, 1, 2, 3],
                          g.reshape((q,) * 4), right, out)
            self._gates[key] = W.reshape(q ** (4 - 2 * len(traced)), -1) / q ** len(traced)
        return self._gates[key]

    def _plan(self, steps, legs, targets, batch, t):
        """The sweep that carries an operator on `legs` through `steps`, its
        forward cone, to the `targets`: a list of (matrix, input legs, output
        legs), each applied in turn to the state.  Its largest state is checked
        against the budget here, before any matrix is built.

        One backward pass over `steps` keeps the gates in the backward cone of
        the targets and links each to the next kept gate on its legs.  A leg
        other than a target is traced out after its last kept gate, or at once
        if it is an initial leg that none reaches; a target that none reaches
        opens at the end.  The kept set is closed under predecessors, so a kept
        gate opens a leg unless it is an initial leg or the pass meets an
        earlier gate on it.  The kept gates on one leg follow one another in
        every topological order, so their matrices do not depend on the order.
        Kahn's algorithm gives two orders, putting first the smaller depth +
        position or depth - position (the position of a gate's first leg
        counted from the first initial leg), and the plan keeps the one whose
        largest state has fewer legs, the first on a tie; no state is smaller
        than the `legs` it starts on or the `targets` it ends on."""
        n, need, nxt = self.n_legs, set(targets), {}
        # per kept step index: keys d + p and d - p, opened and traced sides as
        # bit masks, legs added to the state, successors, number of predecessors
        keys, opened, traced, growth, after, blocked = {}, {}, {}, {}, {}, {}
        for k in range(len(steps) - 1, -1, -1):
            d, a, b, _ = steps[k]
            if a in need or b in need:
                p = (a - legs[0] + n // 2) % n
                keys[k] = d + p, d - p
                opened[k] = (a not in legs) | (b not in legs) << 1
                traced[k] = (a not in need) | (b not in need) << 1
                growth[k] = opened[k].bit_count() - traced[k].bit_count()
                after[k], blocked[k] = [], 0
                for bit, x in ((1, a), (2, b)):
                    if x in nxt:  # k precedes the kept gate m on leg x: m does not open x
                        m, side = nxt[x]
                        after[k].append(m)
                        blocked[m] += 1
                        opened[m] &= ~side
                        growth[m] -= x not in legs
                    nxt[x] = k, bit
                need.add(a)
                need.add(b)
        first = [x for x in legs if x not in nxt and x not in targets]
        end = [x for x in targets if x not in nxt and x not in legs]

        def order(minus):  # by d + p, or by d - p
            left = dict(blocked)
            ready = [(keys[k][minus], k) for k, c in left.items() if not c]
            heapq.heapify(ready)
            out = []
            while ready:
                k = heapq.heappop(ready)[1]
                out.append(k)
                for m in after[k]:
                    left[m] -= 1
                    if not left[m]:
                        heapq.heappush(ready, (keys[m][minus], m))
            sizes = accumulate(map(growth.__getitem__, out), initial=len(legs) - len(first))
            return max(len(legs), len(targets), *sizes), out

        size, best = min(order(0), order(1), key=lambda o: o[0])
        nbytes = 16 * batch * self.q ** (2 * size)
        if nbytes > SUPPORT_BUDGET:  # the message is formatted only for a refusal
            _require_budget(nbytes, f"at t = {t} a sweep carries {size} legs as a q={self.q} "
                            "state" + (f" batch of {batch}" if batch > 1 else ""))
        plan = [(self._trace, [x], []) for x in first]
        for k in best:
            _, a, b, g = steps[k]
            ab, o, c = [a, b], opened[k], traced[k]
            plan.append((self._gate(g, _SIDES[o], _SIDES[c]), ab[_LEFT[o]], ab[_LEFT[c]]))
        return plan + [(self._open, [], [x]) for x in end]

    def _run(self, plan, legs, T, targets):
        """The state of a sweep after its plan, from T on `legs` (axes legs...,
        batch) to axes (targets..., batch).  A step reads the state with its
        input legs in front, the other axes in their order, so the batch axis
        stays last, and leaves its output legs in front."""
        axes, qq, batch = [*legs, -1], self.q**2, T.shape[-1]
        for W, ins, outs in plan:
            rest = [x for x in axes if x not in ins]
            T = np.dot(W, T.transpose([axes.index(x) for x in ins + rest]).reshape(W.shape[1], -1))
            axes = outs + rest
            T = T.reshape((qq,) * (len(axes) - 1) + (batch,))
        return T.transpose([axes.index(x) for x in (*targets, -1)])

    def _sweeps(self, steps, legs, T, targets, t):
        """The states of the sweeps from T on `legs` (axes legs..., batch) through
        `steps`, their t-period cone, to each tuple of target legs.  Every sweep
        is planned, and so checked against the budget, before the first runs."""
        plans = [self._plan(steps, legs, tg, T.shape[-1], t) for tg in targets]
        return (self._run(plan, legs, T, tg) for plan, tg in zip(plans, targets))

    def _target_states(self, legs, T, targets, t):
        """(keys, states): states[keys[n]] is the state (axes target legs...,
        batch) of the sweep from T on `legs` (axes legs..., batch) to the n-th
        tuple of `targets` after t periods.  A tuple with a leg in the forward
        cone of `legs` is its own key and sweep; the tuples off the cone share
        one state per length, their key: T traced out, then the identity
        opened, as `_plan` gives such a sweep, which keeps no gate."""
        steps = self._steps(legs, t)
        cone = set(legs).union(*(step[1:3] for step in steps))
        keys = [len(tg) if cone.isdisjoint(tg) else tg for tg in targets]
        on = [k for k in keys if type(k) is tuple]
        states = dict(zip(on, self._sweeps(steps, legs, T, on, t)))
        for k in set(keys) - states.keys():
            opened = [("open", m) for m in range(k)]
            plan = [(self._trace, [x], []) for x in legs] + [(self._open, [], [x]) for x in opened]
            states[k] = self._run(plan, legs, T, opened)
        return keys, states

    def _rows(self, i, leg, xs, t):
        """C[x, ..., j] at each leg x of xs: the a_i travel as the batch."""
        T = self.basis[np.asarray(i)].reshape(-1, self.q**2).T
        keys, states = self._target_states([leg], T, zip(xs), t)
        rows = {k: S.T @ self._read for k, S in states.items()}
        return np.array([rows[k] for k in keys]).reshape(len(xs), *np.shape(i), -1)

    def correlations(self, i, y, x, t):
        """C[..., j] = tr[a_j^x U^-t a_i^y U^t] / q^(2L) for every basis index j,
        by one sweep; i is a basis index, or a list of them for a leading axis."""
        return self._rows(i, self.site_leg(y), [self.site_leg(x)], t)[0]

    def single_site_table(self, i, y, t):
        """C[x, ..., j] = tr[a_j^x U^-t a_i^y U^t] / q^(2L) for every leg x and
        basis index j, one sweep per x in the forward cone of y; i is a basis
        index, or a tuple of them for the axis after x.  The table is checked
        against the budget before any sweep."""
        _require_budget(self._table_bytes(i), f"a correlator table on {self.n_legs} legs")
        return self._rows(i, self.site_leg(y), range(self.n_legs), t)

    def single_site_grid(self, i, y, t_max):
        """{t: single_site_table(i, y, t)} for t = 1, ..., t_max.  The grid, and
        so each of its tables, is checked against the budget before any sweep,
        and the t_max table, whose sweeps carry the largest states, is built
        first."""
        _require_budget(t_max * self._table_bytes(i),
                        f"t = 1..{t_max} correlator tables on {self.n_legs} legs")
        leg = self.site_leg(y)
        return {t: self._rows(i, leg, range(self.n_legs), t) for t in (t_max, *range(1, t_max))}

    def _table_bytes(self, i):
        return 16 * self.n_legs * np.size(i) * self.q**2

    def _pair_blocks(self, i, j, pairs, t):
        """C[k, l] = tr[a_k^{x1} a_l^{x2} U^-t a_i^0 a_j^{1/2} U^t] / q^(2L) for
        each pair of legs x1 <= x2 in `pairs`: one sweep per pair with a leg in
        the forward cone of {0, 1}; the pairs off it share the trace-then-open
        state."""
        nb, B = self.q**2, self.basis
        # C[k, l] = tr[a_k a_l rho] / q from the state rho of one leg
        products = np.einsum("kim,lmo->oikl", B, B).reshape(nb, -1) / self.q
        T = np.multiply.outer(B[i].reshape(nb), B[j].reshape(nb))[..., None]
        targets = ((x1,) if x1 == x2 else (x1, x2) for x1, x2 in pairs)
        keys, states = self._target_states([0, 1], T, targets, t)
        blocks = {k: (S[:, 0] @ products).reshape(nb, nb) if S.ndim == 2
                  else self._read.T @ S[..., 0] @ self._read for k, S in states.items()}
        return [blocks[k] for k in keys]

    def _two_site_table(self, i, j, t):
        """C[x1, x2, k, l] = tr[a_k^{x1} a_l^{x2} U^-t a_i^0 a_j^{1/2} U^t] / q^(2L)
        for every pair of legs and basis indices, checked against the budget
        before any sweep.  On two legs a_k^{x1} and a_l^{x2} commute."""
        n, nb = self.n_legs, self.q**2
        _require_budget(16 * (n * nb) ** 2, f"a two-site correlator table on {n} legs")
        pairs = [(x1, x2) for x1 in range(n) for x2 in range(x1, n)]
        table = np.empty((n, n, nb, nb), dtype=complex)
        for (x1, x2), C in zip(pairs, self._pair_blocks(i, j, pairs, t)):
            table[x1, x2] = C
            if x1 != x2:
                table[x2, x1] = C.T
        return table

    def correlation_single(self, i, j, x, y, t):
        """D^{ij}(x, y, t) = tr[a_j^x U^-t a_i^y U^t] / q^(2L), i, j > 0."""
        if i <= 0 or j <= 0:
            raise ValidationError("basis indices must be nontrivial (> 0)")
        return complex(self.correlations(i, y, x, t)[j])

    def c_plus(self, i, j, x, t):
        return self.correlation_single(i, j, x, 0.0, t)

    def c_minus(self, i, j, x, t):
        return self.correlation_single(i, j, x + 0.5, 0.5, t)

    def correlation_two_site(self, i, j, k, l, x1, x2, t):
        """tr[a_k^{x1} a_l^{x2} U^-t a_i^{0} a_j^{1/2} U^t] / q^(2L), by one sweep."""
        a, b = self.site_leg(x1), self.site_leg(x2)
        C = self._pair_blocks(i, j, [(min(a, b), max(a, b))], t)[0]
        return complex(C[k, l] if a <= b else C[l, k])
